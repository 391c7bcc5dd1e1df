"""Exact symmetric-function kernel.

Partitions, semistandard Young tableaux, Schur polynomial evaluation and
expansion, and Toeplitz-minor determinants over arbitrary-precision integers.
Everything here is exact; floating point enters only in ``schur_eval`` for
numeric points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import InsufficientHorizonError, ResourceGuardError

__all__ = [
    "Partition",
    "IntegerSeries",
    "enumerate_partitions",
    "schur_monomials",
    "schur_eval",
    "schur_dimension",
    "toeplitz_minor",
    "schur_expand_product",
    "schur_expand_oracle",
]

# Pairwise-coordinate threshold below which the bialternant ratio is 0/0-ill
# and evaluation falls back to exact SSYT summation.
COINCIDENCE_THRESHOLD = 1e-9

# Largest instance the brute-force Schur expansion oracle accepts.
ORACLE_MAX_MODES = 3
ORACLE_MAX_WEIGHT = 6


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers (a Young diagram).

    Trailing zeros are stripped on construction; the empty partition is
    ``Partition(())``.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i, p in enumerate(parts):
            if p < 0:
                raise ValueError(f"negative part {p} in partition {parts}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            sum(1 for p in self.parts if p > i) for i in range(self.parts[0])
        )

    def padded(self, n: int) -> tuple[int, ...]:
        """Parts extended with zeros to length ``n`` (``n >= length``)."""
        return self.parts + (0,) * (n - len(self.parts))

    @property
    def sort_key(self) -> tuple:
        """Graded lexicographic key: weight first, then larger leading parts."""
        return (self.weight, tuple(-p for p in self.parts))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


@dataclass(frozen=True)
class IntegerSeries:
    """Coefficient sequence a_0, a_1, ..., a_K of a candidate single-mode character.

    ``truncated=True`` marks the prefix of an infinite series (e.g. 1/Q+);
    asking such a series for a coefficient beyond its horizon is an error
    rather than a silent zero.  Coefficients must be non-negative integers
    with a_0 >= 1 (characters are normalized up to determinant).
    """

    coeffs: tuple[int, ...]
    truncated: bool = False

    def __init__(self, coeffs: Iterable[int], truncated: bool = False):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        if coeffs[0] < 1:
            raise ValueError(f"a_0 must be >= 1, got {coeffs[0]}")
        for s, c in enumerate(coeffs):
            if c < 0:
                raise ValueError(f"negative coefficient a_{s} = {c}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "truncated", bool(truncated))

    @property
    def horizon(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> int:
        if n < 0:
            return 0
        if n <= self.horizon:
            return self.coeffs[n]
        if self.truncated:
            raise InsufficientHorizonError(required=n, horizon=self.horizon)
        return 0


def _partitions_of(n: int, max_part: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts <= max_part and length <= max_len,
    in lexicographically descending order."""
    if n == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first, max_len - 1):
            yield (first,) + rest


def enumerate_partitions(max_weight: int, max_length: int) -> list[Partition]:
    """All partitions with weight <= max_weight and length <= max_length.

    Order is graded lexicographic: by weight, then by parts with larger
    leading parts first, e.g. (0,2,2) -> [(), (1,), (2,), (1,1)].
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    out: list[Partition] = []
    for w in range(max_weight + 1):
        out.extend(Partition(p) for p in _partitions_of(w, w, max_length))
    return out


def _ssyt_rows(length: int, d: int, floor_row: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Weakly increasing rows of given length over {1..d} with row[c] > floor_row[c]."""
    row = [0] * length

    def rec(c: int, lo: int) -> Iterator[tuple[int, ...]]:
        if c == length:
            yield tuple(row)
            return
        start = max(lo, floor_row[c] + 1)
        for v in range(start, d + 1):
            row[c] = v
            yield from rec(c + 1, v)

    yield from rec(0, 1)


def schur_monomials(lam: Partition, d: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the Schur polynomial s_lam(x_1..x_d).

    Maps exponent vectors alpha to the number of semistandard Young tableaux
    of shape ``lam`` and type alpha (entries from {1..d}, rows weakly and
    columns strictly increasing).  Empty when d < length(lam) — the
    polynomial is identically zero then, which is not an error.
    """
    if lam.length > d:
        return {}
    counts: dict[tuple[int, ...], int] = {}
    shape = lam.parts

    def fill(r: int, above: tuple[int, ...], alpha: list[int]) -> None:
        if r == len(shape):
            key = tuple(alpha)
            counts[key] = counts.get(key, 0) + 1
            return
        floor = above[: shape[r]] if above else (0,) * shape[r]
        for row in _ssyt_rows(shape[r], d, floor):
            for v in row:
                alpha[v - 1] += 1
            fill(r + 1, row, alpha)
            for v in row:
                alpha[v - 1] -= 1

    fill(0, (), [0] * d)
    return counts


def schur_eval(lam: Partition, point: Iterable[complex]) -> complex:
    """Numeric value of s_lam at a point with d >= length(lam) coordinates.

    Uses the bialternant determinant ratio; falls back to exact SSYT
    summation when two coordinates are closer than COINCIDENCE_THRESHOLD
    (the ratio degenerates to 0/0 at coinciding coordinates).
    """
    xs = [complex(x) for x in point]
    d = len(xs)
    if d < lam.length:
        raise ValueError(f"need at least {lam.length} coordinates, got {d}")
    if lam.weight == 0:
        return 1.0 + 0.0j
    coincident = any(
        abs(xs[i] - xs[j]) < COINCIDENCE_THRESHOLD
        for i in range(d)
        for j in range(i + 1, d)
    )
    if coincident:
        total = 0.0 + 0.0j
        for alpha, mult in schur_monomials(lam, d).items():
            term = complex(mult)
            for x, a in zip(xs, alpha):
                term *= x**a
            total += term
        return total
    padded = lam.padded(d)
    num = np.array(
        [[x ** (padded[j] + d - 1 - j) for j in range(d)] for x in xs],
        dtype=complex,
    )
    den = np.array([[x ** (d - 1 - j) for j in range(d)] for x in xs], dtype=complex)
    return complex(np.linalg.det(num) / np.linalg.det(den))


def schur_dimension(lam: Partition, d: int) -> int:
    """Dimension of the unitary-group irreducible labelled by ``lam`` on d modes.

    Weyl product formula; equals the number of SSYTs of shape lam with
    entries <= d.
    """
    if lam.length > d:
        return 0
    padded = lam.padded(d)
    dim = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            dim *= Fraction(padded[i] - padded[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by Sylvester's identity
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor_matrix(
    a: IntegerSeries, lam: Partition, mu: Partition, d: int
) -> list[list[int]]:
    lp = lam.padded(d)
    mp = mu.padded(d)
    needed = max(lp[i] - mp[j] - i + j for i in range(d) for j in range(d))
    if a.truncated and needed > a.horizon:
        raise InsufficientHorizonError(required=needed, horizon=a.horizon)
    return [
        [a.coeff(lp[i] - mp[j] - i + j) for j in range(d)] for i in range(d)
    ]


def toeplitz_minor(a: IntegerSeries, lam: Partition, mu: Partition, d: int) -> int:
    """Exact determinant det(a_{lam_i - mu_j - i + j})_{1<=i,j<=d}.

    Partitions are zero-padded to length d; out-of-range series indices
    contribute 0, except that a truncated series raises when an index
    beyond its horizon is required.
    """
    if d < max(lam.length, mu.length):
        raise ValueError(
            f"d={d} must cover both partition lengths "
            f"({lam.length} and {mu.length})"
        )
    return _det_bareiss(_minor_matrix(a, lam, mu, d))


def schur_expand_product(
    a: IntegerSeries, d: int, max_weight: int
) -> dict[Partition, int]:
    """Schur coefficients of the d-fold product of one single-variable series.

    Returns the map lam -> c_lam over all partitions with length <= d and
    weight <= max_weight, computed as Toeplitz minors with mu empty.  Zero
    coefficients are omitted; values are exact integers (and may be
    negative when the series is not a valid character).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    empty = Partition(())
    out: dict[Partition, int] = {}
    for lam in enumerate_partitions(max_weight, d):
        c = toeplitz_minor(a, lam, empty, d)
        if c != 0:
            out[lam] = c
    return out


def _truncated_product(coeffs: list[int], d: int, max_weight: int) -> dict[tuple[int, ...], int]:
    """Product of d copies of a single-variable polynomial, one variable each,
    keeping total degree <= max_weight."""
    poly: dict[tuple[int, ...], int] = {(): 1}
    for _ in range(d):
        next_poly: dict[tuple[int, ...], int] = {}
        for expo, c in poly.items():
            used = sum(expo)
            for s in range(0, max_weight - used + 1):
                if s >= len(coeffs) or coeffs[s] == 0:
                    continue
                key = expo + (s,)
                next_poly[key] = next_poly.get(key, 0) + c * coeffs[s]
        poly = next_poly
    return poly


def schur_expand_oracle(a: IntegerSeries, d: int, max_weight: int) -> dict[Partition, int]:
    """Brute-force Schur expansion, independent of the minor route.

    Multiplies truncated single-variable factors explicitly, then peels off
    Schur monomial expansions greedily in graded-lexicographic order of
    leading monomials.  Small instances only: d <= ORACLE_MAX_MODES and
    max_weight <= ORACLE_MAX_WEIGHT.
    """
    if d > ORACLE_MAX_MODES:
        raise ResourceGuardError("ORACLE_MAX_MODES", ORACLE_MAX_MODES, d, "Schur expansion oracle")
    if max_weight > ORACLE_MAX_WEIGHT:
        raise ResourceGuardError(
            "ORACLE_MAX_WEIGHT", ORACLE_MAX_WEIGHT, max_weight, "Schur expansion oracle"
        )
    if a.truncated and max_weight > a.horizon:
        raise InsufficientHorizonError(required=max_weight, horizon=a.horizon)
    coeffs = [a.coeff(s) for s in range(min(max_weight, a.horizon) + 1)]
    residual = _truncated_product(coeffs, d, max_weight)

    out: dict[Partition, int] = {}
    for w in range(max_weight + 1):
        for parts in _partitions_of(w, w, d):
            lam = Partition(parts)
            c = residual.get(lam.padded(d), 0)
            if c == 0:
                continue
            out[lam] = c
            for alpha, mult in schur_monomials(lam, d).items():
                key = alpha
                new = residual.get(key, 0) - c * mult
                if new == 0:
                    residual.pop(key, None)
                else:
                    residual[key] = new
        leftover = [k for k in residual if sum(k) == w and len(k) == d]
        if leftover:
            raise RuntimeError(
                f"residual not symmetric at weight {w}: {leftover[:3]}"
            )
    return out
