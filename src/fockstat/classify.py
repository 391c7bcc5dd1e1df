"""Statistics labels and their classification.

A label [q0,q1,...]± fixes an integer polynomial with alternating signs;
the label describes an admissible particle statistics exactly when that
polynomial has all roots real and of the correct sign.  Everything here is
decided in exact rational arithmetic — validity is a hard gate for the rest
of the package, so no floating-point root finding is used anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import (
    InsufficientHorizonError,
    InvalidStatisticsError,
    ResourceGuardError,
)
from .symfunc import IntegerSeries, Partition, _det_bareiss, _partitions_of

__all__ = [
    "Kind",
    "StatisticsSpec",
    "ClassificationReport",
    "TotalPositivityResult",
    "build_polynomial",
    "is_valid_statistics",
    "require_valid",
    "is_irreducible_statistics",
    "least_positive_root",
    "character_coefficients",
    "single_mode_character",
    "excitation_spectrum",
    "max_occupation",
    "totally_positive_upto",
]

FACTORIZATION_DEGREE_BOUND = 8
TOTAL_POSITIVITY_ORDER_BOUND = 6


class Kind(enum.Enum):
    FERMIONIC_LIKE = "fermionic-like"
    BOSONIC_LIKE = "bosonic-like"


@dataclass(frozen=True)
class StatisticsSpec:
    """A statistics label: sign kind plus positive coefficient list q0..q_deg."""

    kind: Kind
    q: tuple[int, ...]

    def __init__(self, kind: Kind, q: Sequence[int]):
        q = tuple(int(v) for v in q)
        if len(q) < 2:
            raise ValueError("label must have degree >= 1 (at least two coefficients)")
        if any(v < 1 for v in q):
            raise ValueError(f"all coefficients must be positive integers: {q}")
        if kind is Kind.BOSONIC_LIKE and q[0] != 1:
            raise ValueError("bosonic-like labels require q0 = 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "q", q)

    @property
    def order(self) -> int:
        """Degree of the defining polynomial."""
        return len(self.q) - 1

    @property
    def is_fermionic_like(self) -> bool:
        return self.kind is Kind.FERMIONIC_LIKE

    @property
    def unique_vacuum(self) -> bool:
        return self.q[0] == 1

    def label(self) -> str:
        sign = "-" if self.is_fermionic_like else "+"
        return ",".join(str(v) for v in self.q) + ":" + sign

    def __repr__(self) -> str:
        return f"StatisticsSpec({self.label()!r})"


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the validity test for one label.

    ``max_occupation`` is None when unbounded (bosonic-like) or when the
    label is invalid; ``irreducible`` is None past the factorization
    bound.  ``roots_summary`` counts distinct real roots of the defining
    polynomial by sign.
    """

    valid: bool
    irreducible: bool | None
    order: int
    max_occupation: int | None
    roots_summary: dict[str, int]
    unique_vacuum: bool
    failure_reason: str | None = None


def build_polynomial(spec: StatisticsSpec) -> list[int]:
    """Ascending coefficients of the defining polynomial.

    Fermionic-like labels give all-positive coefficients; bosonic-like ones
    alternate signs, so [1,1]+ maps to 1 - x.
    """
    if spec.is_fermionic_like:
        return list(spec.q)
    return [(-1) ** s * v for s, v in enumerate(spec.q)]


# ---------------------------------------------------------------------------
# exact polynomial arithmetic over rationals (ascending coefficient lists)


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _divmod_poly(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = a[:]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    # trim before the length test, so the shift below can never go negative
    while _trim(a) and len(a) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return _trim(q), a


def _gcd_poly(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _divmod_poly(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    """Sturm chain of the square-free part of p."""
    squarefree = _divmod_poly(p, _gcd_poly(p, _deriv(p)))[0]
    chain = [squarefree, _deriv(squarefree)]
    while len(chain[-1]) > 1:
        rem = _divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _roots_upto(chain: list[list[Fraction]], upper: Fraction | None) -> int:
    """Distinct roots in (0, upper] ((0, inf) for None) from a Sturm chain.

    The sign variation count is right-continuous at roots, so a root on
    either end is counted exactly when it lies in the half-open interval.
    """
    at_zero = [_sign(next(c for c in poly if c)) for poly in chain]  # x -> 0+
    if upper is None:
        at_upper = [_sign(poly[-1]) for poly in chain]
    else:
        at_upper = [_sign(_poly_eval(poly, upper)) for poly in chain]
    return _variations(at_zero) - _variations(at_upper)


def _on_positive_side(coeffs: Sequence[int | Fraction], positive: bool) -> list[Fraction]:
    """p(x), or p(-x) to move the negative half-line onto the positive one."""
    return _trim([Fraction(c) * (1 if positive else (-1) ** i) for i, c in enumerate(coeffs)])


def count_real_roots(coeffs: Sequence[int | Fraction], positive: bool) -> int:
    """Real roots (with multiplicity) of an integer polynomial on a half-line.

    A root of multiplicity m is a distinct root of each of p, gcd(p, p'),
    ... (m of them).
    """
    p = _on_positive_side(coeffs, positive)
    total = 0
    while len(p) > 1:
        total += _roots_upto(_sturm_chain(p), None)
        p = _gcd_poly(p, _deriv(p))
    return total


def count_real_roots_upto(coeffs: Sequence[int | Fraction], upper: Fraction) -> int:
    """Distinct roots in the interval (0, upper], exact. Used for divergence detection."""
    return _roots_upto(_sturm_chain([Fraction(c) for c in coeffs]), Fraction(upper))


def least_positive_root(coeffs: Sequence[int]) -> float:
    """Smallest float y with a root of the polynomial in (0, y], for a
    polynomial with a root in (0, 1]: float bisection, each midpoint decided
    exactly on one Sturm chain, until the bracket is two adjacent floats."""
    chain = _sturm_chain([Fraction(c) for c in coeffs])
    lo, hi = 0.0, 1.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if _roots_upto(chain, Fraction(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def _poly_eval(p: Sequence, x):
    """Horner's rule; exact for Fractions, plain float arithmetic for a float x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# validity and irreducibility


def require_valid(spec: StatisticsSpec) -> None:
    """The validity gate every operation on a label passes through: raises
    InvalidStatisticsError, carrying the full report, for invalid labels.
    Builds the report (with its Kronecker factorization) only then."""
    if count_real_roots(build_polynomial(spec), not spec.is_fermionic_like) != spec.order:
        raise InvalidStatisticsError(is_valid_statistics(spec))


def is_valid_statistics(spec: StatisticsSpec) -> ClassificationReport:
    """Admissibility gate: all roots real and strictly negative
    (fermionic-like) or strictly positive (bosonic-like), counted with
    multiplicity by exact Sturm sequences.  ``irreducible`` is None past
    the factorization bound."""
    coeffs = build_polynomial(spec)
    deg = spec.order
    wanted_positive = not spec.is_fermionic_like
    with_mult = count_real_roots(coeffs, wanted_positive)
    valid = with_mult == deg
    summary = {
        side: _roots_upto(_sturm_chain(_on_positive_side(coeffs, side == "positive")), None)
        for side in ("negative", "positive")
    }

    reason = None
    if not valid:
        side = "positive" if wanted_positive else "negative"
        reason = (
            f"defining polynomial has {with_mult} real {side} roots "
            f"(with multiplicity) out of degree {deg}; "
            f"all roots must be real and strictly {side}"
        )

    p = sum(spec.q) - 1 if (valid and spec.is_fermionic_like) else None
    return ClassificationReport(
        valid=valid,
        irreducible=None if deg > FACTORIZATION_DEGREE_BOUND else is_irreducible_statistics(spec),
        order=deg,
        max_occupation=p,
        roots_summary=summary,
        unique_vacuum=spec.unique_vacuum,
        failure_reason=reason,
    )


def max_occupation(spec: StatisticsSpec) -> int | None:
    """Generalized exclusion bound: Q-(1) - 1 per mode, or None if unbounded."""
    if spec.is_fermionic_like:
        return sum(spec.q) - 1
    return None


def _divisors_signed(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, int(n**0.5) + 1):
        if n % d == 0:
            out.extend((d, n // d))
    out = sorted(set(out))
    return [s * d for d in out for s in (1, -1)]


def _has_rational_root(coeffs: list[int]) -> bool:
    lead, const = coeffs[-1], coeffs[0]
    num_candidates = {abs(d) for d in _divisors_signed(const)} if const else {0}
    den_candidates = {abs(d) for d in _divisors_signed(lead)}
    for num in num_candidates:
        for den in den_candidates:
            for sign in (1, -1):
                x = Fraction(sign * num, den)
                if _poly_eval([Fraction(c) for c in coeffs], x) == 0:
                    return True
    return False


def _lagrange_interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique polynomial through the points."""
    result = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # multiply basis by (x - xj)
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xj * basis[t + 1]
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for t, c in enumerate(basis):
            result[t] += scale * c
    return _trim(result)


def is_irreducible_statistics(spec: StatisticsSpec) -> bool:
    """True iff the defining polynomial has no factorization into two
    non-constant integer polynomials (Kronecker trial factorization)."""
    return _is_irreducible(build_polynomial(spec))


def _is_irreducible(coeffs: list[int]) -> bool:
    deg = len(coeffs) - 1
    if deg > FACTORIZATION_DEGREE_BOUND:
        raise ResourceGuardError(
            f"factorization bound exceeded: degree {deg} > {FACTORIZATION_DEGREE_BOUND}"
        )
    if deg <= 1:
        return True
    if _has_rational_root(coeffs):
        return False
    frac = [Fraction(c) for c in coeffs]
    sample_xs = [0] + [v for k in range(1, deg + 1) for v in (k, -k)]
    for m in range(2, deg // 2 + 1):
        xs = sample_xs[: m + 1]
        values = [int(_poly_eval(frac, Fraction(x))) for x in xs]
        divisor_lists = [_divisors_signed(v) for v in values]
        # factor sign is irrelevant: pin the first divisor positive
        divisor_lists[0] = [d for d in divisor_lists[0] if d > 0]
        for combo in product(*divisor_lists):
            cand = _lagrange_interpolate(list(zip(xs, combo)))
            if len(cand) - 1 != m:
                continue
            if any(c.denominator != 1 for c in cand):
                continue
            quot, rem = _divmod_poly(frac, cand)
            if not rem and all(c.denominator == 1 for c in quot):
                return False
    return True


# ---------------------------------------------------------------------------
# single-mode character and excitation spectrum


def character_coefficients(spec: StatisticsSpec, horizon: int) -> list[int]:
    """Raw coefficient recurrence for the single-mode character candidate.

    Not gated on validity: invalid bosonic-like labels can produce negative
    coefficients here, which is exactly what the total-positivity cross-check
    needs to see.  Fermionic-like labels return the full finite list.
    """
    if spec.is_fermionic_like:
        return list(spec.q)
    if horizon < spec.order:
        raise ValueError(f"horizon {horizon} below polynomial degree {spec.order}")
    poly = build_polynomial(spec)
    out = [1]
    for n in range(1, horizon + 1):
        acc = 0
        for j in range(1, min(n, spec.order) + 1):
            acc -= poly[j] * out[n - j]
        out.append(acc)
    return out


def single_mode_character(spec: StatisticsSpec, horizon: int) -> IntegerSeries:
    """Character series of a valid label: Q- itself, or 1/Q+ to the horizon.

    Raises InvalidStatisticsError (carrying the report) for invalid labels.
    """
    require_valid(spec)
    coeffs = character_coefficients(spec, horizon)
    if any(c < 0 for c in coeffs):
        raise RuntimeError(
            f"internal error: valid label {spec.label()} produced a negative "
            "character coefficient"
        )
    return IntegerSeries(coeffs, truncated=not spec.is_fermionic_like)


def excitation_spectrum(spec: StatisticsSpec, cutoff: int | None = None) -> tuple[int, ...]:
    """Non-decreasing excitation values f_0 <= f_1 <= ..., one per basis state.

    The multiset puts value s in exactly a_s slots, a being the character
    coefficients; the canonical assignment to occupation indices is
    non-decreasing.  ``cutoff`` bounds the largest emitted value and is
    mandatory for bosonic-like labels (fermionic spectra are finite and
    emitted whole).
    """
    if spec.is_fermionic_like:
        series = single_mode_character(spec, spec.order)
    else:
        if cutoff is None:
            raise ValueError("bosonic-like spectra are infinite: cutoff is mandatory")
        series = single_mode_character(spec, cutoff)
    out: list[int] = []
    for s, mult in enumerate(series.coeffs):
        out.extend([s] * mult)
    return tuple(out)


# ---------------------------------------------------------------------------
# total positivity up to a fixed minor order


@dataclass(frozen=True)
class TotalPositivityResult:
    """Verdict of the windowed minor test; falsy iff a witness was found."""

    totally_positive: bool
    witness_rows: tuple[int, ...] | None = None
    witness_cols: tuple[int, ...] | None = None
    witness_value: int | None = None

    def __bool__(self) -> bool:
        return self.totally_positive


def _neville_pass(m: list[list[Fraction]]) -> bool:
    """One-sided Neville elimination; True iff it completes with nonnegative
    multipliers and pivots, exchanging only rows that are zero from the
    pivot column on (pushed to the bottom)."""
    n = len(m)
    for k in range(n):
        live = [row for row in m[k:] if any(row[k:])]
        dead = [row for row in m[k:] if not any(row[k:])]
        m[k:] = live + dead
        for i in range(k + len(live) - 1, k, -1):
            if m[i][k] == 0:
                continue
            if m[i - 1][k] == 0:
                return False
            mult = m[i][k] / m[i - 1][k]
            if mult < 0:
                return False
            m[i] = [x - mult * y for x, y in zip(m[i], m[i - 1])]
        if m[k][k] < 0:
            return False
    return True


def _neville_tnn(window: list[list[int]]) -> bool:
    a = [[Fraction(x) for x in row] for row in window]
    at = [list(col) for col in zip(*a)]
    return _neville_pass(a) and _neville_pass(at)


def _pairs_by_weight(K: int, order: int, smax: int) -> Iterator[tuple[int, Partition, Partition]]:
    """Candidate minor classes (k, lam, mu), lazily, by ascending total weight.

    Every k x k window minor, k <= order, is det(a_{lam_i - mu_j - i + j})
    for a unique partition pair; padding rows multiply the value by a_0 > 0,
    so each pair is evaluated once at its minimal size.  Pairs whose matrix
    has a guaranteed zero row or column (series support [0, smax]) are
    skipped: their minor is 0.  A necessary liveness condition,
    |lam_1 - mu_1| <= smax, prunes the pairing loop itself.
    """
    max_single = order * K
    by_weight: list[dict[int, list[tuple[int, ...]]]] = []

    def groups(w: int) -> dict[int, list[tuple[int, ...]]]:
        while len(by_weight) <= w:
            ww = len(by_weight)
            g: dict[int, list[tuple[int, ...]]] = {}
            for p in _partitions_of(ww, min(ww, K), order):
                g.setdefault(p[0] if p else 0, []).append(p)
            by_weight.append(g)
        return by_weight[w]

    for w in range(0, 2 * max_single + 1):
        batch: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        for wl in range(min(w, max_single), -1, -1):
            wr = w - wl
            if wr > max_single:
                continue
            for first, lams in groups(wl).items():
                for lp in lams:
                    for mu1 in range(max(first - smax, 0), first + smax + 1):
                        for mp in groups(wr).get(mu1, ()):
                            k = max(len(lp), len(mp), 1)
                            if lp and lp[0] > K - k + 1:
                                continue
                            if mp and mp[0] > K - k + 1:
                                continue
                            if _has_dead_line(lp, mp, k, smax):
                                continue
                            batch.append((k, lp, mp))
        batch.sort(key=lambda t: (t[0], tuple(-p for p in t[1]), tuple(-p for p in t[2])))
        for k, lp, mp in batch:
            yield k, Partition(lp), Partition(mp)


def _has_dead_line(lam: tuple[int, ...], mu: tuple[int, ...], k: int, smax: int) -> bool:
    lp = lam + (0,) * (k - len(lam))
    mp = mu + (0,) * (k - len(mu))
    u = [lp[i] - (i + 1) for i in range(k)]
    v = [(j + 1) - mp[j] for j in range(k)]
    for ui in u:
        if not any(0 <= ui + vj <= smax for vj in v):
            return True
    for vj in v:
        if not any(0 <= ui + vj <= smax for ui in u):
            return True
    return False


def _witness_indices(lam: Partition, mu: Partition, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lp, mp = lam.padded(k), mu.padded(k)
    rows = tuple(sorted(lp[i] + k - (i + 1) for i in range(k)))
    cols = tuple(sorted(mp[j] + k - (j + 1) for j in range(k)))
    return rows, cols


def totally_positive_upto(a: IntegerSeries, order: int) -> TotalPositivityResult:
    """Check every k x k minor, k <= order, of the Toeplitz matrix (a_{i-j})
    restricted to the index window [0, horizon].

    A Neville-elimination certificate settles the (common) fully totally
    nonnegative case in O(horizon^3) exact operations; otherwise minor
    classes are scanned in ascending total weight until a negative witness
    appears.  The scan is exhaustive, so inputs that are nonnegative up to
    ``order`` but fail at larger minors decide slowly.
    """
    if order > TOTAL_POSITIVITY_ORDER_BOUND:
        raise ResourceGuardError(
            f"order {order} exceeds guard {TOTAL_POSITIVITY_ORDER_BOUND}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    K = a.horizon
    if K + 1 < order:
        raise InsufficientHorizonError(required=order - 1, horizon=K)
    window = [[a.coeff(i - j) for j in range(K + 1)] for i in range(K + 1)]
    if _neville_tnn(window):
        return TotalPositivityResult(True)
    smax = max(s for s, c in enumerate(a.coeffs) if c != 0)
    for k, lam, mu in _pairs_by_weight(K, order, smax):
        lp, mp = lam.padded(k), mu.padded(k)
        m = [[a.coeff(lp[i] - mp[j] - i + j) for j in range(k)] for i in range(k)]
        val = _det_bareiss(m)
        if val < 0:
            rows, cols = _witness_indices(lam, mu, k)
            return TotalPositivityResult(False, rows, cols, val)
    return TotalPositivityResult(True)
