"""Statistics labels and their classification.

A label [q0,q1,...]± fixes an integer polynomial with alternating signs;
the label describes an admissible particle statistics exactly when that
polynomial has all roots real and of the correct sign.  Everything here is
decided exactly, the validity gate in integer arithmetic — validity is a
hard gate for the rest of the package, so no floating-point root finding is
used anywhere.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice, product
from typing import Iterator, Sequence

from .errors import (
    InsufficientHorizonError,
    InvalidStatisticsError,
    ResourceGuardError,
)
from .symfunc import IntegerSeries

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
FACTORIZATION_TRIAL_BOUND = 4000  # Kronecker candidates, about 0.25 ms each
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
    label is invalid; ``irreducible`` is None past either factorization
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
# exact polynomial arithmetic over the rationals (ascending coefficient
# lists): the divergence test and the Kronecker factorization


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
    """Sturm chain of a square-free p of degree >= 1: p, p', then negated
    remainders down to a nonzero constant (gcd(p, p') is one)."""
    chain = [p, _deriv(p)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _divmod_poly(chain[-2], chain[-1])[1]])
    return chain


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _sign(x: int | Fraction) -> int:
    return (x > 0) - (x < 0)


def count_real_roots_upto(coeffs: Sequence[int | Fraction], upper: Fraction) -> int:
    """Distinct roots in (0, upper] (degree >= 1), exact, on a Sturm chain
    over the rationals; used for divergence detection.  The sign variation
    count V(x) drops by one across each distinct root and is right-continuous
    there, so V(0) - V(upper) counts the roots in (0, upper]."""
    p = _trim([Fraction(c) for c in coeffs])
    chain = _sturm_chain(_divmod_poly(p, _gcd_poly(p, _deriv(p)))[0])
    upper = Fraction(upper)
    return _variations([_sign(poly[0]) for poly in chain]) - _variations(
        [_sign(_poly_eval(poly, upper)) for poly in chain]
    )


# ---------------------------------------------------------------------------
# the validity gate over the integers: every polynomial below is an integer
# list.  A square-free layer is a nonzero multiple of the rational one, and
# each entry of its Sturm chain a multiple of the rational entry with the
# layer's sign, so every sign variation count is the rational chain's.


def _int_poly(coeffs: Sequence[int | Fraction]) -> list[int]:
    """coeffs times the (positive) lcm of their denominators, trimmed."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return _trim([c.numerator * (lcm // c.denominator) for c in coeffs])


def _primitive(p: list[int]) -> list[int]:
    """p over the (positive) gcd of its coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b, times a power of |lc(b)|, made primitive:
    each step scales a by |lc(b)| before cancelling its leading term, so
    the result is a positive multiple of the rational remainder."""
    a = a[:]
    lead, sign = abs(b[-1]), _sign(b[-1])
    while _trim(a) and len(a) >= len(b):
        shift, factor = len(a) - len(b), sign * a.pop()
        if lead != 1:
            a = [lead * c for c in a]
        for i, c in enumerate(b[:-1]):
            a[shift + i] -= factor * c
    return _primitive(a)


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of a and a primitive b by primitive remainders: primitive, and a
    nonzero multiple of the monic rational gcd."""
    while b:
        a, b = b, _prem(a, b)
    return a


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b dividing a over the rationals; by Gauss's
    lemma the quotient is integral, so every leading division is exact."""
    a = a[:]
    q = [0] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(q))):
        q[shift] = factor = a.pop() // b[-1]
        for i, c in enumerate(b[:-1]):
            a[shift + i] -= factor * c
    return q


def _int_sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of a square-free integer p of degree >= 1, each entry a
    positive multiple of the rational chain's: p, p', then negated
    primitive pseudo-remainders down to a nonzero constant."""
    chain = [p, _primitive(_deriv(p))]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _prem(chain[-2], chain[-1])])
    return chain


def _squarefree_layers(coeffs: Sequence[int | Fraction]) -> Iterator[list[int]]:
    """Square-free layers p/g1, g1/g2, ... of p (deg >= 1), g0 = p and
    g(k+1) = gcd(gk, gk'), each gcd built once and lazily: a root of
    multiplicity m is a simple root of each of the first m layers."""
    p = _int_poly(coeffs)
    while len(p) > 1:
        g = _int_gcd(p, _primitive(_deriv(p)))
        yield _exact_div(p, g)
        p = g


def _sign_at(p: list[int], num: int, den: int) -> int:
    """Sign of p(num/den), den > 0: Horner's rule on den^deg p(num/den)."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return _sign(acc)


def _layer_roots(coeffs: Sequence[int | Fraction]) -> list[tuple[int, int]]:
    """Distinct roots on (-inf, 0) and on (0, inf) of each square-free
    layer, from one Sturm chain: the leading terms give V(-inf) and
    V(+inf), the constant terms V(0), and a root at 0, which
    V(-inf) - V(0) counts, is taken off the negative side."""
    counts = []
    for layer in _squarefree_layers(coeffs):
        chain = _int_sturm_chain(layer)
        at_minus = _variations([_sign(poly[-1]) * (-1) ** (len(poly) - 1) for poly in chain])
        at_zero = _variations([_sign(poly[0]) for poly in chain])
        at_plus = _variations([_sign(poly[-1]) for poly in chain])
        counts.append((at_minus - at_zero - (layer[0] == 0), at_zero - at_plus))
    return counts


def count_real_roots(coeffs: Sequence[int | Fraction], positive: bool) -> int:
    """Real roots (with multiplicity) of a polynomial of degree >= 1 on the
    half-line (0, inf), or (-inf, 0) for positive=False."""
    return sum(counts[positive] for counts in _layer_roots(coeffs))


def least_positive_root(coeffs: Sequence[int]) -> float:
    """Smallest float y with a root of the polynomial in (0, y], for a
    polynomial with a root in (0, 1]: float bisection, each midpoint (a
    dyadic rational) decided exactly on one integer Sturm chain by
    V(0) - V(mid), until the bracket is two adjacent floats."""
    chain = _int_sturm_chain(next(_squarefree_layers(coeffs)))
    at_zero = _variations([_sign(poly[0]) for poly in chain])
    lo, hi = 0.0, 1.0
    while lo < (mid := (lo + hi) / 2) < hi:
        num, den = mid.as_integer_ratio()
        if at_zero - _variations([_sign_at(poly, num, den) for poly in chain]):
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


def _gate_report(spec: StatisticsSpec) -> ClassificationReport:
    """The validity gate's report, ``irreducible`` left None: all roots real
    and strictly negative (fermionic-like) or strictly positive
    (bosonic-like), counted with multiplicity by exact Sturm sequences."""
    side = "negative" if spec.is_fermionic_like else "positive"
    layers = _layer_roots(build_polynomial(spec))
    with_mult = sum(counts[side == "positive"] for counts in layers)
    valid = with_mult == spec.order
    return ClassificationReport(
        valid=valid,
        irreducible=None,
        order=spec.order,
        max_occupation=max_occupation(spec) if valid else None,
        roots_summary=dict(zip(("negative", "positive"), layers[0])),
        unique_vacuum=spec.unique_vacuum,
        failure_reason=None if valid else (
            f"defining polynomial has {with_mult} real {side} roots "
            f"(with multiplicity) out of degree {spec.order}; "
            f"all roots must be real and strictly {side}"
        ),
    )


def require_valid(spec: StatisticsSpec) -> None:
    """The validity gate every operation on a label passes through: raises
    InvalidStatisticsError for invalid labels, carrying the gate's report
    (built only then, with ``irreducible`` None: no factorization is run)."""
    if count_real_roots(build_polynomial(spec), not spec.is_fermionic_like) != spec.order:
        raise InvalidStatisticsError(_gate_report(spec))


def is_valid_statistics(spec: StatisticsSpec) -> ClassificationReport:
    """The gate's report with the Kronecker verdict filled in; ``irreducible``
    is None past either factorization bound."""
    try:
        irreducible = is_irreducible_statistics(spec)
    except ResourceGuardError:  # past either factorization bound
        irreducible = None
    return replace(_gate_report(spec), irreducible=irreducible)


def max_occupation(spec: StatisticsSpec) -> int | None:
    """Generalized exclusion bound: Q-(1) - 1 per mode, or None if unbounded."""
    if spec.is_fermionic_like:
        return sum(spec.q) - 1
    return None


def _trial_guard(trials: int) -> ResourceGuardError:
    return ResourceGuardError(
        f"factorization guard exceeded: trials={trials} (or more) > "
        f"FACTORIZATION_TRIAL_BOUND={FACTORIZATION_TRIAL_BOUND}, "
        f"stopped after {FACTORIZATION_TRIAL_BOUND}"
    )


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, ascending, by trial division: refused
    past FACTORIZATION_TRIAL_BOUND**2 divisions, about the bound's second."""
    n = abs(n)
    root = math.isqrt(n)
    if root > FACTORIZATION_TRIAL_BOUND**2:
        raise ResourceGuardError(
            f"factorization guard exceeded: trials={root} (or more) > "
            f"FACTORIZATION_TRIAL_BOUND**2={FACTORIZATION_TRIAL_BOUND**2}, stopped after 0"
        )
    small = [d for d in range(1, root + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _has_rational_root(coeffs: list[int]) -> bool:
    """Rational root test: a root num/den has num | q0 and den | q_deg.
    Each candidate is a trial: past FACTORIZATION_TRIAL_BOUND of them, with
    no root among the first ones, it raises ResourceGuardError."""
    nums = _divisors(coeffs[0]) if coeffs[0] else [0]
    dens = _divisors(coeffs[-1])
    candidates = ((sign * num, den) for num in nums for den in dens for sign in (1, -1))
    if any(_sign_at(coeffs, num, den) == 0
           for num, den in islice(candidates, FACTORIZATION_TRIAL_BOUND)):
        return True
    trials = 2 * len(nums) * len(dens)
    if trials > FACTORIZATION_TRIAL_BOUND:
        raise _trial_guard(trials)
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
    non-constant integer polynomials (Kronecker trial factorization).
    Raises ResourceGuardError past FACTORIZATION_DEGREE_BOUND, or when
    FACTORIZATION_TRIAL_BOUND candidate factors have not settled it."""
    return _is_irreducible(build_polynomial(spec))


def _is_irreducible(coeffs: list[int]) -> bool:
    deg = len(coeffs) - 1
    if deg > FACTORIZATION_DEGREE_BOUND:
        raise ResourceGuardError(
            f"factorization guard exceeded: degree={deg} > "
            f"FACTORIZATION_DEGREE_BOUND={FACTORIZATION_DEGREE_BOUND}"
        )
    if deg <= 1:
        return True
    if _has_rational_root(coeffs):
        return False
    frac = [Fraction(c) for c in coeffs]
    sample_xs = [0] + [v for k in range(1, deg + 1) for v in (k, -k)]
    trials = 0
    for m in range(2, deg // 2 + 1):
        xs = sample_xs[: m + 1]
        values = [_poly_eval(coeffs, x) for x in xs]
        # factor sign is irrelevant: pin the first divisor positive
        divisor_lists = [_divisors(values[0])] + [
            [s * d for d in _divisors(v) for s in (1, -1)] for v in values[1:]
        ]
        for combo in islice(product(*divisor_lists), FACTORIZATION_TRIAL_BOUND - trials):
            cand = _lagrange_interpolate(list(zip(xs, combo)))
            if len(cand) - 1 != m or any(c.denominator != 1 for c in cand):
                continue
            quot, rem = _divmod_poly(frac, cand)
            if not rem and all(c.denominator == 1 for c in quot):
                return False
        # the slice stops the search, so a label within the bound counts
        # only once per factor degree
        trials += math.prod(map(len, divisor_lists))
        if trials > FACTORIZATION_TRIAL_BOUND:
            raise _trial_guard(trials)
    return True


# ---------------------------------------------------------------------------
# single-mode character and excitation spectrum


def character_coefficients(spec: StatisticsSpec, horizon: int) -> list[int]:
    """Raw coefficient recurrence for the single-mode character candidate.

    Not gated on validity: invalid bosonic-like labels can produce negative
    coefficients here, which is exactly what the total-positivity cross-check
    needs to see.  Fermionic-like labels return the full finite list;
    bosonic-like ones a_0..a_horizon, for any horizon >= 0.
    """
    if spec.is_fermionic_like:
        return list(spec.q)
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
    return _character_series(spec, horizon)


def _character_series(spec: StatisticsSpec, horizon: int) -> IntegerSeries:
    """single_mode_character for a label that has already passed the gate."""
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
    if cutoff is not None and cutoff < 0:
        raise ValueError("excitation_cutoff must be >= 0")
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


def _neville_pass(m: list[list[int]]) -> bool:
    """Neville elimination of the lower-triangular window m with diagonal
    a_0 >= 1 (Gasca & Pena); True iff every multiplier is nonnegative, so m
    is totally nonnegative.  Fraction-free: with b, p > 0, row i becomes
    p row_i - b row_(i-1) over its gcd, a positive multiple of the rational
    step, so no zero or sign test changes; a negative b rejects at once, as
    the rational pass does later in the column.  Row i - 1 is zero at
    column i, so each step keeps m lower triangular with a positive
    diagonal: no row is zero from the pivot column on, none is exchanged,
    no pivot goes negative, and the transposed pass (an upper-triangular
    matrix) would eliminate nothing.  Rows are rebound, never edited."""
    n = len(m)
    for k in range(n):
        for i in range(n - 1, k, -1):
            b, p = m[i][k], m[i - 1][k]
            if b == 0:
                continue
            if b < 0 or p <= 0:
                return False
            row = [p * x - b * y for x, y in zip(m[i], m[i - 1])]
            g = math.gcd(*row)
            m[i] = [x // g for x in row]
    return True


def _minor_classes(K: int, order: int, smax: int, lo: int, hi: int, rows: tuple[int, ...],
                   cols: tuple[int, ...], weight: int, out: list) -> None:
    """Append (weight, k, -lam, -mu, rows, cols) for every minor class with
    weight in (lo, hi] that extends rows and cols by later window indices.

    Entry (r, c) is a_{r-c}, so a row r needs a column in [r - smax, r] and a
    column c a row in [c, c + smax]; anything else has a zero line.  Index r
    as entry i of rows (from 0) adds r - i >= 0 to |lam| (of cols, to |mu|),
    so the weight only grows along the walk.
    """
    nr, nc = len(rows), len(cols)
    last = rows[-1] if rows else -1
    open_col = next((c for c in cols if c > last), None)  # still needs a row
    stop = K if open_col is None else min(K, open_col + smax)
    least = weight - max(nr, nc)  # + j: the lightest addition at index j
    for j in range(max(last, cols[-1]) + 1, stop + 1):
        if least + j > hi:
            break
        for to_rows, to_cols in ((True, False), (False, True), (True, True)):
            if to_rows and (nr == order or (not to_cols and cols[-1] < j - smax)):
                continue
            if to_cols and nc == order:
                continue
            r2 = rows + (j,) if to_rows else rows
            c2 = cols + (j,) if to_cols else cols
            w2 = weight + (j - nr) * to_rows + (j - nc) * to_cols
            a, b = len(r2), len(c2)
            if a == b and to_rows and lo < w2 <= hi:  # square, no open column
                out.append((
                    w2, a,
                    tuple(i - r for i, r in reversed(list(enumerate(r2))) if r != i),
                    tuple(i - c for i, c in reversed(list(enumerate(c2))) if c != i),
                    r2, c2,
                ))
            # a later column needs a later row; the shorter side needs
            # abs(a - b) more indices after j; k - n more indices on a side
            # holding n add at most (k - n) * (K + 1 - k)
            if a == order or abs(a - b) > K - j or w2 + abs(a - b) * (j + 1 - min(a, b)) > hi:
                continue
            if w2 > lo or w2 + max((2 * k - a - b) * (K + 1 - k) for k in range(max(a, b), order + 1)) > lo:
                _minor_classes(K, order, smax, lo, hi, r2, c2, w2, out)


def _minor_poly(rows: int, cols: int, smax: int, memo: dict) -> dict:
    """The minor of (a_{r-c}) on the index sets ``rows`` and ``cols``, given
    as bit masks, as an integer polynomial in a_0..a_smax: {monomial:
    coefficient}, a monomial being the sorted tuple of its indices.

    Expanded along the first row.  A minor depends only on the differences
    r - c, so both masks are shifted down to index 0 first and ``memo``
    keeps each result under the shifted pair."""
    if not rows:
        return {(): 1}
    low = (rows | cols) & -(rows | cols)  # the lowest index, as a bit
    rows //= low
    cols //= low
    r0 = (rows & -rows).bit_length() - 1
    if r0 > smax:  # then column 0 is in cols, and zero in every row
        return {}
    key = (rows, cols)
    poly = memo.get(key)
    if poly is None:
        poly, rest, sign = {}, rows & (rows - 1), 1
        for c in range(r0 + 1):  # row r0 is zero in later columns
            if cols >> c & 1:
                for mono, v in _minor_poly(rest, cols ^ 1 << c, smax, memo).items():
                    mono = tuple(sorted(mono + (r0 - c,)))
                    poly[mono] = poly.get(mono, 0) + sign * v
                sign = -sign
        poly = memo[key] = {mono: v for mono, v in poly.items() if v}
    return poly


@functools.lru_cache(maxsize=64)
def _band(K: int, order: int, smax: int, lo: int, hi: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple], ...]:
    """(rows, cols, poly) of the minor classes with weight in (lo, hi] that
    can decide a scan, sorted by (weight, k, -lam, -mu); it depends on the
    series only through smax.

    Each class's minor is a fixed integer polynomial in a_0..a_smax, kept
    as ``poly``: the sorted (monomial, coefficient) pairs.  A class whose
    polynomial has no negative coefficient is dropped: it is >= 0 for every
    ``IntegerSeries``, which rejects negative coefficients.  Of the classes
    sharing a polynomial only the first is kept; they share a value, so the
    first negative class of the full order is kept."""
    band = [(0, 1, (), (), (0,), (0,))] if lo < 0 else []
    _minor_classes(K, order, smax, lo, hi, (), (0,), 0, band)
    band.sort()
    memo: dict = {}
    kept: dict = {}  # poly -> the first (rows, cols) with it, in scan order
    for *_, rows, cols in band:
        poly = _minor_poly(sum(1 << r for r in rows), sum(1 << c for c in cols), smax, memo)
        if any(v < 0 for v in poly.values()):
            kept.setdefault(tuple(sorted(poly.items())), (rows, cols))
    return tuple((rows, cols, poly) for poly, (rows, cols) in kept.items())


def totally_positive_upto(a: IntegerSeries, order: int) -> TotalPositivityResult:
    """Check every k x k minor, k <= order, of the Toeplitz matrix (a_{i-j})
    restricted to the index window [0, horizon].

    A negative contiguous 2 x 2 minor a_i^2 - a_(i-1) a_(i+1) (the series is
    not log-concave) rules out total nonnegativity in O(horizon).  Otherwise
    one Neville pass on the lower-triangular window (row i is a_i, a_{i-1},
    ..., a_{i-K}) settles the (common) totally nonnegative case in
    O(horizon^3) integer operations.  Both only decide whether that shortcut
    is tried, so verdict and witness are the scan's, which takes one minor
    per translation class.  Shifting the row set R and the column set C
    together leaves the matrix unchanged; if both contain 0 the minor is a_0
    times a smaller one, and row 0 alone is zero off column 0.  So the scan
    takes the 1 x 1 minor a_0 and the pairs with 0 in C but not in R, which
    a depth-first walk over the indices generates with zero-line and weight
    pruning.  Writing R and C as partitions lam and mu (index r as entry i
    of R, from 0, is a part r - i), the classes are evaluated in weight
    bands (-1, 2], (2, 4], (4, 8], ..., each sorted by (|lam| + |mu|, k,
    -lam, -mu), until a negative witness appears: the same first witness as
    a scan of every minor in that order.  A band's class list depends only
    on (horizon, order, smax, lo, hi), smax being the last nonzero index of
    the series, so ``_band`` builds each once and keeps the 64 most recently
    used.  Building a band also compiles it to one class per distinct minor
    polynomial that can go negative (41 of 1,576 classes at horizon 8, order
    4, smax 2), which keeps the first witness.  The compile adds about half
    to a band's build, paid once per band; a scan then reads each kept
    class's value from its polynomial at the series' coefficients.
    """
    if order > TOTAL_POSITIVITY_ORDER_BOUND:
        raise ResourceGuardError(
            f"total positivity guard exceeded: order={order} > "
            f"TOTAL_POSITIVITY_ORDER_BOUND={TOTAL_POSITIVITY_ORDER_BOUND}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    K = a.horizon
    if K + 1 < order:
        raise InsufficientHorizonError(required=order - 1, horizon=K)
    c = a.coeffs
    if all(c[i] * c[i] >= c[i - 1] * c[i + 1] for i in range(1, K)):
        padded = (0,) * K + c  # a_n at index K + n, for -K <= n <= K
        if _neville_pass([padded[i : i + K + 1][::-1] for i in range(K + 1)]):
            return TotalPositivityResult(True)
    smax = max(s for s, x in enumerate(c) if x != 0)
    lo, hi = -1, 2
    while lo < 2 * order * K:
        for rows, cols, poly in _band(K, order, smax, lo, hi):
            # plain loops: most polynomials have a few short terms, where
            # generator expressions would cost more than the products
            val = 0
            for mono, v in poly:
                for i in mono:
                    v *= c[i]
                val += v
            if val < 0:
                return TotalPositivityResult(False, rows, cols, val)
        lo, hi = hi, 2 * hi
    return TotalPositivityResult(True)
