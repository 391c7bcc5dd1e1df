import collections
import dataclasses
import functools
import gc
import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockstat import classify
from fockstat.classify import (
    ClassificationReport,
    Kind,
    StatisticsSpec,
    build_polynomial,
    character_coefficients,
    count_real_roots,
    count_real_roots_upto,
    excitation_spectrum,
    is_irreducible_statistics,
    is_valid_statistics,
    least_positive_root,
    max_occupation,
    require_valid,
    single_mode_character,
    totally_positive_upto,
)
from fockstat.classify import _band, _layer_roots, _minor_classes, _neville_pass
from fockstat.errors import (
    InsufficientHorizonError,
    InvalidStatisticsError,
    ResourceGuardError,
)
from fockstat.symfunc import IntegerSeries, _det_bareiss

F, B = Kind.FERMIONIC_LIKE, Kind.BOSONIC_LIKE


def fspec(*q):
    return StatisticsSpec(F, q)


def bspec(*q):
    return StatisticsSpec(B, q)


class TestStatisticsSpec:
    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            fspec(1, 0)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            fspec(1)

    def test_bosonic_requires_unit_constant(self):
        with pytest.raises(ValueError):
            bspec(2, 1)
        assert bspec(1, 2).q == (1, 2)

    def test_fermionic_allows_larger_constant(self):
        assert fspec(2, 1).unique_vacuum is False
        assert fspec(1, 2).unique_vacuum is True

    def test_label_round_trip_text(self):
        assert fspec(1, 2).label() == "1,2:-"
        assert bspec(1, 3).label() == "1,3:+"


class TestBuildPolynomial:
    def test_fermionic_all_positive(self):
        assert build_polynomial(fspec(1, 1)) == [1, 1]
        assert build_polynomial(fspec(1, 3, 1)) == [1, 3, 1]

    def test_bosonic_alternating(self):
        assert build_polynomial(bspec(1, 1)) == [1, -1]
        assert build_polynomial(bspec(1, 2, 1)) == [1, -2, 1]


class TestValidity:
    def test_ordinary_fermions(self):
        r = is_valid_statistics(fspec(1, 1))
        assert r.valid and r.irreducible
        assert r.max_occupation == 1
        assert r.roots_summary == {"negative": 1, "positive": 0}

    def test_ordinary_bosons(self):
        r = is_valid_statistics(bspec(1, 1))
        assert r.valid and r.irreducible
        assert r.max_occupation is None

    def test_complex_roots_invalid(self):
        r = is_valid_statistics(fspec(1, 1, 1))
        assert not r.valid
        assert r.failure_reason

    def test_order_two_discriminant_boundary(self):
        # q1^2 > 4 q0 q2 valid, < invalid, = valid but reducible
        assert is_valid_statistics(fspec(1, 3, 1)).valid
        assert not is_valid_statistics(fspec(1, 1, 1)).valid
        boundary = is_valid_statistics(fspec(1, 2, 1))
        assert boundary.valid and not boundary.irreducible

    def test_max_occupation_formula(self):
        assert is_valid_statistics(fspec(1, 2)).max_occupation == 2
        assert is_valid_statistics(fspec(1, 3, 1)).max_occupation == 4
        assert max_occupation(bspec(1, 2)) is None

    def test_invalid_report_carries_reason(self):
        r = is_valid_statistics(bspec(1, 1, 1))
        assert not r.valid and r.failure_reason

    def test_multiplicity_counted(self):
        # (1+x)^3: one distinct root, multiplicity 3 -> valid
        assert is_valid_statistics(fspec(1, 3, 3, 1)).valid

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=50)
    def test_order_two_matches_discriminant(self, q0, q1, q2):
        assert is_valid_statistics(fspec(q0, q1, q2)).valid == (
            q1 * q1 >= 4 * q0 * q2
        )

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 3))
    @settings(max_examples=50)
    def test_products_of_linear_factors_are_valid(self, roots, c):
        coeffs = [c]
        for alpha in roots:
            coeffs = [a + alpha * b for a, b in zip([0] + coeffs, coeffs + [0])]
        assert is_valid_statistics(StatisticsSpec(F, coeffs)).valid


class TestIrreducibility:
    def test_perfect_square_reducible(self):
        assert is_irreducible_statistics(fspec(1, 2, 1)) is False
        assert is_irreducible_statistics(fspec(1, 4, 4)) is False

    def test_degree_one_irreducible(self):
        assert is_irreducible_statistics(bspec(1, 1)) is True
        assert is_irreducible_statistics(fspec(2, 2)) is True

    def test_no_integral_factorization(self):
        assert is_irreducible_statistics(fspec(1, 3, 1)) is True

    def test_rational_root_cases(self):
        assert is_irreducible_statistics(fspec(2, 3, 1)) is False
        assert is_irreducible_statistics(fspec(1, 2, 2, 1)) is False
        assert is_irreducible_statistics(bspec(1, 1, 1, 1)) is False

    def test_quartic_without_rational_roots(self):
        # (x^2+x+1)(2x^2+2x+1) has no rational roots: needs the
        # interpolation search
        assert is_irreducible_statistics(fspec(1, 3, 5, 4, 2)) is False
        assert is_irreducible_statistics(fspec(1, 1, 1, 1, 5)) is True

    def test_degree_guard(self):
        with pytest.raises(ResourceGuardError, match=r"degree=9 > FACTORIZATION_DEGREE_BOUND=8$"):
            is_irreducible_statistics(fspec(*([1] * 10)))

    def test_report_past_the_guard_leaves_irreducibility_open(self):
        # (1+x)^9: validity is decidable, factorization is past the bound
        r = is_valid_statistics(fspec(1, 9, 36, 84, 126, 126, 84, 36, 9, 1))
        assert r.valid and r.irreducible is None
        assert r.roots_summary == {"negative": 1, "positive": 0}

    def test_trial_guard(self, monkeypatch):
        # 512 trials for quadratic factors, 24,576 for cubic ones: the real
        # bound would stop after about a second, each way
        monkeypatch.setattr(classify, "FACTORIZATION_TRIAL_BOUND", 600)
        spec = fspec(138, 583, 868, 822, 783, 65, 262)
        with pytest.raises(ResourceGuardError,
                           match=r"trials=25088 \(or more\) > FACTORIZATION_TRIAL_BOUND=600, stopped after 600$"):
            is_irreducible_statistics(spec)
        r = is_valid_statistics(spec)
        assert not r.valid and r.irreducible is None
        # within the bound the verdict is unchanged: (x^2+x+1)(2x^2+2x+1)
        assert is_irreducible_statistics(fspec(1, 3, 5, 4, 2)) is False

    def test_pre_trial_guards(self, monkeypatch):
        # rational-root candidates count as trials: 2 * 6,720**2 of them here
        spec = fspec(963761198400, 1, 963761198400)
        with pytest.raises(ResourceGuardError,
                           match=r"trials=90316800 \(or more\) > FACTORIZATION_TRIAL_BOUND=4000, stopped after 4000$"):
            is_irreducible_statistics(spec)
        # a divisor search past the bound squared is refused before it starts
        with pytest.raises(ResourceGuardError,
                           match=rf"trials={10**15} \(or more\) > FACTORIZATION_TRIAL_BOUND\*\*2=16000000, stopped after 0$"):
            is_irreducible_statistics(fspec(10**30, 1, 1))
        # (2x + 3)(x + 1) has 8 candidates, the root -1 second among them
        monkeypatch.setattr(classify, "FACTORIZATION_TRIAL_BOUND", 2)
        assert is_irreducible_statistics(fspec(3, 5, 2)) is False
        monkeypatch.setattr(classify, "FACTORIZATION_TRIAL_BOUND", 1)
        with pytest.raises(ResourceGuardError, match=r"trials=8 \(or more\)"):
            is_irreducible_statistics(fspec(3, 5, 2))

    def test_require_valid_runs_no_factorization(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("Kronecker reached through require_valid")

        spec = fspec(138, 583, 868, 822, 783, 65, 262)
        full = is_valid_statistics(spec)
        monkeypatch.setattr(classify, "is_irreducible_statistics", refuse)
        with pytest.raises(InvalidStatisticsError) as exc:
            require_valid(spec)
        # the gate's report, the same as is_valid_statistics' but for irreducible
        assert exc.value.report.irreducible is None
        assert exc.value.report == dataclasses.replace(full, irreducible=None)
        assert str(exc.value) == full.failure_reason
        require_valid(fspec(1, 2))

    def test_matches_sympy_on_degree_4_and_5_grid(self):
        # trial division once lost track of the remainder's degree here
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for deg in (4, 5):
            for q in product(range(1, 4), repeat=deg + 1):
                for spec in [fspec(*q)] + ([bspec(*q)] if q[0] == 1 else []):
                    poly = sympy.Poly(list(reversed(build_polynomial(spec))), x)
                    factors = poly.factor_list()[1]
                    expected = len(factors) == 1 and factors[0][1] == 1
                    assert is_irreducible_statistics(spec) is expected, spec


class TestCharacter:
    def test_fermionic_is_polynomial(self):
        s = single_mode_character(fspec(1, 1), 7)
        assert s.coeffs == (1, 1) and not s.truncated

    def test_bosonic_geometric(self):
        s = single_mode_character(bspec(1, 2), 4)
        assert s.coeffs == (1, 2, 4, 8, 16) and s.truncated

    def test_ordinary_bosons_all_ones(self):
        assert single_mode_character(bspec(1, 1), 3).coeffs == (1, 1, 1, 1)

    def test_invalid_spec_raises_with_report(self):
        with pytest.raises(InvalidStatisticsError) as exc:
            single_mode_character(fspec(1, 1, 1), 5)
        assert isinstance(exc.value.report, ClassificationReport)
        assert not exc.value.report.valid

    def test_ungated_coefficients_can_go_negative(self):
        coeffs = character_coefficients(bspec(1, 1, 1), 6)
        assert coeffs[:4] == [1, 1, 0, -1]

    def test_horizon_below_degree_gives_the_prefix(self):
        spec = bspec(1, 6, 11, 6)
        full = character_coefficients(spec, 5)
        assert [character_coefficients(spec, h) for h in range(3)] == [full[: h + 1] for h in range(3)]

    def test_recurrence_inverts_polynomial(self):
        # convolution of Q+ with the series must be the delta sequence
        spec = bspec(1, 3, 2)
        coeffs = character_coefficients(spec, 9)
        poly = build_polynomial(spec)
        for n in range(10):
            conv = sum(
                poly[j] * coeffs[n - j] for j in range(len(poly)) if 0 <= n - j
            )
            assert conv == (1 if n == 0 else 0)


class TestExcitationSpectrum:
    def test_order_one_fermionic(self):
        assert excitation_spectrum(fspec(1, 2)) == (0, 1, 1)

    def test_order_two(self):
        assert excitation_spectrum(fspec(1, 3, 1)) == (0, 1, 1, 1, 2)

    def test_bosonic_counts(self):
        assert excitation_spectrum(bspec(1, 2), cutoff=2) == (0, 1, 1, 2, 2, 2, 2)

    def test_bosonic_requires_cutoff(self):
        with pytest.raises(ValueError):
            excitation_spectrum(bspec(1, 2))

    @pytest.mark.parametrize("spec", [fspec(1, 2), bspec(1, 2)])
    def test_negative_cutoff_rejected(self, spec):
        with pytest.raises(ValueError, match="excitation_cutoff must be >= 0"):
            excitation_spectrum(spec, -1)

    def test_length_matches_exclusion_bound(self):
        for spec in [fspec(1, 1), fspec(1, 2), fspec(1, 3, 1), fspec(2, 2)]:
            assert len(excitation_spectrum(spec)) == sum(spec.q)

    def test_character_identity_fermionic(self):
        # sum over f-values of x^f has exactly the character coefficients
        for spec in [fspec(1, 2), fspec(1, 3, 1), fspec(2, 4, 1)]:
            if not is_valid_statistics(spec).valid:
                continue
            spectrum = excitation_spectrum(spec)
            counts = [0] * (spec.order + 1)
            for f in spectrum:
                counts[f] += 1
            assert tuple(counts) == tuple(spec.q)

    def test_character_identity_bosonic_partial_sums(self):
        # value counts in the spectrum match the truncated series
        for spec in [bspec(1, 2), bspec(1, 3), bspec(1, 2, 1)]:
            cutoff = 4
            series = single_mode_character(spec, cutoff)
            spectrum = excitation_spectrum(spec, cutoff=cutoff)
            for s, a in enumerate(series.coeffs):
                assert spectrum.count(s) == a


_SIGNED_PERMUTATIONS = {
    k: [
        (perm, (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(k), 2)))
        for perm in permutations(range(k))
    ]
    for k in range(1, 7)
}


def _scan_key(rows, cols):
    """The documented scan order: (|lam| + |mu|, k, -lam, -mu), where the
    j-th smallest index r of a k-set is the part r - j (zeros dropped)."""
    lam = sorted((r - j for j, r in enumerate(rows) if r != j), reverse=True)
    mu = sorted((c - j for j, c in enumerate(cols) if c != j), reverse=True)
    return (sum(lam) + sum(mu), len(rows), tuple(-p for p in lam), tuple(-p for p in mu))


@functools.lru_cache(maxsize=None)
def _minors_in_scan_order(K, order):
    """Every k x k window minor, k <= order, as (rows, cols) in the scan
    order, and per k the scan positions and index arrays of its minors."""
    pairs = sorted(
        (
            (rows, cols)
            for k in range(1, order + 1)
            for rows in combinations(range(K + 1), k)
            for cols in combinations(range(K + 1), k)
        ),
        key=lambda rc: _scan_key(*rc),
    )
    by_size = {}
    for pos, (rows, cols) in enumerate(pairs):
        by_size.setdefault(len(rows), []).append((pos, rows, cols))
    return pairs, {k: tuple(map(np.array, zip(*group))) for k, group in by_size.items()}


def brute_force_tp(coeffs, order):
    """Independent check: expand every windowed minor by permutations
    (exactly, in int64), and return the first negative one in the
    documented scan order."""
    K = len(coeffs) - 1
    assert max(coeffs) ** order * math.factorial(order) < 2**62
    a = np.array((0,) * K + tuple(coeffs), dtype=np.int64)  # a_n at K + n
    pairs, by_size = _minors_in_scan_order(K, order)
    values = np.empty(len(pairs), dtype=np.int64)
    for k, (pos, rows, cols) in by_size.items():
        m = a[K + rows[:, :, None] - cols[:, None, :]]
        values[pos] = sum(
            sign * np.prod([m[:, i, p] for i, p in enumerate(perm)], axis=0)
            for perm, sign in _SIGNED_PERMUTATIONS[k]
        )
    negative = np.flatnonzero(values < 0)
    if not len(negative):
        return True, None
    rows, cols = pairs[negative[0]]
    return False, (rows, cols, int(values[negative[0]]))


def _minor_polynomial(rows, cols, smax):
    """The minor of (a_{r-c}) as a polynomial in a_0..a_smax, by
    permutations: frozenset of (sorted index tuple, coefficient)."""
    poly = {}
    for perm, sign in _SIGNED_PERMUTATIONS[len(rows)]:
        idx = [r - cols[p] for r, p in zip(rows, perm)]
        if all(0 <= s <= smax for s in idx):
            mono = tuple(sorted(idx))
            poly[mono] = poly.get(mono, 0) + sign
    return frozenset((mono, v) for mono, v in poly.items() if v)


def _full_walk(K, order, smax):
    """(lo, hi, every minor class of the band in scan order), band by band,
    before any class is dropped."""
    lo, hi = -1, 2
    while lo < 2 * order * K:
        band = [(0, 1, (), (), (0,), (0,))] if lo < 0 else []
        _minor_classes(K, order, smax, lo, hi, (), (0,), 0, band)
        yield lo, hi, [(rows, cols) for *_, rows, cols in sorted(band)]
        lo, hi = hi, 2 * hi


def _first_negative_in_full_walk(coeffs, order):
    K = len(coeffs) - 1
    smax = max(s for s, c in enumerate(coeffs) if c)
    for _, _, classes in _full_walk(K, order, smax):
        for rows, cols in classes:
            value = _det_bareiss([[coeffs[r - c] if r >= c else 0 for c in cols] for r in rows])
            if value < 0:
                return False, (rows, cols, value)
    return True, None


def _as_brute_force(res):
    if res:
        return True, None
    return False, (res.witness_rows, res.witness_cols, res.witness_value)


def _oracle_specs():
    """Labels of degree <= 2 with coefficients <= 4, both kinds."""
    for deg in (1, 2):
        for q in product(range(1, 5), repeat=deg):
            yield bspec(1, *q)
            for q0 in range(1, 5):
                yield fspec(q0, *q)


def _neville_pass_fraction(m):
    """Reference: the certificate's Neville elimination over Fractions,
    dividing by each pivot."""
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


def _neville_tnn_fraction(window):
    a = [[Fraction(x) for x in row] for row in window]
    at = [list(col) for col in zip(*a)]
    return _neville_pass_fraction(a) and _neville_pass_fraction(at)


def _every_minor_nonnegative(w):
    """Every minor of the square matrix w by permutation expansion, exact
    (numpy object arrays of Python ints)."""
    n = len(w)
    a = np.array(w, dtype=object)
    for k in range(1, n + 1):
        idx = np.array(list(combinations(range(n), k)))
        m = a[idx[:, None, :, None], idx[None, :, None, :]]  # [rows, cols, k, k]
        values = sum(
            sign * np.prod([m[..., i, p] for i, p in enumerate(perm)], axis=0)
            for perm, sign in _SIGNED_PERMUTATIONS[k]
        )
        if (values < 0).any():
            return False
    return True


def _random_lower_window(rng, n):
    """An n x n lower-triangular integer matrix with a positive diagonal,
    the only shape the certificate sees: either a product of nonnegative
    lower bidiagonal factors (totally nonnegative), perhaps with one entry
    below the diagonal moved by one, or zeros and entries of both signs up
    to 10**9 below the diagonal."""
    size = rng.choice((3, 10**9))
    w = [[rng.randint(1, size) if i == j else 0 for j in range(n)] for i in range(n)]
    if rng.random() < 0.6:
        for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
            i, c = rng.randrange(n - 1), rng.randint(1, 3)
            if rng.random() < 0.5:  # row i+1 += c row i
                w[i + 1] = [x + c * y for x, y in zip(w[i + 1], w[i])]
            else:  # column i += c column i+1
                for row in w:
                    row[i] += c * row[i + 1]
        if n > 1 and rng.random() < 0.3:
            i = rng.randrange(1, n)
            w[i][rng.randrange(i)] += rng.choice((-1, 1))
    else:
        for i in range(n):
            for j in range(i):
                w[i][j] = rng.choice((0, 0, 0, 1, 2, 3, -1, -2, rng.randint(-10**9, 10**9)))
    return w


class TestNevilleCertificate:
    """The one-pass fraction-free certificate against the two-sided
    Fraction elimination, and its True verdicts against every minor."""

    def test_matches_fraction_reference_on_random_windows(self):
        rng = random.Random(17)
        verdicts = {True: 0, False: 0}
        for _ in range(1500):
            w = _random_lower_window(rng, rng.randint(1, 9))
            got = _neville_pass(list(w))
            assert got == _neville_tnn_fraction(w), w
            if got and len(w) <= 6:
                assert _every_minor_nonnegative(w), w
            verdicts[got] += 1
        assert min(verdicts.values()) > 200

    def test_matches_fraction_reference_on_label_windows(self):
        horizon = 12
        specs = list(_oracle_specs()) + [bspec(1, 10, 10), bspec(1, 12, 30), fspec(9, 40, 9)]
        verdicts = set()
        for spec in specs:
            a = character_coefficients(spec, horizon)  # negative for invalid bosonic-like
            a = a + [0] * (horizon + 1 - len(a))
            w = [[a[i - j] if i >= j else 0 for j in range(horizon + 1)] for i in range(horizon + 1)]
            got = _neville_pass(list(w))
            assert got == _neville_tnn_fraction(w), spec.label()
            verdicts.add(got)
        assert max(character_coefficients(bspec(1, 10, 10), horizon)) > 10**11
        assert verdicts == {True, False}


class TestTotalPositivity:
    def test_fermionic_sequence(self):
        assert totally_positive_upto(IntegerSeries((1, 1, 0, 0)), 3)

    def test_counterexample_with_witness(self):
        res = totally_positive_upto(IntegerSeries((1, 0, 1)), 2)
        assert not res
        assert res.witness_value == -1
        assert res.witness_rows == (1, 2)
        assert res.witness_cols == (0, 1)

    @pytest.mark.parametrize("coeffs, order", [
        ((1, 0, 1), 2),
        (tuple(character_coefficients(bspec(1, 2, 2, 2), 8)), 4),  # 1, 2, 2, 2, 4, ...
    ])
    def test_non_log_concave_series_skip_the_certificate(self, monkeypatch, coeffs, order):
        def refuse(m):
            raise AssertionError("certificate run on a series that is not log-concave")

        monkeypatch.setattr(classify, "_neville_pass", refuse)
        assert any(coeffs[i] ** 2 < coeffs[i - 1] * coeffs[i + 1] for i in range(1, len(coeffs) - 1))
        got = _as_brute_force(totally_positive_upto(IntegerSeries(coeffs), order))
        assert got == brute_force_tp(coeffs, order)
        assert not got[0]

    def test_totally_positive_series_runs_the_certificate_once(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(len(m))
            return _neville_pass(m)

        monkeypatch.setattr(classify, "_neville_pass", counted)
        assert totally_positive_upto(IntegerSeries((1, 4, 6, 4, 1, 0, 0)), 4)
        assert calls == [7]

    def test_witness_indices_reproduce_value(self):
        res = totally_positive_upto(IntegerSeries((1, 0, 1, 0, 0)), 3)
        assert not res
        coeffs = (1, 0, 1, 0, 0)
        rows, cols = res.witness_rows, res.witness_cols
        ok, wit = brute_force_tp(coeffs, 3)
        assert not ok
        # recompute the reported minor independently
        def a(n):
            return coeffs[n] if 0 <= n < len(coeffs) else 0
        m = [[a(r - c) for c in cols] for r in rows]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) if len(rows) == 3 else (
            m[0][0] * m[1][1] - m[0][1] * m[1][0]
        )
        assert det == res.witness_value < 0

    def test_geometric_sequence(self):
        assert totally_positive_upto(
            IntegerSeries((1, 2, 4, 8, 16), truncated=True), 3
        )

    def test_order_guard(self):
        with pytest.raises(ResourceGuardError, match=r"order=7 > TOTAL_POSITIVITY_ORDER_BOUND=6$"):
            totally_positive_upto(IntegerSeries((1, 1, 1, 1, 1, 1, 1, 1)), 7)

    def test_window_too_small(self):
        with pytest.raises(InsufficientHorizonError):
            totally_positive_upto(IntegerSeries((1, 1)), 3)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=5),
        st.integers(1, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, tail, order):
        coeffs = tuple([max(tail[0], 1)] + tail[1:])
        if order > len(coeffs):
            order = len(coeffs)
        got = _as_brute_force(totally_positive_upto(IntegerSeries(coeffs), order))
        assert got == brute_force_tp(coeffs, order)

    @pytest.mark.parametrize("horizon", [4, 5, 6, 7])
    def test_witness_is_first_negative_in_scan_order(self, horizon):
        witnesses = 0
        for spec in _oracle_specs():
            coeffs = character_coefficients(spec, horizon)
            if any(c < 0 for c in coeffs):
                continue  # an invalid bosonic-like label: no series
            coeffs = tuple(coeffs) + (0,) * (horizon + 1 - len(coeffs))
            series = IntegerSeries(coeffs, truncated=not spec.is_fermionic_like)
            for order in (2, 3, 4):
                got = _as_brute_force(totally_positive_upto(series, order))
                assert got == brute_force_tp(coeffs, order), (spec.label(), order)
                witnesses += not got[0]
        assert witnesses > 0

    def test_witness_is_first_negative_on_sparse_series(self):
        # interior zeros sometimes give several negative classes of one
        # weight, so the order within a weight matters here
        rng = random.Random(5)
        for _ in range(400):
            horizon, order = rng.randint(3, 7), rng.randint(2, 4)
            coeffs = (rng.randint(1, 3),) + tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(horizon))
            got = _as_brute_force(totally_positive_upto(IntegerSeries(coeffs), order))
            assert got == brute_force_tp(coeffs, order), (coeffs, order)

    def test_band_memo_does_not_depend_on_scan_order(self):
        # one horizon, so series of different smax share (K, order, lo, hi)
        cases = [
            ((1, 3, 3, 0, 0, 0, 0), 4),
            ((1, 1, 0, 1, 0, 0, 0), 3),
            ((2, 1, 0, 0, 0, 0, 0), 2),
            ((1, 2, 1, 0, 0, 0, 1), 5),
            ((1, 4, 4, 1, 0, 0, 0), 6),
            ((1, 0, 2, 0, 1, 0, 0), 4),
            ((1, 3, 6, 10, 15, 21, 28), 3),
            ((1, 3, 3, 0, 0, 0, 0), 6),
            ((1, 1, 1, 1, 1, 1, 1), 2),
            ((1, 5, 6, 0, 0, 0, 0), 5),
            ((1, 2, 3, 0, 0, 0, 0), 4),  # the first case's band keys: cache hits
            ((1, 2, 1, 0, 1, 2, 0), 4),  # its (K, order) with a larger smax
            ((1, 3, 3, 0, 0, 0, 0), 2),
            ((1, 1, 1, 0, 2, 3, 0), 2),
        ]
        _band.cache_clear()
        forward = [_as_brute_force(totally_positive_upto(IntegerSeries(c), k)) for c, k in cases]
        _band.cache_clear()
        backward = [_as_brute_force(totally_positive_upto(IntegerSeries(c), k)) for c, k in reversed(cases)]
        assert _band.cache_info().hits > 0
        assert forward == backward[::-1] == [brute_force_tp(c, k) for c, k in cases]
        assert {ok for ok, _ in forward} == {True, False}

    def test_band_memo_is_bounded_and_immutable(self):
        assert _band.cache_info().maxsize is not None
        for key in ((6, 4, 2, -1, 2), (6, 4, 2, 4, 8), (8, 4, 3, 8, 16), (6, 5, 6, 4, 8)):
            band = _band(*key)
            assert isinstance(band, tuple) and band
            assert all(isinstance(field, tuple) for entry in band for field in entry)
            # each stored polynomial is its class's minor, every kept class
            # can go negative, and no two kept classes agree
            polys = [_minor_polynomial(rows, cols, key[2]) for rows, cols, _ in band]
            assert [frozenset(poly) for *_, poly in band] == polys, key
            assert all(any(v < 0 for _, v in poly) for poly in polys), key
            assert len(set(polys)) == len(polys), key

    @pytest.mark.parametrize("K, order, smax", [(8, 4, 2), (12, 4, 2)])
    def test_compiled_bands_keep_under_a_tenth_of_the_classes(self, K, order, smax):
        total = kept = 0
        for lo, hi, classes in _full_walk(K, order, smax):
            band = _band(K, order, smax, lo, hi)
            kept_classes = [(rows, cols) for rows, cols, _ in band]
            assert set(kept_classes) <= set(classes)
            assert sorted(kept_classes, key=classes.index) == kept_classes
            for rows, cols, poly in band:
                assert frozenset(poly) == _minor_polynomial(rows, cols, smax)
            total += len(classes)
            kept += len(band)
        assert 0 < 10 * kept < total

    def test_witness_is_the_first_negative_class_of_the_full_walk(self):
        # sparse random series, and up to horizon 8 the coefficients of a
        # real-rooted polynomial (a Polya frequency sequence) with one moved,
        # whose first negative minor can be large; an exhaustive full walk
        # past horizon 8 takes seconds, so a series that passes there is
        # only counted
        rng = random.Random(37)
        seen = {True: 0, False: 0, "unchecked": 0}
        sizes = set()
        for _ in range(300):
            K = rng.randint(3, 12)
            order = rng.randint(2, min(6, K + 1))
            if K > 8 or rng.random() < 0.4:
                values = rng.choice(((0, 0, 1, 2, 3), (0, 1, 1, 2, 5, 9), (0, 0, 0, 1, 10**6)))
                coeffs = (rng.randint(1, 3),) + tuple(rng.choice(values) for _ in range(K))
            else:
                poly = [1]
                for _ in range(rng.randint(1, 4)):
                    r = rng.randint(1, 3)
                    poly = [x + r * y for x, y in zip(poly + [0], [0] + poly)]
                s = rng.randrange(len(poly))
                poly[s] = max(poly[s] + rng.choice((-2, -1, 1, 2)), int(s == 0))
                coeffs = tuple(poly) + (0,) * (K + 1 - len(poly))
            got = _as_brute_force(totally_positive_upto(IntegerSeries(coeffs), order))
            if got[0] and K > 8:
                seen["unchecked"] += 1
                continue
            assert got == _first_negative_in_full_walk(coeffs, order), (coeffs, order)
            seen[got[0]] += 1
            if not got[0]:
                sizes.add(len(got[1][0]))
        assert seen[False] > 150 and seen[True] > 50, seen
        assert sizes == {2, 3, 4, 5, 6}

    def test_exhaustive_scan_leaves_no_reference_cycle(self):
        series = IntegerSeries((1, 3, 3) + (0,) * 6)
        gc.collect()
        assert totally_positive_upto(series, 4)  # exhaustive
        assert gc.collect() == 0
        assert not totally_positive_upto(series, 6)  # a 6 x 6 witness
        assert gc.collect() == 0


class TestBandPolynomials:
    """Each kept class's stored polynomial, the scan's only minor
    evaluator, against fraction-free elimination of its sub-window."""

    def test_stored_polynomials_match_bareiss_on_random_series(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(60):
            K = rng.randint(3, 8)
            order = rng.randint(2, min(6, K + 1))
            size = rng.choice((3, 100, 10**12))
            a = (rng.randint(1, size),) + tuple(rng.choice((0, 0, rng.randint(1, size))) for _ in range(K))
            smax = max(s for s, c in enumerate(a) if c)
            window = [[a[i - j] if i >= j else 0 for j in range(K + 1)] for i in range(K + 1)]
            for lo, hi, _ in _full_walk(K, order, smax):
                for rows, cols, poly in _band(K, order, smax, lo, hi):
                    value = sum(v * math.prod(a[i] for i in mono) for mono, v in poly)
                    sub = [[window[r][c] for c in cols] for r in rows]
                    assert value == _det_bareiss(sub), (a, rows, cols)
                    checked += 1
        assert checked > 1000


class TestRootednessPositivityEquivalence:
    """Real-rootedness must agree with windowed total positivity at order 6.

    Order 4 (as the acceptance suite also records) is NOT sufficient: e.g.
    [1,3,3]- has complex roots but its first negative minor is 6 x 6.
    """

    HORIZON = 12
    ORDER = 6

    def _tp_verdict(self, spec):
        coeffs = character_coefficients(spec, self.HORIZON)
        if any(c < 0 for c in coeffs):
            return False
        truncated = not spec.is_fermionic_like
        coeffs = coeffs + [0] * (self.HORIZON + 1 - len(coeffs))
        return bool(
            totally_positive_upto(IntegerSeries(coeffs, truncated=truncated), self.ORDER)
        )

    @pytest.mark.parametrize("q", [(1, 1), (1, 3), (3, 2), (1, 2, 1), (1, 3, 3), (2, 5, 4), (1, 1, 1), (2, 4, 1)])
    def test_fermionic_subgrid(self, q):
        spec = StatisticsSpec(F, q)
        assert is_valid_statistics(spec).valid == self._tp_verdict(spec)

    @pytest.mark.parametrize("q", [(1, 1), (1, 2), (1, 1, 1), (1, 3, 2), (1, 2, 2), (1, 4, 4)])
    def test_bosonic_subgrid(self, q):
        spec = StatisticsSpec(B, q)
        assert is_valid_statistics(spec).valid == self._tp_verdict(spec)


class TestRootCounting:
    def test_counts_with_multiplicity(self):
        # (1+x)^2 (1+2x), and the same over 6: denominators are cleared first
        assert count_real_roots([2, 5, 4, 1][::-1], positive=False) == 3
        assert count_real_roots([Fraction(1, 6), Fraction(2, 3), Fraction(5, 6), Fraction(1, 3)], positive=False) == 3

    def test_no_roots_on_wrong_side(self):
        assert count_real_roots([1, 1], positive=True) == 0
        assert count_real_roots([1, 1], positive=False) == 1

    def test_agrees_with_sympy_with_roots_on_the_bound(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(11)
        for _ in range(150):
            roots = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            poly = sympy.Poly(1, x)
            for r in roots:
                poly *= sympy.Poly(r.denominator * x - r.numerator, x)
            if rng.random() < 0.5:  # a factor without real roots
                poly *= sympy.Poly(x**2 + rng.randint(-1, 1) * x + rng.randint(1, 3), x)
            coeffs = [int(c) for c in reversed(poly.all_coeffs())]
            upper = rng.choice([r for r in roots if r > 0] or [Fraction(1)])
            squarefree = poly.sqf_part()
            at_zero = int(squarefree.eval(0) == 0)
            in_range = squarefree.count_roots(0, upper) - at_zero
            assert count_real_roots_upto(coeffs, upper) == in_range, (coeffs, upper)
            with_mult = sum(m * f.count_roots(0, None) for f, m in poly.sqf_list()[1])
            zero_mult = next(i for i, c in enumerate(coeffs) if c)
            assert count_real_roots(coeffs, positive=True) == with_mult - zero_mult
            mirrored = sum(m * f.count_roots(None, 0) for f, m in poly.sqf_list()[1])
            assert count_real_roots(coeffs, positive=False) == mirrored - zero_mult

    @staticmethod
    def _sympy_half_lines(coeffs):
        """Distinct roots on (-inf, 0) and (0, inf) by sympy's counts on
        closed intervals, without a root at 0."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        squarefree = sympy.Poly(list(reversed(coeffs)), x).sqf_part()
        at_zero = int(squarefree.eval(0) == 0)
        return squarefree.count_roots(None, 0) - at_zero, squarefree.count_roots(0, None) - at_zero

    def test_roots_summary_matches_sympy(self, monkeypatch):
        # the summary does not read the Kronecker verdict, which costs up to
        # a second per degree-6 label
        monkeypatch.setattr(classify, "is_irreducible_statistics", lambda spec: None)
        rng = random.Random(12)
        specs = [fspec(1, 2, 1), bspec(1, 4, 4), fspec(2, 5, 4, 1), bspec(1, 3, 3, 1), fspec(1, 1, 1),
                 bspec(1, 1, 1), fspec(1, 2, 2, 1), bspec(1, 2, 2, 1)]
        for _ in range(150):
            kind, deg = rng.choice([F, B]), rng.randint(1, 8)
            if rng.random() < 0.4:  # real roots, often repeated
                q = [1]
                for _ in range(deg):
                    r = rng.randint(1, 3)
                    q = [a + r * b for a, b in zip(q + [0], [0] + q)]
            else:
                q = [1 if kind is B else rng.randint(1, 999)] + [rng.randint(1, 999) for _ in range(deg)]
            specs.append(StatisticsSpec(kind, q))
        for spec in specs:
            negative, positive = self._sympy_half_lines(build_polynomial(spec))
            got = is_valid_statistics(spec).roots_summary
            assert got == {"negative": negative, "positive": positive}, spec

    def test_layer_roots_read_both_half_lines(self):
        # by Descartes' rule a label has roots on its own side only, so
        # roots on both sides, at 0 and repeated are checked on the reader
        rng = random.Random(13)
        for _ in range(150):
            deg = rng.randint(1, 8)
            if rng.random() < 0.3:  # three-digit coefficients of either sign
                coeffs = [rng.randint(-999, 999) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.randint(1, 999)]
            else:
                coeffs = [1]
                for _ in range(deg):
                    num, den = rng.randint(-3, 3), rng.randint(1, 2)
                    coeffs = [den * a - num * b for a, b in zip([0] + coeffs, coeffs + [0])]
                if rng.random() < 0.3:  # a factor without real roots
                    coeffs = [a + b for a, b in zip(coeffs + [0, 0], [0, 0] + coeffs)]
            assert _layer_roots(coeffs)[0] == self._sympy_half_lines(coeffs), coeffs

    @pytest.mark.parametrize("spec, chains", [(fspec(1, 3, 2), 1), (bspec(1, 6, 11, 6), 1), (fspec(1, 1, 1), 1),
                                              (fspec(1, 2, 1), 2), (bspec(1, 4, 4), 2), (fspec(1, 3, 3, 1), 3)],
                             ids=lambda v: v.label() if isinstance(v, StatisticsSpec) else str(v))
    def test_gate_builds_one_chain_per_layer(self, monkeypatch, spec, chains):
        calls = collections.Counter()
        for name in ("_int_sturm_chain", "_int_gcd", "_sturm_chain", "_gcd_poly"):
            def counting(*args, _f=getattr(classify, name), _name=name):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(classify, name, counting)
        is_valid_statistics(spec)
        # one integer gcd and chain per square-free layer, a layer per
        # multiplicity, and no rational chain
        assert calls == {"_int_sturm_chain": chains, "_int_gcd": chains}
        calls.clear()
        # the divergence test keeps its one rational gcd and chain
        count_real_roots_upto(build_polynomial(spec), Fraction(1))
        assert calls == {"_sturm_chain": 1, "_gcd_poly": 1}

    def test_least_positive_root_brackets_the_wall(self):
        # 1 - 6x + 11x^2 - 6x^3 = (1-x)(1-2x)(1-3x): smallest root 1/3
        y = least_positive_root(build_polynomial(bspec(1, 6, 11, 6)))
        assert Fraction(y) >= Fraction(1, 3) > Fraction(math.nextafter(y, 0))
        assert least_positive_root(build_polynomial(bspec(1, 2, 1))) == 1.0
        # the wall w decides "a root in (0, y]" for every float y by y >= w,
        # including a degree-5 label and double roots
        labels = [(1, 1), (1, 2), (1, 3, 2), (1, 6, 11, 6), (1, 15, 85, 225, 274, 120), (1, 4, 4), (1, 2, 1)]
        for q in labels:
            p = build_polynomial(bspec(*q))
            w = least_positive_root(p)
            ys, below, above = [w], w, w
            for _ in range(40):
                below, above = math.nextafter(below, 0), math.nextafter(above, 2)
                ys += [below, above]
            for y in ys:
                assert (count_real_roots_upto(p, Fraction(y)) >= 1) == (y >= w), (q, y)
