import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockstat.errors import InsufficientHorizonError, ResourceGuardError
from fockstat.symfunc import (
    IntegerSeries,
    Partition,
    enumerate_partitions,
    schur_dimension,
    schur_eval,
    schur_expand_oracle,
    schur_expand_product,
    schur_monomials,
    toeplitz_minor,
)

EMPTY = Partition(())


def P(*parts):
    return Partition(parts)


small_partitions = st.lists(
    st.integers(min_value=1, max_value=4), min_size=0, max_size=3
).map(lambda l: Partition(sorted(l, reverse=True)))

small_series = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=5
).map(lambda l: IntegerSeries([max(l[0], 1)] + l[1:]))


class TestPartition:
    def test_normalization_strips_trailing_zeros(self):
        assert Partition((2, 1, 0, 0)).parts == (2, 1)
        assert Partition((0,)).parts == ()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_weight_length(self):
        lam = P(3, 1, 1)
        assert lam.weight == 5
        assert lam.length == 3

    def test_conjugate(self):
        assert P(3, 1).conjugate() == P(2, 1, 1)
        assert EMPTY.conjugate() == EMPTY

    @given(small_partitions)
    def test_conjugate_involution(self, lam):
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().weight == lam.weight


class TestEnumeratePartitions:
    def test_weight_zero(self):
        assert enumerate_partitions(0, 2) == [EMPTY]

    def test_graded_lex_order(self):
        assert enumerate_partitions(2, 2) == [EMPTY, P(1), P(2), P(1, 1)]

    def test_length_filter(self):
        assert enumerate_partitions(2, 1) == [EMPTY, P(1), P(2)]

    def test_no_duplicates_and_bounds(self):
        out = enumerate_partitions(5, 3)
        assert len(set(out)) == len(out)
        assert all(p.weight <= 5 and p.length <= 3 for p in out)

    def test_counts_match_sorted_key(self):
        out = enumerate_partitions(6, 6)
        assert out == sorted(out, key=lambda p: p.sort_key)


class TestSchurMonomials:
    def test_single_box(self):
        assert schur_monomials(P(1), 2) == {(1, 0): 1, (0, 1): 1}

    def test_row_two(self):
        assert schur_monomials(P(2), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_column_two(self):
        assert schur_monomials(P(1, 1), 2) == {(1, 1): 1}

    def test_too_few_variables_is_zero(self):
        assert schur_monomials(P(1, 1, 1), 2) == {}

    def test_empty_shape(self):
        assert schur_monomials(EMPTY, 2) == {(0, 0): 1}

    def test_kostka_221(self):
        # shape (2,1) over 3 letters: dimension 8, leading coefficient 1
        mono = schur_monomials(P(2, 1), 3)
        assert mono[(2, 1, 0)] == 1
        assert mono[(1, 1, 1)] == 2
        assert sum(mono.values()) == 8

    @given(small_partitions, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_symmetry_of_counts(self, lam, d):
        # Schur polynomials are symmetric: permuting an exponent vector
        # cannot change its coefficient.
        mono = schur_monomials(lam, d)
        for alpha, c in mono.items():
            assert mono[tuple(sorted(alpha))] == c


class TestSchurEval:
    def test_elementary(self):
        assert schur_eval(P(1, 1), (2.0, 3.0)) == pytest.approx(6.0)

    def test_ones_counts_ssyt(self):
        assert schur_eval(P(2), (1, 1)) == pytest.approx(3)
        assert schur_eval(P(2, 1), (1, 1, 1)) == pytest.approx(8)

    def test_matches_monomial_sum(self):
        rng = np.random.default_rng(7)
        for lam in [P(2), P(1, 1), P(2, 1), P(3, 1)]:
            for d in (lam.length, lam.length + 1):
                x = rng.normal(size=d) + 1j * rng.normal(size=d)
                direct = sum(
                    mult * np.prod([xi**a for xi, a in zip(x, alpha)])
                    for alpha, mult in schur_monomials(lam, d).items()
                )
                assert schur_eval(lam, x) == pytest.approx(direct, rel=1e-10)

    def test_coincident_fallback_consistent(self):
        # points straddling the coincidence threshold agree
        lam = P(2, 1)
        nearly = schur_eval(lam, (1.0, 1.0 + 1e-6, 0.5))
        exact = schur_eval(lam, (1.0, 1.0, 0.5))
        assert nearly == pytest.approx(exact, rel=1e-4)

    def test_dimension_counts_tableaux_up_to_six_modes(self):
        # the integer Weyl product against the SSYT count, lengths past d included
        for d in range(1, 7):
            for lam in enumerate_partitions(6, 6):
                assert schur_dimension(lam, d) == sum(schur_monomials(lam, d).values()), (lam, d)

    def test_dimension_agreement(self):
        for lam in enumerate_partitions(4, 3):
            d = 3
            ssyt_count = sum(schur_monomials(lam, d).values())
            assert schur_dimension(lam, d) == ssyt_count
            assert schur_eval(lam, (1,) * d) == pytest.approx(ssyt_count)


class TestToeplitzMinor:
    def test_counterexample_value(self):
        a = IntegerSeries((1, 0, 1))
        assert toeplitz_minor(a, P(1, 1), EMPTY, 2) == -1

    def test_fermionic_value(self):
        assert toeplitz_minor(IntegerSeries((1, 1)), P(1, 1), EMPTY, 2) == 1

    def test_diagonal_case(self):
        for coeffs in [(1, 1), (3, 2, 1), (2,)]:
            a = IntegerSeries(coeffs)
            assert toeplitz_minor(a, EMPTY, EMPTY, 2) == coeffs[0] ** 2

    def test_truncated_series_raises_with_required_index(self):
        a = IntegerSeries((1, 2, 4), truncated=True)
        with pytest.raises(InsufficientHorizonError) as exc:
            toeplitz_minor(a, P(3), EMPTY, 2)
        assert exc.value.required == 4

    def test_finite_series_pads_with_zeros(self):
        a = IntegerSeries((1, 2, 4))
        assert toeplitz_minor(a, P(5), EMPTY, 1) == 0

    def test_d_too_small_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_minor(IntegerSeries((1, 1)), P(1, 1, 1), EMPTY, 2)

    @given(small_series, small_partitions)
    @settings(max_examples=60)
    def test_padding_stability(self, a, lam):
        # adding a zero row/column multiplies the minor by a_0; for a_0 = 1
        # the minor is independent of d
        d = max(lam.length, 1)
        v1 = toeplitz_minor(a, lam, EMPTY, d)
        v2 = toeplitz_minor(a, lam, EMPTY, d + 1)
        assert v2 == a.coeffs[0] * v1


class TestIntegerSeries:
    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            IntegerSeries((0, 1))

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            IntegerSeries((1, -1))

    def test_coeff_semantics(self):
        fin = IntegerSeries((1, 2))
        assert fin.coeff(-1) == 0
        assert fin.coeff(5) == 0
        trunc = IntegerSeries((1, 2), truncated=True)
        with pytest.raises(InsufficientHorizonError):
            trunc.coeff(5)


class TestSchurExpand:
    def test_order_one_table(self):
        got = schur_expand_product(IntegerSeries((1, 2)), 2, 2)
        assert got == {EMPTY: 1, P(1): 2, P(1, 1): 4}

    def test_counterexample_table(self):
        got = schur_expand_product(IntegerSeries((1, 0, 1)), 2, 4)
        assert got == {EMPTY: 1, P(2): 1, P(2, 2): 1, P(1, 1): -1}

    def test_order_two_table(self):
        got = schur_expand_product(IntegerSeries((1, 3, 1)), 2, 4)
        assert got == {
            EMPTY: 1,
            P(1): 3,
            P(1, 1): 8,
            P(2): 1,
            P(2, 1): 3,
            P(2, 2): 1,
        }

    def test_oracle_guard(self):
        for d, max_weight, fields in [(4, 2, ("ORACLE_MAX_MODES", 3, 4)),
                                      (2, 7, ("ORACLE_MAX_WEIGHT", 6, 7))]:
            with pytest.raises(ResourceGuardError) as info:
                schur_expand_oracle(IntegerSeries((1, 1)), d, max_weight)
            assert (info.value.bound_name, info.value.bound, info.value.asked) == fields
        assert schur_expand_oracle(IntegerSeries((1, 1)), 3, 6)[P(1, 1, 1)] == 1

    def test_oracle_agreement_examples(self):
        cases = [
            (IntegerSeries((1, 1)), 2, 4),
            (IntegerSeries((1, 2, 4, 8, 16), truncated=True), 2, 3),
            (IntegerSeries((1, 0, 1)), 2, 4),
        ]
        for a, d, w in cases:
            assert schur_expand_oracle(a, d, w) == schur_expand_product(a, d, w)

    @given(small_series, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement_property(self, a, d):
        w = 4
        assert schur_expand_oracle(a, d, w) == schur_expand_product(a, d, w)

    def test_geometric_series_rank_one(self):
        a = IntegerSeries((1, 2, 4, 8, 16), truncated=True)
        got = schur_expand_product(a, 2, 3)
        assert got == {EMPTY: 1, P(1): 2, P(2): 4, P(3): 8}


def _expand_by_every_minor(a, d, max_weight):
    """The reference route: one Toeplitz minor for every partition of length
    <= d and weight <= max_weight, in graded order."""
    out = {}
    for lam in enumerate_partitions(max_weight, d):
        c = toeplitz_minor(a, lam, EMPTY, d)
        if c != 0:
            out[lam] = c
    return out


def _outcome(expand, a, d, max_weight):
    """Entries in their order, or the error's type and fields."""
    try:
        return list(expand(a, d, max_weight).items())
    except InsufficientHorizonError as exc:
        return type(exc), exc.required, exc.horizon


class TestExpandAgainstEveryMinor:
    """schur_expand_product decomposes only the partitions whose minor can be
    nonzero; the all-partitions route is the reference it must equal."""

    @pytest.mark.parametrize("coeffs", [(1,), (3,), (1, 1), (1, 0, 1), (2, 0, 0, 3), (1, 3, 1), (1, 2, 3, 4)])
    def test_finite_series(self, coeffs):
        a = IntegerSeries(coeffs)
        for d in range(1, 7):
            for max_weight in range(d * a.horizon + 3):
                want = _outcome(_expand_by_every_minor, a, d, max_weight)
                assert _outcome(schur_expand_product, a, d, max_weight) == want, (d, max_weight)

    @pytest.mark.parametrize("coeffs", [(1, 2, 4, 8, 16, 32, 64, 128, 256), (1, 0, 1, 0, 1, 0, 1, 0, 1),
                                        (1, 1), (2,)])
    def test_truncated_series_on_both_sides_of_the_horizon(self, coeffs):
        a = IntegerSeries(coeffs, truncated=True)
        for d in range(1, 7):
            for max_weight in range(a.horizon + 3):
                want = _outcome(_expand_by_every_minor, a, d, max_weight)
                assert _outcome(schur_expand_product, a, d, max_weight) == want, (d, max_weight)

    def test_truncated_series_error_fields(self):
        # the first partition to run out is (horizon - d + 2,), or the
        # empty one when d - 1 > horizon
        for coeffs, d, max_weight, required in [((1, 1, 1), 2, 2, 3), ((1, 1), 4, 0, 3), ((1,), 1, 1, 1)]:
            with pytest.raises(InsufficientHorizonError) as info:
                schur_expand_product(IntegerSeries(coeffs, truncated=True), d, max_weight)
            assert (info.value.required, info.value.horizon) == (required, len(coeffs) - 1)
