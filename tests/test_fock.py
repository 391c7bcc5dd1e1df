import math
from itertools import product

import pytest

from fockstat import classify
from fockstat.classify import Kind, StatisticsSpec
from fockstat.errors import InvalidStatisticsError, UnsupportedStatisticsError
from fockstat.fock import (
    LabeledState,
    decompose,
    enumerate_basis,
    excitation_number,
    excitation_of,
    from_labeled,
    order_one_sector,
    sector_states,
    state_energy,
    to_labeled,
)
from fockstat.symfunc import Partition, schur_dimension, schur_expand_oracle

F, B = Kind.FERMIONIC_LIKE, Kind.BOSONIC_LIKE


def fspec(*q):
    return StatisticsSpec(F, q)


def bspec(*q):
    return StatisticsSpec(B, q)


class TestEnumerateBasis:
    def test_order_one_fermionic_cube(self):
        states = enumerate_basis(fspec(1, 2), 2)
        assert len(states) == 9
        assert set(states) == set(product(range(3), repeat=2))

    def test_ordinary_fermions(self):
        assert len(enumerate_basis(fspec(1, 1), 3)) == 8

    def test_bosonic_cutoff(self):
        assert enumerate_basis(bspec(1, 2), 1, 2) == [(n,) for n in range(7)]

    def test_colex_order(self):
        assert enumerate_basis(fspec(1, 1), 2) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_bosonic_needs_cutoff(self):
        with pytest.raises(ValueError):
            enumerate_basis(bspec(1, 2), 2)

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidStatisticsError):
            enumerate_basis(fspec(1, 1, 1), 2)

    def test_bosonic_sector_counting(self):
        # states at excitation exactly N: beta^N * C(N+d-1, d-1)
        for beta, d in product((1, 2, 3), (1, 2, 3)):
            spec = bspec(1, beta)
            for N in range(4):
                got = len(sector_states(spec, d, N))
                assert got == beta**N * math.comb(N + d - 1, d - 1)


class TestExcitation:
    def test_ordinary_counts_particles(self):
        assert excitation_number(fspec(1, 1), (1, 0, 1)) == 2

    def test_degenerate_excitation(self):
        assert excitation_number(fspec(1, 2), (2, 1)) == 2

    def test_bosonic_blocks(self):
        spec = bspec(1, 2)
        assert [excitation_of(spec, n) for n in range(7)] == [0, 1, 1, 2, 2, 2, 2]
        assert excitation_number(spec, (4, 0)) == 2

    def test_occupation_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            excitation_of(fspec(1, 2), 3)

    def test_energy(self):
        assert state_energy(fspec(1, 1), (1, 1), (1.0, 0.5)) == pytest.approx(1.5)
        assert state_energy(fspec(1, 2), (2, 1), (1.0, 0.5)) == pytest.approx(1.5)
        assert state_energy(fspec(1, 2), (0, 0), (1.0, 0.5)) == 0.0

    def test_energy_length_mismatch(self):
        with pytest.raises(ValueError):
            state_energy(fspec(1, 1), (1, 1), (1.0,))


class TestDecompose:
    def test_ordinary_fermions_multiplicity_free(self):
        dec = decompose(fspec(1, 1), 2)
        assert dec.entries == {
            Partition(()): 1,
            Partition((1,)): 1,
            Partition((1, 1)): 1,
        }

    def test_order_one_multiplicities(self):
        dec = decompose(fspec(1, 2), 2)
        assert dec.entries == {
            Partition(()): 1,
            Partition((1,)): 2,
            Partition((1, 1)): 4,
        }

    def test_order_two_includes_mixed_shapes(self):
        dec = decompose(fspec(1, 3, 1), 2)
        assert dec.entries[Partition((2, 1))] == 3
        assert dec.entries[Partition((2, 2))] == 1

    def test_dimension_identity_reported(self):
        for spec, d in [(fspec(1, 1), 3), (fspec(1, 2), 2), (fspec(1, 3, 1), 2)]:
            dec = decompose(spec, d)
            assert dec.dimension_check is not None
            total, expected = dec.dimension_check
            assert total == expected

    def test_bosonic_needs_weight(self):
        with pytest.raises(ValueError):
            decompose(bspec(1, 2), 2)

    @pytest.mark.parametrize("spec", [fspec(1, 2), bspec(1, 2)], ids=lambda s: s.label())
    def test_negative_weight_rejected(self, spec):
        with pytest.raises(ValueError, match="max_weight must be >= 0"):
            decompose(spec, 2, max_weight=-1)

    def test_invalid_bosonic_without_weight_fails_the_gate_first(self):
        with pytest.raises(InvalidStatisticsError):
            decompose(bspec(1, 1, 1), 2)

    @pytest.mark.parametrize("spec, max_weight", [(fspec(1, 3, 1), None), (bspec(1, 3, 2), 3)])
    def test_gate_runs_once(self, monkeypatch, spec, max_weight):
        calls = []
        count = classify.count_real_roots

        def counting(*args):
            calls.append(args)
            return count(*args)

        monkeypatch.setattr(classify, "count_real_roots", counting)
        decompose(spec, 2, max_weight=max_weight)
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", [bspec(1, 1), bspec(1, 2), bspec(1, 3, 2), bspec(1, 2, 1),
                                      bspec(1, 6, 11, 6), bspec(1, 4, 4)])
    def test_bosonic_weight_below_degree_matches_oracle(self, spec):
        # the character recurrence needs no horizon of at least the degree
        for d in (1, 2, 3):
            wide = decompose(spec, d, 6).entries
            for max_weight in range(4):
                got = decompose(spec, d, max_weight).entries
                series = classify.single_mode_character(spec, max(max_weight, spec.order))
                assert got == schur_expand_oracle(series, d, max_weight), (d, max_weight)
                assert got == {lam: c for lam, c in wide.items() if lam.weight <= max_weight}

    def test_bosonic_rows_only(self):
        dec = decompose(bspec(1, 1), 2, max_weight=3)
        assert dec.entries == {
            Partition(()): 1,
            Partition((1,)): 1,
            Partition((2,)): 1,
            Partition((3,)): 1,
        }

    def test_multiplicity_free_only_for_ordinary(self):
        # among valid order-one labels with q <= 4 at d=2, weight 2
        free = []
        for kind, q in product((F, B), range(1, 5)):
            spec = StatisticsSpec(kind, (1, q))
            dec = decompose(spec, 2, max_weight=2)
            if all(c <= 1 for c in dec.entries.values()):
                free.append(spec.label())
        assert sorted(free) == ["1,1:+", "1,1:-"]


class TestOrderOneSector:
    def test_examples(self):
        assert order_one_sector(fspec(1, 2), 3, 2) == (Partition((1, 1)), 4)
        assert order_one_sector(bspec(1, 3), 2, 2) == (Partition((2,)), 9)
        assert order_one_sector(bspec(1, 1), 2, 5) == (Partition((5,)), 1)

    def test_rejects_higher_order(self):
        with pytest.raises(UnsupportedStatisticsError):
            order_one_sector(fspec(1, 3, 1), 2, 1)

    def test_rejects_non_unique_vacuum(self):
        with pytest.raises(UnsupportedStatisticsError):
            order_one_sector(fspec(2, 2), 2, 1)

    def test_fermionic_sector_bound(self):
        with pytest.raises(ValueError):
            order_one_sector(fspec(1, 2), 2, 3)

    def test_agrees_with_decompose(self):
        # order-one decompositions contain exactly the predicted partitions
        for kind, q, d in product((F, B), (1, 2, 3), (2, 3, 4)):
            spec = StatisticsSpec(kind, (1, q))
            dec = decompose(spec, d, max_weight=4)
            predicted = {}
            max_N = min(d, 4) if kind is F else 4
            for N in range(max_N + 1):
                lam, mult = order_one_sector(spec, d, N)
                if lam.weight <= 4:
                    predicted[lam] = mult
            assert dec.entries == predicted


class TestLabelBijection:
    def test_fermionic_examples(self):
        spec = fspec(1, 2)
        assert to_labeled(spec, (0, 2)) == LabeledState((0, 1), (1,))
        assert to_labeled(spec, (1, 1)) == LabeledState((1, 1), (0, 0))
        assert from_labeled(spec, LabeledState((0, 1), (1,))) == (0, 2)

    def test_bosonic_examples(self):
        spec = bspec(1, 2)
        assert to_labeled(spec, (4,)) == LabeledState((2,), ((0, 1),))
        assert from_labeled(spec, LabeledState((2,), ((0, 1),))) == (4,)

    def test_vacuum(self):
        for spec in [fspec(1, 2), bspec(1, 3)]:
            vac = LabeledState((0, 0), ())
            assert from_labeled(spec, vac) == (0, 0)
            assert to_labeled(spec, (0, 0)) == vac

    def test_bijection_exhaustive(self):
        for q in (1, 2, 3):
            for d in (1, 2, 3):
                spec = fspec(1, q)
                seen = set()
                for state in enumerate_basis(spec, d):
                    lab = to_labeled(spec, state)
                    assert from_labeled(spec, lab) == state
                    assert lab not in seen
                    seen.add(lab)
                bos = bspec(1, q)
                seen = set()
                for state in enumerate_basis(bos, d, excitation_cutoff=3):
                    lab = to_labeled(bos, state)
                    assert from_labeled(bos, lab) == state
                    assert lab not in seen
                    seen.add(lab)

    def test_excitation_preserved(self):
        spec = bspec(1, 3)
        for state in enumerate_basis(spec, 2, excitation_cutoff=3):
            lab = to_labeled(spec, state)
            assert excitation_number(spec, state) == sum(lab.ordinary)

    def test_digit_string_length_matches_occupation(self):
        spec = bspec(1, 2)
        lab = to_labeled(spec, (6, 1))
        assert lab.ordinary == (2, 1)
        assert [len(x) for x in lab.aux] == [2, 1]

    def test_rejects_higher_order(self):
        with pytest.raises(UnsupportedStatisticsError):
            to_labeled(fspec(1, 3, 1), (1, 0))

    def test_rejects_non_unique_vacuum(self):
        with pytest.raises(UnsupportedStatisticsError):
            to_labeled(fspec(2, 2), (1, 0))

    def test_malformed_labels(self):
        spec = fspec(1, 2)
        with pytest.raises(ValueError):
            from_labeled(spec, LabeledState((1, 0), ()))  # missing label
        with pytest.raises(ValueError):
            from_labeled(spec, LabeledState((1, 0), (5,)))  # z out of range
        with pytest.raises(ValueError):
            from_labeled(spec, LabeledState((2, 0), (0,)))  # fermionic k > 1
        with pytest.raises(ValueError):
            from_labeled(bspec(1, 2), LabeledState((2,), ((1,),)))  # short digits

    def test_dimension_identity_order_one(self):
        # (alpha+1)^d = sum_N C(d,N) alpha^N realized on the actual basis
        for alpha, d in product((2, 3), (2, 3)):
            spec = fspec(1, alpha)
            total = len(enumerate_basis(spec, d))
            by_sector = sum(
                order_one_sector(spec, d, N)[1] * math.comb(d, N)
                for N in range(d + 1)
            )
            assert total == (alpha + 1) ** d == by_sector

    def test_sector_dimension_matches_schur(self):
        # |sector N| = multiplicity * dim of the irreducible
        spec = fspec(1, 2)
        d = 3
        for N in range(d + 1):
            lam, mult = order_one_sector(spec, d, N)
            assert len(sector_states(spec, d, N)) == mult * schur_dimension(lam, d)
