import math
import sys
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockstat import classify, symfunc
from fockstat.classify import Kind, StatisticsSpec
from fockstat.dynamics import _require_sector, sector_rep
from fockstat.errors import InvalidStatisticsError, ResourceGuardError, UnsupportedStatisticsError
from fockstat.fock import (
    STARTS_HORIZON_BOUND,
    LabeledState,
    decompose,
    enumerate_basis,
    excitation_number,
    excitation_of,
    from_aux_integers,
    from_labeled,
    order_one_sector,
    sector_states,
    state_energy,
    to_labeled,
)
from fockstat.fock import _block_starts, _join_occupation, _split_occupation, _starts, aux_digits
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
        for spec, cutoff in ((fspec(1, 3, 2), None), (bspec(1, 2), 3), (bspec(1, 3, 2), 4)):
            states = enumerate_basis(spec, 3, cutoff)
            assert states == sorted(states, key=lambda s: s[::-1])

    def test_fermionic_cutoff_ignored(self):
        whole = enumerate_basis(fspec(1, 2), 3)
        assert all(enumerate_basis(fspec(1, 2), 3, c) == whole for c in (-1, 0, 2))

    def test_basis_list_is_not_kept_alive(self):
        # a recursion closure that refers to itself would hold the list
        # until a full garbage collection
        for spec, cutoff in ((fspec(1, 2), None), (bspec(1, 2), 3)):
            basis, fresh = enumerate_basis(spec, 3, cutoff), []
            refs = sys.getrefcount(basis), sys.getrefcount(fresh)
            assert refs[0] == refs[1]

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

    def test_character_memo_is_bounded(self):
        assert _block_starts.cache_info().maxsize is not None

    def test_occupation_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            excitation_of(fspec(1, 2), 3)

    def test_start_table_growth_is_guarded(self):
        t0 = time.perf_counter()
        with pytest.raises(ResourceGuardError) as info:
            excitation_of(bspec(1, 1), 10**6)  # a table of a million starts unguarded
        assert time.perf_counter() - t0 < 0.5
        assert (info.value.bound_name, info.value.bound, info.value.asked) == (
            "STARTS_HORIZON_BOUND", 4096, 4097
        )
        assert "occupation 1000000" in info.value.subject
        with pytest.raises(ResourceGuardError) as info:
            enumerate_basis(bspec(1, 1), 1, excitation_cutoff=5000)
        assert (info.value.bound, info.value.asked) == (4096, 5000)
        assert "excitation 5001" in info.value.subject
        assert excitation_of(bspec(1, 1), 4096) == 4096  # the last one the bound covers

    def test_start_table_guard_leaves_room_for_every_sector(self):
        # the largest sector within SECTOR_BASIS_BOUND on two or more modes,
        # under the order-one labels that dynamics, the CLI and the tests
        # use, needs a horizon 8 times below the bound
        for q, d in product((1, 2, 3), (2, 3, 4, 8)):
            spec = bspec(1, q)
            N = 0
            with pytest.raises(ResourceGuardError) as info:
                while True:
                    _require_sector(spec, d, N + 1)
                    N += 1
            assert info.value.bound_name == "SECTOR_BASIS_BOUND"
            top = _starts(spec, excitation=N + 1)[N + 1] - 1
            assert excitation_of(spec, top) == N
            assert len(_starts(spec, top)) - 2 <= STARTS_HORIZON_BOUND // 8
        # one mode of 1,1:+ holds N + 1 states, within the sector guard; past
        # the 4,096 particles the block-start table covers, the table's own
        # guard refuses the sector before any state is built
        _require_sector(bspec(1, 1), 1, STARTS_HORIZON_BOUND + 1)
        assert excitation_of(bspec(1, 1), STARTS_HORIZON_BOUND) == STARTS_HORIZON_BOUND
        with pytest.raises(ResourceGuardError) as info:
            sector_rep(bspec(1, 1), np.eye(1), STARTS_HORIZON_BOUND + 1)
        assert (info.value.bound_name, info.value.bound, info.value.asked) == (
            "STARTS_HORIZON_BOUND", 4096, 4097
        )
        # a fermionic-like sector that large is empty, and is reported so later
        _require_sector(fspec(1, 1), 2, STARTS_HORIZON_BOUND + 1)

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
        # one gate per label: built on a cold memo, read from it when warm
        calls = []
        layer_roots = classify._layer_roots
        monkeypatch.setattr(classify, "_layer_roots", lambda *a: calls.append(a) or layer_roots(*a))
        classify._gate_layers.cache_clear()
        decompose(spec, 2, max_weight=max_weight)
        assert len(calls) == 1
        decompose(spec, 2, max_weight=max_weight)
        assert len(calls) == 1
        assert classify._gate_layers.cache_info().maxsize is not None

    def test_minors_only_inside_the_box(self, monkeypatch):
        # a degree-r fermionic-like label on d modes: only the C(r + d, d)
        # partitions with parts <= r can have a nonzero minor
        calls = []
        det = symfunc._det_bareiss
        monkeypatch.setattr(symfunc, "_det_bareiss", lambda m: calls.append(m) or det(m))
        dec = decompose(fspec(1, 4, 6, 4, 1), 6)
        assert len(calls) <= math.comb(10, 6) == 210
        assert dec.dimension_check == (16**6, 16**6)

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


order_one_states = st.builds(
    lambda kind, q, occupations: (
        StatisticsSpec(kind, (1, q)),
        tuple(n % (q + 1) if kind is F else n for n in occupations),
    ),
    st.sampled_from([F, B]),
    st.integers(1, 4),
    st.lists(st.integers(0, 60), min_size=1, max_size=4),
)


class TestLabelCodec:
    @given(order_one_states)
    def test_round_trip(self, spec_state):
        spec, state = spec_state
        q = spec.q[1]
        lab = to_labeled(spec, state)
        assert from_labeled(spec, lab) == state
        # one base-q digit per particle; the fermionic entry is the bare digit
        strings = [(a,) if spec.is_fermionic_like else a for a in lab.aux]
        assert [len(x) for x in strings] == [k for k in lab.ordinary if k]
        assert all(type(v) is int and 0 <= v < q for x in strings for v in x)
        values = [sum(v * q**i for i, v in enumerate(reversed(x))) for x in strings]
        assert from_aux_integers(spec, lab.ordinary, values) == state

    @given(order_one_states, st.data())
    def test_rejects_malformed_labels(self, spec_state, data):
        spec, state = spec_state
        q, fermionic = spec.q[1], spec.is_fermionic_like
        lab = to_labeled(spec, state)
        ordinary, aux = list(lab.ordinary), list(lab.aux)
        occupied = [i for i, k in enumerate(ordinary) if k]
        bad = [
            (ordinary, aux + [0 if fermionic else (0,)]),  # one label too many
            ([-1] + ordinary[1:], aux[1:] if ordinary[0] else aux),  # negative k
        ]
        if occupied:
            j = data.draw(st.integers(0, len(occupied) - 1))
            i = occupied[j]
            with_label = lambda a: aux[:j] + [a] + aux[j + 1 :]
            bad.append((ordinary, aux[:j] + aux[j + 1 :]))  # one label missing
            digit = data.draw(st.sampled_from([-1, q]))
            if fermionic:
                bad.append((ordinary, with_label(digit)))  # digit outside base q
                bad.append((ordinary[:i] + [2] + ordinary[i + 1 :], aux))  # k > 1
            else:
                bad.append((ordinary, with_label(aux[j][:-1] + (digit,))))
                bad.append((ordinary, with_label(aux[j] + (0,))))  # length k + 1
        for bad_ordinary, bad_aux in bad:
            with pytest.raises(ValueError):
                from_labeled(spec, LabeledState(tuple(bad_ordinary), tuple(bad_aux)))

    def test_block_starts_match_the_closed_form(self):
        # [1,q] puts q**s occupations in block s, so block k starts at
        # 1 + q + ... + q**(k-1); a fermionic-like table ends after block 1
        for kind, q in product((F, B), (1, 2, 3)):
            spec = StatisticsSpec(kind, (1, q))
            for k in range(3 if kind is F else 7):
                start = k if q == 1 else (q**k - 1) // (q - 1)
                assert _starts(spec, excitation=k)[k] == start
                if k > 1 and kind is F:
                    continue
                for z in range(q**k):
                    digits = aux_digits(z, q, k)
                    assert _join_occupation(spec, k, digits) == start + z
                    assert _split_occupation(spec, start + z) == (k, digits)

    def test_aux_integers_default_to_zero_digits(self):
        assert from_aux_integers(bspec(1, 2), (2, 0, 1)) == (3, 0, 1)
        assert from_aux_integers(fspec(1, 3), (1, 0, 1)) == (1, 0, 1)
        assert from_aux_integers(bspec(1, 2), (2, 0, 1), [3, 1]) == (6, 0, 2)

    def test_aux_integers_check_the_order_first(self):
        # an order-two label is unsupported whatever its auxiliary values
        for spec in (fspec(1, 3, 1), bspec(1, 3, 2)):
            with pytest.raises(UnsupportedStatisticsError):
                from_aux_integers(spec, (1, 0), [9, 9])


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
