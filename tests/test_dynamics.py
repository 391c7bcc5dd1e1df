import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockstat import dynamics
from fockstat.classify import Kind, StatisticsSpec
from fockstat.dynamics import (
    AmplitudeVector,
    beamsplitter,
    bosonic_rep,
    character_trace,
    check_unitary,
    detection_probabilities,
    evolve,
    fermionic_rep,
    haar_unitary,
    permanent,
    sector_rep,
)
from fockstat.errors import (
    InvalidStatisticsError,
    ResourceGuardError,
    UnsupportedStatisticsError,
)
from fockstat.fock import enumerate_basis, excitation_of, sector_states, to_labeled

F, B = Kind.FERMIONIC_LIKE, Kind.BOSONIC_LIKE
F11 = StatisticsSpec(F, (1, 1))
B11 = StatisticsSpec(B, (1, 1))
F12 = StatisticsSpec(F, (1, 2))
B12 = StatisticsSpec(B, (1, 2))

SPECS = [F11, B11, F12, B12]

# bosonic amplitudes agree with the Ryser route to this absolute tolerance
RYSER_TOL = 1e-12


def oracle_column(spec, g, basis, state):
    """Sector column at ``state`` through the hidden-label bijection: the
    ordinary entry, det g[m|n] for fermions or per(g[m|n]) / sqrt(m! n!) by
    Ryser for bosons, where the output carries the input's auxiliary digits,
    else 0."""
    flat = lambda aux: tuple(chain.from_iterable((a,) if isinstance(a, int) else a for a in aux))
    rows = lambda occ: [i for i, k in enumerate(occ) for _ in range(k)]
    fact = lambda occ: math.prod(map(math.factorial, occ))
    n = to_labeled(spec, state)
    out = np.zeros(len(basis), dtype=complex)
    for row, s in enumerate(basis):
        m = to_labeled(spec, s)
        if flat(m.aux) == flat(n.aux):
            minor = g[np.ix_(rows(m.ordinary), rows(n.ordinary))]
            out[row] = (
                np.linalg.det(minor)
                if spec.is_fermionic_like
                else permanent(minor) / np.sqrt(fact(m.ordinary) * fact(n.ordinary))
            )
    return out


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(3)) == pytest.approx(1.0)

    def test_all_ones(self):
        n = 4
        assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n))

    def test_two_by_two(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)

    def test_empty(self):
        assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)


class TestUnitaryHelpers:
    def test_beamsplitter_is_unitary(self):
        check_unitary(beamsplitter())

    def test_haar_deterministic(self):
        assert np.allclose(haar_unitary(3, 7), haar_unitary(3, 7))
        assert not np.allclose(haar_unitary(3, 7), haar_unitary(3, 8))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            check_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, entry):
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(np.array([[1.0, entry], [0.0, 1.0]]))


class TestFermionicRep:
    def test_defining_sector(self):
        g = haar_unitary(3, 0)
        assert np.allclose(fermionic_rep(g, 1).matrix, g)

    def test_top_sector_is_determinant(self):
        g = haar_unitary(3, 1)
        rep = fermionic_rep(g, 3)
        assert rep.matrix.shape == (1, 1)
        assert rep.matrix[0, 0] == pytest.approx(np.linalg.det(g))

    def test_beamsplitter_antibunching_phase(self):
        assert fermionic_rep(beamsplitter(), 2).matrix[0, 0] == pytest.approx(-1.0)

    def test_permutation_sign(self):
        swap01 = np.eye(3, dtype=complex)[[1, 0, 2]]
        assert fermionic_rep(swap01, 3).matrix[0, 0] == pytest.approx(-1.0)
        cycle = np.eye(3, dtype=complex)[[1, 2, 0]]
        assert fermionic_rep(cycle, 3).matrix[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", [F11, F12], ids=lambda s: s.label())
    def test_columns_are_the_determinant_minors_bit_for_bit(self, spec):
        for d in range(1, 6):
            g = haar_unitary(d, 40 + d)
            for N in range(d + 1):
                rep = sector_rep(spec, g, N)
                for col, state in enumerate(rep.basis):
                    want = oracle_column(spec, g, rep.basis, state)
                    assert rep.matrix[:, col].tobytes() == want.tobytes()


class TestBosonicRep:
    def test_defining_sector(self):
        g = haar_unitary(2, 2)
        assert np.allclose(bosonic_rep(g, 1).matrix, g)

    def test_identity_any_sector(self):
        rep = bosonic_rep(np.eye(2, dtype=complex), 3)
        assert np.allclose(rep.matrix, np.eye(len(rep.basis)))

    def test_hom_column(self):
        rep = bosonic_rep(beamsplitter(), 2)
        col = rep.matrix[:, rep.basis.index((1, 1))]
        expected = {
            (2, 0): 1 / np.sqrt(2),
            (1, 1): 0.0,
            (0, 2): -1 / np.sqrt(2),
        }
        for state, want in expected.items():
            assert col[rep.basis.index(state)] == pytest.approx(want, abs=1e-12)

    @given(
        st.sampled_from([B11, B12]),
        st.integers(1, 5),
        st.integers(0, 5),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_match_ryser(self, spec, d, N, seed, data):
        g = haar_unitary(d, seed)
        basis, column = dynamics._sector(spec, g, N)
        state = data.draw(st.sampled_from(basis))
        got = column(state)
        want = oracle_column(spec, g, basis, state)
        assert np.max(np.abs(got - want)) <= RYSER_TOL
        if len(basis) <= 126:  # every 1,1:+ sector drawn here, and the small 1,2:+ ones
            assert np.array_equal(sector_rep(spec, g, N).matrix[:, basis.index(state)], got)

    def test_resource_guard(self, monkeypatch):
        # every path meets the guard, before the sector basis is enumerated:
        # 4^14 states of 1,3:- and 141,569 or more of 1,2:+ (N <= 8, d = 8)
        monkeypatch.setattr(dynamics, "sector_states", lambda *a: pytest.fail("enumerated"))
        F13 = StatisticsSpec(F, (1, 3))
        fermions = AmplitudeVector.basis_state(F13, (1,) * 7 + (0,) * 7)
        bosons = AmplitudeVector.basis_state(B12, (1,) * 8)
        for call in (
            lambda: evolve(haar_unitary(14, 1), fermions),
            lambda: sector_rep(F13, haar_unitary(14, 1), 7),
            lambda: evolve(haar_unitary(8, 3), bosons),
            lambda: sector_rep(B12, haar_unitary(8, 3), 8),
            lambda: fermionic_rep(haar_unitary(17, 1), 3),  # 2^17 states
            lambda: bosonic_rep(haar_unitary(10, 1), 9),  # C(19, 9) = 92,378
        ):
            with pytest.raises(ResourceGuardError) as info:
                call()
            assert (info.value.bound_name, info.value.bound) == ("SECTOR_BASIS_BOUND", 65536)
            assert info.value.asked > 65536

    def test_guard_counts_states_not_particles(self):
        # 9 bosons on 2 modes: 55 states up to excitation 9, within the bound
        out = evolve(beamsplitter(), AmplitudeVector.basis_state(B11, (9, 0)))
        assert len(out.basis) == 10
        assert sum(detection_probabilities(out).values()) == pytest.approx(1.0, abs=1e-12)


class TestSectorRep:
    def test_ordinary_fermions_reduce_to_minors(self):
        g = haar_unitary(3, 3)
        for N in range(4):
            plain = fermionic_rep(g, N)
            induced = sector_rep(F11, g, N)
            # bases coincide up to the subset <-> 0/1-vector identification
            as_subset = [
                tuple(i for i, k in enumerate(state) if k) for state in induced.basis
            ]
            perm = [plain.basis.index(s) for s in as_subset]
            assert np.allclose(induced.matrix, plain.matrix[np.ix_(perm, perm)])

    def test_block_structure_alpha2(self):
        g = haar_unitary(2, 4)
        rep = sector_rep(F12, g, 1)
        # 4 states of excitation 1 on 2 modes; blocks = g entries on equal labels
        assert len(rep.basis) == 4
        plain = fermionic_rep(g, 1).matrix
        for row, s_out in enumerate(rep.basis):
            for col, s_in in enumerate(rep.basis):
                got = rep.matrix[row, col]
                same_label = (s_out.index(max(s_out)) is not None)
                # label of the single particle is n-1 on its mode
                label_out = max(s_out) - 1
                label_in = max(s_in) - 1
                mode_out = next(i for i, n in enumerate(s_out) if n)
                mode_in = next(i for i, n in enumerate(s_in) if n)
                want = plain[mode_out, mode_in] if label_out == label_in else 0.0
                assert got == pytest.approx(want, abs=1e-12)

    def test_hom_sector_is_minus_identity(self):
        rep = sector_rep(F12, beamsplitter(), 2)
        assert rep.matrix.shape == (4, 4)
        assert np.allclose(rep.matrix, -np.eye(4), atol=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fermionic_rep(haar_unitary(2, 0), 3),
            lambda: bosonic_rep(haar_unitary(2, 0), -1),
            lambda: sector_rep(F12, haar_unitary(2, 0), 3),
            lambda: sector_rep(B12, haar_unitary(2, 0), -1),
        ],
        ids=["fermionic_rep", "bosonic_rep", "sector_rep-", "sector_rep+"],
    )
    def test_empty_sector_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_rejects_higher_order(self):
        with pytest.raises(UnsupportedStatisticsError):
            sector_rep(StatisticsSpec(F, (1, 3, 1)), beamsplitter(), 1)

    def test_rejects_higher_order_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(dynamics, "sector_states", lambda *a: pytest.fail("enumerated"))
        for spec in (StatisticsSpec(F, (1, 3, 1)), StatisticsSpec(B, (1, 3, 2))):
            with pytest.raises(UnsupportedStatisticsError):
                sector_rep(spec, beamsplitter(), 1)
        # an invalid label still reports its invalidity first
        with pytest.raises(InvalidStatisticsError):
            sector_rep(StatisticsSpec(F, (1, 1, 1)), beamsplitter(), 1)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_tensor_structure_via_spectrum(self, N):
        # the induced sector is ordinary x identity up to a basis
        # permutation, so each ordinary eigenvalue appears alpha^N times
        alpha, d = 2, 3
        g = haar_unitary(d, 17)
        plain = np.linalg.eigvals(fermionic_rep(g, N).matrix)
        induced = np.linalg.eigvals(sector_rep(F12, g, N).matrix)
        expected = np.repeat(plain, alpha**N)
        assert np.allclose(
            np.sort_complex(np.round(expected, 10)),
            np.sort_complex(np.round(induced, 10)),
        )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("d", [2, 3])
    def test_unitarity(self, spec, d):
        for seed in range(5):
            g = haar_unitary(d, seed)
            for N in range(4):
                if spec.is_fermionic_like and N > d:
                    continue
                m = sector_rep(spec, g, N).matrix
                assert np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) < 1e-10

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    def test_homomorphism(self, spec):
        d = 2
        for seed in range(5):
            g, h = haar_unitary(d, 2 * seed), haar_unitary(d, 2 * seed + 1)
            for N in range(3):
                lhs = sector_rep(spec, g @ h, N).matrix
                rhs = sector_rep(spec, g, N).matrix @ sector_rep(spec, h, N).matrix
                assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    def test_diagonal_trace_matches_character(self, spec):
        rng = np.random.default_rng(11)
        d = 2
        cutoff = d * spec.order if spec.is_fermionic_like else 3
        for _ in range(3):
            phases = rng.uniform(0, 2 * np.pi, size=d)
            g = np.diag(np.exp(1j * phases))
            total = sum(
                np.trace(sector_rep(spec, g, N).matrix) for N in range(cutoff + 1)
            )
            assert total == pytest.approx(
                character_trace(spec, phases, cutoff), abs=1e-9
            )


class TestEvolve:
    def test_identity_keeps_state(self):
        vec = AmplitudeVector.basis_state(B11, (1, 1))
        out = evolve(np.eye(2, dtype=complex), vec)
        probs = detection_probabilities(out)
        assert probs == pytest.approx({(1, 1): 1.0})

    def test_boson_bunching(self):
        out = evolve(beamsplitter(), AmplitudeVector.basis_state(B11, (1, 1)))
        probs = detection_probabilities(out)
        assert probs[(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert probs[(0, 2)] == pytest.approx(0.5, abs=1e-12)
        assert (1, 1) not in probs

    def test_fermion_antibunching_with_sign(self):
        out = evolve(beamsplitter(), AmplitudeVector.basis_state(F11, (1, 1)))
        assert detection_probabilities(out) == pytest.approx({(1, 1): 1.0})
        amp = out.amplitudes[out.basis.index((1, 1))]
        assert amp == pytest.approx(-1.0)

    def test_generalized_fermions_antibunch(self):
        out = evolve(beamsplitter(), AmplitudeVector.basis_state(F12, (1, 1)))
        assert detection_probabilities(out) == pytest.approx({(1, 1): 1.0})

    def test_aux_labels_preserved(self):
        vec = AmplitudeVector.basis_state(F12, (1, 1), aux=(1, 0))
        out = evolve(beamsplitter(), vec)
        # raw state (2,1) picks up the fermionic phase, labels untouched
        assert out.amplitudes[out.basis.index((2, 1))] == pytest.approx(-1.0)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            g = haar_unitary(2, seed)
            for spec, state in [(B12, (3, 0)), (F12, (2, 1)), (B11, (2, 0))]:
                raw = AmplitudeVector(spec, (state,), np.array([1.0 + 0j]))
                out = evolve(g, raw)
                total = sum(detection_probabilities(out).values())
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_computes_only_the_input_column(self, monkeypatch):
        calls = []
        column = dynamics._ordinary_column
        monkeypatch.setattr(
            dynamics, "_ordinary_column", lambda *a: calls.append(a[3]) or column(*a)
        )
        monkeypatch.setattr(dynamics, "permanent", lambda a: pytest.fail("Ryser on a hot path"))
        out = evolve(haar_unitary(4, 0), AmplitudeVector.basis_state(B11, (2, 1, 1, 1)))
        assert len(out.basis) == 56  # the whole N=5 sector on 4 modes
        assert calls == [(2, 1, 1, 1)]  # one column: the dense matrix takes 56

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    def test_matches_sector_matrix_on_superpositions(self, spec):
        rng = np.random.default_rng(29)
        for d in (2, 3):
            for N in (1, 2, 3):
                if spec.is_fermionic_like and N > d:
                    continue
                g = haar_unitary(d, 100 * d + N)
                basis = sector_states(spec, d, N)
                picks = rng.choice(len(basis), min(4, len(basis)), replace=False)
                amps = rng.standard_normal(len(picks)) + 1j * rng.standard_normal(len(picks))
                amps /= np.linalg.norm(amps)
                vec = AmplitudeVector(spec, [basis[k] for k in picks], amps)
                rep = sector_rep(spec, g, N)
                full = np.zeros(len(rep.basis), dtype=complex)
                full[picks] = amps
                out = evolve(g, vec)
                assert out.basis == rep.basis
                assert np.allclose(out.amplitudes, rep.matrix @ full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", [F, B])
    def test_returns_the_whole_sector(self, kind):
        for q in (1, 2, 3):
            spec = StatisticsSpec(kind, (1, q))
            for d in (1, 2, 3, 4):
                g = haar_unitary(d, 10 * d + q)
                for N in range(4):
                    basis = sector_states(spec, d, N)
                    if not basis:
                        continue
                    vec = AmplitudeVector(spec, basis[-1:], [1.0])
                    out = evolve(g, vec)
                    assert out.basis == tuple(basis)
                    assert out.sector == vec.sector == N
                    AmplitudeVector(spec, out.basis, out.amplitudes)  # passes every check

    def test_does_not_rederive_the_output_sector(self, monkeypatch):
        calls = []
        excitation = dynamics.excitation_number
        monkeypatch.setattr(
            dynamics, "excitation_number", lambda *a: calls.append(1) or excitation(*a)
        )
        vec = AmplitudeVector.basis_state(F12, (1, 1, 0, 1))
        calls.clear()
        out = evolve(haar_unitary(4, 3), vec)
        assert len(out.basis) > 1
        assert len(calls) <= 1

    def test_mode_count_mismatch_rejected(self):
        vec = AmplitudeVector.basis_state(B11, (1, 1))
        for d in (1, 3):
            with pytest.raises(ValueError, match="modes"):
                evolve(haar_unitary(d, 0), vec)

    def test_mixed_sector_rejected(self):
        with pytest.raises(ValueError):
            AmplitudeVector(F11, ((0, 1), (1, 1)), np.array([1.0, 0.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            AmplitudeVector(F11, ((1, 1),), np.array([0.5]))

    @pytest.mark.parametrize("amp", [np.nan, complex(np.nan, 0), np.inf])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match="not normalized"):
            AmplitudeVector(F11, ((1, 1),), np.array([amp]))


def basis_sum_trace(spec, phases, cutoff):
    """Oracle: the trace summed state by state over the (truncated) basis."""
    basis = enumerate_basis(spec, len(phases), None if spec.is_fermionic_like else cutoff)
    total = sum(
        np.exp(1j * sum(t * excitation_of(spec, n) for t, n in zip(phases, state)))
        for state in basis
    )
    return complex(total), len(basis)


ORDER_2_3 = [
    StatisticsSpec(F, (1, 2, 1)),
    StatisticsSpec(F, (1, 3, 2)),
    StatisticsSpec(F, (1, 3, 3, 1)),
    StatisticsSpec(F, (1, 6, 11, 6)),
    StatisticsSpec(B, (1, 2, 1)),
    StatisticsSpec(B, (1, 3, 2)),
    StatisticsSpec(B, (1, 3, 3, 1)),
    StatisticsSpec(B, (1, 6, 11, 6)),
]


class TestCharacterTrace:
    def test_single_mode_fermions(self):
        theta = 0.83
        got = character_trace(F11, [theta])
        assert got == pytest.approx(1 + np.exp(1j * theta))

    def test_trace_of_identity_is_dimension(self):
        assert character_trace(F12, [0.0, 0.0]) == pytest.approx(9.0)

    @pytest.mark.parametrize("spec", [F12, B12])
    def test_negative_cutoff_rejected(self, spec):
        with pytest.raises(ValueError, match="excitation_cutoff must be >= 0"):
            character_trace(spec, [0.1, 0.2], excitation_cutoff=-1)

    def test_truncated_geometric(self):
        theta = 1.3
        got = character_trace(B12, [theta], excitation_cutoff=2)
        want = 1 + 2 * np.exp(1j * theta) + 4 * np.exp(2j * theta)
        assert got == pytest.approx(want)

    def test_factorizes_over_modes(self):
        rng = np.random.default_rng(3)
        phases = rng.uniform(0, 2 * np.pi, size=3)
        total = character_trace(F12, phases)
        single = np.prod([character_trace(F12, [t]) for t in phases])
        assert total == pytest.approx(single)

    @pytest.mark.parametrize("spec", ORDER_2_3, ids=lambda s: s.label())
    def test_matches_basis_sum(self, spec):
        # bosonic cutoffs bound the total excitation across modes, which a
        # product of separately truncated single-mode series would overshoot
        rng = np.random.default_rng(17)
        for d in range(1, 5):
            for cutoff in [None] if spec.is_fermionic_like else range(6):
                if (spec.is_fermionic_like and sum(spec.q) ** d > 5000) or (
                    spec.q == (1, 6, 11, 6) and d > 2
                ):
                    continue
                phases = rng.uniform(0, 2 * np.pi, size=d)
                want, states = basis_sum_trace(spec, phases, cutoff)
                got = character_trace(spec, phases, cutoff)
                assert abs(got - want) <= 1e-9 * max(abs(want), states)
