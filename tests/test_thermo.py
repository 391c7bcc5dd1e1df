import math

import pytest

from fockstat.classify import Kind, StatisticsSpec
from fockstat.errors import DivergenceError, InvalidStatisticsError, ResourceGuardError
from fockstat.fock import enumerate_basis, excitation_number, state_energy
from fockstat.thermo import (
    SOLVE_TOL,
    EnsembleParams,
    SweepRow,
    canonical_logZ,
    grand_logZ,
    mean_occupation,
    solve_mu,
    sweep,
    thermo_report,
)

F, B = Kind.FERMIONIC_LIKE, Kind.BOSONIC_LIKE
F11 = StatisticsSpec(F, (1, 1))
F12 = StatisticsSpec(F, (1, 2))
B11 = StatisticsSpec(B, (1, 1))
B12 = StatisticsSpec(B, (1, 2))
B13 = StatisticsSpec(B, (1, 3))


class TestPartitionFunctions:
    def test_single_fermionic_mode(self):
        for beta in (0.5, 1.0, 10.0):
            assert canonical_logZ(F11, [0.0], beta) == pytest.approx(math.log(2))

    def test_product_over_modes(self):
        assert canonical_logZ(F12, [0.0, 0.0], 1.0) == pytest.approx(math.log(9))

    def test_bose_closed_form(self):
        eps, beta = 1.3, 0.7
        want = -math.log(1 - math.exp(-beta * eps))
        assert canonical_logZ(B11, [eps], beta) == pytest.approx(want, rel=1e-14)

    def test_grand_at_fermi_level(self):
        assert grand_logZ(F11, [0.4], EnsembleParams(2.0, 0.4)) == pytest.approx(
            math.log(2)
        )

    def test_grand_geometric_point(self):
        # y = 1/4 makes the order-one bosonic character equal 2
        eps = 2 * math.log(2)
        got = grand_logZ(B12, [eps], EnsembleParams(1.0, 0.0))
        assert got == pytest.approx(math.log(2), rel=1e-14)

    def test_divergence_is_typed_error_with_mode(self):
        with pytest.raises(DivergenceError) as exc:
            grand_logZ(B12, [5.0, math.log(2)], EnsembleParams(1.0, 0.0))
        assert exc.value.mode == 1
        assert exc.value.code == "divergence"

    def test_canonical_divergence_at_zero_energy(self):
        with pytest.raises(DivergenceError):
            canonical_logZ(B11, [0.0], 1.0)

    def test_invalid_label_rejected(self):
        with pytest.raises(InvalidStatisticsError):
            canonical_logZ(StatisticsSpec(F, (1, 1, 1)), [1.0], 1.0)

    def test_matches_explicit_state_sum(self):
        # exact small systems: ties the grand sum to the Fock structure
        for spec in (F11, F12, StatisticsSpec(F, (1, 3, 1))):
            for d, beta, mu in [(1, 1.0, 0.2), (2, 0.7, -0.3), (2, 2.5, 0.5)]:
                energies = [0.3 * (k + 1) for k in range(d)]
                explicit = math.log(
                    sum(
                        math.exp(
                            -beta
                            * (
                                state_energy(spec, s, energies)
                                - mu * excitation_number(spec, s)
                            )
                        )
                        for s in enumerate_basis(spec, d)
                    )
                )
                got = grand_logZ(spec, energies, EnsembleParams(beta, mu))
                assert got == pytest.approx(explicit, abs=1e-10)


class TestMeanOccupation:
    def test_fermi_level_half(self):
        assert mean_occupation(F11, 0.7, EnsembleParams(1.0, 0.7)) == pytest.approx(0.5)

    def test_q2_fermi_level(self):
        assert mean_occupation(F12, 0.7, EnsembleParams(1.0, 0.7)) == pytest.approx(
            2 / 3
        )

    def test_bose_einstein_point(self):
        got = mean_occupation(B11, math.log(2), EnsembleParams(1.0, 0.0))
        assert got == pytest.approx(1.0, rel=1e-14)

    def test_fermi_dirac_recovery(self):
        for x in (-3.0, -0.5, 0.0, 0.4, 2.0, 30.0):
            got = mean_occupation(F11, x, EnsembleParams(1.0, 0.0))
            assert got == pytest.approx(1 / (math.exp(x) + 1), rel=1e-14)

    def test_bose_einstein_recovery(self):
        for x in (0.1, 0.5, 2.0, 10.0):
            got = mean_occupation(B11, x, EnsembleParams(1.0, 0.0))
            assert got == pytest.approx(1 / (math.exp(x) - 1), rel=1e-14)

    def test_classical_limit_degeneracy_factor(self):
        got = mean_occupation(B13, 10.0, EnsembleParams(1.0, 0.0))
        assert got == pytest.approx(3 * math.exp(-10), rel=0.01)

    def test_higher_order_log_derivative(self):
        # order two: n = y Q'(y)/Q(y) against a direct evaluation
        spec = StatisticsSpec(F, (1, 3, 1))
        beta, mu, eps = 1.3, 0.2, 0.9
        y = math.exp(-beta * (eps - mu))
        want = (3 * y + 2 * y * y) / (1 + 3 * y + y * y)
        got = mean_occupation(spec, eps, EnsembleParams(beta, mu))
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_temperature_step(self):
        beta = 1e3
        for q in (1, 2, 3):
            spec = StatisticsSpec(F, (1, q))
            for eps in (-2.0, -0.05, 0.05, 1.0):
                n = mean_occupation(spec, eps, EnsembleParams(beta, 0.0))
                step = 1.0 if eps < 0 else 0.0
                assert abs(n - step) < 1e-6


class TestSolveMu:
    def test_no_convergence_raises_a_guard_error_with_the_residual(self):
        # adjacent floats of mu straddle the target, so bisection cannot reach SOLVE_TOL
        with pytest.raises(ResourceGuardError, match=r"SOLVE_MAX_ITER=200 .*\|N - target\| = [0-9.e+-]+ "):
            solve_mu(B11, [1.0, 2.0], 1.0, 1e6)

    def test_particle_hole_symmetry(self):
        assert solve_mu(F11, [0.0, 1.0], 1.0, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_order_one_shift(self):
        got = solve_mu(F12, [0.0, 1.0], 1.0, 1.0)
        assert got == pytest.approx(0.5 - math.log(2), abs=1e-9)

    def test_chemical_potential_shift_property(self):
        spectra = [
            [0.0, 0.7, 1.1],
            [0.2, 0.4, 2.0, 3.1],
            [-1.0, 0.0, 1.0],
            [0.5, 0.5, 0.9],
            [0.0, 2.5],
        ]
        for energies in spectra:
            for beta in (0.5, 1.0, 5.0):
                target = 0.6 * len(energies) * 0.5
                mu1 = solve_mu(F11, energies, beta, target)
                for q in (2, 3):
                    muq = solve_mu(StatisticsSpec(F, (1, q)), energies, beta, target)
                    assert muq - mu1 == pytest.approx(-math.log(q) / beta, abs=1e-9)

    def test_bosonic_stays_below_band(self):
        mu = solve_mu(B11, [1.0, 2.0], 20.0, 0.05)
        assert mu < 1.0

    def test_bosonic_shift_property(self):
        energies = [1.0, 1.5]
        for beta in (1.0, 3.0):
            mu1 = solve_mu(B11, energies, beta, 0.4)
            mu2 = solve_mu(B12, energies, beta, 0.4)
            assert mu2 - mu1 == pytest.approx(-math.log(2) / beta, abs=1e-9)

    def test_achieves_target_within_tolerance(self):
        energies = [0.0, 0.3, 0.9]
        mu = solve_mu(F12, energies, 2.0, 1.7)
        total = sum(
            mean_occupation(F12, e, EnsembleParams(2.0, mu)) for e in energies
        )
        assert abs(total - 1.7) <= 1e-10

    def test_saturating_target_is_solvable(self):
        mu = solve_mu(F12, [0.0, 1.0, 2.0], 1e3, 3.0)
        total = sum(
            mean_occupation(F12, e, EnsembleParams(1e3, mu)) for e in [0.0, 1.0, 2.0]
        )
        assert abs(total - 3.0) <= 1e-10

    @pytest.mark.parametrize("q", [(1, 2, 1), (1, 3, 3, 1), (1, 4, 4)])
    @pytest.mark.parametrize("modes", [3, 200])
    def test_repeated_root_labels(self, q, modes):
        # float Q+(y) cancels to 0 next to a repeated root, below the wall
        spec = StatisticsSpec(B, q)
        energies = [2.0 * i / modes for i in range(modes)]
        target = 0.25 * modes
        mu = solve_mu(spec, energies, 1.0, target)
        total = sum(mean_occupation(spec, e, EnsembleParams(1.0, mu)) for e in energies)
        assert abs(total - target) <= SOLVE_TOL

    def test_repeated_root_next_to_the_wall(self):
        # (1-y)^2 is about 1e-18 here: float Horner cancels to 0 or below,
        # while 1 - y itself is exact in floats
        y = math.exp(-1e-9)
        rep = thermo_report(StatisticsSpec(B, (1, 2, 1)), [0.0], EnsembleParams(1.0, -1e-9))
        assert rep.occupations[0] == pytest.approx(2 * y / (1 - y), rel=1e-12)
        assert rep.logZ == pytest.approx(-2 * math.log(1 - y), rel=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            solve_mu(F11, [0.0, 1.0], 1.0, 2.5)
        with pytest.raises(ValueError):
            solve_mu(F11, [0.0], 1.0, -0.5)


class TestThermoReport:
    def test_mean_N_is_sum_of_occupations(self):
        rep = thermo_report(F12, [0.0, 0.5, 1.0], EnsembleParams(1.2, 0.3))
        assert rep.mean_N == pytest.approx(sum(rep.occupations), abs=1e-12)

    def test_entropy_nonnegative(self):
        for spec, params in [
            (F11, EnsembleParams(1.0, 0.0)),
            (F12, EnsembleParams(5.0, 0.5)),
            (B12, EnsembleParams(1.0, -3.0)),
        ]:
            rep = thermo_report(spec, [0.0, 1.0], params)
            assert rep.entropy >= -1e-9

    def test_ordinary_entropy_vanishes_cold(self):
        mu = solve_mu(F11, [0.0, 1.0, 2.0], 1e3, 2.0)
        rep = thermo_report(F11, [0.0, 1.0, 2.0], EnsembleParams(1e3, mu))
        assert abs(rep.entropy) < 1e-6

    def test_residual_entropy(self):
        energies = [0.0, 1.0, 2.0]
        mu = solve_mu(F12, energies, 1e3, 3.0)
        rep = thermo_report(F12, energies, EnsembleParams(1e3, mu))
        assert rep.entropy == pytest.approx(3 * math.log(2), abs=1e-4)

    def test_entropy_difference_is_N_log_q(self):
        energies = [0.0, 0.8, 1.7]
        N = 1.4
        for beta in (0.5, 1.0, 2.0, 8.0):
            mu1 = solve_mu(F11, energies, beta, N)
            s1 = thermo_report(F11, energies, EnsembleParams(beta, mu1)).entropy
            for q in (2, 3):
                spec = StatisticsSpec(F, (1, q))
                muq = solve_mu(spec, energies, beta, N)
                sq = thermo_report(spec, energies, EnsembleParams(beta, muq)).entropy
                assert sq - s1 == pytest.approx(N * math.log(q), abs=1e-6)

    def test_other_observables_invariant_under_q(self):
        energies = [0.0, 0.8, 1.7]
        N, beta = 1.4, 1.3
        mu1 = solve_mu(F11, energies, beta, N)
        e1 = thermo_report(F11, energies, EnsembleParams(beta, mu1)).mean_E
        for q in (2, 4):
            spec = StatisticsSpec(F, (1, q))
            muq = solve_mu(spec, energies, beta, N)
            eq = thermo_report(spec, energies, EnsembleParams(beta, muq)).mean_E
            assert eq == pytest.approx(e1, abs=1e-8)

    def test_mean_E_matches_finite_difference(self):
        # cross-check against -d(logZ)/d(beta) at fixed beta*mu
        for spec in (F12, StatisticsSpec(F, (1, 3, 1)), B12):
            beta, mu = 1.1, -0.8
            energies = [0.4, 1.0]
            rep = thermo_report(spec, energies, EnsembleParams(beta, mu))
            c = beta * mu
            h = 1e-6 * beta
            plus = grand_logZ(spec, energies, EnsembleParams(beta + h, c / (beta + h)))
            minus = grand_logZ(spec, energies, EnsembleParams(beta - h, c / (beta - h)))
            fd = -(plus - minus) / (2 * h)
            assert rep.mean_E == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestSweep:
    def test_flags_and_schema(self):
        rows = sweep(B12, (0.0, 2.0, 5), EnsembleParams(1.0, 0.0))
        assert [r.flag for r in rows] == ["divergent", "divergent", "ok", "ok", "ok"]
        assert all(isinstance(r, SweepRow) for r in rows)
        assert math.isnan(rows[0].n)

    def test_fermi_crossing_at_mu(self):
        mu = 0.75
        rows = sweep(F11, (mu, mu, 1), EnsembleParams(2.0, mu))
        assert rows[0].n == pytest.approx(0.5)

    def test_q2_crossing_shifted(self):
        beta, mu = 2.0, 0.4
        eps_half = mu + math.log(2) / beta
        rows = sweep(F12, (eps_half, eps_half, 1), EnsembleParams(beta, mu))
        assert rows[0].n == pytest.approx(0.5, rel=1e-12)

    def test_bosonic_divergence_edge(self):
        beta, mu = 1.0, 0.0
        wall = mu + math.log(2) / beta
        rows = sweep(B12, (wall, wall, 1), EnsembleParams(beta, mu))
        assert rows[0].flag == "divergent"

    def test_grid_is_inclusive(self):
        rows = sweep(F11, (0.0, 1.0, 3), EnsembleParams(1.0, 0.0))
        assert [r.epsilon for r in rows] == [0.0, 0.5, 1.0]


class TestEnsembleParams:
    def test_beta_positive(self):
        with pytest.raises(ValueError):
            EnsembleParams(0.0, 0.0)
        with pytest.raises(ValueError):
            EnsembleParams(-1.0, 0.0)
