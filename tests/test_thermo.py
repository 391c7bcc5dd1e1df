import json
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockstat import thermo
from fockstat.classify import Kind, StatisticsSpec, _poly_eval, build_polynomial, least_positive_root
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

    def test_modes_fail_in_mode_order(self):
        # eps = 1e-16 sits a hair below the wall and converges, so the first
        # divergent mode is the one named, whichever side of it that mode is
        with pytest.raises(DivergenceError) as exc:
            grand_logZ(B11, [1e-16, -1.0], EnsembleParams(1.0, 0.0))
        assert exc.value.mode == 1
        with pytest.raises(DivergenceError) as exc:
            grand_logZ(B11, [-1.0, 1e-16], EnsembleParams(1.0, 0.0))
        assert exc.value.mode == 0

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
        with pytest.raises(ResourceGuardError) as info:
            solve_mu(B11, [1.0, 2.0], 1.0, 1e6)
        assert (info.value.bound_name, info.value.bound, info.value.asked) == (
            "SOLVE_MAX_ITER", 200, 201
        )
        assert re.search(r"\|N - target\| = [0-9.e+-]+ ", info.value.subject)

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

    def test_bosonic_bracket_evaluations(self, monkeypatch):
        # only divergence moves the upper bracket off the wall: one finite
        # evaluation settles it, reaching or not
        calls = []
        total = thermo._total_occupation
        monkeypatch.setattr(thermo, "_total_occupation", lambda *a: calls.append(a) or total(*a))
        energies = [2.0 * i / 200 for i in range(200)]
        solve_mu(B11, energies, 1.0, 50.0)
        assert len(calls) == 41
        calls.clear()
        with pytest.raises(ValueError, match="unreachable below divergence"):
            solve_mu(B11, [1.0, 2.0], 1.0, 1e12)
        assert len(calls) == 1

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            solve_mu(F11, [0.0, 1.0], 1.0, 2.5)
        with pytest.raises(ValueError):
            solve_mu(F11, [0.0], 1.0, -0.5)


class TestThermoReport:
    def test_one_evaluation_per_mode(self, monkeypatch):
        # Q+, |Q+| for the cancellation test and Q+', each once over all modes
        calls = []
        poly_eval = thermo._poly_eval
        monkeypatch.setattr(thermo, "_poly_eval", lambda *a: calls.append(a) or poly_eval(*a))
        for energies in ([1.0, 1.5, 2.0, 3.0, 5.0], [1.0 + 0.02 * i for i in range(200)]):
            calls.clear()
            thermo_report(StatisticsSpec(B, (1, 3, 2)), energies, EnsembleParams(1.0, 0.0))
            assert len(calls) == 3

    @pytest.mark.parametrize(
        "q, kind, energies, mu",
        [
            ((1, 1), F, [0.5, 1.0, 2.0, 800.0], 0.0),
            ((1, 2), F, [0.5, 1.0, 2.0, 800.0], 0.3),
            ((2, 3), F, [0.5, 1.0, 2.0, 800.0], 0.0),
            ((1, 3, 2), F, [0.5, 1.0, 2.0, 800.0], -0.4),
            ((1, 2, 1), F, [0.5, 1.0, 2.0, 800.0], 0.0),
            ((1, 3, 3, 1), F, [0.5, 1.0, 2.0, 800.0], 0.0),
            ((1, 1), B, [0.75, 1.0, 2.0, 800.0], 0.0),
            ((1, 2), B, [0.75, 1.0, 2.0, 800.0], 0.0),
            ((1, 3, 2), B, [0.75, 1.0, 2.0, 800.0], 0.0),
            ((1, 4, 4), B, [0.75, 1.0, 2.0, 800.0], 0.0),
            ((1, 3, 3, 1), B, [0.75, 1.0, 2.0, 800.0], 0.0),
            ((1, 2, 1), B, [0.0, 1e-9, 800.0], -1e-9),  # Q+ in Fractions next to the wall
        ],
    )
    def test_report_matches_its_parts_exactly(self, q, kind, energies, mu):
        spec, params = StatisticsSpec(kind, q), EnsembleParams(1.0, mu)
        rep = thermo_report(spec, energies, params)
        assert rep.logZ == grand_logZ(spec, energies, params)
        assert rep.occupations == tuple(mean_occupation(spec, e, params) for e in energies)

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


def _mode_reference(spec, t):
    """The scalar libm evaluator that thermo._modes vectorises for bosonic-like
    labels, one mode at a time: log chi_1 and the mean excitation at y = e^t.
    Fermionic-like labels are checked against _assert_near_exact instead."""
    coeffs = build_polynomial(spec)
    y, exact = math.exp(t), False
    if abs(_poly_eval(coeffs, y)) <= 1e-12 * _poly_eval([abs(c) for c in coeffs], y):
        exact, y = True, Fraction(y)
    value = _poly_eval(coeffs, y)
    log_chi = -math.log(value)
    n = float(-(y * _poly_eval([s * c for s, c in enumerate(coeffs)][1:], y)) / value)
    if spec.order == 1 and spec.unique_vacuum and not exact:
        q, x = spec.q[1], -t
        if x > 700.0:
            return log_chi, q * math.exp(-x)
        return log_chi, 1.0 / (math.exp(x) / q - 1.0)
    return log_chi, n


def _assert_near_exact(spec, ts, log_chi, n):
    """log chi_1 = log sum_s q_s y^s and n = y chi_1'/chi_1 at y = e^t, for
    every t of ts, against mpmath at 50 digits: the README's float tolerance
    of fermionic-like thermodynamics.  Rounding s t + log q_s moves each
    log-sum-exp exponent by about 2^-53 s |t|, which n carries as a relative
    error (n ~ (q_1/q_0) e^t as t -> -inf), so its bound grows with |t|."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for t, got_log_chi, got_n in zip(ts, log_chi.tolist(), n.tolist()):
        y = mpmath.exp(mpmath.mpf(t))
        chi = sum(c * y**s for s, c in enumerate(spec.q))
        want_log_chi = float(mpmath.log(chi))
        want_n = float(sum(s * c * y**s for s, c in enumerate(spec.q)) / chi)
        assert abs(got_log_chi - want_log_chi) <= 1e-13 * max(1.0, abs(want_log_chi)), (t, got_log_chi)
        tol = 1e-13 + 2.0**-51 * spec.order * abs(t)
        assert abs(got_n - want_n) <= tol * max(abs(want_n), 1e-300), (t, got_n, want_n)


class TestModes:
    @pytest.mark.parametrize(
        "kind, q",
        [
            (F, (1, 1)), (F, (1, 3)), (F, (2, 3)), (F, (1, 2, 1)), (F, (1, 3, 2)),
            (F, (1, 3, 3, 1)), (F, (1, 4, 6, 4, 1)),
            (B, (1, 1)), (B, (1, 3)), (B, (1, 2, 1)), (B, (1, 4, 4)), (B, (1, 3, 2)),
            (B, (1, 3, 3, 1)), (B, (1, 6, 11, 6)), (B, (1, 4, 6, 4, 1)),
        ],
    )
    def test_bit_identical_to_the_scalar_evaluator(self, kind, q):
        # bosonic-like: == the scalar libm evaluator; fermionic-like (a NumPy
        # log-sum-exp): within the README's tolerance of the exact values
        spec = StatisticsSpec(kind, q)
        rng = random.Random(7)
        ts = [-800.0, -750.0, -701.0, -700.0, -699.5, -40.0, -3.0, -1.0, -0.25]
        ts += [rng.uniform(-12.0, -1e-3) for _ in range(40)]
        if spec.is_fermionic_like:
            ts += [0.0, 0.5, 3.0, 40.0, 800.0] + [rng.uniform(-5.0, 30.0) for _ in range(20)]
        else:
            # just below the wall, where float Q+ cancels next to a repeated root
            wall = math.log(least_positive_root(build_polynomial(spec)))
            ts += [wall - d for d in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)]
            ts = [t for t in ts if not thermo._diverges(spec, t)]
        log_chi, n = thermo._modes(spec, np.array(ts))
        if spec.is_fermionic_like:
            _assert_near_exact(spec, ts, log_chi, n)
            return
        want = [_mode_reference(spec, t) for t in ts]
        assert log_chi.tolist() == [w[0] for w in want]
        assert n.tolist() == [w[1] for w in want]

    @given(
        st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=6),
        st.integers(0, 5),
        st.lists(
            st.one_of(st.floats(-800.0, 800.0), st.sampled_from([-800.0, -700.0, 0.0, 700.0, 800.0])),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fermionic_like_labels_from_negative_rational_roots(self, roots, repeat, ts):
        # prod_i (b_i + a_i y): real roots -b_i/a_i, the first `repeat` ones doubled
        q = [1]
        for a, b in (roots + roots[:repeat])[:6]:
            q = [b * lo + a * hi for lo, hi in zip(q + [0], [0] + q)]
        spec = StatisticsSpec(F, q)
        _assert_near_exact(spec, ts, *thermo._modes(spec, np.array(ts)))

    def test_fermionic_like_labels_skip_the_libm_map(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("elementwise libm map")

        monkeypatch.setattr(thermo, "_libm", refuse)
        spec, ts = StatisticsSpec(F, (1, 3, 1)), [-700.0, -3.0, 0.0, 0.5, 40.0]
        _assert_near_exact(spec, ts, *thermo._modes(spec, np.array(ts)))

    def test_repeated_roots_reach_the_fraction_branch(self):
        for q in ((1, 2, 1), (1, 4, 4), (1, 3, 3, 1)):
            spec = StatisticsSpec(B, q)
            t = math.log(least_positive_root(build_polynomial(spec))) - 1e-9
            y = math.exp(t)
            coeffs = build_polynomial(spec)
            assert abs(_poly_eval(coeffs, y)) <= 1e-12 * _poly_eval([abs(c) for c in coeffs], y)
            assert thermo._modes(spec, np.array([t]))[1].tolist() == [_mode_reference(spec, t)[1]]


    def test_order_one_next_to_the_bosonic_wall(self):
        # e^x rounds to q here while y = e^-x stays below the wall 1/q: the
        # closed form would divide by zero (or cancel), the exact branch gives
        # the finite occupation y/(1/q - y)
        params = EnsembleParams(1.0, 0.0)
        for eps in (5.6e-17, 8e-17, 1e-16):
            n = mean_occupation(B11, eps, params)
            assert math.isfinite(n) and n > 1e15
        assert mean_occupation(B11, 1e-16, params) == 2.0**53 - 1
        for spec in (B12, B13):
            wall = -math.log(least_positive_root(build_polynomial(spec)))
            for eps in (wall, math.nextafter(wall, math.inf), wall * (1 + 1e-15), wall + 1e-12):
                if thermo._diverges(spec, -eps):
                    continue
                y = Fraction(math.exp(-eps))
                want = float(y / (Fraction(1, spec.q[1]) - y))
                assert mean_occupation(spec, eps, params) == want
                assert thermo_report(spec, [eps, 5.0], params).occupations[0] == want

    def test_float_overflow_stays_silent(self):
        # beta (eps - mu) overflowing to -inf leaves the mode at its limits,
        # n = 0 and chi_1 = q_0, and the report stays finite; 0 * inf and
        # q e^-x past 1e308 pass without a warning, as Python floats do
        cases = [
            (F11, [1e308, 1.0], 10.0),
            (StatisticsSpec(F, (1, 2, 1)), [1e308, 1.0], 10.0),
            (StatisticsSpec(F, (1, 3, 1)), [1e308, 1.0], 10.0),
            (StatisticsSpec(F, (2, 3)), [1e308, 1.0], 10.0),
            (StatisticsSpec(F, (1, 3, 3, 1)), [1e308, 1.0], 10.0),
            (StatisticsSpec(F, (1, 20000)), [700.0, 1.0], 1.0),
            (B11, [1e308, 1.0], 10.0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec, energies, beta in cases:
                rep = thermo_report(spec, energies, EnsembleParams(beta, 0.0))
                json.dumps(rep.__dict__, allow_nan=False)
                ts = [-beta * e for e in energies]
                if not spec.is_fermionic_like:
                    want = [_mode_reference(spec, t) for t in ts]
                    assert repr(rep.logZ) == repr(sum(w[0] for w in want))
                    assert repr(rep.occupations) == repr(tuple(w[1] for w in want))
                    continue
                log_chi, n = thermo._modes(spec, np.array(ts))
                assert rep.occupations == tuple(n.tolist())
                if ts[0] == -math.inf:
                    assert (log_chi[0], n[0]) == (math.log(spec.q[0]), 0.0)
                    ts, log_chi, n = ts[1:], log_chi[1:], n[1:]
                _assert_near_exact(spec, ts, log_chi, n)
            rows = sweep(F11, (-1e308, 1e308, 5), EnsembleParams(1e308, 0.0))
            assert [r.flag for r in rows] == ["ok"] * 5


class TestSweep:
    def test_bisects_for_the_wall(self, monkeypatch):
        calls = []
        diverges = thermo._diverges
        monkeypatch.setattr(thermo, "_diverges", lambda *a: calls.append(a) or diverges(*a))
        rows = sweep(B11, (-1.5, 4.0, 960), EnsembleParams(1.0, 0.0))
        assert 0 < [r.flag for r in rows].count("divergent") < 960
        assert len(calls) <= 11

    def test_flags_and_values_match_row_by_row(self):
        rng = random.Random(2024)
        grids = [(0.0, 2 * math.log(2), 3), (-1.0, 1.0, 3), (1.0, -1.0, 5), (0.3, 0.3, 1)]
        grids += [(0.0, -2.0, 1), (math.log(2), math.log(2), 4)]
        grids += [(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.randint(1, 40)) for _ in range(20)]
        for spec in (B11, B13, StatisticsSpec(B, (1, 2, 1)), StatisticsSpec(B, (1, 3, 2)), F12):
            for beta, mu in ((1.0, 0.0), (2.5, -0.4)):
                params = EnsembleParams(beta, mu)
                for grid in grids:
                    rows = sweep(spec, grid, params)
                    for r in rows:
                        divergent = thermo._diverges(spec, -beta * (r.epsilon - mu))
                        assert r.flag == ("divergent" if divergent else "ok")
                        if divergent:
                            assert math.isnan(r.n)
                        else:
                            assert r.n == mean_occupation(spec, r.epsilon, params)
        # the wall falls on a grid point: that row diverges (t = -0.0)
        flags = [r.flag for r in sweep(B11, (-1.0, 1.0, 3), EnsembleParams(1.0, 0.0))]
        assert flags == ["ok", "divergent", "divergent"][::-1]

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
