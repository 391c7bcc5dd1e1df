"""Canonical and grand-canonical thermodynamics of non-interacting gases.

Units: k_B = 1 throughout; temperatures are energies (beta = 1/T).  The
single-mode partition function is the character evaluated at y = exp(-beta
(eps - mu)); occupations follow from its logarithmic derivative, which for
order-one labels reduces to the familiar 1/((1/q) e^{beta(eps-mu)} +- 1),
used on every mode but those where float Q+ cancels next to the bosonic
wall (the exact Fraction branch evaluates those).  Bosonic-like divergence
(the condensation wall at the smallest positive root of the defining
polynomial) is detected exactly and raised as a typed error, never a NaN.
Fermionic-like values come from a NumPy log-sum-exp (README: float tolerance
of thermodynamics); bosonic-like ones and order-one occupations from libm.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .classify import (
    StatisticsSpec,
    _poly_eval,
    build_polynomial,
    count_real_roots_upto,
    least_positive_root,
    require_valid,
)
from .errors import DivergenceError, ResourceGuardError

__all__ = [
    "EnsembleParams",
    "ThermoReport",
    "SweepRow",
    "canonical_logZ",
    "grand_logZ",
    "mean_occupation",
    "solve_mu",
    "thermo_report",
    "sweep",
]

SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = 200

# NumPy arithmetic with Python float semantics: overflow to inf and nan from
# inf pass without a warning (no division in this module meets a zero divisor)
_float_semantics = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class EnsembleParams:
    """Inverse temperature and chemical potential."""

    beta: float
    mu: float = 0.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class ThermoReport:
    logZ: float
    mean_N: float
    mean_E: float
    entropy: float
    occupations: tuple[float, ...]


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    n: float
    flag: str  # "ok" | "divergent"


def _diverges(spec: StatisticsSpec, t: float) -> bool:
    """Does the bosonic single-mode series diverge at y = e^t?

    The series converges exactly for y below the smallest positive root of
    the defining polynomial.  All roots have product 1/q_deg <= 1, so the
    smallest is <= 1 and any t >= 0 diverges; for t < 0 the root crossing
    is decided exactly over rationals.
    """
    if spec.is_fermionic_like:
        return False
    if t >= 0.0:
        return True
    return count_real_roots_upto(build_polynomial(spec), Fraction(math.exp(t))) >= 1


@_float_semantics
def _exponents(
    spec: StatisticsSpec, energies: Sequence[float], beta: float, mu: float
) -> np.ndarray:
    """t = -beta (eps_k - mu) for every mode; DivergenceError(mode=k) at the
    first divergent mode."""
    t = -beta * (np.asarray(energies, dtype=float) - mu)
    if not spec.is_fermionic_like:
        for k, t_k in enumerate(t.tolist()):
            if _diverges(spec, t_k):
                raise DivergenceError(mode=k)
    return t


def _libm(f, a: np.ndarray) -> np.ndarray:
    """math.exp or math.log elementwise, with libm's rounding, which NumPy's
    exp and log miss in the last bit on some machines: a bosonic y = e^t must
    be the float that _diverges certified, and the closed form libm's."""
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


@_float_semantics
def _modes(spec: StatisticsSpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log chi_1(y) and the mean excitation y chi_1'(y)/chi_1(y) at y = e^t,
    one entry per mode, in the convergent region: one NumPy log-sum-exp over
    the polynomial terms if fermionic-like (t = -inf gives n = 0, chi_1 = q_0;
    t = +inf raises ValueError); if bosonic-like, chi_1 = 1/Q+ at libm's y, with
    Q+(y) in Fractions on the exact modes, where float Q+(y) cancels to (or
    past) 0 next to the wall.  Order one with a unique vacuum then takes the
    closed-form occupation (libm) on every other mode, where e^x/q - 1 is far
    from 0.  Bosonic-like entries are bit-identical to a scalar libm evaluation."""
    exact = np.zeros(t.shape, bool)
    if spec.is_fermionic_like:
        terms = np.array([s * t + math.log(c) for s, c in enumerate(spec.q)])
        terms[0] = math.log(spec.q[0])  # no t: at t = -inf, 0 * t is nan
        m = terms.max(axis=0)
        if m.size and m[m.argmax()] == math.inf:  # a t = +inf; argmax costs a third of max
            raise ValueError("beta (eps - mu) overflows to -inf on a fermionic-like mode")
        weights = np.exp(terms - m)
        total = weights.sum(axis=0)
        log_chi = m + np.log(total)
        n = np.arange(spec.order + 1) @ weights / total
    else:
        coeffs = build_polynomial(spec)
        slope = [s * c for s, c in enumerate(coeffs)][1:]
        y = _libm(math.exp, t)
        value = _poly_eval(coeffs, y)
        exact = np.abs(value) <= 1e-12 * _poly_eval([abs(c) for c in coeffs], y)
        value[exact] = 1.0  # placeholder: those modes are redone in Fractions
        log_chi = -_libm(math.log, value)
        n = -(y * _poly_eval(slope, y)) / value
        for k in np.flatnonzero(exact).tolist():
            y_k = Fraction(y[k].item())
            value_k = _poly_eval(coeffs, y_k)
            log_chi[k] = -math.log(value_k)
            n[k] = float(-(y_k * _poly_eval(slope, y_k)) / value_k)
    if spec.order == 1 and spec.unique_vacuum:
        q, x = spec.q[1], -t[~exact]  # 1/((1/q) e^x +- 1), x = beta (eps - mu)
        far = x > 700.0
        e = _libm(math.exp, np.where(far, -x, x))
        sign = 1.0 if spec.is_fermionic_like else -1.0
        n[~exact] = np.where(far, q * e, 1.0 / (e / q + sign))
    return log_chi, n


def canonical_logZ(spec: StatisticsSpec, energies: Sequence[float], beta: float) -> float:
    """log of the canonical partition function: sum_k log chi_1(e^{-beta eps_k}),
    the grand one at mu = 0."""
    return grand_logZ(spec, energies, EnsembleParams(beta))


def grand_logZ(
    spec: StatisticsSpec, energies: Sequence[float], params: EnsembleParams
) -> float:
    """log of the grand-canonical partition function."""
    require_valid(spec)
    return sum(_modes(spec, _exponents(spec, energies, params.beta, params.mu))[0].tolist())


def mean_occupation(spec: StatisticsSpec, epsilon: float, params: EnsembleParams) -> float:
    """Mean excitation of a single mode at the given energy."""
    require_valid(spec)
    return _total_occupation(spec, [epsilon], params.beta, params.mu)


def _total_occupation(
    spec: StatisticsSpec, energies: Sequence[float], beta: float, mu: float
) -> float:
    return sum(_modes(spec, _exponents(spec, energies, beta, mu))[1].tolist())


def solve_mu(
    spec: StatisticsSpec,
    energies: Sequence[float],
    beta: float,
    target_N: float,
) -> float:
    """Chemical potential with total occupation equal to target_N within SOLVE_TOL.

    Bisection on the (strictly increasing) total-occupation function; the
    bracket is expanded geometrically.  Fermionic-like targets must not
    exceed d * order, the supremum of the total excitation; targets at the
    supremum itself resolve to the finite mu reaching it within tolerance.
    Raises ResourceGuardError when SOLVE_MAX_ITER bisection steps do not reach it.
    """
    require_valid(spec)
    if not energies:
        raise ValueError("need at least one mode")
    if not target_N > 0:
        raise ValueError(f"target_N must be positive, got {target_N}")
    d = len(energies)
    if spec.is_fermionic_like and target_N > d * spec.order:
        raise ValueError(
            f"target_N={target_N} out of range: total excitation saturates "
            f"at d * order = {d * spec.order}"
        )
    # aim just inside the feasible region (saturating targets stay solvable), above 0
    shifted = target_N - min(SOLVE_TOL, target_N) / 2

    def total(mu: float) -> float:
        return _total_occupation(spec, energies, beta, mu)

    def walk(mu: float, step: float, done, message: str) -> float:
        """mu, mu + step, mu + 3 step, ... until done(total(mu))."""
        for _ in range(300):
            if done(total(mu)):
                return mu
            mu += step
            step *= 2
        raise ValueError(message)

    e_min, e_max = min(energies), max(energies)
    if spec.is_fermionic_like:
        lo = e_min - 1.0
        hi = walk(e_max + 1.0, 1.0, lambda n: n >= shifted,
                  f"target_N={target_N} unreachable (out of range)")
    else:
        wall = e_min + math.log(least_positive_root(build_polynomial(spec))) / beta
        hi = wall - max(1e-9, 1e-9 * abs(wall))
        # only divergence moves hi off the wall: N rises with mu, so a finite
        # undershoot this close to the wall is an unreachable target
        reached = False
        for _ in range(60):
            try:
                reached = total(hi) >= shifted
                break
            except DivergenceError:
                hi = wall - 2 * (wall - hi)
        if not reached:
            raise ValueError(f"target_N={target_N} unreachable below divergence")
        lo = hi - 1.0
    lo = walk(lo, -1.0, lambda n: n <= shifted,
              "failed to bracket the chemical potential from below")

    value = math.nan
    for _ in range(SOLVE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        value = total(mid)
        if abs(value - target_N) <= SOLVE_TOL and value <= target_N:
            return mid
        if value < shifted:
            lo = mid
        else:
            hi = mid
    raise ResourceGuardError(
        "SOLVE_MAX_ITER", SOLVE_MAX_ITER, SOLVE_MAX_ITER + 1,
        f"chemical potential bisection (|N - target| = {abs(value - target_N):.3g} "
        f"at the last step, tolerance {SOLVE_TOL:g})",
    )


def thermo_report(
    spec: StatisticsSpec, energies: Sequence[float], params: EnsembleParams
) -> ThermoReport:
    """Grand-canonical observables: logZ, occupations, energy, entropy.

    Entropy follows S = logZ + beta <E> - beta mu N (k_B = 1); the mean
    energy sum_i eps_i n_i is the exact -d(logZ)/d(beta) at fixed beta*mu
    for labels of every order.
    """
    require_valid(spec)
    log_chi, n = _modes(spec, _exponents(spec, energies, params.beta, params.mu))
    logZ = sum(log_chi.tolist())
    occupations = tuple(n.tolist())
    mean_N = sum(occupations)
    mean_E = sum(e * n for e, n in zip(energies, occupations))
    # with every mode empty, beta mu may overflow while beta mu N is exactly 0
    entropy = logZ + params.beta * mean_E - (params.beta * params.mu * mean_N if mean_N else 0.0)
    return ThermoReport(
        logZ=logZ,
        mean_N=mean_N,
        mean_E=mean_E,
        entropy=entropy,
        occupations=occupations,
    )


@_float_semantics
def sweep(
    spec: StatisticsSpec,
    epsilon_range: tuple[float, float, int],
    params: EnsembleParams,
) -> list[SweepRow]:
    """Occupation-vs-energy table at fixed (beta, mu).

    Rows past the bosonic divergence wall are emitted with flag
    "divergent" and n = nan rather than dropped.
    """
    require_valid(spec)
    lo, hi, steps = epsilon_range
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps == 1:
        grid = [float(lo)]
    else:
        grid = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"sweep grid {lo!r}:{hi!r}:{steps} has a non-finite mode energy")
    # _diverges is monotone in t and t is monotone along the grid, so the
    # divergent rows are those past one cut in rising t: a prefix of the grid
    # if lo <= hi, a suffix if lo > hi.  Bisection finds the cut.
    rising = slice(None) if lo > hi else slice(None, None, -1)
    t = (-params.beta * (np.asarray(grid) - params.mu))[rising]
    cut = bisect_left(t.tolist(), True, key=partial(_diverges, spec))
    n = _modes(spec, t[:cut])[1].tolist() + [math.nan] * (steps - cut)
    flags = ["ok"] * cut + ["divergent"] * (steps - cut)
    return [SweepRow(eps, n_k, flag) for eps, n_k, flag in zip(grid, n[rising], flags[rising])]
