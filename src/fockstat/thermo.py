"""Canonical and grand-canonical thermodynamics of non-interacting gases.

Units: k_B = 1 throughout; temperatures are energies (beta = 1/T).  The
single-mode partition function is the character evaluated at y = exp(-beta
(eps - mu)); occupations follow from its logarithmic derivative, which for
order-one labels reduces to the familiar 1/((1/q) e^{beta(eps-mu)} +- 1).
Bosonic-like divergence (the condensation wall at the smallest positive root
of the defining polynomial) is detected exactly in rational arithmetic and
raised as a typed error, never returned as a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

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
    y = math.exp(t)
    if y == 0.0:
        return False
    return count_real_roots_upto(build_polynomial(spec), Fraction(y)) >= 1


def _exponents(
    spec: StatisticsSpec, energies: Sequence[float], beta: float, mu: float
) -> Iterator[float]:
    """t = -beta (eps_k - mu) mode by mode; DivergenceError(mode=k) at the
    first divergent mode."""
    for k, eps in enumerate(energies):
        t = -beta * (eps - mu)
        if _diverges(spec, t):
            raise DivergenceError(mode=k)
        yield t


def _bosonic_terms(spec: StatisticsSpec, y: float) -> tuple[float | Fraction, float | Fraction]:
    """Q+(y) and y Q+'(y).

    Near a repeated root float Q+(y) cancels to (or past) 0 although the
    exact gate has put y below the wall; there both are taken in Fractions.
    """
    coeffs = build_polynomial(spec)
    if abs(_poly_eval(coeffs, y)) <= 1e-12 * _poly_eval([abs(c) for c in coeffs], y):
        y = Fraction(y)
    return _poly_eval(coeffs, y), y * _poly_eval([s * c for s, c in enumerate(coeffs)][1:], y)


def _log_char(spec: StatisticsSpec, t: float) -> float:
    """log chi_1(e^t), numerically stable for any t in the convergent region."""
    if spec.is_fermionic_like:
        # log-sum-exp over the polynomial terms
        terms = [s * t + math.log(q) for s, q in enumerate(spec.q)]
        m = max(terms)
        return m + math.log(sum(math.exp(v - m) for v in terms))
    return -math.log(_bosonic_terms(spec, math.exp(t))[0])


def _occupation_from_t(spec: StatisticsSpec, t: float) -> float:
    """Mean excitation y chi'(y)/chi(y) at y = e^t."""
    if spec.order == 1 and spec.unique_vacuum:  # 1/((1/q) e^{beta(eps-mu)} +- 1)
        q = spec.q[1]
        x = -t  # beta (eps - mu)
        if x > 700.0:
            return q * math.exp(-x)
        return 1.0 / (math.exp(x) / q + (1.0 if spec.is_fermionic_like else -1.0))
    if spec.is_fermionic_like:
        terms = [s * t + math.log(c) for s, c in enumerate(spec.q)]
        m = max(terms)
        weights = [math.exp(v - m) for v in terms]
        return sum(s * w for s, w in zip(range(len(weights)), weights)) / sum(weights)
    value, slope = _bosonic_terms(spec, math.exp(t))
    return float(-slope / value)


def canonical_logZ(spec: StatisticsSpec, energies: Sequence[float], beta: float) -> float:
    """log of the canonical partition function: sum_k log chi_1(e^{-beta eps_k}),
    the grand one at mu = 0."""
    return grand_logZ(spec, energies, EnsembleParams(beta))


def grand_logZ(
    spec: StatisticsSpec, energies: Sequence[float], params: EnsembleParams
) -> float:
    """log of the grand-canonical partition function."""
    require_valid(spec)
    return sum(_log_char(spec, t) for t in _exponents(spec, energies, params.beta, params.mu))


def mean_occupation(spec: StatisticsSpec, epsilon: float, params: EnsembleParams) -> float:
    """Mean excitation of a single mode at the given energy."""
    require_valid(spec)
    return _total_occupation(spec, [epsilon], params.beta, params.mu)


def _total_occupation(
    spec: StatisticsSpec, energies: Sequence[float], beta: float, mu: float
) -> float:
    return sum(_occupation_from_t(spec, t) for t in _exponents(spec, energies, beta, mu))


def solve_mu(
    spec: StatisticsSpec,
    energies: Sequence[float],
    beta: float,
    target_N: float,
    *,
    tol: float = SOLVE_TOL,
    max_iter: int = SOLVE_MAX_ITER,
) -> float:
    """Chemical potential with total occupation equal to target_N within tol.

    Bisection on the (strictly increasing) total-occupation function; the
    bracket is expanded geometrically.  Fermionic-like targets must not
    exceed d * order, the supremum of the total excitation; targets at the
    supremum itself resolve to the finite mu reaching it within tolerance.
    Raises ResourceGuardError when max_iter bisection steps do not reach it.
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
    # aim just inside the feasible region so saturating targets stay solvable
    shifted = target_N - tol / 2

    def total(mu: float) -> float:
        return _total_occupation(spec, energies, beta, mu)

    e_min, e_max = min(energies), max(energies)
    if spec.is_fermionic_like:
        lo, hi = e_min - 1.0, e_max + 1.0
        step = 1.0
        for _ in range(300):
            if total(hi) >= shifted:
                break
            hi += step
            step *= 2
        else:
            raise ValueError(f"target_N={target_N} unreachable (out of range)")
    else:
        wall = e_min + math.log(least_positive_root(build_polynomial(spec))) / beta
        hi = wall - max(1e-9, 1e-9 * abs(wall))
        for _ in range(60):
            try:
                if total(hi) >= shifted:
                    break
            except DivergenceError:
                pass
            hi = wall - 2 * (wall - hi)
        else:
            raise ValueError(f"target_N={target_N} unreachable below divergence")
        # hi may have drifted below the wall far enough to undershoot; walk back
        while total(hi) < shifted and wall - hi > 1e-300:
            hi = wall - (wall - hi) / 2
        lo = hi - 1.0
    step = 1.0
    for _ in range(300):
        if total(lo) <= shifted:
            break
        lo -= step
        step *= 2
    else:
        raise ValueError("failed to bracket the chemical potential from below")

    value = math.nan
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        value = total(mid)
        if abs(value - target_N) <= tol and value <= target_N:
            return mid
        if value < shifted:
            lo = mid
        else:
            hi = mid
    raise ResourceGuardError(
        f"chemical potential did not converge within SOLVE_MAX_ITER={max_iter} "
        f"bisection steps: |N - target| = {abs(value - target_N):.3g} at the last "
        f"step, tolerance {tol:g}"
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
    ts = list(_exponents(spec, energies, params.beta, params.mu))
    logZ = sum(_log_char(spec, t) for t in ts)
    occupations = tuple(_occupation_from_t(spec, t) for t in ts)
    mean_N = sum(occupations)
    mean_E = sum(e * n for e, n in zip(energies, occupations))
    entropy = logZ + params.beta * mean_E - params.beta * params.mu * mean_N
    return ThermoReport(
        logZ=logZ,
        mean_N=mean_N,
        mean_E=mean_E,
        entropy=entropy,
        occupations=occupations,
    )


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
    rows = []
    for eps in grid:
        try:
            n = _total_occupation(spec, [eps], params.beta, params.mu)
            rows.append(SweepRow(epsilon=eps, n=n, flag="ok"))
        except DivergenceError:
            rows.append(SweepRow(epsilon=eps, n=float("nan"), flag="divergent"))
    return rows
