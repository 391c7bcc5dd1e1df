"""Fock basis enumeration, excitation bookkeeping, and sector structure.

States are plain occupation tuples |n_1..n_d>.  For order-one statistics
with a unique vacuum the basis splits bijectively into ordinary occupations
plus auxiliary labels; that bijection (and its inverse) lives here and is
what the explicit representations in :mod:`fockstat.dynamics` conjugate by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

from .classify import (
    StatisticsSpec,
    _character_series,
    max_occupation,
    require_valid,
    single_mode_character,
)
from .errors import UnsupportedStatisticsError
from .symfunc import Partition, schur_dimension, schur_expand_product

__all__ = [
    "LabeledState",
    "SectorDecomposition",
    "enumerate_basis",
    "sector_states",
    "excitation_of",
    "excitation_number",
    "state_energy",
    "decompose",
    "order_one_sector",
    "to_labeled",
    "from_labeled",
    "aux_digits",
]

OccupationState = tuple[int, ...]


@dataclass(frozen=True)
class LabeledState:
    """Ordinary occupations plus auxiliary labels, one per occupied mode.

    For fermionic-like order-one labels each auxiliary entry is an integer
    z in {0..alpha-1}; for bosonic-like ones it is a base-beta digit tuple
    of length k_s (most significant digit first).
    """

    ordinary: tuple[int, ...]
    aux: tuple


@dataclass(frozen=True)
class SectorDecomposition:
    """Multiplicities of unitary-group irreducible sectors in the Fock space.

    ``dimension_check`` is set for fermionic-like labels whenever the weight
    bound covers the whole space: (sum of c_lam * dim, (p+1)**d).
    """

    entries: dict[Partition, int]
    spec: StatisticsSpec
    d: int
    max_weight: int
    dimension_check: tuple[int, int] | None = None

    def sorted_entries(self) -> list[tuple[Partition, int]]:
        return sorted(self.entries.items(), key=lambda kv: kv[0].sort_key)


@lru_cache(maxsize=None)
def _char_coeffs(spec: StatisticsSpec, horizon: int) -> tuple[int, ...]:
    return single_mode_character(spec, horizon).coeffs


def excitation_of(spec: StatisticsSpec, n: int) -> int:
    """Excitation value f_n of the single-mode occupation n."""
    if n < 0:
        raise ValueError("occupation must be non-negative")
    if spec.is_fermionic_like:
        coeffs = _char_coeffs(spec, spec.order)
        total = sum(coeffs)
        if n >= total:
            raise ValueError(
                f"occupation {n} exceeds the exclusion bound p={total - 1}"
            )
    else:
        horizon = max(spec.order, 2)
        while sum(_char_coeffs(spec, horizon)) <= n:
            horizon *= 2
        coeffs = _char_coeffs(spec, horizon)
    cum = 0
    for s, mult in enumerate(coeffs):
        cum += mult
        if n < cum:
            return s
    raise AssertionError("unreachable")


def excitation_number(spec: StatisticsSpec, state: Sequence[int]) -> int:
    """Total excitation sum_k f_{n_k} of an occupation state."""
    return sum(excitation_of(spec, n) for n in state)


def state_energy(
    spec: StatisticsSpec, state: Sequence[int], energies: Sequence[float]
) -> float:
    """Energy sum_k eps_k * f_{n_k} for per-mode energies eps."""
    if len(energies) != len(state):
        raise ValueError("energies must list one value per mode")
    return float(sum(e * excitation_of(spec, n) for e, n in zip(energies, state)))


def _max_single_occupation(spec: StatisticsSpec, cutoff: int) -> int:
    """Largest occupation whose excitation stays within the cutoff."""
    horizon = max(spec.order, cutoff)
    coeffs = _char_coeffs(spec, horizon)
    return sum(coeffs[: cutoff + 1]) - 1


def enumerate_basis(
    spec: StatisticsSpec, d: int, excitation_cutoff: int | None = None
) -> list[OccupationState]:
    """Occupation basis in colexicographic order.

    Fermionic-like labels enumerate the full hypercube {0..p}^d; bosonic-like
    ones are infinite per mode, so the mandatory cutoff bounds the total
    excitation instead.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    require_valid(spec)
    if spec.is_fermionic_like:
        p = max_occupation(spec)
        return [tuple(reversed(t)) for t in product(range(p + 1), repeat=d)]
    if excitation_cutoff is None:
        raise ValueError(
            "bosonic-like bases are infinite: excitation_cutoff is mandatory"
        )
    n_max = _max_single_occupation(spec, excitation_cutoff)
    f_of = [excitation_of(spec, n) for n in range(n_max + 1)]

    states: list[OccupationState] = []

    def rec(prefix: tuple[int, ...], budget: int) -> None:
        if len(prefix) == d:
            states.append(prefix)
            return
        for n in range(n_max + 1):
            if f_of[n] <= budget:
                rec(prefix + (n,), budget - f_of[n])

    rec((), excitation_cutoff)
    states.sort(key=lambda s: tuple(reversed(s)))
    return states


def sector_states(spec: StatisticsSpec, d: int, N: int) -> list[OccupationState]:
    """Basis slice with total excitation exactly N (colex order)."""
    basis = enumerate_basis(
        spec, d, excitation_cutoff=None if spec.is_fermionic_like else N
    )
    return [s for s in basis if excitation_number(spec, s) == N]


def decompose(
    spec: StatisticsSpec, d: int, max_weight: int | None = None
) -> SectorDecomposition:
    """Irreducible-sector multiplicities of the d-mode Fock space.

    ``max_weight`` defaults to the full space for fermionic-like labels
    (d * order) and is mandatory for bosonic-like ones.
    """
    require_valid(spec)
    if max_weight is None:
        if not spec.is_fermionic_like:
            raise ValueError(
                "bosonic-like decompositions are infinite: max_weight is mandatory"
            )
        max_weight = d * spec.order
    series = _character_series(spec, max_weight + d - 1)
    entries = schur_expand_product(series, d, max_weight)
    negative = {k: v for k, v in entries.items() if v < 0}
    if negative:
        raise RuntimeError(
            f"internal error: valid label {spec.label()} produced negative "
            f"multiplicities {negative}"
        )
    check = None
    if spec.is_fermionic_like and max_weight >= d * spec.order:
        total = sum(c * schur_dimension(lam, d) for lam, c in entries.items())
        check = (total, (max_occupation(spec) + 1) ** d)
    return SectorDecomposition(
        entries=entries, spec=spec, d=d, max_weight=max_weight, dimension_check=check
    )


def order_one_sector(spec: StatisticsSpec, d: int, N: int) -> tuple[Partition, int]:
    """Closed-form sector prediction for order-one labels with unique vacuum.

    Fermionic-like [1,q]- puts multiplicity q**N on the length-N column;
    bosonic-like [1,q]+ puts q**N on the length-N row.
    """
    _require_order_one(spec)
    if N < 0:
        raise ValueError("N must be >= 0")
    q = spec.q[1]
    if spec.is_fermionic_like:
        if N > d:
            raise ValueError(f"fermionic sectors need N <= d, got N={N}, d={d}")
        return Partition((1,) * N), q**N
    return Partition((N,) if N else ()), q**N


def _require_order_one(spec: StatisticsSpec) -> None:
    if spec.order != 1 or not spec.unique_vacuum:
        raise UnsupportedStatisticsError(
            "hidden-label construction covers order-one labels with a unique "
            f"vacuum only, got {spec.label()}"
        )


def _block_start(beta: int, k: int) -> int:
    """First occupation with excitation k for a bosonic-like order-one label."""
    if beta == 1:
        return k
    return (beta**k - 1) // (beta - 1)


def _split_occupation(spec: StatisticsSpec, n: int) -> tuple[int, tuple[int, ...] | int]:
    q = spec.q[1]
    if spec.is_fermionic_like:
        if n > q:
            raise ValueError(f"occupation {n} exceeds the exclusion bound p={q}")
        return (0, 0) if n == 0 else (1, n - 1)
    k = 0
    while _block_start(q, k + 1) <= n:
        k += 1
    return k, aux_digits(n - _block_start(q, k), q, k)


def aux_digits(z: int, q: int, k: int) -> tuple[int, ...]:
    """The k base-q digits of z, most significant first (all 0 for q = 1)."""
    if not 0 <= z < q**k:
        raise ValueError(f"auxiliary value {z} outside 0..{q**k - 1}")
    return tuple(z // q**i % q for i in reversed(range(k)))


def to_labeled(spec: StatisticsSpec, state: Sequence[int]) -> LabeledState:
    """Bijective split of an occupation state into ordinary occupations and
    auxiliary labels (one label per occupied mode, in mode order)."""
    _require_order_one(spec)
    ordinary: list[int] = []
    aux: list = []
    for n in state:
        if n < 0:
            raise ValueError("occupation must be non-negative")
        k, label = _split_occupation(spec, n)
        ordinary.append(k)
        if k > 0:
            aux.append(label)
    return LabeledState(ordinary=tuple(ordinary), aux=tuple(aux))


def from_labeled(spec: StatisticsSpec, labeled: LabeledState) -> OccupationState:
    """Inverse of :func:`to_labeled`; rejects malformed labels."""
    _require_order_one(spec)
    q = spec.q[1]
    occupied = [k for k in labeled.ordinary if k > 0]
    if len(occupied) != len(labeled.aux):
        raise ValueError(
            f"need exactly one auxiliary label per occupied mode "
            f"({len(occupied)} occupied, {len(labeled.aux)} labels)"
        )
    out: list[int] = []
    it = iter(labeled.aux)
    for k in labeled.ordinary:
        if k < 0:
            raise ValueError("ordinary occupations must be non-negative")
        if k == 0:
            out.append(0)
            continue
        label = next(it)
        if spec.is_fermionic_like:
            if k != 1:
                raise ValueError(f"fermionic ordinary occupations are 0/1, got {k}")
            z = int(label)
            if not 0 <= z < q:
                raise ValueError(f"auxiliary label {z} outside 0..{q - 1}")
            out.append(1 + z)
        else:
            digits = tuple(int(v) for v in label)
            if len(digits) != k:
                raise ValueError(
                    f"digit string {digits} must have length k={k}"
                )
            if any(not 0 <= v < q for v in digits):
                raise ValueError(f"digits {digits} outside base {q}")
            z = 0
            for v in digits:
                z = z * q + v
            out.append(_block_start(q, k) + z)
    return tuple(out)
