"""Fock basis enumeration, excitation bookkeeping, and sector structure.

States are plain occupation tuples |n_1..n_d>.  For order-one statistics
with a unique vacuum the basis splits bijectively into ordinary occupations
plus auxiliary labels; that bijection (and its inverse) lives here and is
what the explicit representations in :mod:`fockstat.dynamics` conjugate by.
One private codec, :func:`_split_occupation` and :func:`_join_occupation`,
owns the auxiliary-digit format for both kinds; every public form of the
labels is an adapter over it.  One cached block-start table per label,
:func:`_starts`, gives the excitations, the codec's offsets and the basis.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .classify import (
    StatisticsSpec,
    _character_series,
    max_occupation,
    require_valid,
    single_mode_character,
)
from .errors import ResourceGuardError, UnsupportedStatisticsError
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
    "from_aux_integers",
    "aux_digits",
]

OccupationState = tuple[int, ...]

# Largest horizon a bosonic-like block-start table doubles to: 1,1:+ then
# covers occupations below 4,097.  A sector within SECTOR_BASIS_BOUND needs at
# most 512 under 1,q:+ (q <= 3) on two or more modes; 1,1:+ on one mode can
# outgrow it, and _starts then refuses it before any state of it is built.
STARTS_HORIZON_BOUND = 1 << 12


@dataclass(frozen=True)
class LabeledState:
    """Ordinary occupations plus auxiliary labels, one per occupied mode.

    Under an order-one label [1,q] every particle carries one base-q digit,
    so a mode holding k particles carries a digit tuple of length k (most
    significant first).  Fermionic-like modes hold at most one particle, and
    their entry is the bare digit, an integer in {0..q-1}.
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


@lru_cache(maxsize=64)
def _block_starts(spec: StatisticsSpec, horizon: int) -> tuple[int, ...]:
    """starts[0..horizon + 1] of :func:`_starts` (0..order + 1 if fermionic-like)."""
    return tuple(accumulate(single_mode_character(spec, horizon).coeffs, initial=0))


def _starts(spec: StatisticsSpec, occupation: int = 0, excitation: int = 0) -> tuple[int, ...]:
    """Block-start table of a valid label: starts[s] = a_0 + ... + a_(s-1),
    a the character coefficients, so the occupations of excitation s fill
    [starts[s], starts[s + 1]).  A fermionic-like table is whole, its last
    start the exclusion bound plus one; a bosonic-like one doubles its
    horizon until it holds a start past ``occupation`` and ``excitation``'s,
    and raises ResourceGuardError past STARTS_HORIZON_BOUND."""
    if spec.is_fermionic_like:
        return _block_starts(spec, spec.order)
    horizon = max(spec.order, 2)
    while (starts := _block_starts(spec, horizon))[-1] <= occupation or len(starts) <= excitation:
        horizon *= 2
        if horizon > STARTS_HORIZON_BOUND:
            raise ResourceGuardError(
                "STARTS_HORIZON_BOUND", STARTS_HORIZON_BOUND,
                max(STARTS_HORIZON_BOUND + 1, excitation - 1),
                f"block-start table of {spec.label()} at occupation {occupation}, "
                f"excitation {excitation}",
            )
    return starts


def excitation_of(spec: StatisticsSpec, n: int) -> int:
    """Excitation value f_n of the single-mode occupation n."""
    if n < 0:
        raise ValueError("occupation must be non-negative")
    starts = _starts(spec, n)
    if n >= starts[-1]:  # only a fermionic-like table can end there
        raise ValueError(f"occupation {n} exceeds the exclusion bound p={starts[-1] - 1}")
    return bisect_right(starts, n) - 1


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


def enumerate_basis(
    spec: StatisticsSpec, d: int, excitation_cutoff: int | None = None
) -> list[OccupationState]:
    """Occupation basis in colexicographic order.

    Fermionic-like labels enumerate the full hypercube {0..p}^d and ignore
    the cutoff; bosonic-like ones are infinite per mode, so the mandatory
    cutoff bounds the total excitation instead.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    require_valid(spec)
    if spec.is_fermionic_like:
        excitation_cutoff = d * spec.order  # every state's excitation is within it
    elif excitation_cutoff is None:
        raise ValueError(
            "bosonic-like bases are infinite: excitation_cutoff is mandatory"
        )
    starts = _starts(spec, excitation=excitation_cutoff + 1)
    # f_of[n] for every occupation n whose excitation is within the cutoff
    f_of = [s for s in range(min(excitation_cutoff + 1, len(starts) - 1))
            for _ in range(starts[s], starts[s + 1])]

    states: list[OccupationState] = []

    def rec(suffix: tuple[int, ...], budget: int) -> None:
        """Fill modes from the last one, so states come out in colex order."""
        if len(suffix) == d:
            states.append(suffix)
            return
        for n, f in enumerate(f_of):
            if f <= budget:
                rec((n,) + suffix, budget - f)

    rec((), excitation_cutoff)
    del rec  # rec refers to itself: free it and its view of states now, not at a full gc
    return states


def sector_states(spec: StatisticsSpec, d: int, N: int) -> list[OccupationState]:
    """Basis slice with total excitation exactly N (colex order)."""
    return [s for s in enumerate_basis(spec, d, N) if excitation_number(spec, s) == N]


def decompose(
    spec: StatisticsSpec, d: int, max_weight: int | None = None
) -> SectorDecomposition:
    """Irreducible-sector multiplicities of the d-mode Fock space.

    ``max_weight`` defaults to the full space for fermionic-like labels
    (d * order) and is mandatory for bosonic-like ones.
    """
    require_valid(spec)
    if max_weight is not None and max_weight < 0:
        raise ValueError("max_weight must be >= 0")
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
        require_valid(spec)  # an invalid label reports that first
        raise UnsupportedStatisticsError(
            "hidden-label construction covers order-one labels with a unique "
            f"vacuum only, got {spec.label()}"
        )


def _split_occupation(spec: StatisticsSpec, n: int) -> tuple[int, tuple[int, ...]]:
    """Particle count k of a single-mode occupation and its k base-q
    auxiliary digits, most significant first (k <= 1 for fermionic-like)."""
    k = excitation_of(spec, n)
    return k, aux_digits(n - _starts(spec, n)[k], spec.q[1], k)


def _join_occupation(spec: StatisticsSpec, k: int, digits: Sequence[int]) -> int:
    """Inverse of :func:`_split_occupation`; rejects malformed labels."""
    q = spec.q[1]
    if k < 0:
        raise ValueError("ordinary occupations must be non-negative")
    if spec.is_fermionic_like and k > 1:
        raise ValueError(f"fermionic ordinary occupations are 0/1, got {k}")
    digits = tuple(int(v) for v in digits)
    if len(digits) != k:
        raise ValueError(f"digit string {digits} must have length k={k}")
    if any(not 0 <= v < q for v in digits):
        raise ValueError(f"auxiliary digits {digits} outside base {q}")
    return _starts(spec, excitation=k)[k] + sum(v * q**i for i, v in enumerate(reversed(digits)))


def aux_digits(z: int, q: int, k: int) -> tuple[int, ...]:
    """The k base-q digits of z, most significant first (all 0 for q = 1)."""
    if not 0 <= z < q**k:
        raise ValueError(f"auxiliary value {z} outside 0..{q**k - 1}")
    return tuple(z // q**i % q for i in reversed(range(k)))


def to_labeled(spec: StatisticsSpec, state: Sequence[int]) -> LabeledState:
    """Bijective split of an occupation state into ordinary occupations and
    auxiliary labels (one label per occupied mode, in mode order)."""
    _require_order_one(spec)
    split = [_split_occupation(spec, n) for n in state]
    aux = (digits[0] if spec.is_fermionic_like else digits for k, digits in split if k)
    return LabeledState(tuple(k for k, _ in split), tuple(aux))


def _join_state(
    spec: StatisticsSpec, ordinary: Sequence[int], labels: Sequence, digits_of
) -> OccupationState:
    """Occupation state from ordinary occupations and one label per occupied
    mode, ``digits_of(label, k)`` giving that mode's auxiliary digits."""
    _require_order_one(spec)
    occupied = sum(k > 0 for k in ordinary)
    if occupied != len(labels):
        raise ValueError(
            f"need exactly one auxiliary label per occupied mode "
            f"({occupied} occupied, {len(labels)} labels)"
        )
    it = iter(labels)
    return tuple(
        _join_occupation(spec, k, digits_of(next(it), k) if k > 0 else ()) for k in ordinary
    )


def from_labeled(spec: StatisticsSpec, labeled: LabeledState) -> OccupationState:
    """Inverse of :func:`to_labeled`; rejects malformed labels."""
    as_digits = (lambda a, k: (a,)) if spec.is_fermionic_like else (lambda a, k: a)
    return _join_state(spec, labeled.ordinary, labeled.aux, as_digits)


def from_aux_integers(
    spec: StatisticsSpec, ordinary: Sequence[int], values: Sequence[int] | None = None
) -> OccupationState:
    """Occupation state from ordinary occupations and one integer z per
    occupied mode, 0 <= z < q**k, whose k base-q digits are that mode's
    auxiliary labels (all zero when ``values`` is omitted)."""
    if values is None:
        values = [0] * sum(k > 0 for k in ordinary)
    return _join_state(spec, ordinary, values, lambda z, k: aux_digits(z, spec.q[1], k))
