"""Explicit unitary-group action on excitation sectors, one column at a time.

Fermionic sectors act through matrix minors (antisymmetric powers), bosonic
sectors by multiplying out one creation-operator linear form per particle
(symmetric powers; :func:`permanent` is the independent route to the same
amplitudes), and order-one generalized statistics through conjugation by the
hidden-label bijection: the ordinary representation acts on particle content
while auxiliary labels ride along untouched.  Every representation is built
from one sector column, so :func:`evolve` computes only the columns in its
input's support.  Total excitation is conserved, so everything is block
per-sector; no global Fock matrix is ever materialized.  Phases act mode by
mode, so character traces are products of single-mode series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice
from typing import Sequence

import numpy as np

from .classify import Kind, StatisticsSpec, single_mode_character
from .errors import ResourceGuardError
from .fock import LabeledState, _join_occupation, _require_order_one
from .fock import _split_occupation, excitation_number, from_aux_integers, from_labeled
from .fock import sector_states, to_labeled

__all__ = [
    "SectorRep",
    "AmplitudeVector",
    "beamsplitter",
    "haar_unitary",
    "check_unitary",
    "permanent",
    "fermionic_rep",
    "bosonic_rep",
    "sector_rep",
    "evolve",
    "detection_probabilities",
    "character_trace",
]

UNITARITY_TOL = 1e-12
SECTOR_BASIS_BOUND = 1 << 16
NORMALIZATION_TOL = 1e-10


def beamsplitter() -> np.ndarray:
    """Balanced two-mode beam splitter."""
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Seed-deterministic Haar-distributed unitary (QR with phase fix)."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def check_unitary(g: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"mode transformation must be square, got {g.shape}")
    with np.errstate(all="ignore"):  # inf or NaN entries: rejected below, with no warning
        dev = np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0])))
    if not dev <= tol:  # NaN fails too
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e}, tolerance {tol:.0e})")
    return g


def permanent(a: np.ndarray) -> complex:
    """Permanent by Ryser inclusion-exclusion, O(2^n * n)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if (mask >> j) & 1]
        rowsums = a[:, cols].sum(axis=1)
        total += (-1) ** len(cols) * np.prod(rowsums)
    return complex((-1) ** n * total)


@dataclass(frozen=True)
class SectorRep:
    """Matrix of one excitation sector together with its basis ordering."""

    basis: tuple
    matrix: np.ndarray


def _ordinary_column(g: np.ndarray, fermionic: bool, basis, n_in) -> np.ndarray:
    """<m|G|n_in> for each ordinary occupation m in ``basis``.  Fermions: the
    minor det g[m|n_in], rows and columns repeated per occupation.  Bosons: G
    maps a_j^+ to sum_i g[i, j] a_i^+, so G|n_in> is the product of one such
    linear form per input particle over sqrt(n_in!); multiplied out, the
    monomial prod_i (a_i^+)^m_i has a coefficient c_m, and <m|G|n_in> is
    c_m sqrt(m! / n_in!), which :func:`permanent` gives as
    per(g[m|n_in]) / sqrt(m! n_in!)."""
    if fermionic:
        rows = lambda occ: [i for i, k in enumerate(occ) for _ in range(k)]
        cols = rows(n_in)
        return np.array([np.linalg.det(g[np.ix_(rows(m), cols)]) for m in basis])
    coeffs = {(0,) * len(n_in): 1.0 + 0.0j}
    for j, k in enumerate(n_in):
        form = g[:, j].tolist()
        for _ in range(k):
            step: dict[tuple, complex] = {}
            for occ, c in coeffs.items():
                for i, u in enumerate(form):
                    m = occ[:i] + (occ[i] + 1,) + occ[i + 1 :]
                    step[m] = step.get(m, 0j) + c * u
            coeffs = step
    fact = lambda occ: math.prod(map(math.factorial, occ))
    return np.array([coeffs[m] * math.sqrt(fact(m) / fact(n_in)) for m in basis])


def fermionic_rep(g: np.ndarray, N: int) -> SectorRep:
    """Antisymmetric sector: basis indexed by N-subsets of modes in
    combinations order, entries are determinants of the corresponding
    submatrices; the sector of the ordinary label 1,1:-, reindexed."""
    rep = sector_rep(StatisticsSpec(Kind.FERMIONIC_LIKE, (1, 1)), g, N)
    subsets = [tuple(i for i, k in enumerate(b) if k) for b in rep.basis]
    order = sorted(range(len(subsets)), key=subsets.__getitem__)
    return SectorRep(tuple(subsets[i] for i in order), rep.matrix[np.ix_(order, order)])


def bosonic_rep(g: np.ndarray, N: int) -> SectorRep:
    """Symmetric sector: basis indexed by occupation vectors of weight N
    (colexicographic), entries per(g[m|n]) / sqrt(prod m_i! prod n_j!),
    computed a column at a time by expanding the product of creation-operator
    linear forms (within 1e-12 of :func:`permanent`); the sector of the
    ordinary label 1,1:+, whose auxiliary labels are trivial."""
    return sector_rep(StatisticsSpec(Kind.BOSONIC_LIKE, (1, 1)), g, N)


def _require_sector(spec: StatisticsSpec, d: int, N: int) -> None:
    """Checks on a sector before any state is built: an order-one label [1,q]
    with unique vacuum (so N counts particles), at most SECTOR_BASIS_BOUND
    states for sector_states to enumerate on d modes (the (q+1)^d hypercube, or
    q^E C(E+d-1, E) of each excitation E <= N, summed until past the bound)."""
    _require_order_one(spec)
    q = spec.q[1]
    if spec.is_fermionic_like:
        count = (q + 1) ** d
    else:
        count = 0
        for E in range(N + 1):
            count += q**E * math.comb(E + d - 1, E)
            if count > SECTOR_BASIS_BOUND:
                break
    if count > SECTOR_BASIS_BOUND:
        raise ResourceGuardError(
            "SECTOR_BASIS_BOUND", SECTOR_BASIS_BOUND, count,
            f"sector basis of {spec.label()} with N={N} on {d} modes",
        )


def _sector(spec: StatisticsSpec, g: np.ndarray, N: int):
    """Excitation-N basis of an order-one label with unique vacuum, and the
    column of the sector matrix at a basis state: the ordinary column of its
    particle content, each output carrying the input's auxiliary digits
    (flattened in mode order), as the identity on hidden labels."""
    d, fermionic = g.shape[0], spec.is_fermionic_like
    _require_sector(spec, d, N)  # before enumerating either basis
    basis = tuple(sector_states(spec, d, N))
    if not basis:
        raise ValueError(f"sector N={N} is empty on {d} modes")
    index = {b: i for i, b in enumerate(basis)}
    plain = sector_states(StatisticsSpec(spec.kind, (1, 1)), d, N)

    @cache
    def ordinary(n_in: tuple) -> np.ndarray:
        return _ordinary_column(g, fermionic, plain, n_in)

    @cache
    def position(m: tuple, digits: tuple) -> int:
        it = iter(digits)
        return index[tuple(_join_occupation(spec, k, tuple(islice(it, k))) for k in m)]

    def column(state) -> np.ndarray:
        split = [_split_occupation(spec, n) for n in state]
        digits = tuple(chain.from_iterable(ds for _, ds in split))
        out = np.zeros(len(basis), dtype=complex)
        out[[position(m, digits) for m in plain]] = ordinary(tuple(k for k, _ in split))
        return out

    return basis, column


def sector_rep(spec: StatisticsSpec, g: np.ndarray, N: int) -> SectorRep:
    """Excitation-N sector of an order-one statistics with unique vacuum: the
    ordinary representation tensored with the identity on auxiliary labels,
    in the occupation basis, stacked from :func:`_sector` columns."""
    basis, column = _sector(spec, check_unitary(g), N)
    return SectorRep(basis, np.column_stack([column(b) for b in basis]))


@dataclass(frozen=True)
class AmplitudeVector:
    """Complex amplitudes over one excitation sector of the occupation basis."""

    spec: StatisticsSpec
    basis: tuple[tuple[int, ...], ...]
    amplitudes: np.ndarray

    def __init__(self, spec, basis, amplitudes):
        basis = tuple(tuple(b) for b in basis)
        if len(set(basis)) != len(basis):
            raise ValueError("duplicate basis states")
        sectors = {excitation_number(spec, b) for b in basis}
        if len(sectors) > 1:
            raise ValueError(
                f"basis must live in a single excitation sector, got {sectors}"
            )
        self._fill(spec, basis, amplitudes)

    @classmethod
    def _of_sector(cls, spec, basis: tuple, amplitudes) -> "AmplitudeVector":
        """Vector over a basis of distinct states of one excitation sector,
        as :func:`~fockstat.fock.sector_states` yields: the array checks
        only, without re-deriving each state's excitation."""
        vec = cls.__new__(cls)
        vec._fill(spec, basis, amplitudes)
        return vec

    def _fill(self, spec, basis: tuple, amplitudes) -> None:
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if not basis:
            raise ValueError("empty basis")
        if amplitudes.shape != (len(basis),):
            raise ValueError("one amplitude per basis state required")
        norm = float(np.sum(np.abs(amplitudes) ** 2))
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
            raise ValueError(f"state not normalized: sum |a|^2 = {norm!r}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def sector(self) -> int:
        return excitation_number(self.spec, self.basis[0])

    @classmethod
    def basis_state(
        cls,
        spec: StatisticsSpec,
        ordinary: Sequence[int],
        aux: Sequence | None = None,
    ) -> "AmplitudeVector":
        """Single occupation state from ordinary occupations plus auxiliary
        labels (defaulting to all-zero labels)."""
        ordinary = tuple(int(k) for k in ordinary)
        if aux is None:
            state = from_aux_integers(spec, ordinary)
        else:
            state = from_labeled(spec, LabeledState(ordinary, tuple(aux)))
        return cls(spec, (state,), np.array([1.0 + 0.0j]))


def evolve(g: np.ndarray, vec: AmplitudeVector) -> AmplitudeVector:
    """Apply the mode transformation to a one-sector state: sum a * column(b)
    over the input's support only, expressed in the full sector basis."""
    g = check_unitary(g)
    if len(vec.basis[0]) != g.shape[0]:
        raise ValueError(f"state has {len(vec.basis[0])} modes, g has {g.shape[0]}")
    basis, column = _sector(vec.spec, g, vec.sector)
    out = sum(a * column(b) for b, a in zip(vec.basis, vec.amplitudes))
    return AmplitudeVector._of_sector(vec.spec, basis, out)


def detection_probabilities(vec: AmplitudeVector) -> dict[tuple[int, ...], float]:
    """Detector statistics: particle numbers per mode, auxiliary labels
    marginalized.  Sums to 1 for any normalized input."""
    probs: dict[tuple[int, ...], float] = {}
    for state, amp in zip(vec.basis, vec.amplitudes):
        p = float(abs(amp) ** 2)
        if p == 0.0:
            continue
        ordinary = to_labeled(vec.spec, state).ordinary
        probs[ordinary] = probs.get(ordinary, 0.0) + p
    return probs


def character_trace(
    spec: StatisticsSpec,
    phases: Sequence[float],
    excitation_cutoff: int | None = None,
) -> complex:
    """Trace of the diagonal-phase action, sum over basis states of
    exp(i * sum_k theta_k f_{n_k}).

    Phases act mode by mode, so the trace is the product over modes of the
    single-mode series sum_s a_s exp(i theta_k s), a the character
    coefficients, truncated as a polynomial in the excitation.  Bosonic-like
    labels are restricted to total excitation <= cutoff; fermionic-like
    traces run over the whole (finite) basis.
    """
    d = len(phases)
    if d < 1:
        raise ValueError("d must be >= 1")
    if excitation_cutoff is not None and excitation_cutoff < 0:
        raise ValueError("excitation_cutoff must be >= 0")
    if spec.is_fermionic_like:
        excitation_cutoff = d * spec.order
    elif excitation_cutoff is None:
        raise ValueError(
            "bosonic-like bases are infinite: excitation_cutoff is mandatory"
        )
    series = single_mode_character(spec, max(excitation_cutoff, spec.order))
    a = np.array(series.coeffs, dtype=float)
    poly = np.ones(1)
    for theta in phases:
        poly = np.convolve(poly, a * np.exp(1j * theta * np.arange(len(a))))
        poly = poly[: excitation_cutoff + 1]
    return complex(poly.sum())
