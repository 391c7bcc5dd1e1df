"""The four benchmark workloads: inputs, ops and output checks.

A workload turns a seed into a stream of *cycles*, each a fixed mix of op
kinds with freshly drawn inputs.  The timed loop runs whole cycles, so
every run sees the same mix whatever its length.  ``run`` is the only
part that is timed; ``check`` runs after the timed loop and returns
``None`` or the cause of a failure.  Warm-up inputs come from a separate
random stream and are never reused by timed ops.

The library sees only the generated inputs: labels, spectra, unitaries,
phases and series.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from fockstat import classify, cli, dynamics, thermo
from fockstat.classify import Kind, StatisticsSpec
from fockstat.symfunc import IntegerSeries

F, B = Kind.FERMIONIC_LIKE, Kind.BOSONIC_LIKE


@dataclass
class Op:
    kind: str  # op kind within the cycle, for the per-kind breakdown
    label: str  # statistics label the op works on
    args: tuple


class Exhausted(Exception):
    """The workload has no distinct inputs left for another cycle."""


def _label(kind: Kind, q) -> str:
    return ",".join(str(v) for v in q) + (":-" if kind is F else ":+")


def _spec(label: str) -> StatisticsSpec:
    coeffs, sign = label.split(":")
    return StatisticsSpec(F if sign == "-" else B, [int(v) for v in coeffs.split(",")])


def _signed(kind: Kind, q) -> list[int]:
    return list(q) if kind is F else [(-1) ** s * v for s, v in enumerate(q)]


def exact_root_count(kind: Kind, q) -> int:
    """Real roots, with multiplicity, on the label's half-line (sympy)."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(_signed(kind, q))), x)
    _, factors = poly.sqf_list()
    if kind is F:
        return sum(m * f.count_roots(None, 0) for f, m in factors)
    return sum(m * f.count_roots(0, None) for f, m in factors)


def exact_valid(label: str) -> bool:
    spec = _spec(label)
    return exact_root_count(spec.kind, spec.q) == spec.order


# ---------------------------------------------------------------------------
# census: distinct labels through the CLI, each gated cold exactly once

CENSUS_COEFF_MAX = 9  # random coefficients and integer roots are <= 9
# fockstat's factorization guard today; a copy, not an import, so that the
# generated labels stay the same whatever a later commit does to the guard.
# Timed labels stay within it; a label of degree 9 is refused (exit 2), a
# known defect that every census run reports beside its result instead of
# timing (see Census.known_defects).
FACTORIZATION_DEGREE_BOUND = 8
CENSUS_DEGREES = range(1, FACTORIZATION_DEGREE_BOUND + 1)
# Kronecker trial factorization tries, per candidate factor degree m, every
# combination of divisors of the polynomial's values at m + 1 points.  Its
# cost, about 0.2-0.3 ms per combination, grows with that product and is
# unbounded in practice: single degree-8 labels with coefficients <= 9
# take over 30 s.  Random labels are drawn within a trial-space budget, so
# that a handful of labels cannot decide a whole run.  Every cycle also
# holds two heavy labels of degree 7, whose trial space lies in a band above
# the budget (60-90 ms ops, ten times the median): the op tail falls among
# their many samples.
KRONECKER_TRIAL_BUDGET = 150
KRONECKER_HEAVY_TRIALS = (240, 300)
KRONECKER_HEAVY_DEGREE = 7
# a label that fockstat's trial division crashes on (IndexError), reported
# by every census run beside its result; see trial_division_overruns
DIVISION_CRASH_LABEL = "2,1,1,1,1:-"


def _divisor_count(n: int) -> int:
    n = abs(n)
    count, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _sample_points(deg: int) -> list[int]:
    return [0] + [v for k in range(1, deg + 1) for v in (k, -k)]


def kronecker_trials(coeffs: list[int]) -> int:
    """Size of the divisor-combination space the trial factorization
    searches for ``coeffs`` (ascending, signed), 0 when it stops early."""
    deg = len(coeffs) - 1
    if deg <= 1 or deg > FACTORIZATION_DEGREE_BOUND:
        return 0
    xs = _sample_points(deg)
    values = [sum(c * x**s for s, c in enumerate(coeffs)) for x in xs[: deg // 2 + 1]]
    if any(v == 0 for v in values):
        return 0  # integer root: reducible before any trial
    counts = [2 * _divisor_count(v) for v in values]
    counts[0] //= 2
    return sum(math.prod(counts[: m + 1]) for m in range(2, deg // 2 + 1))


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Ascending coefficients of the polynomial through ``points``, by
    Newton's divided differences."""
    xs = [x for x, _ in points]
    table = [Fraction(y) for _, y in points]
    for k in range(1, len(points)):
        for i in range(len(points) - 1, k - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - k])
    poly = [table[-1]]
    for i in range(len(points) - 2, -1, -1):
        # poly * (x - xs[i]) + table[i]
        poly = [table[i] - xs[i] * poly[0]] + [a - xs[i] * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _division_overruns(a: list[Fraction], b: list[Fraction]) -> bool:
    """True when fockstat's trial division of ``a`` by ``b`` indexes past
    the start of a list.  Its loop trims the running remainder after the
    length test, so a remainder whose degree drops by two or more leaves a
    negative shift; the subtraction then wraps round (a wrong remainder),
    or raises IndexError once the shift passes minus the remainder's (or
    the quotient's) length.  This replays that loop step for step."""
    a = a[:]
    q_len = max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
        shift = len(a) - len(b)
        if shift < -q_len or shift < -len(a):
            return True
        factor = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return False


def trial_division_overruns(coeffs: list[int]) -> bool:
    """True when some candidate of the trial factorization of ``coeffs``
    (ascending, signed) makes fockstat's division overrun.  Every candidate
    is tried, so this also flags labels the library would settle before
    reaching the bad one."""
    deg = len(coeffs) - 1
    if kronecker_trials(coeffs) == 0:
        return False
    xs = _sample_points(deg)
    frac = [Fraction(c) for c in coeffs]
    for m in range(2, deg // 2 + 1):
        values = [sum(c * x**s for s, c in enumerate(coeffs)) for x in xs[: m + 1]]
        divisors = [[s * d for d in _divisors(v) for s in (1, -1)] for v in values]
        divisors[0] = [d for d in divisors[0] if d > 0]
        for combo in product(*divisors):
            cand = _interpolate(list(zip(xs, combo)))
            if len(cand) - 1 != m or any(c.denominator != 1 for c in cand):
                continue
            if _division_overruns(frac, cand):
                return True
    return False


class Census:
    name = "census"
    trace_cycles = 4
    strata = [(kind, method, deg) for deg in CENSUS_DEGREES
              for kind in (F, B) for method in ("roots", "random")]
    strata += [(kind, "heavy", KRONECKER_HEAVY_DEGREE) for kind in (F, B)]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.warm_rng = random.Random(f"warm-{seed}")
        self.used: set[str] = set()

    def _draw(self, rng, kind, method, deg) -> list[int]:
        if method == "roots":
            # integer roots: q(x) = prod (r + x) or prod (1 + r x) for the
            # fermionic-like kind, 1/Q+ with roots 1/r for the bosonic-like
            c = [1]
            flip = rng.random() < 0.5
            for _ in range(deg):
                r = rng.randint(1, CENSUS_COEFF_MAX)
                a, b = (1, r) if (kind is B or flip) else (r, 1)
                c = [a * lo + b * hi for lo, hi in zip(c + [0], [0] + c)]
            return c
        q = [rng.randint(1, CENSUS_COEFF_MAX) for _ in range(deg + 1)]
        if kind is B:
            q[0] = 1
        return q

    def _fresh(self, rng, kind, method, deg) -> str:
        # low degrees hold few distinct labels: when a stratum runs dry,
        # draw from the next degree up (same kind and method)
        while True:
            for _ in range(64):
                q = self._draw(rng, kind, method, deg)
                label = _label(kind, q)
                if label in self.used:
                    continue
                if method != "roots":
                    trials = kronecker_trials(_signed(kind, q))
                    lo, hi = KRONECKER_HEAVY_TRIALS if method == "heavy" else (0, KRONECKER_TRIAL_BUDGET)
                    if not lo <= trials <= hi or trial_division_overruns(_signed(kind, q)):
                        continue
                self.used.add(label)
                return label
            deg = min(deg + 1, FACTORIZATION_DEGREE_BOUND)

    def _op(self, label: str) -> Op:
        spec = _spec(label)
        modes = 3 if spec.order <= 4 else 2
        # a bosonic-like decomposition needs a character horizon,
        # max_weight + modes - 1, of at least the label's degree
        max_weight = max(4, spec.order - modes + 1)
        return Op(f"deg{spec.order}", label, (modes, max_weight))

    def warmup_ops(self) -> list[Op]:
        return [self._op(self._fresh(self.warm_rng, kind, method, deg))
                for kind, method, deg in self.strata if deg <= 4]

    def next_cycle(self) -> list[Op]:
        ops = [self._op(self._fresh(self.rng, *s)) for s in self.strata]
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run(self, op: Op):
        first = self._cli(["classify", op.label])
        second = None
        if first[0] == cli.EXIT_OK:
            modes, max_weight = op.args
            argv = ["decompose", op.label, "--modes", str(modes)]
            if op.label.endswith("+"):
                argv += ["--max-weight", str(max_weight)]
            second = self._cli(argv)
        return first, second

    def check(self, op: Op, out) -> str | None:
        (code, stdout, stderr), second = out
        spec = _spec(op.label)
        if code not in (cli.EXIT_OK, cli.EXIT_INVALID_STATISTICS):
            return f"classify_exit_{code}"
        report = json.loads(stdout)
        valid = exact_root_count(spec.kind, spec.q) == spec.order
        if report["valid"] != valid or (code == cli.EXIT_OK) != valid:
            return "verdict_mismatch"
        if not valid:
            return None
        code2, stdout2, _ = second
        if code2 != cli.EXIT_OK:
            return f"decompose_exit_{code2}"
        dec = json.loads(stdout2)
        if not dec["entries"] or any(e["multiplicity"] <= 0 for e in dec["entries"]):
            return "nonpositive_multiplicity"
        if spec.is_fermionic_like:
            check = dec.get("dimension_check")
            expected = sum(spec.q) ** op.args[0]  # (p + 1)^d
            if not check or check["sum"] != expected or check["expected"] != expected:
                return "dimension_check"
        return None

    def known_defects(self) -> dict[str, str]:
        """What ``classify`` does today on one seeded degree-9 label and on
        the trial-division crash label: two known defects the timed labels
        stay clear of.  Run after the checks; neither is a timed op."""
        q = self._draw(self.warm_rng, F, "roots", FACTORIZATION_DEGREE_BOUND + 1)
        outcomes = {}
        for label in (_label(F, q), DIVISION_CRASH_LABEL):
            try:
                code, _, stderr = self._cli(["classify", label])
                outcomes[label] = f"exit {code}" + (f": {stderr.strip()}" if stderr.strip() else "")
            except Exception as e:  # noqa: BLE001 - the crash is the outcome
                outcomes[label] = f"{type(e).__name__}: {e}"
        return outcomes


# ---------------------------------------------------------------------------
# gas: a few labels, re-gated on every thermo request

GAS_MODES = 200
# a 1,3,2:+ solve over 200 modes takes twice as long as the other bosonic
# solves; at half the modes the three form one cost class, in which the op
# tail falls
SOLVE_MODES = {"1,3,2:+": GAS_MODES // 2}
# grid points per sweep, set so that a sweep of each label costs about the
# same: the op median then falls among many similar ops
SWEEP_STEPS = {"1,1:+": 960, "1,3,2:+": 400, "1,6,11,6:+": 256}


def occupation(spec: StatisticsSpec, t: float) -> float:
    """Mean excitation of one mode at y = e^t, written independently of
    fockstat.thermo: log-sum-exp ratio (fermionic-like) or -y P'/P."""
    if spec.is_fermionic_like:
        terms = [s * t + math.log(c) for s, c in enumerate(spec.q)]
        m = max(terms)
        w = [math.exp(v - m) for v in terms]
        return math.fsum(s * x for s, x in enumerate(w)) / math.fsum(w)
    y = math.exp(t)
    p = _signed(spec.kind, spec.q)
    value = sum(c * y**s for s, c in enumerate(p))
    deriv = sum(s * c * y ** (s - 1) for s, c in enumerate(p) if s)
    return -y * deriv / value


def smallest_positive_root(spec: StatisticsSpec) -> float:
    roots = np.roots(list(reversed(_signed(spec.kind, spec.q))))
    return float(min(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0))


class Gas:
    name = "gas"
    trace_cycles = 2
    # three op classes of three: fast fermionic-like solves, bosonic-like
    # sweeps across the divergence wall, slow bosonic-like solves
    cycle = (
        ("solve", "1,2:-"),
        ("solve", "1,3,1:-"),
        ("solve", "1,3,3,1:-"),
        ("sweep", "1,1:+"),
        ("sweep", "1,3,2:+"),
        ("sweep", "1,6,11,6:+"),
        ("solve", "1,1:+"),
        ("solve", "1,2:+"),
        ("solve", "1,3,2:+"),
    )

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.warm_rng = random.Random(f"warm-{seed}")

    def _op(self, rng, kind: str, label: str, scale: float = 1.0) -> Op:
        # parameters jitter around one operating point: every request is
        # new, but its cost depends little on the seed
        spec = _spec(label)
        beta = rng.uniform(0.9, 1.1)
        if kind == "solve":
            modes = int(SOLVE_MODES.get(label, GAS_MODES) * scale)
            energies = sorted(rng.uniform(0.0, 5.0) for _ in range(modes))
            cap = modes * spec.order if spec.is_fermionic_like else modes / 2
            target = rng.uniform(0.2, 0.3) * cap
            return Op(f"solve {label}", label, (spec, energies, beta, target))
        mu = rng.uniform(-0.1, 0.1)
        lo, hi = rng.uniform(-1.6, -1.4), rng.uniform(3.9, 4.1)
        return Op(f"sweep {label}", label, (spec, (lo, hi, int(SWEEP_STEPS[label] * scale)), beta, mu))

    def warmup_ops(self) -> list[Op]:
        # every op kind once, at a twentieth of the size
        return [self._op(self.warm_rng, k, lab, scale=0.05) for k, lab in self.cycle]

    def next_cycle(self) -> list[Op]:
        return [self._op(self.rng, k, lab) for k, lab in self.cycle]

    def run(self, op: Op):
        if op.kind.startswith("solve"):
            spec, energies, beta, target = op.args
            mu = thermo.solve_mu(spec, energies, beta, target)
            return mu, thermo.thermo_report(spec, energies, thermo.EnsembleParams(beta, mu))
        spec, grid, beta, mu = op.args
        return thermo.sweep(spec, grid, thermo.EnsembleParams(beta, mu))

    def check(self, op: Op, out) -> str | None:
        if op.kind.startswith("solve"):
            spec, energies, beta, target = op.args
            mu, rep = out
            if not abs(rep.mean_N - target) <= thermo.SOLVE_TOL:
                return "solve_tolerance"
            mine = math.fsum(occupation(spec, -beta * (e - mu)) for e in energies)
            if not abs(mine - rep.mean_N) <= 1e-9 * max(1.0, target):
                return "occupation_mismatch"
            return None
        spec, (lo, hi, steps), beta, mu = op.args
        rows = out
        if len(rows) != steps or any(b.epsilon <= a.epsilon for a, b in zip(rows, rows[1:])):
            return "sweep_grid"
        flags = [r.flag for r in rows]
        n_div = flags.count("divergent")
        if not 0 < n_div < steps or flags != ["divergent"] * n_div + ["ok"] * (steps - n_div):
            return "sweep_wall_not_single"
        wall = mu - math.log(smallest_positive_root(spec)) / beta
        if rows[n_div - 1].epsilon > wall + 1e-9 or rows[n_div].epsilon < wall - 1e-9:
            return "sweep_wall_misplaced"
        if any(not math.isnan(r.n) for r in rows[:n_div]):
            return "sweep_divergent_value"
        if any(not (math.isfinite(r.n) and r.n > 0) for r in rows[n_div:]):
            return "sweep_value"
        return None


# ---------------------------------------------------------------------------
# interference: sector dynamics on seeded unitaries


def haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def balanced_splitter(rng: np.random.Generator) -> np.ndarray:
    a, b = rng.uniform(0, 2 * np.pi, 2)
    return np.array([[1, -np.exp(-1j * a)], [np.exp(1j * a), 1]]) * np.exp(1j * b) / np.sqrt(2)


class Interference:
    name = "interference"
    trace_cycles = 2
    # (what, label, modes, particles), in rising cost: four kinds below
    # 1,2:+, four above it, and five 1,2:+ ops, so that the op median falls
    # in the middle of that one kind's many samples
    cycle = (
        ("hom", "1,1:+", 2, 2),
        ("hom", "1,1:-", 2, 2),
        ("evolve", "1,2:-", 6, 3),
        ("evolve", "1,1:-", 7, 3),
    ) + (("evolve", "1,2:+", 4, 3),) * 5 + (
        ("evolve", "1,1:-", 8, 4),
        ("evolve", "1,2:-", 8, 4),
        ("evolve", "1,1:+", 4, 5),  # 3,136 permanents
        ("trace", "1,2,1:-", 8, None),  # 4^8 basis states
    )

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.warm_rng = np.random.default_rng([seed, 1])

    def _op(self, rng, what: str, label: str, d: int, N: int | None) -> Op:
        spec = _spec(label)
        kind = f"{what} {label} d={d}" + (f" N={N}" if N else "")
        if what == "hom":
            return Op(kind, label, (spec, balanced_splitter(rng), (1, 1), None))
        if what == "trace":
            return Op(kind, label, (spec, tuple(rng.uniform(0, 2 * np.pi, d))))
        ordinary = np.zeros(d, dtype=int)
        cells = rng.choice(d, N, replace=False) if spec.is_fermionic_like else rng.integers(0, d, N)
        np.add.at(ordinary, cells, 1)
        q = spec.q[1]
        occupied = [int(k) for k in ordinary if k]
        if spec.is_fermionic_like:
            aux = tuple(int(rng.integers(0, q)) for _ in occupied)
        else:
            aux = tuple(tuple(int(v) for v in rng.integers(0, q, k)) for k in occupied)
        return Op(kind, label, (spec, haar(rng, d), tuple(int(k) for k in ordinary), aux))

    def warmup_ops(self) -> list[Op]:
        # the cheap kinds; the heavier ones exercise no other code path
        return [self._op(self.warm_rng, *c) for c in self.cycle[:5]]

    def next_cycle(self) -> list[Op]:
        return [self._op(self.rng, *c) for c in self.cycle]

    def run(self, op: Op):
        if op.kind.startswith("trace"):
            spec, phases = op.args
            return dynamics.character_trace(spec, phases)
        spec, g, ordinary, aux = op.args
        vec = dynamics.AmplitudeVector.basis_state(spec, ordinary, aux)
        return dynamics.detection_probabilities(dynamics.evolve(g, vec))

    def check(self, op: Op, out) -> str | None:
        if op.kind.startswith("trace"):
            spec, phases = op.args
            expected = 1.0 + 0.0j
            for theta in phases:  # the trace factorises over modes
                expected *= sum(c * np.exp(1j * theta * s) for s, c in enumerate(spec.q))
            states = sum(spec.q) ** len(phases)
            return None if abs(out - expected) <= 1e-9 * states else "trace_mismatch"
        probs = out
        total = math.fsum(probs.values())
        if not abs(total - 1.0) <= dynamics.NORMALIZATION_TOL:
            return "normalization"
        if op.kind.startswith("hom"):
            coincidence = probs.get((1, 1), 0.0)
            if op.label.endswith("+"):  # bunching
                ok = coincidence < 1e-12 and all(abs(probs.get(s, 0.0) - 0.5) < 1e-12 for s in ((2, 0), (0, 2)))
            else:  # antibunching
                ok = abs(coincidence - 1.0) < 1e-12
            if not ok:
                return "hom"
        return None


# ---------------------------------------------------------------------------
# positivity: windowed Toeplitz-minor scans

# An exhaustive order-4 scan takes about 0.3 s at this horizon and about 4 s
# at horizon 12, where a run could hold only a handful: too few for the
# tail percentile to fall among them.
HORIZON = 8
ORDER4_COEFF_MAX = 9
# order 6 runs where it agrees with the gate at this horizon; with larger
# coefficients some invalid degree-2 labels pass it after 2.5-3.5 s scans
ORDER6_COEFF_MAX = 5
# the README's nine labels that order 4 cannot tell from valid ones
README_ORDER4_LABELS = ("1,3,3:-", "1,4,5:-", "2,4,3:-", "2,5,4:-", "3,3,1:-",
                        "3,4,2:-", "3,5,3:-", "4,5,2:-", "5,4,1:-")
# exhaustive or certified, by label: see the file's header
ORDER4_BLIND_SPOTS = dict(
    line.split() for line in (Path(__file__).with_name("order4_blind_h8.txt")).read_text().splitlines()
    if line and not line.startswith("#"))
# cheap (label, order) pairs per cycle, beside one exhaustive scan: the scans
# take most of the time, the cheap pairs most of the ops
CHEAP_PER_CYCLE = 100


def _grid(degree: int, coeff_max: int) -> list[str]:
    values = range(1, coeff_max + 1)
    labels = [_label(F, q) for q in product(values, repeat=degree + 1)]
    labels += [_label(B, (1,) + q) for q in product(values, repeat=degree)]
    return labels


@functools.lru_cache(maxsize=None)
def _exact_valid_cached(label: str) -> bool:
    return exact_valid(label)


def _det(m: list[list[int]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


class Positivity:
    name = "positivity"
    trace_cycles = 4
    # just outside the grid (a coefficient of 10): valid and invalid labels
    # of both kinds, so warm-up reaches the certificate and the scan
    warm_labels = ("1,10:-", "1,10,1:-", "10,1,1:-", "1,10,10:+", "1,1,10:+")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        low = _grid(1, ORDER6_COEFF_MAX) + _grid(2, ORDER6_COEFF_MAX)
        order4 = [lab for deg in (1, 2, 3) for lab in _grid(deg, ORDER4_COEFF_MAX)]
        cheap = [(lab, 6) for lab in low]
        cheap += [(lab, 4) for lab in order4 if ORDER4_BLIND_SPOTS.get(lab) != "exhaustive"]
        rng.shuffle(cheap)
        self.cheap = cheap
        # an exhaustive scan costs about the same for every label of one
        # degree, so cycles alternate degree 2 and degree 3 to keep the mix
        # fixed; the README's nine come first
        by_degree: dict[int, list[str]] = {2: [], 3: []}
        for lab, how in ORDER4_BLIND_SPOTS.items():
            if how == "exhaustive" and lab not in README_ORDER4_LABELS:
                by_degree[lab.count(",")].append(lab)
        for group in by_degree.values():
            rng.shuffle(group)
        readme = list(README_ORDER4_LABELS)
        rng.shuffle(readme)
        by_degree[2] = readme + by_degree[2]
        self.heavy = [lab for pair in zip(by_degree[2], by_degree[3]) for lab in pair]

    def _op(self, pair) -> Op:
        label, order = pair
        exhaustive = order == 4 and ORDER4_BLIND_SPOTS.get(label) == "exhaustive"
        return Op(f"order{order}" + (" exhaustive" if exhaustive else ""), label, (_spec(label), order))

    def warmup_ops(self) -> list[Op]:
        return [self._op((label, order)) for label in self.warm_labels for order in (4, 6)]

    def next_cycle(self) -> list[Op]:
        if not self.heavy or len(self.cheap) < CHEAP_PER_CYCLE:
            raise Exhausted("every exhaustive scan or cheap pair of the grid has run")
        cheap, self.cheap = self.cheap[:CHEAP_PER_CYCLE], self.cheap[CHEAP_PER_CYCLE:]
        return [self._op((self.heavy.pop(0), 4))] + [self._op(p) for p in cheap]

    @staticmethod
    def series(spec: StatisticsSpec) -> IntegerSeries | None:
        coeffs = classify.character_coefficients(spec, HORIZON)
        if any(c < 0 for c in coeffs):
            return None  # not a character: no series to scan
        coeffs = coeffs + [0] * (HORIZON + 1 - len(coeffs))
        return IntegerSeries(coeffs, truncated=not spec.is_fermionic_like)

    def run(self, op: Op):
        spec, order = op.args
        series = self.series(spec)
        if series is None:
            return None
        return classify.totally_positive_upto(series, order)

    def check(self, op: Op, out) -> str | None:
        spec, order = op.args
        valid = _exact_valid_cached(op.label)
        verdict = bool(out) if out is not None else False
        expected = valid or (order == 4 and op.label in ORDER4_BLIND_SPOTS)
        if verdict != expected:
            return f"order{order}_verdict"
        if out is not None and not out:
            rows, cols = out.witness_rows, out.witness_cols
            series = self.series(spec)
            minor = [[series.coeff(i - j) for j in cols] for i in rows]
            value = _det(minor)
            if not (len(rows) == len(cols) <= order and value < 0 and value == out.witness_value):
                return "witness"
        return None


WORKLOADS = {w.name: w for w in (Census, Gas, Interference, Positivity)}
