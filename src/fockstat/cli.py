"""Command-line interface.

Subcommands: classify, decompose, simulate, thermo.  All results go to
stdout (JSON by default, CSV where tabular), diagnostics to stderr.

Exit codes: 0 ok, 1 oracle disagreement (decompose --check-oracle),
2 argument/parse error, 3 invalid statistics label, 4 bad unitary, 5 bad
occupation or auxiliary label, 6 divergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import dynamics, fock, symfunc, thermo
from .classify import (
    Kind,
    StatisticsSpec,
    is_valid_statistics,
    require_valid,
    single_mode_character,
)
from .errors import (
    DivergenceError,
    InvalidStatisticsError,
    ResourceGuardError,
    UnsupportedStatisticsError,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_ORACLE_DISAGREEMENT = 1
EXIT_PARSE = 2
EXIT_INVALID_STATISTICS = 3
EXIT_BAD_UNITARY = 4
EXIT_BAD_OCCUPATION = 5
EXIT_DIVERGENCE = 6

UNITARY_FILE_TOL = 1e-9


class LabelError(ValueError):
    pass


class UnitaryError(ValueError):
    pass


def parse_label(text: str) -> StatisticsSpec:
    """Parse the wire form 'q0,q1,...:+' / 'q0,q1,...:-'."""
    try:
        coeffs_text, _, sign = text.rpartition(":")
        if sign not in ("+", "-") or not coeffs_text:
            raise ValueError(f"label must look like '1,2:-', got {text!r}")
        q = [int(v) for v in coeffs_text.split(",")]
        kind = Kind.FERMIONIC_LIKE if sign == "-" else Kind.BOSONIC_LIKE
        return StatisticsSpec(kind, q)
    except ValueError as exc:
        raise LabelError(str(exc)) from exc


def _round_sig(x: float, digits: int = 12) -> float:
    return float(f"{x:.{digits}g}")


def _complex_json(z: complex) -> dict:
    return {"re": _round_sig(z.real), "im": _round_sig(z.imag)}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_classify(args) -> int:
    spec = parse_label(args.label)
    report = is_valid_statistics(spec)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "label": spec.label(),
            "valid": report.valid,
            "irreducible": report.irreducible,
            "order": report.order,
            "max_occupation": report.max_occupation,
            "unique_vacuum": report.unique_vacuum,
            "roots": report.roots_summary,
            "reason": report.failure_reason,
        }
    )
    return EXIT_OK if report.valid else EXIT_INVALID_STATISTICS


def _cmd_decompose(args) -> int:
    spec = parse_label(args.label)
    try:
        dec = fock.decompose(spec, args.modes, args.max_weight)
    except ValueError as exc:
        raise LabelError(str(exc)) from exc
    agrees = None
    if args.check_oracle:
        series = single_mode_character(spec, dec.max_weight + args.modes - 1)
        agrees = symfunc.schur_expand_oracle(series, args.modes, dec.max_weight) == dec.entries
    rows = [(lam, c) for lam, c in dec.sorted_entries()]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["partition", "multiplicity"])
        for lam, c in rows:
            writer.writerow([" ".join(str(p) for p in lam.parts), c])
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "label": spec.label(),
            "modes": args.modes,
            "max_weight": dec.max_weight,
            "entries": [
                {"partition": list(lam.parts), "multiplicity": c} for lam, c in rows
            ],
        }
        if dec.dimension_check is not None:
            total, expected = dec.dimension_check
            payload["dimension_check"] = {"sum": total, "expected": expected}
        if agrees is not None:
            payload["oracle_agrees"] = agrees
        _emit(payload)
    if agrees is False:
        print("oracle disagreement: minor and brute-force expansions differ", file=sys.stderr)
        return EXIT_ORACLE_DISAGREEMENT
    return EXIT_OK


def _parse_input_state(text: str) -> tuple:
    """Ordinary occupations plus one auxiliary integer per occupied mode
    (None for the default)."""
    parts = text.split(",")
    aux_text = parts.pop()[len("aux=") :] if parts[-1].startswith("aux=") else None
    try:
        ordinary = tuple(int(v) for v in parts)
    except ValueError as exc:
        raise LabelError(f"bad occupation list {text!r}: {exc}") from exc
    if aux_text is None:
        return ordinary, None
    try:
        return ordinary, [int(v) for v in aux_text.split("/")] if aux_text else []
    except ValueError as exc:
        raise LabelError(f"bad auxiliary labels {aux_text!r}: {exc}") from exc


def _labeled_json(spec: StatisticsSpec, state) -> dict:
    lab = fock.to_labeled(spec, state)
    return {"state": list(lab.ordinary), "aux": list(lab.aux)}


def _load_unitary(args) -> np.ndarray:
    kind = args.unitary[0]
    if kind == "bs":
        if len(args.unitary) != 1:
            raise LabelError("usage: --unitary bs")
        if args.modes != 2:
            raise LabelError("the beam splitter acts on exactly 2 modes")
        return dynamics.beamsplitter()
    if kind == "haar":
        try:
            (seed,) = map(int, args.unitary[1:])
            if seed < 0:  # numpy seeds are non-negative
                raise ValueError
        except ValueError:
            raise LabelError("usage: --unitary haar SEED") from None
        return dynamics.haar_unitary(args.modes, seed)
    if kind == "file":
        if len(args.unitary) != 2:
            raise LabelError("usage: --unitary file PATH")
        rows = []
        with open(args.unitary[1], newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                try:
                    vals = [float(v) for v in row]
                except ValueError as exc:
                    raise UnitaryError(f"bad matrix entry: {exc}") from exc
                if len(vals) != 2 * args.modes:
                    raise UnitaryError(
                        f"expected {2 * args.modes} columns (re,im pairs), "
                        f"got {len(vals)}"
                    )
                rows.append(
                    [complex(vals[2 * j], vals[2 * j + 1]) for j in range(args.modes)]
                )
        if len(rows) != args.modes:
            raise UnitaryError(f"expected {args.modes} rows, got {len(rows)}")
        g = np.array(rows, dtype=complex)
        try:
            dynamics.check_unitary(g, tol=UNITARY_FILE_TOL)
        except ValueError as exc:
            raise UnitaryError(str(exc)) from exc
        return g
    raise LabelError(f"unknown unitary kind {kind!r} (use bs, file, haar)")


def _cmd_simulate(args) -> int:
    spec = parse_label(args.label)
    require_valid(spec)
    g = _load_unitary(args)
    ordinary, values = _parse_input_state(args.input)
    if len(ordinary) != args.modes:
        raise LabelError(f"input lists {len(ordinary)} modes but --modes is {args.modes}")
    dynamics._require_sector(spec, args.modes, sum(ordinary))  # before any per-particle work
    state = fock.from_aux_integers(spec, ordinary, values)
    vec = dynamics.AmplitudeVector(spec, (state,), [1.0])
    out = dynamics.evolve(g, vec)
    probs = dynamics.detection_probabilities(out)
    prob_rows = sorted(probs.items(), key=lambda kv: (-kv[1], kv[0]))
    amp_rows = [
        {**_labeled_json(spec, b), "amplitude": _complex_json(complex(a))}
        for b, a in zip(out.basis, out.amplitudes)
        if abs(a) >= 1e-14
    ]
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "label": spec.label(),
            "modes": args.modes,
            "input": _labeled_json(spec, vec.basis[0]),
            "probabilities": [
                {"state": list(s), "probability": _round_sig(p)}
                for s, p in prob_rows
            ],
            "amplitudes": amp_rows,
        }
    )
    return EXIT_OK


def _cmd_thermo(args) -> int:
    spec = parse_label(args.label)
    try:
        energies = [float(v) for v in args.energies.split(",")]
    except ValueError as exc:
        raise LabelError(f"bad energies {args.energies!r}: {exc}") from exc
    beta = args.beta
    numbers = energies + [v for v in (beta, args.mu, args.target_N) if v is not None]
    if not (all(map(math.isfinite, numbers)) and beta > 0):
        raise LabelError(
            "--energies, --mu and --target-N must be finite, --beta finite and positive"
        )
    if args.sweep:
        try:
            lo, hi, steps = args.sweep.split(":")
            rng = (float(lo), float(hi), int(steps))
        except ValueError as exc:
            raise LabelError(f"bad sweep {args.sweep!r}: use lo:hi:steps") from exc
    try:
        mu = args.mu
        if args.target_N is not None:
            mu = thermo.solve_mu(spec, energies, beta, args.target_N)
        params = thermo.EnsembleParams(beta=beta, mu=mu)
        if args.sweep:
            rows = thermo.sweep(spec, rng, params)
        else:
            rep = thermo.thermo_report(spec, energies, params)
    except ValueError as exc:
        raise LabelError(str(exc)) from exc
    if args.sweep:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["epsilon", "n", "flag"])
        for row in rows:
            writer.writerow([repr(row.epsilon), repr(row.n), row.flag])
        return EXIT_OK
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "label": spec.label(),
            "beta": beta,
            "mu": mu,
            "logZ": rep.logZ,
            "mean_N": rep.mean_N,
            "mean_E": rep.mean_E,
            "entropy": rep.entropy,
            "occupations": list(rep.occupations),
        }
    )
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockstat",
        description=(
            "Classify quantum particle statistics labels, decompose Fock "
            "spaces into irreducible sectors, simulate multi-particle "
            "interference, and compute ideal-gas thermodynamics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="validity/irreducibility of a label")
    p.add_argument("label", help="statistics label, e.g. 1,2:-")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", help="irreducible sector multiplicities")
    p.add_argument("label")
    p.add_argument("--modes", type=positive_int, required=True)
    p.add_argument(
        "--max-weight",
        type=int,
        default=None,
        help="weight bound (defaults to the full space for fermionic-like labels)",
    )
    p.add_argument(
        "--check-oracle",
        action="store_true",
        help="cross-check against the brute-force expansion",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("simulate", help="evolve a state and print detector statistics")
    p.add_argument("label")
    p.add_argument("--modes", type=positive_int, required=True)
    p.add_argument(
        "--input",
        required=True,
        help="ordinary occupations, e.g. 1,1 or 1,1,aux=0/1 "
        "(one auxiliary integer per occupied mode)",
    )
    p.add_argument(
        "--unitary",
        nargs="+",
        required=True,
        help="bs | file PATH | haar SEED",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("thermo", help="grand-canonical report or sweep")
    p.add_argument("label")
    p.add_argument("--energies", required=True, help="comma-separated mode energies")
    p.add_argument("--beta", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", type=float)
    group.add_argument("--target-N", type=float, dest="target_N")
    p.add_argument("--sweep", help="lo:hi:steps grid of mode energies")
    p.set_defaults(func=_cmd_thermo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LabelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidStatisticsError as exc:
        print(f"invalid statistics: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATISTICS
    except DivergenceError as exc:
        print(f"divergence: {exc} [code={exc.code}]", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ResourceGuardError, UnsupportedStatisticsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnitaryError as exc:
        print(f"bad unitary: {exc}", file=sys.stderr)
        return EXIT_BAD_UNITARY
    except ValueError as exc:
        print(f"bad state: {exc}", file=sys.stderr)
        return EXIT_BAD_OCCUPATION


if __name__ == "__main__":
    sys.exit(main())
