"""One workload in one fresh process; started by run.py, not by hand.

Modes:
  setup  import, generate inputs, warm up, report ready, exit.
  run    as setup, then the timed closed loop for --seconds, then the
         output checks; prints one JSON result line.
  trace  as setup, then a fixed number of cycles, each op traced (the
         per-layer counts repeat exactly for a seed) and untraced (for
         the overhead ratio), then the checks; prints one JSON result line.

"READY" on stdout marks the end of set-up; the parent times set-up from
process start to that line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, Exhausted


def run_op(wl, op):
    """Time one op; an exception is its output, classified by check_all."""
    t0 = perf_counter()
    try:
        out, exc = wl.run(op), None
    except Exception as e:  # noqa: BLE001 - any escape is a failed op
        out, exc = None, e
    return perf_counter() - t0, out, exc


def timed_loop(wl, seconds: float):
    """Closed loop, one op in flight: start another whole cycle while the
    time budget lasts.  Returns (ops, latencies, outputs, exceptions)."""
    ops, lats, outs, excs = [], [], [], []
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        try:
            cycle = wl.next_cycle()
        except Exhausted:
            break
        for op in cycle:
            lat, out, exc = run_op(wl, op)
            ops.append(op)
            lats.append(lat)
            outs.append(out)
            excs.append(exc)
    return ops, lats, outs, excs


def check_all(wl, ops, outs, excs) -> dict[str, int]:
    """Failure causes with counts; an op fails on an escaped exception or
    a failed check."""
    causes: dict[str, int] = {}
    for op, out, exc in zip(ops, outs, excs):
        if exc is not None:
            cause = f"exception_{type(exc).__name__}"
        else:
            try:
                cause = wl.check(op, out)
            except Exception as e:  # noqa: BLE001 - a check that cannot run fails the op
                cause = f"check_raised_{type(e).__name__}"
        if cause:
            causes[cause] = causes.get(cause, 0) + 1
    return causes


def repeat_share(ops) -> float:
    seen, repeats = set(), 0
    for op in ops:
        repeats += op.label in seen
        seen.add(op.label)
    return repeats / len(ops) if ops else 0.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", help="trace mode: CSV file for the spans")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    for op in wl.warmup_ops():
        wl.run(op)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"numpy": np.__version__}
    if args.mode == "run":
        ops, lats, outs, excs = timed_loop(wl, args.seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["latencies_s"] = lats
    else:
        from tracer import Tracer

        cycles = [wl.next_cycle() for _ in range(wl.trace_cycles)]
        ops = [op for cycle in cycles for op in cycle]
        # each op runs traced and untraced back to back, in alternating
        # order, so that both see the same machine speed
        tracer = Tracer()
        outs, excs, traced_s, untraced_s = [], [], 0.0, 0.0
        for i, op in enumerate(ops):
            if i % 2:
                untraced_s += run_op(wl, op)[0]
            tracer.op = i
            tracer.install()
            lat, out, exc = run_op(wl, op)
            tracer.uninstall()
            traced_s += lat
            outs.append(out)
            excs.append(exc)
            if not i % 2:
                untraced_s += run_op(wl, op)[0]
        metrics = tracer.metrics()
        metrics["trace_overhead_ratio"] = traced_s / untraced_s - 1.0
        result["per_layer"] = metrics
        result["sites"] = tracer.sites
        result["spans"] = tracer.dump(args.spans) if args.spans else len(tracer.span_start)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["latencies_s"] = []
    result["ops"] = len(ops)
    result["op_kinds"] = [op.kind for op in ops]
    result["repeat_share"] = repeat_share(ops)
    result["failures"] = check_all(wl, ops, outs, excs)
    result["failed"] = sum(result["failures"].values())
    if hasattr(wl, "known_defects"):
        result["known_defects"] = wl.known_defects()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero
        traceback.print_exc()
        sys.exit(1)
