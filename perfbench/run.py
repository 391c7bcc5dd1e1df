"""fockstat benchmark: four closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root; fockstat is imported from ``src/``.  Each
workload runs in fresh processes with BLAS pinned to one thread: set-up
alone ``SETUP_REPEATS`` times (process start to inputs generated and
warm-up done), then once more followed by the measurement.  The load is
a closed loop: one client, one op in flight, the next op sent when the
previous one returns.  Whole cycles of the workload's op mix run until
``--seconds`` have passed; outputs are checked after the timed loop.

``--trace 0`` prints the end-to-end metrics (ms, s, ops/s, MB and ratios)
as ``name value unit`` lines, then one JSON line with ``correct``,
``attempted``, ``failed`` and the metrics named in BENCHMARK.json.
``--trace 1`` runs a fixed number of cycles under the per-layer tracer
(see tracer.py) and prints the per-layer metrics instead; its spans go to
``.bench_out/``.

An op fails when an exception escapes it, when the CLI exits with a code
the check does not expect, or when its output fails the check.
``correct`` is false when any produced output was wrong; ops that
errored are counted in ``failed`` with their cause.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("census", "gas", "interference", "positivity")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
# causes that mean an op errored rather than returned a wrong answer
ERROR_CAUSES = ("exception_", "classify_exit_", "decompose_exit_")
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, spans: Path | None = None):
    """Run one worker process; returns (set-up seconds, result dict or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans is not None:
        argv += ["--spans", str(spans)]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} worker ({mode}) failed with exit code {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if mode != "setup" else None)


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    return E2E_UNITS.get(last) or {"self_s": "s", "calls": "count", "errors": "count"}.get(last, "1")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond
    it: the 11th largest.  Returns (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def src_metadata() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def machine_metadata() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns a record with metrics and metadata."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if trace:
        spans = out_dir / f"spans-{name}-seed{seed}.csv"
        setup_s, res = spawn(name, seed, seconds, "trace", spans)
        metrics = dict(res["per_layer"])
    else:
        setups = [spawn(name, seed, seconds, "setup")[0] for _ in range(SETUP_REPEATS)]
        setup_s, res = spawn(name, seed, seconds, "run")
        setups.append(setup_s)
        lats = res["latencies_s"]
        if not lats:
            raise BenchError(f"{name}: no op completed")
        tail_s, pct, beyond = tail(lats)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lats) / sum(lats),
            "op_p50_ms": 1000.0 * statistics.median(lats),
            "op_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        res["tail"] = {"percentile": pct, "samples": len(lats), "beyond": beyond}
        res["setups_s"] = setups
    kinds: dict[str, list[float]] = {}
    for kind, lat in zip(res["op_kinds"], res["latencies_s"]):
        kinds.setdefault(kind, []).append(lat)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        **src_metadata(), **machine_metadata(), "numpy": res["numpy"],
        "label_repeat_share": res["repeat_share"],
        "failures": res["failures"],
        "op_p50_ms_by_kind": {k: 1000.0 * statistics.median(v) for k, v in sorted(kinds.items())},
    }
    for key in ("tail", "setups_s", "sites", "spans", "known_defects"):
        if key in res:
            meta[key] = res[key]
    record = {
        "correct": not any(not c.startswith(ERROR_CAUSES) for c in res["failures"]),
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": metrics,
        "meta": meta,
    }
    suffix = "trace" if trace else "run"
    (out_dir / f"{name}-seed{seed}-{suffix}.json").write_text(json.dumps(record, indent=1))
    return record


def report(name: str, record: dict) -> None:
    m, meta = record["metrics"], record["meta"]
    if meta["trace"]:
        for key in sorted(m):
            print(f"{name:12s} {key:50s} {m[key]:.6g}")
        print(f"{name:12s} spans {meta['spans']} -> .bench_out/spans-{name}-seed{meta['seed']}.csv")
    else:
        for key, unit in E2E_UNITS.items():
            note = ""
            if key == "op_tail_ms":
                t = meta["tail"]
                note = f"  (p{t['percentile']:.2f}: {t['beyond']} of {t['samples']} ops beyond)"
            print(f"{name:12s} {key:14s} {m[key]:12.4f} {unit}{note}")
        failed_ratio = record["failed"] / record["attempted"]
        print(f"{name:12s} {'failed_ratio':14s} {failed_ratio:12.4f} 1"
              f"  ({record['failed']} of {record['attempted']} ops)")
    print(f"{name:12s} failures {json.dumps(meta['failures'], sort_keys=True)}")
    if "known_defects" in meta:
        print(f"{name:12s} known_defects (untimed, not ops) {json.dumps(meta['known_defects'])}")
    print(f"{name:12s} meta {json.dumps({k: meta[k] for k in ('seed', 'commit', 'src_sha256', 'src_lines', 'nproc', 'cpu_model', 'python', 'numpy', 'label_repeat_share')})}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fockstat" / "__init__.py").is_file():
        print(f"error: no fockstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, records[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = records[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in records.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
