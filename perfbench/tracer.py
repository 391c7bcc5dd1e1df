"""Per-layer tracing of fockstat from outside the package.

Each traced function is replaced by a timing wrapper at *every* binding
site: the defining module and every other ``fockstat`` module (or the
package itself) that imported the same function object under any name.
A call made through any binding is therefore counted once, by the same
wrapper.

Every wrapped call becomes a span (name, start, end, parent span, op id)
kept in compact in-memory arrays and written out by :meth:`Tracer.dump`.
Per function the tracer aggregates calls, calls that raised, and self
time: the span's duration minus the time covered by its child spans.
For a few functions it also keeps the set of distinct argument contents,
which gives the ``distinct_ratio`` (distinct contents / calls): the share
of the work a memo keyed on that content could not skip.

Helpers whose per-call cost is below the wrapper's own (about a
microsecond), such as ``fock.excitation_of``, are deliberately not
traced.
"""

from __future__ import annotations

import csv
import importlib
import sys
from array import array
from time import perf_counter

# (module, function) pairs, named in metrics as "<module>.<function>" with
# any leading underscore dropped (``symfunc._det_bareiss`` is
# ``symfunc.det_bareiss``).
TRACED = (
    ("symfunc", "_det_bareiss"),
    ("symfunc", "toeplitz_minor"),
    ("symfunc", "schur_expand_product"),
    ("classify", "is_valid_statistics"),
    ("classify", "is_irreducible_statistics"),
    ("classify", "single_mode_character"),
    ("classify", "count_real_roots_upto"),
    ("classify", "totally_positive_upto"),
    ("fock", "decompose"),
    ("fock", "enumerate_basis"),
    ("fock", "sector_states"),
    ("fock", "to_labeled"),
    ("fock", "from_labeled"),
    ("dynamics", "permanent"),
    ("dynamics", "fermionic_rep"),
    ("dynamics", "bosonic_rep"),
    ("dynamics", "sector_rep"),
    ("dynamics", "evolve"),
    ("dynamics", "detection_probabilities"),
    ("dynamics", "character_trace"),
    ("thermo", "solve_mu"),
    ("thermo", "sweep"),
    ("thermo", "mean_occupation"),
    ("thermo", "thermo_report"),
    ("thermo", "grand_logZ"),
    ("cli", "main"),
)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Functions whose distinct argument contents are counted, with the content
# that matters: the polynomial (not the evaluation point) for the Sturm
# count, the entries for the determinant.
DISTINCT_KEYS = {
    "classify.count_real_roots_upto": lambda args, kwargs: tuple(_first_arg(args, kwargs)),
    "symfunc.det_bareiss": lambda args, kwargs: tuple(map(tuple, _first_arg(args, kwargs))),
}

NAMES = tuple(f"{m}.{f.lstrip('_')}" for m, f in TRACED)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        self.distinct = {i: set() for i, name in enumerate(NAMES) if name in DISTINCT_KEYS}
        self.op = -1  # id of the op in flight, set by the caller
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        self.sites: dict[str, list[str]] = {}  # metric name -> wrapped bindings

    def _wrap(self, idx: int, fn):
        key = DISTINCT_KEYS.get(NAMES[idx])
        seen = self.distinct.get(idx)
        stack = self._stack
        calls, errors, self_s = self.calls, self.errors, self.self_s
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(key(args, kwargs))
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                starts[sid] = t0
                ends[sid] = t1
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _find_sites(self) -> None:
        for mname in {m for m, _ in TRACED}:
            importlib.import_module(f"fockstat.{mname}")
        sites = [mod for name, mod in sorted(sys.modules.items())
                 if mod is not None and (name == "fockstat" or name.startswith("fockstat."))]
        for idx, (mname, fname) in enumerate(TRACED):
            orig = getattr(sys.modules[f"fockstat.{mname}"], fname)
            wrapper = self._wrap(idx, orig)
            for mod in sites:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig, wrapper))
                        self.sites.setdefault(NAMES[idx], []).append(f"{mod.__name__}.{attr}")

    def install(self) -> None:
        """Wrap every binding site (cheap after the first call)."""
        if not self._patches:
            self._find_sites()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def metrics(self) -> dict[str, float]:
        """Aggregated per-layer figures (without the overhead ratio)."""
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.errors"] = self.errors[i]
            if i in self.distinct:
                out[f"{name}.distinct_ratio"] = (
                    len(self.distinct[i]) / self.calls[i] if self.calls[i] else 0.0
                )
        return out

    def distinct_count(self, name: str) -> int:
        return len(self.distinct[NAMES.index(name)])

    def dump(self, path) -> int:
        """Write every span as CSV (times relative to the first span)."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
            for sid in range(len(self.span_start)):
                w.writerow([
                    sid,
                    NAMES[self.span_name[sid]],
                    f"{self.span_start[sid] - base:.9f}",
                    f"{self.span_end[sid] - base:.9f}",
                    self.span_parent[sid],
                    self.span_op[sid],
                ])
        return len(self.span_start)
