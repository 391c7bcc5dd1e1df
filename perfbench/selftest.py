"""Self-test of the per-layer tracer against counts known by hand.

    python3 perfbench/selftest.py      # from the repository root

Checks that every binding site of the traced functions is wrapped, and
that three traced calls give the expected counts:

  bosonic_rep, d=4, N=5                      dynamics.permanent.calls = 3,136
  totally_positive_upto(1,3,3:-, order 4)    symfunc.det_bareiss.calls = 36,163
                                             on 415 distinct matrices
  solve_mu(1,3,2:+, eps_i = 0.05 i, i < 200, classify.count_real_roots_upto.calls
           beta = 1, N = 50)                 = 8,053 on 1 distinct polynomial

Exits 0 when all hold, 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fockstat import classify, dynamics, thermo  # noqa: E402
from fockstat.classify import Kind, StatisticsSpec  # noqa: E402
from fockstat.symfunc import IntegerSeries  # noqa: E402
from tracer import Tracer  # noqa: E402

# each of these must be wrapped where it is bound, not only where defined
REQUIRED_SITES = {
    "classify.is_valid_statistics": ("fockstat.classify", "fockstat.fock",
                                     "fockstat.thermo", "fockstat.cli"),
    "symfunc.det_bareiss": ("fockstat.symfunc", "fockstat.classify"),
    "fock.sector_states": ("fockstat.fock", "fockstat.dynamics"),
    "fock.to_labeled": ("fockstat.fock", "fockstat.dynamics"),
    "fock.enumerate_basis": ("fockstat.fock", "fockstat.dynamics"),
    "classify.count_real_roots_upto": ("fockstat.classify", "fockstat.thermo"),
}


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def main() -> int:
    failures = []

    def expect(what, got, want):
        status = "ok" if got == want else "FAIL"
        print(f"{status:4s} {what}: {got} (expected {want})")
        if got != want:
            failures.append(what)

    t = traced(lambda: None)
    for name, modules in REQUIRED_SITES.items():
        bound = {site.rsplit(".", 1)[0] for site in t.sites.get(name, ())}
        expect(f"{name} wrapped in {', '.join(modules)}", set(modules) <= bound, True)

    t = traced(lambda: dynamics.bosonic_rep(dynamics.haar_unitary(4, 0), 5))
    expect("dynamics.permanent.calls", t.metrics()["dynamics.permanent.calls"], 3136)

    spec = StatisticsSpec(Kind.FERMIONIC_LIKE, (1, 3, 3))
    series = IntegerSeries(list(spec.q) + [0] * 10)
    t = traced(lambda: classify.totally_positive_upto(series, 4))
    expect("symfunc.det_bareiss.calls", t.metrics()["symfunc.det_bareiss.calls"], 36163)
    expect("distinct det_bareiss matrices", t.distinct_count("symfunc.det_bareiss"), 415)

    spec = StatisticsSpec(Kind.BOSONIC_LIKE, (1, 3, 2))
    t = traced(lambda: thermo.solve_mu(spec, [0.05 * i for i in range(200)], 1.0, 50.0))
    expect("classify.count_real_roots_upto.calls",
           t.metrics()["classify.count_real_roots_upto.calls"], 8053)
    expect("distinct count_real_roots_upto polynomials",
           t.distinct_count("classify.count_real_roots_upto"), 1)

    print("selftest", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
