import ast
from pathlib import Path

import pytest

import fockstat
from fockstat import classify
from fockstat.classify import Kind, StatisticsSpec, is_irreducible_statistics, totally_positive_upto
from fockstat.dynamics import _require_sector
from fockstat.errors import ResourceGuardError
from fockstat.fock import enumerate_basis, excitation_of
from fockstat.symfunc import IntegerSeries, schur_expand_oracle
from fockstat.thermo import solve_mu

F, B = Kind.FERMIONIC_LIKE, Kind.BOSONIC_LIKE


def fspec(*q):
    return StatisticsSpec(F, q)


def bspec(*q):
    return StatisticsSpec(B, q)


# (call, patched FACTORIZATION_TRIAL_BOUND or None, bound_name, bound, asked, subject fragment)
GUARDS = {
    "kronecker degree": (
        lambda: is_irreducible_statistics(fspec(*([1] * 10))),
        None, "FACTORIZATION_DEGREE_BOUND", 8, 9, "Kronecker factorization",
    ),
    # 512 trials for quadratic factors, 24,576 for cubic ones
    "kronecker trials": (
        lambda: is_irreducible_statistics(fspec(138, 583, 868, 822, 783, 65, 262)),
        600, "FACTORIZATION_TRIAL_BOUND", 600, 25088, "Kronecker trials",
    ),
    # 6,720 divisors at each end: 2 * 6,720**2 rational-root candidates
    "rational roots": (
        lambda: is_irreducible_statistics(fspec(963761198400, 1, 963761198400)),
        None, "FACTORIZATION_TRIAL_BOUND", 4000, 90316800, "rational root test",
    ),
    "divisors": (
        lambda: is_irreducible_statistics(fspec(10**30, 1, 1)),
        None, "FACTORIZATION_TRIAL_BOUND**2", 4000**2, 10**15, "trial division",
    ),
    # (2x + 3)(x + 1) has 8 candidates, the root -1 second among them
    "one trial": (
        lambda: is_irreducible_statistics(fspec(3, 5, 2)),
        1, "FACTORIZATION_TRIAL_BOUND", 1, 8, "rational root test",
    ),
    "total positivity order": (
        lambda: totally_positive_upto(IntegerSeries((1,) * 8), 7),
        None, "TOTAL_POSITIVITY_ORDER_BOUND", 6, 7, "total positivity",
    ),
    # 1,1:+ needs a horizon of n for occupation n, and of E for excitations up to E
    "block starts by occupation": (
        lambda: excitation_of(bspec(1, 1), 10**6),
        None, "STARTS_HORIZON_BOUND", 4096, 4097, "1,1:+ at occupation 1000000, excitation 0",
    ),
    "block starts by excitation": (
        lambda: enumerate_basis(bspec(1, 1), 1, excitation_cutoff=5000),
        None, "STARTS_HORIZON_BOUND", 4096, 5000, "1,1:+ at occupation 0, excitation 5001",
    ),
    # the count stops as soon as it passes the bound
    "sector of bosons": (
        lambda: _require_sector(bspec(1, 1), 2, 10**7),
        None, "SECTOR_BASIS_BOUND", 65536, 65703, "1,1:+ with N=10000000 on 2 modes",
    ),
    "sector hypercube": (
        lambda: _require_sector(fspec(1, 3), 14, 7),
        None, "SECTOR_BASIS_BOUND", 65536, 4**14, "1,3:- with N=7 on 14 modes",
    ),
    "sector of labeled bosons": (
        lambda: _require_sector(bspec(1, 2), 8, 8),
        None, "SECTOR_BASIS_BOUND", 65536, 141569, "1,2:+ with N=8 on 8 modes",
    ),
    # adjacent floats of mu straddle the target, so bisection cannot reach SOLVE_TOL
    "bisection": (
        lambda: solve_mu(bspec(1, 1), [1.0, 2.0], 1.0, 1e6),
        None, "SOLVE_MAX_ITER", 200, 201, "|N - target| = ",
    ),
    "oracle modes": (
        lambda: schur_expand_oracle(IntegerSeries((1, 1)), 4, 2),
        None, "ORACLE_MAX_MODES", 3, 4, "Schur expansion oracle",
    ),
    "oracle weight": (
        lambda: schur_expand_oracle(IntegerSeries((1, 1)), 2, 7),
        None, "ORACLE_MAX_WEIGHT", 6, 7, "Schur expansion oracle",
    ),
}


@pytest.mark.parametrize("case", GUARDS)
def test_each_guard_names_its_limit(monkeypatch, case):
    call, trial_bound, bound_name, bound, asked, subject = GUARDS[case]
    if trial_bound is not None:
        monkeypatch.setattr(classify, "FACTORIZATION_TRIAL_BOUND", trial_bound)
    with pytest.raises(ResourceGuardError) as info:
        call()
    exc = info.value
    assert (exc.bound_name, exc.bound, exc.asked) == (bound_name, bound, asked)
    assert subject in exc.subject
    assert str(exc).startswith(exc.subject + ": guard exceeded: ")


def test_guard_message():
    exc = ResourceGuardError("SECTOR_BASIS_BOUND", 65536, 65703, "sector basis of 1,1:+")
    assert str(exc) == (
        "sector basis of 1,1:+: guard exceeded: SECTOR_BASIS_BOUND=65536, "
        "asked at least 65703, over by at least 167"
    )
    assert str(ResourceGuardError("SOLVE_MAX_ITER", 200, 201)) == (
        "guard exceeded: SOLVE_MAX_ITER=200, asked at least 201, over by at least 1"
    )


def test_guard_messages_are_built_in_one_place():
    # every raise site passes fields, no message: the bound's name as a
    # literal, the bound as that very expression, and the amount asked; only
    # the subject, which names the instance, may be formatted there, and it
    # repeats neither the bound nor the message's own words
    sites = []
    for path in sorted(Path(fockstat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ResourceGuardError":
                sites.append((path.name, node.lineno))
                name, bound, asked, *subject = node.args
                assert len(subject) <= 1 and not node.keywords, sites[-1]
                assert isinstance(name, ast.Constant), sites[-1]
                assert ast.unparse(bound).replace(" ", "") == name.value, sites[-1]
                assert not isinstance(asked, (ast.Constant, ast.JoinedStr)), sites[-1]
                text = "".join(
                    part.value for part in ast.walk(*subject) if isinstance(part, ast.Constant)
                    and isinstance(part.value, str)
                ) if subject else ""
                assert "guard" not in text and name.value.split("*")[0] not in text, sites[-1]
    assert len(sites) == 10, sites
