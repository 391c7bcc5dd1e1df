import json
import math
import time

import numpy as np
import pytest

from fockstat import symfunc
from fockstat.cli import build_parser, main

EXPECT_ORACLE_DISAGREEMENT = 1
EXPECT_PARSE = 2
EXPECT_INVALID = 3
EXPECT_BAD_UNITARY = 4
EXPECT_BAD_OCCUPATION = 5
EXPECT_DIVERGENCE = 6

NINTH_POWER = "1,9,36,84,126,126,84,36,9,1:-"  # (1+x)^9


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestClassifyCommand:
    def test_ordinary_fermions(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "1,1:-")
        assert code == 0
        assert doc["valid"] and doc["irreducible"]
        assert doc["max_occupation"] == 1
        assert doc["schema_version"] == "1"
        assert doc["reason"] is None

    def test_invalid_label_exits_3(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "1,1,1:-")
        assert code == EXPECT_INVALID
        assert not doc["valid"]
        assert doc["reason"]

    def test_boundary_reducible(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "1,2,1:-")
        assert code == 0
        assert doc["valid"] and not doc["irreducible"]

    def test_bosonic_unbounded_occupation(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "1,2:+")
        assert code == 0
        assert doc["max_occupation"] is None

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "nonsense")
        assert code == EXPECT_PARSE
        assert "error" in err

    def test_label_that_tripped_trial_division(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "2,1,1,1,1:-")
        assert code == EXPECT_INVALID
        assert not doc["valid"] and doc["reason"]

    def test_irreducibility_null_past_factorization_bound(self, capsys):
        code, doc, _ = run_json(capsys, "classify", NINTH_POWER)
        assert code == 0
        assert doc["valid"] and doc["irreducible"] is None

    def test_irreducibility_null_past_trial_bound(self, capsys):
        # over 3.6 million Kronecker trials: stops after the bound's 4,000
        code, doc, _ = run_json(capsys, "classify", "138,583,868,822,783,65,262,121,508:-")
        assert code == EXPECT_INVALID
        assert not doc["valid"] and doc["irreducible"] is None

    @pytest.mark.parametrize("label", [
        "963761198400,1,963761198400:-",  # 6,720 divisors at each end: 90M rational roots
        "1000000000000000000000000000000,1,1:-",  # a divisor search of 10^15 divisions
    ])
    def test_irreducibility_null_past_the_pre_trial_bounds(self, capsys, label):
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "classify", label)
        assert time.perf_counter() - start < 5
        assert code == EXPECT_INVALID
        assert not doc["valid"] and doc["irreducible"] is None


class TestDecomposeCommand:
    def test_order_one_table(self, capsys):
        code, doc, _ = run_json(capsys, "decompose", "1,2:-", "--modes", "2")
        assert code == 0
        table = {tuple(e["partition"]): e["multiplicity"] for e in doc["entries"]}
        assert table == {(): 1, (1,): 2, (1, 1): 4}
        assert doc["dimension_check"] == {"sum": 9, "expected": 9}

    def test_order_two_row(self, capsys):
        code, doc, _ = run_json(
            capsys, "decompose", "1,3,1:-", "--modes", "2", "--max-weight", "4"
        )
        table = {tuple(e["partition"]): e["multiplicity"] for e in doc["entries"]}
        assert table[(2, 1)] == 3
        assert table[(2, 2)] == 1

    def test_bosonic_single_rows(self, capsys):
        code, doc, _ = run_json(
            capsys, "decompose", "1,1:+", "--modes", "2", "--max-weight", "3"
        )
        assert code == 0
        table = {tuple(e["partition"]): e["multiplicity"] for e in doc["entries"]}
        assert table == {(): 1, (1,): 1, (2,): 1, (3,): 1}
        assert all(len(p) <= 1 for p in table)

    @pytest.mark.parametrize("label, max_weight, expected", [
        ("1,1:+", "0", {(): 1}),
        ("1,3,2:+", "1", {(): 1, (1,): 3}),
    ])
    def test_bosonic_weight_below_degree(self, capsys, label, max_weight, expected):
        code, doc, _ = run_json(
            capsys, "decompose", label, "--modes", "1", "--max-weight", max_weight
        )
        assert code == 0
        assert {tuple(e["partition"]): e["multiplicity"] for e in doc["entries"]} == expected

    def test_oracle_check(self, capsys):
        code, doc, _ = run_json(
            capsys, "decompose", "1,2:-", "--modes", "2", "--check-oracle"
        )
        assert code == 0
        assert doc["oracle_agrees"] is True

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_oracle_disagreement_exits_1(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(symfunc, "schur_expand_oracle", lambda *args: {(): 2})
        code, out, err = run(
            capsys, "decompose", "1,1:+", "--modes", "2", "--max-weight", "3",
            "--check-oracle", "--format", fmt,
        )
        assert code == EXPECT_ORACLE_DISAGREEMENT
        assert "oracle disagreement" in err
        assert "partition" in out

    @pytest.mark.parametrize("modes, max_weight", [("4", "2"), ("2", "7")])
    def test_oracle_check_past_its_guard_exits_2(self, capsys, modes, max_weight):
        code, out, err = run(
            capsys, "decompose", "1,2:-", "--modes", modes, "--max-weight", max_weight, "--check-oracle"
        )
        assert code == EXPECT_PARSE and not out
        assert "ORACLE_MAX_MODES=3" in err and "ORACLE_MAX_WEIGHT=6" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "1,1:-", "--modes", "2", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "partition,multiplicity"
        assert lines[1:] == [",1", "1,1", "1 1,1"]

    def test_invalid_label_exits_3(self, capsys):
        code, _, _ = run(capsys, "decompose", "1,1,1:-", "--modes", "2")
        assert code == EXPECT_INVALID

    def test_past_factorization_bound(self, capsys):
        # the gate runs no factorization, which would refuse degree 9
        code, doc, _ = run_json(capsys, "decompose", NINTH_POWER, "--modes", "2")
        assert code == 0
        assert doc["dimension_check"] == {"sum": 2**18, "expected": 2**18}


class TestSimulateCommand:
    def test_boson_bunching(self, capsys):
        code, doc, _ = run_json(
            capsys, "simulate", "1,1:+", "--modes", "2", "--input", "1,1",
            "--unitary", "bs",
        )
        assert code == 0
        probs = {tuple(e["state"]): e["probability"] for e in doc["probabilities"]}
        assert probs == {(2, 0): 0.5, (0, 2): 0.5}

    def test_fermion_antibunching(self, capsys):
        code, doc, _ = run_json(
            capsys, "simulate", "1,1:-", "--modes", "2", "--input", "1,1",
            "--unitary", "bs",
        )
        probs = {tuple(e["state"]): e["probability"] for e in doc["probabilities"]}
        assert probs == {(1, 1): 1.0}

    def test_generalized_fermions(self, capsys):
        code, doc, _ = run_json(
            capsys, "simulate", "1,2:-", "--modes", "2", "--input", "1,1",
            "--unitary", "bs",
        )
        probs = {tuple(e["state"]): e["probability"] for e in doc["probabilities"]}
        assert probs == {(1, 1): 1.0}

    def test_explicit_aux_labels(self, capsys):
        code, doc, _ = run_json(
            capsys, "simulate", "1,2:-", "--modes", "2",
            "--input", "1,1,aux=1/0", "--unitary", "bs",
        )
        assert code == 0
        probs = {tuple(e["state"]): e["probability"] for e in doc["probabilities"]}
        assert probs == {(1, 1): 1.0}
        amp = doc["amplitudes"][0]
        assert amp["aux"] == [1, 0]
        assert amp["amplitude"]["re"] == pytest.approx(-1.0)

    def test_amplitudes_carry_complex_schema(self, capsys):
        _, doc, _ = run_json(
            capsys, "simulate", "1,1:+", "--modes", "2", "--input", "1,1",
            "--unitary", "haar", "11",
        )
        for entry in doc["amplitudes"]:
            assert set(entry["amplitude"]) == {"re", "im"}

    def test_haar_deterministic(self, capsys):
        _, doc1, _ = run_json(
            capsys, "simulate", "1,1:-", "--modes", "3", "--input", "1,1,0",
            "--unitary", "haar", "5",
        )
        _, doc2, _ = run_json(
            capsys, "simulate", "1,1:-", "--modes", "3", "--input", "1,1,0",
            "--unitary", "haar", "5",
        )
        assert doc1 == doc2

    def test_occupation_exceeding_bound_exits_5(self, capsys):
        code, _, err = run(
            capsys, "simulate", "1,1:-", "--modes", "2", "--input", "2,0",
            "--unitary", "bs",
        )
        assert code == EXPECT_BAD_OCCUPATION
        assert "bad state" in err

    def test_aux_out_of_range_exits_5(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "1,2:-", "--modes", "2",
            "--input", "1,0,aux=5", "--unitary", "bs",
        )
        assert code == EXPECT_BAD_OCCUPATION

    @pytest.mark.parametrize("label,aux", [("1,3,2:+", "aux=5"), ("1,3,1:-", "aux=9")])
    def test_aux_on_higher_order_label_exits_2(self, capsys, label, aux):
        # the order check runs before any range check on the auxiliary values
        code, out, err = run(
            capsys, "simulate", label, "--modes", "2", "--input", f"1,0,{aux}",
            "--unitary", "bs",
        )
        assert code == EXPECT_PARSE
        assert out == "" and "order-one" in err

    def test_mode_count_mismatch_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "1,1:-", "--modes", "2", "--input", "1,1,0",
            "--unitary", "bs",
        )
        assert code == EXPECT_PARSE

    @pytest.mark.parametrize("seed", [("abc",), (), ("1", "2"), ("-1",)])
    def test_bad_haar_seed_exits_2(self, capsys, seed):
        code, out, err = run(
            capsys, "simulate", "1,1:-", "--modes", "2", "--input", "1,1",
            "--unitary", "haar", *seed,
        )
        assert code == EXPECT_PARSE
        assert out == ""
        assert "usage: --unitary haar SEED" in err

    def test_permanent_guard_before_the_input_is_built(self, capsys):
        # ten million particles: the guard answers before any of them is built
        start = time.perf_counter()
        code, out, err = run(
            capsys, "simulate", "1,1:+", "--modes", "2", "--input", "10000000,0",
            "--unitary", "bs",
        )
        assert time.perf_counter() - start < 5
        assert code == EXPECT_PARSE
        assert out == ""
        assert "permanent guard exceeded: N=10000000 > PERMANENT_GUARD=8" in err

    def test_beamsplitter_takes_no_argument(self, capsys):
        code, out, err = run(
            capsys, "simulate", "1,1:+", "--modes", "2", "--input", "1,1",
            "--unitary", "bs", "extra",
        )
        assert code == EXPECT_PARSE
        assert out == ""
        assert "usage: --unitary bs" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "1,1:+", "--modes", "-1", "--input", "1", "--unitary", "haar", "7"),
            ("simulate", "1,1:-", "--modes", "0", "--input", "", "--unitary", "haar", "7"),
            ("decompose", "1,2:-", "--modes", "0"),
            ("decompose", "1,2:+", "--modes", "-3", "--max-weight", "2"),
        ],
    )
    def test_modes_below_one_exit_2_at_parse(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == EXPECT_PARSE
        assert out == ""
        assert "argument --modes: must be >= 1" in err

    def test_unitary_file_round_trip(self, capsys, tmp_path):
        g = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        path = tmp_path / "u.csv"
        with open(path, "w") as fh:
            for row in g:
                fh.write(
                    ",".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row)
                    + "\n"
                )
        code, doc, _ = run_json(
            capsys, "simulate", "1,1:+", "--modes", "2", "--input", "1,1",
            "--unitary", "file", str(path),
        )
        assert code == 0
        probs = {tuple(e["state"]): e["probability"] for e in doc["probabilities"]}
        assert probs == {(2, 0): 0.5, (0, 2): 0.5}

    def test_non_unitary_file_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0,0.1,0.0\n0.0,0.0,1.0,0.0\n")
        code, _, err = run(
            capsys, "simulate", "1,1:+", "--modes", "2", "--input", "1,1",
            "--unitary", "file", str(path),
        )
        assert code == EXPECT_BAD_UNITARY
        assert "bad unitary" in err

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_file_exits_4(self, capsys, tmp_path, entry):
        # a NaN deviation used to pass the unitarity check and print NaN
        # probabilities, which is not JSON
        path = tmp_path / "nan.csv"
        path.write_text(f"1,0,{entry},0\n0,0,1,0\n")
        code, out, err = run(
            capsys, "simulate", "1,1:+", "--modes", "2", "--input", "1,1",
            "--unitary", "file", str(path),
        )
        assert code == EXPECT_BAD_UNITARY
        assert out == "" and err.startswith("bad unitary: matrix is not unitary")

    def test_malformed_file_exits_4(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1.0,0.0\n")
        code, _, _ = run(
            capsys, "simulate", "1,1:+", "--modes", "2", "--input", "1,1",
            "--unitary", "file", str(path),
        )
        assert code == EXPECT_BAD_UNITARY


class TestThermoCommand:
    def test_chemical_potential_shift(self, capsys):
        code, doc, _ = run_json(
            capsys, "thermo", "1,2:-", "--energies", "0,1", "--beta", "1",
            "--target-N", "1",
        )
        assert code == 0
        assert doc["mu"] == pytest.approx(0.5 - math.log(2), abs=1e-9)

    def test_bose_einstein_occupation(self, capsys):
        code, doc, _ = run_json(
            capsys, "thermo", "1,1:+", "--energies", "1", "--beta", "1", "--mu", "0"
        )
        assert doc["occupations"][0] == pytest.approx(1 / (math.e - 1), rel=1e-12)

    def test_divergence_exits_6(self, capsys):
        code, _, err = run(
            capsys, "thermo", "1,2:+", "--energies", "0", "--beta", "1", "--mu", "0"
        )
        assert code == EXPECT_DIVERGENCE
        assert "mode 0" in err

    def test_sweep_csv_schema(self, capsys):
        code, out, _ = run(
            capsys, "thermo", "1,2:+", "--energies", "1", "--beta", "1",
            "--mu", "0", "--sweep", "0:2:5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,n,flag"
        flags = [line.split(",")[2] for line in lines[1:]]
        assert flags == ["divergent", "divergent", "ok", "ok", "ok"]

    @pytest.mark.parametrize("grid", ["0:2:0", "0:2:-3"])
    def test_sweep_without_steps_exits_2_before_any_output(self, capsys, grid):
        code, out, err = run(
            capsys, "thermo", "1,2:+", "--energies", "1", "--beta", "1",
            "--mu", "0", "--sweep", grid,
        )
        assert code == EXPECT_PARSE
        assert out == ""
        assert "steps must be >= 1" in err

    def test_sweep_of_invalid_label_writes_no_header(self, capsys):
        code, out, _ = run(
            capsys, "thermo", "1,1,1:+", "--energies", "1", "--beta", "1",
            "--mu", "0", "--sweep", "0:2:3",
        )
        assert code == EXPECT_INVALID
        assert out == ""

    def test_target_out_of_range_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "thermo", "1,1:-", "--energies", "0,1", "--beta", "1",
            "--target-N", "5",
        )
        assert code == EXPECT_PARSE

    def test_invalid_label_exits_3(self, capsys):
        code, _, _ = run(
            capsys, "thermo", "1,1,1:-", "--energies", "0", "--beta", "1", "--mu", "0"
        )
        assert code == EXPECT_INVALID

    @pytest.mark.parametrize("argv", [
        ("1,1:+", "--energies", "1,2", "--beta", "1", "--target-N", "1e6"),
        ("1,2:-", "--energies", "1", "--beta", "1e300", "--target-N", "0.5"),
    ])
    def test_bisection_without_convergence_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "thermo", *argv)
        assert code == EXPECT_PARSE
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "SOLVE_MAX_ITER=200" in err and "|N - target| = " in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--energies", "0,1", "--beta", "0", "--mu", "0"),
            ("--energies", "0,1", "--beta", "inf", "--mu", "0"),
            ("--energies", "nan", "--beta", "1", "--mu", "0"),
            ("--energies", "0,1", "--beta", "1", "--mu=-inf"),
            ("--energies", "0,1", "--beta", "1", "--target-N", "nan"),
        ],
    )
    def test_non_finite_or_non_positive_arguments_exit_2(self, capsys, flags):
        code, _, err = run(capsys, "thermo", "1,2:-", *flags)
        assert code == EXPECT_PARSE
        assert "finite" in err

    def test_repeated_root_label_solves(self, capsys):
        code, doc, _ = run_json(
            capsys, "thermo", "1,2,1:+", "--energies", "0,1,2", "--beta", "1",
            "--target-N", "1",
        )
        assert code == 0
        assert doc["mean_N"] == pytest.approx(1.0, abs=1e-10)


def test_parser_built_once(capsys):
    assert build_parser() is build_parser()
    # a reused parser keeps no state between calls
    assert run(capsys, "classify", "1,1:-")[0] == 0
    assert run(capsys, "classify", "1,1,1:-")[0] == EXPECT_INVALID
    assert run(capsys, "classify", "1,1:-")[0] == 0
