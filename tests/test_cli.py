"""CLI behavior: schemas, encodings, determinism, and the exit-code contract."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from simplex_orthant import cli, equicorrelated, simplex, verify

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(args)
    out, err = capsys.readouterr()
    code = excinfo.value.code or 0
    return code, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestOptions:
    def test_option_strings_per_subcommand(self):
        # the whole CLI surface: adding or removing a knob must edit this test
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        common = {"-h", "--help", "--format", "--output", "--threads"}
        expected = {
            "compute": common | {"--n", "--rho", "--method", "--trials", "--seed"},
            "bounds": common | {"--n", "--rho"},
            "simplex": common | {"--n", "--k", "--trials", "--seed"},
            "verify": {"-h", "--help", "--budget", "--output", "--suite"},
        }
        found = {
            name: {s for action in parser._actions for s in action.option_strings}
            for name, parser in sub.choices.items()
        }
        assert found == expected


class TestGridParsing:
    def test_comma_lists(self):
        assert cli._int_grid("2,5,10") == [2, 5, 10]
        assert cli._float_grid("0.1,0.25") == [0.1, 0.25]

    def test_ranges_inclusive(self):
        assert cli._float_grid("0.1:0.5:0.2") == [0.1, 0.3, 0.5]
        assert cli._int_grid("2:10:4") == [2, 6, 10]

    def test_single_value(self):
        assert cli._int_grid("7") == [7]

    def test_golden_ranges_unchanged(self):
        assert cli._float_grid("0.1:0.9:0.1") == [
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9
        ]
        assert cli._float_grid("0.3:0.3:0.1") == [0.3]

    @pytest.mark.parametrize(
        "flag, text",
        [("--rho", "0.9:0.1:0.1"), ("--rho", "0.1:0.9:0"), ("--rho", "0.1:0.9:-0.1"),
         ("--rho", "nan:0.9:0.1"), ("--rho", "0.1:inf:0.1"),
         ("--n", "10:5:1"), ("--n", "5:10:0"), ("--n", "5:10:-1"),
         ("--rho", "0:1:5e-324"), ("--rho", "0:1:1e-12")],
    )
    def test_bad_range_exit_2(self, flag, text, capsys):
        argv = ["compute", "--n", "5", "--rho", "0.5", "--method", "closed"]
        argv[argv.index(flag) + 1] = text
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "usage:" in err and f"argument {flag}: range '{text}' needs" in err


class TestComputeCommand:
    def test_closed_form_value(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--n", "7", "--rho", "0.5", "--method", "closed"], capsys
        )
        header, rows = parse_csv(out)
        assert code == 0
        assert header == cli.COMPUTE_COLUMNS
        assert float(rows[0][header.index("value")]) == 0.125

    def test_steck_value(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--n", "2", "--rho", "0.5", "--method", "steck"], capsys
        )
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[0][3]) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_grid_row_count(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--n", "2,3,4", "--rho", "0.2:0.6:0.2", "--method", "steck"],
            capsys,
        )
        _, rows = parse_csv(out)
        assert code == 0 and len(rows) == 9

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run_cli(["compute", "--n", "2", "--rho", "1.2"], capsys)
        assert code == 1
        assert "rho" in err and "error" in err

    def test_steck_underflow_exit_1(self, capsys):
        code, out, err = run_cli(
            ["compute", "--n", "1000000", "--rho", "0.01", "--method", "steck"], capsys
        )
        assert code == 1 and out == ""
        assert "underflow" in err and "n=1000000, rho=0.01" in err

    @pytest.mark.parametrize(
        "command, option, value",
        [
            pytest.param("compute", "--threads", "0", id="0"),
            pytest.param("compute", "--threads", "-3", id="-3"),
            pytest.param("compute", "--trials", "0", id="trials-0"),
            pytest.param("simplex", "--trials", "-3", id="simplex-trials--3"),
        ],
    )
    def test_nonpositive_threads_exit_2(self, command, option, value, capsys):
        args = {
            "compute": ["compute", "--n", "2", "--rho", "0.3", "--method", "mc"],
            "simplex": ["simplex", "--n", "2", "--k", "3"],
        }[command] + ["--trials", "1000", "--seed", "1"]
        code, out, err = run_cli(args + [option, value], capsys)
        assert code == 2 and out == ""
        assert "usage:" in err and f"{option}: must be a positive integer" in err

    def test_mc_requires_seed(self, capsys):
        code, _, err = run_cli(
            ["compute", "--n", "2", "--rho", "0.3", "--method", "mc"], capsys
        )
        assert code == 1 and "seed" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["compute", "--n", "7", "--rho", "0.5", "--method", "closed",
             "--output", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert header == cli.COMPUTE_COLUMNS and len(rows) == 1


class TestBoundsCommand:
    def test_high_rho_sandwich_column(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--n", "10,100,1000,10000", "--rho", "0.75"], capsys
        )
        header, rows = parse_csv(out)
        assert code == 0 and header == cli.BOUNDS_COLUMNS
        idx = header.index("sandwich_ok")
        assert all(row[idx] == "true" for row in rows)

    def test_low_rho_asymptotic_flag(self, capsys):
        code, out, _ = run_cli(["bounds", "--n", "10", "--rho", "0.25"], capsys)
        header, rows = parse_csv(out)
        assert code == 0
        row = dict(zip(header, rows[0]))
        assert row["upper_applicable"] == "false"
        assert row["upper_asymptotic"] == "true"

    def test_rho_half_closed_form_only(self, capsys):
        code, out, _ = run_cli(["bounds", "--n", "9", "--rho", "0.5"], capsys)
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert code == 0
        assert float(row["f"]) == 0.1 and row["method"] == "closed_form"
        assert row["lower"] == "NA" and row["upper"] == "NA"
        assert row["sandwich_ok"] == "NA"

    def test_rho_zero_prints_rows(self, capsys):
        # independence: f = 2^-n, and no scale, bound or ratio is defined
        code, out, _ = run_cli(["bounds", "--n", "2,3", "--rho=0"], capsys)
        header, rows = parse_csv(out)
        assert code == 0 and len(rows) == 2
        for row, f in zip(rows, ("0.25", "0.125")):
            row = dict(zip(header, row))
            assert row["f"] == f
            assert row["scale"] == row["scaled_ratio"] == row["sandwich_ok"] == "NA"


class TestSimplexCommand:
    def test_vertex_against_david(self, capsys):
        code, out, _ = run_cli(
            ["simplex", "--n", "3", "--k", "3", "--trials", "150000", "--seed", "7"],
            capsys,
        )
        header, rows = parse_csv(out)
        assert code == 0 and header == cli.SIMPLEX_COLUMNS
        row = dict(zip(header, rows[0]))
        est = float(row["vertex_estimate"])
        se = float(row["vertex_std_error"])
        assert abs(est - float(row["analytic_f"])) <= 3.0 * se

    def test_union_near_independence(self, capsys):
        code, out, _ = run_cli(
            ["simplex", "--n", "4", "--k", "5", "--trials", "60000", "--seed", "7"],
            capsys,
        )
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        gap = abs(float(row["union_estimate"]) - float(row["independence_approx"]))
        assert gap <= 3.0 * float(row["union_std_error"]) + float(row["tv_corrected"])

    def test_requires_seed(self, capsys):
        code, _, err = run_cli(
            ["simplex", "--n", "3", "--k", "3", "--trials", "10"], capsys
        )
        assert code == 1 and "seed" in err

    def test_resource_error_exit_2(self, capsys):
        code, _, err = run_cli(
            ["simplex", "--n", "100", "--k", "6", "--trials", "10", "--seed", "1"],
            capsys,
        )
        assert code == 2 and "budget" in err

    def test_design_budget_checked_before_any_row(self, capsys, monkeypatch):
        # at (30, 6) the 930 x 1623160 design matrix (12 GB) would not fit the
        # budget, but the union samples the 930 edge derivatives from their
        # covariance and builds no design row
        def no_rows(*args):
            raise AssertionError("a design row was built")

        def no_eigh(*args):
            raise AssertionError("eigh ran")

        monkeypatch.setattr(simplex, "_derivative_row", no_rows)
        code, out, _ = run_cli(
            ["simplex", "--n", "30", "--k", "6", "--trials", "10", "--seed", "1"],
            capsys,
        )
        assert code == 0 and len(parse_csv(out)[1]) == 1
        # at (60, 3) five 3660 x 3660 factor arrays (536 MB) do not fit: the
        # budget is checked before eigh runs
        monkeypatch.setattr(simplex.np.linalg, "eigh", no_eigh)
        code, _, err = run_cli(
            ["simplex", "--n", "60", "--k", "3", "--trials", "10", "--seed", "1"],
            capsys,
        )
        assert code == 2 and "budget" in err and "3660 x 3660" in err


class TestGoldenStdout:
    """Stdout of the criterion-9 configs, a multi-n simplex run and the Steck,
    density and bounds grids, byte for byte.

    The files under tests/data/ pin the random streams and the number
    formatting.  Only a deliberate stream change, recorded in CHANGES.md,
    may regenerate them.
    """

    @pytest.mark.parametrize(
        "name, args",
        [
            ("criterion09_compute_mc.csv",
             ["compute", "--n", "3", "--rho", "0.4", "--method", "mc",
              "--trials", "300000", "--seed", "90"]),
            ("criterion09_simplex.csv",
             ["simplex", "--n", "4", "--k", "4", "--trials", "150000", "--seed", "90"]),
            ("simplex_n2-3_k5.json",
             ["simplex", "--n", "2,3", "--k", "5", "--trials", "60000", "--seed", "91",
              "--format", "json"]),
            ("simplex_n2-3_k5_plotdata.csv",
             ["simplex", "--n", "2,3", "--k", "5", "--trials", "60000", "--seed", "91",
              "--format", "plotdata"]),
            ("compute_steck.csv",
             ["compute", "--n", "2,5,10,100,1000,10000", "--rho", "0.1:0.9:0.1",
              "--method", "steck"]),
            ("bounds_grid.csv",
             ["bounds", "--n", "10,100,1000,10000,100000",
              "--rho", "0.2,0.3,0.4,0.6,0.75,0.9"]),
            ("compute_density.csv",
             ["compute", "--n", "2,5,10,100,1000,10000", "--rho", "0.1:0.9:0.1",
              "--method", "density"]),
        ],
    )
    def test_stdout_matches_golden(self, name, args, capsys):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()


# runs the CLI on argv[1:], then prints the scipy.integrate modules it loaded
# as the last line of stderr
_CLI_AND_MODULES = """
import sys
from simplex_orthant import cli
try:
    cli.main(sys.argv[1:])
finally:
    print([m for m in sys.modules if m.startswith("scipy.integrate")], file=sys.stderr)
"""


class TestColdStart:
    """A fresh CLI process never loads scipy.integrate, the density route included."""

    def fresh(self, args):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, *args], env=env, check=True, capture_output=True, timeout=300
        )
        return done.stdout, done.stderr.decode()

    def test_cli_import_loads_no_scipy_integrate(self):
        out, _ = self.fresh(
            ["-c", "import sys, simplex_orthant.cli; "
                   "print([m for m in sys.modules if m.startswith('scipy.integrate')])"]
        )
        assert out.decode().strip() == "[]"

    def test_density_golden_in_fresh_process(self):
        out, err = self.fresh(
            ["-c", _CLI_AND_MODULES, "compute", "--n", "2,5,10,100,1000,10000",
             "--rho", "0.1:0.9:0.1", "--method", "density"]
        )
        assert out == (DATA / "compute_density.csv").read_bytes()
        assert err.splitlines()[-1] == "[]"


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["compute", "--n", "3", "--rho", "0.4", "--method", "mc",
             "--trials", "200000", "--seed", "11"],
            ["simplex", "--n", "3", "--k", "4", "--trials", "120000", "--seed", "11"],
        ],
    )
    def test_byte_identical_reruns(self, args, capsys):
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        _, threaded, _ = run_cli(args + ["--threads", "4"], capsys)
        assert first == second == threaded

    def test_wall_time_on_stderr_only(self, capsys):
        _, out, err = run_cli(
            ["compute", "--n", "7", "--rho", "0.5", "--method", "closed"], capsys
        )
        assert "s" in err and out.startswith("n,rho,")


class TestEncodings:
    def test_csv_json_same_numbers(self, capsys):
        args = ["bounds", "--n", "10,100", "--rho", "0.75"]
        _, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        header, rows = parse_csv(csv_out)
        doc = json.loads(json_out)
        assert doc["columns"] == header
        for csv_row, json_row in zip(rows, doc["rows"]):
            for col, text in zip(header, csv_row):
                val = json_row[col]
                if text == "NA":
                    assert val is None
                elif text in ("true", "false"):
                    assert val is (text == "true")
                elif isinstance(val, float):
                    # shortest-round-trip text must reproduce the exact double
                    assert float(text) == val
                else:
                    assert str(val) == text

    def test_json_carries_config(self, capsys):
        _, out, _ = run_cli(
            ["compute", "--n", "7", "--rho", "0.5", "--method", "closed",
             "--format", "json"],
            capsys,
        )
        doc = json.loads(out)
        assert doc["command"] == "compute"
        assert doc["config"]["n"] == [7] and doc["config"]["rho"] == [0.5]

    def test_plotdata(self, capsys):
        _, out, _ = run_cli(
            ["bounds", "--n", "10,100", "--rho", "0.75", "--format", "plotdata"],
            capsys,
        )
        header, rows = parse_csv(out)
        assert header == ["x", "y", "series"]
        series = {row[2] for row in rows}
        assert series == {"f rho=0.75", "lower rho=0.75", "upper rho=0.75"}
        assert len(rows) == 6


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--budget", "quick"], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["all_passed"] and doc["failures"] == []
        assert set(doc["suites"]) == set(verify.SUITES) and len(verify.SUITES) == 5

    def test_injected_fault_exit_3(self, capsys, monkeypatch):
        # a sign-flipped beta in the closed-form inverse must fail the suite
        original = equicorrelated.inverse_diag_offdiag

        def flipped(spec):
            pair = original(spec)
            return equicorrelated.InverseDiagonalPair(alpha=pair.alpha, beta=-pair.beta)

        monkeypatch.setattr(equicorrelated, "inverse_diag_offdiag", flipped)
        monkeypatch.setattr(verify, "inverse_diag_offdiag", flipped)
        code, out, _ = run_cli(["verify", "--suite", "lemma_inverse"], capsys)
        doc = json.loads(out)
        assert code == 3
        assert any(name.startswith("lemma_inverse:") for name in doc["failures"])

    def test_unknown_suite_rejected(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "nonsense"], capsys)
        assert code == 2 or code != 0  # argparse exits 2 on bad choices
