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

from simplex_orthant import cli, equicorrelated, orthant, simplex, verify

DATA = Path(__file__).parent / "data"

# the CSV headers, pinned here so that a column cannot move unnoticed
COMPUTE_HEADER = ["n", "rho", "method", "value", "std_error", "count"]
BOUNDS_HEADER = [
    "n", "rho", "f", "method", "scale", "lower", "upper",
    "lower_applicable", "upper_applicable", "upper_asymptotic",
    "sandwich_ok", "scaled_ratio",
]
SIMPLEX_HEADER = [
    "n", "k", "trials", "seed", "rho_n",
    "vertex_estimate", "vertex_std_error",
    "union_estimate", "union_std_error",
    "analytic_f", "independence_approx",
    "tv_paper_literal", "tv_corrected", "tv_exact", "envelope",
]

# the CLI runs whose stdout tests/data/ holds byte for byte
GOLDEN_RUNS = [
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
]
GOLDEN_ARGS = dict(GOLDEN_RUNS)


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
            "verify": {"-h", "--help", "--output", "--suite"},
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

    def test_ranges_at_the_steps_scale(self):
        # rounding to 12 decimals made these points 0.0, and an endpoint slack
        # of 1e-12 took 3e-13 into the last range
        assert cli._float_grid("1e-13:3e-13:1e-13") == [1e-13, 2e-13, 3e-13]
        assert cli._float_grid("1e-13:2.5e-13:1e-13") == [1e-13, 2e-13]
        assert cli._float_grid("1e-13:2.9e-13:1e-13") == [1e-13, 2e-13]
        assert cli._float_grid("0.123456789012345:0.123456789012346:1e-15") == [
            0.123456789012345, 0.123456789012346]

    @pytest.mark.parametrize(
        "argv, value",
        [(["compute", "--n", "2.7", "--rho", "0.5", "--method", "closed"], "2.7"),
         (["compute", "--n", "1:3:0.5", "--rho", "0.5", "--method", "closed"], "1.5"),
         (["simplex", "--n", "2.5", "--k", "3", "--trials", "100", "--seed", "1"], "2.5")],
    )
    def test_non_integer_n_exit_2(self, argv, value, capsys):
        # rounding ran 2.7 as 3, 1:3:0.5 as 1, 2, 2, 2, 3 and 2.5 as 2
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "usage:" in err and f"argument --n: {value} is not an integer" in err

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
        assert header == COMPUTE_HEADER
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
        "command, option, value, rule",
        [
            pytest.param("compute", "--threads", "0", "a positive integer", id="0"),
            pytest.param("compute", "--threads", "-3", "a positive integer", id="-3"),
            pytest.param("compute", "--trials", "0", "a positive integer", id="trials-0"),
            pytest.param("simplex", "--trials", "-3", "a positive integer", id="simplex-trials--3"),
            pytest.param("compute", "--seed", "-1", "a non-negative integer", id="seed--1"),
            pytest.param("simplex", "--seed", "-1", "a non-negative integer", id="simplex-seed--1"),
        ],
    )
    def test_nonpositive_threads_exit_2(self, command, option, value, rule, capsys):
        args = {
            "compute": ["compute", "--n", "2", "--rho", "0.3", "--method", "mc"],
            "simplex": ["simplex", "--n", "2", "--k", "3"],
        }[command] + ["--trials", "1000", "--seed", "1"]
        code, out, err = run_cli(args + [option, value], capsys)
        assert code == 2 and out == ""
        assert "usage:" in err and f"{option}: must be {rule}" in err

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
        assert header == COMPUTE_HEADER and len(rows) == 1


class TestBoundsCommand:
    def test_high_rho_sandwich_column(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--n", "10,100,1000,10000", "--rho", "0.75"], capsys
        )
        header, rows = parse_csv(out)
        assert code == 0 and header == BOUNDS_HEADER
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
        assert code == 0 and header == SIMPLEX_HEADER
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

        def no_covariance(*args):
            raise AssertionError("the covariance was built")

        monkeypatch.setattr(simplex, "_derivative_rows", no_rows)
        code, out, _ = run_cli(
            ["simplex", "--n", "30", "--k", "6", "--trials", "10", "--seed", "1"],
            capsys,
        )
        assert code == 0 and len(parse_csv(out)[1]) == 1
        # at (70, 3) two 4970 x 4970 covariance arrays (395 MB) do not fit:
        # the budget is checked before the covariance is built
        monkeypatch.setattr(simplex, "edge_covariance", no_covariance)
        code, _, err = run_cli(
            ["simplex", "--n", "70", "--k", "3", "--trials", "10", "--seed", "1"],
            capsys,
        )
        assert code == 2 and "budget" in err and "4970 x 4970" in err


class TestGoldenStdout:
    """Stdout of the criterion-9 configs, a multi-n simplex run and the Steck,
    density and bounds grids, byte for byte.

    The files under tests/data/ pin the random streams and the number
    formatting.  Only a deliberate stream change, recorded in CHANGES.md,
    may regenerate them.
    """

    @pytest.mark.parametrize("name, args", GOLDEN_RUNS)
    def test_stdout_matches_golden(self, name, args, capsys):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()


# runs the CLI on argv[1:] in a process where `import scipy` fails
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from simplex_orthant import cli
cli.main(sys.argv[1:])
"""

def fresh_process(args):
    """Run python with `args` in a fresh process on this checkout's package; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True, timeout=300
    )


class TestWithoutScipy:
    """The package runs with scipy unimportable: it is a test dependency only."""

    def test_cli_import(self):
        fresh_process(["-c", "import sys; sys.modules['scipy'] = None; "
                             "import simplex_orthant.cli"])

    @pytest.mark.parametrize("name", ["compute_steck.csv", "compute_density.csv",
                                      "bounds_grid.csv", "criterion09_simplex.csv"])
    def test_golden_stdout(self, name):
        done = fresh_process(["-c", _WITHOUT_SCIPY, *GOLDEN_ARGS[name]])
        assert done.stdout == (DATA / name).read_bytes()

    def test_verify(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert fresh_process(["-c", _WITHOUT_SCIPY, "verify"]).stdout == out.encode()


class TestSteckLattice:
    """Steck's lattice cache changes no output, whatever built it."""

    GROWTH = [(2, 0.999), (10**8, 0.9999), (5, 1e-9)]

    @staticmethod
    def steck_spans():
        return {level: (start, table.shape[1])
                for (rows, level), (start, table) in orthant._LATTICE.items()
                if rows is orthant._steck_rows}

    def test_output_independent_of_growth(self, capsys, monkeypatch):
        monkeypatch.setattr(orthant, "_LATTICE", {})
        runs = [(GOLDEN_ARGS[name], (DATA / name).read_bytes())
                for name in ("compute_steck.csv", "bounds_grid.csv")]
        for args, golden in runs:
            assert fresh_process(["-m", "simplex_orthant.cli", *args]).stdout == golden
            assert run_cli(args, capsys)[1].encode() == golden
        before = self.steck_spans()
        for n, rho in self.GROWTH:
            try:
                orthant.steck_quadrature(n, rho)
            except ArithmeticError:
                pass
        after = self.steck_spans()
        assert set(after) > set(before)
        assert any(after[level] != before[level] for level in before)
        for args, golden in runs:
            assert run_cli(args, capsys)[1].encode() == golden


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
        code, out, _ = run_cli(["verify"], capsys)
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

    def test_wrong_sampler_law_exit_3(self, capsys, monkeypatch):
        # draws that drop the common factor have the law of rho = 0
        def independent(spec, chunk, size, seed):
            return equicorrelated.orthant_hits(
                equicorrelated.EquicorrelatedSpec(n=spec.n, rho=0.0), chunk, size, seed
            )

        monkeypatch.setattr(orthant, "orthant_hits", independent)
        code, out, _ = run_cli(["verify", "--suite", "sampler"], capsys)
        doc = json.loads(out)
        assert code == 3
        assert doc["failures"] == ["sampler:monte_carlo_law"]

    def test_wrong_union_factor_exit_3(self, capsys, monkeypatch):
        # a factor that drops the last kept column loses rank and no longer
        # reproduces the edge covariance
        original = simplex._vertex_factor
        monkeypatch.setattr(simplex, "_vertex_factor", lambda n, k: original(n, k)[:, :-1])
        code, out, _ = run_cli(["verify", "--suite", "simplex"], capsys)
        doc = json.loads(out)
        assert code == 3
        assert doc["failures"] == ["simplex:union_factor"]

    def test_threaded_map_fault_exit_3(self, capsys, monkeypatch):
        # a threaded map that draws chunk 0 in every slot; the suite's two
        # chunks make threads=2 differ from threads=1
        original = orthant._map_ordered

        def first_chunk_only(fn, n_chunks, threads):
            if threads == 1:
                return original(fn, n_chunks, threads)
            return original(lambda c: fn(0), n_chunks, threads)

        monkeypatch.setattr(orthant, "_map_ordered", first_chunk_only)
        code, out, _ = run_cli(["verify", "--suite", "sampler"], capsys)
        doc = json.loads(out)
        assert code == 3
        assert doc["failures"] == ["sampler:monte_carlo_law"]

    def test_output_file_holds_stdout_bytes(self, capsys, tmp_path):
        args = ["verify", "--suite", "special_functions"]
        code, out, _ = run_cli(args, capsys)
        target = tmp_path / "verify.json"
        code_file, out_file, err = run_cli(args + ["--output", str(target)], capsys)
        assert code == code_file == 0 and out_file == ""
        assert target.read_bytes() == out.encode()
        assert err.startswith("verify: ")

    def test_unknown_suite_rejected(self, capsys):
        code, out, err = run_cli(["verify", "--suite", "nonsense"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage: simplex-orthant verify")
        assert "argument --suite: invalid choice: 'nonsense'" in err
