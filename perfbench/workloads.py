"""The four benchmark workloads: their inputs, operations and correctness checks.

Each workload runs whole passes until its deadline and records, per
operation, the latency and whether the output passed its checks.  Inputs
come from the benchmark's seed; the library sees only the generated inputs.
Library calls go through module attributes (`orthant.steck_quadrature`, not
an imported name) so that the traced run's hooks see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from simplex_orthant import orthant, simplex

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"


class Phase:
    """What one measured phase did: latencies, work done and failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.by_kind: dict = {}
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: set = set()
        self.failed_by_route: Counter = Counter()
        self.grid_passes = 0
        self.ops = 0
        self.per_op: list[dict] = []
        self.notes: list[str] = []

    def timed(self, kind: str, call):
        """Run one operation; return its result (or the exception it raised) and latency."""
        op = self.ops
        self.ops += 1
        if self.tracer is not None:
            self.tracer.op = op
            before = [self.tracer.counts.get(key, 0) for key in MC_COUNTS]
        started = time.perf_counter()
        try:
            result = call()
        except (ArithmeticError, ValueError) as exc:
            result = exc
        latency = time.perf_counter() - started
        if self.tracer is not None:
            record = {
                key: self.tracer.counts.get(key, 0) - old
                for key, old in zip(MC_COUNTS, before)
                if self.tracer.counts.get(key, 0) != old
            }
            if record:
                self.per_op.append({"op": op, "kind": kind, **record})
        return result, latency

    def record(self, kind, latency: float, items: int, ok: bool, what: str) -> None:
        """Count one operation; `kind` names the repeated operation it is an instance of."""
        self.latencies.append(latency)
        self.by_kind.setdefault(kind, []).append(latency)
        self.items += items
        self.check(ok, what)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation, and whether it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 50:
                self.notes.append(f"failed: {what}")


MC_COUNTS = ("mc.chunks", "mc.hits")


# -- orthant_grid ------------------------------------------------------------

GRID_N = [2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8]
GRID_RHO = [0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99]
ROUTES = ("best", "steck", "density", "bounds")
# relative tolerances: exact values, and steck vs density agreement (as in
# acceptance criterion 2)
EXACT_TOL = 1e-9
ROUTE_TOL = 1e-8

# (route, n, rho) that fail at the commit that introduced this benchmark;
# see perfbench/NOTES.md.  A failure outside this set makes the run incorrect.
KNOWN_DEFECTS = frozenset(
    [("density", n, 0.99) for n in GRID_N]
    + [("density", n, rho) for n in (10**6, 10**7, 10**8) for rho in GRID_RHO[:6]]
    + [("density", 10**8, 0.6)]
    + [(route, 10**5, 0.4) for route in ("best", "steck", "density")]
    + [(route, n, 0.99) for route in ("best", "steck") for n in GRID_N[7:]]
    + [(route, n, 0.01) for route in ("best", "steck") for n in GRID_N[9:]]
)


def exact_value(n: int, rho: float):
    """f(n, rho) where the benchmark knows it exactly, else None."""
    if rho == 0.5:
        return 1.0 / (n + 1)
    if n == 2:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    if n == 3:
        return 0.125 + 3.0 * math.asin(rho) / (4.0 * math.pi)
    return None


def grid_point_failures(n: int, rho: float, results: dict) -> set:
    """Routes whose result at (n, rho) fails a check; results hold values or exceptions."""
    failed = set()
    report = results["bounds"]
    exact = exact_value(n, rho)
    if isinstance(report, Exception) or (
        report.lower_applicable
        and report.upper_applicable
        and not report.lower <= report.upper
    ):
        failed.add("bounds")
        report = None
    elif exact is not None and (
        (report.lower_applicable and exact < report.lower)
        or (report.upper_applicable and exact > report.upper)
    ):
        failed.add("bounds")
    for route in ("best", "steck", "density"):
        value = results[route]
        if isinstance(value, Exception) or value == 0.0:
            failed.add(route)
        elif exact is not None and abs(value - exact) > EXACT_TOL * exact:
            failed.add(route)
        elif report is not None and (
            (report.lower_applicable and value < report.lower)
            or (report.upper_applicable and value > report.upper)
        ):
            failed.add(route)
    # a disagreement between two routes that each passed counts against both
    passed = {"best", "steck", "density"} - failed
    for route in ("best", "steck"):
        if route not in passed or "density" not in passed:
            continue
        a, b = results[route], results["density"]
        if abs(a - b) > ROUTE_TOL * max(a, b):
            failed |= {route, "density"}
    return failed


def _grid_call(route: str, n: int, rho: float):
    if route == "best":
        return orthant.best_estimate(n, rho).value
    if route == "steck":
        return orthant.steck_quadrature(n, rho).value
    if route == "density":
        return orthant.density_integral(n, rho).value
    return orthant.theorem_bounds(n, rho)


def grid_pass(phase: Phase, order) -> None:
    """One pass over the grid in `order`, checked after the pass."""
    points = []
    for n, rho in order:
        results, latencies = {}, {}
        for route in ROUTES:
            results[route], latencies[route] = phase.timed(
                route, lambda: _grid_call(route, n, rho)
            )
        points.append((n, rho, results, latencies))
    phase.grid_passes += 1
    for n, rho, results, latencies in points:
        bad = grid_point_failures(n, rho, results)
        for route in ROUTES:
            phase.record(
                (route, n, rho), latencies[route], 1, route not in bad,
                f"{route} at n={n}, rho={rho}",
            )
        for route in bad:
            phase.failures.add((route, n, rho))
            phase.failed_by_route[route] += 1


def grid_points(rng) -> list:
    points = [(n, rho) for n in GRID_N for rho in GRID_RHO]
    rng.shuffle(points)
    return points


def run_orthant_grid(phase: Phase, deadline: float, rng) -> None:
    while True:
        grid_pass(phase, grid_points(rng))
        if time.perf_counter() >= deadline:
            return


def warm_orthant_grid() -> None:
    for n, rho in grid_points(random.Random(0)):
        for route in ROUTES:
            try:
                _grid_call(route, n, rho)
            except (ArithmeticError, ValueError):
                pass


# -- union_10_5 --------------------------------------------------------------

UNION_TRIALS = 50_000
# estimate_union_probability(10, 5, 10**6, seed=2004046820, threads=1) at the
# commit that introduced this benchmark: 20 chunks of the default 50 000.
UNION_REFERENCE = 0.963789
UNION_REFERENCE_SE = 0.00018681478388767842


def within(estimate: float, exact: float, se: float, ref_se: float = 0.0) -> bool:
    """|estimate - exact| within 5 combined standard errors."""
    return abs(estimate - exact) <= 5.0 * math.sqrt(se * se + ref_se * ref_se)


def run_union_10_5(phase: Phase, deadline: float, rng) -> None:
    while True:
        seed = rng.getrandbits(62)
        report, latency = phase.timed(
            "union",
            lambda: simplex.estimate_union_probability(10, 5, UNION_TRIALS, seed, threads=1),
        )
        ok = not isinstance(report, Exception) and within(
            report.estimate, UNION_REFERENCE, report.std_error, UNION_REFERENCE_SE
        )
        phase.record(
            "union", latency, UNION_TRIALS, ok, f"union(10, 5) seed={seed}: {_show(report)}"
        )
        if time.perf_counter() >= deadline:
            return


def warm_union_10_5() -> None:
    simplex.estimate_union_probability(10, 5, 1000, 0, threads=1)


# -- mc_small_d --------------------------------------------------------------

MC_TRIALS = 1_000_000
MC_THREADS = 2
RHO_3_3 = 11.0 / 14.0  # rho_n(3, 3) = (nk + k - 1) / (n(k + 1) + k - 1)


def _check_vertex(report) -> bool:
    return within(report.estimate, exact_value(3, RHO_3_3), report.std_error)


def _check_correlations(corr) -> bool:
    sigma = (1.0 - RHO_3_3**2) / math.sqrt(MC_TRIALS)
    if corr.shape != (12, 12):
        return False
    for v in range(4):
        block = corr[3 * v : 3 * v + 3, 3 * v : 3 * v + 3]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if abs(block[i, j] - RHO_3_3) > 5.0 * sigma:
                return False
    return True


def _check_orthant_mc(est) -> bool:
    return within(est.value, 1.0 / 11.0, est.std_error)


def _mc_ops(trials: int):
    return (
        ("vertex", lambda s: simplex.estimate_vertex_probability(3, 3, trials, s, threads=MC_THREADS),
         _check_vertex),
        ("correlations", lambda s: simplex.gradient_correlations(3, 3, trials, s, threads=MC_THREADS),
         _check_correlations),
        ("orthant_mc", lambda s: orthant.monte_carlo(10, 0.5, trials, s, threads=MC_THREADS),
         _check_orthant_mc),
    )


def run_mc_small_d(phase: Phase, deadline: float, rng) -> None:
    while True:
        for kind, call, check in _mc_ops(MC_TRIALS):
            seed = rng.getrandbits(62)
            result, latency = phase.timed(kind, lambda: call(seed))
            ok = not isinstance(result, Exception) and check(result)
            phase.record(kind, latency, MC_TRIALS, ok, f"{kind} seed={seed}: {_show(result)}")
        if time.perf_counter() >= deadline:
            return


def warm_mc_small_d() -> None:
    for _, call, _ in _mc_ops(1000):
        call(0)


def _show(result) -> str:
    if isinstance(result, Exception):
        return repr(result)
    for attr in ("estimate", "value"):
        if hasattr(result, attr):
            return f"{attr}={getattr(result, attr)!r}"
    return type(result).__name__


# -- cli_runs ----------------------------------------------------------------


def child_env() -> dict:
    """The environment of every child: the checkout's source, default library threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("SIMPLEX_ORTHANT_THREADS", None)
    return env


def run_child(argv: list[str], out_dir: Path, traced: bool):
    """Run one child process; return (wall s, exit code, stdout, traced report or None)."""
    report_path = None
    if traced:
        fd, report_path = tempfile.mkstemp(suffix=".json", dir=out_dir)
        os.close(fd)
        argv = argv + ["--report", report_path]
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    wall = time.perf_counter() - started
    report = None
    if report_path is not None:
        try:
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = None
        os.unlink(report_path)
    return wall, proc.returncode, proc.stdout, report


def cli_configs(rng) -> dict:
    """The CLI configs of one pass; the Monte Carlo seeds are fresh each pass."""
    return {
        "compute_mc": ["compute", "--n", "3", "--rho", "0.4", "--method", "mc",
                       "--trials", "300000", "--seed", str(rng.getrandbits(31))],
        "simplex": ["simplex", "--n", "4", "--k", "4", "--trials", "150000",
                    "--seed", str(rng.getrandbits(31))],
        "compute_steck": ["compute", "--n", "2,5,10,100,1000,10000",
                          "--rho", "0.1:0.9:0.1", "--method", "steck"],
        "bounds": ["bounds", "--n", "10,100,1000,10000,100000",
                   "--rho", "0.2,0.3,0.4,0.6,0.75,0.9"],
    }


def check_cli_output(config: str, stdout: bytes) -> bool:
    """Content checks on one config's CSV output."""
    try:
        rows = list(csv.DictReader(io.StringIO(stdout.decode("utf-8"))))
        if config == "compute_mc":
            (row,) = rows
            return within(float(row["value"]), exact_value(3, 0.4), float(row["std_error"]))
        if config == "simplex":
            (row,) = rows
            return within(
                float(row["vertex_estimate"]), float(row["analytic_f"]),
                float(row["vertex_std_error"]),
            ) and 0.0 < float(row["union_estimate"]) <= 1.0
        if config == "compute_steck":
            if len(rows) != 54:
                return False
            for row in rows:
                n, rho, value = int(row["n"]), float(row["rho"]), float(row["value"])
                exact = exact_value(n, rho)
                if not 0.0 < value < 1.0 or (
                    exact is not None and abs(value - exact) > EXACT_TOL * exact
                ):
                    return False
            return True
        return len(rows) == 30 and all(
            row["sandwich_ok"] != "false" and 0.0 < float(row["f"]) < 1.0 for row in rows
        )
    except (KeyError, ValueError, UnicodeDecodeError):
        return False


def cli_call(argv: list[str]) -> tuple[int, bytes]:
    """Run the command line in this process as `python -m simplex_orthant.cli` would.

    Returns the exit code and what it wrote to stdout; stderr (the elapsed
    time line) is discarded.
    """
    from simplex_orthant import cli  # not at the top: set-up children of other workloads skip it

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue().encode("utf-8")


CLI_RUNS = ([], [], ["--threads", "2"])


def run_cli_runs(phase: Phase, deadline: float, rng) -> None:
    """Whole passes of CLI invocations in this process: each config twice, then with --threads 2."""
    while True:
        for config, args in cli_configs(rng).items():
            first = None
            for extra in CLI_RUNS:
                (code, stdout), latency = phase.timed(
                    (config, *extra), lambda: cli_call([*args, *extra])
                )
                first = stdout if first is None else first
                ok = code == 0 and stdout == first and check_cli_output(config, stdout)
                phase.record(
                    (config, *extra), latency, 1, ok, f"cli {config} {' '.join(extra)} exit={code}"
                )
        if time.perf_counter() >= deadline:
            return


def warm_cli_runs() -> None:
    for args in cli_configs(random.Random(0)).values():
        cli_call(args)


def run_cli_processes(phase: Phase, rng, out_dir: Path, tracer=None) -> list[float]:
    """One fresh `python -m simplex_orthant.cli` process per config, not timed as operations.

    Each must exit with 0 and print byte for byte what the same invocation
    prints in this process.  With a tracer the processes run traced and
    their spans and counts go to it.  Returns the wall time of each process.
    """
    walls = []
    for i, (config, args) in enumerate(cli_configs(rng).items()):
        if tracer is not None:
            argv = [str(CHILD), "cli", *args]
        else:
            argv = ["-m", "simplex_orthant.cli", *args]
        wall, code, stdout, report = run_child(argv, out_dir, tracer is not None)
        walls.append(wall)
        ok = code == 0 and stdout == cli_call(args)[1] and check_cli_output(config, stdout)
        if tracer is not None:
            ok = ok and report is not None
            if report is not None:
                tracer.extend(report["spans"], report["counts"], f"process{i}")
                tracer.notes += report["notes"]
        phase.check(ok, f"cli process {config} exit={code}")
    return walls


WORKLOADS = {
    "orthant_grid": {"run": run_orthant_grid, "warm": warm_orthant_grid,
                     "rate": "evals_per_s", "threads": 1},
    "union_10_5": {"run": run_union_10_5, "warm": warm_union_10_5,
                   "rate": "trials_per_s", "threads": 1},
    "mc_small_d": {"run": run_mc_small_d, "warm": warm_mc_small_d,
                   "rate": "trials_per_s", "threads": MC_THREADS},
    "cli_runs": {"run": run_cli_runs, "warm": warm_cli_runs,
                 "rate": "invocations_per_s", "threads": "1 (2 with --threads 2)"},
}
