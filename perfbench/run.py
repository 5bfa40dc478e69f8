"""Benchmark of simplex_orthant: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload orthant_grid --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's `src/`, and the run fails (exit code 2) when there is none.
`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
measures the same phase untraced and then traced, and reports the per-layer
metrics of the traced phase plus the traced-minus-untraced difference of
every end-to-end metric.  The metric names and units come from
BENCHMARK.json; the last line of stdout is the result as one JSON object.
Details of each run go to `.perfbench_out/`.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
COMPUTED = {
    "equicorrelated.rng.normals", "simplex.projection.flops", "simplex.projection.bytes",
    "simplex.design_matrix.bytes", "orthant.quad.integrand_evals",
    "orthant.steck_fixed_nodes.nodes", "orthant.steck.converged_per_eval", "mc.chunks",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_latency(latencies: list[float]):
    """Highest standard percentile with at least ten samples beyond it, in ms."""
    ordered = sorted(latencies)
    for q in TAIL_PERCENTILES:
        beyond = len(ordered) - math.ceil(q / 100.0 * len(ordered))
        if beyond >= 10:
            return {"percentile": q, "ms": ordered[len(ordered) - beyond - 1] * 1e3,
                    "samples": len(ordered), "beyond": beyond}
    return None


def measure_setup(workload: str, traced: bool, fresh) -> float:
    """Median wall time of fresh processes that import and warm up; traced ones feed `fresh`."""
    from workloads import CHILD, run_child

    walls = []
    for i in range(SETUP_RUNS):
        if workload == "cli_runs":
            argv = [str(CHILD), "import-cli"] if traced else ["-c", "import simplex_orthant.cli"]
        else:
            argv = [str(CHILD), "setup", workload]
        wall, code, _, report = run_child(argv, OUT, traced)
        if code != 0 or (traced and report is None):
            raise RuntimeError(f"set-up child for {workload} exited with {code}")
        walls.append(wall)
        if traced:
            fresh.extend(report["spans"], report["counts"], f"setup{i}")
            fresh.notes += report["notes"]
    return statistics.median(walls)


def run_phase(workload: str, seconds: float, rng, tracer=None):
    import workloads

    phase = workloads.Phase(tracer)
    spec = workloads.WORKLOADS[workload]
    spec["run"](phase, time.perf_counter() + seconds, rng)
    return phase


def end_to_end(workload: str, phase, setup_s: float) -> dict:
    """The end-to-end metrics of one phase.

    Each distinct operation is timed by its fastest repetition in the phase;
    NOTES.md gives the reason.  Throughput is the items done per second of
    operation time at those latencies, the latency the median over operations.
    """
    best = {kind: min(times) for kind, times in phase.by_kind.items()}
    busy = sum(best[kind] * len(times) for kind, times in phase.by_kind.items())
    return {
        "setup_s": setup_s,
        "throughput": phase.items / busy,
        "latency_p50_ms": statistics.median(best.values()) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, as observed (nothing is overridden)."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    import workloads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "simplex_orthant").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "library_threads": workloads.WORKLOADS[workload]["threads"],
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_observed": blas_threads(),
        "blas_thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "simplex_orthant" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'simplex_orthant'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import simplex_orthant

    if Path(simplex_orthant.__file__).resolve().parent != ROOT / "src" / "simplex_orthant":
        print(f"error: imported {simplex_orthant.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name, traced = args.workload, bool(args.trace)
    rng = random.Random(args.seed)
    spec = workloads.WORKLOADS[name]

    fresh = spans.Tracer()
    setup_s = measure_setup(name, False, fresh)
    if traced:
        traced_setup_s = measure_setup(name, True, fresh)
    # fill caches and let lazy set-up finish: one untimed pass at full size
    spec["warm"]()
    run_phase(name, 0.0, random.Random(-args.seed))
    # the fresh processes of the per-process figures: the set-up children, or
    # for cli_runs one CLI process per config
    per_process, processes, phases, process_walls = fresh, SETUP_RUNS, [], None
    if name == "cli_runs":
        # the CLI processes check the exit code, and that a process prints
        # what the same invocation prints here
        gate = workloads.Phase()
        per_process = spans.Tracer()
        process_walls = workloads.run_cli_processes(
            gate, random.Random(args.seed), OUT, per_process if traced else None
        )
        processes = len(process_walls)
        phases.append(gate)
    phase = run_phase(name, args.seconds, rng)
    e2e = end_to_end(name, phase, setup_s)
    phases.append(phase)
    report = {"end_to_end": e2e}
    if traced:
        tracer = spans.Tracer()
        tracer.install(simplex_orthant)
        if name == "cli_runs":
            from simplex_orthant import cli

            tracer.install_cli(cli)
        try:
            traced_phase = run_phase(name, args.seconds, rng, tracer)
        finally:
            tracer.uninstall()
        phases.append(traced_phase)
        traced_e2e = end_to_end(name, traced_phase, traced_setup_s)
        run = {"spans": tracer.spans, "counts": tracer.counts, "ops": traced_phase.ops,
               "grid_passes": traced_phase.grid_passes,
               "failed_by_route": traced_phase.failed_by_route}
        values = spans.layer_metrics(run, {"spans": per_process.spans,
                                           "counts": per_process.counts,
                                           "processes": processes})
        for key, untraced in e2e.items():
            values[f"trace_overhead.{key}"] = traced_e2e[key] - untraced
        report.update(traced_end_to_end=traced_e2e, per_op=traced_phase.per_op,
                      hook_notes=sorted(set(tracer.notes + fresh.notes + per_process.notes)))
        declared = bench["per_layer"]
        recorded = tracer.spans + fresh.spans
        if per_process is not fresh:
            recorded += per_process.spans
        write_spans(OUT / f"spans_{name}_seed{args.seed}.jsonl", recorded)
    else:
        values = e2e
        declared = bench["end_to_end"]

    if sorted(values) != sorted(m["name"] for m in declared):
        missing = sorted({m["name"] for m in declared} ^ set(values))
        raise RuntimeError(f"emitted metrics differ from BENCHMARK.json: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = set().union(*(p.failures for p in phases))
    if name == "orthant_grid":
        correct = failures <= workloads.KNOWN_DEFECTS
    else:
        correct = failed == 0
    report.update(
        workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=environment(name, args.seed),
        operations=len(phase.latencies), distinct_operations=len(phase.by_kind),
        raw_throughput=phase.items / sum(phase.latencies),
        raw_latency_p50_ms=statistics.median(phase.latencies) * 1e3,
        latency_tail=tail_latency(phase.latencies),
        attempted=attempted, failed_operations=failed, failed_share=failed / attempted,
        failures=sorted(failures), new_failures=sorted(failures - workloads.KNOWN_DEFECTS),
        notes=sum((p.notes for p in phases), []), metrics=metrics,
        latencies_ms=[t * 1e3 for t in phase.latencies],
        process_ms=[t * 1e3 for t in process_walls] if process_walls else None,
    )
    print_summary(report, spec)
    (OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_spans(path: Path, recorded) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, op in recorded:
            handle.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def print_summary(report: dict, spec: dict) -> None:
    """Human-readable lines before the result line: every metric with unit and sample count."""
    e2e = report["end_to_end"]
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"  setup_s          {e2e['setup_s']:.4f} s   (median of {SETUP_RUNS} fresh processes)")
    print(f"  throughput       {e2e['throughput']:.6g} items/s = {spec['rate']}   "
          f"({report['operations']} operations; at every latency "
          f"{report['raw_throughput']:.6g})")
    print(f"  latency_p50_ms   {e2e['latency_p50_ms']:.6g} ms   (median of "
          f"{report['distinct_operations']} distinct operations, each its fastest of "
          f"{report['operations']} runs; of every run {report['raw_latency_p50_ms']:.6g} ms)")
    tail = report["latency_tail"]
    if tail:
        print(f"  latency_tail_ms  {tail['ms']:.6g} ms   (p{tail['percentile']:g} of "
              f"{tail['samples']} operations, {tail['beyond']} beyond)")
    else:
        print(f"  latency_tail_ms  omitted   ({report['operations']} operations; "
              f"p90 needs at least 100)")
    print(f"  peak_rss_mb      {e2e['peak_rss_mb']:.1f} MB")
    if report["process_ms"]:
        walls = report["process_ms"]
        print(f"  fresh process    {statistics.median(walls):.6g} ms   (median spawn to exit of "
              f"{len(walls)} processes, one per config; not a metric, see NOTES.md)")
    print(f"  failed_share     {report['failed_share']:.6g}   "
          f"({report['failed_operations']} of {report['attempted']} operations)")
    if report["trace"]:
        for metric, entry in report["metrics"].items():
            label = "computed" if metric in COMPUTED else "measured"
            print(f"  {metric:38s} {entry['value']:.6g} {entry['unit']}   [{label}]")
        for note in report["hook_notes"]:
            print(f"  note: {note}")


if __name__ == "__main__":
    sys.exit(main())
