"""In-memory span recorder and the hooks that place spans at layer boundaries.

Spans are recorded from outside the package: `install` replaces the
module-level functions through which each layer of `simplex_orthant` is
entered with timing wrappers, and `uninstall` puts the originals back.
Nothing under `src/` knows about tracing.

A span is (id, name, start, end, parent id, operation id).  The benchmark
drives one operation at a time, so the current operation id is a single
attribute; chunk callbacks that `_map_ordered` runs on executor threads get
their parent span passed in explicitly, which attributes them to the
operation that started the map.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from itertools import count


class Tracer:
    """Spans and counts of one process, and the hooks that record them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.notes: list[str] = []
        self.op = None
        self._ids = count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str, parent=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = parent if parent is not None else (stack[-1] if stack else None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op))

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def extend(self, spans, counts, op) -> None:
        """Merge spans and counts recorded by a child process under `op`."""
        remap = {span[0]: next(self._ids) for span in spans}
        for span_id, name, start, end, parent, _ in spans:
            self.spans.append((remap[span_id], name, start, end, remap.get(parent), op))
        for key, value in counts.items():
            self.add(key, value)

    # -- hooks -------------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.notes.append(
                f"hook target {module.__name__}.{attr} not found; it records zero calls"
            )
            return
        setattr(module, attr, make(original))
        self._restore.append((module, attr, original))

    def _timed(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def install(self, package) -> None:
        """Wrap the layer entry points of the imported `simplex_orthant` modules."""
        orthant, simplex, equicorrelated = package.orthant, package.simplex, package.equicorrelated
        for module, attr, name in (
            (orthant, "best_estimate", "orthant.best_estimate"),
            (orthant, "density_integral", "orthant.density_integral"),
            (orthant, "theorem_bounds", "orthant.theorem_bounds"),
            (orthant, "monte_carlo", "orthant.monte_carlo"),
            (orthant, "_steck_log_peak", "orthant.steck_log_peak"),
            (orthant, "sample_chunk", "equicorrelated.sample_chunk"),
            (simplex, "estimate_union_probability", "simplex.estimate_union_probability"),
            (simplex, "estimate_vertex_probability", "simplex.estimate_vertex_probability"),
            (simplex, "gradient_correlations", "simplex.gradient_correlations"),
            (simplex, "analytic_vertex_probability", "simplex.analytic"),
            (simplex, "tv_pipeline", "simplex.tv_pipeline"),
        ):
            self._patch(module, attr, self._timed(name))
        self._patch(orthant, "steck_quadrature", self._steck_quadrature)
        self._patch(orthant, "_steck_fixed_nodes", self._steck_fixed_nodes)
        self._patch(orthant, "integrate", lambda module: _QuadProxy(module, self))
        self._patch(orthant, "_map_ordered", self._map_ordered("orthant"))
        self._patch(simplex, "_map_ordered", self._map_ordered("simplex"))
        self._patch(simplex, "_design_matrix", self._design_matrix)
        self._patch(simplex, "_derivative_chunks", self._derivative_chunks)
        self._patch(simplex, "chunk_generator", self._chunk_generator)
        self._patch(equicorrelated, "chunk_generator", self._chunk_generator)

    def install_cli(self, cli) -> None:
        self._patch(cli, "run", self._timed("cli.run"))
        self._patch(cli, "_emit", self._timed("cli.emit"))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _steck_quadrature(self, original):
        def wrapper(*args, **kwargs):
            before = self.counts["orthant.steck_fixed_nodes.calls"]
            with self.span("orthant.steck_quadrature"):
                result = original(*args, **kwargs)
            self.add("orthant.steck.converged", 1)
            self.add(
                "orthant.steck.fixed_in_converged",
                self.counts["orthant.steck_fixed_nodes.calls"] - before,
            )
            return result

        return wrapper

    def _steck_fixed_nodes(self, original):
        def wrapper(n, rho, nodes, *args, **kwargs):
            with self.span("orthant.steck_fixed_nodes"):
                result = original(n, rho, nodes, *args, **kwargs)
            self.add("orthant.steck_fixed_nodes.calls", 1)
            self.add("orthant.steck_fixed_nodes.nodes", nodes)
            return result

        return wrapper

    def _map_ordered(self, layer: str):
        def make(original):
            def wrapper(fn, n_chunks, *args, **kwargs):
                with self.span(f"{layer}.map") as map_span:

                    def chunk(c):
                        with self.span(f"{layer}.chunk", parent=map_span):
                            result = fn(c)
                        if isinstance(result, int):
                            self.add("mc.hits", result)
                        return result

                    self.add("mc.chunks", n_chunks)
                    return original(chunk, n_chunks, *args, **kwargs)

            return wrapper

        return make

    def _design_matrix(self, original):
        cache_info = getattr(original, "cache_info", None)

        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else None
            with self.span("simplex.design_matrix"):
                result = original(*args, **kwargs)
            if cache_info is None or cache_info().misses != misses:
                self.add("simplex.design_matrix.bytes", result.nbytes)
            return result

        return wrapper

    def _derivative_chunks(self, original):
        def wrapper(n, k, *args, **kwargs):
            sample = original(n, k, *args, **kwargs)
            d = math.comb(n + k - 1, k)

            def timed(chunk, size):
                with self.span("simplex.sample"):
                    out = sample(chunk, size)
                rows = out.shape[1]
                # computed from array shapes: coefficients @ design.T
                self.add("simplex.projection.flops", 2 * size * d * rows)
                self.add("simplex.projection.bytes", 8 * (size * d + rows * d + size * rows))
                return out

            return timed

        return wrapper

    def _chunk_generator(self, original):
        def wrapper(*args, **kwargs):
            with self.span("equicorrelated.rng"):
                return _TimedGenerator(original(*args, **kwargs), self)

        return wrapper


class _TimedGenerator:
    """Stands in for a numpy Generator and times its normal draws."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span("equicorrelated.rng"):
            out = self._generator.standard_normal(*args, **kwargs)
        self._tracer.add("equicorrelated.rng.normals", getattr(out, "size", 1))
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


class _QuadProxy:
    """Stands in for `scipy.integrate` inside `orthant`; times and counts `quad`."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def quad(self, func, *args, **kwargs):
        evals = 0

        def counted(x, *fargs):
            nonlocal evals
            evals += 1
            return func(x, *fargs)

        try:
            with self._tracer.span("orthant.quad"):
                return self._module.quad(counted, *args, **kwargs)
        finally:
            self._tracer.add("orthant.quad.calls", 1)
            self._tracer.add("orthant.quad.integrand_evals", evals)

    def __getattr__(self, name):
        return getattr(self._module, name)


# -- aggregation -------------------------------------------------------------


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def busy_and_self(spans) -> tuple[dict, dict]:
    """Per span name: total duration, and self time (duration minus what children cover)."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    busy, own = defaultdict(float), defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        busy[name] += end - start
        own[name] += (end - start) - _covered(children.get(span_id, ()), start, end)
    return busy, own


def layer_metrics(run: dict, fresh: dict) -> dict:
    """The per-layer metrics of one traced phase.

    `run` holds the spans, counts and operation count of the traced
    operations, plus the grid failures by route; `fresh` holds the spans,
    counts and number of the fresh processes traced (set-up children, or the
    CLI processes themselves).  Every figure is per operation except the
    design-matrix and import figures, which are per fresh process: the matrix
    is built once per process and cached after.
    """
    busy, own = busy_and_self(run["spans"])
    fresh_busy, _ = busy_and_self(fresh["spans"])
    counts = run["counts"]
    per_op = 1.0 / max(run["ops"], 1)
    per_process = 1.0 / max(fresh["processes"], 1)
    per_pass = 1.0 / max(run["grid_passes"], 1)
    converged = counts.get("orthant.steck.converged", 0.0)
    chunk_busy = busy["simplex.chunk"] + busy["orthant.chunk"]
    map_busy = busy["simplex.map"] + busy["orthant.map"]
    steck_peaks = sum(1 for span in run["spans"] if span[1] == "orthant.steck_log_peak")
    return {
        "equicorrelated.rng.busy_s": busy["equicorrelated.rng"] * per_op,
        "equicorrelated.rng.normals": counts.get("equicorrelated.rng.normals", 0) * per_op,
        "simplex.projection.busy_s": own["simplex.sample"] * per_op,
        "simplex.projection.flops": counts.get("simplex.projection.flops", 0) * per_op,
        "simplex.projection.bytes": counts.get("simplex.projection.bytes", 0) * per_op,
        "simplex.design_matrix.busy_s": fresh_busy["simplex.design_matrix"] * per_process,
        "simplex.design_matrix.bytes": fresh["counts"].get("simplex.design_matrix.bytes", 0)
        * per_process,
        "simplex.reduction.busy_s": own["simplex.chunk"] * per_op,
        "simplex.chunk_parallelism": chunk_busy / map_busy if map_busy else 0.0,
        "simplex.analytic.busy_s": busy["simplex.analytic"] * per_op,
        "simplex.tv_pipeline.busy_s": busy["simplex.tv_pipeline"] * per_op,
        "orthant.steck_log_peak.calls": steck_peaks * per_op,
        "orthant.steck_log_peak.busy_s": busy["orthant.steck_log_peak"] * per_op,
        "orthant.steck_fixed_nodes.calls": counts.get("orthant.steck_fixed_nodes.calls", 0)
        * per_op,
        "orthant.steck_fixed_nodes.busy_s": busy["orthant.steck_fixed_nodes"] * per_op,
        "orthant.steck_fixed_nodes.nodes": counts.get("orthant.steck_fixed_nodes.nodes", 0)
        * per_op,
        "orthant.steck.converged_per_eval": (
            counts.get("orthant.steck.fixed_in_converged", 0) / converged if converged else 0.0
        ),
        "orthant.density_integral.busy_s": busy["orthant.density_integral"] * per_op,
        "orthant.quad.calls": counts.get("orthant.quad.calls", 0) * per_op,
        "orthant.quad.busy_s": busy["orthant.quad"] * per_op,
        "orthant.quad.integrand_evals": counts.get("orthant.quad.integrand_evals", 0) * per_op,
        "orthant.steck_quadrature.failed": run["failed_by_route"].get("steck", 0) * per_pass,
        "orthant.density_integral.failed": run["failed_by_route"].get("density", 0) * per_pass,
        "orthant.monte_carlo.busy_s": busy["orthant.monte_carlo"] * per_op,
        "equicorrelated.sample_chunk.busy_s": busy["equicorrelated.sample_chunk"] * per_op,
        "mc.chunks": counts.get("mc.chunks", 0) * per_op,
        "cli.import_s": fresh["counts"].get("cli.import_s", 0) * per_process,
        "cli.run.busy_s": busy["cli.run"] * per_op,
        "cli.emit.busy_s": busy["cli.emit"] * per_op,
    }
