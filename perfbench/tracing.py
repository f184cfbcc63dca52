"""Span tracing of gradsurf from outside, and per-layer metrics from spans.

``install`` replaces each traced function in the namespace the program looks
it up in (``gradsurf.experiment.fit_surrogate``, ``gradsurf.surrogate.
solve_least_squares``, ...) with a wrapper that records one span per call:
(id, parent id, name, thread, start, end, extra).  The parent is the
innermost open span of the same thread.  A span opened on a worker thread
with nothing open there takes as parent the innermost open span of the
thread that runs the root span, i.e. the call waiting on the pool.  Spans
stay in memory
until ``Tracer.spans`` is written out at the end of the run.

``layer_metrics`` turns a span list into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

# (module, attribute, span name): every function is wrapped where the
# calling module looks it up, so no file of the program changes.
TRACED = (
    ("gradsurf.cli", "from_mapping", "config.from_mapping"),
    ("gradsurf.cli", "run_experiment", "experiment.run_experiment"),
    ("gradsurf.cli", "read_json", "artifacts.read_json"),
    ("gradsurf.experiment", "run_cell", "experiment.run_cell"),
    ("gradsurf.experiment", "derive_key", "rng.derive"),
    ("gradsurf.experiment", "derive_stream", "rng.derive"),
    ("gradsurf.experiment", "generate_full_batch", "problem.generate_full_batch"),
    ("gradsurf.experiment", "sample_loss_surface", "problem.sample_loss_surface"),
    ("gradsurf.experiment", "fit_surrogate", "surrogate.fit_surrogate"),
    ("gradsurf.experiment", "translate_to_zero", "surrogate.translate_to_zero"),
    ("gradsurf.experiment", "training_mse", "surrogate.training_mse"),
    ("gradsurf.experiment", "evaluate_surface", "analysis.evaluate_surface"),
    ("gradsurf.experiment", "make_report", "analysis.make_report"),
    ("gradsurf.experiment", "locate_min", "analysis.locate_min"),
    ("gradsurf.experiment", "surrogate_json", "artifacts.surrogate_json"),
    ("gradsurf.experiment", "write_surface_csv", "artifacts.write_surface_csv"),
    ("gradsurf.experiment", "write_observations_csv", "artifacts.write_observations_csv"),
    ("gradsurf.experiment", "write_json", "artifacts.write_json"),
    ("gradsurf.experiment", "render_heatmap_svg", "svg.render_heatmap_svg"),
    ("gradsurf.analysis", "predict_values", "surrogate.predict_values"),
    ("gradsurf.surrogate", "assemble_value_matrix", "kernels.assemble"),
    ("gradsurf.surrogate", "assemble_gradient_matrix", "kernels.assemble"),
    ("gradsurf.surrogate", "solve_least_squares", "kernels.solve"),
    ("gradsurf.rng", "Stream.derive", "rng.derive"),
    ("gradsurf.rng", "Stream.choose", "rng.choose"),
)

# one self time per gradsurf module; the root span is cli.main
LAYERS = (
    "cli",
    "config",
    "experiment",
    "problem",
    "rng",
    "surrogate",
    "kernels",
    "analysis",
    "artifacts",
    "svg",
)

# the nearest of these ancestors decides whether an assembly serves the fit
# sweep or evaluation of a fitted surrogate
_ASSEMBLY_CONTEXT = {
    "surrogate.fit_surrogate": "fit",
    "surrogate.translate_to_zero": "eval",
    "surrogate.predict_values": "eval",
    "surrogate.training_mse": "eval",
}


def _extra(name, args, result):
    """Per-call facts recorded with the span, from arguments and result."""
    if name == "kernels.assemble":
        return {"bytes": result.nbytes}
    if name == "kernels.solve":
        return {"elements": args[0].shape[0] * args[0].shape[1]}
    if name == "surrogate.fit_surrogate":
        recipe = args[1]
        shape = result.params.shape
        return {"at_bound": int(shape in (recipe.shape_lo, recipe.shape_hi))}
    if name.startswith(("artifacts.write", "svg.")):
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    """Records spans of the wrapped calls; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = (stack or self._root_stack or [None])[-1]
        stack.append(span_id)
        start = time.perf_counter()
        extra = None
        try:
            result = fn(*args, **kwargs)
            extra = _extra(name, args, result)
            return result
        except Exception as e:
            extra = {"error": type(e).__name__}
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, threading.get_ident(), start, end, extra)
            )

    def run_root(self, name, fn, *args):
        """Run the traced program call; spans on other threads hang below it."""
        root = next(self._ids)
        self._root_stack = stack = self._stack()
        stack.append(root)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((root, None, name, threading.get_ident(), start, end, None))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every TRACED function; call before the program runs."""
        for module_name, attr, name in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrap(name, getattr(owner, leaf)))


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its span list.

    Self time of a span is its duration minus the union of its children's
    intervals; a layer's self time sums that over the layer's spans.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))

    def context(span):
        parent = by_id.get(span[1])
        while parent is not None:
            kind = _ASSEMBLY_CONTEXT.get(parent[2])
            if kind is not None:
                return kind
            parent = by_id.get(parent[1])
        return "other"

    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    sums: dict[str, int] = defaultdict(int)
    cells = []
    for s in spans:
        span_id, _, name, _, start, end, extra = s
        if name == "kernels.assemble":
            name = f"kernels.assemble.{context(s)}"
        busy[name] += end - start
        self_time[name] += (end - start) - _union_length(children.get(span_id, ()))
        count[name] += 1
        for key, value in (extra or {}).items():
            if key == "error":
                key, value = "failed", 1
            sums[f"{name}.{key}"] += value
        if name == "experiment.run_cell":
            cells.append((start, end))

    root = next(s for s in spans if s[1] is None)
    wall = root[5] - root[4]
    m: dict[str, float] = {"trace.wall_s": wall}

    durations = [e - s for s, e in cells]
    first_to_last = max(e for _, e in cells) - min(s for s, _ in cells) if cells else 0.0
    m["experiment.run_cell.count"] = len(cells)
    m["experiment.run_cell.busy_s"] = sum(durations)
    m["experiment.run_cell.p50_s"] = statistics.median(durations) if cells else 0.0
    m["experiment.cells_in_flight"] = sum(durations) / first_to_last if cells else 0.0

    for kind in ("fit", "eval"):
        name = f"kernels.assemble.{kind}"
        m[f"{name}.count"] = count[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.bytes"] = sums[f"{name}.bytes"]
    solves = count["kernels.solve"]
    failed = sums["kernels.solve.failed"]
    m["kernels.solve.count"] = solves
    m["kernels.solve.busy_s"] = busy["kernels.solve"]
    m["kernels.solve.failed"] = failed
    m["kernels.solve.elements"] = sums["kernels.solve.elements"]

    for name in ("translate_to_zero", "predict_values", "training_mse"):
        m[f"surrogate.{name}.busy_s"] = busy[f"surrogate.{name}"]
    m["surrogate.fit_surrogate.busy_s"] = busy["surrogate.fit_surrogate"]
    m["surrogate.fit_surrogate.self_s"] = self_time["surrogate.fit_surrogate"]
    m["surrogate.candidate_useful_ratio"] = (solves - failed) / solves if solves else 0.0
    m["surrogate.winner_at_bound"] = sums["surrogate.fit_surrogate.at_bound"]

    m["problem.sample_loss_surface.busy_s"] = busy["problem.sample_loss_surface"]
    m["rng.derive.count"] = count["rng.derive"]
    m["rng.choose.count"] = count["rng.choose"]

    for name in (
        "artifacts.write_surface_csv",
        "artifacts.write_observations_csv",
        "artifacts.write_json",
        "svg.render_heatmap_svg",
    ):
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.bytes"] = sums[f"{name}.bytes"]
    for name in ("analysis.evaluate_surface", "analysis.make_report"):
        m[f"{name}.busy_s"] = busy[name]

    layers = dict.fromkeys(LAYERS, 0.0)
    for name, own in self_time.items():
        layers[name.split(".")[0]] += own
    for module, own in layers.items():
        m[f"{module}.self_s"] = own
    m["trace.self_share"] = sum(layers.values()) / wall
    return m


# integer per-layer metrics that must repeat exactly between two traced runs
COUNT_METRICS = (
    "experiment.run_cell.count",
    "kernels.assemble.fit.count",
    "kernels.assemble.fit.bytes",
    "kernels.assemble.eval.count",
    "kernels.assemble.eval.bytes",
    "kernels.solve.count",
    "kernels.solve.failed",
    "kernels.solve.elements",
    "surrogate.winner_at_bound",
    "rng.derive.count",
    "rng.choose.count",
    "artifacts.write_surface_csv.bytes",
    "artifacts.write_observations_csv.bytes",
    "artifacts.write_json.bytes",
    "svg.render_heatmap_svg.bytes",
)
