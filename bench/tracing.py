"""Spans around the public functions of dhawkes' layers, kept in memory.

A traced run installs a wrapper around every public function of the layer
modules, in every dhawkes namespace that refers to it, so calls from one
layer into another (and the benchmark's own calls) are recorded with their
caller.  Inside ``dhawkes.cubic`` itself nothing is wrapped: its
closed-form helpers call each other tens of times per grid cell, and
wrapping those would swamp the cost being measured.  ``dhawkes.model`` has
no call on any workload's hot path and is not wrapped.

The per-layer metrics are computed from the spans of one traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, NamedTuple

from dhawkes.simulate import ExcursionKind, run_trajectory
from workloads import SWEEP_B

LAYERS = ("cli", "experiments", "simulate", "stats", "drift", "cubic", "classify")

# Spans of these functions keep their arguments and result for the metrics.
_KEEP = frozenset(
    {"run_excursion", "run_excursions", "exploding_gallery", "disc_grid", "scan_violations", "sweep_explosion"}
)


class Span(NamedTuple):
    layer: str
    name: str
    parent: int  # index of the calling span, -1 at the top
    start_ns: int
    end_ns: int
    args: tuple | None
    result: Any


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        keep = name in _KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)  # type: ignore[arg-type]  # filled on return
            self._stack.append(idx)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = Span(layer, name, parent, start, end,
                                       (args, kwargs) if keep else None, result if keep else None)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the public functions while inside the block; restore them after."""
        patched = []
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "dhawkes" or n.startswith("dhawkes.")]
        try:
            for layer in LAYERS:
                home = importlib.import_module(f"dhawkes.{layer}")
                for name, fn in list(vars(home).items()):
                    if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                        continue
                    wrapper = self._wrap(layer, name, fn)
                    for ns in namespaces:
                        if vars(ns).get(name) is fn and not (ns is home and layer == "cubic"):
                            patched.append((ns, name, fn))
                            setattr(ns, name, wrapper)
            yield self
        finally:
            for ns, name, fn in reversed(patched):
                setattr(ns, name, fn)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end_ns - s.start_ns
        return [s.end_ns - s.start_ns - c for s, c in zip(self.spans, child)]

    def to_json(self) -> dict:
        """Columns of every span plus self time and call count per layer."""
        self_ns = self.self_ns()
        layers: dict[str, dict[str, int]] = {}
        for s, own in zip(self.spans, self_ns):
            entry = layers.setdefault(s.layer, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += own
        return {
            "layers": layers,
            "spans": {
                "layer": [s.layer for s in self.spans],
                "name": [s.name for s in self.spans],
                "parent": [s.parent for s in self.spans],
                "start_ns": [s.start_ns for s in self.spans],
                "end_ns": [s.end_ns for s in self.spans],
            },
        }


def pooled_batches(tracer: Tracer) -> list[Span]:
    """run_excursions spans whose excursions ran in worker processes.

    Such a call has no run_excursion child span in this process.
    """
    parents = {s.parent for s in tracer.spans if s.name == "run_excursion"}
    return [s for i, s in enumerate(tracer.spans) if s.name == "run_excursions" and i not in parents]


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 without samples."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def arg(span: Span, pos: int, name: str):
    """Argument of a kept span, passed by position or by name."""
    args, kwargs = span.args
    return args[pos] if len(args) > pos else kwargs[name]


def batch_args(span: Span) -> tuple:
    """(params, cfg, n_replicas) of a kept run_excursions span."""
    return tuple(arg(span, i, name) for i, name in enumerate(("params", "cfg", "n_replicas")))


def sweep_points(tracer: Tracer) -> list[tuple[float, Span]]:
    """(swept b, run_excursions span) of every point of every traced sweep."""
    spans = tracer.spans
    return [
        (arg(s, 0, "params").coeffs[1], s)
        for s in spans
        if s.name == "run_excursions" and s.parent >= 0 and spans[s.parent].name == "sweep_explosion"
    ]


def exact_steps(tracer: Tracer) -> int:
    """Steps simulated by every traced excursion.

    An exploded outcome reports the sentinel horizon+1, so its excursion is
    replayed with ``run_trajectory``, which stops at the same fresh count.
    """
    steps = 0
    for s in tracer.spans:
        if s.name != "run_excursion":
            continue
        if s.result.kind is ExcursionKind.EXPLODED:
            params, cfg, replica = (arg(s, i, n) for i, n in enumerate(("params", "cfg", "replica_index")))
            steps += len(run_trajectory(params, cfg, cfg.horizon_n, replica).states)
        else:
            steps += s.result.steps
    return steps


def layer_metrics(
    tracer: Tracer,
    steps: int,
    bytes_written: int,
    probe: tuple[float, float, int] | None,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``probe`` is (t at jobs=1, t at jobs, jobs) of one untraced sweep point.
    A metric of a function the workload never calls reads 0.
    """
    spans = tracer.spans
    self_ns = tracer.self_ns()

    def dur(name: str) -> list[int]:
        return [s.end_ns - s.start_ns for s in spans if s.name == name]

    def own(name: str) -> list[int]:
        return [t for s, t in zip(spans, self_ns) if s.name == name]

    in_grid = [False] * len(spans)
    for i, s in enumerate(spans):
        in_grid[i] = s.name == "disc_grid" or (s.parent >= 0 and in_grid[s.parent])
    cells = sum(len(s.result) for s in spans if s.name == "disc_grid")
    grid_cubic_calls = sum(1 for s, g in zip(spans, in_grid) if g and s.layer == "cubic")
    grid_classify_ns = sum(s.end_ns - s.start_ns for s, g in zip(spans, in_grid) if g and s.name == "classify")

    excursions = [s.result for s in spans if s.name == "run_excursion"]
    kinds = {k: sum(1 for o in excursions if o.kind.value == k) for k in ("returned", "exploded", "censored")}
    exc_us = [t / 1e3 for t in dur("run_excursion")]
    galleries = [s.result for s in spans if s.name == "exploding_gallery"]
    scanned = sum(g.replicas_scanned for g in galleries)

    m = {
        "simulate.rng_setup_us": _median(dur("replica_rng")) / 1e3,
        "simulate.excursion_us.p50": _percentile(exc_us, 50),
        "simulate.excursion_us.p99": _percentile(exc_us, 99),
        "simulate.steps": steps,
        "simulate.ns_per_step": sum(own("run_excursion")) / steps if steps else 0.0,
        "simulate.returned": kinds["returned"],
        "simulate.exploded": kinds["exploded"],
        "simulate.censored": kinds["censored"],
        "simulate.trajectory_us": _median(dur("run_trajectory")) / 1e3,
        "experiments.parallel_eff": probe[0] / (probe[2] * probe[1]) if probe else 0.0,
        "experiments.overhead_s": probe[1] - probe[0] / probe[2] if probe else 0.0,
        "experiments.gallery_useful_ratio": sum(len(g.entries) for g in galleries) / scanned if scanned else 0.0,
        "stats.clopper_pearson_ms": sum(dur("clopper_pearson")) / 1e6,
        "stats.ecdf_ms": sum(dur("ecdf")) / 1e6,
        "drift.cube_scans": len(dur("scan_violations")),
        "drift.small_set_calls": len(dur("verify_small_set")),
        "drift.scan_ms": _median(own("scan_violations")) / 1e6,
        "drift.q_check_ms": _median(dur("q_form_negativity_check")) / 1e6,
        "drift.bytes_computed": sum(
            8 * (arg(s, 3, "box_radius") + 1) ** 3 for s in spans if s.name == "scan_violations"
        ),
        "cubic.calls_per_cell": grid_cubic_calls / cells if cells else 0.0,
        "cubic.report_us": _median(dur("cubic_report")) / 1e3,
        "classify.us_per_cell": grid_classify_ns / cells / 1e3 if cells else 0.0,
        "cli.write_s": sum(s.end_ns - s.start_ns for s in spans if s.name.startswith("write_")) / 1e9,
        "cli.bytes_written": bytes_written,
        "trace.overhead_frac": overhead_frac,
    }
    for b in SWEEP_B:  # mc_sweep's points; b = 1 is also mc_tail's sweep
        m[f"experiments.point_wall_s.b{b:g}"] = 0.0
    for b, s in sweep_points(tracer):
        m[f"experiments.point_wall_s.b{b:g}"] = (s.end_ns - s.start_ns) / 1e9
    return m
