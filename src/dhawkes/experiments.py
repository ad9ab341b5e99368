"""Batch experiment drivers: explosion sweeps, return-time ECDFs, galleries, grids.

All drivers are deterministic given the sweep's master seed: every sweep
point gets a derived seed (splitmix64 of the master seed and the point
index) and every replica inside a point draws from its own stream, so
results do not depend on worker count, chunking or execution order.
Replica batches can be spread over a process pool; the pool returns
them in submission order, which is replica order.  A sweep command
(`sweep_explosion`, `tau_cdf_experiment`) opens one pool, runs every
point on it and closes it before it returns, also when a point raises.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import NamedTuple, TypeVar

import numpy as np

from .classify import MAX_GRID_POINTS, classify_p3, grid_count, grid_values
from .model import Params
from .simulate import (
    ExcursionKind,
    ExcursionOutcome,
    SimConfig,
    detect_alternation,
    run_excursion,
    run_trajectory,
)
from .stats import ConfidenceInterval, clopper_pearson, ecdf

_MASK64 = (1 << 64) - 1

GALLERY_REPLICA_CAP = 10_000_000

# Cells classified per classify_p3 call in disc_grid, which bounds its working memory.
GRID_CHUNK = 1 << 16

_T = TypeVar("_T")


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_point_seed(master_seed: int, point_index: int) -> int:
    """Deterministic per-point master seed, stable across runs and workers."""
    return _splitmix64(_splitmix64(master_seed & _MASK64) ^ (point_index + 1))


@dataclass(frozen=True)
class SweepSpec:
    """One-coordinate sweep of the three-parameter model."""

    fixed: dict[str, float]  # two of "a", "b", "c"
    sweep_name: str  # the remaining coordinate
    values: tuple[float, ...]
    lam: float = 1.0
    replicas: int = 100_000  # desk-scale default; raise toward 1e6 for production runs
    sim: SimConfig = field(default_factory=SimConfig)
    alpha: float = 0.01
    jobs: int | None = None

    def __post_init__(self) -> None:
        names = set(self.fixed) | {self.sweep_name}
        if names != {"a", "b", "c"} or self.sweep_name in self.fixed:
            raise ValueError(
                f"fixed {sorted(self.fixed)} plus swept '{self.sweep_name}' "
                "must cover a, b, c exactly"
            )
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("swept values must be finite")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        _check_jobs(self.jobs)

    def params_at(self, value: float) -> Params:
        coeffs = dict(self.fixed)
        coeffs[self.sweep_name] = value
        return Params.p3(coeffs["a"], coeffs["b"], coeffs["c"], self.lam)


@dataclass(frozen=True)
class SweepRow:
    value: float
    exploded: int
    replicas: int
    proportion: float
    interval: ConfidenceInterval
    mean_tau_returned: float | None
    censored: int  # reached the horizon neither returned nor exploded


def _check_jobs(jobs: int | None) -> None:
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def _workers(jobs: int | None, n_replicas: int) -> int:
    """Worker processes for n replicas; 1 means run them in this process.

    jobs=None uses every core, and no more than one worker runs per core.
    Fewer than 256 replicas are not worth a pool's dispatch.
    """
    _check_jobs(jobs)
    cores = os.cpu_count() or 1
    return 1 if n_replicas < 256 else min(jobs or cores, cores, n_replicas)


# Kind of an outcome by its code in a batch's kind bytes.
_KINDS = tuple(ExcursionKind)


def _batch_task(payload: tuple[Params, SimConfig, int, int]) -> tuple[bytes, tuple[int, ...], tuple[int, ...]]:
    """Outcomes of one replica range as columns: kind codes, steps, peaks.

    Peaks stay Python ints: a count above the threshold is followed up to
    1e300 and would overflow any fixed-width integer array.
    """
    params, cfg, start, stop = payload
    kinds, steps, peaks = zip(*(run_excursion(params, cfg, r) for r in range(start, stop)))
    return bytes(map(_KINDS.index, kinds)), steps, peaks


def run_excursions(
    params: Params,
    cfg: SimConfig,
    n_replicas: int,
    jobs: int | None = None,
    *,
    pool: ProcessPoolExecutor | None = None,
) -> list[ExcursionOutcome]:
    """Outcomes of replicas 0..n-1, bit-identical for any worker count.

    jobs=None uses every core.  Batches run on `pool` when one is given
    (it stays open); otherwise a pool is opened for this call and closed
    before it returns.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    workers = _workers(jobs, n_replicas)
    if workers == 1:
        return [run_excursion(params, cfg, r) for r in range(n_replicas)]
    chunk = max(256, -(-n_replicas // (workers * 8)))
    payloads = [
        (params, cfg, start, min(start + chunk, n_replicas))
        for start in range(0, n_replicas, chunk)
    ]
    outcomes: list[ExcursionOutcome] = []
    with nullcontext(pool) if pool is not None else ProcessPoolExecutor(workers) as executor:
        for codes, steps, peaks in executor.map(_batch_task, payloads):
            outcomes += map(ExcursionOutcome, map(_KINDS.__getitem__, codes), steps, peaks)
    return outcomes


def _per_point(spec: SweepSpec, reduce: Callable[[float, list[ExcursionOutcome]], _T]) -> list[_T]:
    """reduce(value, outcomes) for each swept value, all points run on one pool.

    The pool's workers have exited when this returns or raises, so their
    CPU time and memory are accounted to this process's reaped children.
    """
    workers = _workers(spec.jobs, spec.replicas)
    seed = spec.sim.master_seed
    with nullcontext() if workers == 1 else ProcessPoolExecutor(workers) as pool:
        return [
            reduce(value, run_excursions(
                spec.params_at(value), replace(spec.sim, master_seed=derive_point_seed(seed, idx)),
                spec.replicas, spec.jobs, pool=pool,
            ))
            for idx, value in enumerate(spec.values)
        ]


def sweep_explosion(spec: SweepSpec) -> list[SweepRow]:
    """Explosion proportion with exact confidence interval per swept value."""

    def row(value: float, outcomes: list[ExcursionOutcome]) -> SweepRow:
        kinds = Counter(o.kind for o in outcomes)
        exploded, n = kinds[ExcursionKind.EXPLODED], spec.replicas
        returned = [o.steps for o in outcomes if o.kind is ExcursionKind.RETURNED]
        return SweepRow(
            value=value, exploded=exploded, replicas=n, proportion=exploded / n,
            interval=clopper_pearson(exploded, n, spec.alpha),
            mean_tau_returned=sum(returned) / len(returned) if returned else None,
            censored=kinds[ExcursionKind.CENSORED],
        )

    return _per_point(spec, row)


def tau_cdf_experiment(spec: SweepSpec) -> dict[float, list[tuple[int, float]]]:
    """Empirical CDF of the truncated return time per swept value.

    Exploded excursions carry the sentinel horizon+1 and appear as a
    final atom; censored ones sit at the horizon itself.
    """
    curves = _per_point(spec, lambda value, outcomes: (value, ecdf([o.steps for o in outcomes])))
    return dict(curves)


@dataclass(frozen=True)
class GalleryEntry:
    replica: int
    prefix: tuple[int, ...]
    alternation_onset: int | None


@dataclass(frozen=True)
class GalleryResult:
    entries: tuple[GalleryEntry, ...]
    partial: bool
    replicas_scanned: int


def exploding_gallery(
    params3: Params,
    cfg: SimConfig,
    want: int,
    prefix_len: int,
    replica_cap: int = GALLERY_REPLICA_CAP,
) -> GalleryResult:
    """Collect the first `want` exploding excursions (by replica index).

    Each entry replays its replica's stream to extract the first
    prefix_len counts, which is exact because trajectories and excursions
    consume randomness identically.  If the cap is hit first, the result
    is flagged partial rather than silently short.
    """
    if want < 1:
        raise ValueError(f"want must be >= 1, got {want}")
    if prefix_len < 1:
        raise ValueError(f"prefix_len must be >= 1, got {prefix_len}")
    if replica_cap < 1:
        raise ValueError(f"replica_cap must be >= 1, got {replica_cap}")
    found: list[int] = []
    scanned = 0
    while scanned < replica_cap and len(found) < want:
        o = run_excursion(params3, cfg, scanned)
        if o.kind is ExcursionKind.EXPLODED:
            found.append(scanned)
        scanned += 1
    entries = []
    for r in found[:want]:
        traj = run_trajectory(params3, cfg, prefix_len, r)
        prefix = tuple(s[0] for s in traj.states)
        onset = detect_alternation(list(prefix)) if len(prefix) >= 4 else None
        entries.append(GalleryEntry(replica=r, prefix=prefix, alternation_onset=onset))
    return GalleryResult(
        entries=tuple(entries), partial=len(found) < want, replicas_scanned=scanned
    )


class GridCell(NamedTuple):
    a: float
    b: float
    c: float
    disc: float
    disc_sign: int
    linear_stable: bool
    verdict: str
    rule: str


def disc_grid(
    a_values: list[float],
    b_range: tuple[float, float],
    c_range: tuple[float, float],
    step: float,
    lam: float = 1.0,
) -> list[GridCell]:
    """Sign of the discriminant, linear stability and fired rule per grid cell.

    Cells are row-major over (a, b, c), c varying fastest.  Each cell
    carries classify's label of its point and the disc and linear
    stability of that label's cubic witness; classify_p3 decides them
    GRID_CHUNK cells at a time.  ValueError where the grid has more than
    MAX_GRID_POINTS cells.
    """
    shape = (len(a_values), grid_count(*b_range, step), grid_count(*c_range, step))
    n = math.prod(shape)
    if n > MAX_GRID_POINTS:
        raise ValueError(f"grid of {n} cells has more than {MAX_GRID_POINTS}")
    axes = [np.array(a_values, dtype=np.float64)] + [
        np.array(grid_values(*r, step)) for r in (b_range, c_range)
    ]
    cells: list[GridCell] = []
    for start in range(0, n, GRID_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + GRID_CHUNK, n)), shape)
        a, b, c = (axis[i] for axis, i in zip(axes, index))
        labels = classify_p3(a, b, c, lam)
        disc = labels.reports.disc.tolist()
        cells += map(
            GridCell,
            a.tolist(),
            b.tolist(),
            c.tolist(),
            disc,
            [(d > 0) - (d < 0) for d in disc],
            (labels.reports.spectral_radius < 1.0).tolist(),
            [v.value for v in labels.verdicts],
            labels.rules,
        )
    return cells
