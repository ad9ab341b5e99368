"""Batch experiment drivers: explosion sweeps, return-time ECDFs, galleries, grids.

All drivers are deterministic given the sweep's master seed: every sweep
point gets a derived seed (splitmix64 of the master seed and the point
index) and every replica inside a point draws from its own stream, so
results do not depend on worker count, chunking or execution order.
Replica batches can be spread over a process pool; the pool returns
them in submission order, which is replica order.  A sweep command
(`sweep_explosion`, `tau_cdf_experiment`) opens one pool and queues the
batches of every point on it at once; when a point raises, the batches
still queued are cancelled.  The pool is closed before the command
returns or raises.  `disc_grid` returns its cells as a `Table`, columns
of Python scalars that build a GridCell only where one is read.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import NamedTuple, TypeVar

import numpy as np

from .classify import MAX_GRID_POINTS, classify_p3, grid_count, grid_values
from .model import Params
from .simulate import (
    BLOCK,
    ExcursionKind,
    ExcursionOutcome,
    SimConfig,
    _outcomes,
    detect_alternation,
    run_excursion,
    run_trajectory,
)
from .stats import clopper_pearson, ecdf

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
        if not self.values:
            raise ValueError("swept values must not be empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("swept values must be finite")
        repeated = [v for v, n in Counter(self.values).items() if n > 1]  # 0.0 and -0.0 are one value
        if repeated:
            raise ValueError(f"swept value {repeated[0]} given twice")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        _check_jobs(self.jobs)

    def params_at(self, value: float) -> Params:
        coeffs = dict(self.fixed)
        coeffs[self.sweep_name] = value
        return Params.p3(coeffs["a"], coeffs["b"], coeffs["c"], self.lam)


class SweepRow(NamedTuple):
    """One swept point; the fields are the sweep table's columns, in order."""

    swept_value: float
    exploded: int
    N: int  # replicas run
    proportion: float
    ci_lower: float  # the exact (Clopper-Pearson) interval of the proportion
    ci_upper: float
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


def _batch_task(payload: tuple[Params, SimConfig, int, int]) -> tuple[tuple, ...]:
    """Outcomes of one replica range as columns: kinds, steps, peaks.

    Columns pickle without a NamedTuple per outcome, and each kind after
    its first is a reference to it.  Peaks stay Python ints: a count above
    the threshold is followed up to 1e300 and would overflow any
    fixed-width integer array.
    """
    return tuple(zip(*_outcomes(*payload)))


def _batches(params: Params, cfg: SimConfig, n_replicas: int, workers: int) -> list[tuple[Params, SimConfig, int, int]]:
    """The batches of replicas 0..n-1 on `workers` workers, about 4 per worker, in replica order."""
    chunk = max(256, -(-n_replicas // (workers * 4)))
    chunk = -(-chunk // BLOCK) * BLOCK  # whole blocks, so no batch runs a block another batch runs
    return [(params, cfg, start, min(start + chunk, n_replicas)) for start in range(0, n_replicas, chunk)]


@contextmanager
def _pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """A pool of `workers` processes; on leaving, the batches still queued are
    cancelled and the workers have exited."""
    pool = ProcessPoolExecutor(workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


class _Queued(Executor):
    """Batches submitted to `pool` up front, in the order given.

    `map(_batch_task, batches)` hands back the results of those batches,
    in the order asked for, as each arrives.
    """

    def __init__(self, pool: ProcessPoolExecutor, batches: list[tuple[Params, SimConfig, int, int]]) -> None:
        self._futures = {batch: pool.submit(_batch_task, batch) for batch in batches}

    def map(self, fn, batches):  # type: ignore[override]
        return (self._futures.pop(batch).result() for batch in batches)


def run_excursions(
    params: Params,
    cfg: SimConfig,
    n_replicas: int,
    jobs: int | None = None,
    *,
    pool: Executor | None = None,
) -> list[ExcursionOutcome]:
    """Outcomes of replicas 0..n-1, bit-identical for any worker count.

    Each batch runs in `simulate._outcomes`: replica r is
    `run_excursion(r)` from the all-zero start and where a mean above
    NORMAL_SWITCH can occur below the threshold; from any other start it
    has run_excursion's law but not its stream.  Either way
    `run_excursions(n)[:k] == run_excursions(k)`.  jobs=None uses every
    core.  With jobs=1, or with fewer than 256 replicas, the batch runs in
    this process and `pool` is not used.  Otherwise batches run on `pool`
    when one is given (it stays open), or on a pool opened for this call
    and closed before it returns.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    workers = _workers(jobs, n_replicas)
    if workers == 1:
        return _outcomes(params, cfg, 0, n_replicas)
    outcomes: list[ExcursionOutcome] = []
    with nullcontext(pool) if pool is not None else _pool(workers) as executor:
        for columns in executor.map(_batch_task, _batches(params, cfg, n_replicas, workers)):
            # tuple.__new__ skips the NamedTuple's Python-level __new__
            outcomes += map(tuple.__new__, repeat(ExcursionOutcome), zip(*columns))
    return outcomes


def _per_point(spec: SweepSpec, reduce: Callable[[float, list[ExcursionOutcome]], _T]) -> list[_T]:
    """reduce(value, outcomes) for each swept value, all points run on one pool.

    Every point's batches are queued on the pool before the first point is
    reduced, so the workers never wait for the parent.  The pool's workers
    have exited when this returns or raises, so their CPU time and memory
    are accounted to this process's reaped children.
    """
    workers = _workers(spec.jobs, spec.replicas)
    seed = spec.sim.master_seed
    points = [
        (value, spec.params_at(value), replace(spec.sim, master_seed=derive_point_seed(seed, idx)))
        for idx, value in enumerate(spec.values)
    ]
    with nullcontext() if workers == 1 else _pool(workers) as pool:
        queued = None if pool is None else _Queued(
            pool, [batch for _, params, cfg in points for batch in _batches(params, cfg, spec.replicas, workers)]
        )
        return [
            reduce(value, run_excursions(params, cfg, spec.replicas, spec.jobs, pool=queued))
            for value, params, cfg in points
        ]


def sweep_explosion(spec: SweepSpec) -> list[SweepRow]:
    """Explosion proportion with exact confidence interval per swept value."""

    def row(value: float, outcomes: list[ExcursionOutcome]) -> SweepRow:
        exploded = censored = returned = total = 0
        for kind, steps, _ in outcomes:
            if kind is ExcursionKind.RETURNED:
                returned += 1
                total += steps
            elif kind is ExcursionKind.EXPLODED:
                exploded += 1
            else:
                censored += 1
        n = spec.replicas
        interval = clopper_pearson(exploded, n, spec.alpha)
        return SweepRow(
            swept_value=value, exploded=exploded, N=n, proportion=exploded / n,
            ci_lower=interval.lower, ci_upper=interval.upper,
            mean_tau_returned=total / returned if returned else None, censored=censored,
        )

    return _per_point(spec, row)


def tau_cdf_experiment(spec: SweepSpec) -> dict[float, list[tuple[int, float]]]:
    """Empirical CDF of the truncated return time per swept value.

    Exploded excursions carry the sentinel horizon+1 and appear as a
    final atom; censored ones sit at the horizon itself.
    """
    curves = _per_point(spec, lambda value, outcomes: (value, ecdf([steps for _, steps, _ in outcomes])))
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
    consume randomness identically.  A prefix ends early at a count above
    the threshold, or at the state whose intensity sum is past float64's
    range, where the excursion's escape was certified.  If the cap is hit
    first, the result is flagged partial rather than silently short.
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


class Table(Sequence):
    """Rows of the NamedTuple type `row` held as its columns, sequences of one length: a
    row is built only where one is indexed or iterated, and a slice is a Table.  Like a
    list, it equals a list or Table with equal rows and is unhashable."""

    def __init__(self, row: type, columns: Sequence[Sequence]) -> None:
        self.row, self.columns = row, columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Table(self.row, [col[i] for col in self.columns])
        return self.row._make([col[i] for col in self.columns])

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, Table)) else NotImplemented


def disc_grid(
    a_values: list[float],
    b_range: tuple[float, float],
    c_range: tuple[float, float],
    step: float,
    lam: float = 1.0,
) -> Table:
    """Sign of the discriminant, linear stability and fired rule per grid cell.

    Cells are row-major over (a, b, c), c varying fastest.  Each cell
    carries classify's label of its point and the disc and linear
    stability of that label's cubic witness; classify_p3 decides them
    GRID_CHUNK cells at a time, into a Table of GridCell rows whose columns
    are lists of Python scalars.  ValueError past MAX_GRID_POINTS cells.
    """
    shape = (len(a_values), grid_count(*b_range, step), grid_count(*c_range, step))
    n = math.prod(shape)
    if n > MAX_GRID_POINTS:
        raise ValueError(f"grid of {n} cells has more than {MAX_GRID_POINTS}")
    axes = [np.array(a_values, dtype=np.float64)] + [
        np.array(grid_values(*r, step)) for r in (b_range, c_range)
    ]
    columns: list[list] = [[] for _ in GridCell._fields]
    for start in range(0, n, GRID_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + GRID_CHUNK, n)), shape)
        a, b, c = (axis[i] for axis, i in zip(axes, index))
        labels = classify_p3(a, b, c, lam)
        disc = labels.reports.disc.tolist()
        chunk = (a.tolist(), b.tolist(), c.tolist(), disc, [(d > 0) - (d < 0) for d in disc],
                 (labels.reports.spectral_radius < 1.0).tolist(), [v.value for v in labels.verdicts], labels.rules)
        for column, values in zip(columns, chunk):
            column += values
    return Table(GridCell, columns)
