import inspect
import multiprocessing
import os
import sys
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from dhawkes import experiments, simulate
from dhawkes.experiments import (
    GridCell,
    SweepSpec,
    derive_point_seed,
    disc_grid,
    exploding_gallery,
    run_excursions,
    sweep_explosion,
    tau_cdf_experiment,
)
from dhawkes.classify import classify
from dhawkes.cubic import cubic_report, discriminant
from dhawkes.model import Params
from dhawkes.simulate import ExcursionKind, SimConfig
from dhawkes.stats import clopper_pearson


def spec_at(values, replicas=2000, seed=42, horizon=2000, jobs=1, alpha=0.01):
    return SweepSpec(
        fixed={"a": 3.0, "c": -15.0},
        sweep_name="b",
        values=tuple(values),
        lam=1.0,
        replicas=replicas,
        sim=SimConfig(horizon_n=horizon, master_seed=seed),
        alpha=alpha,
        jobs=jobs,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(fixed={"a": 1.0}, sweep_name="b", values=(1.0,))
    with pytest.raises(ValueError):
        SweepSpec(fixed={"a": 1.0, "b": 2.0}, sweep_name="b", values=(1.0,))
    with pytest.raises(ValueError):
        spec_at([1.0], replicas=0)


@pytest.mark.parametrize("values", [(1.0, 1.0), (0.0, -0.0), (0.5, 2.0, 0.5)])
def test_spec_rejects_repeated_swept_values(values):
    # a repeated value once ran its point twice and left tau_cdf_experiment a curve short
    with pytest.raises(ValueError, match="given twice"):
        spec_at(values)


@pytest.mark.parametrize("kwargs, match", [
    ({"values": ()}, "must not be empty"),
    ({"values": (float("nan"),)}, "must be finite"),
    ({"values": (1.0,), "alpha": 1.0}, "alpha must be in"),
], ids=["empty", "nan", "alpha-1"])
def test_spec_rejects_bad_values_and_alpha(kwargs, match):
    # an empty sweep used to run no point: sweep_explosion returned [] and tau_cdf_experiment {}
    with pytest.raises(ValueError, match=match):
        spec_at(**kwargs)


def test_run_excursions_rejects_no_replicas():
    with pytest.raises(ValueError, match="n_replicas must be >= 1"):
        run_excursions(Params.p3(3.0, 0.0, -15.0, lam=1.0), SimConfig(), 0)


@pytest.mark.parametrize("jobs", [0, -4])
def test_run_excursions_rejects_jobs_below_one(jobs):
    # the CLI's --jobs reaches SweepSpec first; direct API callers reach this check
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_excursions(Params.p3(3.0, 0.0, -15.0, lam=1.0), SimConfig(), 10, jobs=jobs)


def test_workers_capped_at_cores():
    # a fork pool starts all its workers at the first submit: never more than the cores
    cores = os.cpu_count() or 1
    assert experiments._workers(10**6, 10**6) == experiments._workers(None, 10**6) == cores
    assert experiments._workers(1, 10**6) == experiments._workers(10**6, 255) == 1


def test_derive_point_seed_distinct_and_stable():
    seeds = [derive_point_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [derive_point_seed(42, i) for i in range(100)]
    assert derive_point_seed(1, 0) != derive_point_seed(2, 0)


def test_run_excursions_worker_count_invariance():
    cases = [
        (Params.p3(3.0, 4.0, -15.0, lam=1.0), SimConfig(horizon_n=2000, master_seed=7), 1500),
        # p = 5, TransientLinear, from a start with zeros at both ends: most
        # excursions cross the threshold and are certified in the workers
        (Params(p=5, coeffs=(0.5, 0.4, 0.3, 0.2, 0.1), lam=0.2),
         SimConfig(horizon_n=300, explosion_threshold_m=5, master_seed=7, initial_state=(0, 2, 0, 1, 0)), 600),
    ]
    for params, cfg, n in cases:
        serial = run_excursions(params, cfg, n, jobs=1)
        parallel = run_excursions(params, cfg, n, jobs=2)
        assert serial == parallel
    assert {o.kind for o in serial} == {ExcursionKind.RETURNED, ExcursionKind.EXPLODED}  # the p = 5 case


def test_sweep_deterministic_and_consistent():
    rows1 = sweep_explosion(spec_at([0.5, 4.0]))
    rows2 = sweep_explosion(spec_at([0.5, 4.0]))
    assert rows1 == rows2
    for row in rows1:
        assert row.proportion == row.exploded / row.N
        interval = clopper_pearson(row.exploded, row.N, 0.01)
        assert (row.ci_lower, row.ci_upper) == (interval.lower, interval.upper)


def test_sweep_rows_match_outcome_recount():
    # b = 4 explodes; the near-critical b = 1 runs some excursions to the horizon
    spec = spec_at([4.0, 1.0], replicas=1500)
    rows = sweep_explosion(spec)
    for idx, row in enumerate(rows):
        params = spec.params_at(row.swept_value)
        cfg_point = SimConfig(
            horizon_n=spec.sim.horizon_n,
            master_seed=derive_point_seed(spec.sim.master_seed, idx),
        )
        outcomes = run_excursions(params, cfg_point, spec.replicas, jobs=1)
        exploded = sum(o.kind is ExcursionKind.EXPLODED for o in outcomes)
        censored = sum(o.kind is ExcursionKind.CENSORED for o in outcomes)
        returned = [o.steps for o in outcomes if o.kind is ExcursionKind.RETURNED]
        assert row.exploded == exploded
        assert row.censored == censored
        assert row.mean_tau_returned == pytest.approx(sum(returned) / len(returned))
    assert rows[0].exploded > 0
    assert rows[1].censored > 0


@pytest.mark.parametrize("replicas", [1000, 200])  # pooled at jobs=2, and below the pool's floor
def test_sweep_and_ecdf_equal_at_one_and_two_jobs(replicas):
    # the pool runs the points' batches interleaved; b = 1 runs some excursions to the horizon
    serial, pooled = (spec_at([0.0, 0.5, 1.0, 2.0, 3.0, 4.0], replicas=replicas, jobs=j) for j in (1, 2))
    rows = sweep_explosion(serial)
    assert rows == sweep_explosion(pooled)
    assert rows[-1].exploded > 0
    assert replicas < 1000 or rows[2].censored > 0
    assert tau_cdf_experiment(serial) == tau_cdf_experiment(pooled)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", [sweep_explosion, tau_cdf_experiment])
def test_each_point_is_one_run_excursions_call(command, jobs, monkeypatch):
    # bench/tracing.py finds a sweep's points as the run_excursions calls it
    # makes, and reads (params, cfg, n_replicas) from their arguments
    real, calls = experiments.run_excursions, []

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_excursions", counted)
    spec = spec_at([0.0, 2.0, 4.0], replicas=600, jobs=jobs)
    command(spec)
    assert calls == [
        (spec.params_at(v), replace(spec.sim, master_seed=derive_point_seed(spec.sim.master_seed, i)), 600)
        for i, v in enumerate(spec.values)
    ]


def test_zero_start_batches_run_one_excursion_per_replica(monkeypatch):
    # an in-process batch is seen by the tracer through these calls
    real, calls = simulate.run_excursion, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simulate, "run_excursion", counted)
    params, cfg = Params.p3(3.0, 2.0, -15.0, lam=1.0), SimConfig(horizon_n=500, master_seed=3)
    outcomes = simulate._outcomes(params, cfg, 256, 300)
    assert calls == [(params, cfg, r) for r in range(256, 300)]
    assert outcomes == [real(params, cfg, r) for r in range(256, 300)]
    calls.clear()
    run_excursions(params, cfg, 300, jobs=1)
    assert calls == [(params, cfg, r) for r in range(300)]


def _traced(monkeypatch) -> list[tuple[str, str | None]]:
    """Wrap every public function of dhawkes.simulate and dhawkes.experiments
    in each dhawkes namespace that refers to it, as the benchmark's tracer
    does; each call then appends (its name, its nearest wrapped caller)."""
    calls: list[tuple[str, str | None]] = []
    stack: list[str] = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, stack[-1] if stack else None))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    namespaces = [m for n, m in sorted(sys.modules.items()) if n == "dhawkes" or n.startswith("dhawkes.")]
    for home in (simulate, experiments):
        for name, fn in list(vars(home).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                continue
            wrapper = wrap(name, fn)
            for ns in namespaces:
                if vars(ns).get(name) is fn:
                    monkeypatch.setattr(ns, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "params, cfg, per_replica",
    [
        (Params.p3(3.0, 2.0, -15.0), SimConfig(horizon_n=500, master_seed=3), True),
        # the block kernel
        (Params.p3(3.0, 0.0, -15.0), SimConfig(horizon_n=500, master_seed=3, initial_state=(9, 0, 0)), False),
        # means can pass NORMAL_SWITCH below the threshold
        (Params.p3(3.0, 4.0, -15.0),
         SimConfig(horizon_n=200, explosion_threshold_m=10**18, master_seed=3, initial_state=(1, 0, 0)), True),
    ],
    ids=["zero", "kernel", "normal-switch"],
)
def test_traced_batch_has_one_run_excursion_per_replica_under_run_excursions(params, cfg, per_replica, monkeypatch):
    # the benchmark's tracer counts outcomes from these spans, and replays a
    # run_excursions span with no run_excursion child as a pooled batch
    calls = _traced(monkeypatch)
    experiments.run_excursions(params, cfg, 300, jobs=1)  # the wrapped function
    excursions = [caller for name, caller in calls if name == "run_excursion"]
    assert excursions == (["run_excursions"] * 300 if per_replica else [])


class _RecordedPool(ProcessPoolExecutor):
    """Logs each submission and each read of a submitted batch's result."""

    events: list[str] = []
    futures: list = []

    def submit(self, fn, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        events, result = self.events, future.result

        def read(*a, **k):
            events.append("result")
            return result(*a, **k)

        future.result = read
        events.append("submit")
        return future


@pytest.mark.parametrize("command", [sweep_explosion, tau_cdf_experiment])
def test_every_batch_is_queued_before_the_first_result_is_read(command, monkeypatch):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordedPool)
    monkeypatch.setattr(_RecordedPool, "events", [])
    spec = spec_at([0.0, 2.0, 4.0], replicas=1000, jobs=2)
    serial = command(replace(spec, jobs=1))
    assert command(spec) == serial
    batches = 3 * len(experiments._batches(spec.params_at(0.0), spec.sim, 1000, 2))
    assert batches > 3  # more than one batch per point
    assert _RecordedPool.events == ["submit"] * batches + ["result"] * batches
    assert multiprocessing.active_children() == []

    # a point that fails in the parent cancels the batches still queued
    name = "clopper_pearson" if command is sweep_explosion else "ecdf"

    def fails(*args):
        raise RuntimeError("parent step failed")

    monkeypatch.setattr(experiments, name, fails)
    monkeypatch.setattr(_RecordedPool, "futures", [])
    failing = spec_at([0.0, 0.5, 2.0, 3.0, 4.0], replicas=4000, jobs=2)
    with pytest.raises(RuntimeError, match="parent step failed"):
        command(failing)
    assert len(_RecordedPool.futures) == 5 * len(experiments._batches(failing.params_at(0.0), failing.sim, 4000, 2))
    assert any(f.cancelled() for f in _RecordedPool.futures)
    assert multiprocessing.active_children() == []


class _CountedPool(ProcessPoolExecutor):
    opened = 0

    def __init__(self, *args, **kwargs):
        type(self).opened += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("command", [sweep_explosion, tau_cdf_experiment])
def test_sweep_command_opens_one_pool_and_closes_it(command, monkeypatch):
    # A pool that outlived the command would hide its workers' CPU time and
    # memory from RUSAGE_CHILDREN, which counts only reaped children.
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _CountedPool)
    monkeypatch.setattr(_CountedPool, "opened", 0)
    command(spec_at([0.0, 2.0, 4.0], replicas=600, jobs=2))
    assert _CountedPool.opened == 1
    assert multiprocessing.active_children() == []

    # an initial state of two counts at p = 3 makes the workers' excursions raise
    failing = SweepSpec(
        fixed={"b": 0.0, "c": 0.0}, sweep_name="a", values=(0.5, 1.0), replicas=300,
        sim=SimConfig(horizon_n=100, master_seed=1, initial_state=(0, 0)), jobs=2,
    )
    with pytest.raises(ValueError, match="state has 2 entries, expected 3"):
        command(failing)
    assert _CountedPool.opened == 2
    assert multiprocessing.active_children() == []

    # the parent's own per-point step raises after the first point
    name = "clopper_pearson" if command is sweep_explosion else "ecdf"
    real, calls = getattr(experiments, name), []

    def fails_after_first_point(*args):
        calls.append(args)
        if len(calls) > 1:
            raise RuntimeError("parent step failed")
        return real(*args)

    monkeypatch.setattr(experiments, name, fails_after_first_point)
    monkeypatch.setattr(_CountedPool, "opened", 0)
    with pytest.raises(RuntimeError, match="parent step failed"):
        command(spec_at([0.0, 2.0, 4.0], replicas=600, jobs=2))
    assert _CountedPool.opened == 1
    assert multiprocessing.active_children() == []


def test_interval_narrows_with_more_replicas():
    wide = sweep_explosion(spec_at([3.0], replicas=300))[0]
    narrow = sweep_explosion(spec_at([3.0], replicas=6000))[0]
    assert narrow.ci_upper - narrow.ci_lower < wide.ci_upper - wide.ci_lower


def test_tau_cdf_includes_sentinel_atom():
    spec = spec_at([4.0], replicas=3000, horizon=1500)
    curves = tau_cdf_experiment(spec)
    points = curves[4.0]
    values = [t for t, _ in points]
    assert points[-1][1] == pytest.approx(1.0)
    assert values == sorted(values)
    # explosive point: the sentinel horizon+1 atom must be present
    assert values[-1] == spec.sim.horizon_n + 1


def test_tau_cdf_single_replica():
    curves = tau_cdf_experiment(spec_at([0.0], replicas=1))
    assert len(curves[0.0]) == 1
    assert curves[0.0][0][1] == 1.0


def test_gallery_collects_and_replays():
    params = Params.p3(3.0, 4.0, -15.0, lam=1.0)
    cfg = SimConfig(horizon_n=2000, master_seed=11)
    result = exploding_gallery(params, cfg, want=3, prefix_len=20, replica_cap=100_000)
    assert not result.partial
    assert len(result.entries) == 3
    replicas = [e.replica for e in result.entries]
    assert replicas == sorted(replicas)
    for e in result.entries:
        assert len(e.prefix) == 20
        assert any(x > 0 for x in e.prefix)


def test_gallery_partial_flag_when_no_explosions():
    params = Params.p3(0.2, 0.2, 0.2, lam=1.0)  # ergodic: no explosions
    cfg = SimConfig(horizon_n=200, master_seed=5)
    result = exploding_gallery(params, cfg, want=2, prefix_len=5, replica_cap=300)
    assert result.partial
    assert result.replicas_scanned == 300
    assert len(result.entries) == 0


def test_gallery_prefix_len_one():
    params = Params.p3(3.0, 4.0, -15.0, lam=1.0)
    cfg = SimConfig(horizon_n=2000, master_seed=11)
    result = exploding_gallery(params, cfg, want=1, prefix_len=1, replica_cap=100_000)
    assert len(result.entries[0].prefix) == 1
    assert result.entries[0].alternation_onset is None  # too short to detect


def test_disc_grid_count_and_order():
    cells = disc_grid([0.5], (-3.0, 2.0), (-3.0, 2.0), 0.5)
    assert len(cells) == 121
    # row-major: c varies fastest
    assert (cells[0].a, cells[0].b, cells[0].c) == (0.5, -3.0, -3.0)
    assert cells[1].c == pytest.approx(-2.5)
    for cell in cells:
        label = classify(Params.p3(cell.a, cell.b, cell.c))
        assert (cell.verdict, cell.rule) == (label.verdict.value, label.rule)
        assert cell.disc == discriminant(cell.a, cell.b, cell.c)
        assert cell.linear_stable == (cubic_report(cell.a, cell.b, cell.c).spectral_radius < 1.0)


def test_disc_grid_cells_match_scalar_classify_on_edge_cells():
    # exact c = 0 cells, Disc = 0 cells, a Boundary cell and both memory-2 verdicts
    cells = disc_grid([0.5, 1.0, 3.0], (-1.5, 3.0), (-1.0, 0.5), 0.5)
    assert len(cells) == 120
    assert sum(cell.c == 0.0 for cell in cells) == 30
    assert sum(cell.disc == 0.0 for cell in cells) == 4
    assert {"Boundary", "ErgodicP2Region", "TransientP2Region"} <= {cell.verdict for cell in cells}
    assert next(cell for cell in cells if (cell.a, cell.b, cell.c) == (1.0, 1.0, -1.0)).verdict == "Boundary"
    for cell in cells:
        label = classify(Params.p3(cell.a, cell.b, cell.c))
        want = (label.verdict.value, label.rule, label.witness.disc, label.witness.spectral_radius < 1.0)
        assert (cell.verdict, cell.rule, cell.disc, cell.linear_stable) == want
        # Python scalars, not numpy ones, so the CSV and JSON writers see what they always saw
        assert [type(getattr(cell, f)) for f in ("a", "b", "c", "disc", "disc_sign", "linear_stable")] == [
            float, float, float, float, int, bool
        ]


def test_disc_grid_is_a_read_only_sequence_of_grid_cells():
    cells = disc_grid([0.5, 3.0], (-1.5, 1.0), (-1.0, 0.5), 0.5)
    assert isinstance(cells, Sequence) and len(cells) == 2 * 6 * 4
    listed = list(cells)
    assert [cells[i] for i in range(len(cells))] == listed
    assert cells[-1] == listed[-1] == GridCell(3.0, 1.0, 0.5, *listed[-1][3:])
    assert type(cells[0]) is GridCell and type(listed[1]) is GridCell
    assert list(cells[5:9]) == listed[5:9] and len(cells[::7]) == len(listed[::7])
    for cell in (cells[0], cells[-1], listed[10]):
        assert [type(v) for v in cell] == [float, float, float, float, int, bool, str, str]
    with pytest.raises(IndexError):
        cells[len(cells)]
    with pytest.raises(TypeError):
        cells[0] = cells[1]


def test_disc_grid_compares_as_the_list_of_its_cells():
    g = disc_grid([1.0], (0, 0.5), (0, 0.5), 0.5)
    assert g == disc_grid([1.0], (0, 0.5), (0, 0.5), 0.5)
    assert g == list(g) and list(g) == g and g[:2] == g[:2] and g[:2] == list(g)[:2]
    assert g != g[:2] and g != disc_grid([2.0], (0, 0.5), (0, 0.5), 0.5)
    assert g != tuple(g) and g != list(g)[::-1] and g != 3
    with pytest.raises(TypeError):
        hash(g)


def test_disc_grid_refuses_more_than_max_grid_points():
    with pytest.raises(ValueError, match="more than 10000000"):
        disc_grid([0.5, 1.0], (0.0, 1.0), (0.0, 1.0), 1e-3 / 3)  # 2 * 3001^2 cells


def test_disc_grid_single_cell_matches_pointwise():
    cells = disc_grid([3.0], (-1.0, -1.0), (-3.0, -3.0), 1.0)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.disc_sign == -1
    assert cell.verdict == "ErgodicDiscNegative"
    assert not cell.linear_stable


def test_disc_grid_stable_cells_only_for_small_a():
    # spectral radius < 1 somewhere at a = 0.5, nowhere at a = 3
    cells = disc_grid([0.5, 3.0], (-3.0, 2.0), (-3.0, 2.0), 0.5)
    stable_a = {c.a for c in cells if c.linear_stable}
    assert 0.5 in stable_a
    assert 3.0 not in stable_a
    # the a = 0.5 slice also contains positive-part-sum ergodic cells
    assert any(c.a == 0.5 and c.verdict == "ErgodicGeneralP" for c in cells)
