import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from dhawkes import experiments
from dhawkes.experiments import (
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
        assert row.proportion == row.exploded / row.replicas
        assert row.interval.successes == row.exploded
        assert row.interval.trials == row.replicas


def test_sweep_rows_match_outcome_recount():
    # b = 4 explodes; the near-critical b = 1 runs some excursions to the horizon
    spec = spec_at([4.0, 1.0], replicas=1500)
    rows = sweep_explosion(spec)
    for idx, row in enumerate(rows):
        params = spec.params_at(row.value)
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
    serial, pooled = (spec_at([0.5, 2.0, 4.0], replicas=replicas, jobs=j) for j in (1, 2))
    rows = sweep_explosion(serial)
    assert rows == sweep_explosion(pooled)
    assert rows[-1].exploded > 0
    assert tau_cdf_experiment(serial) == tau_cdf_experiment(pooled)


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

    # a = 1e300 drives the intensity to inf, and the worker's Poisson draw raises
    failing = SweepSpec(
        fixed={"b": 0.0, "c": 0.0}, sweep_name="a", values=(0.5, 1e300), replicas=300,
        sim=SimConfig(horizon_n=100, master_seed=1), jobs=2,
    )
    with pytest.raises(ValueError, match="mean must be finite"):
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
    assert narrow.interval.width < wide.interval.width


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
