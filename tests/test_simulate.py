import math

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from dhawkes.model import Params
from dhawkes.simulate import (
    ExcursionKind,
    SimConfig,
    detect_alternation,
    replica_rng,
    run_excursion,
    run_trajectory,
    sample_poisson,
    step,
)


def test_sample_poisson_zero_mean():
    rng = replica_rng(0, 0)
    assert sample_poisson(0.0, rng) == 0


def test_sample_poisson_moments():
    rng = replica_rng(2024, 0)
    n = 1_000_000
    draws = np.array([sample_poisson(4.0, rng) for _ in range(n)])
    assert abs(draws.mean() - 4.0) < 0.02
    assert abs(draws.var() - 4.0) < 0.05


def test_sample_poisson_huge_mean_normal_approx():
    rng = replica_rng(9, 0)
    mean = 1e6
    n = 10_000
    draws = np.array([sample_poisson(mean, rng) for _ in range(n)])
    z = (draws.mean() - mean) / math.sqrt(mean / n)
    assert abs(z) < 5.0
    assert abs(draws.var() / mean - 1.0) < 0.1


def test_sample_poisson_rejects_bad_mean():
    rng = replica_rng(0, 0)
    with pytest.raises(ValueError):
        sample_poisson(-1.0, rng)
    with pytest.raises(ValueError):
        sample_poisson(math.inf, rng)


def test_step_forced_transition_in_axes_regime():
    # a*i + lam <= 0 forces the next count to zero deterministically
    params = Params.p3(-1.0, -1.0, 1.1, lam=1.0)
    rng = replica_rng(0, 0)
    assert step(params, (5, 0, 0), rng) == (0, 5, 0)
    assert step(params, (0, 5, 0), rng) == (0, 0, 5)


def test_step_zero_state_draws_poisson_lam():
    params = Params.p3(3.0, 0.5, -15.0, lam=1.0)
    counts = np.array(
        [step(params, (0, 0, 0), replica_rng(5, r))[0] for r in range(20_000)]
    )
    assert abs(counts.mean() - 1.0) < 0.05


def test_step_replay_determinism():
    params = Params.p3(0.4, 0.2, 0.1, lam=1.0)
    s1 = step(params, (3, 1, 2), replica_rng(17, 4))
    s2 = step(params, (3, 1, 2), replica_rng(17, 4))
    assert s1 == s2


def test_zero_state_distribution_chi_square():
    params = Params.p3(3.0, 0.5, -15.0, lam=1.0)
    rng = replica_rng(123, 0)
    n = 1_000_000
    draws = np.array([step(params, (0, 0, 0), rng)[0] for _ in range(n)])
    kmax = 8  # bins 0..7 and >=8
    observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    probs = np.array([poisson.pmf(k, 1.0) for k in range(kmax)] + [poisson.sf(kmax - 1, 1.0)])
    expected = probs * n
    stat = ((observed - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(1.0 - 1e-3, df=kmax)


def test_run_excursion_reproducible_and_worker_independent():
    params = Params.p3(3.0, 4.0, -15.0, lam=1.0)
    cfg = SimConfig(master_seed=42)
    once = [run_excursion(params, cfg, r) for r in range(200)]
    again = [run_excursion(params, cfg, r) for r in reversed(range(200))]
    assert once == list(reversed(again))


def test_run_excursion_strong_inhibition_returns_fast():
    params = Params.p3(-50.0, -50.0, -50.0, lam=0.01)
    cfg = SimConfig(master_seed=7)
    outcomes = [run_excursion(params, cfg, r) for r in range(2000)]
    returned = sum(o.kind is ExcursionKind.RETURNED for o in outcomes)
    assert returned / len(outcomes) >= 0.9
    assert all(o.steps <= 10 for o in outcomes if o.kind is ExcursionKind.RETURNED)


def test_run_excursion_explosion_sentinel_and_peak():
    params = Params.p3(3.0, 4.0, -15.0, lam=1.0)
    cfg = SimConfig(horizon_n=1000, master_seed=42)
    outcomes = [run_excursion(params, cfg, r) for r in range(5000)]
    exploded = [o for o in outcomes if o.kind is ExcursionKind.EXPLODED]
    assert exploded, "explosive regime must produce explosions"
    assert all(o.steps == cfg.horizon_n + 1 for o in exploded)
    assert all(o.peak > cfg.explosion_threshold_m for o in exploded)
    returned = [o for o in outcomes if o.kind is ExcursionKind.RETURNED]
    assert all(1 <= o.steps <= cfg.horizon_n for o in returned)


def test_fast_path_matches_stepwise_replay():
    # run_trajectory must agree with manual iteration of the public step()
    # on the same stream: both draw only at positive intensity
    params = Params.p3(1.2, -0.5, -0.3, lam=1.0)
    cfg = SimConfig(master_seed=99)
    for r in range(30):
        traj = run_trajectory(params, cfg, 40, r)
        rng = replica_rng(cfg.master_seed, r)
        state = (0, 0, 0)
        for expected in traj.states:
            state = step(params, state, rng)
            assert state == expected


def test_run_trajectory_replays_excursion():
    params = Params.p3(3.0, 1.1, -15.0, lam=1.0)
    cfg = SimConfig(master_seed=31)
    for r in range(30):
        traj = run_trajectory(params, cfg, 50, r)
        o = run_excursion(params, cfg, r)
        counts = [s[0] for s in traj.states]
        if o.kind is ExcursionKind.RETURNED and o.steps <= 50:
            assert counts[o.steps - 1] == 0
            assert traj.states[o.steps - 1] == (0, 0, 0)


def _replayed_outcome(params, cfg, replica):
    """Kind, steps and peak of an excursion, read off the trajectory's counts."""
    traj = run_trajectory(params, cfg, cfg.horizon_n, replica)
    zero = (0,) * params.p
    peak = 0
    for n, state in enumerate(traj.states, start=1):
        peak = max(peak, state[0])
        if state[0] > cfg.explosion_threshold_m:
            return ExcursionKind.EXPLODED, cfg.horizon_n + 1, peak
        if state == zero:
            return ExcursionKind.RETURNED, n, peak
    return ExcursionKind.CENSORED, cfg.horizon_n, peak


@pytest.mark.parametrize(
    "params, cfg",
    [
        # p = 3 unrolled branch at the gallery point
        (Params.p3(3.0, 1.1, -15.0, lam=1.0),
         SimConfig(horizon_n=40, explosion_threshold_m=100, master_seed=31)),
        # generic-p branch
        (Params(p=5, coeffs=(0.3, 0.2, 0.2, 0.2, 0.09), lam=1.0),
         SimConfig(horizon_n=100, explosion_threshold_m=40, master_seed=31)),
    ],
    ids=["p3", "p5"],
)
def test_run_trajectory_replays_excursion_outcomes(params, cfg):
    kinds = set()
    for r in range(400):
        o = run_excursion(params, cfg, r)
        assert (o.kind, o.steps, o.peak) == _replayed_outcome(params, cfg, r), r
        kinds.add(o.kind)
    assert kinds == set(ExcursionKind)  # every fate is exercised


def test_run_trajectory_length_one():
    params = Params.p3(0.5, 0.1, 0.1, lam=1.0)
    cfg = SimConfig(master_seed=3)
    traj = run_trajectory(params, cfg, 1, 0)
    assert len(traj.states) == 1 and not traj.exploded


def test_run_trajectory_axis_cycling_pattern():
    params = Params.p3(-1.0, -1.0, 1.1, lam=1.0)
    cfg = SimConfig(master_seed=8)
    traj = run_trajectory(params, cfg, 60, 1)
    # once a coordinate is large, states cycle (x,0,0) -> (0,x,0) -> (0,0,x)
    big = [n for n, s in enumerate(traj.states) if s[0] > 20 and s[1] == 0 and s[2] == 0]
    assert big, "axis regime should reach large axis states"
    n = big[0]
    x = traj.states[n][0]
    assert traj.states[n + 1] == (0, x, 0)
    assert traj.states[n + 2] == (0, 0, x)


def test_run_trajectory_flags_explosion():
    params = Params.p3(3.0, 4.0, -15.0, lam=1.0)
    cfg = SimConfig(master_seed=42, explosion_threshold_m=10**6)
    exploded_any = False
    for r in range(200):
        traj = run_trajectory(params, cfg, 10_000, r)
        if traj.exploded:
            exploded_any = True
            assert traj.states[-1][0] > cfg.explosion_threshold_m
            assert len(traj.states) < 10_000
    assert exploded_any


def test_stationary_mean_in_linear_regime():
    # all-nonnegative coefficients summing to 0.8: stationary mean lam/(1-0.8)
    params = Params(p=2, coeffs=(0.4, 0.4), lam=1.0)
    cfg = SimConfig(master_seed=11)
    traj = run_trajectory(params, cfg, 200_000, 0)
    mean = np.mean([s[0] for s in traj.states])
    assert abs(mean - 5.0) / 5.0 < 0.1


def test_initial_state_respected():
    params = Params.p3(-1.0, -1.0, -1.0, lam=1.0)
    cfg = SimConfig(master_seed=0, initial_state=(9, 0, 0))
    traj = run_trajectory(params, cfg, 2, 0)
    assert traj.states[0] == (0, 9, 0)  # -9 + 1 < 0 forces a zero draw


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon_n=0)
    with pytest.raises(ValueError):
        SimConfig(explosion_threshold_m=0)
    with pytest.raises(ValueError):
        SimConfig(explosion_threshold_m=2**63)


def test_detect_alternation_examples():
    assert detect_alternation([5, 0, 7, 0, 9, 0]) == 0
    assert detect_alternation([1, 2, 3, 4, 5]) is None
    assert detect_alternation([3, 5, 1, 0, 2, 0, 4, 0]) == 2
    assert detect_alternation([0, 3, 0, 9, 0, 2]) == 0


def test_detect_alternation_requires_four_values():
    with pytest.raises(ValueError):
        detect_alternation([1, 0, 1])


def test_detect_alternation_ignores_short_tail():
    # a lone trailing (positive, zero) pair is not a sustained pattern
    assert detect_alternation([2, 3, 4, 5, 6, 0]) is None
