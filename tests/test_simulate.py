import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.stats import chi2, poisson

from dhawkes import simulate
from dhawkes.classify import Verdict, classify
from dhawkes.model import Params, check_state, intensity
from dhawkes.simulate import (
    NORMAL_SWITCH,
    OVERFLOW_GUARD,
    ExcursionKind,
    SimConfig,
    _cone,
    detect_alternation,
    escaped,
    replica_rng,
    run_excursion,
    run_trajectory,
    sample_poisson,
    step,
)


_MASK64 = (1 << 64) - 1
_KEY_WORDS = (0, 1, 2**63 + 5, 2**64 - 1)


def _draws(rng):
    """A mix of draws that uses every part of the bit generator's state."""
    return (
        rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
        rng.standard_normal(3).tolist(),
        rng.poisson(4.0, size=5).tolist(),
        rng.integers(0, 2**63, size=2).tolist(),
    )


def _fresh(seed, replica):
    key = np.array([seed & _MASK64, replica & _MASK64], dtype=np.uint64)
    return Generator(Philox(key=key))


@pytest.mark.parametrize("seed", _KEY_WORDS + (-1,))
@pytest.mark.parametrize("replica", _KEY_WORDS)
def test_replica_rng_keys_both_words_exactly(seed, replica):
    # a key word >= 2^63 next to one below it must not pass through float64
    assert _draws(replica_rng(seed, replica)) == _draws(_fresh(seed, replica))


def test_replica_rng_rejects_negative_replica():
    with pytest.raises(ValueError):
        replica_rng(0, -1)


def test_replica_rng_rewinds_buffered_state():
    rng = replica_rng(2**63 + 5, 3)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)  # odd: half a 64-bit word stays buffered
    rng.standard_normal()
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] != 4
    for seed, replica in [(7, 0), (2**63 + 5, 3), (-1, 2**64 - 1)]:
        again = replica_rng(seed, replica)
        assert again is rng  # one generator per thread, rewound
        assert _draws(again) == _draws(_fresh(seed, replica))


def test_run_excursion_thread_safe():
    # each thread rewinds its own generator; frequent thread switches make
    # a generator shared between threads lose its place mid-excursion
    params = Params.p3(3.0, 1.0, -15.0, lam=1.0)
    cfg = SimConfig(master_seed=5)
    serial = [run_excursion(params, cfg, r) for r in range(4000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda r: run_excursion(params, cfg, r), range(4000), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def _unplanned_excursion(params, cfg, replica_index):
    """run_excursion without a kept plan: every call builds the start, the
    NORMAL_SWITCH verdict and the loop anew.

    The excursion is followed through `step` from the start where
    lam + sum(a_i^+) max(m, start) > NORMAL_SWITCH: a mean that large can
    occur before any count crosses the threshold m.
    """
    rng = replica_rng(cfg.master_seed, replica_index)
    state0 = simulate._initial(params, cfg)
    m = cfg.explosion_threshold_m
    if params.lam + sum(max(a, 0.0) for a in params.coeffs) * max(m, *state0) > NORMAL_SWITCH:
        return simulate._follow(params, cfg, rng, state0, 0, 0)
    return simulate._excursion_loop(params.p)(params, cfg, rng, state0, params.lam, m, cfg.horizon_n)


def test_thread_plan_gives_the_unplanned_outcomes():
    near = Params.p3(3.0, 1.0, -15.0, lam=1.0), SimConfig(horizon_n=3000, master_seed=5)
    wild = Params.p3(3.0, 4.0, -15.0, lam=0.5), SimConfig(horizon_n=800, explosion_threshold_m=40, master_seed=6)
    # the threshold lets a mean pass NORMAL_SWITCH below it: a plan with no loop
    normal = Params.p3(3.0, 0.5, -15.0, lam=1.0), SimConfig(horizon_n=200, explosion_threshold_m=2**62, master_seed=7)
    # each pair shares its params or its cfg with the one before it: each call rebuilds the plan
    for r in range(300):
        for params, cfg in (near, (near[0], wild[1]), wild, (wild[0], near[1])):
            assert run_excursion(params, cfg, r) == _unplanned_excursion(params, cfg, r)
    assert {run_excursion(*wild, r).kind for r in range(300)} == {ExcursionKind.RETURNED, ExcursionKind.EXPLODED}

    run_excursion(*normal, 0)
    assert simulate._THREAD.plan[:4] == (*normal, (0, 0, 0), None)
    assert [run_excursion(*normal, r) for r in range(50)] == [_unplanned_excursion(*normal, r) for r in range(50)]

    # an equal but distinct config gets a plan of its own, with the same outcomes
    params, cfg = near
    twin = SimConfig(horizon_n=3000, master_seed=5)
    assert twin == cfg and twin is not cfg
    for r in range(50):
        for given in (twin, cfg):
            assert run_excursion(params, given, r) == _unplanned_excursion(params, cfg, r)
            assert simulate._THREAD.plan[1] is given

    # another thread keeps its own plan and leaves this thread's in place
    plan = simulate._THREAD.plan
    with ThreadPoolExecutor(max_workers=1) as pool:
        other = pool.submit(lambda: ([run_excursion(*wild, r) for r in range(100)], simulate._THREAD.plan)).result()
    assert other[0] == [_unplanned_excursion(*wild, r) for r in range(100)]
    assert other[1][:2] == wild and simulate._THREAD.plan is plan


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


def test_sample_poisson_mean_above_numpy_limit():
    # numpy's sampler refuses means above ~9.2e18; the normal approximation takes over
    rng = replica_rng(9, 0)
    mean = 1e20
    n = 10_000
    draws = [sample_poisson(mean, rng) for _ in range(n)]
    assert all(type(d) is int for d in draws)
    centred = np.array([d - int(mean) for d in draws], dtype=float)
    z = centred.mean() / math.sqrt(mean / n)
    assert abs(z) < 5.0
    assert abs(centred.var() / mean - 1.0) < 0.1


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
    """Kind, steps and peak of an excursion, replayed by iterating `step`.

    Escape is checked with `escaped`, from the first count above the threshold on.
    """
    rng = replica_rng(cfg.master_seed, replica)
    zero = (0,) * params.p
    state = cfg.initial_state or zero
    peak = 0
    for n in range(1, cfg.horizon_n + 1):
        state = step(params, state, rng)
        peak = max(peak, state[0])
        if state == zero:
            return ExcursionKind.RETURNED, n, peak
        if peak > cfg.explosion_threshold_m and escaped(params, state):
            return ExcursionKind.EXPLODED, cfg.horizon_n + 1, peak
    return ExcursionKind.CENSORED, cfg.horizon_n, peak


@pytest.mark.parametrize(
    "params, cfg",
    [
        # TransientOscillating, cone level M = 2048
        (Params.p3(3.0, 4.0, -15.0, lam=1.0),
         SimConfig(horizon_n=15, explosion_threshold_m=100, master_seed=31)),
        # the oscillating point (1, 8, -121) with two zero lags, where only
        # the overflow guard certifies escape
        (Params(p=5, coeffs=(1.0, 8.0, -121.0, 0.0, 0.0), lam=1.0),
         SimConfig(horizon_n=700, explosion_threshold_m=10, master_seed=31)),
        # TransientLinear for p = 1, from the all-zero state
        (Params(p=1, coeffs=(1.2,), lam=0.2),
         SimConfig(horizon_n=60, explosion_threshold_m=3, master_seed=31)),
        # TransientLinear, started with a zero at the recent end
        (Params(p=2, coeffs=(0.6, 0.6), lam=0.05),
         SimConfig(horizon_n=80, explosion_threshold_m=3, master_seed=31, initial_state=(0, 4))),
        # the oscillating point padded with one zero lag, a zero at the oldest
        # end: the first three draws are forced zeros, and the window is all
        # zero only after a fourth
        (Params(p=4, coeffs=(1.0, 8.0, -121.0, 0.0), lam=1.0),
         SimConfig(horizon_n=700, explosion_threshold_m=10, master_seed=31, initial_state=(1, 1, 1, 0))),
        # padded with four zero lags, six zeros at the recent end: one zero
        # draw returns at step 1
        (Params(p=7, coeffs=(1.0, 8.0, -121.0, 0.0, 0.0, 0.0, 0.0), lam=1.0),
         SimConfig(horizon_n=700, explosion_threshold_m=10, master_seed=31,
                   initial_state=(0, 0, 0, 0, 0, 0, 2))),
        # TransientLinear with 39 zero lags: a return takes 40 zero draws
        (Params(p=40, coeffs=(1.5,) + (0.0,) * 39, lam=0.05),
         SimConfig(horizon_n=120, explosion_threshold_m=1, master_seed=31,
                   initial_state=(2,) + (0,) * 39)),
    ],
    ids=["p3", "p5", "p1", "p2", "p4", "p7", "p40"],
)
def test_run_trajectory_replays_excursion_outcomes(params, cfg):
    kinds = set()
    crossed_and_returned = 0
    for r in range(400):
        o = run_excursion(params, cfg, r)
        assert (o.kind, o.steps, o.peak) == _replayed_outcome(params, cfg, r), r
        kinds.add(o.kind)
        if o.kind is ExcursionKind.RETURNED and o.peak > cfg.explosion_threshold_m:
            crossed_and_returned += 1
    assert kinds == set(ExcursionKind)  # every fate is exercised
    assert crossed_and_returned > 0  # and returns after a threshold crossing


def test_escape_cone_at_oscillating_point():
    # b = 8 > 1 and ab + c = -57 < 0: (0, X, 0) with X >= M grows x8 every two steps
    params = Params.p3(8.0, 8.0, -121.0, lam=1.0)
    level = _cone(params)[1]
    assert level is not None and level <= 1e9
    x = math.ceil(level)
    assert escaped(params, (0, x, 0))
    assert escaped(params, (0, 10**40, 0))
    assert not escaped(params, (0, x - 1, 0))
    assert not escaped(params, (1, x, 0))
    assert not escaped(params, (0, 0, x))
    # the growth pattern holds from the cone: a forced zero, then x8
    rng = replica_rng(3, 0)
    state = (0, x, 0)
    for _ in range(20):
        state = step(params, state, rng)
        assert state[0] > state[2] and state[1] == 0
        state = step(params, state, rng)
        assert state[0] == 0 and state[2] == 0 and escaped(params, state)


def test_escape_cone_at_axes_point_and_guard():
    params = Params.p3(-1.0, -1.0, 1.1, lam=1.0)
    level = _cone(params)[1]
    assert level is not None
    assert escaped(params, (0, 0, math.ceil(level)))
    assert not escaped(params, (0, math.ceil(level), 0))
    # no cone off the growth rules; the overflow guard applies for every p
    ergodic = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    assert _cone(ergodic) is None
    assert not escaped(ergodic, (0, 10**200, 0))
    assert escaped(ergodic, (10**301, 0, 0))
    p5 = Params(p=5, coeffs=(0.3, 0.2, 0.2, 0.2, 0.09), lam=1.0)
    assert _cone(p5) is None
    assert escaped(p5, (0, 0, 10**301, 0, 0))


def test_cone_past_overflow_guard_leaves_the_count_guard():
    # b > 1 and ab + c = -2e-12 < 0, so the oscillating rule holds; at lam = 1e290
    # its x0 is about 2e302, past OVERFLOW_GUARD, so the point has no cone
    params = Params.p3(1.0, 2.0, -2.0 - 2e-12, lam=1e290)
    assert classify(params).verdict is Verdict.TRANSIENT_OSCILLATING
    assert _cone(params) is None
    assert not escaped(params, (0, 10**299, 0))
    assert escaped(params, (0, 2 * 10**300, 0))
    # at lam = 1 the same coefficients have a cone, at about 3.1e26
    rule, level = _cone(Params.p3(1.0, 2.0, -2.0 - 2e-12, lam=1.0))
    assert rule is Verdict.TRANSIENT_OSCILLATING and 3e26 < level < 3.2e26
    # lam = 1e290 is at the baseline limit, not past it, so excursions still run
    assert run_excursion(params, SimConfig(horizon_n=200), 0).kind is ExcursionKind.EXPLODED


@pytest.mark.parametrize(
    "params",
    [
        Params.p3(0.5, 0.0, 0.0, lam=1e300),  # past 1e-10 OVERFLOW_GUARD by lam alone
        Params.p3(3.0, 1.0, -15.0, lam=2e290),  # the same, with positive parts summing to 4
        Params.p3(0.5, 0.0, 0.0, lam=6e299),  # stationary mean lam / (1 - 0.5) = 1.2e300
        Params.p3(0.5, 0.0, 0.0, lam=5.1e289),  # stationary mean 1.02e290
    ],
    ids=["lam", "lam-growth", "mean", "mean-at-limit"],
)
def test_excursions_refuse_a_baseline_that_reaches_the_overflow_guard(params):
    # the counts of the baseline alone would pass OVERFLOW_GUARD and "certify escape"
    with pytest.raises(ValueError, match="baseline alone"):
        run_excursion(params, SimConfig(horizon_n=50), 0)
    with pytest.raises(ValueError, match="baseline alone"):
        simulate._outcomes(params, SimConfig(horizon_n=50, initial_state=(1, 0, 0)), 0, 10)


def test_excursions_run_where_the_stationary_mean_is_below_the_limit():
    params = Params.p3(0.5, 0.0, 0.0, lam=4.9e289)  # stationary mean 9.8e289 < 1e290
    outcomes = [run_excursion(params, SimConfig(horizon_n=50), r).kind for r in range(20)]
    assert outcomes == [ExcursionKind.CENSORED] * 20


@pytest.mark.parametrize(
    "params",
    [Params.p3(0.2, 0.6, 0.6, lam=1.0), Params(p=5, coeffs=(0.4, 0.2, 0.0, 0.3, 0.3), lam=1.0)],
    ids=["p3", "p5"],
)
def test_escape_cone_at_linear_point(params):
    # nonnegative coefficients, sum S > 1: once the window's minimum is >= M,
    # it grows at least x(1 + S)/2 every p steps
    p, rho = params.p, (1.0 + sum(params.coeffs)) / 2.0
    level = _cone(params)[1]
    assert level is not None and level <= 1e9
    x = math.ceil(level)
    assert escaped(params, (x,) * p)
    assert escaped(params, (10**40,) + (x,) * (p - 1))
    assert not escaped(params, (x,) * (p - 1) + (x - 1,))
    rng = replica_rng(5, 0)
    state = (x,) * p
    for _ in range(10):
        floor = min(state)
        for _ in range(p):
            state = step(params, state, rng)
            assert escaped(params, state)
        assert min(state) >= rho * floor
    # exploded excursions are certified soon after the crossing, not at the 1e300 guard
    cfg = SimConfig(horizon_n=1000, master_seed=11)
    outcomes = [run_excursion(params, cfg, r) for r in range(100)]
    exploded = [o for o in outcomes if o.kind is ExcursionKind.EXPLODED]
    assert exploded and max(o.peak for o in exploded) < 1e12


def test_crossing_burst_returns_with_its_peak():
    # at (8, 8, -121) most excursions cross 1e9 in a burst that peaks far
    # above numpy's Poisson limit and then comes back to (0, 0, 0)
    params = Params.p3(8.0, 8.0, -121.0, lam=1.0)
    cfg = SimConfig(master_seed=2024)
    bursts = []
    for r in range(200):
        o = run_excursion(params, cfg, r)
        if o.kind is ExcursionKind.RETURNED and o.peak > 1e18:
            bursts.append((r, o))
    assert bursts
    r, o = bursts[0]
    rng = replica_rng(cfg.master_seed, r)
    states = [(0, 0, 0)]
    for _ in range(o.steps):
        states.append(step(params, states[-1], rng))
    assert states[-1] == (0, 0, 0) and (0, 0, 0) not in states[1:-1]
    assert max(s[0] for s in states) == o.peak


def test_intensity_sum_past_float_range_certifies_escape():
    # at (1e10, -1e9, -1e9), seed 0, replica 2 reaches a state whose a * x
    # overflows before any count passes OVERFLOW_GUARD; the Poisson draw at
    # the inf mean used to abort the run
    cfg = SimConfig()
    outcome = run_excursion(Params.p3(1e10, -1e9, -1e9), cfg, 2)
    assert outcome.kind is ExcursionKind.EXPLODED and outcome.steps == cfg.horizon_n + 1
    assert outcome.peak <= OVERFLOW_GUARD
    # inf - inf is nan, which intensity once clipped to a zero mean
    params, state = Params.p3(1e10, -1e10, 0.0), (10**299, 10**299, 0)
    with pytest.raises(OverflowError):
        intensity(params, state)
    assert run_excursion(params, SimConfig(initial_state=state), 0) == (ExcursionKind.EXPLODED, 10_001, 0)


def test_run_trajectory_length_one():
    params = Params.p3(0.5, 0.1, 0.1, lam=1.0)
    cfg = SimConfig(master_seed=3)
    traj = run_trajectory(params, cfg, 1, 0)
    assert len(traj.states) == 1 and not traj.crossed


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
    crossed_any = False
    for r in range(200):
        traj = run_trajectory(params, cfg, 10_000, r)
        if traj.crossed:
            crossed_any = True
            assert traj.states[-1][0] > cfg.explosion_threshold_m
            assert len(traj.states) < 10_000
    assert crossed_any


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


@pytest.mark.parametrize("bad", [math.nan, 2.5, -1])
def test_non_integer_and_negative_counts_are_rejected(bad):
    # a NaN count once passed the `x < 0` check and ran as a bogus excursion
    state = (bad, 0, 0)
    with pytest.raises(ValueError):
        check_state(state, 3)
    with pytest.raises(ValueError):
        intensity(Params.p3(0.5, 0.1, 0.1), state)
    with pytest.raises(ValueError):
        SimConfig(master_seed=1, initial_state=state)
    # numpy integers are integers
    check_state((np.int64(2), 0, np.uint8(1)), 3)
    assert SimConfig(initial_state=(np.int64(2), 0, 0)).initial_state == (2, 0, 0)


@pytest.mark.parametrize("params", [Params.p3(-1.0, -1.0, -1.0), Params.p3(0.5, -1.0, -1.0)], ids=["inhibited", "positive-a"])
def test_initial_counts_above_the_overflow_guard_are_rejected(params):
    # such counts once passed SimConfig and crashed both entry points with OverflowError
    for big in (10**400, 10**301):
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, initial_state=(big, 0, 0))
    cfg = SimConfig(master_seed=1, initial_state=(10**300, 0, 0))
    assert run_excursion(params, cfg, 0).kind is ExcursionKind.RETURNED
    assert run_trajectory(params, cfg, 5, 0).states


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


def _alternation_oracle(x):
    """detect_alternation's definition, tried at every t in turn."""
    for t in range(len(x) - 3):
        even, odd = x[t::2], x[t + 1::2]
        if (all(v == 0 for v in even) and all(v > 0 for v in odd)) or (
            all(v > 0 for v in even) and all(v == 0 for v in odd)
        ):
            return t
    return None


def test_detect_alternation_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(5000):
        n = int(rng.integers(4, 16))
        # mostly alternating tails, with negative entries and breaks mixed in
        x = [int(v) for v in rng.choice([-1, 0, 0, 0, 1, 2, 5], size=n)]
        if rng.random() < 0.5:
            start = int(rng.integers(0, n))
            phase = int(rng.integers(0, 2))
            for t in range(start, n):
                x[t] = 0 if (t - start + phase) % 2 == 0 else int(rng.integers(1, 9))
        expected = _alternation_oracle(x)
        assert detect_alternation(x) == expected, x
        found += expected is not None
    assert found > 1000


@pytest.mark.parametrize(
    "params", [Params.p3(3.0, 1.0, -15.0), Params(p=5, coeffs=(0.3, 0.2, 0.1, -1.0, 0.0), lam=1.0)], ids=["p3", "p5"]
)
def test_excursion_loops_keep_python_int_counts(params):
    # the excursion loop uses rng.poisson's scalar draw as it comes: a Python int, like every count of a state
    assert type(replica_rng(0, 0).poisson(2.5)) is int
    outcomes = [run_excursion(params, SimConfig(master_seed=5), r) for r in range(50)]
    assert all(type(o.peak) is int for o in outcomes) and any(o.peak > 0 for o in outcomes)
