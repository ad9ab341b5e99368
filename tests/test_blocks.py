"""The lockstep block kernel that runs excursion batches from a start other than all zeros.

Contract tests replay a block draw by draw on its own stream; law tests
compare the kernel's outcomes with per-replica `run_excursion` outcomes
by two-sample tests at level 1e-3.
"""

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.stats import fisher_exact, ks_2samp

from dhawkes import simulate
from dhawkes.experiments import run_excursions
from dhawkes.model import Params, intensity, push_state
from dhawkes.simulate import (
    BLOCK,
    NORMAL_SWITCH,
    ExcursionKind,
    ExcursionOutcome,
    SimConfig,
    _outcomes,
    run_excursion,
)

ALPHA = 1e-3
_MASK64 = (1 << 64) - 1

P5 = Params(p=5, coeffs=(0.3, 0.2, 0.2, 0.2, 0.09), lam=1.0)
# TransientLinear at p = 5, from a start with zeros at both ends: most
# excursions cross the threshold and leave their block for `_follow`
CROSSING = (
    Params(p=5, coeffs=(0.5, 0.4, 0.3, 0.2, 0.1), lam=0.2),
    SimConfig(horizon_n=300, explosion_threshold_m=5, master_seed=7, initial_state=(0, 2, 0, 1, 0)),
)


def _on_kernel(params, cfg):
    """A start other than all zeros, and no mean above NORMAL_SWITCH below the threshold."""
    top = max(cfg.explosion_threshold_m, *cfg.initial_state)
    return any(cfg.initial_state) and params.lam + params.positive_sum * top <= NORMAL_SWITCH


def _replayed_block(params, cfg, block):
    """Outcomes of one block, drawn one replica at a time on the block's stream.

    Per step, each live replica in replica order draws its count at
    `intensity` (no draw at zero mean); a count above the threshold hands
    the exact window to `_follow` on the replica's continuation stream.
    """
    key = np.array([cfg.master_seed & _MASK64, block], dtype=np.uint64)
    rng = Generator(Philox(key=key, counter=np.array([0, 0, 0, 1], dtype=np.uint64)))
    live = {r: (cfg.initial_state, 0) for r in range(block * BLOCK, (block + 1) * BLOCK)}
    done = {}
    for n in range(1, cfg.horizon_n + 1):
        for r, (state, peak) in list(live.items()):
            s = intensity(params, state)
            d = int(rng.poisson(s)) if s > 0.0 else 0
            state, peak = push_state(state, d), max(peak, d)
            live[r] = (state, peak)
            if d > cfg.explosion_threshold_m:
                follow = simulate._rewound(cfg.master_seed, r, 2)
                done[r] = simulate._follow(params, cfg, follow, state, n, d)
            elif not any(state):
                done[r] = ExcursionOutcome(ExcursionKind.RETURNED, n, peak)
            else:
                continue
            del live[r]
        if not live:
            break
    for r, (_, peak) in live.items():
        done[r] = ExcursionOutcome(ExcursionKind.CENSORED, cfg.horizon_n, peak)
    return [done[r] for r in sorted(done)]


@pytest.mark.parametrize(
    "params, cfg",
    [
        CROSSING,
        # from 9 at the recent end: every excursion returns
        (Params.p3(3.0, 0.0, -15.0), SimConfig(horizon_n=2000, master_seed=2**64 - 1, initial_state=(9, 0, 0))),
        # TransientOscillating: crossings certified in the cone, and returns after a crossing
        (Params.p3(3.0, 4.0, -15.0), SimConfig(horizon_n=500, explosion_threshold_m=100, master_seed=3,
                                               initial_state=(0, 3, 0))),
        # p = 1, where the window is the last count
        (Params(p=1, coeffs=(0.9,), lam=0.5), SimConfig(horizon_n=50, master_seed=2, initial_state=(4,))),
        # p = 40 with 39 zero lags: a return takes 40 zero counts
        (Params(p=40, coeffs=(1.5,) + (0.0,) * 39, lam=0.05),
         SimConfig(horizon_n=120, explosion_threshold_m=1, master_seed=31, initial_state=(2,) + (0,) * 39)),
    ],
    ids=["p5-crossing", "p3-return", "p3-oscillating", "p1", "p40"],
)
def test_kernel_replays_its_block_stream(params, cfg):
    assert _on_kernel(params, cfg)
    outcomes = _outcomes(params, cfg, BLOCK, 3 * BLOCK)
    assert outcomes == _replayed_block(params, cfg, 1) + _replayed_block(params, cfg, 2)
    assert all(type(o.steps) is int and type(o.peak) is int for o in outcomes)


def test_kernel_batches_equal_at_one_and_two_jobs_and_cut_anywhere():
    params, cfg = CROSSING
    n, k = 600, 2 * BLOCK + 5
    serial = run_excursions(params, cfg, n, jobs=1)
    assert serial == run_excursions(params, cfg, n, jobs=2)
    assert run_excursions(params, cfg, k, jobs=1) == serial[:k]
    assert _outcomes(params, cfg, BLOCK, k) == serial[BLOCK:k]
    assert {o.kind for o in serial} == {ExcursionKind.RETURNED, ExcursionKind.EXPLODED}


@pytest.mark.parametrize(
    "params, state0, big",
    [
        # 2^60 + 1 has no float64: the ring's float copy would hand over 2^60
        (Params.p3(0.0, 0.5, 0.0), (2**60 + 1, 0, 0), 2**60 + 1),
        # above int64, with no positive coefficient to diverge to the normal path
        (Params.p3(0.0, 0.0, -1.0, lam=5.0), (10**300, 0, 0), 10**300),
    ],
    ids=["2^60+1", "10^300"],
)
def test_crossing_hands_follow_the_exact_window(params, state0, big, monkeypatch):
    cfg = SimConfig(horizon_n=50, explosion_threshold_m=1, master_seed=4, initial_state=state0)
    assert _on_kernel(params, cfg)
    handed = []
    follow = simulate._follow

    def recording(params, cfg, rng, state, n, peak):
        handed.append((state, n))
        return follow(params, cfg, rng, state, n, peak)

    monkeypatch.setattr(simulate, "_follow", recording)
    outcomes = _outcomes(params, cfg, 0, BLOCK)
    monkeypatch.setattr(simulate, "_follow", follow)
    assert outcomes == _replayed_block(params, cfg, 0)
    # the big count is at lag 2 after step 1 and at lag 3 after step 2
    early = [state for state, n in handed if n <= 2]
    assert early and all(big in state for state in early)
    assert all(type(x) is int for state, _ in handed for x in state)


# a start whose means can pass NORMAL_SWITCH below the threshold
NORMAL = (
    Params.p3(3.0, 4.0, -15.0),
    SimConfig(horizon_n=200, explosion_threshold_m=10**18, master_seed=8, initial_state=(1, 0, 0)),
)


def test_normal_switch_start_runs_per_replica():
    params, cfg = NORMAL
    assert params.lam + params.positive_sum * 10**18 > NORMAL_SWITCH
    single = [run_excursion(params, cfg, r) for r in range(20)]
    assert run_excursions(params, cfg, 20, jobs=1) == single
    assert _outcomes(params, cfg, 0, 20) == single


@pytest.mark.parametrize(
    "params, cfg",
    [
        (Params.p3(3.0, 0.0, -15.0), SimConfig(horizon_n=2000, master_seed=5, initial_state=(9, 0, 0))),
        NORMAL,
        (Params.p3(3.0, 2.0, -15.0), SimConfig(horizon_n=500, master_seed=5)),
    ],
    ids=["kernel", "normal-switch", "zero"],
)
def test_a_range_may_start_inside_a_block(params, cfg):
    assert _outcomes(params, cfg, 5, 300) == _outcomes(params, cfg, 0, 300)[5:]
    assert _outcomes(params, cfg, BLOCK + 3, BLOCK + 9) == _outcomes(params, cfg, 0, 300)[BLOCK + 3 : BLOCK + 9]


@pytest.mark.parametrize("start", [None, (0, 0, 0)], ids=["None", "zeros"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_zero_start_batches_are_per_replica_excursions(start, jobs):
    params = Params.p3(3.0, 1.0, -15.0)
    cfg = SimConfig(horizon_n=2000, master_seed=12, initial_state=start)
    n = 300
    assert run_excursions(params, cfg, n, jobs=jobs) == [run_excursion(params, cfg, r) for r in range(n)]


def _both(params, cfg, n):
    """n outcomes from the kernel and n from per-replica run_excursion, at one seed."""
    return list(run_excursions(params, cfg, n, jobs=1)), [run_excursion(params, cfg, r) for r in range(n)]


def test_law_of_the_peak_from_the_stationary_mean():
    cfg = SimConfig(horizon_n=200, master_seed=1, initial_state=(100,) * 5)
    kernel, single = _both(P5, cfg, 3000)
    assert {o.kind for o in kernel + single} == {ExcursionKind.CENSORED}
    assert ks_2samp([o.peak for o in kernel], [o.peak for o in single]).pvalue > ALPHA


def test_law_of_the_return_time():
    cfg = SimConfig(master_seed=1, initial_state=(9, 0, 0))
    kernel, single = _both(Params.p3(3.0, 0.0, -15.0), cfg, 4000)
    assert {o.kind for o in kernel + single} == {ExcursionKind.RETURNED}
    assert ks_2samp([o.steps for o in kernel], [o.steps for o in single]).pvalue > ALPHA


def test_law_of_the_exploded_share():
    params, cfg = CROSSING
    n = 4000
    exploded = [sum(o.kind is ExcursionKind.EXPLODED for o in run) for run in _both(params, cfg, n)]
    assert 0 < exploded[0] < n
    assert fisher_exact([[e, n - e] for e in exploded]).pvalue > ALPHA
