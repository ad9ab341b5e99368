"""The excursion-length law at p = 1 and p = 2 against its exact value.

The state is the window (x_1, ..., x_p), x_1 the most recent count, and
the next count is Poisson with mean (a_1 x_1 + ... + a_p x_p + lam)_+.
Moving the sub-probability mass of the excursions that have not returned
forward one step at a time on {0, ..., K}^p gives P(tau <= n) exactly,
up to the mass that leaves that range, which is measured.  One-sample KS
tests then check `run_excursions` from the zero start (the per-replica
loop) and from a nonzero start (the lockstep kernel) at level 1e-3.
"""

import numpy as np
import pytest
from scipy.stats import kstwo, poisson

from dhawkes.experiments import run_excursions
from dhawkes.model import Params
from dhawkes.simulate import ExcursionKind, SimConfig

ALPHA = 1e-3
REPLICAS = 20_000


def _exact_cdf(coeffs, lam, start, steps, k):
    """P(tau <= n) for n = 1..steps, and the mass lost past k.

    mu[x_1, ..., x_p] is the probability that the excursion has not
    returned and its window is (x_1, ..., x_p).  One step sends it to
    (y, x_1, ..., x_{p-1}) with Poisson(y; mean) weight; the mass sent to
    the all-zero window has returned at that step.
    """
    p, y = len(coeffs), np.arange(k + 1)
    mean = np.maximum(lam + sum(a * x for a, x in zip(coeffs, np.indices((k + 1,) * p))), 0.0)
    kernel = np.empty(((k + 1) ** (p - 1), k + 1, k + 1))  # kernel[(x_1..x_{p-1}), x_p, y]
    for i, row in enumerate(mean.reshape(-1, k + 1)):
        kernel[i] = poisson.pmf(y[None, :], row[:, None])
    tail = poisson.sf(k, mean)
    mu = np.zeros((k + 1,) * p)
    mu[start] = 1.0
    cdf, lost, zero = np.empty(steps), 0.0, (0,) * p
    for n in range(steps):
        lost += (mu * tail).sum()
        # sum over x_p, then the drawn y becomes x_1
        mu = np.moveaxis((mu.reshape(-1, 1, k + 1) @ kernel).reshape(mu.shape), -1, 0)
        cdf[n] = (cdf[n - 1] if n else 0.0) + mu[zero]
        mu[zero] = 0.0
    return cdf, lost


def _check_law(coeffs, lam, start, k, max_lost):
    p = len(coeffs)
    cfg = SimConfig(master_seed=1, initial_state=start if any(start) else None)
    outcomes = run_excursions(Params(p=p, coeffs=coeffs, lam=lam), cfg, REPLICAS, jobs=1)
    assert all(o.kind is ExcursionKind.RETURNED for o in outcomes)
    tau = np.array([o.steps for o in outcomes])
    cdf, lost = _exact_cdf(coeffs, lam, start, int(tau.max()), k)
    assert lost < max_lost
    ecdf = np.searchsorted(np.sort(tau), np.arange(1, len(cdf) + 1), side="right") / REPLICAS
    # both CDFs step only at integers, so the sup distance is taken at one
    distance = np.abs(ecdf - cdf).max()
    assert distance < kstwo.ppf(1.0 - ALPHA, REPLICAS), distance


@pytest.mark.parametrize(
    "a, lam, start",
    [(0.5, 1.0, (0,)), (0.8, 1.0, (0,)), (0.5, 1.0, (3,))],
    ids=["a0.5-zero-start", "a0.8-zero-start", "a0.5-kernel-start3"],
)
def test_excursion_length_matches_exact_law_p1(a, lam, start):
    _check_law((a,), lam, start, 200, 1e-15)


@pytest.mark.parametrize(
    "coeffs, start, k",
    [
        ((0.5, -0.3), (0, 0), 60),
        ((0.5, -0.3), (3, 0), 60),
        ((1.5, -0.8), (0, 0), 200),
        ((1.5, -0.8), (3, 0), 200),
    ],
    ids=["a0.5-b-0.3-zero-start", "a0.5-b-0.3-kernel-start3,0", "a1.5-b-0.8-zero-start", "a1.5-b-0.8-kernel-start3,0"],
)
def test_excursion_length_matches_exact_law_p2(coeffs, start, k):
    _check_law(coeffs, 1.0, start, k, 1e-9)


def test_exact_law_p2_mean_return_time():
    # E[tau] = sum over n >= 0 of P(tau > n), from the zero start
    cdf, lost = _exact_cdf((0.5, -0.3), 1.0, (0, 0), 192, 60)
    assert lost < 1e-15
    assert 1.0 + (1.0 - cdf).sum() == pytest.approx(6.17471, abs=1e-5)
