"""The excursion-length law at p = 1 against its exact value.

At p = 1 the state is one count x, and the next count is Poisson with
mean (a x + lam)_+.  Moving the sub-probability mass of the excursions
that have not returned forward one step at a time on {0, ..., K} gives
P(tau <= n) exactly, up to the mass that leaves that range, which is
measured.  One-sample KS tests then check `run_excursions` from the
zero start (the per-replica loop) and from a nonzero start (the
lockstep kernel) at level 1e-3.
"""

import numpy as np
import pytest
from scipy.stats import kstwo, poisson

from dhawkes.experiments import run_excursions
from dhawkes.model import Params
from dhawkes.simulate import ExcursionKind, SimConfig

ALPHA = 1e-3
K = 200
REPLICAS = 20_000


def _exact_cdf(a, lam, start, steps):
    """P(tau <= n) for n = 1..steps at p = 1, and the mass lost past K.

    mu[x] is the probability that the excursion has not returned and its
    count is x.  One step sends it to y with Poisson(y; (a x + lam)_+)
    weight; the mass sent to 0 has returned at that step.
    """
    x = np.arange(K + 1)
    mean = np.maximum(a * x + lam, 0.0)
    kernel, tail = poisson.pmf(x[None, :], mean[:, None]), poisson.sf(K, mean)  # kernel[x, y]
    mu = np.zeros(K + 1)
    mu[start] = 1.0
    cdf, lost = np.empty(steps), 0.0
    for n in range(steps):
        nu = mu @ kernel
        lost += mu @ tail
        cdf[n] = (cdf[n - 1] if n else 0.0) + nu[0]
        mu = nu
        mu[0] = 0.0
    return cdf, lost


@pytest.mark.parametrize(
    "a, lam, start",
    [(0.5, 1.0, 0), (0.8, 1.0, 0), (0.5, 1.0, 3)],
    ids=["a0.5-zero-start", "a0.8-zero-start", "a0.5-kernel-start3"],
)
def test_excursion_length_matches_exact_law_p1(a, lam, start):
    cfg = SimConfig(master_seed=1, initial_state=(start,) if start else None)
    outcomes = run_excursions(Params(p=1, coeffs=(a,), lam=lam), cfg, REPLICAS, jobs=1)
    assert all(o.kind is ExcursionKind.RETURNED for o in outcomes)
    tau = np.array([o.steps for o in outcomes])
    cdf, lost = _exact_cdf(a, lam, start, int(tau.max()))
    assert lost < 1e-15
    ecdf = np.searchsorted(np.sort(tau), np.arange(1, len(cdf) + 1), side="right") / REPLICAS
    # both CDFs step only at integers, so the sup distance is taken at one
    distance = np.abs(ecdf - cdf).max()
    assert distance < kstwo.ppf(1.0 - ALPHA, REPLICAS), distance
