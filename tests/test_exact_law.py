"""The excursion-length law at p = 1, 2 and 3 against its exact value.

The state is the window (x_1, ..., x_p), x_1 the most recent count, and
the next count is Poisson with mean (a_1 x_1 + ... + a_p x_p + lam)_+.
Moving the sub-probability mass of the excursions that have not returned
forward one step at a time on {0, ..., K}^p gives P(tau <= n) exactly,
up to the mass that leaves that range, which is measured.  With
nonnegative coefficients no mean is clipped, and the cluster
representation gives the law at p = 3 with no range at all.  One-sample
KS tests then check `run_excursions` from the zero start (the
per-replica loop) and from a nonzero start (the lockstep kernel) at
level 1e-3.
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


def _cluster_law(coeffs, lam, start, steps):
    """P(tau = n) for n = 1..steps, for nonnegative coefficients.

    Each count at time m has Poisson(a_i) children at time m + i, and
    Poisson(lam) immigrants arrive at each step.  g_t, the probability
    that a cluster rooted at time 0 has no point in (t - p, t], is 1 for
    t < 0, 0 for 0 <= t < p, and prod_i exp(-a_i (1 - g_{t-i})) after.
    From the zero window, u_n = P(window at n is zero) =
    exp(-lam sum_{j<n} (1 - g_j)).  From a start x, the count x_i (at
    time 1 - i) adds Poisson(x_i a_l) children at each time
    s = 1 - i + l >= 1, each of whose clusters misses the window at n
    with probability g_{n-s}, and u^x_n = 0 while x_i is in the window.
    Renewal at the zero window gives u^x_n = sum_{k<=n} f_k u_{n-k}.
    """
    p = len(coeffs)
    g = np.ones(steps + 2 * p)  # g[t + p] = g_t for t >= -p
    g[p : 2 * p] = 0.0
    for t in range(p, steps + p):
        g[t + p] = np.exp(-sum(a * (1.0 - g[t - i + p]) for i, a in enumerate(coeffs, start=1)))
    n = np.arange(steps + 1)
    log_u = -lam * np.concatenate(([0.0], np.cumsum(1.0 - g[p : steps + p])))
    log_ux = log_u.copy()
    for i, x in enumerate(start, start=1):
        for l, a in enumerate(coeffs, start=1):
            if 1 - i + l >= 1:
                log_ux -= x * a * (1.0 - g[n - (1 - i + l) + p])
    u, ux = np.exp(log_u), np.exp(log_ux)
    in_window = [p - i for i, x in enumerate(start, start=1) if x]
    ux[: max(in_window, default=0) + 1] = 0.0  # also n = 0, where the return is not counted
    f = np.zeros(steps + 1)
    for m in range(1, steps + 1):
        f[m] = ux[m] - f[1:m] @ u[m - 1 : 0 : -1]
    return f[1:]


def _simulated_tau(coeffs, lam, start):
    cfg = SimConfig(master_seed=1, initial_state=start if any(start) else None)
    kinds, steps, _ = run_excursions(Params(p=len(coeffs), coeffs=coeffs, lam=lam), cfg, REPLICAS, jobs=1).columns
    assert set(kinds) == {ExcursionKind.RETURNED}
    return np.array(steps)


def _check_law(coeffs, lam, start, k, max_lost):
    tau = _simulated_tau(coeffs, lam, start)
    cdf, lost = _exact_cdf(coeffs, lam, start, int(tau.max()), k)
    assert lost < max_lost
    _check_ks(tau, cdf)


def _check_ks(tau, cdf):
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


@pytest.mark.parametrize("start", [(0, 0, 0), (3, 2, 1)], ids=["zero-start", "kernel-start3,2,1"])
def test_excursion_length_matches_cluster_law_p3(start):
    coeffs = (0.3, 0.2, 0.1)
    tau = _simulated_tau(coeffs, 1.0, start)
    f = _cluster_law(coeffs, 1.0, start, int(tau.max()))
    # f_2 = f_3 = 0 exactly from the zero window; the deconvolution leaves them within rounding
    assert f.min() >= -1e-15 and f.sum() <= 1.0
    _check_ks(tau, np.cumsum(f))


def test_cluster_law_agrees_with_the_propagation_at_p2():
    # two exact laws: the cluster recursion, and _exact_cdf's propagation on {0, ..., K}^2
    for start in [(0, 0), (4, 0), (2, 3)]:
        cdf, lost = _exact_cdf((0.5, 0.2), 1.0, start, 80, 60)
        assert lost < 1e-12
        assert np.cumsum(_cluster_law((0.5, 0.2), 1.0, start, 80)) == pytest.approx(cdf, abs=1e-12)
