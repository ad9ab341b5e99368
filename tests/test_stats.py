import numpy as np
import pytest
from scipy.special import betainc as scipy_betainc
from scipy.special import betaincinv as scipy_betaincinv

from dhawkes.stats import (
    ConfidenceInterval,
    beta_quantile,
    clopper_pearson,
    ecdf,
    regularized_incomplete_beta,
)


def test_uniform_median():
    assert beta_quantile(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_beta_1_n_closed_form():
    for gamma in (0.05, 0.3, 0.9):
        for n in (1, 4, 25):
            expected = 1.0 - (1.0 - gamma) ** (1.0 / n)
            assert beta_quantile(gamma, 1.0, n) == pytest.approx(expected, abs=1e-10)


def test_beta_quantile_frozen_value():
    # independent oracle: scipy.special.betaincinv(6, 5, 0.975)
    assert beta_quantile(0.975, 6.0, 5.0) == pytest.approx(0.8129139715526015, abs=1e-9)


def test_beta_quantile_is_exact_inverse():
    rng = np.random.default_rng(21)
    for _ in range(200):
        gamma = rng.uniform(0.01, 0.99)
        x = rng.uniform(0.2, 50.0)
        y = rng.uniform(0.2, 50.0)
        q = beta_quantile(gamma, x, y)
        assert abs(regularized_incomplete_beta(q, x, y) - gamma) < 1e-10


def test_incomplete_beta_matches_scipy():
    rng = np.random.default_rng(22)
    for _ in range(300):
        x = rng.uniform(0.0, 1.0)
        a = rng.uniform(0.1, 200.0)
        b = rng.uniform(0.1, 200.0)
        assert regularized_incomplete_beta(x, a, b) == pytest.approx(
            float(scipy_betainc(a, b, x)), abs=1e-11
        )


def test_beta_quantile_matches_scipy_at_large_shapes():
    # Clopper-Pearson at N = 1e5 hits shape parameters this size
    q = beta_quantile(0.005, 1100.0, 98901.0)
    assert q == pytest.approx(float(scipy_betaincinv(1100, 98901, 0.005)), abs=1e-9)


def test_beta_quantile_validation():
    with pytest.raises(ValueError):
        beta_quantile(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        beta_quantile(0.5, -1.0, 1.0)


def test_clopper_pearson_zero_successes():
    ci = clopper_pearson(0, 100, 0.01)
    assert ci.lower == 0.0
    assert ci.upper == pytest.approx(1.0 - 0.005 ** (1.0 / 100.0), abs=1e-12)
    assert ci.upper == pytest.approx(0.05160402962410404, abs=1e-12)


def test_clopper_pearson_all_successes_mirror():
    lo = clopper_pearson(100, 100, 0.01)
    hi = clopper_pearson(0, 100, 0.01)
    assert lo.upper == 1.0
    assert lo.lower == pytest.approx(1.0 - hi.upper, abs=1e-12)


def test_clopper_pearson_frozen_interior_point():
    ci = clopper_pearson(5, 10, 0.05)
    assert ci.lower == pytest.approx(0.18708602844739855, abs=1e-9)
    assert ci.upper == pytest.approx(0.8129139715526015, abs=1e-9)


def test_clopper_pearson_monotone_in_successes():
    n = 40
    lowers = [clopper_pearson(x, n, 0.05).lower for x in range(n + 1)]
    uppers = [clopper_pearson(x, n, 0.05).upper for x in range(n + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(uppers, uppers[1:]))


def test_clopper_pearson_coverage_spot_check():
    # defining property at one p; the exhaustive sweep lives in acceptance
    from scipy.stats import binom

    n, alpha, p = 20, 0.05, 0.3
    cov = sum(
        binom.pmf(x, n, p)
        for x in range(n + 1)
        if clopper_pearson(x, n, alpha).contains(p)
    )
    assert cov >= 1.0 - alpha


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson(-1, 10, 0.05)
    with pytest.raises(ValueError):
        clopper_pearson(11, 10, 0.05)
    with pytest.raises(ValueError):
        clopper_pearson(1, 0, 0.05)
    with pytest.raises(ValueError):
        clopper_pearson(1, 10, 1.5)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -1.0)])
def test_incomplete_beta_rejects_nonpositive_shape(a, b):
    with pytest.raises(ValueError, match="shape parameters must be > 0"):
        regularized_incomplete_beta(0.5, a, b)


@pytest.mark.parametrize("x, expected", [(-0.5, 0.0), (0.0, 0.0), (1.0, 1.0), (1.5, 1.0)])
def test_incomplete_beta_outside_the_open_unit_interval(x, expected):
    assert regularized_incomplete_beta(x, 2.0, 3.0) == expected


@pytest.mark.parametrize("lower, upper, successes, message", [
    (0.6, 0.4, 1, "invalid interval"),
    (0.1, 0.2, 3, "successes 3 out of range"),
], ids=["reversed-bounds", "successes-above-trials"])
def test_confidence_interval_invariants(lower, upper, successes, message):
    with pytest.raises(ValueError, match=message):
        ConfidenceInterval(lower, upper, 0.99, successes, 2)


def test_ecdf_basic():
    assert ecdf([3, 3, 7]) == [(3, pytest.approx(2 / 3)), (7, pytest.approx(1.0))]


def test_ecdf_single_atom():
    assert ecdf([5, 5, 5]) == [(5, pytest.approx(1.0))]


def test_ecdf_keeps_sentinel_atom():
    horizon = 100
    samples = [3, 10, 42, horizon + 1, horizon + 1]
    points = ecdf(samples)
    assert points[-1] == (horizon + 1, pytest.approx(1.0))
    assert points[-2][1] == pytest.approx(3 / 5)


def test_ecdf_exact_against_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(50):
        horizon = int(rng.integers(5, 60))
        n = int(rng.integers(1, 200))
        samples = [int(x) for x in rng.integers(1, horizon + 2, size=n)]  # horizon, horizon + 1 atoms
        samples += [horizon] * int(rng.integers(0, 5)) + [horizon + 1] * int(rng.integers(0, 5))
        samples = [samples[i] for i in rng.permutation(len(samples))]
        brute = [(v, sum(x <= v for x in samples) / len(samples)) for v in sorted(set(samples))]
        assert ecdf(samples) == brute


def test_ecdf_empty_raises():
    with pytest.raises(ValueError):
        ecdf([])
