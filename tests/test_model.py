import math

import numpy as np
import pytest
from scipy.stats import poisson as scipy_poisson

from dhawkes.model import Params, intensity, push_state, transition_pmf


def test_intensity_clips_at_zero():
    params = Params(p=2, coeffs=(1.0, -2.0), lam=1.0)
    assert intensity(params, (1, 2)) == 0.0


def test_intensity_zero_state_gives_lam():
    params = Params.p3(3.0, 1.1, -15.0, lam=1.0)
    assert intensity(params, (0, 0, 0)) == 1.0


def test_intensity_affine_value():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    assert intensity(params, (4, 2, 1)) == pytest.approx(6.0, abs=1e-12)


def test_intensity_dimension_mismatch():
    params = Params.p3(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        intensity(params, (1, 2))
    with pytest.raises(ValueError):
        intensity(params, (1, 2, 3, 4))


def test_intensity_rejects_negative_counts():
    params = Params.p3(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        intensity(params, (1, -2, 3))


def test_params_validation():
    with pytest.raises(ValueError):
        Params(p=0, coeffs=(), lam=1.0)
    with pytest.raises(ValueError):
        Params(p=2, coeffs=(1.0,), lam=1.0)
    with pytest.raises(ValueError):
        Params(p=1, coeffs=(1.0,), lam=0.0)
    with pytest.raises(ValueError):
        Params(p=1, coeffs=(math.nan,), lam=1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: Params(p=2, coeffs=(0.5, 0.2), lam=1.0).abc, "abc requires p=3"),
    (lambda: push_state((1, 2), -1), "next_count must be >= 0"),
], ids=["abc-at-p2", "push-negative-count"])
def test_model_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pmf_zero_intensity_is_dirac():
    params = Params(p=2, coeffs=(-1.0, -1.0), lam=1.0)
    state = (5, 5)
    assert transition_pmf(params, state, 0) == 1.0
    assert transition_pmf(params, state, 5) == 0.0


def test_pmf_partial_sum_intensity_six():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    state = (4, 2, 1)  # intensity 6
    total = sum(transition_pmf(params, state, ell) for ell in range(61))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pmf_matches_poisson_oracle():
    params = Params.p3(0.5, 0.25, 0.125, lam=2.0)
    state = (3, 1, 4)
    s = intensity(params, state)
    for ell in (0, 1, 2, 7, 19):
        assert transition_pmf(params, state, ell) == pytest.approx(
            scipy_poisson.pmf(ell, s), rel=1e-12
        )


def test_pmf_normalizes_on_random_states():
    rng = np.random.default_rng(1)
    for _ in range(50):
        coeffs = tuple(rng.uniform(-2, 2, size=3))
        params = Params(p=3, coeffs=coeffs, lam=rng.uniform(0.1, 5.0))
        state = tuple(int(v) for v in rng.integers(0, 30, size=3))
        s = intensity(params, state)
        if s == 0.0:
            assert transition_pmf(params, state, 0) == 1.0
            continue
        top = math.ceil(s + 20.0 * math.sqrt(s) + 50.0)
        total = sum(transition_pmf(params, state, ell) for ell in range(top + 1))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pmf_accurate_at_huge_intensity():
    # log-space evaluation must survive means far beyond exp overflow
    params = Params(p=1, coeffs=(1.0,), lam=1.0)
    state = (10**9,)
    s = intensity(params, state)
    assert s == 1e9 + 1.0
    center = int(s)
    from scipy.special import gammaln

    ells = np.arange(center - 4_000_000, center + 4_000_000, dtype=np.float64)
    log_pmf = ells * math.log(s) - s - gammaln(ells + 1.0)
    assert np.exp(log_pmf).sum() == pytest.approx(1.0, abs=1e-6)
    # spot value agrees with the vectorized oracle
    assert transition_pmf(params, state, center) == pytest.approx(
        math.exp(center * math.log(s) - s - math.lgamma(center + 1)), rel=1e-12
    )


def test_pmf_rejects_negative_count():
    params = Params(p=1, coeffs=(0.5,), lam=1.0)
    with pytest.raises(ValueError):
        transition_pmf(params, (1,), -1)


def test_intensity_monotonicity_by_sign():
    rng = np.random.default_rng(7)
    for _ in range(100):
        coeffs = tuple(rng.uniform(-3, 3, size=4))
        params = Params(p=4, coeffs=coeffs, lam=rng.uniform(0.1, 2.0))
        state = [int(v) for v in rng.integers(0, 20, size=4)]
        base = intensity(params, tuple(state))
        for i, a_i in enumerate(coeffs):
            bumped = list(state)
            bumped[i] += 1
            moved = intensity(params, tuple(bumped))
            if a_i >= 0:
                assert moved >= base
            else:
                assert moved <= base


def test_push_state_examples():
    assert push_state((1, 2, 3), 9) == (9, 1, 2)
    assert push_state((0, 0, 0), 0) == (0, 0, 0)
    assert push_state((7,), 4) == (4,)


def test_push_state_shift_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        state = tuple(int(v) for v in rng.integers(0, 100, size=p))
        new = push_state(state, 42)
        assert new[1:] == state[: p - 1]
        assert new[0] == 42
