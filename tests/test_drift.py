import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dhawkes import drift
from dhawkes.cubic import (
    c_bounds,
    cubic_report,
    k_of_alpha,
    m_alpha,
    r_of_alpha,
)
from dhawkes.drift import (
    MAX_RECORDED_VIOLATIONS,
    Q_GRID_DENSITY,
    DriftReport,
    certify_drift,
    q_form_negativity_check,
    scan_violations,
    linear_drift_coeffs,
    linear_delta_v,
    linear_drift_scan,
    linear_weights,
    verify_small_set,
)
from dhawkes.model import Params, intensity, transition_pmf


def test_linear_weights_p1():
    w = linear_weights(Params(p=1, coeffs=(0.5,), lam=1.0))
    assert w == pytest.approx([1.0])


def test_linear_weights_p2():
    w = linear_weights(Params(p=2, coeffs=(0.3, -7.0), lam=1.0))
    assert w == pytest.approx([1.0, 0.35])


def test_linear_weights_p3():
    w = linear_weights(Params(p=3, coeffs=(0.2, 0.3, 0.4), lam=1.0))
    assert w == pytest.approx([1.0, 0.7 + 1.0 / 15.0, 0.4 + 1.0 / 30.0])


def test_linear_weights_leading_weight_is_one():
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = int(rng.integers(1, 6))
        coeffs = rng.uniform(-2, 0.9 / p, size=p)
        if sum(max(x, 0) for x in coeffs) >= 1:
            continue
        w = linear_weights(Params(p=p, coeffs=tuple(coeffs), lam=1.0))
        assert w[0] == pytest.approx(1.0)
        assert all(0.0 < wi <= 1.0 + 1e-12 for wi in w)


def test_linear_weights_requires_subcritical_positive_parts():
    with pytest.raises(ValueError):
        linear_weights(Params(p=2, coeffs=(0.8, 0.3), lam=1.0))


def test_linear_delta_v_zero_state():
    params = Params(p=3, coeffs=(0.2, 0.3, 0.4), lam=1.0)
    eps = 0.01
    assert linear_delta_v(params, (0, 0, 0), eps) == pytest.approx(params.lam + eps)


def test_linear_drift_coeffs_negative_below_eta_over_p():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = int(rng.integers(1, 6))
        coeffs = tuple(rng.uniform(-3, 0.9 / p, size=p))
        plus = sum(max(x, 0) for x in coeffs)
        if plus >= 1:
            continue
        params = Params(p=p, coeffs=coeffs, lam=1.0)
        eta = 1.0 - plus
        coeffs_bound = linear_drift_coeffs(params, eta / (2 * p))
        assert all(cb < 0.0 for cb in coeffs_bound)
        # identity: coefficient = -eta/p + eps * alpha_i
        w = linear_weights(params)
        for cb, wi in zip(coeffs_bound, w):
            assert cb == pytest.approx(-eta / p + (eta / (2 * p)) * wi, abs=1e-12)


def test_linear_delta_v_negative_far_out():
    params = Params(p=3, coeffs=(0.2, 0.3, 0.4), lam=1.0)
    eta = 0.1
    eps = eta / 6.0
    assert linear_delta_v(params, (1000, 1000, 1000), eps) < 0.0


def test_linear_drift_scan_finite_violations_clean_shell():
    params = Params(p=3, coeffs=(0.2, 0.3, 0.4), lam=1.0)
    eps = 0.1 / 6.0
    report = linear_drift_scan(params, eps, 100)
    assert report.violations_total == len(report.violation_set)
    assert report.violations_total > 0  # the origin itself violates
    assert report.shell_clean
    assert all(max(v) < 100 for v in report.violation_set)
    # every recorded violation is re-checkable
    for state in report.violation_set[:50]:
        assert linear_delta_v(params, state, eps) > 0.0
    assert report.k_bound >= linear_delta_v(params, (0, 0, 0), eps) - 1e-12


def test_linear_drift_scan_agrees_exactly_with_linear_delta_v():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(40):
        p = int(rng.integers(1, 6))
        coeffs = tuple(float(x) for x in rng.uniform(-2.0, 0.9 / p, size=p))
        params = Params(p=p, coeffs=coeffs, lam=float(rng.uniform(0.5, 3.0)))
        eps = (1.0 - params.positive_sum) / (2 * p)
        report = linear_drift_scan(params, eps, 15)
        if report.violations_total != len(report.violation_set):
            continue  # not every violation recorded
        values = [linear_delta_v(params, state, eps) for state in report.violation_set]
        assert all(v > 0.0 for v in values)
        assert report.k_bound == max(values)
        if p <= 3:  # and no state of the box with a positive drift is missed
            box = itertools.product(range(16), repeat=p)
            assert set(report.violation_set) == {x for x in box if linear_delta_v(params, x, eps) > 0.0}
        checked += 1
    assert checked >= 30


def _exact_linear_drift(params, epsilon):
    """Delta V + eps*V under the linear weights as a function of the state, in exact rational arithmetic.

    alpha_i = eta*(p - i + 1)/p + sum_{j>=i} (a_j)+ with eta = 1 - sum (a_i)+, alpha_{p+1} = 0,
    and the value is s+ + sum_i (alpha_{i+1} + alpha_i*(eps - 1)) x_i + eps.
    """
    a, lam, eps = [Fraction(x) for x in params.coeffs], Fraction(params.lam), Fraction(epsilon)
    p, plus = len(a), [max(x, 0) for x in a]
    eta = 1 - sum(plus)
    alphas = [eta * (p - i) / p + sum(plus[i:]) for i in range(p)] + [0]
    weights = [alphas[i + 1] + alphas[i] * (eps - 1) for i in range(p)]

    def value(state):
        s = lam + sum(x * a_i for x, a_i in zip(state, a))
        return max(s, 0) + sum(x * w for x, w in zip(state, weights)) + eps

    return value


def test_linear_drift_scan_matches_exact_rational_oracle():
    # the float values are a few roundings of sums below 200 here, off by far less than the
    # margin; no box state lies within it of 0, so the violation set is decided exactly
    margin = Fraction(1, 10**9)
    rng = np.random.default_rng(53)
    for _ in range(30):
        p = int(rng.integers(1, 5))
        coeffs = tuple(float(x) for x in rng.uniform(-2.0, 0.9 / p, size=p))
        params = Params(p=p, coeffs=coeffs, lam=float(rng.uniform(0.1, 3.0)))
        eps = float(rng.uniform(0.05, 0.95)) * (1.0 - params.positive_sum) / p
        radius = int(rng.integers(0, 13 if p < 4 else 7))
        value = _exact_linear_drift(params, eps)
        exact = {x: value(x) for x in itertools.product(range(radius + 1), repeat=p)}
        assert all(abs(v) > margin for v in exact.values())
        above = {x for x, v in exact.items() if v > 0}
        report = linear_drift_scan(params, eps, radius)
        assert report.violations_total == len(report.violation_set)
        assert set(report.violation_set) == above, params
        assert abs(Fraction(report.k_bound) - max(exact[x] for x in above)) <= margin  # the origin violates
        assert report.shell_clean == all(max(x) < radius for x in above)


def test_linear_drift_scan_rejects_oversized_epsilon():
    params = Params(p=2, coeffs=(0.5, 0.3), lam=1.0)
    with pytest.raises(ValueError):
        linear_drift_scan(params, 0.5, 10)  # eta/p = 0.1


@pytest.mark.parametrize("call, message", [
    (lambda: DriftReport(0.0, (), 0, 0.0, 1, True), "epsilon must be in"),
    (lambda: DriftReport(1.5, (), 0, 0.0, 1, True), "epsilon must be in"),
    (lambda: linear_drift_scan(Params(p=2, coeffs=(0.5, 0.3), lam=1.0), 0.05, -1), "box_radius must be >= 0"),
], ids=["report-epsilon-0", "report-epsilon-above-1", "scan-radius-minus-1"])
def test_drift_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _drift_terms(params3, alpha, state):
    """(clipped, Delta V_alpha, V_alpha) at one state, by the scan's own _jk_terms/_i_terms."""
    i, j, k = state
    return drift._i_terms(params3, alpha, i, drift._jk_terms(params3, alpha, j, k))


def test_v_alpha_values():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)  # V_alpha does not depend on the coefficients
    assert _drift_terms(params, 1.0, (0, 0, 0))[2] == 1.0
    assert _drift_terms(params, 1.0, (2, 1, 0))[2] == pytest.approx(2.5)


def test_v_alpha_bounded_on_cleared_states():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    rng = np.random.default_rng(43)
    for _ in range(200):
        alpha = rng.uniform(0.05, 3.0)
        i, j = int(rng.integers(0, 1000)), int(rng.integers(0, 1000))
        assert _drift_terms(params, alpha, (0, i, j))[2] <= max(2.0, alpha + 1.0) + 1e-12


def test_delta_v_alpha_zero_state_is_lam():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    assert _drift_terms(params, aq, (0, 0, 0))[1] == pytest.approx(params.lam)


def test_delta_v_alpha_matches_truncated_expectation():
    rng = np.random.default_rng(44)
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    for _ in range(50):
        state = tuple(int(v) for v in rng.integers(0, 25, size=3))
        s = intensity(params, state)
        top = int(math.ceil(s + 20 * math.sqrt(s) + 60))
        _, dv, v = _drift_terms(params, aq, state)
        v_next = drift._i_terms(params, aq, np.arange(top + 1), drift._jk_terms(params, aq, *state[:2]))[2]
        expected = sum(transition_pmf(params, state, ell) * v_next[ell] for ell in range(top + 1)) - v
        assert dv == pytest.approx(expected, abs=1e-8)


def test_q_form_on_basis_vectors():
    a, b, c = 2.5, -1.0, -3.0
    aq = cubic_report(a, b, c).alpha_q
    m = m_alpha(a, b, c, aq)
    assert np.array([1.0, 0.0, 0.0]) @ m @ np.array([1.0, 0.0, 0.0]) == -1.0
    assert np.array([0.0, 0.0, 1.0]) @ m @ np.array([0.0, 0.0, 1.0]) == pytest.approx(c * aq)


def test_q_form_gauss_reduction_identity():
    # coefficient form == reduced form whenever R(alpha) != 0
    rng = np.random.default_rng(45)
    checked = 0
    while checked < 300:
        a, b, c, alpha = rng.uniform(-2, 2, size=4)
        r = r_of_alpha(a, b, alpha)
        if abs(r) < 1e-3:
            continue
        k = k_of_alpha(a, b, c, alpha)
        det = (
            -1.0 * ((b - alpha**2) * c * alpha - ((c + b * alpha) / 2) ** 2)
            - ((a - alpha) / 2)
            * ((a - alpha) / 2 * c * alpha - (c + b * alpha) / 2 * alpha * (a + alpha) / 2)
            + (alpha * (a + alpha) / 2)
            * ((a - alpha) / 2 * (c + b * alpha) / 2 - (b - alpha**2) * alpha * (a + alpha) / 2)
        )
        x, y, z = rng.uniform(-5, 5, size=3)
        reduced = (
            -((x + (alpha - a) / 2 * y - alpha * (a + alpha) / 2 * z) ** 2)
            - r * (y - k / (2 * r) * z) ** 2
            + det / r * z * z
        )
        d = np.array([x, y, z])
        assert d @ m_alpha(a, b, c, alpha) @ d == pytest.approx(reduced, abs=1e-8)
        checked += 1


def test_q_negativity_check_at_reference_point():
    qmax = q_form_negativity_check(cubic_report(2.5, -1.0, -3.0))
    assert qmax < 0.0


def _coefficient_form(a, b, c, alpha, x, y, z):
    """The paper's drift form, written out coefficient by coefficient."""
    return (
        -x * x
        + (b - alpha * alpha) * y * y
        + c * alpha * z * z
        + (a - alpha) * x * y
        + alpha * (a + alpha) * x * z
        + (c + b * alpha) * y * z
    )


def test_q_negativity_check_matches_coefficient_form():
    rng = np.random.default_rng(48)
    checked = 0
    while checked < 60:
        a, b, c = rng.uniform(-4, 4), rng.uniform(-4, 2), rng.uniform(-8, -0.01)
        rep = cubic_report(a, b, c)
        if rep.alpha_q is None:
            continue
        d = Q_GRID_DENSITY
        expected = -math.inf
        for m1 in range(d + 1):
            for m2 in range(d + 1 - m1):
                m3 = d - m1 - m2
                x, y, z = np.array([m1, m2, m3]) / math.sqrt(m1 * m1 + m2 * m2 + m3 * m3)
                expected = max(expected, _coefficient_form(a, b, c, rep.alpha_q, x, y, z))
        assert abs(q_form_negativity_check(rep) - expected) <= 1e-12, (a, b, c)
        checked += 1


def test_alpha_q_is_the_one_premise_gate():
    # the q-form check and certify_drift refuse exactly where the report has
    # no alpha_q: on the Disc = 0 band, where Disc >= 0, and where c >= 0
    rng = np.random.default_rng(49)
    points = [(3.0, 0.5, -5.020288049381336)]  # Disc = -6.8e-11, inside the band
    while len(points) < 601:
        a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
        bounds = c_bounds(a, b)
        if len(points) % 2 and bounds is not None:  # on the Disc = 0 surface, give or take an ulp
            c = bounds[int(rng.integers(2))] * (1.0 + rng.uniform(-4e-16, 4e-16))
        else:
            c = rng.uniform(-5, 5)
        points.append((a, b, c))
    refused = band_with_negative_disc = 0
    for a, b, c in points:
        rep = cubic_report(a, b, c)
        gate = rep.alpha_q is None
        refused += gate
        band_with_negative_disc += gate and rep.disc < 0.0 and c < 0.0
        with pytest.raises(ValueError) if gate else contextlib.nullcontext():
            q_form_negativity_check(rep)
        try:
            certify_drift(Params.p3(a, b, c), box_radius=1, max_radius=1)
            raised = False
        except ValueError:
            raised = True
        except RuntimeError:  # premise accepted, no clean shell at radius 1
            raised = False
        assert raised == gate, (a, b, c)
    # both outcomes occur, and so do band points a bare Disc < 0, c < 0 test would pass
    assert min(refused, len(points) - refused) >= 100 and band_with_negative_disc >= 20


def test_q_negativity_check_preconditions():
    with pytest.raises(ValueError):
        q_form_negativity_check(cubic_report(0.0, 3.0, 0.5))  # c > 0
    # b > 0 is allowed wherever alpha_q exists (Disc < 0, c < 0)
    qmax = q_form_negativity_check(cubic_report(0.5, 0.5, -0.5))
    assert math.isfinite(qmax)


def test_isotropic_direction_leaves_positive_octant():
    a, b, c = 2.5, -1.0, -3.0
    aq = cubic_report(a, b, c).alpha_q
    r = r_of_alpha(a, b, aq)
    k = k_of_alpha(a, b, c, aq)
    x_star = np.array([aq * (a + aq) / 2 + k * (a - aq) / (4 * r), k / (2 * r), 1.0])
    assert abs(x_star @ m_alpha(a, b, c, aq) @ x_star) < 1e-8
    assert min(x_star) < 0 < max(x_star)


def test_scan_violations_reference_point():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    report = scan_violations(params, aq, 2.0**-6, 60)
    assert report.shell_clean
    assert 0 < report.violations_total < 100
    for state in report.violation_set[:20]:
        assert _exact_drift(params, aq, report.epsilon, state)[0] > 0
    assert report.k_bound > 0.0


def test_scan_violations_radius_zero():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    report = scan_violations(params, aq, 0.125, 0)
    # only the origin is scanned; it is not clipped and it violates
    assert report.violations_total == 1
    assert report.violation_set == ((0, 0, 0),)
    assert not report.shell_clean


def test_scan_violations_dirty_shell_flagged():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    report = scan_violations(params, aq, 0.5, 40)
    assert not report.shell_clean


def _slice_scan(params3, alpha, epsilon, box_radius):
    """Oracle: scan_violations as first written, every slice computing all its terms afresh."""
    a, b, c = params3.abc
    r = box_radius
    axis = np.arange(r + 1, dtype=np.float64)
    jj, kk = np.meshgrid(axis, axis, indexing="ij")
    violations, total, k_bound, shell_clean = [], 0, -math.inf, True
    for i in range(r + 1):
        s_raw = a * i + b * jj + c * kk + params3.lam
        num = i + alpha * jj
        ratio = num / (jj + alpha * kk + 1.0)
        dv = (np.maximum(s_raw, 0.0) + alpha * i) / (num + 1.0) - ratio
        in_a = s_raw <= 0.0
        dvev = dv + epsilon * (ratio + 1.0)
        bad = np.logical_and(~in_a, dvev > 0.0)
        contrib = dvev[np.logical_or(bad, in_a)]
        if contrib.size:
            k_bound = max(k_bound, float(contrib.max()))
        n_bad = int(bad.sum())
        if n_bad:
            total += n_bad
            coords = np.argwhere(bad)
            if i == r or (coords == r).any():
                shell_clean = False
            room = MAX_RECORDED_VIOLATIONS - len(violations)
            for j_, k_ in coords[: max(room, 0)]:
                violations.append((i, int(j_), int(k_)))
    return DriftReport(
        epsilon=epsilon,
        violation_set=tuple(violations),
        violations_total=total,
        k_bound=k_bound if math.isfinite(k_bound) else 0.0,
        box_radius=box_radius,
        shell_clean=shell_clean,
    )


def _assert_same_report(got, expected):
    assert got == expected
    assert repr(got.k_bound) == repr(expected.k_bound)
    assert type(got.violations_total) is int


# the benchmark's five certified points at radius 200, and a b > 0 point
@pytest.mark.parametrize(
    "abc",
    [(2.5, -1.0, -3.0), (4.19, -2.66, -5.0), (3.78, -2.88, -1.91), (1.9, -4.61, -9.49),
     (1.87, -0.14, -7.99), (3.0, 0.5, -15.0)],
)
def test_scan_violations_matches_slice_oracle_at_certified_points(abc):
    params = Params.p3(*abc, 1.0)
    report = certify_drift(params, box_radius=200).report
    assert report.box_radius == 200 and report.shell_clean
    alpha = cubic_report(*abc).alpha_q
    _assert_same_report(report, _slice_scan(params, alpha, report.epsilon, 200))


@pytest.mark.parametrize(
    "epsilon, radius",
    [(0.5, 40), (0.125, 0), (2.0**-6, 60), (0.3, 17), (1.0, 1), (2.0**-20, 60)],
    ids=["dirty-shell", "r0", "r60", "r17", "r1", "r60-small-eps"],
)
def test_scan_violations_matches_slice_oracle(epsilon, radius):
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    alpha = cubic_report(2.5, -1.0, -3.0).alpha_q
    expected = _slice_scan(params, alpha, epsilon, radius)
    _assert_same_report(scan_violations(params, alpha, epsilon, radius), expected)
    if epsilon == 0.5:
        assert not expected.shell_clean and expected.violations_total > 0


def test_scan_violations_matches_slice_oracle_at_random_points():
    # non-dyadic coefficients, lam, alpha and epsilon: the terms round, so any
    # reordering of the arithmetic shows in k_bound or the violation set
    rng = np.random.default_rng(48)
    for _ in range(40):
        a, b, c = rng.uniform(-3, 3), rng.uniform(-3, 1.5), rng.uniform(-6, -0.1)
        params = Params.p3(a, b, c, rng.uniform(0.1, 3.0))
        alpha, epsilon, radius = rng.uniform(0.05, 3.0), rng.uniform(0.01, 1.0), int(rng.integers(0, 41))
        expected = _slice_scan(params, alpha, epsilon, radius)
        _assert_same_report(scan_violations(params, alpha, epsilon, radius), expected)


def test_drift_terms_keep_the_evaluation_order():
    # a cube slice and the three shell faces share _jk_terms/_i_terms; each must give
    # the bits of the one-expression form at every state, or shell and cube could disagree
    rng = np.random.default_rng(49)
    r = 23
    axis = np.arange(r + 1, dtype=np.float64)
    jj, kk = np.meshgrid(axis, axis, indexing="ij")
    layouts = ((7, jj, kk), (r, axis[:, None], axis), (axis[:-1, None], r, axis), (axis[:-1, None], axis[:-1], r))
    for _ in range(20):
        a, b, c = rng.uniform(-3, 3, size=3)
        params = Params.p3(a, b, c, rng.uniform(0.1, 3.0))
        alpha = rng.uniform(0.05, 3.0)
        for i, j, k in layouts:
            shape = np.broadcast_shapes(*map(np.shape, (i, j, k)))
            jk = drift._jk_terms(params, alpha, j, k)
            got = drift._i_terms(params, alpha, i, jk)
            s = a * i + b * j + c * k + params.lam
            num = i + alpha * j
            ratio = num / (j + alpha * k + 1.0)
            expected = (s <= 0.0, (np.maximum(s, 0.0) + alpha * i) / (num + 1.0) - ratio, ratio + 1.0)
            for g, e in zip(got, expected):
                assert g.tobytes() == np.broadcast_to(e, shape).tobytes()


def _full_cube_search(params3, alpha, radius, max_radius):
    """The search certify_drift replaced: every grid epsilon scans the whole cube."""
    while True:
        for k in range(1, 21):
            rep = scan_violations(params3, alpha, 2.0**-k, radius)
            if rep.shell_clean:
                return rep
        if radius >= max_radius:
            return None
        radius = min(2 * radius, max_radius)


def _certified_report(params3, radius, max_radius):
    try:
        return certify_drift(params3, box_radius=radius, max_radius=max_radius).report
    except RuntimeError:
        return None


def test_drift_takes_largest_clean_epsilon_of_the_grid():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    report = certify_drift(params, box_radius=60, max_radius=60).report
    assert report == scan_violations(params, aq, report.epsilon, 60)
    assert report.shell_clean
    k = round(-math.log2(report.epsilon))
    assert report.epsilon == 2.0**-k
    for larger in range(1, k):
        assert not scan_violations(params, aq, 2.0**-larger, 60).shell_clean


def test_drift_none_without_clean_shell():
    # no grid epsilon leaves the radius-5 shell clean, and doubling is capped at 5
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    assert _full_cube_search(params, aq, 5, 5) is None
    with pytest.raises(RuntimeError, match="radius 5"):
        certify_drift(params, box_radius=5, max_radius=5)
    with pytest.raises(ValueError):
        scan_violations(params, aq, 0.0, 40)


def test_shell_search_matches_full_cube_search_at_random_points():
    rng = np.random.default_rng(47)
    seen = {"b<0": 0, "b>=0": 0, "doubled": 0}
    while sum(seen[k] for k in ("b<0", "b>=0")) < 48:
        a, b, c = rng.uniform(-3, 3), rng.uniform(-3, 1.5), rng.uniform(-6, -0.1)
        alpha = cubic_report(a, b, c).alpha_q
        if alpha is None:
            continue
        params = Params.p3(a, b, c, 1.0)
        radius = int(rng.integers(1, 13))
        expected = _full_cube_search(params, alpha, radius, 48)
        assert _certified_report(params, radius, 48) == expected, (a, b, c, radius)
        seen["b<0" if b < 0 else "b>=0"] += 1
        if expected is not None and expected.box_radius > radius:
            seen["doubled"] += 1
    assert min(seen["b<0"], seen["b>=0"]) >= 10 and seen["doubled"] >= 5, seen


@pytest.mark.parametrize("abc", [(3.0, 0.5, -15.0), (3.0, 0.9, -15.0), (2.0, 0.3, -8.0)])
def test_shell_search_matches_full_cube_search_conjectured_points(abc):
    params = Params.p3(*abc, 1.0)
    expected = _full_cube_search(params, cubic_report(*abc).alpha_q, 120, 1600)
    assert expected is not None
    assert certify_drift(params, box_radius=120).report == expected


def test_verify_small_set_reference_point():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    check = verify_small_set(params, 60)
    assert check.verified
    assert check.bound == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert check.witness_probability >= check.bound - 1e-12


def test_verify_small_set_forced_first_step():
    # any clipped state moves to (0, i, j) with probability one; the witness
    # bound is attained exactly at states (0, 0, k) in the clipped set
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    check = verify_small_set(params, 30)
    assert check.witness_probability == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_verify_small_set_box_without_clipped_state():
    # a*i + b*j + c*k + lam >= 0.8 on [0, 1]^3: no clipped state, so the witness is 1
    check = verify_small_set(Params.p3(0.5, -0.1, -0.1, lam=1.0), 1)
    assert check.verified
    assert check.witness_probability == 1.0
    assert check.bound == math.exp(-2.0)


def test_verify_small_set_precondition():
    for abc in [(2.5, 0.5, -3.0), (2.5, -0.5, 0.3)]:
        with pytest.raises(ValueError, match="needs b <= 0 and c <= 0"):
            verify_small_set(Params.p3(*abc), 10)


_P4 = Params(p=4, coeffs=(0.5, -1.0, -1.0, -1.0), lam=1.0)
_REF = Params.p3(2.5, -1.0, -3.0, lam=1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: scan_violations(_P4, 0.8, 0.125, 10), "requires p=3"),
    (lambda: scan_violations(_REF, 0.8, 0.125, -1), "box_radius must be >= 0"),
    (lambda: scan_violations(_REF, 0.0, 0.125, 10), "alpha must be > 0"),
    (lambda: verify_small_set(_P4, 10), "requires p=3"),
], ids=["scan-p4", "scan-radius-minus-1", "scan-alpha-0", "small-set-p4"])
def test_scan_and_small_set_reject_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_certify_drift_end_to_end():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    cert = certify_drift(params, box_radius=60)
    assert cert.complete
    assert cert.cubic.alpha_q == pytest.approx(0.8126039857637442, abs=1e-10)
    assert cert.report.shell_clean
    assert cert.small_set.verified
    assert cert.q_max_on_octant < 0.0
    assert cert.det_identity_residual < 1e-8
    assert cert.cubic.r_at_alpha_q > 0.0 > cert.cubic.k_at_alpha_q


def test_k_global_bounds_clipped_states_off_the_box():
    # k_bound is the box maximum; off the box clipped states come close to alpha + eps
    params = Params.p3(1.87, -0.14, -7.99, lam=1.0)
    cert = certify_drift(params)
    alpha, eps = cert.cubic.alpha_q, cert.report.epsilon
    assert (eps, cert.report.box_radius) == (0.25, 200)
    assert cert.k_global == alpha + eps > cert.report.k_bound
    values = []
    for state in ((150, 0, 5000), (1000, 0, 10**8), (10**6, 0, 10**12), (10**4, 3, 10**9)):
        exact, s = _exact_drift(params, alpha, eps, state)
        assert s <= 0 and max(state) > cert.report.box_radius  # clipped, off the box
        values.append(exact)
        assert exact < Fraction(cert.k_global)
    assert values[0] > cert.report.k_bound + 0.04
    assert values[2] > cert.k_global - 1e-5


def test_certify_drift_requires_inhibition_hypotheses():
    # no alpha_q: c > 0, and a point inside the Disc = 0 band
    for abc in ((0.0, 3.0, 0.5), (3.0, 0.5, -5.020288049381336)):
        with pytest.raises(ValueError):
            certify_drift(Params.p3(*abc), box_radius=10)
    # b > 0 has an alpha_q but lies outside the theorem: evidence, never complete
    cert = certify_drift(Params.p3(3.0, 0.5, -15.0), box_radius=40)
    assert cert.report.shell_clean
    assert cert.small_set is None
    assert cert.complete is False


def test_certificates_across_the_inhibition_region():
    # 100 random triples with b < 0, c < 0, Disc < 0: the scan must find a
    # violation-free shell and the small-set bound must hold for each
    rng = np.random.default_rng(46)
    done = 0
    while done < 100:
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-5, -0.2))
        c = float(rng.uniform(-5, -0.2))
        if cubic_report(a, b, c).alpha_q is None:  # Disc < 0 off the band (c < 0 here)
            continue
        cert = certify_drift(Params.p3(a, b, c, 1.0), box_radius=100, max_radius=400)
        assert cert.complete, (a, b, c)
        assert cert.small_set.verified
        done += 1


def _exact_drift(params3, alpha, epsilon, state):
    """Delta V + eps*V and the raw intensity s at a state, in exact rational arithmetic."""
    a, b, c, lam, al, eps = map(Fraction, (*params3.abc, params3.lam, alpha, epsilon))
    i, j, k = state
    s = a * i + b * j + c * k + lam
    return (max(s, 0) + al * i) / (i + al * j + 1) - (1 - eps) * (i + al * j) / (j + al * k + 1) + eps, s


def test_block_bounds_cover_every_state_of_a_block():
    # at random alpha_q points, each block's s range, ub and ub_clip hold (with the scan's tolerance
    # to spare) for the exact values and for the values _i_terms computes, which the scan compares
    rng = np.random.default_rng(50)
    blocks = {"unclipped": 0, "clipped": 0}
    while min(blocks.values()) < 200:
        a, b, c = rng.uniform(-3, 3), rng.uniform(-3, 1.5), rng.uniform(-6, -0.1)
        alpha = cubic_report(a, b, c).alpha_q
        if alpha is None:
            continue
        params = Params.p3(a, b, c, rng.uniform(0.1, 3.0))
        epsilon, r = rng.uniform(0.01, 1.0), 200
        tol = Fraction(drift._scan_tolerance(params, alpha, r))
        # blocks anywhere, near the origin, where the denominators are small, and across the
        # clipping plane s = 0, where the scan evaluates the most states
        lo = rng.integers(0, rng.choice([8, r + 1]), size=3)
        if rng.random() < 0.4:
            k_plane = (a * lo[0] + b * lo[1] + params.lam) / -c
            lo[2] = min(max(int(k_plane) - int(rng.integers(0, 4)), 0), r)
        hi = np.minimum(lo + rng.choice([0, 1, 3], size=3), r)
        (i0, i1), (j0, j1), (k0, k1) = zip(lo.tolist(), hi.tolist())
        s_lo, s_hi, ub, ub_clip = drift._block_bounds(params, alpha, epsilon, (i0, i1), (j0, j1), (k0, k1))
        ii, jj, kk = (np.arange(x, y + 1, dtype=np.float64) for x, y in ((i0, i1), (j0, j1), (k0, k1)))
        shape = (len(ii), len(jj), len(kk))
        jk = drift._jk_terms(params, alpha, jj[:, None], kk)
        in_a, dv, v = drift._i_terms(params, alpha, ii[:, None, None], jk)
        dv += epsilon * v
        for (x, y, z), clipped, computed in zip(np.ndindex(shape), in_a.ravel(), dv.ravel()):
            state = (i0 + x, j0 + y, k0 + z)
            exact, s = _exact_drift(params, alpha, epsilon, state)
            assert Fraction(s_lo) - tol < s <= Fraction(s_hi) + tol
            bound = Fraction(ub_clip if s <= 0 else ub)
            assert exact < bound + tol and Fraction(computed) < Fraction(ub_clip if clipped else ub) + tol, state
            if lo.tolist() == hi.tolist():  # a block of one state: its bound is its value
                assert abs(bound - exact) < tol
        for kind, present in (("clipped", in_a.any()), ("unclipped", not in_a.all())):
            blocks[kind] += present


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_scan_violations_matches_slice_oracle_for_any_block_edge(block, monkeypatch):
    # one-state blocks make the bounds all but exact, so the clearing rule is tested at its edge
    monkeypatch.setattr(drift, "BLOCK", block)
    rng = np.random.default_rng(52)
    for _ in range(8):
        a, b, c = rng.uniform(-3, 3), rng.uniform(-3, 1.5), rng.uniform(-6, -0.1)
        params = Params.p3(a, b, c, rng.uniform(0.1, 3.0))
        alpha, epsilon, radius = rng.uniform(0.05, 3.0), rng.uniform(0.01, 1.0), int(rng.integers(0, 25))
        expected = _slice_scan(params, alpha, epsilon, radius)
        _assert_same_report(scan_violations(params, alpha, epsilon, radius), expected)


@pytest.mark.parametrize(
    "abc, lam, epsilon, radius",
    [((3.78, -2.88, -1.91), 1.0, 2.0**-6, 60), ((2.5, -1.0, -3.0), 1.0, 0.5, 40)],
    ids=["many-violations", "dirty-shell"],
)
def test_scan_violations_matches_slice_oracle_under_a_small_record_cap(abc, lam, epsilon, radius, monkeypatch):
    # the cap falls between two slices at one point and inside the slice i = 1 at the other:
    # truncation and (i, j, k) order must match the oracle's
    monkeypatch.setattr(drift, "MAX_RECORDED_VIOLATIONS", 5)
    monkeypatch.setitem(globals(), "MAX_RECORDED_VIOLATIONS", 5)
    params = Params.p3(*abc, lam)
    alpha = cubic_report(*abc).alpha_q
    expected = _slice_scan(params, alpha, epsilon, radius)
    assert len(expected.violation_set) == 5 < expected.violations_total
    _assert_same_report(scan_violations(params, alpha, epsilon, radius), expected)


@pytest.mark.parametrize("radius", [0, 1, 7, 30, 61])
def test_scan_violations_matches_slice_oracle_where_k_comes_from_a_clipped_state(radius):
    # K grows past every violation's value: clipped blocks are cleared only against the K seen so far
    params = Params.p3(1.83, -0.58, -2.96, 0.32)
    alpha = cubic_report(1.83, -0.58, -2.96).alpha_q
    epsilon = 2.0**-7
    expected = _slice_scan(params, alpha, epsilon, radius)
    _assert_same_report(scan_violations(params, alpha, epsilon, radius), expected)
    values = [float(_exact_drift(params, alpha, epsilon, x)[0]) for x in expected.violation_set]
    assert expected.violations_total == len(values)
    if radius >= 30:
        assert expected.k_bound > max(values) + 0.05


def test_scan_violations_counts_the_origin_at_every_point():
    # lam > 0, so the origin always violates with the value lam + eps that seeds the scan's K:
    # no scan counts nothing, and K is never below the origin's value
    rng = np.random.default_rng(51)
    for _ in range(20):
        a, b, c = rng.uniform(-3, 3), rng.uniform(-3, 1.5), rng.uniform(-6, -0.1)
        params = Params.p3(a, b, c, rng.uniform(0.01, 3.0))
        alpha, epsilon = rng.uniform(0.05, 3.0), rng.uniform(0.01, 1.0)
        report = scan_violations(params, alpha, epsilon, 0)
        _assert_same_report(report, _slice_scan(params, alpha, epsilon, 0))
        assert report.violation_set == ((0, 0, 0),) and report.k_bound == params.lam + epsilon
        assert scan_violations(params, alpha, epsilon, 9).k_bound >= report.k_bound
