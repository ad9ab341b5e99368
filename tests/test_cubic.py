import math
from dataclasses import fields
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from dhawkes.cubic import (
    BOUNDARY_BAND,
    CubicReport,
    _multiple_root_candidates,
    b_star,
    c_bounds,
    cubic_report,
    cubic_reports,
    det_m_alpha_identity_check,
    discriminant,
    k_of_alpha,
    m_alpha,
    p_eval,
    q_eval,
    r_of_alpha,
)


def test_discriminant_reference_point():
    assert discriminant(2.5, -1.0, -3.0) == pytest.approx(-188.25, abs=1e-9)


def test_discriminant_c_zero_factorization():
    # Disc(a, b, 0) = (a^2 + 4b) * b^2
    assert discriminant(2.0, -1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    for a, b in [(1.3, -0.7), (-2.0, 0.5), (3.0, -4.0)]:
        assert discriminant(a, b, 0.0) == pytest.approx((a * a + 4 * b) * b * b, rel=1e-12)


def test_discriminant_direct_value():
    assert discriminant(3.0, 0.0, -15.0) == pytest.approx(-4455.0, abs=1e-9)


def test_c_bounds_none_when_always_negative():
    assert c_bounds(0.0, -1.0) is None


def test_c_bounds_symmetric_case():
    cm, cp = c_bounds(0.0, 3.0)
    assert cm == pytest.approx(-2.0, abs=1e-12)
    assert cp == pytest.approx(2.0, abs=1e-12)
    # the discriminant sign really flips at the endpoints
    assert discriminant(0.0, 3.0, -2.001) < 0 < discriminant(0.0, 3.0, -1.999)
    assert discriminant(0.0, 3.0, 1.999) > 0 > discriminant(0.0, 3.0, 2.001)


def test_c_bounds_straddle_zero():
    cm, cp = c_bounds(2.0, 1.0)  # a^2 + 4b = 8 > 0
    assert cm < 0.0 < cp


def test_c_bounds_ordering_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = rng.uniform(-5, 5, size=2)
        bounds = c_bounds(a, b)
        if bounds is not None:
            assert bounds[0] <= bounds[1]


def test_real_roots_triple_zero():
    assert cubic_report(0.0, 0.0, 0.0).real_roots == pytest.approx((0.0, 0.0, 0.0), abs=1e-10)


def test_real_roots_unique_when_disc_negative():
    rep = cubic_report(2.5, -1.0, -3.0)
    assert len(rep.real_roots) == 1
    # the single real root of P is the negated positive root of the mirror cubic
    assert rep.real_roots[0] == pytest.approx(-rep.alpha_q, abs=1e-10)


def test_real_roots_cube():
    assert cubic_report(0.0, 0.0, 1.0).real_roots == pytest.approx((1.0,), abs=1e-12)


def test_real_roots_residuals_random():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a, b, c = rng.uniform(-5, 5, size=3)
        for r in cubic_report(a, b, c).real_roots:
            assert abs(p_eval(a, b, c, r)) < 1e-8 * (1.0 + abs(r) ** 3)


def test_root_count_matches_disc_sign():
    rng = np.random.default_rng(6)
    for _ in range(500):
        a, b, c = rng.uniform(-5, 5, size=3)
        rep = cubic_report(a, b, c)
        if rep.on_boundary:
            continue
        n = len(rep.real_roots)
        if rep.disc < 0:
            assert n == 1
        else:
            assert n == 3


def test_alpha_q_reference_point():
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    assert 0.80 < aq < 0.82
    assert abs(q_eval(2.5, -1.0, -3.0, aq)) < 1e-10


def test_alpha_q_exact_cube():
    assert cubic_report(0.0, 0.0, -8.0).alpha_q == pytest.approx(2.0, abs=1e-12)


def test_alpha_q_vanishes_with_c():
    assert cubic_report(1.0, -1.0, -1e-8).alpha_q < 1e-6


def _random_alpha_q_points(rng, n):
    """n random points with an alpha_q: |a| up to 30, and a third with c -> 0-.

    A candidate draws a, b, then c, tiny when the number of points kept so
    far is a multiple of 3, and is kept if it has an alpha_q.  Candidates
    are drawn in blocks, and each block's two possible c columns are judged
    by one cubic_reports call each; the kept points, and where rng is left,
    are those of drawing and judging one candidate at a time.
    """
    start = rng.bit_generator.state
    points: list[tuple[float, float, float]] = []
    drawn = 0
    while len(points) < n:
        u = rng.random((2 * (n - len(points)) + 16, 3))  # uniform(lo, hi) is lo + (hi - lo) * u
        a, b = (-30.0 + 60.0 * u[:, 0]).tolist(), (-10.0 + 20.0 * u[:, 1]).tolist()
        tiny = [-(10.0**x) for x in (-12.0 + 9.0 * u[:, 2]).tolist()]
        wide = (-50.0 + 50.0 * u[:, 2]).tolist()
        keep_tiny, keep_wide = ((~np.isnan(cubic_reports(a, b, c).alpha_q)).tolist() for c in (tiny, wide))
        for i in range(len(u)):
            drawn += 1
            c, keep = (tiny, keep_tiny) if len(points) % 3 == 0 else (wide, keep_wide)
            if keep[i]:
                points.append((a[i], b[i], c[i]))
                if len(points) == n:
                    break
    rng.bit_generator.state = start
    rng.random((drawn, 3))
    return points


def test_alpha_q_matches_brentq_oracle():
    # an independent solver: sign-change bracketing of Q itself on [0, Cauchy bound]
    rng = np.random.default_rng(17)
    points = _random_alpha_q_points(rng, 1200)
    alpha_q = cubic_reports(*zip(*points)).alpha_q.tolist()
    for (a, b, c), aq in zip(points, alpha_q):
        hi = 1.0 + abs(a) + abs(b) + abs(c)
        oracle = brentq(lambda x: q_eval(a, b, c, x), 0.0, hi, xtol=1e-300, rtol=8.9e-16)
        assert abs(aq - oracle) <= 1e-14 * oracle, (a, b, c, aq, oracle)


def test_alpha_q_is_minus_the_real_root():
    rng = np.random.default_rng(18)
    points = _random_alpha_q_points(rng, 300) + [
        tuple(x) for x in rng.uniform(-5, 5, size=(300, 3))
    ]
    seen = 0
    for a, b, c in points:
        rep = cubic_report(a, b, c)
        if rep.alpha_q is None:
            continue
        assert rep.alpha_q == -rep.real_roots[0]
        seen += 1
    assert seen >= 300


def test_alpha_q_preconditions():
    assert cubic_report(0.0, 3.0, -1.0).alpha_q is None  # Disc > 0
    assert cubic_report(2.5, -1.0, 3.0).alpha_q is None  # c > 0


def test_r_of_alpha_values():
    assert r_of_alpha(0.0, 0.0, 0.0) == 0.0
    assert r_of_alpha(0.0, -1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    assert r_of_alpha(2.5, -1.0, aq) > 0.0


def test_k_of_alpha_values():
    assert k_of_alpha(1.5, 2.5, -0.75, 0.0) == -0.75
    assert k_of_alpha(0.0, 0.0, -1.0, 1.0) == pytest.approx(-1.5, abs=1e-15)
    aq = cubic_report(2.5, -1.0, -3.0).alpha_q
    assert k_of_alpha(2.5, -1.0, -3.0, aq) < 0.0


def test_spectral_radius_examples():
    assert cubic_report(0.0, 0.0, 0.0).spectral_radius == 0.0
    assert cubic_report(0.0, 0.0, 1.0).spectral_radius == pytest.approx(1.0, abs=1e-10)
    # stable linear recurrence: coefficients sum to 0.9 < 1
    rho = cubic_report(0.3, 0.3, 0.3).spectral_radius
    assert rho < 1.0
    assert rho == pytest.approx(0.9491145586273801, abs=1e-8)


def test_spectral_radius_matches_companion_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b, c = rng.uniform(-4, 4, size=3)
        oracle = max(abs(np.roots([1.0, -a, -b, -c])))
        assert cubic_report(a, b, c).spectral_radius == pytest.approx(oracle, abs=1e-8)


def test_b_star_branches():
    assert b_star(-3.0) == 1.0
    assert b_star(1.0) == 0.0
    assert b_star(2.0) == -1.0
    assert b_star(1.9999999) == pytest.approx(b_star(2.0), abs=1e-6)
    assert b_star(4.0) == -4.0


def test_det_identity_at_origin():
    assert det_m_alpha_identity_check(0.0, 0.0, 0.0, 0.0) == 0.0


def test_det_identity_random():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b, c, alpha = rng.uniform(-2, 2, size=4)
        q = q_eval(a, b, c, alpha)
        assert det_m_alpha_identity_check(a, b, c, alpha) < 1e-8 * (1.0 + q * q)


def test_det_vanishes_at_alpha_q():
    for a, b, c in [(2.5, -1.0, -3.0), (3.0, -2.0, -10.0), (0.5, -0.5, -0.25)]:
        aq = cubic_report(a, b, c).alpha_q
        det = float(np.linalg.det(m_alpha(a, b, c, aq)))
        assert abs(det) < 1e-8


def test_mirror_identity_random():
    rng = np.random.default_rng(14)
    for _ in range(300):
        a, b, c, x = rng.uniform(-5, 5, size=4)
        assert q_eval(a, b, c, x) == pytest.approx(-p_eval(a, b, c, -x), abs=1e-12 * (1 + abs(x) ** 3))


def test_sign_partition_small_sample():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 2000:
        a, b, c = rng.uniform(-5, 5, size=3)
        if a * a + 3 * b < 0 or cubic_report(a, b, c).on_boundary:
            continue
        cm, cp = c_bounds(a, b)
        outside = c < cm or c > cp
        assert (discriminant(a, b, c) < 0) == outside
        checked += 1


def test_cubic_report_fields():
    rep = cubic_report(2.5, -1.0, -3.0)
    assert rep.disc == pytest.approx(-188.25, abs=1e-9)
    assert rep.alpha_q is not None and rep.r_at_alpha_q > 0 > rep.k_at_alpha_q
    assert len(rep.real_roots) == 1
    rep2 = cubic_report(0.0, 3.0, 0.5)  # Disc > 0
    assert rep2.alpha_q is None
    assert len(rep2.real_roots) == 3


@pytest.mark.parametrize(
    "a, b, c",
    [(0.0, 0.0, 0.0), (0.0, 3.0, -2.0), (5.0, -7.0, 3.0)]  # triple root 0; double roots 1, 1
    + [tuple(x) for x in np.random.default_rng(16).uniform(-5, 5, size=(40, 3))],
)
def test_cubic_report_matches_public_functions(a, b, c):
    rep = cubic_report(a, b, c)
    assert rep.disc == discriminant(a, b, c)


def test_band_points_are_on_boundary():
    assert cubic_report(0.0, 0.0, 0.0).on_boundary
    rep = cubic_report(0.0, 3.0, -2.0)  # P = (X - 1)^2 (X + 2)
    assert rep.on_boundary
    assert rep.real_roots == pytest.approx((-2.0, 1.0, 1.0), abs=1e-12)
    assert not cubic_report(2.5, -1.0, -3.0).on_boundary


@pytest.mark.parametrize("a, b, c", [(1e300, 0.0, 0.0), (1e120, -1.0, -1.0), (1.0, 1e200, 1.0)])
def test_cubic_report_overflow_raises_value_error(a, b, c):
    with pytest.raises(ValueError, match="overflows"):
        cubic_report(a, b, c)


def test_discriminant_overflow_raises_value_error():
    for a, b, c in [(1e300, 0.0, 0.0), (1e120, -1.0, -1.0), (1.0, 1e200, 1.0)]:
        with pytest.raises(ValueError, match="Disc overflows"):
            discriminant(a, b, c)
    # Disc itself is finite here; only the band scale a^4 overflows
    assert discriminant(1e80, -1.0, -3.0) == pytest.approx(1.2e241, rel=1e-12)
    with pytest.raises(ValueError, match="band scale"):
        cubic_report(1e80, -1.0, -3.0)


# The per-point solve that cubic_reports batches, kept as its oracle: np.roots,
# then Newton steps in the arithmetic of the roots' own types (3 from each
# eigenvalue, 5 in Python complex from the real part).  Where P has a complex
# pair, the radius comes from the real root r by Vieta (r |z|^2 = c), with r
# polished 3 steps in Python floats.
def _oracle_polish(a, b, c, x, steps):
    for _ in range(steps):
        dp = (3.0 * x - 2.0 * a) * x - b
        if abs(dp) < 1e-300:
            break
        x = x - (((x - a) * x - b) * x - c) / dp
    return x


def _oracle_report(a, b, c):
    try:
        disc = a * a * b * b + 4.0 * b**3 - 4.0 * a**3 * c - 18.0 * a * b * c - 27.0 * c * c
    except OverflowError:
        disc = math.inf
    if not math.isfinite(disc):
        raise ValueError(f"Disc overflows at (a, b, c) = ({a}, {b}, {c})")
    try:
        scale = max(1.0, a**4 + b**3 + c**2)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"the band scale of Disc overflows at (a, b, c) = ({a}, {b}, {c})")
    on_band = abs(disc) <= BOUNDARY_BAND * scale
    roots = _multiple_root_candidates(a, b, c) if on_band else None
    solved = roots is None
    if solved:
        eigenvalues = np.roots([1.0, -a, -b, -c])
        roots = np.array([_oracle_polish(a, b, c, z, 3) for z in eigenvalues])
    radius = float(max(abs(z) for z in roots))
    if solved and (on_band or disc < 0.0):  # one real root and a complex pair
        r = _oracle_polish(a, b, c, float(min(eigenvalues, key=lambda z: abs(z.imag)).real), 3)
        radius = max(abs(r), math.sqrt(c / r) if r else math.sqrt(-b))
    if on_band:
        real = sorted(float(z.real) for z in roots)
    elif disc < 0.0:
        z = min(roots, key=lambda r: abs(r.imag))
        real = [float(_oracle_polish(a, b, c, complex(z.real, 0.0), 5).real)]
    else:
        real = sorted(float(_oracle_polish(a, b, c, complex(z.real, 0.0), 5).real) for z in roots)
    aq = rq = kq = None
    if disc < 0.0 and c < 0.0 and not on_band:
        aq = -real[0]
        rq = r_of_alpha(a, b, aq)
        kq = k_of_alpha(a, b, c, aq)
    return (a, b, c, disc, on_band, tuple(real), radius, aq, rq, kq)


def _near_band_points(rng, n):
    """P = (X - d)^2 (X - s) for d, s on [-3, 3], with c scaled by 1 +- 10^-u for u on [2, 9]."""
    d, s, u = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n), rng.uniform(2, 9, n)
    c = d * d * s * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0**-u)
    return [(float(x), float(y), float(z)) for x, y, z in zip(2 * d + s, -d * (d + 2 * s), c)]


_LATTICE = [-3.0 + i * 0.1 for i in range(51)]  # as grid_values(-3, 2, 0.1) spells it

_ORACLE_SETS = {
    "random": [tuple(float(x) for x in p) for p in np.random.default_rng(21).uniform(-5, 5, size=(10_000, 3))],
    "lattice": [(a, b, c) for a in (0.5, 1.0, 2.0, 3.0) for b in _LATTICE for c in _LATTICE]
    + [(a, b, -0.0) for a in (0.5, 1.0, 2.0, 3.0) for b in _LATTICE],
    # (0, -1e-8, 0): on the band with a^2 + 3b < 0, so no multiple root is rebuilt and P is solved
    "band": [(0.0, 3.0, -2.0), (0.0, 0.0, 0.0), (3.0, 0.5, -5.020288049381336), (0.0, -1e-8, 0.0)],
    "near-band": _near_band_points(np.random.default_rng(22), 10_000),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_SETS))
def test_cubic_reports_bitwise_equal_to_per_point_solve(name):
    # repr tells -0.0 from 0.0 and a Python float from a numpy scalar
    points = _ORACLE_SETS[name]
    reports = cubic_reports(*(np.array(col) for col in zip(*points)))
    for i, point in enumerate(points):
        got = tuple(getattr(reports[i], f.name) for f in fields(CubicReport))
        assert repr(got) == repr(_oracle_report(*point)), point
    if name == "band":
        assert all(reports[i].on_boundary for i in range(len(points)))


@pytest.mark.parametrize("a, b, c", [(1e300, 0.0, 0.0), (1e120, -1.0, -1.0), (1.0, 1e200, 1.0), (1e80, -1.0, -3.0)])
def test_cubic_reports_overflow_matches_per_point_solve(a, b, c):
    with pytest.raises(ValueError) as oracle:
        _oracle_report(a, b, c)
    with pytest.raises(ValueError) as batch:
        cubic_reports([0.5, a], [-1.0, b], [-3.0, c])  # the first point is fine
    assert str(batch.value) == str(oracle.value)


def _exact_radius(a, b, c, r):
    """max(|r|, |z|) at 50 digits: Newton on the real root from r, then |z| = sqrt(c / r) by Vieta."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c, x = (Decimal(v) for v in (a, b, c, r))
        step = 1
        while step and abs(step) > abs(x) * Decimal("1e-48"):
            step = (((x - a) * x - b) * x - c) / ((3 * x - 2 * a) * x - b)
            x -= step
        return max(abs(x), (c / x).sqrt() if x else (-b).sqrt())


@pytest.mark.parametrize("name", ["lattice", "random"])
def test_complex_pair_radius_within_4_ulps_of_exact(name):
    points = _ORACLE_SETS[name]
    reports = cubic_reports(*(np.array(col) for col in zip(*points)))
    checked = 0
    for i, (a, b, c) in enumerate(points):
        rep = reports[i]
        if rep.disc < 0.0 and not rep.on_boundary:
            exact = _exact_radius(a, b, c, rep.real_roots[0])
            assert abs(Decimal(rep.spectral_radius) - exact) <= 4 * Decimal(math.ulp(float(exact))), (a, b, c)
            checked += 1
    assert checked > 6000
