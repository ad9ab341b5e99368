"""Acceptance suite: every shipped behavior, at its stated tolerance.

Each test prints one pass/fail line (visible with -s; pytest -v shows the
same per-criterion outcome).  Monte Carlo criteria use fixed master
seeds, so outcomes are bit-reproducible.
"""

import math

import numpy as np
import pytest

from dhawkes.classify import Verdict, classify
from dhawkes.cubic import cubic_report, cubic_reports, det_m_alpha_identity_check, discriminant
from dhawkes.drift import (
    _i_terms,
    _jk_terms,
    certify_drift,
    linear_drift_coeffs,
    linear_drift_scan,
    q_form_negativity_check,
    verify_small_set,
)
from dhawkes.experiments import SweepSpec, derive_point_seed, exploding_gallery, run_excursions, sweep_explosion, tau_cdf_experiment
from dhawkes.model import Params, intensity, transition_pmf
from dhawkes.simulate import ExcursionKind, SimConfig, run_trajectory
from dhawkes.stats import clopper_pearson

MASTER_SEED = 2024
JOBS = None  # all cores


def report(number: int, text: str, ok: bool = True) -> None:
    print(f"acceptance {number:02d}: {text}: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# shared Monte Carlo data (computed once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig3_rows():
    spec = SweepSpec(
        fixed={"a": 3.0, "c": -15.0},
        sweep_name="b",
        values=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
        lam=1.0,
        replicas=100_000,
        sim=SimConfig(horizon_n=10_000, master_seed=MASTER_SEED),
        alpha=0.01,
        jobs=JOBS,
    )
    return {row.value: row for row in sweep_explosion(spec)}


@pytest.fixture(scope="module")
def tau_spec():
    return SweepSpec(
        fixed={"a": 3.0, "c": -15.0},
        sweep_name="b",
        values=(0.9, 4.0),
        lam=1.0,
        replicas=100_000,
        sim=SimConfig(horizon_n=10_000, master_seed=MASTER_SEED),
        alpha=0.01,
        jobs=JOBS,
    )


@pytest.fixture(scope="module")
def tau_curves(tau_spec):
    return tau_cdf_experiment(tau_spec)


@pytest.fixture(scope="module")
def fig7_rows():
    spec = SweepSpec(
        fixed={"b": 8.0, "c": -121.0},
        sweep_name="a",
        values=(0.5, 1.0, 2.0, 4.0, 8.0),
        lam=1.0,
        replicas=10_000,
        sim=SimConfig(horizon_n=10_000, master_seed=MASTER_SEED),
        alpha=0.01,
        jobs=JOBS,
    )
    return sweep_explosion(spec)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_discriminant_exactness():
    assert discriminant(2.5, -1.0, -3.0) == pytest.approx(-188.25, abs=1e-9)
    report(1, "Disc(2.5,-1,-3) = -188.25 within 1e-9")


def test_criterion_02_classifier_fixtures():
    expected = {
        (2.5, -1.0, -3.0): Verdict.ERGODIC_DISC_NEGATIVE,
        (-1.0, -1.0, 1.1): Verdict.TRANSIENT_AXES,
        (-1.0, 1.1, 0.5): Verdict.TRANSIENT_OSCILLATING,
        (3.0, 0.5, -15.0): Verdict.CONJECTURED_ERGODIC,
    }
    for (a, b, c), verdict in expected.items():
        got = classify(Params.p3(a, b, c, 1.0)).verdict
        assert got is verdict, f"({a},{b},{c}): expected {verdict}, got {got}"
    report(2, "four fixture parameter sets classified exactly")


def test_criterion_03_phase_transition_at_b_equal_one(fig3_rows):
    for b in (0.0, 0.5, 1.0):
        assert fig3_rows[b].exploded == 0, f"b={b}: expected zero explosions"
    for b in (2.0, 3.0, 4.0):
        assert fig3_rows[b].exploded > 0, f"b={b}: expected explosions"
    p2, p3, p4 = (fig3_rows[b].proportion for b in (2.0, 3.0, 4.0))
    assert p2 <= p3 <= p4, f"proportions not nondecreasing: {p2} {p3} {p4}"
    assert fig3_rows[4.0].interval.lower > 0.0
    report(3, "explosion-proportion transition at b=1 (N=1e5 per point)")


def test_criterion_04_decrease_in_a(fig7_rows):
    """Sweep in the short-lag weight a at b=8, c=-121.

    Every point is TransientOscillating (b > 1, ab + c < 0), so escape
    from 0 has positive probability throughout; the claim is that it
    falls as a grows.  At a=8 nearly every excursion rides an oscillatory
    burst that peaks around 1e53 and then returns: such bursts cross the
    explosion threshold but are not escapes, and the simulator counts them
    as returned.  The true escape rate at a=8 is ~3e-5 (12 of 4e5
    excursions at seed 777), so N=1e4 shows an escape or two about a
    quarter of the time; the a=8 check is therefore the strict decrease
    from a=4, by disjoint intervals, not an observed zero.
    """
    by_a = {row.value: row for row in fig7_rows}
    failures = []
    if not by_a[0.5].exploded > 0:
        failures.append("a=0.5: expected strictly positive explosion proportion")
    values = [0.5, 1.0, 2.0, 4.0, 8.0]
    inversions = []
    for lo, hi in zip(values, values[1:]):
        if by_a[hi].proportion > by_a[lo].proportion:
            overlap = by_a[hi].interval.lower <= by_a[lo].interval.upper
            inversions.append((lo, hi, overlap))
    real_inversions = [(lo, hi) for lo, hi, overlap in inversions if not overlap]
    if len([i for i in inversions if i[2]]) > 1 or real_inversions:
        failures.append(
            f"trend not nonincreasing within CI overlap: inversions {inversions}"
        )
    if not by_a[8.0].interval.upper < by_a[4.0].interval.lower:
        failures.append(
            f"a=8: interval {by_a[8.0].interval} does not lie below a=4's {by_a[4.0].interval}"
        )
    report(4, "explosion proportion decreasing in a (N=1e4 per point)", ok=not failures)
    assert not failures, "\n".join(failures)


def test_criterion_05_ecdf_atom_and_b09_maximum(tau_spec, tau_curves):
    horizon = tau_spec.sim.horizon_n
    # b = 4: atom at horizon+1 with mass exactly the exploded proportion
    curve4 = tau_curves[4.0]
    assert curve4[-1][0] == horizon + 1, "expected a sentinel atom at horizon+1"
    atom_mass = curve4[-1][1] - curve4[-2][1]
    params4 = tau_spec.params_at(4.0)
    cfg4 = SimConfig(
        horizon_n=horizon,
        master_seed=derive_point_seed(tau_spec.sim.master_seed, 1),
    )
    outcomes = run_excursions(params4, cfg4, tau_spec.replicas, jobs=JOBS)
    exploded = sum(o.kind is ExcursionKind.EXPLODED for o in outcomes)
    assert atom_mass == pytest.approx(exploded / tau_spec.replicas, abs=1e-12)
    assert exploded > 0
    # b = 0.9: no excursion reaches the horizon at all
    max_tau = tau_curves[0.9][-1][0]
    assert max_tau < 10_000, f"b=0.9: max tau {max_tau} >= 1e4"
    report(5, "sentinel atom matches exploded proportion; b=0.9 never hits 1e4")


def test_criterion_06_alternation_pattern():
    params = Params.p3(3.0, 1.1, -15.0, lam=1.0)
    cfg = SimConfig(horizon_n=10_000, master_seed=MASTER_SEED)
    result = exploding_gallery(params, cfg, want=5, prefix_len=30)
    assert not result.partial, "failed to collect 5 exploding excursions"
    for entry in result.entries:
        assert entry.alternation_onset is not None, f"no alternation: {entry.prefix}"
        assert entry.alternation_onset <= 30
    report(6, "first 5 exploding excursions alternate with onset <= 30")


def test_criterion_07_drift_verification_inhibition():
    params = Params.p3(2.5, -1.0, -3.0, lam=1.0)
    a, b, c = params.abc
    rep = cubic_report(a, b, c)
    assert det_m_alpha_identity_check(a, b, c, rep.alpha_q) < 1e-8
    cert = certify_drift(params, box_radius=200)
    assert cert.cubic.r_at_alpha_q > 0.0
    assert cert.cubic.k_at_alpha_q < 0.0
    qmax = q_form_negativity_check(rep)  # 210 octant directions
    assert qmax < 0.0
    assert cert.report.box_radius == 200
    assert cert.report.shell_clean
    assert cert.report.violations_total == len(cert.report.violation_set)
    small = verify_small_set(params, 200)
    assert small.verified
    assert small.bound == pytest.approx(math.exp(-2.0 * params.lam), abs=1e-15)
    report(7, "ratio-Lyapunov certificate at (2.5,-1,-3): all premises verified")


def test_criterion_08_drift_verification_linear_weights():
    rng = np.random.default_rng(8)
    for trial in range(100):
        p = trial % 5 + 1
        eta = float(rng.uniform(0.4, 0.9))
        coeffs = np.where(
            rng.random(p) < 0.5, -rng.uniform(0.0, 5.0, p), 0.0
        )
        positive_total = 1.0 - eta
        split = rng.dirichlet(np.ones(p)) * positive_total
        mask = rng.random(p) < 0.7
        coeffs = np.where(mask, split, coeffs)
        params = Params(p=p, coeffs=tuple(float(x) for x in coeffs), lam=1.0)
        plus = sum(max(x, 0.0) for x in params.coeffs)
        assert plus < 1.0
        eps = (1.0 - plus) / (2 * p)
        assert all(cb < 0.0 for cb in linear_drift_coeffs(params, eps))
        rep = linear_drift_scan(params, eps, 100)
        assert rep.shell_clean, f"dirty shell for {params}"
        assert rep.violations_total == len(rep.violation_set)
    report(8, "linear-weight drift negative at eps=eta/2p for 100 random vectors")


def test_criterion_09_property_suites():
    rng = np.random.default_rng(9)

    # sign partition of the discriminant in c, 1e5 triples
    checked = 0
    while checked < 100_000:
        a, b, c = rng.uniform(-5, 5, size=3)
        if a * a + 3 * b < 0:
            continue
        d = discriminant(a, b, c)
        if abs(d) < 1e-9:
            continue
        from dhawkes.cubic import c_bounds

        cm, cp = c_bounds(a, b)
        assert (d < 0) == (c < cm or c > cp), (a, b, c)
        checked += 1

    # ab + c < 0 whenever a >= 0, c < 0, Disc < 0: 1e4 triples
    checked = 0
    while checked < 10_000:
        a = rng.uniform(0, 5)
        b = rng.uniform(-5, 5)
        c = rng.uniform(-5, 0)
        if c == 0.0 or not discriminant(a, b, c) < 0:
            continue
        assert a * b + c < 0, (a, b, c)
        checked += 1

    # R(alpha_Q) > 0 and K(alpha_Q) < 0 under the inhibition hypotheses: 1e4
    from dhawkes.cubic import k_of_alpha, r_of_alpha

    points = []
    while len(points) < 10_000:
        a = rng.uniform(-5, 5)
        b = rng.uniform(-5, 0)
        c = rng.uniform(-5, 0)
        if b == 0.0 or c == 0.0 or not discriminant(a, b, c) < -1e-9:
            continue
        points.append((a, b, c))
    alpha_q = cubic_reports(*zip(*points)).alpha_q.tolist()
    for (a, b, c), aq in zip(points, alpha_q):
        assert r_of_alpha(a, b, aq) > 0.0, (a, b, c)
        assert k_of_alpha(a, b, c, aq) < 0.0, (a, b, c)

    # transition kernel normalization, 1e3 random states, 1e-9
    for _ in range(1_000):
        coeffs = tuple(rng.uniform(-2, 2, size=3))
        params = Params(p=3, coeffs=coeffs, lam=float(rng.uniform(0.1, 5.0)))
        state = tuple(int(v) for v in rng.integers(0, 40, size=3))
        s = intensity(params, state)
        if s == 0.0:
            assert transition_pmf(params, state, 0) == 1.0
            continue
        top = math.ceil(s + 20.0 * math.sqrt(s) + 50.0)
        total = sum(transition_pmf(params, state, ell) for ell in range(top + 1))
        assert abs(total - 1.0) < 1e-9, (params, state)

    # the certificates' closed-form drift (_i_terms) vs truncated expectation, 1e3 cases, 1e-7
    for _ in range(1_000):
        coeffs = tuple(rng.uniform(-3, 3, size=3))
        params = Params(p=3, coeffs=coeffs, lam=float(rng.uniform(0.1, 3.0)))
        alpha = float(rng.uniform(0.1, 3.0))
        state = tuple(int(v) for v in rng.integers(0, 20, size=3))
        i, j, k = state
        s = intensity(params, state)
        top = int(math.ceil(s + 20.0 * math.sqrt(s) + 60.0))
        _, dv, v = _i_terms(params, alpha, i, _jk_terms(params, alpha, j, k))
        v_next = _i_terms(params, alpha, np.arange(top + 1), _jk_terms(params, alpha, i, j))[2]  # V(ell, i, j)
        oracle = sum(transition_pmf(params, state, ell) * v_next[ell] for ell in range(top + 1)) - v
        assert abs(dv - oracle) < 1e-7, (params, state)

    report(9, "oracle property suites (sign partition, ab+c, R/K, kernel, drift)")


def test_criterion_10_clopper_pearson_exact_coverage():
    from scipy.stats import binom

    n, alpha = 20, 0.01
    intervals = [clopper_pearson(x, n, alpha) for x in range(n + 1)]
    for p in np.arange(0.05, 0.951, 0.05):
        coverage = sum(
            binom.pmf(x, n, p) for x in range(n + 1) if intervals[x].contains(p)
        )
        assert coverage >= 1.0 - alpha, f"coverage {coverage} at p={p}"
    ci = clopper_pearson(0, 100, 0.01)
    assert ci.upper == pytest.approx(1.0 - 0.005 ** 0.01, abs=1e-12)
    report(10, "exact coverage >= 0.99 at N=20 and closed-form zero-success bound")


def test_criterion_11_linear_case_dichotomy():
    # subcritical: long-run mean near lam / (1 - 0.9)
    params = Params(p=2, coeffs=(0.45, 0.45), lam=1.0)
    cfg = SimConfig(master_seed=MASTER_SEED)
    traj = run_trajectory(params, cfg, 200_000, 0)
    mean = float(np.mean([s[0] for s in traj.states]))
    target = params.lam / (1.0 - 0.9)
    assert abs(mean - target) / target < 0.10, f"mean {mean} vs {target}"

    # supercritical: 0.6 + 0.6 > 1 grows exponentially
    params = Params(p=2, coeffs=(0.6, 0.6), lam=1.0)
    cfg = SimConfig(master_seed=MASTER_SEED, explosion_threshold_m=10**6)
    grown = sum(
        run_trajectory(params, cfg, 200, rep).crossed for rep in range(100)
    )
    assert grown >= 95, f"only {grown}/100 runs crossed 1e6"
    report(11, "memory-2 linear dichotomy: stationary mean and exponential growth")
