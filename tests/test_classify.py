import importlib
import math
import warnings

import numpy as np
import pytest

from dhawkes.classify import TOL, Verdict, classify, classify_p3, grid_count, grid_values, growth_rule
from dhawkes.cubic import b_star, c_bounds, discriminant
from dhawkes.model import Params


def v(a, b, c, lam=1.0) -> Verdict:
    return classify(Params.p3(a, b, c, lam)).verdict


def test_positive_part_sum_rule():
    assert v(0.5, 0.3, 0.1) is Verdict.ERGODIC_GENERAL_P


def test_fixture_parameter_sets():
    assert v(2.5, -1.0, -3.0) is Verdict.ERGODIC_DISC_NEGATIVE
    assert v(-1.0, -1.0, 1.1) is Verdict.TRANSIENT_AXES
    assert v(-1.0, 1.1, 0.5) is Verdict.TRANSIENT_OSCILLATING
    assert v(3.0, 0.5, -15.0) is Verdict.CONJECTURED_ERGODIC


def test_transient_linear_any_p():
    label = classify(Params(p=4, coeffs=(0.5, 0.3, 0.3, 0.2), lam=1.0))
    assert label.verdict is Verdict.TRANSIENT_LINEAR
    label2 = classify(Params(p=2, coeffs=(0.4, 0.4), lam=1.0))
    assert label2.verdict is Verdict.ERGODIC_GENERAL_P


def test_general_p_rule_matches_p3_positive_parts():
    rng = np.random.default_rng(31)
    for _ in range(200):
        a, b, c = rng.uniform(-3, 3, size=3)
        sum_plus = max(a, 0) + max(b, 0) + max(c, 0)
        if abs(sum_plus - 1.0) < 1e-9:
            continue
        fired = v(a, b, c) is Verdict.ERGODIC_GENERAL_P
        assert fired == (sum_plus < 1.0)


def test_priority_general_p_beats_disc_rule():
    # b, c < 0 with Disc < 0 but positive parts below one: rule 1 wins
    label = classify(Params.p3(0.5, -1.0, -3.0))
    assert label.verdict is Verdict.ERGODIC_GENERAL_P
    assert "positive parts" in label.rule


def test_oscillating_requires_ab_plus_c_negative():
    # b > 1 but ab + c > 0: the period-2 rule must not fire
    label = classify(Params.p3(1.0, 1.5, 0.5))
    assert label.verdict is not Verdict.TRANSIENT_OSCILLATING


def test_c_zero_reduces_to_memory2_frontier():
    rng = np.random.default_rng(32)
    for _ in range(300):
        a = rng.uniform(-3, 4)
        b = rng.uniform(-4, 3)
        bs = b_star(a)
        if abs(b - bs) < 1e-6 or max(a, 0) + max(b, 0) < 1.0 or (a >= 0 and b >= 0):
            continue
        verdict = v(a, b, 0.0)
        if b < bs:
            assert verdict in (Verdict.ERGODIC_P2_REGION, Verdict.ERGODIC_GENERAL_P), (a, b)
        else:
            assert verdict in (
                Verdict.TRANSIENT_P2_REGION,
                Verdict.TRANSIENT_LINEAR,
                Verdict.TRANSIENT_OSCILLATING,
            ), (a, b)


def test_both_excitations_above_one_are_transient():
    # a > 1, b > 1, c < 0 with Disc < 0 forces ab + c < 0, so the
    # period-2 transience rule must always fire there
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 300:
        a = rng.uniform(1.0, 5.0)
        b = rng.uniform(1.0, 5.0)
        c = rng.uniform(-30.0, 0.0)
        if c == 0.0 or not discriminant(a, b, c) < -1e-6:
            continue
        assert v(a, b, c) is Verdict.TRANSIENT_OSCILLATING, (a, b, c)
        checked += 1


def test_boundary_band_on_disc_zero_surface():
    # c exactly at the sign-flip bound puts Disc at rounding distance of 0
    a, b = 2.0, -0.5
    cm, cp = c_bounds(a, b)
    assert abs(discriminant(a, b, cm)) < 1e-9
    label = classify(Params.p3(a, b, cm))
    assert label.verdict is Verdict.BOUNDARY


def test_conjecture_boundary_b_equal_one_flagged():
    label = classify(Params.p3(3.0, 1.0, -15.0))
    assert label.verdict is Verdict.CONJECTURED_ERGODIC
    assert "boundary_b=1" in label.rule


def test_unknown_without_cubic_rules():
    # p = 2 beyond the general rules is out of scope for the cubic results
    label = classify(Params(p=2, coeffs=(1.5, -4.0), lam=1.0))
    assert label.verdict is Verdict.UNKNOWN


def test_unknown_region_p3():
    # mixed signs, Disc > 0, b <= 1 but c > 0: nothing applies
    a, b, c = -2.0, 0.5, 0.5
    assert max(a, 0) + max(b, 0) + max(c, 0) >= 1
    assert discriminant(a, b, c) > 0
    assert v(a, b, c) is Verdict.UNKNOWN


def test_classify_rejects_nonfinite():
    params = Params.p3(1.0, 1.0, 1.0)
    object.__setattr__(params, "coeffs", (float("nan"), 1.0, 1.0))
    with pytest.raises(ValueError):
        classify(params)


def _error(f, *args) -> str:
    with pytest.raises(ValueError) as exc:
        f(*args)
    return str(exc.value)


@pytest.mark.parametrize("bad", [(1e300, -1.0, -1.0), (math.nan, -1.0, -1.0), (1.0, -1.0, math.inf)])
def test_classify_p3_raises_what_classify_raises_at_the_first_bad_point(bad):
    params = Params.p3(1.0, -1.0, -1.0)
    object.__setattr__(params, "coeffs", bad)  # Params itself rejects the non-finite ones
    points = [(0.5, -1.0, -1.0), bad, (1e300, 1e300, math.nan)]
    assert _error(classify_p3, *zip(*points)) == _error(classify, params)


@pytest.mark.parametrize("lam", [-1, 0.0, math.nan, math.inf])
def test_classify_p3_rejects_lam_as_params_does(lam):
    assert _error(classify_p3, [1.0], [-1.0], [-1.0], lam) == _error(Params.p3, 1.0, -1.0, -1.0, lam)


def test_growth_rule_warns_nothing_where_ab_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert growth_rule(Params.p3(1e200, 1e200, -1.0)) is None
        assert growth_rule(Params(p=2, coeffs=(1e308, 1e308), lam=1.0)) is Verdict.TRANSIENT_LINEAR
        # classify raises at these points, where Disc overflows; growth_rule computes no Disc
        assert growth_rule(Params.p3(-1e200, 1e200, 1.0)) is Verdict.TRANSIENT_OSCILLATING  # ab = -inf
        assert growth_rule(Params.p3(-1e300, 1e300, 1e300)) is Verdict.TRANSIENT_OSCILLATING
        assert growth_rule(Params.p3(-1e200, -1e200, 1e300)) is Verdict.TRANSIENT_AXES


def test_no_rule_conflicts_on_random_sweep():
    # proven ergodic and proven transient predicates must never overlap;
    # classify raises if they do, so a broad sweep is a tripwire
    rng = np.random.default_rng(34)
    for _ in range(2000):
        a, b, c = rng.uniform(-6, 6, size=3)
        classify(Params.p3(a, b, c))


def test_growth_rule_agrees_with_classify():
    # the simulator reads its growth cones off growth_rule
    rng = np.random.default_rng(35)
    cone_rules = {Verdict.TRANSIENT_AXES, Verdict.TRANSIENT_OSCILLATING, Verdict.TRANSIENT_LINEAR}
    for p in (3, 2, 4):
        for _ in range(2000):
            params = Params(p=p, coeffs=tuple(rng.uniform(-6, 6, size=p)), lam=1.0)
            verdict = classify(params).verdict
            assert growth_rule(params) == (verdict if verdict in cone_rules else None), params
    assert growth_rule(Params.p3(-1.0, -1.0, 1.1)) is Verdict.TRANSIENT_AXES
    assert growth_rule(Params.p3(-1.0, 1.1, 0.5)) is Verdict.TRANSIENT_OSCILLATING
    assert growth_rule(Params(p=2, coeffs=(0.4, 2.0), lam=1.0)) is Verdict.TRANSIENT_LINEAR
    assert growth_rule(Params(p=2, coeffs=(-0.4, 2.0), lam=1.0)) is None


_LINEAR, _OSCILLATING, _AXES = Verdict.TRANSIENT_LINEAR, Verdict.TRANSIENT_OSCILLATING, Verdict.TRANSIENT_AXES
_GROWTH_EDGES = [
    # c = 0 exactly: the oscillating rule, ahead of the memory-2 reduction
    ((-1.0, 2.0, 0.0), _OSCILLATING),
    ((-3.0, 1.5, 0.0), _OSCILLATING),
    # nonnegative coefficients summing to within TOL of 1, and just past it
    ((0.5, 0.5 + 5e-13), None),
    ((0.5, 0.5 - 5e-13), None),
    ((0.5, 0.5 + 2e-12), _LINEAR),
    ((0.25, 0.25, 0.5 + 5e-13), None),
    ((0.25, 0.25, 0.5 - 5e-13), None),
    ((0.25, 0.25, 0.5 + 2e-12), _LINEAR),
    ((0.0, 0.0, 1.0 + 5e-13), None),
    ((0.0, 0.0, 1.0 + 2e-12), _LINEAR),
    # b within TOL of 1 with a < 0, and ab + c within TOL of 0
    ((-1.0, 1.0 + 5e-13, 0.5), None),
    ((-1.0, 1.0 - 5e-13, 0.5), None),
    ((-1.0, 1.0 + 2e-12, 0.5), _OSCILLATING),
    ((-1.0, 2.0, 2.0 + 5e-13), None),
    ((-1.0, 2.0, 2.0 - 5e-13), None),
    ((-1.0, 2.0, 2.0 - 2e-12), _OSCILLATING),
    ((-1.0, 2.0, 3.0), None),
    # the axes rule's three thresholds
    ((-1.0, -1.0, 1.0 + 5e-13), None),
    ((-1.0, -1.0, 1.0 + 2e-12), _AXES),
    ((-5e-13, -1.0, 2.0), None),
    ((-2e-12, -1.0, 2.0), _AXES),
    ((-1.0, -5e-13, 2.0), None),
    # p = 1 and p = 5: only the linear rule applies
    ((1.5,), _LINEAR),
    ((1.0 + 5e-13,), None),
    ((0.9,), None),
    ((-2.0,), None),
    ((0.1, 0.2, 0.3, 0.2, 0.4), _LINEAR),
    ((0.2, 0.2, 0.2, 0.2, 0.2 + 5e-13), None),
    ((0.2, 0.2, 0.2, 0.2, 0.2 + 2e-12), _LINEAR),
    ((-1.0, 2.0, 0.0, 0.0, 0.0), None),
    ((0.0, 0.0, 3.0, 0.0, -0.1), None),
]


@pytest.mark.parametrize("coeffs, expected", _GROWTH_EDGES, ids=[repr(c).replace(" ", "") for c, _ in _GROWTH_EDGES])
def test_growth_rule_agrees_with_classify_at_thresholds(coeffs, expected):
    params = Params(p=len(coeffs), coeffs=coeffs, lam=1.0)
    assert growth_rule(params) is expected
    verdict = classify(params).verdict
    assert verdict is expected or expected is None and verdict not in (_LINEAR, _OSCILLATING, _AXES)


def test_witness_report_attached_for_p3():
    label = classify(Params.p3(2.5, -1.0, -3.0))
    assert label.witness is not None
    assert label.witness.disc == pytest.approx(-188.25, abs=1e-9)
    assert label.witness.alpha_q is not None


def test_grid_values_inclusive():
    vals = grid_values(-3.0, 2.0, 0.5)
    assert len(vals) == 11
    assert vals[0] == -3.0 and vals[-1] == pytest.approx(2.0)
    assert grid_values(1.0, 1.0, 0.5) == [1.0]


def test_grid_values_errors():
    with pytest.raises(ValueError):
        grid_values(2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        grid_values(0.0, 1.0, 0.0)
    # more than MAX_GRID_POINTS points, or a count that overflows, is refused before building
    for start, stop, step in [(0.0, 1.0, 1e-300), (-1e308, 1e308, 1e-300), (0.0, 1.0, 1e-7)]:
        with pytest.raises(ValueError, match="more than 10000000 points"):
            grid_values(start, stop, step)
    assert len(grid_values(0.0, 1.0, 1e-6)) == 1_000_001


@pytest.mark.parametrize("step", [1.0, 1e-6, 1e-12])
@pytest.mark.parametrize("stop", [-1e-13, -0.5 * TOL, -TOL])
def test_range_reversed_within_tol_is_its_start_at_every_step(stop, step):
    # the range check accepts stop >= start - TOL, so every step gives the one point start
    assert grid_count(0.0, stop, step) == 1
    assert grid_values(0.0, stop, step) == [0.0]


# one point per verdict with its exact rule text
RULE_CASES = [
    (3, (0.5, 0.3, 0.1), Verdict.ERGODIC_GENERAL_P, "ergodic: sum of positive parts 0.9 < 1"),
    (4, (0.5, 0.3, 0.3, 0.2), Verdict.TRANSIENT_LINEAR,
     "transient: all coefficients >= 0 and sum 1.3 > 1"),
    (2, (1.5, -4.0), Verdict.UNKNOWN, "no rule applies (cubic rules need p=3)"),
    (3, (2.0, -0.5, c_bounds(2.0, -0.5)[0]), Verdict.BOUNDARY,
     "Disc within the zero-surface band; discriminant-based rules withheld"),
    (3, (2.5, -1.0, -3.0), Verdict.ERGODIC_DISC_NEGATIVE, "ergodic: b < 0, c < 0 and Disc < 0"),
    (3, (-1.0, -1.0, 1.1), Verdict.TRANSIENT_AXES, "transient: a < 0, b < 0, c > 1 (axis cycling)"),
    (3, (-1.0, 1.1, 0.5), Verdict.TRANSIENT_OSCILLATING,
     "transient: b > 1 and ab + c < 0 (period-2 growth)"),
    (3, (3.0, -3.0, 0.0), Verdict.ERGODIC_P2_REGION, "memory-2 reduction (c = 0): b < b*(a)"),
    (3, (3.0, -2.0, 0.0), Verdict.TRANSIENT_P2_REGION, "memory-2 reduction (c = 0): b > b*(a)"),
    (3, (3.0, 0.5, -15.0), Verdict.CONJECTURED_ERGODIC,
     "conjectured ergodic: b <= 1, c < 0 and Disc < 0"),
    (3, (3.0, 1.0, -15.0), Verdict.CONJECTURED_ERGODIC,
     "conjectured ergodic: b <= 1, c < 0 and Disc < 0 (boundary_b=1)"),
    (3, (-2.0, 0.5, 0.5), Verdict.UNKNOWN, "no rule applies"),
]


@pytest.mark.parametrize("p, coeffs, verdict, rule", RULE_CASES)
def test_rule_texts(p, coeffs, verdict, rule):
    # grid CSV/JSON carry these texts verbatim
    label = classify(Params(p=p, coeffs=coeffs, lam=1.0))
    assert (label.verdict, label.rule) == (verdict, rule)
    assert (label.witness is None) == (p != 3)


def test_rule_texts_cover_every_verdict():
    covered = {v for _, _, v, _ in RULE_CASES}
    assert covered == set(Verdict)


def test_forced_rule_conflict_raises_from_batched_classifier(monkeypatch):
    # a transient predicate that matches everywhere collides with the ergodic
    # verdicts at the second and third points; the first is conjectured only,
    # so there the forced rule simply fires
    rules_module = importlib.import_module("dhawkes.classify")
    always = lambda x: np.ones(len(x.pos), dtype=bool)  # noqa: E731
    rules = tuple(
        (v, always if v is Verdict.TRANSIENT_AXES else pred, text) for v, pred, text in rules_module._RULES
    )
    monkeypatch.setattr(rules_module, "_RULES", rules)
    first_conflict = r"both match Params\(p=3, coeffs=\(2.5, -1.0, -3.0\), lam=1.0\)"
    with pytest.raises(RuntimeError, match=first_conflict):
        classify_p3([3.0, 2.5, 0.5], [0.5, -1.0, 0.3], [-15.0, -3.0, 0.1])
    with pytest.raises(RuntimeError, match=first_conflict):
        classify(Params.p3(2.5, -1.0, -3.0))
    assert classify(Params.p3(3.0, 0.5, -15.0)).verdict is Verdict.TRANSIENT_AXES
    # growth_rule decides on the same table, so the same check guards it
    with pytest.raises(RuntimeError, match=r"both match Params\(p=3, coeffs=\(0.5, -1.0, -3.0\)"):
        growth_rule(Params.p3(0.5, -1.0, -3.0))
