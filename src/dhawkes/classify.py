"""Map parameter vectors to the strongest stability verdict available.

Rules are checked in a fixed priority order, strongest first, and the
rule that fired is reported alongside the verdict.  Every rule predicate
works on arrays, one entry per point, so `classify_p3` decides a whole
grid in one pass and `classify` is its one-point case.  Proven ergodic
and proven transient regions never overlap; if both kinds of rule match
a point, the classifier raises instead of silently picking one, since
that means a rule predicate is wrong.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cubic import CubicReport, CubicReports, b_star, cubic_reports
from .model import Params

# Strict inequalities only: values within TOL of a rule threshold fall
# through to Boundary/Unknown rather than being classified.
TOL = 1e-12

# The most points grid_values and disc_grid build; a longer range is a usage error.
MAX_GRID_POINTS = 10**7


class Verdict(enum.Enum):
    ERGODIC_GENERAL_P = "ErgodicGeneralP"
    ERGODIC_DISC_NEGATIVE = "ErgodicDiscNegative"
    ERGODIC_P2_REGION = "ErgodicP2Region"
    TRANSIENT_AXES = "TransientAxes"
    TRANSIENT_OSCILLATING = "TransientOscillating"
    TRANSIENT_LINEAR = "TransientLinear"
    TRANSIENT_P2_REGION = "TransientP2Region"
    CONJECTURED_ERGODIC = "ConjecturedErgodic"
    BOUNDARY = "Boundary"
    UNKNOWN = "Unknown"


ERGODIC_VERDICTS = frozenset(
    {Verdict.ERGODIC_GENERAL_P, Verdict.ERGODIC_DISC_NEGATIVE, Verdict.ERGODIC_P2_REGION}
)
TRANSIENT_VERDICTS = frozenset(
    {
        Verdict.TRANSIENT_AXES,
        Verdict.TRANSIENT_OSCILLATING,
        Verdict.TRANSIENT_LINEAR,
        Verdict.TRANSIENT_P2_REGION,
    }
)


@dataclass(frozen=True)
class RegionLabel:
    verdict: Verdict
    rule: str
    witness: CubicReport | None = None


@dataclass(frozen=True)
class RegionLabels:
    """Labels of n p = 3 points from one batched decision; labels[i] is point i's RegionLabel."""

    verdicts: list[Verdict]
    rules: list[str]
    reports: CubicReports

    def __getitem__(self, i: int) -> RegionLabel:
        return RegionLabel(self.verdicts[i], self.rules[i], self.reports[i])


def _lt(x, y):
    """Strictly less, with values within TOL of the threshold excluded."""
    return x < y - TOL


def _gt(x, y):
    return x > y + TOL


@dataclass(frozen=True)
class _Points:
    """What the rule predicates read, as arrays with one entry per point."""

    pos: np.ndarray  # sum of the positive parts of the coefficients
    total: np.ndarray  # sum of the coefficients
    nonneg: np.ndarray  # every coefficient >= 0
    abc: tuple[np.ndarray, np.ndarray, np.ndarray] | None  # None at p != 3
    rep: CubicReports | None  # the p = 3 cubic reports; None at other p and in growth_rule


def _one_point(params: Params) -> _Points:
    """The _Points of one parameter vector, without a cubic report."""
    coeffs = params.coeffs
    return _Points(
        pos=np.array([params.positive_sum]),
        total=np.array([sum(coeffs)]),
        nonneg=np.array([all(x >= 0.0 for x in coeffs)]),
        abc=tuple(np.array([x]) for x in coeffs) if params.p == 3 else None,
        rep=None,
    )


def _never(x: _Points) -> np.ndarray:
    return np.zeros(len(x.pos), dtype=bool)


def _p3(pred):
    """A rule predicate on the p = 3 coefficients; it never matches at other p."""
    return lambda x: pred(*x.abc) if x.abc is not None else _never(x)


def _cubic(pred):
    """A rule predicate on the p = 3 cubic reports; it never matches at other p."""
    return lambda x: pred(x.rep) if x.rep is not None else _never(x)


def _c_disc_negative(rep: CubicReports) -> np.ndarray:
    """c < 0, and Disc < 0 safely outside the boundary band."""
    return _lt(rep.c, 0.0) & (rep.disc < 0.0) & ~rep.on_boundary


def _linear(x: _Points) -> np.ndarray:
    return x.nonneg & _gt(x.total, 1.0)


_oscillating = _p3(lambda a, b, c: _gt(b, 1.0) & _lt(a * b + c, 0.0))
_axes = _p3(lambda a, b, c: _lt(a, 0.0) & _lt(b, 0.0) & _gt(c, 1.0))

# The transience rules that force geometric growth, and what growth_rule reads.
_GROWTH = (
    (Verdict.TRANSIENT_LINEAR, _linear),
    (Verdict.TRANSIENT_OSCILLATING, _oscillating),
    (Verdict.TRANSIENT_AXES, _axes),
)


def growth_rule(params: Params) -> Verdict | None:
    """The transience rule that forces geometric growth, or None.

    TRANSIENT_LINEAR (any p: all coefficients >= 0 and sum > 1) grows the
    minimum of the window; TRANSIENT_OSCILLATING and TRANSIENT_AXES (p = 3)
    grow along a cycle of states.  The three exclude each other and no
    rule of higher priority matches alongside them, so where this returns
    a verdict `classify` returns the same one.  It computes no
    discriminant, so it cannot overflow.
    """
    x = _one_point(params)
    with np.errstate(over="ignore", invalid="ignore"):
        return next((verdict for verdict, pred in _GROWTH if pred(x)[0]), None)


# (verdict, predicate, rule text), strongest first; the first rule that
# matches gives the verdict.  A predicate maps _Points to a boolean array.
# Rule texts may quote the sum of positive parts {pos} and the
# coefficient sum {total}.
_RULES = (
    (Verdict.ERGODIC_GENERAL_P, lambda x: _lt(x.pos, 1.0),
     "ergodic: sum of positive parts {pos:.6g} < 1"),
    (Verdict.TRANSIENT_LINEAR, _linear,
     "transient: all coefficients >= 0 and sum {total:.6g} > 1"),
    (Verdict.UNKNOWN, lambda x: np.full(len(x.pos), x.rep is None),
     "no rule applies (cubic rules need p=3)"),
    (Verdict.BOUNDARY, _cubic(lambda r: r.on_boundary & _lt(r.c, 0.0) & ~_gt(r.b, 1.0)),
     "Disc within the zero-surface band; discriminant-based rules withheld"),
    (Verdict.ERGODIC_DISC_NEGATIVE, _cubic(lambda r: _lt(r.b, 0.0) & _c_disc_negative(r)),
     "ergodic: b < 0, c < 0 and Disc < 0"),
    (Verdict.TRANSIENT_AXES, _axes,
     "transient: a < 0, b < 0, c > 1 (axis cycling)"),
    (Verdict.TRANSIENT_OSCILLATING, _oscillating,
     "transient: b > 1 and ab + c < 0 (period-2 growth)"),
    (Verdict.ERGODIC_P2_REGION, _cubic(lambda r: (np.abs(r.c) <= TOL) & _lt(r.b, b_star(r.a))),
     "memory-2 reduction (c = 0): b < b*(a)"),
    (Verdict.TRANSIENT_P2_REGION, _cubic(lambda r: (np.abs(r.c) <= TOL) & _gt(r.b, b_star(r.a))),
     "memory-2 reduction (c = 0): b > b*(a)"),
    (Verdict.CONJECTURED_ERGODIC, _cubic(lambda r: (np.abs(r.b - 1.0) <= TOL) & _c_disc_negative(r)),
     "conjectured ergodic: b <= 1, c < 0 and Disc < 0 (boundary_b=1)"),
    (Verdict.CONJECTURED_ERGODIC, _cubic(lambda r: ~_gt(r.b, 1.0) & _c_disc_negative(r)),
     "conjectured ergodic: b <= 1, c < 0 and Disc < 0"),
    (Verdict.UNKNOWN, lambda x: np.ones(len(x.pos), dtype=bool), "no rule applies"),
)


_ERGODIC_ROWS = np.array([verdict in ERGODIC_VERDICTS for verdict, _, _ in _RULES])
_TRANSIENT_ROWS = np.array([verdict in TRANSIENT_VERDICTS for verdict, _, _ in _RULES])


def _decide(x: _Points, point) -> np.ndarray:
    """Index into _RULES of the first rule that matches each point.

    RuntimeError at the first point that an ergodic and a transient rule
    both match; point(i) is the Params quoted for it.
    """
    masks = np.array([pred(x) for _, pred, _ in _RULES])
    conflict = masks[_ERGODIC_ROWS].any(axis=0) & masks[_TRANSIENT_ROWS].any(axis=0)
    if conflict.any():
        i = int(conflict.argmax())
        fired = [verdict for (verdict, _, _), m in zip(_RULES, masks[:, i]) if m]
        raise RuntimeError(
            f"rule conflict: ergodic {[v for v in fired if v in ERGODIC_VERDICTS]} and "
            f"transient {[v for v in fired if v in TRANSIENT_VERDICTS]} "
            f"both match {point(i)}; a rule predicate is wrong"
        )
    return masks.argmax(axis=0)


def classify_p3(a, b, c, lam: float = 1.0) -> RegionLabels:
    """Labels of the p = 3 points (a[i], b[i], c[i]), decided in one pass over the rule table.

    Point i gets the label classify(Params.p3(a[i], b[i], c[i], lam))
    gets, with the same errors: the first point that cannot be classified
    raises what classify would raise there.
    """
    a, b, c = (np.asarray(x, dtype=np.float64) for x in (a, b, c))
    if len(a):
        finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c)
        i = int(np.argmin(finite))  # the first point with a non-finite coefficient, else 0
        if not finite[i]:
            cubic_reports(a[:i], b[:i], c[:i])  # an earlier point may overflow Disc first
        Params.p3(float(a[i]), float(b[i]), float(c[i]), lam)  # raises where Params would
    rep = cubic_reports(a, b, c)
    pos = 0.0 + np.maximum(a, 0.0) + np.maximum(b, 0.0) + np.maximum(c, 0.0)
    total = 0.0 + a + b + c
    x = _Points(pos, total, (a >= 0.0) & (b >= 0.0) & (c >= 0.0), (a, b, c), rep)
    fired = _decide(x, lambda i: Params.p3(float(a[i]), float(b[i]), float(c[i]), lam)).tolist()
    return RegionLabels(
        verdicts=[_RULES[k][0] for k in fired],
        rules=[_RULES[k][2].format(pos=p, total=t) for k, p, t in zip(fired, pos.tolist(), total.tolist())],
        reports=rep,
    )


def classify(params: Params) -> RegionLabel:
    """Return the strongest applicable verdict and the rule that fired.

    Priority (the order of _RULES): the general positive-part criterion
    and the nonnegative supercritical criterion apply for any p; for
    p = 3 the cubic results follow, then the c = 0 reduction to the
    memory-2 frontier, then the conjectured region, then Unknown.  A
    p = 3 point is the one-point case of classify_p3, and its cubic
    report is returned as the witness.
    """
    if not all(math.isfinite(x) for x in params.coeffs) or not math.isfinite(params.lam):
        raise ValueError("classify requires finite parameters")
    if params.p == 3:
        return classify_p3(*([x] for x in params.abc), params.lam)[0]
    verdict, _, text = _RULES[_decide(_one_point(params), lambda i: params)[0]]
    return RegionLabel(verdict, text.format(pos=params.positive_sum, total=sum(params.coeffs)))


def grid_count(start: float, stop: float, step: float) -> int:
    """Number of points of the inclusive grid from start to stop; ValueError on bad or too long ranges."""
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError("grid range must be finite")
    if step <= 0.0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if stop < start - TOL:
        raise ValueError(f"empty grid range [{start}, {stop}]")
    count = (stop - start) / step + 1e-9  # inf where stop - start overflows
    if not count < MAX_GRID_POINTS:
        raise ValueError(
            f"grid range [{start}, {stop}] in steps of {step} has more than {MAX_GRID_POINTS} points"
        )
    return int(math.floor(count)) + 1


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid from start to stop; errors on empty, non-finite or too long ranges."""
    return [start + i * step for i in range(grid_count(start, stop, step))]
