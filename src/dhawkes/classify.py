"""Map parameter vectors to the strongest stability verdict available.

Rules are checked in a fixed priority order, strongest first, and the
rule that fired is reported alongside the verdict.  Every rule predicate
works on arrays, one entry per point, so `classify_p3` decides a whole
grid in one pass, `classify` is the one-point case at any p, and
`growth_rule` is the same decision without the cubic rules.  Proven
ergodic and proven transient regions never overlap; if both kinds of
rule match a point, the classifier raises instead of silently picking
one, since that means a rule predicate is wrong.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cubic import CubicReport, CubicReports, b_star, cubic_reports
from .model import Params, check_lam

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
# The transience rules that force geometric growth: simulate._cone has an escape cone for each.
GROWTH_VERDICTS = frozenset(
    {Verdict.TRANSIENT_AXES, Verdict.TRANSIENT_OSCILLATING, Verdict.TRANSIENT_LINEAR}
)
TRANSIENT_VERDICTS = GROWTH_VERDICTS | {Verdict.TRANSIENT_P2_REGION}


@dataclass(frozen=True)
class RegionLabel:
    verdict: Verdict
    rule: str
    witness: CubicReport | None = None


@dataclass(frozen=True)
class RegionLabels:
    """Labels of n points from one batched decision; labels[i] is point i's RegionLabel."""

    verdicts: list[Verdict]
    rules: list[str]
    reports: CubicReports | None  # the p = 3 witnesses; None at other p

    def __getitem__(self, i: int) -> RegionLabel:
        return RegionLabel(self.verdicts[i], self.rules[i], self.reports and self.reports[i])


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
    cols: tuple[np.ndarray, ...]  # the coefficients, one array per lag
    rep: CubicReports | None  # the p = 3 cubic reports; None at other p and without cubic


def _points(cols, cubic: bool) -> _Points:
    """The _Points of the points whose lag-l coefficients are the array cols[l]; rep only if cubic."""
    rep = cubic_reports(*cols) if cubic and len(cols) == 3 else None  # first: lower peak memory
    pos = total = 0.0  # summed left to right, one lag at a time; rule texts quote these sums
    nonneg = True
    with np.errstate(over="ignore", invalid="ignore"):  # the sums may overflow to inf
        for col in cols:
            pos = pos + np.maximum(col, 0.0)
            total = total + col
            nonneg = nonneg & (col >= 0.0)
    return _Points(pos, total, nonneg, tuple(cols), rep)


def _p3(pred):
    """A rule predicate on the p = 3 coefficients; it never matches at other p."""
    return lambda x: pred(*x.cols) if len(x.cols) == 3 else np.zeros_like(x.nonneg)


def _cubic(pred):
    """A rule predicate on the p = 3 cubic reports; it never matches without them."""
    return lambda x: pred(x.rep) if x.rep is not None else np.zeros_like(x.nonneg)


def _c_disc_negative(rep: CubicReports) -> np.ndarray:
    """c < 0, and Disc < 0 safely outside the boundary band."""
    return _lt(rep.c, 0.0) & (rep.disc < 0.0) & ~rep.on_boundary


# (verdict, predicate, rule text), strongest first; the first rule that
# matches gives the verdict.  A predicate maps _Points to a boolean array.
# Rule texts may quote the sum of positive parts {pos} and the
# coefficient sum {total}.
_RULES = (
    (Verdict.ERGODIC_GENERAL_P, lambda x: _lt(x.pos, 1.0),
     "ergodic: sum of positive parts {pos:.6g} < 1"),
    (Verdict.TRANSIENT_LINEAR, lambda x: x.nonneg & _gt(x.total, 1.0),
     "transient: all coefficients >= 0 and sum {total:.6g} > 1"),
    (Verdict.UNKNOWN, lambda x: np.full(len(x.pos), len(x.cols) != 3),
     "no rule applies (cubic rules need p=3)"),
    (Verdict.BOUNDARY, _cubic(lambda r: r.on_boundary & _lt(r.c, 0.0) & ~_gt(r.b, 1.0)),
     "Disc within the zero-surface band; discriminant-based rules withheld"),
    (Verdict.ERGODIC_DISC_NEGATIVE, _cubic(lambda r: _lt(r.b, 0.0) & _c_disc_negative(r)),
     "ergodic: b < 0, c < 0 and Disc < 0"),
    (Verdict.TRANSIENT_AXES, _p3(lambda a, b, c: _lt(a, 0.0) & _lt(b, 0.0) & _gt(c, 1.0)),
     "transient: a < 0, b < 0, c > 1 (axis cycling)"),
    (Verdict.TRANSIENT_OSCILLATING, _p3(lambda a, b, c: _gt(b, 1.0) & _lt(a * b + c, 0.0)),
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
_QUOTING_ROWS = np.array(["{" in text for _, _, text in _RULES])  # the texts that quote a number


def _decide(x: _Points, lam: float) -> np.ndarray:
    """Index into _RULES of the first rule that matches each point.

    RuntimeError at the first point that an ergodic and a transient rule
    both match, quoting that point's Params.
    """
    masks = np.array([pred(x) for _, pred, _ in _RULES])
    conflict = masks[_ERGODIC_ROWS].any(axis=0) & masks[_TRANSIENT_ROWS].any(axis=0)
    if conflict.any():
        i = int(conflict.argmax())
        fired = [verdict for (verdict, _, _), m in zip(_RULES, masks[:, i]) if m]
        point = Params(p=len(x.cols), coeffs=tuple(float(col[i]) for col in x.cols), lam=lam)
        raise RuntimeError(
            f"rule conflict: ergodic {[v for v in fired if v in ERGODIC_VERDICTS]} and "
            f"transient {[v for v in fired if v in TRANSIENT_VERDICTS]} "
            f"both match {point}; a rule predicate is wrong"
        )
    return masks.argmax(axis=0)


def _labels(cols, lam: float) -> RegionLabels:
    """classify_p3 at any p: the lag-l coefficients of point i are cols[l][i]."""
    check_lam(lam)
    # at p = 3, cubic_reports raises at the first point with a non-finite coefficient or an overflow
    x = _points([np.asarray(col, dtype=np.float64) for col in cols], cubic=True)
    fired = _decide(x, lam)
    rows = [_RULES[k] for k in fired.tolist()]
    rules = [text for _, _, text in rows]
    for i in np.flatnonzero(_QUOTING_ROWS[fired]).tolist():
        rules[i] = rules[i].format(pos=float(x.pos[i]), total=float(x.total[i]))
    return RegionLabels(verdicts=[verdict for verdict, _, _ in rows], rules=rules, reports=x.rep)


def classify_p3(a, b, c, lam: float = 1.0) -> RegionLabels:
    """Labels of the p = 3 points (a[i], b[i], c[i]), decided in one pass over the rule table.

    Point i gets the label classify(Params.p3(a[i], b[i], c[i], lam))
    gets.  ValueError where lam is not finite and > 0, and otherwise at the
    first point that classify cannot classify, with cubic_report's error.
    """
    return _labels((a, b, c), lam)


def classify(params: Params) -> RegionLabel:
    """Return the strongest applicable verdict and the rule that fired.

    Priority (the order of _RULES): the general positive-part criterion
    and the nonnegative supercritical criterion apply for any p; for
    p = 3 the cubic results follow, then the c = 0 reduction to the
    memory-2 frontier, then the conjectured region, then Unknown.  Any p
    is one point of classify_p3's batched decision; the p = 3 witness is its cubic report.
    """
    return _labels([[x] for x in params.coeffs], params.lam)[0]


def growth_rule(params: Params) -> Verdict | None:
    """The transience rule that forces geometric growth, or None.

    TRANSIENT_LINEAR (any p: all coefficients >= 0 and sum > 1) grows the
    minimum of the window; TRANSIENT_OSCILLATING and TRANSIENT_AXES (p = 3)
    grow along a cycle of states.  This is _decide's verdict on the
    coefficients alone, which is classify's wherever it is one of these
    three: no cubic rule matches without a report, and the two ahead of
    them (Boundary: c < 0, b <= 1; ErgodicDiscNegative: b < 0, c < 0)
    never hold where they do.  No discriminant is computed, so nothing
    can overflow.
    """
    x = _points([np.array([v]) for v in params.coeffs], cubic=False)
    with np.errstate(over="ignore", invalid="ignore"):  # the oscillating rule's ab + c may overflow
        verdict = _RULES[_decide(x, params.lam)[0]][0]
    return verdict if verdict in GROWTH_VERDICTS else None


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
