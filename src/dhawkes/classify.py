"""Map a parameter vector to the strongest stability verdict available.

Rules are checked in a fixed priority order, strongest first, and the
rule that fired is reported alongside the verdict.  Proven ergodic and
proven transient regions never overlap; if both kinds of rule match, the
classifier raises instead of silently picking one, since that means a
rule predicate is wrong.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .cubic import CubicReport, b_star, cubic_report
from .model import Params

# Strict inequalities only: values within TOL of a rule threshold fall
# through to Boundary/Unknown rather than being classified.
TOL = 1e-12


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


def _lt(x: float, y: float) -> bool:
    """Strictly less, with values within TOL of the threshold excluded."""
    return x < y - TOL


def _gt(x: float, y: float) -> bool:
    return x > y + TOL


def growth_rule(params: Params) -> Verdict | None:
    """The transience rule that forces geometric growth, or None.

    TRANSIENT_LINEAR (any p: all coefficients >= 0 and sum > 1) grows the
    minimum of the window; TRANSIENT_OSCILLATING and TRANSIENT_AXES (p = 3)
    grow along a cycle of states.  The three exclude each other and no
    rule of higher priority matches alongside them, so where this returns
    a verdict `classify` returns the same one.  It computes no
    discriminant, so it cannot overflow.
    """
    coeffs = params.coeffs
    if all(x >= 0.0 for x in coeffs) and _gt(sum(coeffs), 1.0):
        return Verdict.TRANSIENT_LINEAR
    if params.p != 3:
        return None
    a, b, c = coeffs
    if _gt(b, 1.0) and _lt(a * b + c, 0.0):
        return Verdict.TRANSIENT_OSCILLATING
    if _lt(a, 0.0) and _lt(b, 0.0) and _gt(c, 1.0):
        return Verdict.TRANSIENT_AXES
    return None


def _c_disc_negative(rep: CubicReport) -> bool:
    """c < 0, and Disc < 0 safely outside the boundary band."""
    return _lt(rep.c, 0.0) and rep.disc < 0.0 and not rep.on_boundary


def _cubic(pred):
    """A rule predicate on the p = 3 cubic report; it never matches at other p."""
    return lambda params, rep, growth: rep is not None and pred(rep)


def _grows(verdict: Verdict):
    """A rule predicate that matches where growth_rule returns `verdict`."""
    return lambda params, rep, growth: growth is verdict


# (verdict, predicate, rule text), strongest first; the first rule that
# matches gives the verdict.  A predicate reads the parameters, the p = 3
# cubic report (None at other p) and growth_rule's verdict.  Rule texts
# may quote the sum of positive parts {pos} and the coefficient sum {total}.
_RULES = (
    (Verdict.ERGODIC_GENERAL_P, lambda params, rep, growth: _lt(params.positive_sum, 1.0),
     "ergodic: sum of positive parts {pos:.6g} < 1"),
    (Verdict.TRANSIENT_LINEAR, _grows(Verdict.TRANSIENT_LINEAR),
     "transient: all coefficients >= 0 and sum {total:.6g} > 1"),
    (Verdict.UNKNOWN, lambda params, rep, growth: rep is None,
     "no rule applies (cubic rules need p=3)"),
    (Verdict.BOUNDARY, _cubic(lambda r: r.on_boundary and _lt(r.c, 0.0) and not _gt(r.b, 1.0)),
     "Disc within the zero-surface band; discriminant-based rules withheld"),
    (Verdict.ERGODIC_DISC_NEGATIVE, _cubic(lambda r: _lt(r.b, 0.0) and _c_disc_negative(r)),
     "ergodic: b < 0, c < 0 and Disc < 0"),
    (Verdict.TRANSIENT_AXES, _grows(Verdict.TRANSIENT_AXES),
     "transient: a < 0, b < 0, c > 1 (axis cycling)"),
    (Verdict.TRANSIENT_OSCILLATING, _grows(Verdict.TRANSIENT_OSCILLATING),
     "transient: b > 1 and ab + c < 0 (period-2 growth)"),
    (Verdict.ERGODIC_P2_REGION, _cubic(lambda r: abs(r.c) <= TOL and _lt(r.b, b_star(r.a))),
     "memory-2 reduction (c = 0): b < b*(a)"),
    (Verdict.TRANSIENT_P2_REGION, _cubic(lambda r: abs(r.c) <= TOL and _gt(r.b, b_star(r.a))),
     "memory-2 reduction (c = 0): b > b*(a)"),
    (Verdict.CONJECTURED_ERGODIC, _cubic(lambda r: abs(r.b - 1.0) <= TOL and _c_disc_negative(r)),
     "conjectured ergodic: b <= 1, c < 0 and Disc < 0 (boundary_b=1)"),
    (Verdict.CONJECTURED_ERGODIC, _cubic(lambda r: not _gt(r.b, 1.0) and _c_disc_negative(r)),
     "conjectured ergodic: b <= 1, c < 0 and Disc < 0"),
    (Verdict.UNKNOWN, lambda params, rep, growth: True, "no rule applies"),
)


def classify(params: Params) -> RegionLabel:
    """Return the strongest applicable verdict and the rule that fired.

    Priority (the order of _RULES): the general positive-part criterion
    and the nonnegative supercritical criterion apply for any p; for
    p = 3 the cubic results follow, then the c = 0 reduction to the
    memory-2 frontier, then the conjectured region, then Unknown.  The
    p = 3 cubic report is built once and returned as the witness.
    """
    if not all(math.isfinite(x) for x in params.coeffs) or not math.isfinite(params.lam):
        raise ValueError("classify requires finite parameters")

    rep = cubic_report(*params.abc) if params.p == 3 else None
    growth = growth_rule(params)
    matches = [(verdict, text) for verdict, pred, text in _RULES if pred(params, rep, growth)]
    fired_ergodic = [v for v, _ in matches if v in ERGODIC_VERDICTS]
    fired_transient = [v for v, _ in matches if v in TRANSIENT_VERDICTS]
    if fired_ergodic and fired_transient:
        raise RuntimeError(
            f"rule conflict: ergodic {fired_ergodic} and transient {fired_transient} "
            f"both match {params}; a rule predicate is wrong"
        )
    verdict, text = matches[0]
    return RegionLabel(verdict, text.format(pos=params.positive_sum, total=sum(params.coeffs)), rep)


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid from start to stop; errors on empty ranges."""
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError("grid range must be finite")
    if step <= 0.0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if stop < start - TOL:
        raise ValueError(f"empty grid range [{start}, {stop}]")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]

