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

from .cubic import CubicReport, b_star, boundary_band, cubic_report, discriminant
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


def _proven_matches(params: Params) -> dict[Verdict, bool]:
    """Raw predicates of every proven rule, ignoring priority."""
    coeffs = params.coeffs
    sum_plus = sum(max(x, 0.0) for x in coeffs)
    matches = {
        Verdict.ERGODIC_GENERAL_P: _lt(sum_plus, 1.0),
        Verdict.TRANSIENT_LINEAR: all(x >= 0.0 for x in coeffs) and _gt(sum(coeffs), 1.0),
    }
    if params.p == 3:
        a, b, c = coeffs
        disc_neg = cubic_discriminant_negative(a, b, c)
        matches[Verdict.ERGODIC_DISC_NEGATIVE] = _lt(b, 0.0) and _lt(c, 0.0) and disc_neg
        matches[Verdict.TRANSIENT_AXES] = _lt(a, 0.0) and _lt(b, 0.0) and _gt(c, 1.0)
        matches[Verdict.TRANSIENT_OSCILLATING] = _gt(b, 1.0) and _lt(a * b + c, 0.0)
        if abs(c) <= TOL:
            bs = b_star(a)
            matches[Verdict.ERGODIC_P2_REGION] = _lt(b, bs)
            matches[Verdict.TRANSIENT_P2_REGION] = _gt(b, bs)
    return matches


def cubic_discriminant_negative(a: float, b: float, c: float) -> bool:
    """Disc < 0 and safely outside the boundary band."""
    return discriminant(a, b, c) < 0.0 and not boundary_band(a, b, c)


def classify(params: Params) -> RegionLabel:
    """Return the strongest applicable verdict and the rule that fired.

    Priority: the general positive-part criterion and the nonnegative
    supercritical criterion apply for any p; for p = 3 the cubic results
    follow, then the c = 0 reduction to the memory-2 frontier, then the
    conjectured region, then Unknown.
    """
    if not all(math.isfinite(x) for x in params.coeffs) or not math.isfinite(params.lam):
        raise ValueError("classify requires finite parameters")

    matches = _proven_matches(params)
    fired_ergodic = [v for v in ERGODIC_VERDICTS if matches.get(v)]
    fired_transient = [v for v in TRANSIENT_VERDICTS if matches.get(v)]
    if fired_ergodic and fired_transient:
        raise RuntimeError(
            f"rule conflict: ergodic {fired_ergodic} and transient {fired_transient} "
            f"both match {params}; a rule predicate is wrong"
        )

    sum_plus = sum(max(x, 0.0) for x in params.coeffs)
    if matches[Verdict.ERGODIC_GENERAL_P]:
        witness = cubic_report(*params.abc) if params.p == 3 else None
        return RegionLabel(
            Verdict.ERGODIC_GENERAL_P,
            f"ergodic: sum of positive parts {sum_plus:.6g} < 1",
            witness,
        )
    if matches[Verdict.TRANSIENT_LINEAR]:
        witness = cubic_report(*params.abc) if params.p == 3 else None
        return RegionLabel(
            Verdict.TRANSIENT_LINEAR,
            f"transient: all coefficients >= 0 and sum {sum(params.coeffs):.6g} > 1",
            witness,
        )
    if params.p != 3:
        return RegionLabel(Verdict.UNKNOWN, "no rule applies (cubic rules need p=3)")

    a, b, c = params.abc
    report = cubic_report(a, b, c)
    if boundary_band(a, b, c) and _lt(c, 0.0) and not _gt(b, 1.0):
        return RegionLabel(
            Verdict.BOUNDARY,
            "Disc within the zero-surface band; discriminant-based rules withheld",
            report,
        )
    if matches.get(Verdict.ERGODIC_DISC_NEGATIVE):
        return RegionLabel(
            Verdict.ERGODIC_DISC_NEGATIVE, "ergodic: b < 0, c < 0 and Disc < 0", report
        )
    if matches.get(Verdict.TRANSIENT_AXES):
        return RegionLabel(
            Verdict.TRANSIENT_AXES, "transient: a < 0, b < 0, c > 1 (axis cycling)", report
        )
    if matches.get(Verdict.TRANSIENT_OSCILLATING):
        return RegionLabel(
            Verdict.TRANSIENT_OSCILLATING,
            "transient: b > 1 and ab + c < 0 (period-2 growth)",
            report,
        )
    if matches.get(Verdict.ERGODIC_P2_REGION):
        return RegionLabel(
            Verdict.ERGODIC_P2_REGION, "memory-2 reduction (c = 0): b < b*(a)", report
        )
    if matches.get(Verdict.TRANSIENT_P2_REGION):
        return RegionLabel(
            Verdict.TRANSIENT_P2_REGION, "memory-2 reduction (c = 0): b > b*(a)", report
        )
    if not _gt(b, 1.0) and _lt(c, 0.0) and cubic_discriminant_negative(a, b, c):
        rule = "conjectured ergodic: b <= 1, c < 0 and Disc < 0"
        if abs(b - 1.0) <= TOL:
            rule += " (boundary_b=1)"
        return RegionLabel(Verdict.CONJECTURED_ERGODIC, rule, report)
    return RegionLabel(Verdict.UNKNOWN, "no rule applies", report)


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

