"""Closed-form analytics of the cubic X^3 - a X^2 - b X - c.

Everything the three-parameter stability theory needs from the
characteristic polynomial of the linear recurrence
u_n = a u_{n-1} + b u_{n-2} + c u_{n-3}: discriminant, real roots,
spectral radius, the sign-flip bounds on c, and the quantities attached
to the mirror polynomial Q(X) = -P(-X) = X^3 + a X^2 - b X + c that
drive the ratio Lyapunov construction (its positive root alpha_Q, the
2x2 minor R, and the off-diagonal reduction term K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Treat |Disc| below this relative band as "on the Disc = 0 surface":
# double precision cannot reliably sign the discriminant there, and the
# stability results all exclude the boundary anyway.
BOUNDARY_BAND = 1e-9


def p_eval(a: float, b: float, c: float, x: float) -> float:
    """P(x) = x^3 - a x^2 - b x - c."""
    return ((x - a) * x - b) * x - c


def q_eval(a: float, b: float, c: float, x: float) -> float:
    """Q(x) = x^3 + a x^2 - b x + c = -P(-x)."""
    return ((x + a) * x - b) * x + c


def discriminant(a: float, b: float, c: float) -> float:
    """Discriminant of P: a^2 b^2 + 4 b^3 - 4 a^3 c - 18 a b c - 27 c^2; ValueError where it overflows."""
    try:
        disc = a * a * b * b + 4.0 * b**3 - 4.0 * a**3 * c - 18.0 * a * b * c - 27.0 * c * c
    except OverflowError:
        disc = math.inf
    if not math.isfinite(disc):
        raise ValueError(f"Disc overflows at (a, b, c) = ({a}, {b}, {c})")
    return disc


def _disc_and_band(a: float, b: float, c: float) -> tuple[float, bool]:
    """Disc and whether it lies in the boundary band; ValueError where either overflows."""
    disc = discriminant(a, b, c)
    try:
        scale = max(1.0, a**4 + b**3 + c**2)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"the band scale of Disc overflows at (a, b, c) = ({a}, {b}, {c})")
    return disc, abs(disc) <= BOUNDARY_BAND * scale


def c_bounds(a: float, b: float) -> tuple[float, float] | None:
    """Interval endpoints c_- <= c_+ outside of which Disc < 0.

    Returns None when a^2 + 3b < 0: then Disc < 0 for every c.  When
    a^2 + 4b > 0 the endpoints straddle zero: c_- < 0 < c_+.
    """
    d = a * a + 3.0 * b
    if d < 0.0:
        return None
    root = d**1.5
    c_minus = (-2.0 * a**3 - 9.0 * a * b - 2.0 * root) / 27.0
    c_plus = (-2.0 * a**3 - 9.0 * a * b + 2.0 * root) / 27.0
    return c_minus, c_plus


def _newton_polish(a: float, b: float, c: float, x: complex, steps: int = 5) -> complex:
    for _ in range(steps):
        dp = (3.0 * x - 2.0 * a) * x - b
        if abs(dp) < 1e-300:
            break
        x = x - (((x - a) * x - b) * x - c) / dp
    return x


def _multiple_root_candidates(a: float, b: float, c: float) -> np.ndarray | None:
    """Roots when Disc ~ 0: rebuild the repeated root from the derivative.

    Eigenvalue-based roots lose ~cbrt(eps) digits at a multiple root; on
    the boundary band the critical points of P pin it down exactly.  A
    triple root sits at a/3; otherwise the double root is the critical
    point with the smaller residual and the simple root follows from the
    root sum.
    """
    d = a * a + 3.0 * b
    if abs(d) <= 1e-9 * max(1.0, a * a):
        return np.full(3, a / 3.0, dtype=complex)
    if d < 0.0:
        return None  # no real critical points: no multiple real root
    sq = math.sqrt(d)
    r_plus, r_minus = (a + sq) / 3.0, (a - sq) / 3.0
    double = min((r_plus, r_minus), key=lambda r: abs(p_eval(a, b, c, r)))
    simple = a - 2.0 * double
    return np.array([double, double, simple], dtype=complex)


def _roots(a: float, b: float, c: float, disc: float, on_band: bool) -> tuple[list[float], float]:
    """Real roots of P, ascending, and its spectral radius max |z|, from one solve.

    One real root when Disc < 0, three with multiplicity otherwise; the
    linear recurrence is stable iff the radius is below 1.  Companion
    eigenvalues seed a short Newton polish, which avoids the branch-cut
    trouble of the closed formulas near Disc = 0.
    """
    roots = _multiple_root_candidates(a, b, c) if on_band else None
    if roots is None:
        roots = np.array([_newton_polish(a, b, c, z, steps=3) for z in np.roots([1.0, -a, -b, -c])])
    radius = float(max(abs(z) for z in roots))
    if on_band:
        return sorted(float(z.real) for z in roots), radius
    if disc < 0.0:
        z = min(roots, key=lambda r: abs(r.imag))
        z = _newton_polish(a, b, c, complex(z.real, 0.0), steps=5)
        return [float(z.real)], radius
    out = [_newton_polish(a, b, c, complex(z.real, 0.0), steps=5).real for z in roots]
    return sorted(float(x) for x in out), radius


def r_of_alpha(a: float, b: float, alpha: float) -> float:
    """Leading 2x2 minor of the quadratic-form matrix: (-a^2 - 4b + 2a*alpha + 3*alpha^2)/4."""
    return (-a * a - 4.0 * b + 2.0 * a * alpha + 3.0 * alpha * alpha) / 4.0


def k_of_alpha(a: float, b: float, c: float, alpha: float) -> float:
    """Reduction term K(alpha) = c + alpha*b - alpha*(alpha+a)*(alpha-a)/2."""
    return c + alpha * b - alpha * (alpha + a) * (alpha - a) / 2.0


def m_alpha(a: float, b: float, c: float, alpha: float) -> np.ndarray:
    """Symmetric 3x3 matrix of the quadratic part of the ratio-Lyapunov drift."""
    return np.array(
        [
            [-1.0, (a - alpha) / 2.0, alpha * (a + alpha) / 2.0],
            [(a - alpha) / 2.0, b - alpha * alpha, (c + b * alpha) / 2.0],
            [alpha * (a + alpha) / 2.0, (c + b * alpha) / 2.0, c * alpha],
        ]
    )


def det_m_alpha_identity_check(a: float, b: float, c: float, alpha: float) -> float:
    """Residual |det M_alpha - Q(alpha)^2 / 4|; a self-test of the algebra.

    The determinant of the drift quadratic form collapses to a perfect
    square of Q, which is why choosing alpha at the root of Q degenerates
    the form.  The residual should vanish to rounding.
    """
    det = float(np.linalg.det(m_alpha(a, b, c, alpha)))
    q = q_eval(a, b, c, alpha)
    return abs(det - q * q / 4.0)


def b_star(a: float) -> float:
    """Stability frontier of the two-parameter (c = 0) model.

    1 for a <= 0, 1 - a on (0, 2), -a^2/4 for a >= 2 (branches agree at 2).
    Below the curve the memory-2 chain is geometrically ergodic, above it
    transient.
    """
    if a <= 0.0:
        return 1.0
    if a < 2.0:
        return 1.0 - a
    return -a * a / 4.0


@dataclass(frozen=True)
class CubicReport:
    """All cubic analytics for one (a, b, c) triple; None marks "not applicable"."""

    a: float
    b: float
    c: float
    disc: float
    on_boundary: bool
    real_roots: tuple[float, ...]
    spectral_radius: float
    alpha_q: float | None
    r_at_alpha_q: float | None
    k_at_alpha_q: float | None


def cubic_report(a: float, b: float, c: float) -> CubicReport:
    """Assemble a CubicReport, solving for Disc, band and roots once.

    alpha_q is the one premise gate of the V_alpha drift: it is set only
    when Disc < 0 and c < 0, off the band.  ValueError where Disc overflows.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    disc, on_band = _disc_and_band(a, b, c)
    roots, radius = _roots(a, b, c, disc, on_band)
    aq = rq = kq = None
    if disc < 0.0 and c < 0.0 and not on_band:
        aq = -roots[0]  # Q(X) = -P(-X): alpha_q is minus P's one real root
        rq = r_of_alpha(a, b, aq)
        kq = k_of_alpha(a, b, c, aq)
    return CubicReport(
        a=a,
        b=b,
        c=c,
        disc=disc,
        on_boundary=on_band,
        real_roots=tuple(roots),
        spectral_radius=radius,
        alpha_q=aq,
        r_at_alpha_q=rq,
        k_at_alpha_q=kq,
    )
