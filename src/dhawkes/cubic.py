"""Closed-form analytics of the cubic X^3 - a X^2 - b X - c.

Everything the three-parameter stability theory needs from the
characteristic polynomial of the linear recurrence
u_n = a u_{n-1} + b u_{n-2} + c u_{n-3}: discriminant, real roots,
spectral radius, the sign-flip bounds on c, and the quantities attached
to the mirror polynomial Q(X) = -P(-X) = X^3 + a X^2 - b X + c that
drive the ratio Lyapunov construction (its positive root alpha_Q, the
2x2 minor R, and the off-diagonal reduction term K).  cubic_reports
works these out for arrays of points in one batched solve, and
cubic_report is its one-point case.  The solve is float64 throughout:
companion eigenvalues, then Newton steps on the real roots; the modulus
of a complex pair z, conj(z) comes from the real root r by Vieta,
r |z|^2 = c.
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


def _disc(a, b, c):
    """Disc of P over floats or arrays, inf or nan where it overflows.

    np.float_power is the libm pow of Python's x**n; np.power may round differently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            a * a * b * b + 4.0 * np.float_power(b, 3) - 4.0 * np.float_power(a, 3) * c
            - 18.0 * a * b * c - 27.0 * c * c
        )


def _overflow(what: str, a: float, b: float, c: float) -> ValueError:
    return ValueError(f"{what} overflows at (a, b, c) = ({a}, {b}, {c})")


def discriminant(a: float, b: float, c: float) -> float:
    """Discriminant of P: a^2 b^2 + 4 b^3 - 4 a^3 c - 18 a b c - 27 c^2; ValueError where it overflows."""
    disc = float(_disc(a, b, c))
    if not math.isfinite(disc):
        raise _overflow("Disc", a, b, c)
    return disc


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


def _newton(a, b, c, x, steps: int):
    """Newton steps x <- x - P(x) / P'(x) on float64 arrays; a root stops where |P'(x)| < 1e-300."""
    live = np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # stopped roots
        for _ in range(steps):
            dp = (3.0 * x - 2.0 * a) * x - b
            live &= ~(np.abs(dp) < 1e-300)
            x = np.where(live, x - (((x - a) * x - b) * x - c) / dp, x)
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
        return np.full(3, a / 3.0)
    if d < 0.0:
        return None  # no real critical points: no multiple real root
    sq = math.sqrt(d)
    r_plus, r_minus = (a + sq) / 3.0, (a - sq) / 3.0
    double = min((r_plus, r_minus), key=lambda r: abs(p_eval(a, b, c, r)))
    simple = a - 2.0 * double
    return np.array([double, double, simple])


def _companion_roots(a, b, c):
    """np.roots([1, -a, -b, -c]) at each point, as (n, 3) real and imaginary parts.

    One np.linalg.eigvals call per matrix size over the stacked companion
    matrices, laid out as np.roots lays them out.  np.roots strips a
    trailing zero coefficient, so where c == 0 it solves the 2x2 companion
    and appends the root 0; b = c = 0 is on the boundary band and never
    gets here.
    """
    re, im = np.zeros((len(a), 3)), np.zeros((len(a), 3))
    for k, sel in ((3, c != 0.0), (2, c == 0.0)):
        if sel.any():
            m = np.zeros((np.count_nonzero(sel), k, k))
            m[:, 0, :] = np.stack((a[sel], b[sel], c[sel])[:k], axis=1)
            m[:, range(1, k), range(k - 1)] = 1.0
            w = np.linalg.eigvals(m)
            re[sel, :k], im[sel, :k] = w.real, w.imag
    return re, im


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


def b_star(a):
    """Stability frontier of the two-parameter (c = 0) model, of a float or elementwise over an array.

    1 for a <= 0, 1 - a on (0, 2), -a^2/4 for a >= 2 (branches agree at 2).
    Below the curve the memory-2 chain is geometrically ergodic, above it
    transient.
    """
    return np.where(a <= 0.0, 1.0, np.where(a < 2.0, 1.0 - a, -a * a / 4.0))[()]


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


def _or_none(x: float) -> float | None:
    return None if math.isnan(x) else x


@dataclass(frozen=True)
class CubicReports:
    """The CubicReport fields of n points as arrays; reports[i] is point i's CubicReport.

    real_roots is (n, 3), each row ascending and padded with NaN where
    there is one real root; NaN in the alpha_q columns marks "not
    applicable".
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    disc: np.ndarray
    on_boundary: np.ndarray
    real_roots: np.ndarray
    spectral_radius: np.ndarray
    alpha_q: np.ndarray
    r_at_alpha_q: np.ndarray
    k_at_alpha_q: np.ndarray

    def __getitem__(self, i: int) -> CubicReport:
        return CubicReport(
            a=float(self.a[i]),
            b=float(self.b[i]),
            c=float(self.c[i]),
            disc=float(self.disc[i]),
            on_boundary=bool(self.on_boundary[i]),
            real_roots=tuple(x for x in self.real_roots[i].tolist() if not math.isnan(x)),
            spectral_radius=float(self.spectral_radius[i]),
            alpha_q=_or_none(float(self.alpha_q[i])),
            r_at_alpha_q=_or_none(float(self.r_at_alpha_q[i])),
            k_at_alpha_q=_or_none(float(self.k_at_alpha_q[i])),
        )


def _point_error(a: float, b: float, c: float, disc: float) -> ValueError:
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(v):
            return ValueError(f"{name} must be finite, got {v}")
    return _overflow("Disc" if not math.isfinite(disc) else "the band scale of Disc", a, b, c)


def cubic_reports(a, b, c) -> CubicReports:
    """The cubic reports of the points (a[i], b[i], c[i]), from one batched solve.

    Disc, the band and the roots are computed for all points at once.  The
    companion eigenvalues (one np.linalg.eigvals call) are the roots
    np.roots would return.  Their real parts get 3 float64 Newton steps,
    then 5 more; where P has a complex pair only the real eigenvalue is
    polished.  On the band, _multiple_root_candidates rebuilds the
    repeated root instead, point by point, or where there is none (P is
    monotone) reports the one real root r after 3 steps.  The spectral
    radius is the largest root modulus after the first 3 steps; where P
    has a complex pair it is max(|r|, |z|), with |z| from Vieta.
    alpha_q is the one premise gate of the V_alpha drift: it is set only
    where Disc < 0 and c < 0, off the band.  ValueError names the first
    point whose coefficients are not finite or where Disc or its band
    scale overflows.
    """
    a, b, c = (np.asarray(x, dtype=np.float64) for x in (a, b, c))
    disc = _disc(a, b, c)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.float_power(a, 4) + np.float_power(b, 3) + np.float_power(c, 2))
    ok = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(disc) & np.isfinite(scale)
    if not ok.all():
        i = int(np.argmin(ok))
        raise _point_error(float(a[i]), float(b[i]), float(c[i]), float(disc[i]))
    on_band = np.abs(disc) <= BOUNDARY_BAND * scale

    n = len(a)
    x, im = np.zeros((n, 3)), np.zeros((n, 3))
    solve = ~on_band
    for i in np.flatnonzero(on_band):
        roots = _multiple_root_candidates(float(a[i]), float(b[i]), float(c[i]))
        if roots is None:
            solve[i] = True
        else:
            x[i] = roots
    x[solve], im[solve] = _companion_roots(a[solve], b[solve], c[solve])
    # P has one real root r and a pair z, conj(z) where Disc < 0 off the band, and on
    # the band where no multiple root was rebuilt (a^2 + 3b < 0: P is monotone).  There
    # only r, the eigenvalue with im == 0, is polished; elsewhere all three real parts are.
    one = solve & (on_band | (disc < 0.0))
    x = np.where(one[:, None], x[np.arange(n), np.argmin(np.abs(im), axis=1), None], x)
    x[solve] = _newton(a[solve, None], b[solve, None], c[solve, None], x[solve], 3)

    # Vieta's r |z|^2 = c gives |z|, or |z|^2 = -b where r = c = 0.
    r = x[:, 0]  # where one, every column holds r
    with np.errstate(divide="ignore", invalid="ignore"):  # rows without a pair
        pair = np.sqrt(np.where(r == 0.0, -b, c / r))
    radius = np.where(one, np.maximum(np.abs(r), pair), np.abs(x).max(axis=1))

    polished = _newton(a[:, None], b[:, None], c[:, None], x, 5)
    roots = np.sort(np.where(on_band[:, None], x, polished), axis=1, kind="stable")
    roots[one, 1:] = np.nan

    aq = np.where(one & ~on_band & (c < 0.0), -roots[:, 0], np.nan)  # Q(X) = -P(-X): minus P's real root
    return CubicReports(
        a=a,
        b=b,
        c=c,
        disc=disc,
        on_boundary=on_band,
        real_roots=roots,
        spectral_radius=radius,
        alpha_q=aq,
        r_at_alpha_q=r_of_alpha(a, b, aq),
        k_at_alpha_q=k_of_alpha(a, b, c, aq),
    )


def cubic_report(a: float, b: float, c: float) -> CubicReport:
    """The CubicReport of one point: the one-element case of cubic_reports.

    ValueError where a coefficient is not finite or Disc overflows.
    """
    return cubic_reports([a], [b], [c])[0]
