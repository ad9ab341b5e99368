"""Numerical verification of the Lyapunov drift constructions.

Two families are checked on finite boxes of the state space:

* the linear weights V(x) = 1 + sum_i alpha_i x_i that certify
  geometric ergodicity whenever the positive parts of the coefficients
  sum below one, for any memory length;
* the ratio function V_alpha(i,j,k) = (i + alpha*j)/(j + alpha*k + 1) + 1
  for the p = 3 inhibition regime b < 0, c < 0, Disc < 0, with alpha at
  the positive root of the mirror cubic so that the drift's quadratic
  form degenerates to negative semidefinite with an isotropic line that
  avoids the positive octant.  Where alpha_q exists but b >= 0 the same
  checks run as evidence, never as a certificate.

Both drifts admit closed-form one-step expectations (the count is
Poisson, V is affine in the new coordinate), so no sampling is involved,
and a violation-free boundary shell is the finite-violation-set evidence
the ergodicity argument needs.  A scan accounts for every state of its
box: each is either evaluated with the scan's own arithmetic or cleared
by a rigorous bound.  For V_alpha the bound is taken on blocks
[i0, i1] x [j0, j1] x [k0, k1], with s_hi the largest a*i + b*j + c*k + lam
on the block:

    Delta V + eps*V <= (max(s_hi, 0) + alpha*i1)/(i0 + alpha*j0 + 1)
                       - (1 - eps)(i0 + alpha*j0)/(j1 + alpha*k1 + 1) + eps,

and at clipped states the first term is at most alpha*i1/(i1 + alpha*j0 + 1).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cubic import CubicReport, cubic_report, det_m_alpha_identity_check, m_alpha
from .model import Params, State, intensity

MAX_RECORDED_VIOLATIONS = 100_000
Q_GRID_DENSITY = 19  # q_form_negativity_check's directions: compositions of 19 (210 of them)
BLOCK = 4  # edge of the cubes of states scan_violations bounds at once
EPSILONS = tuple(2.0**-k for k in range(1, 21))  # the certificate's epsilon grid, largest first


@dataclass(frozen=True)
class DriftReport:
    """Result of one drift scan over [0, box_radius]^p."""

    epsilon: float
    violation_set: tuple[State, ...]
    violations_total: int
    k_bound: float
    box_radius: int
    shell_clean: bool

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class SmallSetCheck:
    """Uniform lower bound on the 3-step return probability from the clipped set."""

    verified: bool
    witness_probability: float
    bound: float


# ---------------------------------------------------------------------------
# Linear weights for the positive-part criterion (any p)
# ---------------------------------------------------------------------------


def linear_weights(params: Params) -> list[float]:
    """Weights alpha_i = eta*(p-i+1)/p + sum_{j>=i} (a_j)_+ with eta = 1 - sum (a_i)_+.

    Requires the positive parts to sum below 1.  alpha_1 = 1 always, and
    each weight lies in (0, 1].
    """
    plus = [max(x, 0.0) for x in params.coeffs]
    eta = 1.0 - sum(plus)
    if eta <= 0.0:
        raise ValueError(f"positive parts must sum below 1, got {sum(plus)}")
    p = len(plus)
    return [eta * (p - i) / p + sum(plus[i:]) for i in range(p)]


def linear_drift_coeffs(params: Params, epsilon: float) -> list[float]:
    """Coefficients of x_i in the affine upper bound on Delta V + eps*V.

    Each equals (a_i)_+ + alpha_{i+1} + alpha_i*(eps - 1) = -eta/p + eps*alpha_i;
    all are strictly negative iff eps < eta/p, which is what makes the
    violation set finite.
    """
    alphas = linear_weights(params) + [0.0]
    return [
        max(a_i, 0.0) + alphas[i + 1] + alphas[i] * (epsilon - 1.0)
        for i, a_i in enumerate(params.coeffs)
    ]


def _linear_delta_v(params: Params, epsilon: float) -> Callable[[State], float]:
    """linear_delta_v at fixed params and epsilon, its coefficients worked out once."""
    alphas = linear_weights(params) + [0.0]
    exact = [alphas[i + 1] + alphas[i] * (epsilon - 1.0) for i in range(params.p)]

    def delta_v(state: State) -> float:
        val = intensity(params, state) + epsilon
        for coeff, x_i in zip(exact, state):
            val += coeff * x_i
        return val

    return delta_v


def linear_delta_v(params: Params, state: State, epsilon: float) -> float:
    """Exact Delta V + eps*V at a state under the linear weights.

    The one-step expectation is closed-form: E V(X_1) = s + sum_{i>=2}
    alpha_i x_{i-1} + 1 with s the clipped intensity, so the value is
    s + sum_i (alpha_{i+1} + alpha_i (eps-1)) x_i + eps.
    """
    return _linear_delta_v(params, epsilon)(state)


def linear_drift_scan(params: Params, epsilon: float, box_radius: int) -> DriftReport:
    """Enumerate drift violations of the linear-weight condition in a box.

    Only candidate states where the affine bound is positive need
    checking: the bound dominates the exact drift, and its coefficients
    are strictly negative, so candidates live in a simplex near the
    origin.  Violations are then confirmed against linear_delta_v's exact
    value.  A clean shell certifies the violation set is finite (it is
    complete whenever the simplex fits inside the box); the set being
    finite makes it small by irreducibility.
    """
    if box_radius < 0:
        raise ValueError(f"box_radius must be >= 0, got {box_radius}")
    bound_coeffs = linear_drift_coeffs(params, epsilon)
    if any(cb >= 0.0 for cb in bound_coeffs):
        eta = 1.0 - params.positive_sum
        raise ValueError(f"epsilon={epsilon} too large: need epsilon < eta/p = {eta / params.p}")
    delta_v = _linear_delta_v(params, epsilon)
    budget = epsilon + params.lam
    p = params.p

    violations: list[State] = []
    k_bound = 0.0
    total = 0
    shell_clean = True
    prefix = [0] * p

    def rec(idx: int, used: float) -> None:
        nonlocal k_bound, total, shell_clean
        if idx == p:
            val = delta_v(prefix)
            if val > 0.0:
                total += 1
                if total <= MAX_RECORDED_VIOLATIONS:
                    violations.append(tuple(prefix))
                if max(prefix) >= box_radius:
                    shell_clean = False
                if val > k_bound:
                    k_bound = val
            return
        ci = -bound_coeffs[idx]
        x = 0
        while x <= box_radius:
            u2 = used + ci * x
            if u2 >= budget:
                break
            prefix[idx] = x
            rec(idx + 1, u2)
            x += 1
        prefix[idx] = 0

    rec(0, 0.0)
    return DriftReport(
        epsilon=epsilon,
        violation_set=tuple(violations),
        violations_total=total,
        k_bound=k_bound,
        box_radius=box_radius,
        shell_clean=shell_clean,
    )


# ---------------------------------------------------------------------------
# Ratio function for the p = 3 inhibition regime
# ---------------------------------------------------------------------------


def q_form_negativity_check(cubic: CubicReport) -> float:
    """Max of the drift form d^T M_alpha d at alpha_q over unit directions d of the positive octant.

    Directions are the normalized integer compositions (m1, m2, m3) of
    Q_GRID_DENSITY, which include the three axes.  The maximum should be
    strictly negative: the isotropic line of the degenerate form leaves
    the octant.  ValueError where the report has no alpha_q.
    """
    if cubic.alpha_q is None:
        raise ValueError("negativity check requires Disc < 0 and c < 0, off the Disc = 0 band")
    d = Q_GRID_DENSITY
    m = np.array([(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)], float)
    u = m / np.sqrt((m * m).sum(axis=1))[:, None]
    form = m_alpha(cubic.a, cubic.b, cubic.c, cubic.alpha_q)
    return float(np.einsum("ni,ij,nj->n", u, form, u).max())


def _jk_terms(params3: Params, alpha: float, j, k) -> tuple:
    """The parts of the V_alpha arithmetic that do not depend on i.

    b*j, c*k, alpha*j and the denominator j + alpha*k + 1 of V_alpha,
    for _i_terms to combine with any i.
    """
    _, b, c = params3.abc
    return b * j, c * k, alpha * j, j + alpha * k + 1.0


def _i_terms(params3: Params, alpha: float, i, jk: tuple) -> tuple:
    """Clipped mask, Delta V_alpha and V_alpha at the states (i, j, k).

    jk is _jk_terms at (j, k); i, j and k are scalars or arrays that
    broadcast together.  Every state gets the same elementwise
    arithmetic in the same order, s = ((b*j + a*i) + c*k) + lam,
    num = alpha*j + i and dv = (max(s, 0) + alpha*i)/(num + 1) - num/den,
    so a shell and a cube agree bit for bit on the states they share.
    """
    a = params3.abc[0]
    bj, ck, aj, den = jk
    s = bj + a * i + ck + params3.lam
    num = aj + i
    ratio = num / den
    dv = (np.maximum(s, 0.0) + alpha * i) / (num + 1.0) - ratio
    return s <= 0.0, dv, ratio + 1.0


def _block_bounds(params3: Params, alpha: float, epsilon: float, i, j, k) -> tuple:
    """Bounds of the scan's quantities on the blocks of states [i0, i1] x [j0, j1] x [k0, k1].

    i, j and k are (lo, hi) pairs of integers or integer arrays that
    broadcast together.  Returns (s_lo, s_hi, ub, ub_clip): the raw
    intensity s = a*i + b*j + c*k + lam lies in [s_lo, s_hi] on a block;
    Delta V + eps*V = (s+ + alpha*i)/(i + alpha*j + 1) - (1 - eps)(i + alpha*j)/(j + alpha*k + 1) + eps
    is at most ub at each of its states, and at most ub_clip at each state
    where s <= 0, whose first term is alpha*i/(i + alpha*j + 1).  Each
    term takes its largest numerator over its smallest denominator, so
    these hold in exact arithmetic; _scan_tolerance covers the rounding.
    """
    a, b, c = params3.abc
    (i0, i1), (j0, j1), (k0, k1) = i, j, k
    ai, bj, ck = (a * i0, a * i1), (b * j0, b * j1), (c * k0, c * k1)
    s_lo = params3.lam + np.minimum(*ai) + np.minimum(*bj) + np.minimum(*ck)
    s_hi = params3.lam + np.maximum(*ai) + np.maximum(*bj) + np.maximum(*ck)
    rest = epsilon - (1.0 - epsilon) * (i0 + alpha * j0) / (1.0 + j1 + alpha * k1)
    ub = (np.maximum(s_hi, 0.0) + alpha * i1) / (i0 + alpha * j0 + 1.0) + rest
    ub_clip = alpha * i1 / (i1 + alpha * j0 + 1.0) + rest
    return s_lo, s_hi, ub, ub_clip


def _scan_tolerance(params3: Params, alpha: float, box_radius: int) -> float:
    """Slack that covers every rounding of _block_bounds and of _i_terms in the cube.

    In [0, r]^3 each term of s is at most |a|r, |b|r, |c|r or lam, and
    the two ratios of Delta V + eps*V are at most lam + (|a| + |b| + |c| + alpha)r
    and (1 + alpha)r, so every sum in either computation is at most
    1 + lam + (|a| + |b| + |c| + 1 + 2*alpha)r.  Each value is a handful of
    roundings of such sums, so it is off by less than 2^-45 of that from
    its exact value; the slack is 2^-30 of it.
    """
    a, b, c = params3.abc
    return 2.0**-30 * (1.0 + params3.lam + box_radius * (abs(a) + abs(b) + abs(c) + 1.0 + 2.0 * alpha))


def scan_violations(
    params3: Params, alpha: float, epsilon: float, box_radius: int
) -> DriftReport:
    """Drift check of V_alpha over every state of [0, box_radius]^3.

    States where the intensity clips to zero belong to the candidate
    small set and are excluded from the violation count but contribute
    to the K bound.  A violation on the outermost shell means the box
    was too small to witness finiteness; that is flagged, not hidden.

    The cube is taken in BLOCK^3 blocks, in increasing i.  A block is
    cleared, not evaluated, when _block_bounds shows, with
    _scan_tolerance to spare, that none of its states violates
    (s_hi <= 0 or ub < 0) and none of its clipped states exceeds the K of
    the states evaluated before it (s_lo > 0 or ub_clip < K).  K only
    grows, so a cleared state could not have changed the report.  Every
    other state gets _i_terms' arithmetic, and the report is the one a
    scan of every state gives, bit for bit.
    """
    if params3.p != 3:
        raise ValueError(f"requires p=3, got p={params3.p}")
    if box_radius < 0:
        raise ValueError(f"box_radius must be >= 0, got {box_radius}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    r = box_radius
    n = r + 1
    lo = np.arange(0, n, BLOCK)
    hi = np.minimum(lo + BLOCK - 1, r)
    j, k = (lo[:, None], hi[:, None]), (lo, hi)  # the (j, k) blocks, as a grid
    edge = lo[:, None] + np.arange(BLOCK)  # each block's coordinates along an axis, past r in the last one
    jj, kk = edge[:, None, :, None], edge[None, :, None, :]
    # the flat (j, k) index of each block's states, -1 outside the box
    members = np.where((jj <= r) & (kk <= r), jj * n + kk, -1).reshape(len(lo), len(lo), -1)
    tol = _scan_tolerance(params3, alpha, r)

    violations: list[State] = []
    total = 0
    k_bound = params3.lam + epsilon  # the origin's value, by _i_terms' arithmetic; it always violates
    shell_clean = True
    for i0 in range(0, n, BLOCK):
        i1 = min(i0 + BLOCK - 1, r)
        s_lo, s_hi, ub, ub_clip = _block_bounds(params3, alpha, epsilon, (i0, i1), j, k)
        # evaluated unless the bounds clear both the unclipped and the clipped states of the block
        live = (s_hi > -tol) & (ub >= -tol)
        live |= (s_lo <= tol) & (ub_clip >= k_bound - tol)
        flat = members[live]
        flat = flat[flat >= 0]  # in block order
        jk = _jk_terms(params3, alpha, *np.divmod(flat, n))
        for i in range(i0, i1 + 1):
            in_a, dvev, v = _i_terms(params3, alpha, i, jk)
            dvev += epsilon * v  # Delta V + eps*V
            bad = dvev > 0.0
            k_bound = max(k_bound, float(np.max(dvev, initial=-math.inf, where=bad | in_a)))
            bad &= ~in_a
            hits = flat[bad]
            if hits.size:
                total += hits.size
                j_, k_ = np.divmod(np.sort(hits), n)  # (j, k) order
                if i == r or (j_ == r).any() or (k_ == r).any():
                    shell_clean = False
                room = max(MAX_RECORDED_VIOLATIONS - len(violations), 0)
                violations += ((i, y, z) for y, z in zip(j_[:room].tolist(), k_[:room].tolist()))
    return DriftReport(
        epsilon=epsilon,
        violation_set=tuple(violations),
        violations_total=total,
        k_bound=k_bound,
        box_radius=box_radius,
        shell_clean=shell_clean,
    )


def _shell_epsilon(params3: Params, alpha: float, r: int) -> tuple[float, float] | None:
    """Largest epsilon of EPSILONS with no violation on the shell max(i, j, k) = r, and its margin.

    The shell is three faces: i = r; i < r, j = r; i, j < r, k = r.  As
    V_alpha >= 1, Delta V + eps*V only grows with eps, so a face clean at
    one grid value is clean at every smaller one and the search never
    steps back.  The margin is how far eps may grow, up to 1, with the
    shell still clean: the least -Delta V/V over the unclipped shell
    states, capped at 1, minus eps.  None when no grid value is clean.
    """
    axis = np.arange(r + 1, dtype=np.float64)
    inner = axis[:-1, None]
    faces = ((r, axis[:, None], axis), (inner, r, axis), (inner, axis[:-1], r))
    idx = 0
    largest = 1.0
    for i, j, k in faces:
        in_a, dv, v = _i_terms(params3, alpha, i, _jk_terms(params3, alpha, j, k))
        dv, v = dv[~in_a], v[~in_a]
        while idx < len(EPSILONS) and (dv + EPSILONS[idx] * v > 0.0).any():
            idx += 1
        dv /= v  # in place: -Delta V/V is the largest epsilon that keeps a state clean
        largest = min(largest, -float(np.max(dv, initial=-1.0)))
    return (EPSILONS[idx], largest - EPSILONS[idx]) if idx < len(EPSILONS) else None


def verify_small_set(params3: Params, box_radius: int) -> SmallSetCheck:
    """Check the 3-step return bound from every clipped state in the box.

    From a state with zero intensity the chain moves deterministically to
    (0, i, j), and with b, c <= 0 the next two zero draws each have
    probability at least e^(-lam), giving P^3(x, 0) >= e^(-2*lam).  The
    bound is evaluated exactly here for each clipped (i, j) pair (the
    witness is 1 when the box has none); states outside the box satisfy
    the same bound by the identical argument, since enlarging i, j, k
    only shrinks the clipped intensities.
    """
    if params3.p != 3:
        raise ValueError(f"requires p=3, got p={params3.p}")
    a, b, c = params3.abc
    if b > 0.0 or c > 0.0:
        raise ValueError(f"small-set bound needs b <= 0 and c <= 0, got b={b} c={c}")
    lam = params3.lam
    axis = np.arange(box_radius + 1, dtype=np.float64)
    ii, jj = np.meshgrid(axis, axis, indexing="ij")
    # s(i,j,k) is nonincreasing in k (c <= 0), so (i,j,.) meets the
    # clipped set inside the box iff s(i, j, box_radius) <= 0.
    member = a * ii + b * jj + c * box_radius + lam <= 0.0
    p3 = np.exp(-np.maximum(b * ii + c * jj + lam, 0.0) - np.maximum(c * ii + lam, 0.0))
    witness = float(p3.min(initial=1.0, where=member))
    bound = math.exp(-2.0 * lam)
    return SmallSetCheck(verified=witness >= bound - 1e-12, witness_probability=witness, bound=bound)


# ---------------------------------------------------------------------------
# End-to-end certification driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftCertificate:
    """Machine-checked premises of geometric ergodicity for one parameter triple.

    alpha is cubic.alpha_q and epsilon is report.epsilon; epsilon_margin
    is how much larger epsilon could be, up to 1, with the boundary shell
    still clean.
    small_set is None outside the theorem's hypothesis b < 0: there the
    scan and the q-form check are evidence, and the certificate is never
    complete.
    """

    cubic: CubicReport
    report: DriftReport
    epsilon_margin: float
    small_set: SmallSetCheck | None
    q_max_on_octant: float
    det_identity_residual: float

    @property
    def k_global(self) -> float:
        """max(report.k_bound, alpha + epsilon): K with the clipped states off the box.

        report.k_bound is the largest Delta V + eps V over the box only.
        Delta V + eps V = (s+ + alpha i)/(i + alpha j + 1)
        - (1 - eps)(i + alpha j)/(j + alpha k + 1) + eps, and at a clipped
        state (s <= 0) the first term is alpha i/(i + alpha j + 1) < alpha
        and the second is <= 0 (eps <= 1), so the value is below
        alpha + eps at every clipped state, in the box or not.  Values
        there approach alpha + eps (j = 0, i and k large), above k_bound.
        Unclipped states off the box are not covered: there the drift's
        sign rests on the shell and q-form evidence.
        """
        return max(self.report.k_bound, self.cubic.alpha_q + self.report.epsilon)

    @property
    def complete(self) -> bool:
        return (
            self.report.shell_clean
            and self.small_set is not None
            and self.small_set.verified
            and self.q_max_on_octant < 0.0
        )


def certify_drift(
    params3: Params,
    box_radius: int = 200,
    max_radius: int = 1600,
) -> DriftCertificate:
    """Check the V_alpha drift premises at alpha_q (Disc < 0, c < 0, off the band).

    Epsilon is the largest value of EPSILONS whose boundary shell is
    violation-free; when none is, the box is doubled, up to max_radius.
    The cube is then scanned once at the chosen epsilon and radius.
    ValueError when box_radius < 1, max_radius < box_radius, or the
    point's cubic_report has no alpha_q.
    """
    if box_radius < 1:
        raise ValueError(f"box_radius must be >= 1, got {box_radius}")
    if max_radius < box_radius:
        raise ValueError(f"max_radius must be >= box_radius, got {max_radius} < {box_radius}")
    a, b, c = params3.abc
    cubic = cubic_report(a, b, c)
    alpha = cubic.alpha_q
    if alpha is None:
        raise ValueError("drift construction needs Disc < 0 and c < 0, off the Disc = 0 band")
    radius = box_radius
    while (shell := _shell_epsilon(params3, alpha, radius)) is None:
        if radius >= max_radius:
            raise RuntimeError(f"no epsilon in the grid yields a clean shell up to radius {radius}")
        radius = min(2 * radius, max_radius)
    eps, margin = shell
    return DriftCertificate(
        cubic=cubic,
        report=scan_violations(params3, alpha, eps, radius),
        epsilon_margin=margin,
        small_set=verify_small_set(params3, radius) if b < 0.0 else None,
        q_max_on_octant=q_form_negativity_check(cubic),
        det_identity_residual=det_m_alpha_identity_check(a, b, c, alpha),
    )
