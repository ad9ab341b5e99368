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
Poisson, V is affine in the new coordinate), so no sampling is involved:
a scan is an exact enumeration, and a violation-free boundary shell is
the finite-violation-set evidence the ergodicity argument needs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cubic import CubicReport, cubic_report, det_m_alpha_identity_check, m_alpha
from .model import Params, State, check_state, intensity

MAX_RECORDED_VIOLATIONS = 100_000
Q_GRID_DENSITY = 19  # q_form_negativity_check's directions: compositions of 19 (210 of them)
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
    states_checked: int
    analytic_tail: bool


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


def v_alpha(alpha: float, state: State) -> float:
    """V_alpha(i, j, k) = (i + alpha*j)/(j + alpha*k + 1) + 1, always >= 1."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    check_state(state, 3)
    i, j, k = state
    return (i + alpha * j) / (j + alpha * k + 1.0) + 1.0


def delta_v_alpha(params3: Params, alpha: float, state: State) -> float:
    """Exact one-step drift of V_alpha: E V(X_1) - V(x), no sampling.

    With X_1 = (L, i, j) and L Poisson of mean s, E V(X_1) collapses to
    (s + alpha*i)/(i + alpha*j + 1) + 1; for clipped states s = 0 the
    same formula applies.
    """
    if params3.p != 3:
        raise ValueError(f"requires p=3, got p={params3.p}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    i, j, k = state
    s = intensity(params3, state)
    return (s + alpha * i) / (i + alpha * j + 1.0) - (i + alpha * j) / (j + alpha * k + 1.0)


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


def _buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Work arrays of _i_terms: four float64 arrays and one bool mask."""
    return (*(np.empty(shape) for _ in range(4)), np.empty(shape, dtype=bool))


def _i_terms(params3: Params, alpha: float, i, jk: tuple, out: tuple[np.ndarray, ...]):
    """Clipped mask, Delta V_alpha and V_alpha at the states (i, j, k), written into out.

    jk is _jk_terms at (j, k); i, j and k are scalars or arrays that
    broadcast to out's shape.  Every state gets the same elementwise
    arithmetic in the same order, s = ((a*i + b*j) + c*k) + lam,
    num = i + alpha*j and dv = (max(s, 0) + alpha*i)/(num + 1) - num/den,
    so a shell and a cube agree bit for bit on the states they share.
    """
    a = params3.abc[0]
    bj, ck, aj, den = jk
    s, num, ratio, dv, in_a = out
    np.add(bj, a * i, out=s)
    s += ck
    s += params3.lam
    np.less_equal(s, 0.0, out=in_a)
    np.add(aj, i, out=num)
    np.divide(num, den, out=ratio)
    np.maximum(s, 0.0, out=dv)
    dv += alpha * i
    num += 1.0
    dv /= num
    dv -= ratio
    ratio += 1.0  # now V_alpha
    return in_a, dv, ratio


def scan_violations(
    params3: Params, alpha: float, epsilon: float, box_radius: int
) -> DriftReport:
    """Exhaustive drift check of V_alpha over [0, box_radius]^3.

    States where the intensity clips to zero belong to the candidate
    small set and are excluded from the violation count but contribute
    to the K bound.  A violation on the outermost shell means the box
    was too small to witness finiteness; that is flagged, not hidden.
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
    axis = np.arange(r + 1, dtype=np.float64)
    # once per scan, each slice only adds its i; full planes, as a broadcast column is slower per slice
    jk = _jk_terms(params3, alpha, *np.meshgrid(axis, axis, indexing="ij"))
    out = _buffers((r + 1, r + 1))
    bad, counted = np.empty((2, r + 1, r + 1), dtype=bool)

    violations: list[State] = []
    total = 0
    k_bound = -math.inf
    shell_clean = True
    for i in range(r + 1):
        in_a, dvev, v = _i_terms(params3, alpha, i, jk, out)
        v *= epsilon
        dvev += v  # Delta V + eps*V
        np.greater(dvev, 0.0, out=bad)
        np.logical_or(bad, in_a, out=counted)  # the states K bounds
        k_bound = max(k_bound, float(np.max(dvev, initial=-math.inf, where=counted)))
        bad &= ~in_a
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            total += n_bad
            coords = np.argwhere(bad)
            if i == r or (coords == r).any():
                shell_clean = False
            room = MAX_RECORDED_VIOLATIONS - len(violations)
            if room > 0:
                for j_, k_ in coords[:room]:
                    violations.append((i, int(j_), int(k_)))
    return DriftReport(
        epsilon=epsilon,
        violation_set=tuple(violations),
        violations_total=total,
        k_bound=k_bound if math.isfinite(k_bound) else 0.0,
        box_radius=box_radius,
        shell_clean=shell_clean,
    )


def _shell_epsilon(params3: Params, alpha: float, r: int) -> float | None:
    """Largest epsilon of EPSILONS with no violation on the shell max(i, j, k) = r.

    The shell is three faces: i = r; i < r, j = r; i, j < r, k = r.  As
    V_alpha >= 1, Delta V + eps*V only grows with eps, so a face clean at
    one grid value is clean at every smaller one and the search never
    steps back.  None when no grid value is clean.
    """
    axis = np.arange(r + 1, dtype=np.float64)
    inner = axis[:-1, None]
    faces = ((r, axis[:, None], axis), (inner, r, axis), (inner, axis[:-1], r))
    idx = 0
    for i, j, k in faces:
        out = _buffers(np.broadcast_shapes(*map(np.shape, (i, j, k))))
        in_a, dv, v = _i_terms(params3, alpha, i, _jk_terms(params3, alpha, j, k), out)
        dv, v = dv[~in_a], v[~in_a]
        while idx < len(EPSILONS) and (dv + EPSILONS[idx] * v > 0.0).any():
            idx += 1
    return EPSILONS[idx] if idx < len(EPSILONS) else None


def small_set_applicable(params3: Params) -> bool:
    """The clipped set is provably small only when b <= 0 and c <= 0."""
    _, b, c = params3.abc
    return b <= 0.0 and c <= 0.0


def verify_small_set(params3: Params, box_radius: int) -> SmallSetCheck:
    """Check the 3-step return bound from every clipped state in the box.

    From a state with zero intensity the chain moves deterministically to
    (0, i, j), and with b, c <= 0 the next two zero draws each have
    probability at least e^(-lam), giving P^3(x, 0) >= e^(-2*lam).  The
    bound is evaluated exactly here for each clipped (i, j) pair; states
    outside the box satisfy the same bound by the identical argument
    (analytic_tail), since enlarging i, j, k only shrinks the clipped
    intensities.
    """
    if params3.p != 3:
        raise ValueError(f"requires p=3, got p={params3.p}")
    a, b, c = params3.abc
    if not small_set_applicable(params3):
        raise ValueError(f"small-set bound needs b <= 0 and c <= 0, got b={b} c={c}")
    lam = params3.lam
    r = box_radius
    axis = np.arange(r + 1, dtype=np.float64)
    ii, jj = np.meshgrid(axis, axis, indexing="ij")
    # s(i,j,k) is nonincreasing in k (c <= 0), so (i,j,.) meets the
    # clipped set inside the box iff s(i, j, r) <= 0.
    member = a * ii + b * jj + c * r + lam <= 0.0
    if not member.any():
        return SmallSetCheck(
            verified=True,
            witness_probability=1.0,
            bound=math.exp(-2.0 * lam),
            states_checked=0,
            analytic_tail=True,
        )
    p3 = np.exp(
        -np.maximum(b * ii + c * jj + lam, 0.0) - np.maximum(c * ii + lam, 0.0)
    )
    witness = float(p3[member].min())
    if c < 0.0:
        k_min = np.ceil(np.maximum((a * ii + b * jj + lam) / (-c), 0.0))
        counts = np.where(member, r + 1 - k_min, 0.0)
        states = int(counts.sum())
    else:
        states = int(member.sum()) * (r + 1)
    bound = math.exp(-2.0 * lam)
    return SmallSetCheck(
        verified=witness >= bound - 1e-12,
        witness_probability=witness,
        bound=bound,
        states_checked=states,
        analytic_tail=True,
    )


# ---------------------------------------------------------------------------
# End-to-end certification driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftCertificate:
    """Machine-checked premises of geometric ergodicity for one parameter triple.

    alpha is cubic.alpha_q and epsilon is report.epsilon.
    small_set is None outside the theorem's hypothesis b < 0: there the
    scan and the q-form check are evidence, and the certificate is never
    complete.
    """

    cubic: CubicReport
    report: DriftReport
    small_set: SmallSetCheck | None
    q_max_on_octant: float
    det_identity_residual: float

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
    while (eps := _shell_epsilon(params3, alpha, radius)) is None:
        if radius >= max_radius:
            raise RuntimeError(f"no epsilon in the grid yields a clean shell up to radius {radius}")
        radius = min(2 * radius, max_radius)
    return DriftCertificate(
        cubic=cubic,
        report=scan_violations(params3, alpha, eps, radius),
        small_set=verify_small_set(params3, radius) if b < 0.0 else None,
        q_max_on_octant=q_form_negativity_check(cubic),
        det_identity_residual=det_m_alpha_identity_check(a, b, c, alpha),
    )
