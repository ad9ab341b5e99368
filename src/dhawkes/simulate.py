"""Trajectory and excursion simulation with deterministic parallel seeding.

Every random quantity is a function of (master_seed, replica_index)
only: each replica draws from its own counter-based Philox stream keyed
by that pair, so batches can be split across any number of workers in
any order and still reproduce bit-identically.  Seed and replica index
are taken mod 2^64 and used as the two key words exactly.  A Philox
stream is fixed by its key alone, so each thread keeps one generator and
rewinds it to the start of a replica's stream instead of building one
per replica.

An excursion starts from the configured initial state (all zeros by
default) and ends at the first return to the all-zero state, at a
certified escape, or at the horizon.  The explosion threshold is the
level above which escape is checked: an excursion whose counts stay at
or below it runs the plain Poisson loops; once a fresh count exceeds it,
the excursion keeps drawing until it returns (it is then RETURNED, with
its true length and peak), or escape is certified (EXPLODED), or the
horizon is reached.  Escape is certified by a count above an overflow
guard (1e300), or by entering the growth cone of one of the classifier's
growth rules (nonnegative coefficients summing above 1, any p; the
oscillating and axes rules, p = 3), from which the chain leaves the
growth pattern with probability at most 1e-18.  Following the usual convention
the recorded length of an exploded excursion is horizon + 1, a sentinel
one past the censoring value.

Poisson means above 1e18 are drawn as floor(s + sqrt(s) Z) in float64
(numpy's sampler refuses means above ~9.2e18), so the counts of a burst
can be followed far beyond 64-bit integers.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

from numpy.random import Generator, Philox

from .classify import Verdict, growth_rule
from .model import Params, State, check_state, intensity, push_state

_MASK64 = (1 << 64) - 1
_MAX_THRESHOLD = (1 << 63) - 1
# Poisson means above this are drawn from the normal approximation in float64
NORMAL_SWITCH = 1e18
# a count above this certifies escape for any p
OVERFLOW_GUARD = 1e300
# bound on the probability of ever leaving a growth cone
_LEAVE_PROB = 1e-18


class ExcursionKind(str, enum.Enum):
    RETURNED = "returned"
    EXPLODED = "exploded"
    CENSORED = "censored"


@dataclass(frozen=True)
class SimConfig:
    """Horizon, explosion threshold, master seed and initial state of a run.

    The explosion threshold is the level above which escape is checked;
    an excursion is EXPLODED only once its escape is certified.
    """

    horizon_n: int = 10_000
    explosion_threshold_m: int = 10**9
    master_seed: int = 0
    initial_state: State | None = None  # None = all-zero state

    def __post_init__(self) -> None:
        if self.horizon_n < 1:
            raise ValueError(f"horizon_n must be >= 1, got {self.horizon_n}")
        if not (1 <= self.explosion_threshold_m <= _MAX_THRESHOLD):
            raise ValueError(
                f"explosion_threshold_m must be in [1, 2^63-1], got {self.explosion_threshold_m}"
            )
        if self.initial_state is not None:
            object.__setattr__(self, "initial_state", tuple(self.initial_state))


class ExcursionOutcome(NamedTuple):
    """Fate of one excursion: kind, step count (with sentinel), peak count seen."""

    kind: ExcursionKind
    steps: int
    peak: int


@dataclass(frozen=True)
class TrajectoryResult:
    """Post-initial states; `crossed` flags a count above the threshold, where the run stops."""

    states: list[State]
    crossed: bool


# Per thread, made on its first replica_rng call: `rng`, the thread's one
# generator, and `start`, the Philox state that rewinds it.  Only the key
# of `start` changes between replicas; reusing the dict saves building it
# on every call.
_THREAD = threading.local()


def replica_rng(master_seed: int, replica_index: int) -> Generator:
    """Independent stream for one replica: Philox keyed by (seed, replica).

    Distinct key pairs give statistically independent counter-based
    streams, so no cross-replica coordination is needed.  The key words
    are seed mod 2^64 and replica mod 2^64, set exactly.

    Returns this thread's one generator, rewound to the start of the
    replica's stream: counter 0 and no buffered output, so it draws what
    a fresh Generator(Philox(key=...)) with that key draws.  The next call
    on the same thread rewinds the same generator, so a stream is valid
    only until then.
    """
    if replica_index < 0:
        raise ValueError(f"replica_index must be >= 0, got {replica_index}")
    try:
        start = _THREAD.start
    except AttributeError:  # first call on this thread
        _THREAD.rng = Generator(Philox(0))
        start = _THREAD.start = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # buffer empty
            "has_uint32": 0,
            "uinteger": 0,
        }
    start["state"]["key"] = (master_seed & _MASK64, replica_index & _MASK64)
    rng = _THREAD.rng
    rng.bit_generator.state = start
    return rng


def sample_poisson(mean: float, rng: Generator) -> int:
    """One Poisson draw.  Mean 0 returns 0 without consuming randomness.

    Above NORMAL_SWITCH the draw is floor(mean + sqrt(mean) Z), Z standard
    normal, computed in float64; there the Poisson skewness 1/sqrt(mean)
    is below 1e-9.
    """
    if not (math.isfinite(mean) and mean >= 0.0):
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    if mean == 0.0:
        return 0
    if mean > NORMAL_SWITCH:
        return int(mean + math.sqrt(mean) * rng.standard_normal())
    return int(rng.poisson(mean))


def step(params: Params, state: State, rng: Generator) -> State:
    """One transition: draw the next count at the current intensity and shift."""
    return push_state(state, sample_poisson(intensity(params, state), rng))


@functools.lru_cache(maxsize=256)
def _cone(params: Params) -> tuple[Verdict, float] | None:
    """(rule, M) of the growth cone, or None where no growth rule applies.

    TRANSIENT_LINEAR (all a_i >= 0, sum S > 1): each draw Y has mean
    mu >= S m + lam, m the window's minimum; Y >= rho m keeps the minimum
    from falling, and p such draws in a row raise it by the factor rho.
    TRANSIENT_OSCILLATING (b > 1, ab + c < 0): from (0, X, 0) the draw
    Y ~ Poisson(bX + lam) forces a zero (aY + cX + lam <= 0), giving
    (0, Y, 0).  TRANSIENT_AXES (a < 0, b < 0, c > 1): from (0, 0, X) the
    draw Y ~ Poisson(cX + lam) forces two zeros, giving (0, 0, Y).  With
    g = S, b or c, the pattern holds whenever |Y - mu| <= eta mu:
    eta <= (g - 1) / (2g) makes Y >= rho X with rho = (1 + g) / 2, and for
    X >= x0 the forced zeros hold (for the oscillating rule this also
    needs eta <= |ab + c| / (2 |a| b), which gives
    aY + cX + lam <= (ab + c) X / 2 + lam (1 + |a| (1 + eta))).
    Bernstein's bound for the Poisson gives P(|Y - mu| > eta mu) <=
    2 exp(-C mu), C = eta^2 / (2 (1 + eta / 3)); the normal draws above
    NORMAL_SWITCH have lighter tails.  As X grows at least like rho^k M
    over k rounds of n draws (n = p for the linear rule, 1 for the
    cycles), the chance of ever leaving the pattern from X >= M is at
    most 2 n e^(-CgM) / (1 - e^(-CgM (rho - 1))).  M is the least power of
    two >= x0 that brings this to _LEAVE_PROB.
    """
    rule = growth_rule(params)
    if rule is None:
        return None
    lam = params.lam
    draws, x0 = 1, 0.0
    if rule is Verdict.TRANSIENT_LINEAR:
        draws, g = params.p, sum(params.coeffs)
    else:
        a, b, c = params.abc
        g = b if rule is Verdict.TRANSIENT_OSCILLATING else c
    eta = (g - 1.0) / (2.0 * g)
    if rule is Verdict.TRANSIENT_OSCILLATING:
        if a != 0.0:
            eta = min(eta, -(a * b + c) / (2.0 * abs(a) * b))
        x0 = 2.0 * lam * (1.0 + abs(a) * (1.0 + eta)) / -(a * b + c)
    elif rule is Verdict.TRANSIENT_AXES:
        x0 = lam / min(-a, -b)
    rate = g * eta * eta / (2.0 * (1.0 + eta / 3.0))  # C g
    growth = (g - 1.0) / 2.0  # rho - 1
    level = 1.0
    while level < x0 or 2.0 * draws * math.exp(-rate * level) > -_LEAVE_PROB * math.expm1(
        -rate * level * growth
    ):
        level *= 2.0
        if level > OVERFLOW_GUARD:
            return None
    return rule, level


def escape_level(params: Params) -> float | None:
    """Cone level M above which a growth-cone state certifies escape.

    None where none of the linear, oscillating and axes transience rules
    of `classify` applies; escape is then certified by the overflow guard only.
    """
    cone = _cone(params)
    return None if cone is None else cone[1]


def escaped(params: Params, state: State) -> bool:
    """Whether escape from `state` is certified.

    True for a count above OVERFLOW_GUARD; under the linear rule (any p)
    for a window whose minimum is >= escape_level(params); and for p = 3
    for the cone states (0, X, 0) under the oscillating rule and
    (0, 0, X) under the axes rule with X >= escape_level(params).
    """
    if max(state) > OVERFLOW_GUARD:
        return True
    cone = _cone(params)
    if cone is None:
        return False
    rule, level = cone
    if rule is Verdict.TRANSIENT_LINEAR:
        return min(state) >= level
    lag = 1 if rule is Verdict.TRANSIENT_OSCILLATING else 2
    return state[lag] >= level and sum(state) == state[lag]


def _initial(params: Params, cfg: SimConfig) -> State:
    if cfg.initial_state is None:
        return (0,) * params.p
    check_state(cfg.initial_state, params.p)
    return cfg.initial_state


def _follow(
    params: Params, cfg: SimConfig, rng: Generator, state: State, n: int, peak: int
) -> ExcursionOutcome:
    """Continue an excursion from `state` after step n, drawing through `step`.

    Escape is checked only once a count above the threshold has been drawn.
    """
    horizon = cfg.horizon_n
    crossed = peak > cfg.explosion_threshold_m
    while not (crossed and escaped(params, state)):
        if n == horizon:
            return ExcursionOutcome(ExcursionKind.CENSORED, horizon, peak)
        n += 1
        state = step(params, state, rng)
        if state[0] > peak:
            peak = state[0]
            crossed = peak > cfg.explosion_threshold_m
        if not any(state):
            return ExcursionOutcome(ExcursionKind.RETURNED, n, peak)
    return ExcursionOutcome(ExcursionKind.EXPLODED, horizon + 1, peak)


def run_excursion(params: Params, cfg: SimConfig, replica_index: int) -> ExcursionOutcome:
    """Run one excursion to return, certified escape or censoring.

    Returned:  steps = first n >= 1 with the all-zero state, also after
               counts above the threshold.
    Exploded:  steps = horizon + 1 (sentinel); some count exceeded the
               threshold and escape is certified (see `escaped`).
    Censored:  steps = horizon.

    While the counts stay at or below the threshold, the loops below draw
    with numpy directly; from the first count above it (or from the start,
    if the threshold lets the mean exceed NORMAL_SWITCH) the excursion is
    followed through `step`.
    """
    rng = replica_rng(cfg.master_seed, replica_index)
    horizon = cfg.horizon_n
    m = cfg.explosion_threshold_m
    lam = params.lam
    peak = 0
    state0 = _initial(params, cfg)
    top = m if cfg.initial_state is None else max(m, *state0)  # no count the loops meet is larger
    if lam + params.positive_sum * top > NORMAL_SWITCH:
        return _follow(params, cfg, rng, state0, 0, 0)

    if params.p == 3:
        a, b, c = params.coeffs
        i, j, k = state0
        pois = rng.poisson
        for n in range(1, horizon + 1):
            # model.intensity's summation order, so run_trajectory replays this exactly
            s = lam + a * i + b * j + c * k
            d = pois(s) if s > 0.0 else 0  # a Python int
            if d > peak:  # peak <= m here, so only a new peak can cross the threshold
                if d > m:
                    return _follow(params, cfg, rng, (d, i, j), n, d)
                peak = d
            k, j, i = j, i, d
            if i == 0 and j == 0 and k == 0:
                return ExcursionOutcome(ExcursionKind.RETURNED, n, peak)
        return ExcursionOutcome(ExcursionKind.CENSORED, horizon, peak)

    coeffs = params.coeffs
    state = list(state0)
    pois = rng.poisson
    for n in range(1, horizon + 1):
        s = lam
        for a_i, x_i in zip(coeffs, state):
            s += a_i * x_i
        d = pois(s) if s > 0.0 else 0
        if d > peak:
            if d > m:
                return _follow(params, cfg, rng, (d, *state[:-1]), n, d)
            peak = d
        state.pop()
        state.insert(0, d)
        if not d and not any(state):
            return ExcursionOutcome(ExcursionKind.RETURNED, n, peak)
    return ExcursionOutcome(ExcursionKind.CENSORED, horizon, peak)


def run_trajectory(
    params: Params, cfg: SimConfig, length: int, replica_index: int
) -> TrajectoryResult:
    """First `length` post-initial states; stops early if a count crosses the threshold.

    Iterates `step` on replica r's stream; run_excursion's loops sum the
    intensity in the same order and draw only where it is positive, and
    follow the excursion through `step` past the threshold, so the
    trajectory of replica r replays excursion r exactly up to the stop.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = replica_rng(cfg.master_seed, replica_index)
    state = _initial(params, cfg)
    states: list[State] = []
    for _ in range(length):
        state = step(params, state, rng)
        states.append(state)
        if state[0] > cfg.explosion_threshold_m:
            return TrajectoryResult(states, True)
    return TrajectoryResult(states, False)


def detect_alternation(trajectory: list[int]) -> int | None:
    """Earliest onset of a sustained 0/positive alternation, if any.

    Returns the smallest t such that from t to the end the values at even
    offsets are all zero and at odd offsets all positive, or the
    parity-swapped pattern.  At least four trailing values are required,
    so trivially short suffixes do not count.
    """
    n = len(trajectory)
    if n < 4:
        raise ValueError(f"trajectory must have length >= 4, got {n}")

    # Walk back from the end while each adjacent pair is (zero, positive) or
    # (positive, zero); t is then the start of the longest alternating tail.
    x = trajectory
    t = n - 1
    while t > 0 and ((x[t - 1] == 0 and x[t] > 0) or (x[t - 1] > 0 and x[t] == 0)):
        t -= 1
    return t if t <= n - 4 else None
