"""Trajectory and excursion simulation with deterministic parallel seeding.

Every random quantity is a function of (master_seed, replica_index)
only, so batches can be split across any number of workers in any order
and still reproduce bit-identically.  `run_excursion` and
`run_trajectory` draw from the replica's own counter-based Philox
stream, keyed by that pair.  Seed and replica index are taken mod 2^64
and used as the two key words exactly.  A Philox stream is fixed by its
key and starting counter alone, so each thread keeps one generator and
rewinds it to the start of a replica's stream instead of building one
per replica.

`_outcomes` runs every batch of replicas.  Replica r is
`run_excursion(r)` from the all-zero start and wherever a mean above
NORMAL_SWITCH can occur below the threshold.  From any other start,
BLOCK replicas step together on one stream keyed by (seed, block index),
and a replica that crosses the threshold is followed on a stream keyed
by (seed, replica).  These streams start at high counter words 1 and 2,
the per-replica ones at 0, so none overlap.  Replica r then has
`run_excursion(r)`'s law, not its stream, and depends only on
(params, cfg, r).

An excursion starts from the configured initial state (all zeros by
default) and ends at the first return to the all-zero state, at a
certified escape, or at the horizon.  The explosion threshold is the
level above which escape is checked: an excursion whose counts stay at
or below it runs one compiled loop per p; once a fresh count exceeds it,
the excursion keeps drawing until it returns (it is then RETURNED, with
its true length and peak), or escape is certified (EXPLODED), or the
horizon is reached.  Escape is certified by a count above an overflow
guard (1e300), by a state whose intensity sum leaves float64's range,
or by entering the growth cone of one of the classifier's growth rules
(nonnegative coefficients summing above 1, any p; the oscillating and
axes rules, p = 3), from which the chain leaves the growth pattern with
probability at most 1e-18.  Following the usual convention the recorded
length of an exploded excursion is horizon + 1, a sentinel one past the
censoring value.  An excursion run raises ValueError where lam, or the
stationary mean lam / (1 - S+) of positive parts S+ < 1, passes 1e-10
of the guard: there the baseline alone would "certify escape".

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

import numpy as np
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
# replicas per block of the lockstep kernel
BLOCK = 128
# high counter words at which a block's stream and a replica's
# continuation stream start; a replica's own stream starts at 0
_BLOCK_WORD = 1
_FOLLOW_WORD = 2


class ExcursionKind(str, enum.Enum):
    RETURNED = "returned"
    EXPLODED = "exploded"
    CENSORED = "censored"


@dataclass(frozen=True)
class SimConfig:
    """Horizon, explosion threshold, master seed and initial state of a run.

    The explosion threshold is the level above which escape is checked;
    an excursion is EXPLODED only once its escape is certified.  An
    initial count above OVERFLOW_GUARD is rejected: such a start is
    already past the level at which escape is certified.
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
            check_state(self.initial_state, len(self.initial_state))
            if max(self.initial_state, default=0) > OVERFLOW_GUARD:
                raise ValueError(f"initial counts must be <= OVERFLOW_GUARD ({OVERFLOW_GUARD:g})")


class ExcursionOutcome(NamedTuple):
    """Fate of one excursion: kind, step count (with sentinel), peak count seen."""

    kind: ExcursionKind
    steps: int
    peak: int


@dataclass(frozen=True)
class TrajectoryResult:
    """Post-initial states, up to where the run stops.

    `crossed` flags a count above the threshold; `overflowed` flags a last
    state whose intensity sum is past float64's range, from which no count
    can be drawn (`_follow` certifies escape there).
    """

    states: list[State]
    crossed: bool
    overflowed: bool = False


# Per thread, made on its first replica_rng call: `rng`, the thread's one
# generator, and `start`, the Philox state that rewinds it.  Only the key
# of `start` changes between replicas; reusing the dict saves building it
# on every call.  `plan` is the one `_plan` keeps.
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
    return _rewound(master_seed, replica_index, 0)


def _rewound(seed: int, index: int, word: int) -> Generator:
    """This thread's generator at the start of the Philox stream keyed by
    (seed, index) whose counter starts at high word `word`."""
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
    start["state"]["key"] = (seed & _MASK64, index & _MASK64)
    start["state"]["counter"] = (0, 0, 0, word)
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


def escaped(params: Params, state: State) -> bool:
    """Whether escape from `state` is certified.

    True for a count above OVERFLOW_GUARD; under the linear rule (any p)
    for a window whose minimum is >= M, the cone level of _cone(params);
    and for p = 3 for the cone states (0, X, 0) under the oscillating rule
    and (0, 0, X) under the axes rule with X >= M.
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
    A state whose intensity sum is past float64's range (+inf, or nan from
    inf - inf) also certifies escape, as a count above OVERFLOW_GUARD does.
    """
    horizon = cfg.horizon_n
    crossed = peak > cfg.explosion_threshold_m
    while not (crossed and escaped(params, state)):
        if n == horizon:
            return ExcursionOutcome(ExcursionKind.CENSORED, horizon, peak)
        n += 1
        try:
            state = step(params, state, rng)
        except OverflowError:  # raised by intensity, before any draw
            break
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
    Exploded:  steps = horizon + 1 (sentinel); escape is certified (see
               `escaped` and `_follow`).
    Censored:  steps = horizon.

    Below the threshold the excursion runs in `_excursion_loop(p)`; from
    the first count above it (or from the start, if the threshold lets the
    mean exceed NORMAL_SWITCH) it is followed through `step`.  The start,
    that choice and the loop come from this thread's plan (`_plan`).
    """
    rng = replica_rng(cfg.master_seed, replica_index)
    _, _, state0, loop, lam, m, horizon = _plan(params, cfg)
    if loop is None:
        return _follow(params, cfg, rng, state0, 0, 0)
    return loop(params, cfg, rng, state0, lam, m, horizon)


_NO_PLAN = (None,) * 7  # a thread's plan before its first excursion


def _plan(params: Params, cfg: SimConfig) -> tuple:
    """This thread's plan of (params, cfg): params, cfg, the start, the
    compiled loop, lam, the threshold and the horizon.

    The loop is None where a mean above NORMAL_SWITCH can occur before any
    count crosses the threshold; an excursion is then followed through
    `step` from the start.  Each thread keeps the plan of the last pair it
    was asked for in `_THREAD.plan`, matched by identity, so a batch builds
    it once.  The plan holds both objects, so no other object can take
    their identities while it is kept.  ValueError past the baseline limit.
    """
    plan = getattr(_THREAD, "plan", _NO_PLAN)
    if plan[0] is params and plan[1] is cfg:
        return plan
    lam, s = params.lam, params.positive_sum
    if lam > 1e-10 * OVERFLOW_GUARD or (s < 1.0 and lam / (1.0 - s) > 1e-10 * OVERFLOW_GUARD):
        raise ValueError(f"lam={lam:g}: the baseline alone would reach counts within 1e10 of OVERFLOW_GUARD")
    state0, m = _initial(params, cfg), cfg.explosion_threshold_m
    top = max(m, *state0)  # no count met below the threshold is larger
    loop = None if lam + s * top > NORMAL_SWITCH else _excursion_loop(params.p)
    plan = _THREAD.plan = (params, cfg, state0, loop, lam, m, cfg.horizon_n)
    return plan


def _outcomes(params: Params, cfg: SimConfig, start: int, stop: int) -> list[ExcursionOutcome]:
    """Outcomes of replicas start..stop-1: the one place a batch's engine is chosen.

    Replica r is `run_excursion(r)` from the all-zero start, and wherever
    a mean above NORMAL_SWITCH can occur below the threshold.  From any
    other start, every block of BLOCK replicas that holds one of them runs
    in full in `_run_block` and the range is sliced out, so replica r
    depends on (params, cfg, r) only, not on how a batch is cut.

    This function is private and calls `run_excursion` by the module's
    global name, so a traced run (bench/tracing.py wraps the public
    functions) records each per-replica excursion as a `run_excursion`
    span directly under the `run_excursions` that asked for it.
    """
    _, _, state0, loop = _plan(params, cfg)[:4]
    if loop is None or not any(state0):
        return [run_excursion(params, cfg, r) for r in range(start, stop)]
    first = start // BLOCK
    outcomes: list[ExcursionOutcome] = []
    for block in range(first, -(-stop // BLOCK)):
        outcomes += _run_block(params, cfg, state0, block)
    return outcomes[start - first * BLOCK : stop - first * BLOCK]


def _run_block(params: Params, cfg: SimConfig, state0: State, block: int) -> list[ExcursionOutcome]:
    """Outcomes of the BLOCK replicas of `block`, stepped together below the threshold.

    Each step sums every live replica's intensity in `intensity`'s order,
    draws the live replicas' counts in one Poisson call in replica order,
    and writes them into two rings: row t % p holds the counts of step t,
    as floats for the intensity and as int64 for the exact window.  A
    replica leaves at a return to all zeros, at a count above the
    threshold (then `_follow` continues it from its exact window, on its
    continuation stream), or at the horizon.
    """
    p, m, horizon = params.p, cfg.explosion_threshold_m, cfg.horizon_n
    seed = cfg.master_seed & _MASK64
    pois = Generator(Philox(
        key=np.array([seed, block], dtype=np.uint64),
        counter=np.array([0, 0, 0, _BLOCK_WORD], dtype=np.uint64),
    )).poisson
    terms = tuple(enumerate(params.coeffs, start=1))  # (lag, coefficient)
    window = np.empty((p, BLOCK))
    for i, x in enumerate(state0, start=1):
        window[(1 - i) % p] = float(x)  # the initial count x_i stands for step 1 - i
    counts = np.zeros((p, BLOCK), dtype=np.int64)  # rows of initial counts are unused
    replica = np.arange(block * BLOCK, (block + 1) * BLOCK)  # the live replicas, in order
    peak = np.zeros(BLOCK, dtype=np.int64)
    # step of the latest nonzero count; the window is all zeros once it is p steps back
    recent = next((i for i, x in enumerate(state0, start=1) if x), p + 1)
    last = np.full(BLOCK, 1 - recent)
    outcomes: dict[int, ExcursionOutcome] = {}
    s, term = np.empty(BLOCK), np.empty(BLOCK)
    for n in range(1, horizon + 1):
        np.multiply(window[(n - 1) % p], terms[0][1], out=s)
        s += params.lam  # lam + a_1 x_1, as intensity adds
        for i, a in terms[1:]:
            s += np.multiply(window[(n - i) % p], a, out=term)
        np.maximum(s, 0.0, out=s)
        d = pois(s)
        window[n % p] = d
        counts[n % p] = d
        np.maximum(peak, d, out=peak)
        if d.min():  # no window is all zeros
            last.fill(n)
            if d.max() <= m:
                continue
        else:
            np.copyto(last, n, where=d > 0)
            if d.max() <= m and last.min() > n - p:
                continue
        for j in np.flatnonzero(d > m).tolist():
            r = int(replica[j])
            state = tuple(
                int(counts[(n + 1 - i) % p, j]) if i <= n else state0[i - n - 1] for i in range(1, p + 1)
            )
            outcomes[r] = _follow(params, cfg, _rewound(seed, r, _FOLLOW_WORD), state, n, int(d[j]))
        for j in np.flatnonzero(last <= n - p).tolist():
            outcomes[int(replica[j])] = ExcursionOutcome(ExcursionKind.RETURNED, n, int(peak[j]))
        live = (d <= m) & (last > n - p)
        window, counts, replica, peak, last = window[:, live], counts[:, live], replica[live], peak[live], last[live]
        s, term = s[live], term[live]
        if not len(replica):
            break
    for r, top in zip(replica.tolist(), peak.tolist()):
        outcomes[r] = ExcursionOutcome(ExcursionKind.CENSORED, horizon, top)
    return [outcomes[r] for r in range(block * BLOCK, (block + 1) * BLOCK)]


_LOOP = """\
def excursion(params, cfg, rng, state, lam, m, horizon):
    {a}, = params.coeffs
    {x}, = state  # x1 the most recent count
    pois, peak, zeros = rng.poisson, 0, {p}  # zeros: zero counts at the recent end
    {seed}
    for n in range(1, horizon + 1):
        s = lam  # model.intensity's order, so run_trajectory replays the loop
        {intensity}
        d = pois(s) if s > 0.0 else 0
        {shift}
        if d:
            zeros = 0
            if d > peak:  # peak <= m here, so only a new peak can cross the threshold
                if d > m:
                    return _follow(params, cfg, rng, ({x},), n, d)
                peak = d
        else:
            zeros += 1
            if zeros >= {p}:
                return ExcursionOutcome(ExcursionKind.RETURNED, n, peak)
    return ExcursionOutcome(ExcursionKind.CENSORED, horizon, peak)
"""


@functools.lru_cache(maxsize=64)
def _excursion_loop(p: int):
    """`_LOOP` compiled for memory length p: run_excursion below the threshold.

    Only p shapes the source.  The window is held in p locals, the
    intensity is summed in one flat statement per lag, and `zeros` makes
    the all-zero test O(1).
    """
    lags = range(1, p + 1)
    source = _LOOP.format(
        p=p, a=", ".join(f"a{i}" for i in lags), x=", ".join(f"x{i}" for i in lags),
        seed="\n    ".join(f"if x{i}: zeros = {i - 1}" for i in reversed(lags)),
        intensity="\n        ".join(f"s += a{i} * x{i}" for i in lags),
        shift="\n        ".join([f"x{i} = x{i - 1}" for i in range(p, 1, -1)] + ["x1 = d"]),
    )
    namespace: dict = {}
    exec(compile(source, f"<excursion loop, p={p}>", "exec"), globals(), namespace)
    return namespace["excursion"]


def run_trajectory(
    params: Params, cfg: SimConfig, length: int, replica_index: int
) -> TrajectoryResult:
    """First `length` post-initial states; stops early if a count crosses the
    threshold or at a state whose intensity sum is past float64's range.

    Iterates `step` on replica r's stream; run_excursion's loop sums the
    intensity in the same order and draws only where it is positive, and
    follows the excursion through `step` past the threshold, so the
    trajectory of replica r replays excursion r exactly up to the stop.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = replica_rng(cfg.master_seed, replica_index)
    state = _initial(params, cfg)
    states: list[State] = []
    for _ in range(length):
        try:
            state = step(params, state, rng)
        except OverflowError:  # raised by intensity, before any draw
            return TrajectoryResult(states, False, True)
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
