"""Trajectory and excursion simulation with deterministic parallel seeding.

Every random quantity is a function of (master_seed, replica_index)
only: each replica draws from its own counter-based Philox stream keyed
by that pair, so batches can be split across any number of workers in
any order and still reproduce bit-identically.

An excursion starts from the configured initial state (all zeros by
default) and ends at the first return to the all-zero state, at the
explosion threshold, or at the horizon.  Explosion is checked on each
freshly drawn count; following the usual convention the recorded length
of an exploded excursion is horizon + 1, a sentinel one past the
censoring value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from numpy.random import Generator, Philox

from .model import Params, State, check_state, intensity, push_state

_MASK64 = (1 << 64) - 1
_MAX_THRESHOLD = (1 << 63) - 1


class ExcursionKind(str, enum.Enum):
    RETURNED = "returned"
    EXPLODED = "exploded"
    CENSORED = "censored"


@dataclass(frozen=True)
class SimConfig:
    """Horizon, explosion threshold, master seed and initial state of a run."""

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


@dataclass(frozen=True)
class ExcursionOutcome:
    """Fate of one excursion: kind, step count (with sentinel), peak count seen."""

    kind: ExcursionKind
    steps: int
    peak: int


@dataclass(frozen=True)
class TrajectoryResult:
    states: list[State]
    exploded: bool


def replica_rng(master_seed: int, replica_index: int) -> Generator:
    """Independent stream for one replica: Philox keyed by (seed, replica).

    Distinct key pairs give statistically independent counter-based
    streams, so no cross-replica coordination is needed.
    """
    if replica_index < 0:
        raise ValueError(f"replica_index must be >= 0, got {replica_index}")
    return Generator(Philox(key=[master_seed & _MASK64, replica_index & _MASK64]))


def sample_poisson(mean: float, rng: Generator) -> int:
    """One Poisson draw.  Mean 0 returns 0 without consuming randomness."""
    if not (math.isfinite(mean) and mean >= 0.0):
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    if mean == 0.0:
        return 0
    return int(rng.poisson(mean))


def step(params: Params, state: State, rng: Generator) -> State:
    """One transition: draw the next count at the current intensity and shift."""
    return push_state(state, sample_poisson(intensity(params, state), rng))


def _initial(params: Params, cfg: SimConfig) -> State:
    if cfg.initial_state is None:
        return (0,) * params.p
    check_state(cfg.initial_state, params.p)
    return cfg.initial_state


def run_excursion(params: Params, cfg: SimConfig, replica_index: int) -> ExcursionOutcome:
    """Run one excursion to return, explosion or censoring.

    Returned:  steps = first n >= 1 with the all-zero state.
    Exploded:  steps = horizon + 1 (sentinel), triggered by a fresh count
               above the threshold.
    Censored:  steps = horizon.
    """
    rng = replica_rng(cfg.master_seed, replica_index)
    horizon = cfg.horizon_n
    m = cfg.explosion_threshold_m
    lam = params.lam
    peak = 0

    if params.p == 3:
        a, b, c = params.coeffs
        i, j, k = _initial(params, cfg)
        pois = rng.poisson
        for n in range(1, horizon + 1):
            # model.intensity's summation order, so run_trajectory replays this exactly
            s = lam + a * i + b * j + c * k
            d = int(pois(s)) if s > 0.0 else 0
            if d > m:
                return ExcursionOutcome(ExcursionKind.EXPLODED, horizon + 1, max(peak, d))
            if d > peak:
                peak = d
            k, j, i = j, i, d
            if i == 0 and j == 0 and k == 0:
                return ExcursionOutcome(ExcursionKind.RETURNED, n, peak)
        return ExcursionOutcome(ExcursionKind.CENSORED, horizon, peak)

    coeffs = params.coeffs
    state = list(_initial(params, cfg))
    pois = rng.poisson
    for n in range(1, horizon + 1):
        s = lam
        for a_i, x_i in zip(coeffs, state):
            s += a_i * x_i
        d = int(pois(s)) if s > 0.0 else 0
        if d > m:
            return ExcursionOutcome(ExcursionKind.EXPLODED, horizon + 1, max(peak, d))
        if d > peak:
            peak = d
        state.pop()
        state.insert(0, d)
        if not any(state):
            return ExcursionOutcome(ExcursionKind.RETURNED, n, peak)
    return ExcursionOutcome(ExcursionKind.CENSORED, horizon, peak)


def run_trajectory(
    params: Params, cfg: SimConfig, length: int, replica_index: int
) -> TrajectoryResult:
    """First `length` post-initial states; stops early if a count crosses the threshold.

    Iterates `step` on replica r's stream; run_excursion's loops sum the
    intensity in the same order and draw only where it is positive, so the
    trajectory of replica r replays excursion r exactly.
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

    # even_ok[t] == True iff positions t, t+2, t+4, ... are all zero.
    zero = [v == 0 for v in trajectory]
    pos = [v > 0 for v in trajectory]
    even_zero = [False] * (n + 2)
    even_pos = [False] * (n + 2)
    even_zero[n] = even_zero[n + 1] = True
    even_pos[n] = even_pos[n + 1] = True
    for t in range(n - 1, -1, -1):
        even_zero[t] = zero[t] and even_zero[t + 2]
        even_pos[t] = pos[t] and even_pos[t + 2]
    for t in range(0, n - 3):
        if (even_zero[t] and even_pos[t + 1]) or (even_pos[t] and even_zero[t + 1]):
            return t
    return None
