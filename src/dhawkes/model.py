"""Core model: parameters, states, intensity and one-step transition kernel.

The process generates integer counts; given the last p counts
(x_1 most recent, ..., x_p oldest) the next count is Poisson with mean

    s = (a_1 x_1 + ... + a_p x_p + lam)_+

where (.)_+ = max(0, .).  Negative coefficients model inhibition; the
clipping at zero is what makes the dynamics non-linear.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

State = tuple[int, ...]


@dataclass(frozen=True)
class Params:
    """Model parameters: memory length p, coefficients a_1..a_p, baseline lam > 0."""

    p: int
    coeffs: tuple[float, ...]
    lam: float

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        coeffs = tuple(float(x) for x in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lam", float(self.lam))
        if len(coeffs) != self.p:
            raise ValueError(f"expected {self.p} coefficients, got {len(coeffs)}")
        if not all(math.isfinite(x) for x in coeffs):
            raise ValueError(f"coefficients must be finite, got {coeffs}")
        check_lam(self.lam)

    @classmethod
    def p3(cls, a: float, b: float, c: float, lam: float = 1.0) -> "Params":
        """Convenience constructor for the three-parameter model."""
        return cls(p=3, coeffs=(a, b, c), lam=lam)

    @functools.cached_property
    def positive_sum(self) -> float:
        """Sum of the positive parts of the coefficients, sum_i max(a_i, 0)."""
        return sum(max(x, 0.0) for x in self.coeffs)

    @property
    def abc(self) -> tuple[float, float, float]:
        if self.p != 3:
            raise ValueError(f"abc requires p=3, got p={self.p}")
        a, b, c = self.coeffs
        return a, b, c


def check_lam(lam: float) -> None:
    """ValueError unless the baseline lam is finite and > 0."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and > 0, got {float(lam)}")


def check_state(state: State, p: int) -> None:
    """Validate a state against a memory length: p entries, all nonnegative ints.

    Python and numpy integers are accepted; floats (also NaN and integral
    ones) are not.  Every violation raises ValueError.
    """
    if len(state) != p:
        raise ValueError(f"state has {len(state)} entries, expected {p}")
    for x in state:
        try:
            x = operator.index(x)
        except TypeError:
            raise ValueError(f"state entries must be integers, got {state}") from None
        if x < 0:
            raise ValueError(f"state entries must be >= 0, got {state}")


def intensity(params: Params, state: State) -> float:
    """Poisson mean for the next count: (sum_i a_i x_i + lam)_+.

    Raises ValueError on dimension mismatch or negative counts, and
    OverflowError where the sum is +inf or nan (inf - inf): the state is
    past float64's range.
    """
    check_state(state, params.p)
    s = params.lam
    for a_i, x_i in zip(params.coeffs, state):
        s += a_i * x_i
    if not s < math.inf:
        raise OverflowError(f"intensity sum {s} is past float64's range")
    return s if s > 0.0 else 0.0


def transition_pmf(params: Params, state: State, next_count: int) -> float:
    """Probability that the next count equals `next_count` from `state`.

    Computed in log space (l*ln(s) - s - lgamma(l+1)) so that it stays
    accurate up to very large intensities.  Zero intensity is the Dirac
    mass at 0, the limit of the Poisson family.
    """
    if next_count < 0:
        raise ValueError(f"next_count must be >= 0, got {next_count}")
    s = intensity(params, state)
    if s == 0.0:
        return 1.0 if next_count == 0 else 0.0
    return math.exp(next_count * math.log(s) - s - math.lgamma(next_count + 1))


def push_state(state: State, next_count: int) -> State:
    """Shift the window: (x_1, ..., x_p) -> (next_count, x_1, ..., x_{p-1})."""
    if next_count < 0:
        raise ValueError(f"next_count must be >= 0, got {next_count}")
    return (next_count,) + tuple(state[:-1])
