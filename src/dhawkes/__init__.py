"""Discrete-time Hawkes processes with inhibition.

Counts evolve as a Poisson autoregression whose mean is clipped at zero,
so negative coefficients act as inhibition.  The package simulates the
chain reproducibly, classifies parameter regions as ergodic or
transient, verifies the Lyapunov drift constructions numerically, and
drives the Monte Carlo phase-transition experiments with exact binomial
confidence intervals.

The top level exports the model, the drivers behind each CLI command and
the result types they return; helpers and test oracles live in their
modules (dhawkes.model, .cubic, .drift, .simulate, .stats, ...).
"""

from .classify import RegionLabel, Verdict, classify
from .cubic import CubicReport, cubic_report
from .drift import DriftCertificate, certify_drift
from .experiments import (
    SweepRow,
    SweepSpec,
    disc_grid,
    exploding_gallery,
    run_excursions,
    sweep_explosion,
    tau_cdf_experiment,
)
from .model import Params
from .simulate import ExcursionKind, ExcursionOutcome, SimConfig, run_excursion, run_trajectory
from .stats import clopper_pearson

__version__ = "0.1.0"

__all__ = [
    "Params",
    "SimConfig",
    "ExcursionKind",
    "ExcursionOutcome",
    "run_excursion",
    "run_excursions",
    "run_trajectory",
    "classify",
    "Verdict",
    "RegionLabel",
    "cubic_report",
    "CubicReport",
    "certify_drift",
    "DriftCertificate",
    "SweepSpec",
    "SweepRow",
    "sweep_explosion",
    "tau_cdf_experiment",
    "exploding_gallery",
    "disc_grid",
    "clopper_pearson",
    "__version__",
]
