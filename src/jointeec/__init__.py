"""Euler-characteristic approximation of joint excursion probabilities
for smooth bivariate Gaussian processes on the unit interval.

The package computes, for a centered unit-variance pair (X, Y) with
cross-correlation r(t,s), the probability that both processes exceed a
high level u somewhere, three ways: closed-form leading asymptotics
driven by where r attains its maximum, a numeric expected Euler
characteristic of the joint excursion set, and Monte Carlo simulation.
"""

from .common import (
    AccuracyError,
    ArgumentError,
    ConsistencyError,
    DegeneracyError,
    EecError,
    Estimate,
    RegimeError,
    Tolerances,
    UnsupportedDimensionError,
    DEFAULT_TOL,
)
from .model import (
    BivariateModel,
    CosineMixture,
    PointAnchor,
    ShiftMixture,
    SquaredExponential,
    fixture,
    independent_model,
    load_model_file,
    transpose,
)
from .asymptotics import ValidationReport, validate_model

__all__ = [
    "AccuracyError",
    "ArgumentError",
    "BivariateModel",
    "ConsistencyError",
    "CosineMixture",
    "DegeneracyError",
    "EecError",
    "Estimate",
    "PointAnchor",
    "RegimeError",
    "ShiftMixture",
    "SquaredExponential",
    "Tolerances",
    "UnsupportedDimensionError",
    "ValidationReport",
    "DEFAULT_TOL",
    "fixture",
    "independent_model",
    "load_model_file",
    "transpose",
    "validate_model",
]

__version__ = "0.1.0"
