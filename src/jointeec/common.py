"""Shared value types, error taxonomy and tolerance configuration.

Everything downstream (model, gauss, asymptotics, kacrice, montecarlo)
reports numbers through the Estimate record and raises errors from the
hierarchy below, so callers can tell a modelling problem (degenerate
covariance) from a numerical one (quadrature ran out of budget).
"""

from __future__ import annotations

from dataclasses import dataclass


class EecError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(EecError):
    """Malformed or out-of-contract arguments (bad order, unknown name)."""


class DegeneracyError(EecError):
    """A covariance matrix failed a positivity / invertibility requirement.

    Carries the offending pivot index when one can be named.
    """

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class UnsupportedDimensionError(ArgumentError):
    """Requested a Gaussian computation above the supported dimension cap."""


class AccuracyError(EecError):
    """An iterative scheme stopped before reaching its target accuracy.

    The best value obtained and the error actually achieved travel with
    the exception so a caller may still use them deliberately.
    """

    def __init__(self, message: str, best_value: float, achieved_error: float):
        super().__init__(message)
        self.best_value = best_value
        self.achieved_error = achieved_error


class RegimeError(EecError):
    """An asymptotic formula was asked for outside its validity regime."""


class ConsistencyError(EecError):
    """Two independent computations of the same quantity disagree.

    Raised by the face-pair spot checks (integrand against the direct
    cubature of its truncated moment); carries both values so the
    disagreement can be inspected.
    """

    def __init__(self, message: str, value_a: float, value_b: float):
        super().__init__(message)
        self.value_a = value_a
        self.value_b = value_b


MAX_LEVEL = 1e100


def check_level(u: float) -> None:
    """ArgumentError naming u unless |u| <= MAX_LEVEL.  Every route reads 0
    from u = 40 on, where exp(-u^2/2) has left the doubles; far beyond that
    u^2 itself overflows and the integrands turn NaN."""
    if not abs(u) <= MAX_LEVEL:
        raise ArgumentError(f"level u={u:g} is out of range: |u| must be at most "
                            f"{MAX_LEVEL:g}, and every route reads 0 from u = 40 on")


# Method tags for Estimate.  Strings rather than an Enum: they go
# straight into CSV cells and error messages.
PLAIN_MC = "PlainMC"
IMPORTANCE_SAMPLED = "ImportanceSampled"
QUADRATURE = "Quadrature"

_METHODS = (PLAIN_MC, IMPORTANCE_SAMPLED, QUADRATURE)


@dataclass(frozen=True)
class Estimate:
    """A numeric result with an attached accuracy statement.

    value:  the number itself.
    error:  standard error for Monte Carlo methods, absolute error
            estimate for quadrature.
    n:      replicates (MC) or integrand evaluations (quadrature).
    method: one of PlainMC / ImportanceSampled / Quadrature.
    low_confidence: set when internal diagnostics distrust `error`
            (e.g. small effective sample size under importance sampling).
    """

    value: float
    error: float
    n: int
    method: str
    low_confidence: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ArgumentError(f"unknown estimate method {self.method!r}")
        if self.error < 0:
            raise ArgumentError("estimate error must be nonnegative")


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance record.  Tests reference these fields by name
    instead of re-inventing magic numbers.

    The defaults are the contract; loosening any of them in a test is a
    bug, not a fix.
    """

    # linear algebra
    symmetry_tol: float = 1e-12          # allowed asymmetry in residual covariances
    observed_pivot_floor: float = 1e-12  # observed block must be invertible past this
    model_psd_floor: float = -1e-8       # grid-factorization PSD verdict for models

    # Gaussian integrals
    moment_consistency_tol: float = 1e-5 # max |integrand - direct cubature| at a spot check

    # classification / geometry
    gradient_tol: float = 1e-7           # "this partial derivative vanishes"
    cluster_tol: float = 1e-9            # cells within this of max count as maximal
    merge_tol: float = 1e-4              # maximizers closer than this merge
    newton_step_floor: float = 1e-12     # refinement stops below this step

    # quadrature
    quad_rel_tol: float = 1e-6           # face-pair integral relative tolerance
    quad_max_evals: int = 1_000_000      # evaluation budget per integral


DEFAULT_TOL = Tolerances()
