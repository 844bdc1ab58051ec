"""Exception hierarchy for gausskey.

Every error raised by the library derives from ``GausskeyError`` so callers
can catch one base class; the CLI maps validation errors to exit code 2 and
solver failures to exit code 3.
"""


class GausskeyError(Exception):
    """Base class for all gausskey errors."""


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

class ModelValidationError(GausskeyError):
    """A model or matrix failed an invariant check."""


class NotPositiveDefinite(ModelValidationError):
    """A matrix that must be (strictly) positive definite is not.

    The message names the offending matrix.
    """


class DimensionMismatch(ModelValidationError):
    """Matrix shapes are inconsistent with each other."""


class AsymmetricInput(ModelValidationError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NearSingular(ModelValidationError):
    """An observation matrix lacks (numerically) full column rank."""


class NonPositiveAlpha(ModelValidationError):
    """The perturbation size must be strictly positive."""


class InvalidConditionalCov(ModelValidationError):
    """A candidate conditional covariance violates 0 < Q <= Sigma_x."""


class InvalidEnhancedNoise(ModelValidationError):
    """An enhanced noise covariance violates 0 < W~ <= Sigma_Wy."""


class ModelFormatError(ModelValidationError):
    """A model file or dict does not match the JSON schema."""


# ---------------------------------------------------------------------------
# solver failures
# ---------------------------------------------------------------------------

class SolverError(GausskeyError):
    """Base class for optimization failures."""


class Infeasible(SolverError):
    """The constraint set of a subproblem is empty."""


class MaxIterationsExceeded(SolverError):
    """An iterative solve did not converge within its iteration budget."""


class DimensionTooLarge(SolverError):
    """The brute-force oracle only supports source dimension <= 2."""


class SolverFailure(SolverError):
    """A boundary computation failed and cannot be recovered."""


# ---------------------------------------------------------------------------
# certificate construction
# ---------------------------------------------------------------------------

class CertificateError(GausskeyError):
    """Base class for KKT-certificate failures."""


class NoValidMultiplier(CertificateError):
    """The one admissible multiplier (the smallest that makes M PSD) leaves
    a large complementarity residual; the candidate point is not optimal."""


class NonPsdInput(CertificateError):
    """Enhancement requires mu >= 0 and M PSD."""


class NotDegraded(CertificateError):
    """The change of variable requires the enhanced model to be degraded."""


class MuZero(CertificateError):
    """The change of variable is undefined for mu = 0 (gamma infinite)."""


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

class McError(GausskeyError):
    """Base class for Monte-Carlo cross-validation failures."""


class NotPsd(McError):
    """A joint covariance handed to the sampler is not PSD."""


class SingularEmpiricalCov(McError):
    """An empirical covariance block is singular; not enough samples."""
