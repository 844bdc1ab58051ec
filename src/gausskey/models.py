"""Source models and model-level transformations.

Two model kinds describe the correlated Gaussian triple (X, Y, Z):

``GeneralModel``
    X has covariance ``sigma_x``; the two observations are
    ``Y = B X + W_y`` and ``Z = E X + W_z`` with standard Gaussian noise.

``AlignedModel``
    All three vectors share the source dimension and the observations are
    ``Y = X + W_y``, ``Z = X + W_z`` with arbitrary invertible noise
    covariances.  A general model whose B and E have full column rank
    reduces to an aligned one without changing the achievable rate region.

All model objects are immutable after construction (arrays are frozen), so
they are safe to share across threads.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InvalidConditionalCov,
    ModelValidationError,
    NearSingular,
    NonPositiveAlpha,
)

# Count a generalized eigenvalue as "> 1" only above this threshold, so that
# identical observation channels give exactly zero surplus.
GEN_EIG_ONE_TOL = 1e-12

COND_COV_MIN_EIG = 1e-10


def _frozen(a):
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GeneralModel:
    """Source covariance plus observation matrices for Y and Z.

    Parameters
    ----------
    sigma_x : (mx, mx) array
        Source covariance, strictly positive definite.
    b : (my, mx) array
        Observation matrix of the legitimate receiver.
    e : (mz, mx) array
        Observation matrix of the eavesdropper.
    """

    sigma_x: np.ndarray
    b: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma_x", _frozen(self.sigma_x))
        object.__setattr__(self, "b", _frozen(np.atleast_2d(self.b)))
        object.__setattr__(self, "e", _frozen(np.atleast_2d(self.e)))
        validate_model(self)

    @property
    def mx(self):
        return self.sigma_x.shape[0]

    @property
    def my(self):
        return self.b.shape[0]

    @property
    def mz(self):
        return self.e.shape[0]


@dataclass(frozen=True)
class AlignedModel:
    """Aligned source model: Y = X + W_y, Z = X + W_z.

    All three covariances are m x m and strictly positive definite.
    """

    sigma_x: np.ndarray
    sigma_wy: np.ndarray
    sigma_wz: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma_x", _frozen(self.sigma_x))
        object.__setattr__(self, "sigma_wy", _frozen(self.sigma_wy))
        object.__setattr__(self, "sigma_wz", _frozen(self.sigma_wz))
        validate_model(self)

    @property
    def mx(self):
        return self.sigma_x.shape[0]


@dataclass(frozen=True)
class ConditionalCov:
    """Candidate conditional covariance of X given the auxiliary variable.

    The optimization variable of the rate characterization: a symmetric
    matrix Q with ``0 < Q <= sigma_x``, tested scale-free on the eigenvalues
    ``phi`` of the pencil ``(Q, sigma_x)``: the least must exceed
    ``COND_COV_MIN_EIG``, and ``I - diag(phi)`` must pass ``linalg.is_psd``.
    ``Q = sigma_x`` (symmetrized) is accepted before the pencil, whose
    eigenvalues there miss 1 by about ``eps cond(sigma_x)``.
    """

    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", _frozen(self.value))

    @classmethod
    def for_model(cls, model, value):
        """Validate ``value`` against ``model.sigma_x`` and wrap it.

        Raises ``InvalidConditionalCov`` when the matrix interval constraint
        fails.
        """
        if isinstance(value, ConditionalCov):
            value = value.value
        try:
            value = linalg.check_symmetric(value, "conditional covariance")
        except Exception as exc:
            raise InvalidConditionalCov(str(exc)) from exc
        if value.shape != model.sigma_x.shape:
            raise InvalidConditionalCov(
                f"conditional covariance shape {value.shape} does not match "
                f"source covariance shape {model.sigma_x.shape}"
            )
        if np.array_equal(value, linalg.symmetrize(model.sigma_x)):
            return cls(value)
        phis = linalg.gen_eig_pencil(value, model.sigma_x)
        if not phis[-1] > COND_COV_MIN_EIG:
            raise InvalidConditionalCov(
                "conditional covariance is not strictly positive definite "
                f"relative to sigma_x (least pencil eigenvalue = {phis[-1]:.3e})"
            )
        if not linalg.is_psd(np.diag(1.0 - phis)):
            raise InvalidConditionalCov(
                "conditional covariance exceeds the source covariance "
                f"(largest pencil eigenvalue = {phis[0]:.3e})"
            )
        return cls(value)


@dataclass(frozen=True)
class GenEigResult:
    """Generalized eigenvalues of the two signal-plus-identity matrices.

    ``phis`` is descending; ``rho`` counts the eigenvalues above 1, which
    are the only ones contributing to the infinite-communication key rate.
    """

    phis: np.ndarray
    rho: int

    def __post_init__(self):
        object.__setattr__(self, "phis", _frozen(self.phis))


@dataclass(frozen=True)
class PerturbedPair:
    """A model with invertible observation matrices plus its rate gap.

    ``model_bar`` perturbs every singular value of B and E upward by
    ``alpha``; ``gap`` bounds (in nats) how much key rate the original model
    can exceed the perturbed one by, and vanishes as ``alpha -> 0``.
    """

    model_bar: GeneralModel
    alpha: float
    gap: float


def _count(name, value):
    """``operator.index(value)``, or a ``ValueError`` naming the parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def validate_model(m):
    """Check every invariant of a model; return it unchanged if valid.

    Raises ``NotPositiveDefinite`` (naming the offending matrix),
    ``DimensionMismatch``, ``AsymmetricInput`` or ``ModelValidationError``
    (a non-finite entry); ``linalg`` has the scale-relative tests.
    """
    if isinstance(m, GeneralModel):
        sigma_x = linalg.check_symmetric(m.sigma_x, "sigma_x")
        linalg.require_pd(sigma_x, "sigma_x")
        mx = sigma_x.shape[0]
        for name, mat in (("b", m.b), ("e", m.e)):
            if mat.ndim != 2 or mat.shape[1] != mx:
                raise DimensionMismatch(f"{name} has shape {mat.shape}, expected (*, {mx})")
            if not np.isfinite(mat).all():
                raise ModelValidationError(f"{name} has a non-finite entry")
        return m
    if isinstance(m, AlignedModel):
        for name in ("sigma_x", "sigma_wy", "sigma_wz"):
            mat = linalg.check_symmetric(getattr(m, name), name)
            linalg.require_pd(mat, name)
            if mat.shape != m.sigma_x.shape:
                raise DimensionMismatch(
                    f"{name} has shape {mat.shape}, expected {m.sigma_x.shape}"
                )
        return m
    raise TypeError(f"not a model: {type(m).__name__}")


def to_aligned(m) -> AlignedModel:
    """Reduce a general model whose B and E have full column rank to aligned
    form; an aligned model is returned as it is.

    ``(B^T B)^-1 B^T Y = X + (B^T B)^-1 B^T W_y`` is a sufficient statistic
    of Y for X, so the aligned model has the same rate region; its noise
    covariance is ``(B^T B)^-1 = R^-1 R^-T`` from the R factor of ``B = QR``
    (``B^-1 B^-T`` for a square B), and likewise for E.  The inverse never
    goes through ``B^T B``, whose rounding would square B's condition number.

    Raises ``NearSingular``, naming the matrix, for a B or E with fewer rows
    than ``mx`` or whose ``R^T R`` fails ``linalg.is_pd``; ``perturb_svd``
    makes such a model reducible.
    """
    if isinstance(m, AlignedModel):
        return m
    validate_model(m)
    noise = []
    for name, mat in (("b", m.b), ("e", m.e)):
        r = np.linalg.qr(mat, mode="r")
        if mat.shape[0] < m.mx or not linalg.is_pd(r.T @ r):
            raise NearSingular(f"{name} (shape {mat.shape}) does not have full column "
                               "rank; perturb_svd makes it invertible")
        r_inv = np.linalg.solve(r, np.eye(m.mx))
        noise.append(linalg.symmetrize(r_inv @ r_inv.T))
    return AlignedModel(m.sigma_x, *noise)


def to_general(m) -> GeneralModel:
    """Rewrite an aligned model with identity-covariance noise; a general
    model is returned as it is.

    Whitening each observation by the inverse square root of its noise
    covariance is information preserving, giving ``B = sigma_wy^-1/2`` and
    ``E = sigma_wz^-1/2``.
    """
    if isinstance(m, GeneralModel):
        return m
    validate_model(m)
    return GeneralModel(sigma_x=m.sigma_x, b=linalg.roots(m.sigma_wy)[1],
                        e=linalg.roots(m.sigma_wz)[1])


def whiten(m: AlignedModel):
    """The aligned route's one frame: ``(I, S^-1 sigma_wy S^-1, S^-1
    sigma_wz S^-1)``, ``S = sigma_x^1/2``, whose ``A`` has the rates of ``S A
    S`` in ``m``; with ``S`` and ``S^-1``."""
    s_half, s_half_inv = linalg.roots(m.sigma_x)
    noise = (linalg.congruence(s_half_inv, w) for w in (m.sigma_wy, m.sigma_wz))
    return AlignedModel(np.eye(m.mx), *noise), s_half, s_half_inv


def _square_embed(mat, mx):
    """Square m x m observation matrix equivalent to ``mat`` (k x m).

    Uses the SVD ``mat = U diag(s) Vh``: rotating the observation by U^T and
    padding with (or dropping) pure-noise coordinates preserves all
    information, leaving ``diag(s_padded) @ Vh`` with the singular values
    embedded in an mx x mx diagonal.
    """
    if mat.shape == (mx, mx):
        return np.asarray(mat, dtype=float)
    _, svals, vh = np.linalg.svd(mat)
    s_pad = np.zeros(mx)
    s_pad[: len(svals)] = svals
    return s_pad[:, None] * vh[:mx, :]


def perturb_svd(m: GeneralModel, alpha: float) -> PerturbedPair:
    """Perturb B and E into invertible matrices, reporting the rate gap.

    Every singular value of (square embeddings of) B and E is shifted up by
    ``alpha > 0``, making both matrices invertible so the aligned reduction
    applies.  The returned ``gap`` is
    ``log|E~ sigma_x E~^T + I|/2 - log|E sigma_x E^T + I|/2`` in nats: the
    worst-case key-rate surplus of the original model over the perturbed
    one.  It is nonnegative and vanishes as ``alpha -> 0``.
    """
    validate_model(m)
    if not alpha > 0.0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha!r}")
    mx = m.mx

    def perturbed(mat):
        u, svals, vh = np.linalg.svd(_square_embed(np.asarray(mat, dtype=float), mx))
        return u @ ((svals + alpha)[:, None] * vh)

    model_bar = GeneralModel(sigma_x=m.sigma_x, b=perturbed(m.b), e=perturbed(m.e))
    gap = 0.5 * (
        linalg.logdet_pd(model_bar.e @ m.sigma_x @ model_bar.e.T + np.eye(mx))
        - linalg.logdet_pd(m.e @ m.sigma_x @ m.e.T + np.eye(m.mz))
    )
    return PerturbedPair(model_bar=model_bar, alpha=float(alpha), gap=float(gap))


def gen_eigs(m: GeneralModel) -> GenEigResult:
    """Generalized eigenvalues of the pencil behind the key-rate limit.

    With ``S = sigma_x^1/2``, the pencil is
    ``(S B^T B S + I, S E^T E S + I)``, solved by ``linalg.gen_eig_pencil``.
    All values are positive; ``rho`` counts those above 1.
    """
    validate_model(m)
    s_half = linalg.roots(m.sigma_x)[0]
    eye = np.eye(m.mx)
    a = s_half @ (m.b.T @ m.b) @ s_half + eye
    c = s_half @ (m.e.T @ m.e) @ s_half + eye
    phis = linalg.gen_eig_pencil(linalg.symmetrize(a), linalg.symmetrize(c))
    rho = int(np.sum(phis > 1.0 + GEN_EIG_ONE_TOL))
    return GenEigResult(phis=phis, rho=rho)
