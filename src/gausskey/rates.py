"""Rate functionals and the rate-region data types.

For a conditional covariance Q of the source given the auxiliary
(quantization) variable, the two functionals are, in nats per source symbol,

    public rate   I_p(Q) = h-gap of X minus h-gap of Y,
    key rate      I_k(Q) = h-gap of Y minus h-gap of Z,

where the "h-gap" of an observation is the log-det ratio between its
covariance and its conditional covariance given the auxiliary variable.
A rate pair (R_p, R_k) is achievable iff R_p >= I_p(Q) and R_k <= I_k(Q)
for some 0 < Q <= sigma_x.

Every log-det is evaluated via Cholesky, and every ratio as a difference of
log-dets.  I_k may be negative for some Q on non-degraded models; the
functionals return the raw value and only boundary reporting clamps at 0.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidEnhancedNoise
from .models import (
    GEN_EIG_ONE_TOL,
    AlignedModel,
    GeneralModel,
    conditional_cov,
    gen_eigs,
    to_general,
)

_NEG_RATE_TOL = 1e-9


@dataclass(frozen=True)
class RatePair:
    """A (public-rate, key-rate) point in nats per source symbol."""

    rp: float
    rk: float

    def __post_init__(self):
        rp = float(self.rp)
        if rp < 0.0:
            if rp < -_NEG_RATE_TOL:
                raise ValueError(f"rp must be nonnegative, got {rp!r}")
            rp = 0.0
        object.__setattr__(self, "rp", rp)
        object.__setattr__(self, "rk", float(self.rk))


@dataclass(frozen=True)
class PointMeta:
    """Per-boundary-point solver metadata.

    ``s`` and ``t`` are the winning sweep cell, or for a sweep point won by
    the zero-communication corner ``Q = sigma_x`` its signal power
    ``b sigma_x b^T`` and ratio (None for points produced by the ascent
    solver); ``kkt_residual`` is the certificate or inner-solver residual
    attached to the point.
    """

    s: float | None
    t: float | None
    kkt_residual: float


@dataclass(frozen=True)
class RegionBoundary:
    """An R_k(R_p) boundary: points sorted by rp with nondecreasing rk."""

    points: tuple
    model_digest: str
    solver_meta: tuple = field(default=())

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "solver_meta", tuple(self.solver_meta))
        rps = [p.rp for p in pts]
        rks = [p.rk for p in pts]
        if any(b < a - 1e-12 for a, b in zip(rps, rps[1:])):
            raise ValueError("boundary points must be sorted by rp")
        if any(b < a - 1e-9 for a, b in zip(rks, rks[1:])):
            raise ValueError("boundary rk values must be nondecreasing")

    def rk_at(self, rp, tol=1e-12):
        """Largest rk among boundary points with point.rp <= rp (step form)."""
        best = 0.0
        for p in self.points:
            if p.rp <= rp + tol:
                best = max(best, p.rk)
        return best


def _hgap(cov_full, cov_cond, name):
    return 0.5 * (linalg.logdet_pd(cov_full, name) - linalg.logdet_pd(cov_cond, name))


def rates_general(m: GeneralModel, q) -> RatePair:
    """Evaluate (I_p, I_k) for a general model at conditional covariance q.

    Raises ``InvalidConditionalCov`` when q violates 0 < q <= sigma_x.
    """
    q = conditional_cov(m, q).value
    eye_y = np.eye(m.my)
    eye_z = np.eye(m.mz)
    gx = _hgap(m.sigma_x, q, "sigma_x terms")
    gy = _hgap(m.b @ m.sigma_x @ m.b.T + eye_y, m.b @ q @ m.b.T + eye_y, "Y terms")
    gz = _hgap(m.e @ m.sigma_x @ m.e.T + eye_z, m.e @ q @ m.e.T + eye_z, "Z terms")
    return RatePair(rp=gx - gy, rk=gy - gz)


def rates_aligned(m: AlignedModel, q) -> RatePair:
    """Evaluate (I_p, I_k) for an aligned model at conditional covariance q."""
    q = conditional_cov(m, q).value
    gx = _hgap(m.sigma_x, q, "sigma_x terms")
    gy = _hgap(m.sigma_x + m.sigma_wy, q + m.sigma_wy, "Y terms")
    gz = _hgap(m.sigma_x + m.sigma_wz, q + m.sigma_wz, "Z terms")
    return RatePair(rp=gx - gy, rk=gy - gz)


def rates_enhanced(m: AlignedModel, wy_tilde, q) -> RatePair:
    """Aligned functionals with the Y noise replaced by an enhanced one.

    ``wy_tilde`` must satisfy 0 < wy_tilde <= sigma_wy; raises
    ``InvalidEnhancedNoise`` otherwise.  At a boundary optimum with its own
    enhancement, these match ``rates_aligned`` exactly.
    """
    try:
        wy_tilde = linalg.check_symmetric(wy_tilde, "enhanced noise")
    except Exception as exc:
        raise InvalidEnhancedNoise(str(exc)) from exc
    if not linalg.is_pd(wy_tilde):
        raise InvalidEnhancedNoise("enhanced noise covariance is not PD")
    if not linalg.is_psd(m.sigma_wy - wy_tilde):
        raise InvalidEnhancedNoise(
            "enhanced noise covariance must not exceed sigma_wy "
            f"(min eig of difference = {linalg.min_eig(m.sigma_wy - wy_tilde):.3e})"
        )
    q = conditional_cov(m, q).value
    gx = _hgap(m.sigma_x, q, "sigma_x terms")
    gy = _hgap(m.sigma_x + wy_tilde, q + wy_tilde, "enhanced Y terms")
    gz = _hgap(m.sigma_x + m.sigma_wz, q + m.sigma_wz, "Z terms")
    return RatePair(rp=gx - gy, rk=gy - gz)


def asymptotic_limit(m) -> float:
    """Key-rate limit as the public rate grows without bound.

    Equals half the sum of the logs of the generalized eigenvalues above 1;
    exactly 0.0 when no eigenvalue exceeds 1 (e.g. identical observation
    channels).  Accepts general or aligned models.
    """
    if isinstance(m, AlignedModel):
        m = to_general(m)
    res = gen_eigs(m)
    above = res.phis[res.phis > 1.0 + GEN_EIG_ONE_TOL]
    if above.size == 0:
        return 0.0
    return float(0.5 * np.sum(np.log(above)))
