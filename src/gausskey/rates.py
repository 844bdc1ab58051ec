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

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import linalg
from .errors import InvalidEnhancedNoise
from .models import (
    GEN_EIG_ONE_TOL,
    AlignedModel,
    ConditionalCov,
    GeneralModel,
    _budget,
    gen_eigs,
    to_general,
)

_NEG_RATE_TOL = 1e-9


@dataclass(frozen=True)
class RatePair:
    """A (public-rate, key-rate) point in nats per source symbol.  Neither
    rate may be NaN; ``rp = inf`` (the oracle's answer at an unbounded
    budget) and a negative ``rk`` are kept."""

    rp: float
    rk: float

    def __post_init__(self):
        rp, rk = float(self.rp), float(self.rk)
        if math.isnan(rk):
            raise ValueError("rk must not be NaN")
        # round-off below 0 reads as 0; a budget further below, or NaN, is refused
        object.__setattr__(self, "rp", _budget(0.0 if -_NEG_RATE_TOL <= rp < 0.0 else rp))
        object.__setattr__(self, "rk", rk)


@dataclass(frozen=True)
class PointMeta:
    """Per-boundary-point solver metadata.

    ``s`` and ``t`` are the winning sweep cell, or for a sweep point won by
    the zero-communication corner ``Q = sigma_x`` its signal power
    ``b sigma_x b^T`` and ratio (None for points produced by the ascent
    solver); ``kkt_residual`` is the certificate or inner-solver residual
    attached to the point, and ``stats`` the ascent's ``SolveReport.stats``.
    """

    s: float | None
    t: float | None
    kkt_residual: float
    stats: dict | None = None


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

    def rk_at(self, rp):
        """Largest rk among boundary points with point.rp <= rp (step form)."""
        best = 0.0
        for p in self.points:
            if p.rp <= rp + 1e-12:
                best = max(best, p.rk)
        return best


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one constrained solve.

    ``value`` is the optimal objective (the public-rate contribution for
    ``inner_convex``, the key rate for ``solve_at_rate``); ``kkt_residual``
    is a first-order optimality residual: the barrier duality-gap proxy for
    the convex inner solve, and for ``solve_at_rate`` the composite of
    ``kkt.multiplier_test`` at the returned point.

    For ``inner_convex``, ``converged`` says that the last barrier stage,
    at the final weight, met its Newton-decrement test (a stalled warm
    schedule is first rerun in full).  A cell that is not converged still
    returns a strictly feasible optimum and its value, which may then lie
    above the cell's minimum.  For ``solve_at_rate`` it is that test's
    verdict, ``kkt_residual <= kkt.ACCEPT_COMPOSITE``; unconverged, the
    point is the best found within the budget (see there).  A converged
    point can still miss another certificate identity: ``kkt.certify`` has
    the last word.

    ``stats``, a read-only copy of the solve's work, is empty for
    ``inner_convex``.  ``solve_at_rate`` gives the ``route`` that decided
    (``corner`` at ``rp <= 1e-12``, ``commuting part``, ``path``, ``ascent``;
    ``none`` exactly when not converged), the counts ``polish_calls``,
    ``residual_calls``, ``residual_rows``, ``invalid_rows``, ``jacobians``,
    ``expm_calls`` (the face polish's Cayley rotations), ``path_steps``,
    ``path_failed_steps``, ``face_tries``, ``face_passes``, ``drop_tries``,
    ``drop_passes``, ``ascent_rate_calls`` and ``ascent_matrices``, and each
    phase's CPU seconds (0 if it did not run): ``commuting_part_cpu_s``,
    ``path_cpu_s`` and ``ascent_cpu_s``.
    """

    optimum: ConditionalCov
    value: float
    iterations: int
    kkt_residual: float
    converged: bool
    stats: MappingProxyType

    def __post_init__(self):
        object.__setattr__(self, "stats", MappingProxyType(dict(self.stats)))

    def __reduce__(self):  # a mappingproxy does not pickle: the fields, ``stats`` a dict
        return SolveReport, tuple(dict(self.stats) if f.name == "stats" else getattr(self, f.name)
                                  for f in fields(self))


def _rate_grid(rp_grid):
    """A boundary's public rates as floats: sorted, nonnegative, not NaN."""
    rp_grid = [float(r) for r in rp_grid]
    if any(y < x for x, y in zip(rp_grid, rp_grid[1:])):
        raise ValueError("rp_grid must be sorted ascending")
    if not all(rp >= 0.0 for rp in rp_grid):
        raise ValueError("public rates must be nonnegative")
    return rp_grid


def _hgap(cov_full, cov_cond, name):
    return 0.5 * (linalg.logdet_pd(cov_full, name) - linalg.logdet_pd(cov_cond, name))


def rates_general(m: GeneralModel, q) -> RatePair:
    """Evaluate (I_p, I_k) for a general model at conditional covariance q.

    Raises ``InvalidConditionalCov`` when q violates 0 < q <= sigma_x.
    """
    q = ConditionalCov.for_model(m, q).value
    eye_y = np.eye(m.my)
    eye_z = np.eye(m.mz)
    gx = _hgap(m.sigma_x, q, "sigma_x terms")
    gy = _hgap(m.b @ m.sigma_x @ m.b.T + eye_y, m.b @ q @ m.b.T + eye_y, "Y terms")
    gz = _hgap(m.e @ m.sigma_x @ m.e.T + eye_z, m.e @ q @ m.e.T + eye_z, "Z terms")
    return RatePair(rp=gx - gy, rk=gy - gz)


def _chol_terms(m: AlignedModel, q):
    """Lower Cholesky factors of ``Q``, ``Q + sigma_wz`` and ``Q + sigma_wy``
    for one conditional covariance or a stack of them, stacked on axis -3;
    raises ``NotPositiveDefinite`` as ``linalg.chol_lower`` does."""
    return linalg.chol_lower(np.stack((q, q + m.sigma_wz, q + m.sigma_wy), axis=-3),
                             "Q, Q + sigma_wz or Q + sigma_wy")


class _Point:
    """A tested conditional covariance ``q`` with its factors ``lower``
    (``_chol_terms``) and, on first read, their inverses ``inv``: what
    ``rates_aligned`` and ``kkt`` read in place of testing and factoring ``q``."""

    def __init__(self, m: AlignedModel, q):
        self.q, self.lower = q, _chol_terms(m, q)

    @cached_property
    def inv(self):
        return linalg.inv_chol(self.lower)


def _point(m: AlignedModel, q) -> _Point:
    """``q`` as a ``_Point`` of ``m``: a point passes through, anything else
    is tested by ``ConditionalCov.for_model`` and factored."""
    return q if isinstance(q, _Point) else _Point(m, ConditionalCov.for_model(m, q).value)


def _logdet_rates(ld_full, ld):
    """``(I_p, I_k)`` from the log-dets of ``sigma_x`` (``ld_full``) and of
    ``Q`` (``ld``), each plus 0, ``sigma_wz`` and the Y noise, for one point
    or a stack of them (``ld`` of shape ``(p, 3)``)."""
    gx, gz, gy = (0.5 * (np.asarray(ld_full) - ld)).T
    return gx - gy, gy - gz


def _rates_with_y_noise(m: AlignedModel, wy, point: _Point):
    """``(pair, lower)``: the rates at a ``_Point`` with the Y noise replaced
    by ``wy``, and the factors of ``Q + wy`` and ``sigma_x + wy`` they read."""
    lower = linalg.chol_lower(np.stack((point.q, m.sigma_x)) + wy, "Q + W_y or sigma_x + W_y")
    ld_q, ld_qz, _ = linalg.logdet_chol(point.lower)
    ld_qy, ld_xy = linalg.logdet_chol(lower)
    return RatePair(*_logdet_rates((*m._logdets[:2], ld_xy), (ld_q, ld_qz, ld_qy))), lower


def rates_aligned(m: AlignedModel, q) -> RatePair:
    """Evaluate (I_p, I_k) for an aligned model at conditional covariance q,
    or at a ``_Point`` of one, from its factors."""
    return RatePair(*_logdet_rates(m._logdets, linalg.logdet_chol(_point(m, q).lower)))


def rates_enhanced(m: AlignedModel, wy_tilde, q) -> RatePair:
    """Aligned functionals with the Y noise replaced by an enhanced one.

    ``wy_tilde`` must satisfy 0 < wy_tilde <= sigma_wy (the bound on their
    pencil); raises ``InvalidEnhancedNoise`` otherwise.  At a boundary
    optimum with its own enhancement, these match ``rates_aligned`` exactly.
    """
    try:
        wy_tilde = linalg.check_symmetric(wy_tilde, "enhanced noise")
    except Exception as exc:
        raise InvalidEnhancedNoise(str(exc)) from exc
    if not linalg.is_pd(wy_tilde):
        raise InvalidEnhancedNoise("enhanced noise covariance is not PD")
    phis = linalg.gen_eig_pencil(wy_tilde, m.sigma_wy)
    if not linalg.is_psd(np.diag(1.0 - phis)):
        raise InvalidEnhancedNoise(
            "enhanced noise covariance must not exceed sigma_wy "
            f"(largest pencil eigenvalue = {phis[0]:.3e})"
        )
    return _rates_with_y_noise(m, wy_tilde, _point(m, q))[0]


def asymptotic_limit(m) -> float:
    """Key-rate limit as the public rate grows without bound.

    Equals half the sum of the logs of the generalized eigenvalues above 1;
    exactly 0.0 when no eigenvalue exceeds 1 (e.g. identical observation
    channels).  Accepts general or aligned models.
    """
    res = gen_eigs(to_general(m))
    above = res.phis[res.phis > 1.0 + GEN_EIG_ONE_TOL]
    if above.size == 0:
        return 0.0
    return float(0.5 * np.sum(np.log(above)))
