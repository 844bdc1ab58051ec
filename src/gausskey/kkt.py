"""Multiplier recovery, noise enhancement, and machine-checked certificates.

A boundary point of an aligned model solves

    maximize I_k(Q)  subject to  I_p(Q) <= rp,  0 < Q <= sigma_x.

Its first-order conditions are, for some mu >= 0 and M >= 0,

    mu Q^-1 + (Q + sigma_wz)^-1 = (1 + mu)(Q + sigma_wy)^-1 + M,
    M (sigma_x - Q) = 0,
    mu (rp - I_p(Q)) = 0.

Given a candidate optimum this module recovers (mu, M), builds the enhanced
Y-noise covariance W~ defined by

    (1 + mu)(Q + W~)^-1 = (1 + mu)(Q + sigma_wy)^-1 + M,

which is squeezed between zero and both original noises and makes the triple
degraded, and then verifies every identity the construction promises:
the orderings, the invariance of the full-covariance/conditional-covariance
products under enhancement, the rate match between original and enhanced
functionals, and -- after changing variables to the conditional covariance
given Z -- the proportionality between that matrix and the effective noise
of the degraded channel.

The enhanced triple is degraded in the coupling ``Z = Y~ + N``, with
``Y~ = X + W~`` and ``N ~ N(0, sigma_wz - W~)`` independent of ``Y~``, so
every quantity of the change of variables has a closed form (see
``change_of_variable``).

All residuals are Frobenius norms normalized by one plus the operand norms
(``RESIDUAL_KEYS`` lists the ten named checks).  ``certify`` computes them
where ``solve_at_rate`` solves, on ``models.whiten``'s model, whose unit
scale is the source's own: no congruence of the model changes them.  For
mu = 0 the change of variables is undefined and its two residuals are
reported as 0.0 (not applicable); otherwise ``k_invertibility`` is 0.0 when
the change of variables passes its singular-value gate and infinite when it
cannot be built.
M's PSD is decided once, by ``recover_multipliers``, which returns its PSD
projection; ``enhance`` tests a given M with ``linalg.is_psd`` on ``S M S``.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CertificateError,
    InvalidConditionalCov,
    ModelValidationError,
    MuZero,
    NonPsdInput,
    NotDegraded,
    NoValidMultiplier,
)
from .models import AlignedModel, ConditionalCov, validate_model, whiten
from .rates import _chol_terms, _rates_with_y_noise, rates_aligned

RESIDUAL_KEYS = (
    "stationarity",
    "compl_slack_M",
    "compl_slack_mu",
    "enhancement_def",
    "order_wy",
    "order_wz",
    "preservation",
    "rate_match",
    "proportionality",
    "k_invertibility",
)

ACCEPT_COMPOSITE = 1e-6
K_SMALLEST_SV = 1e-10


@dataclass(frozen=True)
class MultiplierRecovery:
    """Recovered (mu, M) with the residuals of the recovery itself."""

    mu: float
    m_matrix: np.ndarray
    residuals: dict


@dataclass(frozen=True)
class KktCertificate:
    """A candidate optimum with its multipliers, enhancement, and residuals.

    ``rp`` records the public-rate budget the point was certified against
    (needed for the rate-slackness residual).  Immutable value object.
    """

    sigma_star: ConditionalCov
    mu: float
    m_matrix: np.ndarray
    wy_tilde: np.ndarray
    rp: float
    residuals: dict

    def __post_init__(self):
        if not 0.0 <= self.mu < np.inf:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu!r}")
        if np.isfinite(self.m_matrix).all() and not linalg.is_psd(self.m_matrix):
            raise ValueError(f"M must be PSD (min eig = {linalg.min_eig(self.m_matrix):.3e})")
        missing = set(RESIDUAL_KEYS) - set(self.residuals)
        if missing:
            raise ValueError(f"residual map missing keys: {sorted(missing)}")

    @property
    def max_residual(self):
        """The largest residual; a NaN residual counts as infinite."""
        return max(np.inf if np.isnan(v) else v for v in self.residuals.values())


@dataclass(frozen=True)
class ChangeOfVariable:
    """Quantities of the conditioned-on-Z reparameterization.

    ``sigma_xz`` is the conditional covariance of X given Z; ``sigma_xuz``
    the conditional covariance of X given (U, Z) at the optimum; ``k_xz``,
    ``k_yx``, ``k_yz`` the regression coefficients of X on Z and of the
    enhanced observation on (X, Z); ``sigma_n3`` the effective noise of the
    degraded channel after normalizing by ``k_yx``; ``gamma`` equals
    ``(1 + mu) / mu``.
    """

    sigma_xz: np.ndarray
    sigma_xuz: np.ndarray
    k_xz: np.ndarray
    k_yx: np.ndarray
    k_yz: np.ndarray
    sigma_n3: np.ndarray
    gamma: float


def _inverses(m: AlignedModel, sigma):
    """``Q^-1``, ``(Q + sigma_wz)^-1`` and ``(Q + sigma_wy)^-1``."""
    return linalg.inv_chol(_chol_terms(m, sigma))


def _check_mu(mu):
    if not 0.0 <= mu < np.inf:
        raise NonPsdInput(f"mu must be finite and nonnegative, got {mu!r}")


def stationarity_stack(inv, mu):
    """M(mu) from the inverses of ``rates._chol_terms``'s factors (stacked
    on axis -3) of one point or a stack of them, with one mu per point."""
    mu = np.asarray(mu, dtype=float)[..., None, None]
    return linalg.symmetrize(mu * inv[..., 0, :, :] + inv[..., 1, :, :]
                             - (1.0 + mu) * inv[..., 2, :, :])


def stationarity_matrix(m: AlignedModel, sigma, mu: float):
    """M(mu) = mu Q^-1 + (Q + sigma_wz)^-1 - (1 + mu)(Q + sigma_wy)^-1.

    Raises ``NonPsdInput`` unless mu is finite and nonnegative.
    """
    _check_mu(mu)
    return stationarity_stack(_inverses(m, sigma), mu)


def _composite_parts(m_mat, diff):
    """The multiplier composite's two parts, with ``diff = sigma_x - Q``."""
    return {"psd_M": linalg.psd_violation(m_mat) / (1.0 + linalg.frob(m_mat)),
            "compl_slack_M": linalg.rel_residual(m_mat @ diff, m_mat, diff)}


def multiplier_composite(m: AlignedModel, sigma, mu: float):
    """PSD violation of M(mu) plus its complementarity residual."""
    m_mat = stationarity_matrix(m, sigma, mu)
    return sum(_composite_parts(m_mat, m.sigma_x - sigma).values()), m_mat


def closed_form_mu(m: AlignedModel, sigma) -> float:
    """The one admissible rate multiplier at ``sigma`` when the rate binds.

    ``M(mu) = M(0) + mu D`` is affine in mu with a PD slope
    ``D = Q^-1 - (Q + sigma_wy)^-1``, so ``M(mu) >= 0`` exactly for mu at or
    above the top generalized eigenvalue of the pencil
    ``((Q + sigma_wy)^-1 - (Q + sigma_wz)^-1, D)``.  Above that value M is
    PD, and complementarity would force the corner ``Q = sigma_x``; so the
    threshold, floored at zero, is the multiplier, and there ``M`` is
    singular whenever it is positive.
    """
    inv_s, inv_z, inv_y = _inverses(m, sigma)
    top = linalg.gen_eig_pencil(linalg.symmetrize(inv_y - inv_z),
                                linalg.symmetrize(inv_s - inv_y))[0]
    return max(0.0, float(top))


def rate_is_slack(rp: float, ip: float) -> bool:
    """Whether the public rate ``ip`` leaves the budget ``rp`` slack, so
    complementary slackness forces ``mu = 0``: by more than
    ``max(1e-7, 1e-6 |rp|)``."""
    return rp - ip > max(1e-7, 1e-6 * abs(rp))


def recover_multipliers(m: AlignedModel, sigma_star, rp: float) -> MultiplierRecovery:
    """Recover KKT multipliers (mu, M) for a candidate boundary optimum.

    When the rate constraint is slack (I_p < rp), complementary slackness
    forces mu = 0.  Otherwise mu is ``closed_form_mu``, the smallest
    multiplier that makes M PSD (see there for why it is the only
    admissible one); at a corner point with a multiplier plateau this is
    the extreme multiplier, where M is singular.

    Raises ``NoValidMultiplier`` when the composite residual at that
    multiplier (PSD violation of M plus the complementarity norm) exceeds
    ``ACCEPT_COMPOSITE``: the point is not optimal.  Otherwise M is returned
    as its projection on the PSD cone, so this gate decides M's PSD once;
    ``psd_M`` and ``compl_slack_M`` are the composite's parts, on M unprojected.
    """
    validate_model(m)
    sigma = ConditionalCov.for_model(m, sigma_star).value
    ip = rates_aligned(m, sigma).rp
    slack = rp - ip
    rate_slack = rate_is_slack(rp, ip)
    mu_star = 0.0 if rate_slack else closed_form_mu(m, sigma)
    m_mat = stationarity_matrix(m, sigma, mu_star)
    residuals = _composite_parts(m_mat, m.sigma_x - sigma)
    if (comp := sum(residuals.values())) > ACCEPT_COMPOSITE:
        if rate_slack:
            raise NoValidMultiplier(
                "rate constraint is slack so mu must vanish, but M(0) fails "
                f"the KKT conditions (composite residual {comp:.3e})"
            )
        raise NoValidMultiplier(
            f"the multiplier mu = {mu_star:.6g} that makes M PSD fails the KKT "
            f"conditions (composite residual {comp:.3e})"
        )
    residuals["compl_slack_mu"] = abs(mu_star * slack) / (1.0 + abs(rp) + abs(ip))
    return MultiplierRecovery(mu=float(mu_star), m_matrix=linalg.eig_clip(m_mat, 0.0, np.inf),
                              residuals=residuals)


def enhance(m: AlignedModel, sigma_star, mu: float, m_matrix) -> np.ndarray:
    """Enhanced Y-noise covariance defined by the multiplier pair.

        W~ = (1 + mu) [ (1 + mu)(Q + sigma_wy)^-1 + M ]^-1 - Q

    With KKT-consistent inputs this satisfies 0 < W~ <= sigma_wy and
    W~ <= sigma_wz (strictly below sigma_wz when mu > 0); M = 0 collapses it
    to sigma_wy, and mu = 0 with the recovered M gives exactly sigma_wz.

    Raises ``NonPsdInput`` when mu is not finite and nonnegative or ``S M S``
    (``S = sigma_x^1/2``) fails ``linalg.is_psd``.
    """
    validate_model(m)
    sigma = ConditionalCov.for_model(m, sigma_star).value
    m_matrix = linalg.check_symmetric(m_matrix, "M")
    _check_mu(mu)
    m_white = linalg.congruence(linalg.roots(m.sigma_x)[0], m_matrix)
    if not linalg.is_psd(m_white):
        raise NonPsdInput(f"M must be PSD (min eig of S M S = {linalg.min_eig(m_white):.3e})")
    inv_y = linalg.inv_pd(sigma + m.sigma_wy, "sigma + sigma_wy")
    inner = (1.0 + mu) * inv_y + m_matrix
    wy_tilde = (1.0 + mu) * linalg.inv_pd(inner, "enhancement kernel") - sigma
    return linalg.symmetrize(wy_tilde)


def change_of_variable(m: AlignedModel, wy_tilde, sigma_star, mu: float) -> ChangeOfVariable:
    """Reparameterize the optimum by the conditional covariance given Z.

    Requires mu > 0 (otherwise ``MuZero``) and a strictly degraded enhanced
    model, W~ < sigma_wz (otherwise ``NotDegraded``).  In the degraded
    coupling ``Z = Y~ + N``, ``N ~ N(0, gap)`` with ``gap = sigma_wz - W~``,
    the regression of ``Y~ = X + W~`` on ``(Z, X)`` has the closed form

        k_yz = W~ sigma_wz^-1,    k_yx = gap sigma_wz^-1,

    with residual covariance ``W~ sigma_wz^-1 gap``; normalizing it by
    ``k_yx`` gives the effective noise

        sigma_n3 = W~ gap^-1 sigma_wz = (W~^-1 - sigma_wz^-1)^-1.

    ``k_yx`` is checked to be invertible (smallest singular value above
    1e-10, ``CertificateError`` otherwise).
    """
    validate_model(m)
    if mu <= 0.0:
        raise MuZero("gamma = (1 + mu)/mu is undefined for mu = 0")
    sigma = ConditionalCov.for_model(m, sigma_star).value
    wy_tilde = linalg.check_symmetric(wy_tilde, "enhanced noise")
    gap = m.sigma_wz - wy_tilde
    if linalg.min_eig(gap) <= 0.0:
        raise NotDegraded(
            "enhanced noise must lie strictly below sigma_wz "
            f"(min eig of gap = {linalg.min_eig(gap):.3e})"
        )
    inv_wz = linalg.inv_pd(m.sigma_wz, "sigma_wz")
    k_yx = gap @ inv_wz
    sv_min = float(np.linalg.svd(k_yx, compute_uv=False)[-1])
    if sv_min <= K_SMALLEST_SV:
        raise CertificateError(
            f"regression coefficient is numerically singular (sv_min = {sv_min:.3e})"
        )
    k_xz = m.sigma_x @ linalg.inv_pd(m.sigma_x + m.sigma_wz, "sigma_z")
    return ChangeOfVariable(
        sigma_xz=linalg.symmetrize(m.sigma_x - k_xz @ m.sigma_x),
        sigma_xuz=linalg.inv_pd(linalg.inv_pd(sigma, "sigma_star") + inv_wz,
                                "posterior precision"),
        k_xz=k_xz,
        k_yx=k_yx,
        k_yz=wy_tilde @ inv_wz,
        sigma_n3=linalg.symmetrize(wy_tilde @ np.linalg.solve(gap, m.sigma_wz)),
        gamma=(1.0 + mu) / mu,
    )


def _compute_residuals(m, sigma, mu, m_matrix, wy_tilde, rp):
    inv_s, inv_z, inv_y = _inverses(m, sigma)
    diff = m.sigma_x - sigma

    stat_lhs = mu * inv_s + inv_z
    stat_rhs = (1.0 + mu) * inv_y + m_matrix
    pair = rates_aligned(m, sigma)

    residuals = {
        "stationarity": linalg.rel_residual(stat_lhs - stat_rhs, stat_lhs, stat_rhs),
        "compl_slack_M": linalg.rel_residual(m_matrix @ diff, m_matrix, diff),
        "compl_slack_mu": abs(mu * (rp - pair.rp)) / (1.0 + abs(rp) + abs(pair.rp)),
        "order_wy": (linalg.psd_violation(m.sigma_wy - wy_tilde)
                     + linalg.psd_violation(wy_tilde))
                    / (1.0 + linalg.frob(m.sigma_wy) + linalg.frob(wy_tilde)),
        "order_wz": linalg.psd_violation(m.sigma_wz - wy_tilde)
                    / (1.0 + linalg.frob(m.sigma_wz) + linalg.frob(wy_tilde)),
    }
    try:
        inv_yt = linalg.inv_pd(sigma + wy_tilde, "sigma + enhanced noise")
        # ungated: order_wy reports how far W~ is from 0 < W~ <= sigma_wy
        pair_t = _rates_with_y_noise(m, wy_tilde, sigma)
    except ModelValidationError:
        residuals.update(dict.fromkeys(("enhancement_def", "preservation", "rate_match"), np.inf))
    else:
        enh_lhs = (1.0 + mu) * inv_yt
        enh_rhs = (1.0 + mu) * inv_y + m_matrix
        pres_lhs = (m.sigma_x + wy_tilde) @ inv_yt
        pres_rhs = (m.sigma_x + m.sigma_wy) @ inv_y
        residuals["enhancement_def"] = linalg.rel_residual(enh_lhs - enh_rhs, enh_lhs, enh_rhs)
        residuals["preservation"] = linalg.rel_residual(pres_lhs - pres_rhs, pres_lhs, pres_rhs)
        residuals["rate_match"] = abs(pair.rk - pair_t.rk) + abs(pair.rp - pair_t.rp)

    if mu <= 0.0:
        residuals["proportionality"] = residuals["k_invertibility"] = 0.0
        return residuals
    residuals["proportionality"] = residuals["k_invertibility"] = float("inf")
    try:
        # not degraded or a singular regression coefficient: no change of
        # variables, so neither of its two checks can pass; a factor that
        # fails after it fails the proportionality check only
        cov = change_of_variable(m, wy_tilde, sigma, mu)
        residuals["k_invertibility"] = 0.0  # its singular-value gate passed
        prop_lhs = linalg.inv_pd(cov.sigma_xuz, "sigma_xuz")
        prop_rhs = cov.gamma * linalg.inv_pd(cov.sigma_xuz + cov.sigma_n3, "sigma_xuz + sigma_n3")
    except (CertificateError, ModelValidationError):
        return residuals
    residuals["proportionality"] = linalg.rel_residual(prop_lhs - prop_rhs, prop_lhs, prop_rhs)
    return residuals


def verify_certificate(m: AlignedModel, cert: KktCertificate) -> dict:
    """Recompute every named residual of a certificate from its fields, in
    ``certify``'s frame: ``S^-1 Q S^-1``, ``S M S`` and ``S^-1 W~ S^-1``.

    Never raises on a bad certificate; residuals simply come out large (or
    infinite when a construction step is impossible, a NaN one included).
    A ``sigma_star`` outside the matrix interval, or an ``m_matrix`` or
    ``wy_tilde`` that is not a finite ``(mx, mx)`` matrix, makes every
    residual infinite.  The caller judges.
    """
    validate_model(m)
    m_matrix, wy_tilde = (np.asarray(a, float) for a in (cert.m_matrix, cert.wy_tilde))
    try:
        sigma = ConditionalCov.for_model(m, cert.sigma_star).value
    except InvalidConditionalCov:
        sigma = None
    if (sigma is None or not m_matrix.shape == wy_tilde.shape == sigma.shape
            or not (np.isfinite(m_matrix).all() and np.isfinite(wy_tilde).all())):
        return dict.fromkeys(RESIDUAL_KEYS, float("inf"))
    w, s_half, s_half_inv = whiten(m)
    residuals = _compute_residuals(w, linalg.congruence(s_half_inv, sigma), cert.mu,
                                   linalg.congruence(s_half, m_matrix),
                                   linalg.congruence(s_half_inv, wy_tilde), cert.rp)
    return {k: np.inf if np.isnan(v) else v for k, v in residuals.items()}


def certify(m: AlignedModel, sigma_star, rp: float) -> KktCertificate:
    """Full pipeline on ``w, S, S^-1 = models.whiten(m)`` at ``A = S^-1 Q
    S^-1``: recover multipliers, enhance, and verify.

    Raises ``NoValidMultiplier`` when the point is not optimal; otherwise
    returns the certificate with all ten residuals, ``S^-1 M_w S^-1`` and
    ``S W~_w S``.
    """
    sigma = ConditionalCov.for_model(m, sigma_star)
    w, s_half, s_half_inv = whiten(m)
    a = linalg.congruence(s_half_inv, sigma.value)
    rec = recover_multipliers(w, a, rp)
    wy_tilde = enhance(w, a, rec.mu, rec.m_matrix)
    return KktCertificate(sigma_star=sigma, mu=rec.mu, rp=float(rp),
                          m_matrix=linalg.congruence(s_half_inv, rec.m_matrix),
                          wy_tilde=linalg.congruence(s_half, wy_tilde),
                          residuals=_compute_residuals(w, a, rec.mu, rec.m_matrix, wy_tilde, rp))


def certificate_to_dict(cert: KktCertificate) -> dict:
    return {
        "sigma_star": cert.sigma_star.value.tolist(),
        "mu": cert.mu,
        "m_matrix": np.asarray(cert.m_matrix).tolist(),
        "wy_tilde": np.asarray(cert.wy_tilde).tolist(),
        "rp": cert.rp,
        "residuals": {k: float(v) for k, v in cert.residuals.items()},
        "max_residual": float(cert.max_residual),
    }


def certificate_from_dict(obj: dict) -> KktCertificate:
    return KktCertificate(
        sigma_star=ConditionalCov(np.array(obj["sigma_star"], dtype=float)),
        mu=float(obj["mu"]),
        m_matrix=np.array(obj["m_matrix"], dtype=float),
        wy_tilde=np.array(obj["wy_tilde"], dtype=float),
        rp=float(obj["rp"]),
        residuals={k: float(v) for k, v in obj["residuals"].items()},
    )


def certificate_to_json(cert: KktCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)
