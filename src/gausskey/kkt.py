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
of the degraded channel, plus the invertibility of the regression
coefficient that makes the change of variables sound.

All residuals are Frobenius norms normalized by one plus the operand norms,
so a certificate is scale-free; ``RESIDUAL_KEYS`` lists the ten named
checks.  For mu = 0 the change of variables is undefined and its two
residuals are reported as 0.0 (not applicable).
"""

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CertificateError,
    ModelValidationError,
    MuZero,
    NonPsdInput,
    NotDegraded,
    NoValidMultiplier,
)
from .models import AlignedModel, ConditionalCov, conditional_cov, validate_model
from .rates import rates_aligned, rates_enhanced

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

M_MATRIX_PSD_TOL = 1e-8
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
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if linalg.min_eig(self.m_matrix) < -M_MATRIX_PSD_TOL:
            raise ValueError(
                f"M must be PSD to {M_MATRIX_PSD_TOL:g} "
                f"(min eig = {linalg.min_eig(self.m_matrix):.3e})"
            )
        missing = set(RESIDUAL_KEYS) - set(self.residuals)
        if missing:
            raise ValueError(f"residual map missing keys: {sorted(missing)}")

    @property
    def max_residual(self):
        return max(self.residuals.values())


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


def stationarity_matrix(m: AlignedModel, sigma, mu: float):
    """M(mu) = mu Q^-1 + (Q + sigma_wz)^-1 - (1 + mu)(Q + sigma_wy)^-1."""
    inv_s = linalg.inv_pd(sigma, "conditional covariance")
    inv_z = linalg.inv_pd(sigma + m.sigma_wz, "sigma + sigma_wz")
    inv_y = linalg.inv_pd(sigma + m.sigma_wy, "sigma + sigma_wy")
    return linalg.symmetrize(mu * inv_s + inv_z - (1.0 + mu) * inv_y)


def multiplier_composite(m: AlignedModel, sigma, mu: float):
    """PSD violation of M(mu) plus its complementarity residual."""
    m_mat = stationarity_matrix(m, sigma, mu)
    diff = m.sigma_x - sigma
    psd_gap = linalg.psd_violation(m_mat) / (1.0 + linalg.frob(m_mat))
    compl = linalg.rel_residual(m_mat @ diff, m_mat, diff)
    return psd_gap + compl, m_mat


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
    inv_s = linalg.inv_pd(sigma, "conditional covariance")
    inv_z = linalg.inv_pd(sigma + m.sigma_wz, "sigma + sigma_wz")
    inv_y = linalg.inv_pd(sigma + m.sigma_wy, "sigma + sigma_wy")
    top = linalg.gen_eig_pencil(linalg.symmetrize(inv_y - inv_z),
                                linalg.symmetrize(inv_s - inv_y))[0]
    return max(0.0, float(top))


def recover_multipliers(m: AlignedModel, sigma_star, rp: float) -> MultiplierRecovery:
    """Recover KKT multipliers (mu, M) for a candidate boundary optimum.

    When the rate constraint is slack (I_p < rp), complementary slackness
    forces mu = 0.  Otherwise mu is ``closed_form_mu``, the smallest
    multiplier that makes M PSD (see there for why it is the only
    admissible one); at a corner point with a multiplier plateau this is
    the extreme multiplier, where M is singular.

    Raises ``NoValidMultiplier`` when the composite residual at that
    multiplier (PSD violation of M plus the complementarity norm) exceeds
    ``ACCEPT_COMPOSITE``: the point is not optimal.
    """
    validate_model(m)
    sigma = conditional_cov(m, sigma_star).value
    ip = rates_aligned(m, sigma).rp
    slack = rp - ip
    rate_slack = slack > max(1e-7, 1e-6 * abs(rp))
    mu_star = 0.0 if rate_slack else closed_form_mu(m, sigma)
    comp, m_mat = multiplier_composite(m, sigma, mu_star)
    if comp > ACCEPT_COMPOSITE:
        if rate_slack:
            raise NoValidMultiplier(
                "rate constraint is slack so mu must vanish, but M(0) fails "
                f"the KKT conditions (composite residual {comp:.3e})"
            )
        raise NoValidMultiplier(
            f"the multiplier mu = {mu_star:.6g} that makes M PSD fails the KKT "
            f"conditions (composite residual {comp:.3e})"
        )
    m_mat = linalg.eig_floor(m_mat, 0.0) if linalg.min_eig(m_mat) > -M_MATRIX_PSD_TOL else m_mat
    diff = m.sigma_x - sigma
    residuals = {
        "psd_M": linalg.psd_violation(m_mat) / (1.0 + linalg.frob(m_mat)),
        "compl_slack_M": linalg.rel_residual(m_mat @ diff, m_mat, diff),
        "compl_slack_mu": abs(mu_star * slack) / (1.0 + abs(rp) + abs(ip)),
    }
    return MultiplierRecovery(mu=float(mu_star), m_matrix=m_mat, residuals=residuals)


def enhance(m: AlignedModel, sigma_star, mu: float, m_matrix) -> np.ndarray:
    """Enhanced Y-noise covariance defined by the multiplier pair.

        W~ = (1 + mu) [ (1 + mu)(Q + sigma_wy)^-1 + M ]^-1 - Q

    With KKT-consistent inputs this satisfies 0 < W~ <= sigma_wy and
    W~ <= sigma_wz (strictly below sigma_wz when mu > 0); M = 0 collapses it
    to sigma_wy, and mu = 0 with the recovered M gives exactly sigma_wz.

    Raises ``NonPsdInput`` when mu < 0 or M is not PSD.
    """
    validate_model(m)
    sigma = conditional_cov(m, sigma_star).value
    m_matrix = linalg.check_symmetric(m_matrix, "M")
    if mu < 0.0:
        raise NonPsdInput(f"mu must be nonnegative, got {mu!r}")
    if linalg.min_eig(m_matrix) < -M_MATRIX_PSD_TOL:
        raise NonPsdInput(
            f"M must be PSD (min eig = {linalg.min_eig(m_matrix):.3e})"
        )
    inv_y = linalg.inv_pd(sigma + m.sigma_wy, "sigma + sigma_wy")
    inner = (1.0 + mu) * inv_y + m_matrix
    wy_tilde = (1.0 + mu) * linalg.inv_pd(inner, "enhancement kernel") - sigma
    return linalg.symmetrize(wy_tilde)


def change_of_variable(m: AlignedModel, wy_tilde, sigma_star, mu: float) -> ChangeOfVariable:
    """Reparameterize the optimum by the conditional covariance given Z.

    Requires mu > 0 (otherwise ``MuZero``) and a strictly degraded enhanced
    model, W~ < sigma_wz (otherwise ``NotDegraded``).  The regression
    coefficient of the enhanced observation on the source is checked to be
    invertible (smallest singular value above 1e-10).
    """
    validate_model(m)
    if mu <= 0.0:
        raise MuZero("gamma = (1 + mu)/mu is undefined for mu = 0")
    sigma = conditional_cov(m, sigma_star).value
    wy_tilde = linalg.check_symmetric(wy_tilde, "enhanced noise")
    gap = m.sigma_wz - wy_tilde
    if linalg.min_eig(gap) <= 0.0:
        raise NotDegraded(
            "enhanced noise must lie strictly below sigma_wz "
            f"(min eig of gap = {linalg.min_eig(gap):.3e})"
        )
    n = m.mx
    sigma_yt = m.sigma_x + wy_tilde        # covariance of the enhanced observation
    sigma_z = m.sigma_x + m.sigma_wz
    inv_z = linalg.inv_pd(sigma_z, "sigma_z")
    k_xz = m.sigma_x @ inv_z
    sigma_xz = linalg.symmetrize(m.sigma_x - k_xz @ m.sigma_x)

    # regression of the enhanced observation on (Z, X); under the degraded
    # coupling its covariance with Z equals its own covariance and every
    # cross covariance with X equals sigma_x
    block = np.block([[sigma_z, m.sigma_x], [m.sigma_x, m.sigma_x]])
    rhs = np.hstack([sigma_yt, m.sigma_x])
    coeff = np.linalg.solve(block, rhs.T).T
    k_yz = coeff[:, :n]
    k_yx = coeff[:, n:]

    sv_min = float(np.linalg.svd(k_yx, compute_uv=False)[-1])
    if sv_min <= K_SMALLEST_SV:
        raise CertificateError(
            f"regression coefficient is numerically singular (sv_min = {sv_min:.3e})"
        )
    sigma_n2 = linalg.symmetrize(sigma_yt - k_yx @ m.sigma_x - k_yz @ sigma_yt)
    k_inv = np.linalg.solve(k_yx, np.eye(n))
    sigma_n3 = linalg.symmetrize(k_inv @ sigma_n2 @ k_inv.T)
    sigma_xuz = linalg.inv_pd(
        linalg.inv_pd(sigma, "sigma_star") + linalg.inv_pd(m.sigma_wz, "sigma_wz"),
        "posterior precision",
    )
    return ChangeOfVariable(
        sigma_xz=sigma_xz,
        sigma_xuz=sigma_xuz,
        k_xz=k_xz,
        k_yx=k_yx,
        k_yz=k_yz,
        sigma_n3=sigma_n3,
        gamma=(1.0 + mu) / mu,
    )


def _compute_residuals(m, sigma, mu, m_matrix, wy_tilde, rp):
    inv_s = linalg.inv_pd(sigma, "sigma_star")
    inv_y = linalg.inv_pd(sigma + m.sigma_wy, "sigma + sigma_wy")
    inv_z = linalg.inv_pd(sigma + m.sigma_wz, "sigma + sigma_wz")
    diff = m.sigma_x - sigma

    stat_lhs = mu * inv_s + inv_z
    stat_rhs = (1.0 + mu) * inv_y + m_matrix
    pair = rates_aligned(m, sigma)
    try:
        pair_t = rates_enhanced(m, wy_tilde, sigma)
    except ModelValidationError:
        pair_t = None

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
    except ModelValidationError:
        residuals["enhancement_def"] = float("inf")
        residuals["preservation"] = float("inf")
    else:
        enh_lhs = (1.0 + mu) * inv_yt
        enh_rhs = (1.0 + mu) * inv_y + m_matrix
        pres_lhs = (m.sigma_x + wy_tilde) @ inv_yt
        pres_rhs = (m.sigma_x + m.sigma_wy) @ inv_y
        residuals["enhancement_def"] = linalg.rel_residual(
            enh_lhs - enh_rhs, enh_lhs, enh_rhs
        )
        residuals["preservation"] = linalg.rel_residual(
            pres_lhs - pres_rhs, pres_lhs, pres_rhs
        )
    if pair_t is None:
        residuals["rate_match"] = float("inf")
    else:
        residuals["rate_match"] = abs(pair.rk - pair_t.rk) + abs(pair.rp - pair_t.rp)

    if mu <= 0.0:
        residuals["proportionality"] = 0.0
        residuals["k_invertibility"] = 0.0
    else:
        try:
            cov = change_of_variable(m, wy_tilde, sigma, mu)
        except (NotDegraded, CertificateError, MuZero):
            residuals["proportionality"] = float("inf")
            residuals["k_invertibility"] = float("inf")
        else:
            prop_lhs = linalg.inv_pd(cov.sigma_xuz, "sigma_xuz")
            prop_rhs = cov.gamma * linalg.inv_pd(
                cov.sigma_xuz + cov.sigma_n3, "sigma_xuz + sigma_n3"
            )
            residuals["proportionality"] = linalg.rel_residual(
                prop_lhs - prop_rhs, prop_lhs, prop_rhs
            )
            if mu > 1e-6:
                sv = float(np.linalg.svd(cov.k_yx, compute_uv=False)[-1])
                residuals["k_invertibility"] = max(0.0, K_SMALLEST_SV - sv)
            else:
                residuals["k_invertibility"] = 0.0
    return residuals


def verify_certificate(m: AlignedModel, cert: KktCertificate) -> dict:
    """Recompute every named residual of a certificate from its fields.

    Never raises on a bad certificate; residuals simply come out large (or
    infinite when a construction step is impossible).  The caller judges.
    """
    validate_model(m)
    sigma = np.asarray(cert.sigma_star.value, dtype=float)
    return _compute_residuals(
        m, sigma, cert.mu, np.asarray(cert.m_matrix, float),
        np.asarray(cert.wy_tilde, float), cert.rp,
    )


def certify(m: AlignedModel, sigma_star, rp: float) -> KktCertificate:
    """Full pipeline: recover multipliers, enhance, and verify.

    Raises ``NoValidMultiplier`` when the point is not optimal; otherwise
    returns the certificate with all ten residuals filled in.
    """
    sigma = conditional_cov(m, sigma_star)
    rec = recover_multipliers(m, sigma, rp)
    wy_tilde = enhance(m, sigma, rec.mu, rec.m_matrix)
    residuals = _compute_residuals(m, sigma.value, rec.mu, rec.m_matrix, wy_tilde, rp)
    return KktCertificate(
        sigma_star=sigma,
        mu=rec.mu,
        m_matrix=rec.m_matrix,
        wy_tilde=wy_tilde,
        rp=float(rp),
        residuals=residuals,
    )


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
