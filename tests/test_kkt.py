import json

import numpy as np
import pytest

from gausskey import (
    AlignedModel,
    certify,
    change_of_variable,
    enhance,
    kkt,
    linalg,
    rates_aligned,
    rates_enhanced,
    recover_multipliers,
    solve_at_rate,
    verify_certificate,
)
from gausskey.errors import MuZero, NonPsdInput, NotDegraded, NoValidMultiplier

from conftest import random_aligned, random_conditional, random_spd, rng_for


@pytest.fixture(scope="module")
def certified_points(scalar_aligned):
    """A spread of certified optima reused across identity checks."""
    rng = rng_for(51)
    cases = []
    models = [scalar_aligned]
    models += [random_aligned(rng_for(52 + k), m=2, degraded=True) for k in range(2)]
    models += [random_aligned(rng_for(55 + k), m=2, degraded=False) for k in range(2)]
    for m in models:
        for rp in (0.4, 1.5):
            report = solve_at_rate(m, rp)
            cert = certify(m, report.optimum, rp)
            cases.append((m, cert))
    return cases


# ---------------------------------------------------------------------------
# multiplier recovery
# ---------------------------------------------------------------------------

def test_corner_multiplier_scalar_closed_form(scalar_aligned):
    # at the zero-communication corner the full covariance is optimal with
    # an active rate constraint; M = 0 forces the multiplier
    #   mu = [1/(sx+wy) - 1/(sx+wz)] / [1/sx - 1/(sx+wy)]
    rec = recover_multipliers(scalar_aligned, np.array([[2.0]]), 0.0)
    want = (1.0 / 3.0 - 1.0 / 4.0) / (1.0 / 2.0 - 1.0 / 3.0)
    assert rec.mu == pytest.approx(want, abs=1e-9)
    assert linalg.frob(rec.m_matrix) < 1e-9


def test_converged_optimum_recovers_cleanly(scalar_aligned):
    report = solve_at_rate(scalar_aligned, 0.5)
    rec = recover_multipliers(scalar_aligned, report.optimum, 0.5)
    assert rec.mu > 0.0
    assert all(v < 1e-6 for v in rec.residuals.values())


def test_non_optimal_point_rejected(scalar_aligned):
    with pytest.raises(NoValidMultiplier):
        recover_multipliers(scalar_aligned, np.array([[1.0]]), 0.5)


def test_slack_rate_with_wrong_sign_rejected(scalar_aligned):
    # rate constraint slack forces mu = 0, but M(0) is negative for a
    # degraded model away from its unconstrained optimum
    with pytest.raises(NoValidMultiplier):
        recover_multipliers(scalar_aligned, np.array([[0.5]]), 10.0)


# ---------------------------------------------------------------------------
# closed-form multiplier
# ---------------------------------------------------------------------------

def _reference_mu(m, sigma):
    """Root of the smallest eigenvalue of M(mu), by the bracket and bisection
    the multiplier recovery used before the closed form."""

    def min_eig_m(mu):
        return linalg.min_eig(kkt.stationarity_matrix(m, sigma, mu))

    if min_eig_m(0.0) >= 0.0:
        return 0.0
    hi = 1e-8
    for _ in range(80):
        if min_eig_m(hi) > 0.0:
            break
        hi *= 4.0
    else:
        raise AssertionError("no bracket for the multiplier")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if min_eig_m(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16 * (1.0 + hi):
            break
    return hi


def _closed_form_cases():
    # per dimension: degraded (mu > 0 throughout), reversed degraded
    # (M(0) PD, so mu = 0) and unordered noises, at random 0 < Q < sigma_x
    rng = rng_for(64)
    for mx in range(1, 7):
        for kind in ("degraded", "reversed", "unordered"):
            m = random_aligned(rng, m=mx, degraded=kind == "degraded")
            if kind == "reversed":
                m = AlignedModel(sigma_x=m.sigma_x, sigma_wy=m.sigma_wz + m.sigma_wy,
                                 sigma_wz=m.sigma_wz)
            for _ in range(3):
                yield mx, kind, m, random_conditional(rng, m.sigma_x)


def test_closed_form_mu_matches_eigenvalue_root():
    kinds = set()
    for mx, kind, m, sigma in _closed_form_cases():
        got = kkt.closed_form_mu(m, sigma)
        want = _reference_mu(m, sigma)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0), (mx, kind)
        m_mat = kkt.stationarity_matrix(m, sigma, got)
        tol = 1e-10 * (1.0 + linalg.frob(m_mat))
        assert linalg.min_eig(m_mat) >= -tol
        if got > 0.0:
            assert linalg.min_eig(m_mat) <= tol  # singular
        kinds.add((kind, got > 0.0))
    assert {("degraded", True), ("reversed", False)} <= kinds


def test_recovery_uses_the_closed_form(certified_points):
    for m, cert in certified_points:
        if cert.mu > 0.0:
            assert cert.mu == kkt.closed_form_mu(m, cert.sigma_star.value)


# ---------------------------------------------------------------------------
# enhancement
# ---------------------------------------------------------------------------

def test_enhance_zero_m_returns_original_noise(scalar_aligned):
    wy_tilde = enhance(scalar_aligned, np.array([[1.2]]), 0.7, np.zeros((1, 1)))
    assert np.allclose(wy_tilde, scalar_aligned.sigma_wy, atol=1e-10)


def test_enhance_mu_zero_returns_z_noise():
    # with the multiplier at zero, the recovered M turns the enhanced noise
    # into the eavesdropper's noise exactly; needs sigma_wz <= sigma_wy so
    # the slack-rate branch is consistent
    rng = rng_for(61)
    wz = random_spd(rng, 2)
    m = AlignedModel(sigma_x=random_spd(rng, 2),
                     sigma_wy=wz + random_spd(rng, 2), sigma_wz=wz)
    sigma = 0.5 * m.sigma_x
    m_mat = kkt.stationarity_matrix(m, sigma, 0.0)
    assert linalg.min_eig(m_mat) > -1e-12
    wy_tilde = enhance(m, sigma, 0.0, linalg.eig_floor(m_mat, 0.0))
    assert np.allclose(wy_tilde, m.sigma_wz, atol=1e-10)


def test_enhance_rejects_bad_inputs(scalar_aligned):
    with pytest.raises(NonPsdInput):
        enhance(scalar_aligned, np.array([[1.0]]), -0.1, np.zeros((1, 1)))
    with pytest.raises(NonPsdInput):
        enhance(scalar_aligned, np.array([[1.0]]), 0.5, np.array([[-1.0]]))


def test_enhancement_orderings_at_optimum(certified_points):
    for m, cert in certified_points:
        wy_tilde = cert.wy_tilde
        assert linalg.psd_violation(m.sigma_wy - wy_tilde) < 1e-8
        assert linalg.psd_violation(m.sigma_wz - wy_tilde) < 1e-8
        assert linalg.min_eig(wy_tilde) > 0.0
        if cert.mu > 1e-6:
            # enhancement strictly below the eavesdropper noise
            assert linalg.min_eig(m.sigma_wz - wy_tilde) > 1e-10


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def test_certificates_pass_on_converged_points(certified_points):
    for _, cert in certified_points:
        assert cert.max_residual < 1e-6
        assert set(cert.residuals) == set(kkt.RESIDUAL_KEYS)


def test_perturbed_multiplier_breaks_stationarity(scalar_aligned):
    report = solve_at_rate(scalar_aligned, 0.3)
    cert = certify(scalar_aligned, report.optimum, 0.3)
    broken = kkt.KktCertificate(
        sigma_star=cert.sigma_star,
        mu=cert.mu * 1.1,
        m_matrix=cert.m_matrix,
        wy_tilde=cert.wy_tilde,
        rp=cert.rp,
        residuals=cert.residuals,
    )
    residuals = verify_certificate(scalar_aligned, broken)
    assert residuals["stationarity"] > 1e-3


def test_mu_zero_certificate_degraded_equal():
    # equal noises: every feasible point is optimal with mu = 0, M = 0, and
    # the enhanced noise equals both originals
    rng = rng_for(62)
    wy = random_spd(rng, 2)
    m = AlignedModel(sigma_x=random_spd(rng, 2), sigma_wy=wy, sigma_wz=wy)
    report = solve_at_rate(m, 0.8)
    cert = certify(m, report.optimum, 0.8)
    assert cert.mu == 0.0
    assert cert.max_residual < 1e-8
    assert np.allclose(cert.wy_tilde, wy, atol=1e-8)
    pair = rates_aligned(m, cert.sigma_star.value)
    pair_t = rates_enhanced(m, cert.wy_tilde, cert.sigma_star.value)
    assert pair.rk == pytest.approx(0.0, abs=1e-10)
    assert pair_t.rk == pytest.approx(0.0, abs=1e-10)


def test_preservation_identity_and_rate_match(certified_points):
    for m, cert in certified_points:
        sigma = cert.sigma_star.value
        lhs = (m.sigma_x + cert.wy_tilde) @ linalg.inv_pd(sigma + cert.wy_tilde)
        rhs = (m.sigma_x + m.sigma_wy) @ linalg.inv_pd(sigma + m.sigma_wy)
        assert linalg.rel_residual(lhs - rhs, lhs, rhs) < 1e-8
        pair = rates_aligned(m, sigma)
        pair_t = rates_enhanced(m, cert.wy_tilde, sigma)
        assert abs(pair.rk - pair_t.rk) < 1e-8
        assert abs(pair.rp - pair_t.rp) < 1e-8


def test_gaussian_extremal_property(certified_points):
    # the enhanced weighted objective is globally maximized by the certified
    # optimum over the matrix interval
    rng = rng_for(63)
    for m, cert in certified_points:
        sigma_star = cert.sigma_star.value
        mu = cert.mu

        def g(sig):
            return (
                mu * linalg.logdet_pd(sig)
                + linalg.logdet_pd(sig + m.sigma_wz)
                - (1.0 + mu) * linalg.logdet_pd(sig + cert.wy_tilde)
            )

        g_star = g(sigma_star)
        for _ in range(500):
            sig = random_conditional(rng, m.sigma_x, lo=1e-4)
            assert g(sig) <= g_star + 1e-8


# ---------------------------------------------------------------------------
# change of variable
# ---------------------------------------------------------------------------

def test_change_of_variable_gates(scalar_aligned):
    with pytest.raises(MuZero):
        change_of_variable(scalar_aligned, scalar_aligned.sigma_wy,
                           np.array([[1.0]]), 0.0)
    with pytest.raises(NotDegraded):
        # enhanced noise not strictly below the eavesdropper noise
        change_of_variable(scalar_aligned, scalar_aligned.sigma_wz,
                           np.array([[1.0]]), 0.5)


def test_change_of_variable_scalar_formulas(scalar_aligned):
    report = solve_at_rate(scalar_aligned, 0.5)
    cert = certify(scalar_aligned, report.optimum, 0.5)
    cov = change_of_variable(scalar_aligned, cert.wy_tilde,
                             cert.sigma_star.value, cert.mu)
    sx = 2.0
    var_yt = sx + float(cert.wy_tilde[0, 0])
    var_z = sx + 2.0
    schur = sx - sx * sx / var_z
    k_expect = (1.0 - var_yt / var_z) * sx / schur
    assert cov.k_yx[0, 0] == pytest.approx(k_expect, rel=1e-10)
    assert cov.gamma == pytest.approx((1.0 + cert.mu) / cert.mu, rel=1e-12)
    assert cov.sigma_xz[0, 0] == pytest.approx(sx - sx * sx / var_z, rel=1e-12)
    sigma = float(cert.sigma_star.value[0, 0])
    assert cov.sigma_xuz[0, 0] == pytest.approx(
        1.0 / (1.0 / sigma + 1.0 / 2.0), rel=1e-12
    )


def test_proportionality_at_certified_optima(certified_points):
    for m, cert in certified_points:
        if cert.mu <= 1e-9:
            continue
        cov = change_of_variable(m, cert.wy_tilde, cert.sigma_star.value, cert.mu)
        lhs = linalg.inv_pd(cov.sigma_xuz)
        rhs = cov.gamma * linalg.inv_pd(cov.sigma_xuz + cov.sigma_n3)
        assert linalg.rel_residual(lhs - rhs, lhs, rhs) < 1e-6
        # equivalent statement: sigma_n3 = (gamma - 1) sigma_xuz
        assert np.allclose(cov.sigma_n3, (cov.gamma - 1.0) * cov.sigma_xuz,
                           rtol=1e-5, atol=1e-10)
        # determinant additivity of proportional matrices
        n = m.mx
        lhs_det = (np.linalg.det(cov.sigma_xuz) ** (1.0 / n)
                   + np.linalg.det(cov.sigma_n3) ** (1.0 / n))
        rhs_det = np.linalg.det(cov.sigma_xuz + cov.sigma_n3) ** (1.0 / n)
        assert lhs_det == pytest.approx(rhs_det, rel=1e-8)
        # regression coefficient safely invertible
        assert np.linalg.svd(cov.k_yx, compute_uv=False)[-1] > 1e-10


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_certificate_json_roundtrip(scalar_aligned):
    report = solve_at_rate(scalar_aligned, 0.5)
    cert = certify(scalar_aligned, report.optimum, 0.5)
    payload = kkt.certificate_to_json(cert)
    obj = json.loads(payload)
    assert set(obj["residuals"]) == set(kkt.RESIDUAL_KEYS)
    back = kkt.certificate_from_dict(obj)
    assert back.mu == cert.mu
    assert np.allclose(back.sigma_star.value, cert.sigma_star.value)
    recomputed = verify_certificate(scalar_aligned, back)
    assert max(recomputed.values()) < 1e-6


def test_certificate_requires_all_residual_keys(scalar_aligned):
    report = solve_at_rate(scalar_aligned, 0.5)
    cert = certify(scalar_aligned, report.optimum, 0.5)
    partial = dict(cert.residuals)
    partial.pop("preservation")
    with pytest.raises(ValueError):
        kkt.KktCertificate(
            sigma_star=cert.sigma_star, mu=cert.mu, m_matrix=cert.m_matrix,
            wy_tilde=cert.wy_tilde, rp=cert.rp, residuals=partial,
        )
