import dataclasses
import json
import math
import os

import numpy as np
import pytest

from gausskey import (
    AlignedModel,
    GeneralModel,
    RatePair,
    certify,
    change_of_variable,
    enhance,
    kkt,
    linalg,
    rates_aligned,
    rates_enhanced,
    recover_multipliers,
    solve_at_rate,
    to_aligned,
    verify_certificate,
)
from gausskey.errors import MuZero, NonPsdInput, NotDegraded, NoValidMultiplier
from gausskey.models import whiten
from gausskey.rates import _chol_terms

from conftest import ill_conditioned_aligned, random_aligned, random_conditional, random_spd, rng_for


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


def _whitened(m, cert):
    """The certificate's frame: the whitened model, ``A = S^-1 Q S^-1`` and
    ``S^-1``."""
    w, _, s_half_inv = whiten(m)
    return w, linalg.congruence(s_half_inv, cert.sigma_star.value), s_half_inv


def test_certify_returns_the_psd_projection_of_m(certified_points):
    # the composite gate decides M's PSD once, in the whitened frame; the M
    # it accepts is projected, whatever its round-off, so enhance and the
    # certificate never refuse it, and stored in the model's frame
    for m, cert in certified_points:
        w, a, s_half_inv = _whitened(m, cert)
        m_w = linalg.eig_clip(kkt.stationarity_matrix(w, a, cert.mu), 0.0, np.inf)
        assert cert.m_matrix.tobytes() == linalg.congruence(s_half_inv, m_w).tobytes()


def test_recovery_reports_the_composite_it_judged(certified_points):
    # psd_M and compl_slack_M are the two parts of the multiplier composite,
    # on M before its projection; on the projection psd_M read about 0
    negative = 0
    for m, cert in certified_points:
        rec = recover_multipliers(m, cert.sigma_star, cert.rp)
        comp, m_mat, parts = kkt.multiplier_composite(m, cert.sigma_star.value, rec.mu)
        diff = m.sigma_x - cert.sigma_star.value
        assert rec.residuals["psd_M"] == linalg.psd_violation(m_mat) / (1.0 + linalg.frob(m_mat))
        assert rec.residuals["compl_slack_M"] == linalg.rel_residual(m_mat @ diff, m_mat, diff)
        assert rec.residuals["psd_M"] + rec.residuals["compl_slack_M"] == comp
        assert {k: rec.residuals[k] for k in parts} == parts
        negative += rec.residuals["psd_M"] > 0.0
    assert negative


def test_stacked_stationarity_matches_per_point():
    # one M(mu) formula serves single points and the face polish's stacks,
    # with one multiplier per point
    rng = rng_for(66)
    for mx in (1, 2, 4):
        m = random_aligned(rng, m=mx)
        sigmas = np.array([random_conditional(rng, m.sigma_x) for _ in range(4)])
        mus = np.array([0.0, 0.3, 1.7, 25.0])
        stack = kkt.stationarity_stack(linalg.inv_chol(_chol_terms(m, sigmas)), mus)
        for k in range(4):
            want = kkt.stationarity_matrix(m, sigmas[k], float(mus[k]))
            assert stack[k].tobytes() == want.tobytes()


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
            w, a, _ = _whitened(m, cert)
            assert cert.mu == kkt.closed_form_mu(w, a)


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
    wy_tilde = enhance(m, sigma, 0.0, linalg.eig_clip(m_mat, 0.0, np.inf))
    assert np.allclose(wy_tilde, m.sigma_wz, atol=1e-10)


def test_enhance_rejects_bad_inputs(scalar_aligned):
    with pytest.raises(NonPsdInput):
        enhance(scalar_aligned, np.array([[1.0]]), -0.1, np.zeros((1, 1)))
    with pytest.raises(NonPsdInput):
        enhance(scalar_aligned, np.array([[1.0]]), 0.5, np.array([[-1.0]]))


def test_enhance_judges_m_in_the_whitened_frame():
    # M's PSD is tested on S M S, S = sigma_x^1/2; on M itself, the PSD
    # test's unit floor accepted this M, 5% negative, at scale 1e9 and
    # returned a W~ with a negative eigenvalue
    m = AlignedModel(*(1e9 * np.array(a) for a in (2.0 * np.eye(2), np.eye(2), 2.0 * np.eye(2))))
    for bad in ([1e-9, -5e-11], [1e-10, -5e-12]):
        with pytest.raises(NonPsdInput):
            enhance(m, 1e9 * np.eye(2), 0.5, np.diag(bad))
    wy_tilde = enhance(m, 1e9 * np.eye(2), 0.5, np.diag([1e-10, 0.0]))
    assert linalg.min_eig(wy_tilde) > 0.0


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_a_non_finite_multiplier_is_rejected(mu):
    m = AlignedModel([[2.0]], [[1.0]], [[2.0]])
    with pytest.raises(NonPsdInput):
        enhance(m, [[1.0]], mu, [[0.0]])
    with pytest.raises(NonPsdInput):
        kkt.stationarity_matrix(m, [[1.0]], mu)


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


def _corpus_certificates():
    """``(model, certificate)`` at every certified point of the frozen
    corpus of aligned optima with a positive rate multiplier."""
    path = os.path.join(os.path.dirname(__file__), "data", "aligned_points.json")
    with open(path) as fh:
        points = json.load(fh)["points"]
    out = []
    for p in points:
        if p["certificate"] != "certified":
            continue
        m = AlignedModel(p["sigma_x"], p["sigma_wy"], p["sigma_wz"])
        cert = certify(m, np.array(p["sigma"]), p["rp"])
        if cert.mu > 0.0:
            out.append((m, cert))
    return out


def _regression_reference(m, wy_tilde):
    """(k_yz, k_yx, sigma_n3) by the generic 2n x 2n regression of the
    enhanced observation on (Z, X), normalized by the inverse of k_yx."""
    n = m.mx
    sigma_yt = m.sigma_x + wy_tilde
    block = np.block([[m.sigma_x + m.sigma_wz, m.sigma_x], [m.sigma_x, m.sigma_x]])
    coeff = np.linalg.solve(block, np.hstack([sigma_yt, m.sigma_x]).T).T
    k_yz, k_yx = coeff[:, :n], coeff[:, n:]
    sigma_n2 = sigma_yt - k_yx @ m.sigma_x - k_yz @ sigma_yt
    k_inv = np.linalg.inv(k_yx)
    return k_yz, k_yx, linalg.symmetrize(k_inv @ sigma_n2 @ k_inv.T)


def _rel(a, b):
    return linalg.frob(a - b) / linalg.frob(b)


def test_change_of_variable_matches_the_regression():
    # the closed forms of the degraded coupling against the generic
    # regression they replace, at every certified corpus point with mu > 0
    cases = _corpus_certificates()
    assert len(cases) >= 30
    for m, cert in cases:
        cov = change_of_variable(m, cert.wy_tilde, cert.sigma_star, cert.mu)
        k_yz, k_yx, sigma_n3 = _regression_reference(m, cert.wy_tilde)
        assert _rel(cov.k_yz, k_yz) <= 1e-13
        assert _rel(cov.k_yx, k_yx) <= 1e-13
        assert _rel(cov.sigma_n3, sigma_n3) <= 1e-9
        assert cert.residuals["k_invertibility"] == 0.0


def test_k_invertibility_is_infinite_without_degradation(scalar_aligned):
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    assert cert.mu > 0.0 and cert.residuals["k_invertibility"] == 0.0
    # the eavesdropper's own noise as the enhanced noise: not degraded
    bad = dataclasses.replace(cert, wy_tilde=scalar_aligned.sigma_wz)
    with pytest.raises(NotDegraded):
        change_of_variable(scalar_aligned, bad.wy_tilde, bad.sigma_star, bad.mu)
    residuals = verify_certificate(scalar_aligned, bad)
    assert residuals["k_invertibility"] == float("inf")
    assert residuals["proportionality"] == float("inf")


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


@pytest.mark.parametrize("value", [3.0, 0.0, -1.0])
def test_verify_certificate_reports_an_invalid_point(scalar_aligned, value):
    # a certificate read from a file may carry any matrix; one outside the
    # interval 0 < Q <= sigma_x fails every check instead of raising
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    obj = kkt.certificate_to_dict(cert)
    obj["sigma_star"] = [[value]]
    residuals = verify_certificate(scalar_aligned, kkt.certificate_from_dict(obj))
    assert set(residuals) == set(kkt.RESIDUAL_KEYS)
    assert all(v == float("inf") for v in residuals.values())


@pytest.mark.parametrize("field, value", [
    ("wy_tilde", [[-1.0]]),
    ("m_matrix", [[0.0, 0.0], [0.0, 0.0]]),
    ("wy_tilde", [[0.5, 0.0], [0.0, 0.5]]),
    ("sigma_star", [[0.5, 0.0], [0.0, 0.5]]),
])
def test_verify_certificate_reports_malformed_fields(scalar_aligned, field, value):
    # a negative W~ leaves sigma_xuz + sigma_n3 without a Cholesky factor,
    # which fails the proportionality check; a square field that is not
    # mx x mx fails every check instead of raising or broadcasting
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    obj = kkt.certificate_to_dict(cert)
    obj[field] = value
    residuals = verify_certificate(scalar_aligned, kkt.certificate_from_dict(obj))
    assert set(residuals) == set(kkt.RESIDUAL_KEYS)
    assert residuals["proportionality"] == float("inf")
    if np.shape(value) != (1, 1):
        assert all(v == float("inf") for v in residuals.values())


@pytest.mark.parametrize("field, value", [
    ("m_matrix", [1.0, 0.0]),
    ("wy_tilde", 0.5),
    ("sigma_star", [[1.0, 0.0]]),
    ("m_matrix", [[[1.0]]]),
])
def test_certificate_from_dict_refuses_a_field_that_is_not_square(scalar_aligned, field,
                                                                   value):
    # a 1-D m_matrix used to leak numpy's AxisError from the PSD check of
    # KktCertificate; every matrix field must be a square 2-D array
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    obj = kkt.certificate_to_dict(cert)
    obj[field] = value
    with pytest.raises(ValueError, match=field):
        kkt.certificate_from_dict(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("field, value", [
    ("wy_tilde", [[math.nan]]),
    ("wy_tilde", [[math.inf]]),
    ("m_matrix", [[math.nan]]),
])
def test_verify_certificate_reports_non_finite_fields(scalar_aligned, field, value):
    # JSON admits NaN and Infinity; such a field fails every check instead
    # of raising from an SVD or leaving NaN residuals
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    obj = kkt.certificate_to_dict(cert)
    obj[field] = value
    back = kkt.certificate_from_dict(json.loads(json.dumps(obj)))
    residuals = verify_certificate(scalar_aligned, back)
    assert set(residuals) == set(kkt.RESIDUAL_KEYS)
    assert all(v == float("inf") for v in residuals.values())


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


def test_a_nan_residual_fails_the_gate(scalar_aligned):
    # JSON admits NaN; a NaN residual counts as infinite, wherever it sits
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    obj = kkt.certificate_to_dict(cert)
    obj["residuals"] = {**dict.fromkeys(kkt.RESIDUAL_KEYS, 0.0), "rate_match": float("nan")}
    back = kkt.certificate_from_dict(json.loads(json.dumps(obj)))
    assert back.max_residual == float("inf")
    assert not back.max_residual < 1e-6


def test_certificate_rejects_a_nan_multiplier(scalar_aligned):
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    obj = kkt.certificate_to_dict(cert)
    obj["mu"] = float("nan")
    with pytest.raises(ValueError):
        kkt.certificate_from_dict(json.loads(json.dumps(obj)))


def test_certificate_rejects_an_infinite_multiplier(scalar_aligned):
    # JSON admits Infinity; a certificate with mu = inf used to build, and
    # its stationarity, enhancement and proportionality residuals came out NaN
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    obj = kkt.certificate_to_dict(cert)
    obj["mu"] = math.inf
    with pytest.raises(ValueError, match="finite"):
        kkt.certificate_from_dict(json.loads(json.dumps(obj)))


def test_verify_certificate_reports_no_nan(scalar_aligned):
    # an infinite budget makes the rate-slackness residual inf / inf; like
    # every residual that cannot be formed, it reads inf
    cert = certify(scalar_aligned, solve_at_rate(scalar_aligned, 0.5).optimum, 0.5)
    obj = kkt.certificate_to_dict(cert)
    obj["rp"] = math.inf
    residuals = verify_certificate(scalar_aligned,
                                   kkt.certificate_from_dict(json.loads(json.dumps(obj))))
    assert not any(math.isnan(v) for v in residuals.values())
    assert residuals["compl_slack_mu"] == math.inf


@pytest.mark.parametrize("m", [
    AlignedModel(2.0 * np.eye(2), np.diag([1.0, 3.0]), np.diag([2.0, 1.0])),
    AlignedModel(np.eye(2), np.diag([2.0, 3.0]), np.diag([1.0, 0.5])),  # no key rate
], ids=["keyed", "keyless"])
def test_an_infinite_budget_is_slack(m):
    # rate_is_slack(inf, ip) reduced to inf > inf: the solve at inf gated at
    # a multiplier near 1e-9 and came back converged where 1e300 does not,
    # and the certificate's compl_slack_mu at mu = 0 was 0 * inf = NaN
    assert kkt.rate_is_slack(math.inf, rates_aligned(m, 0.5 * m.sigma_x).rp)
    big, inf = solve_at_rate(m, 1e300), solve_at_rate(m, math.inf)
    assert (inf.converged, inf.kkt_residual, inf.value) == (
        big.converged, big.kkt_residual, big.value)
    for rp in (1e300, math.inf):
        try:
            cert = certify(m, inf.optimum, rp)
        except NoValidMultiplier:
            continue
        assert cert.mu == 0.0 and cert.residuals["compl_slack_mu"] == 0.0
        assert cert.max_residual < 1e-6


@pytest.mark.parametrize("rp", [-1.0, math.nan])
def test_a_budget_that_is_not_nonnegative_is_refused(rp):
    # at Q = sigma_x the certificate came back with rp = -1 (mu 1.2127, max
    # residual 0.606) or, at NaN, with max residual inf; a rate pair took
    # NaN in either field, and so did a boundary's sortedness check
    m = to_aligned(GeneralModel(2.0 * np.eye(2), np.eye(2), np.array([[0.5, 0.2], [0.1, 0.7]])))
    for check in (recover_multipliers, certify):
        with pytest.raises(ValueError, match="rp must be nonnegative"):
            check(m, m.sigma_x, rp)
    with pytest.raises(ValueError, match="rp"):
        RatePair(rp, 0.0)
    if math.isnan(rp):
        with pytest.raises(ValueError, match="rk must not be NaN"):
            RatePair(0.5, rp)
    else:
        # a negative key rate is a value of the functional, and the oracle
        # answers an unbounded budget with rp = inf
        assert RatePair(0.5, rp).rk == rp
        assert RatePair(math.inf, 0.0).rp == math.inf


@pytest.mark.parametrize("key", range(7000, 7003))
def test_the_corner_of_an_ill_conditioned_model_certifies(key):
    # the interval test takes Q = sigma_x as it is, and certify takes it as
    # A = I in the whitened frame, where S^-1 sigma_x S^-1 misses I by about
    # eps cond(sigma_x) and was refused at cond 1e8
    m = ill_conditioned_aligned(rng_for(key), 4, 1e8)
    cert = certify(m, m.sigma_x, 0.0)
    assert cert.max_residual < 1e-6
    # its fields, stored in the model's frame, verify there too
    assert max(kkt.verify_certificate(m, cert).values()) < 1e-6
