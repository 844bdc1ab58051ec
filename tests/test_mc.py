import json
import os

import numpy as np
import pytest

from gausskey import (
    AlignedModel,
    GeneralModel,
    build_joint,
    cross_validate,
    estimate_rates,
    linalg,
    rates_general,
    sample,
    to_general,
)
from gausskey.cli import main
from gausskey.errors import NotPsd, SingularEmpiricalCov
from gausskey.mc import DEFAULT_FOLDS, JointLayout, layout_for

from conftest import random_conditional, random_general, rng_for


def test_auxiliary_noise_information_form(degraded_demo):
    # U = G X + N with G^T G = Q^-1 - sigma_x^-1 = I / 2 at Q = I, sigma_x =
    # 2I, so cov U = G sigma_x G^T + I = 2I
    joint = build_joint(degraded_demo, np.eye(2))
    lay = layout_for(degraded_demo)
    iu = lay.slices[3]
    assert np.allclose(joint[iu, iu], 2.0 * np.eye(2), atol=1e-12)


def _conditional_given_u(joint, lay):
    ix, _, _, iu = lay.slices
    return joint[ix, ix] - joint[ix, iu] @ np.linalg.inv(joint[iu, iu]) @ joint[iu, ix]


def test_conditional_covariance_roundtrip():
    rng = rng_for(71)
    for _ in range(100):
        m = random_general(rng, mx=2, my=int(rng.integers(1, 3)),
                           mz=int(rng.integers(1, 3)))
        q = random_conditional(rng, m.sigma_x, hi=0.9)
        joint = build_joint(m, q)
        assert np.max(np.abs(_conditional_given_u(joint, layout_for(m)) - q)) < 1e-10


def test_degenerate_conditional_gate(degraded_demo):
    # on and next to the face Q = sigma_x, where U carries no information
    # about X in some directions, the joint law still exists: the
    # information form needs no gate there, so each Q builds and Cov(X|U) = Q
    for c in (0.999, 0.999999, 1.0):
        q = c * degraded_demo.sigma_x
        joint = build_joint(degraded_demo, q)
        cond = _conditional_given_u(joint, layout_for(degraded_demo))
        assert np.max(np.abs(cond - q)) < 1e-10


def _certified_face_optima():
    path = os.path.join(os.path.dirname(__file__), "data", "aligned_points.json")
    with open(path) as fh:
        points = json.load(fh)["points"]
    for k, p in enumerate(points):
        if p["certificate"] != "certified":
            continue
        m = AlignedModel(sigma_x=p["sigma_x"], sigma_wy=p["sigma_wy"],
                         sigma_wz=p["sigma_wz"])
        q = np.array(p["sigma"])
        s_half_inv = linalg.roots(m.sigma_x)[1]
        if np.linalg.eigvalsh(linalg.congruence(s_half_inv, q))[-1] >= 1.0 - 1e-6:
            yield k, to_general(m), q


def test_face_optima_cross_validate():
    # a certified optimum on the face Q = sigma_x in some direction is the
    # common case (Weingarten, Steinberg & Shamai); Monte Carlo checks it at
    # the benchmark's own z gate
    checked = 0
    for k, m, q in _certified_face_optima():
        exact = rates_general(m, q)
        rp, rk = cross_validate(m, q, 200_000, seed=k)
        assert abs(rp.value - exact.rp) < 10.0 * rp.std_error
        assert abs(rk.value - exact.rk) < 10.0 * rk.std_error
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e6])
def test_estimates_are_scale_free(crossing_demo, c):
    # (c sigma_x, B / sqrt c, E / sqrt c) has the rates of the crossing demo
    # at c Q; the gate used to add 1 to sigma_x's scale and refused
    # Q = sigma_x / 2 for c = 1e-6 and 1e-9
    m = crossing_demo
    scaled = GeneralModel(sigma_x=c * m.sigma_x, b=m.b / np.sqrt(c), e=m.e / np.sqrt(c))
    for est, ref in zip(cross_validate(scaled, 0.5 * scaled.sigma_x, 20000, 3),
                        cross_validate(m, 0.5 * m.sigma_x, 20000, 3)):
        assert est.value == pytest.approx(ref.value, abs=1e-9)
        assert est.std_error == pytest.approx(ref.std_error, abs=1e-9)


def test_estimates_are_congruence_free():
    # every eigenvalue of the pencil (Q, sigma_x) is 1/2 at Q = sigma_x / 2;
    # a gate on min eig(sigma_x - Q) against sigma_x's largest eigenvalue
    # refused it for sigma_x = diag(1, 1e-5)
    m = GeneralModel(sigma_x=np.diag([1.0, 1e-5]), b=[[1.0, 0.5]], e=[[0.5, 1.0]])
    q = 0.5 * m.sigma_x
    exact = rates_general(m, q)
    rp, rk = cross_validate(m, q, 20000, 3)
    assert abs(rp.value - exact.rp) <= 5.0 * rp.std_error
    assert abs(rk.value - exact.rk) <= 5.0 * rk.std_error


def test_sampling_is_bitwise_deterministic(degraded_demo):
    joint = build_joint(degraded_demo, np.eye(2))
    b1 = sample(joint, 5000, seed=123)
    b2 = sample(joint, 5000, seed=123)
    assert b1.samples.shape == (DEFAULT_FOLDS, joint.shape[0] + 1, joint.shape[0])
    assert np.array_equal(b1.samples, b2.samples)
    assert np.array_equal(b1.joint_cov_empirical, b2.joint_cov_empirical)
    b3 = sample(joint, 5000, seed=124)
    assert not np.array_equal(b1.samples, b3.samples)


def test_sampler_rejects_non_psd():
    with pytest.raises(NotPsd):
        sample(np.array([[1.0, 2.0], [2.0, 1.0]]), 100, seed=0)
    # a PSD-singular joint has no Cholesky factor to draw through
    with pytest.raises(NotPsd, match="min eig"):
        sample(np.ones((2, 2)), 100, seed=0)


def test_empirical_covariance_clt_bound(degraded_demo):
    joint = build_joint(degraded_demo, np.eye(2))
    n = 100000
    batch = sample(joint, n, seed=7)
    bound = 5.0 * np.linalg.norm(joint, 2) / np.sqrt(n)
    assert np.max(np.abs(batch.joint_cov_empirical - joint)) < bound


def test_single_sample_fails_downstream(degraded_demo, tmp_path):
    joint = build_joint(degraded_demo, np.eye(2))
    batch = sample(joint, 1, seed=0)
    with pytest.raises(SingularEmpiricalCov):
        estimate_rates(batch, layout_for(degraded_demo))
    for n in (0, -3):
        with pytest.raises(ValueError):
            sample(joint, n, seed=0)
    # n rows span n - 1 directions about their mean, however they fall
    # into folds
    dim = joint.shape[0]
    for n in (2, 5, 12, 37):
        w = np.linalg.eigvalsh(sample(joint, n, seed=n).joint_cov_empirical)
        assert np.sum(w > 1e-10 * w[-1]) == min(n - 1, dim)
        assert w[0] > -1e-10 * w[-1]
    path = tmp_path / "degraded.json"
    path.write_text(json.dumps({"sigma_x": degraded_demo.sigma_x.tolist(),
                                "b": degraded_demo.b.tolist(), "e": degraded_demo.e.tolist()}))
    assert main(["mc", str(path), "--samples", "5"]) == 3


def test_empirical_covariance_pools_the_folds(degraded_demo):
    # the full-batch covariance is the within-fold scatters plus the spread
    # of the fold means, over n - 1; fold sizes sum to n
    joint = build_joint(degraded_demo, 0.5 * degraded_demo.sigma_x)
    for n in (1003, 10**5 + 7, 10**10):
        batch = sample(joint, n, seed=11)
        sizes = n // DEFAULT_FOLDS + (np.arange(DEFAULT_FOLDS) < n % DEFAULT_FOLDS)
        assert sizes.sum() == n and np.ptp(sizes) <= 1
        means = batch.samples[:, 0] / np.sqrt(sizes)[:, None]
        spread = means - sizes @ means / n
        pooled = sum(r.T @ r for r in batch.samples[:, 1:])
        pooled = pooled + sum(k * np.outer(d, d) for k, d in zip(sizes, spread))
        pooled /= n - 1
        err = np.max(np.abs(batch.joint_cov_empirical - pooled))
        assert err <= 1e-12 * np.max(np.abs(pooled))


def test_small_folds_have_the_gram_law(degraded_demo):
    # at n_k = 10 rows a fold's whitened Gram matrix C_k^T C_k / n_k
    # averages to I; a Bartlett factor with a wrong chi-square count, no
    # below-diagonal normals or no mean row is biased by at least 1 / n_k
    joint = build_joint(degraded_demo, 0.5 * degraded_demo.sigma_x)
    white = np.linalg.inv(np.linalg.cholesky(joint))
    dim = joint.shape[0]
    seeds = 500
    total = np.zeros((dim, dim))
    for seed in range(seeds):
        c = sample(joint, 10 * DEFAULT_FOLDS, seed).samples @ white.T
        total += np.einsum("kij,kil->jl", c, c) / 10
    # each entry of a whitened Wishart(I, 10) / 10 has variance at most 2 / 10
    draws = seeds * DEFAULT_FOLDS
    assert np.max(np.abs(total / draws - np.eye(dim))) < 5.0 * np.sqrt(0.2 / draws)


def test_z_scores_follow_t_law(degraded_demo, crossing_demo):
    # the full-batch estimate's deviation over the fold standard error is
    # t-distributed with DEFAULT_FOLDS - 1 degrees of freedom
    from scipy import stats

    law = stats.t(DEFAULT_FOLDS - 1).cdf
    for m in (degraded_demo, crossing_demo):
        q = 0.5 * m.sigma_x
        exact = rates_general(m, q)
        joint = build_joint(m, q)
        lay = layout_for(m)
        z = np.array([[(est.value - ref) / est.std_error
                       for est, ref in zip(estimate_rates(sample(joint, 10**5, seed), lay),
                                           (exact.rp, exact.rk))]
                      for seed in range(400)])
        for column in z.T:
            assert stats.kstest(column, law).pvalue > 0.01


def test_estimates_at_ten_billion_samples(degraded_demo, crossing_demo):
    # the draw costs the same at any n; one seed keys both sizes, so the
    # fold deviations come from nearly the same standard draws and the
    # standard errors scale by sqrt(1e10 / 1e6) = 100
    for m in (degraded_demo, crossing_demo):
        q = 0.5 * m.sigma_x
        exact = rates_general(m, q)
        big = cross_validate(m, q, 10**10, seed=21)
        mid = cross_validate(m, q, 10**6, seed=21)
        for b, s, ref in zip(big, mid, (exact.rp, exact.rk)):
            assert abs(b.value - ref) < 5.0 * b.std_error
            assert 50.0 < s.std_error / b.std_error < 200.0


def test_estimates_match_analytic_rates(degraded_demo, crossing_demo):
    # the standard errors are calibrated (z approximately standard normal),
    # but any fixed seed set can draw a tail event, so budget misses at the
    # same 1-in-10 proportion the end-to-end validation uses, with a hard
    # backstop against systematic bias
    misses = 0
    total = 0
    for m in (degraded_demo, crossing_demo):
        q = 0.5 * m.sigma_x
        analytic = rates_general(m, q)
        for seed in (1, 2, 3, 4, 5):
            rp_est, rk_est = cross_validate(m, q, 100000, seed)
            assert rp_est.std_error > 0.0
            assert rk_est.std_error > 0.0
            for est, ref in ((rp_est, analytic.rp), (rk_est, analytic.rk)):
                total += 1
                if abs(est.value - ref) >= 3.0 * est.std_error:
                    misses += 1
                assert abs(est.value - ref) < 6.0 * est.std_error
    assert misses <= total // 10


def test_near_independent_auxiliary_gives_zero_rates(degraded_demo):
    # conditional covariance close to the source covariance makes the
    # auxiliary variable nearly independent of everything
    rp_est, rk_est = cross_validate(degraded_demo, 0.999 * degraded_demo.sigma_x,
                                    100000, seed=5)
    assert abs(rp_est.value) < max(3.0 * rp_est.std_error, 2e-3)
    assert abs(rk_est.value) < max(3.0 * rk_est.std_error, 2e-3)
    # at Q = sigma_x the auxiliary is independent of everything
    for est in cross_validate(degraded_demo, degraded_demo.sigma_x, 100000, seed=5):
        assert abs(est.value) < 5.0 * est.std_error


def test_equal_observations_zero_key_estimate():
    m = GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[1.0, 0.5]])
    _, rk_est = cross_validate(m, np.eye(2), 100000, seed=9)
    assert abs(rk_est.value) < 3.0 * rk_est.std_error


def test_public_rate_estimate_nonnegative(degraded_demo):
    rng = rng_for(72)
    for seed in range(10):
        q = random_conditional(rng, degraded_demo.sigma_x, hi=0.9)
        rp_est, _ = cross_validate(degraded_demo, q, 20000, seed=seed)
        assert rp_est.value >= -3.0 * rp_est.std_error


def test_estimates_tighten_with_sample_size(degraded_demo):
    # plug-in error at n = 1e6 beats n = 1e4 for almost every seed
    q = 0.5 * degraded_demo.sigma_x
    analytic = rates_general(degraded_demo, q)
    joint = build_joint(degraded_demo, q)
    lay = layout_for(degraded_demo)
    wins = 0
    trials = 60
    for seed in range(trials):
        small = estimate_rates(sample(joint, 10**4, seed=seed), lay)[1]
        big = estimate_rates(sample(joint, 10**6, seed=seed), lay)[1]
        if abs(big.value - analytic.rk) < abs(small.value - analytic.rk):
            wins += 1
    assert wins >= 0.95 * trials - 2  # binomial slack around the 95% claim


def test_layout_dimension_check(degraded_demo, scalar_aligned):
    joint = build_joint(degraded_demo, np.eye(2))
    batch = sample(joint, 1000, seed=0)
    with pytest.raises(ValueError):
        estimate_rates(batch, JointLayout(mx=1, my=1, mz=1))
