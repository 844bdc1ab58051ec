import numpy as np
import pytest

from gausskey import (
    GeneralModel,
    build_joint,
    cross_validate,
    estimate_rates,
    rates_general,
    sample,
)
from gausskey.errors import DegenerateConditional, NotPsd, SingularEmpiricalCov
from gausskey.mc import JointLayout, layout_for

from conftest import random_conditional, random_general, rng_for


def test_auxiliary_noise_information_form(degraded_demo):
    # q = sigma_x / 2 with sigma_x = 2I: per coordinate the auxiliary noise
    # variance is (1/1 - 1/2)^-1 = 2
    joint = build_joint(degraded_demo, np.eye(2))
    lay = layout_for(degraded_demo)
    iu = lay.slices[3]
    assert np.allclose(joint[iu, iu], 4.0 * np.eye(2), atol=1e-12)


def test_conditional_covariance_roundtrip():
    rng = rng_for(71)
    for _ in range(100):
        m = random_general(rng, mx=2, my=int(rng.integers(1, 3)),
                           mz=int(rng.integers(1, 3)))
        q = random_conditional(rng, m.sigma_x, hi=0.9)
        joint = build_joint(m, q)
        lay = layout_for(m)
        ix, _, _, iu = lay.slices
        sxx = joint[ix, ix]
        sxu = joint[np.ix_(range(lay.mx), range(lay.dim - lay.mx, lay.dim))]
        suu = joint[np.ix_(range(lay.dim - lay.mx, lay.dim),
                           range(lay.dim - lay.mx, lay.dim))]
        cond = sxx - sxu @ np.linalg.inv(suu) @ sxu.T
        assert np.max(np.abs(cond - q)) < 1e-10


def test_degenerate_conditional_gate(degraded_demo):
    with pytest.raises(DegenerateConditional):
        build_joint(degraded_demo, 0.999999 * degraded_demo.sigma_x)
    # a near-but-not-degenerate conditional still passes
    build_joint(degraded_demo, 0.999 * degraded_demo.sigma_x)


def test_sampling_is_bitwise_deterministic(degraded_demo):
    joint = build_joint(degraded_demo, np.eye(2))
    b1 = sample(joint, 5000, seed=123)
    b2 = sample(joint, 5000, seed=123)
    assert np.array_equal(b1.samples, b2.samples)
    assert np.array_equal(b1.joint_cov_empirical, b2.joint_cov_empirical)
    b3 = sample(joint, 5000, seed=124)
    assert not np.array_equal(b1.samples, b3.samples)


def test_sampler_rejects_non_psd():
    with pytest.raises(NotPsd):
        sample(np.array([[1.0, 2.0], [2.0, 1.0]]), 100, seed=0)


def test_empirical_covariance_clt_bound(degraded_demo):
    joint = build_joint(degraded_demo, np.eye(2))
    n = 100000
    batch = sample(joint, n, seed=7)
    bound = 5.0 * np.linalg.norm(joint, 2) / np.sqrt(n)
    assert np.max(np.abs(batch.joint_cov_empirical - joint)) < bound


def test_single_sample_fails_downstream(degraded_demo):
    joint = build_joint(degraded_demo, np.eye(2))
    batch = sample(joint, 1, seed=0)
    with pytest.raises(SingularEmpiricalCov):
        estimate_rates(batch, layout_for(degraded_demo))


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


@pytest.mark.parametrize("folds", (0, 1))
def test_fewer_than_two_folds_are_rejected(degraded_demo, folds):
    # one fold has no spread to give a standard error; zero divided by zero
    joint = build_joint(degraded_demo, np.eye(2))
    batch = sample(joint, 1000, seed=0)
    with pytest.raises(ValueError, match="folds"):
        estimate_rates(batch, layout_for(degraded_demo), folds=folds)
    with pytest.raises(ValueError, match="folds"):
        cross_validate(degraded_demo, np.eye(2), 1000, seed=0, folds=folds)


def test_layout_dimension_check(degraded_demo, scalar_aligned):
    joint = build_joint(degraded_demo, np.eye(2))
    batch = sample(joint, 1000, seed=0)
    with pytest.raises(ValueError):
        estimate_rates(batch, JointLayout(mx=1, my=1, mz=1))
