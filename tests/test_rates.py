import math

import numpy as np
import pytest

from gausskey import (
    AlignedModel,
    GeneralModel,
    RatePair,
    RegionBoundary,
    asymptotic_limit,
    rates_aligned,
    rates_enhanced,
    rates_general,
    to_aligned,
)
from gausskey.errors import InvalidConditionalCov, InvalidEnhancedNoise
from gausskey.modelio import model_digest
from gausskey.rates import PointMeta
from gausskey.solver import contains

from conftest import random_conditional, random_spd, rng_for


def test_full_covariance_gives_zero_rates(degraded_demo):
    pair = rates_general(degraded_demo, degraded_demo.sigma_x)
    assert pair.rp == 0.0
    assert pair.rk == 0.0


def test_vanishing_conditional_approaches_channel_gap(degraded_demo):
    # as the conditional covariance vanishes, the key rate tends to
    # 0.5 ln((1 + b Sx b)/(1 + e Sx e)) = 0.5 ln(3.5/2.225); analytic scalar
    # evaluation at small epsilon is the oracle
    eps = 1e-9
    pair = rates_general(degraded_demo, eps * np.eye(2))
    oracle = 0.5 * math.log(3.5 / (1.25 * eps + 1.0)) - 0.5 * math.log(
        2.225 / (0.6125 * eps + 1.0)
    )
    assert pair.rk == pytest.approx(oracle, abs=1e-12)
    assert pair.rk == pytest.approx(0.5 * math.log(3.5 / 2.225), abs=1e-8)


def test_scalar_aligned_closed_form(scalar_aligned):
    pair = rates_aligned(scalar_aligned, [[1.0]])
    assert pair.rp == pytest.approx(0.5 * math.log(2.0) - 0.5 * math.log(1.5),
                                    abs=1e-12)
    assert pair.rk == pytest.approx(0.5 * math.log(1.5) - 0.5 * math.log(4.0 / 3.0),
                                    abs=1e-12)


def test_equal_noises_kill_key_rate():
    rng = rng_for(31)
    wy = random_spd(rng, 2)
    m = AlignedModel(sigma_x=random_spd(rng, 2), sigma_wy=wy, sigma_wz=wy)
    for _ in range(20):
        q = random_conditional(rng, m.sigma_x)
        assert rates_aligned(m, q).rk == pytest.approx(0.0, abs=1e-12)


def test_invalid_conditional_raises(degraded_demo):
    with pytest.raises(InvalidConditionalCov):
        rates_general(degraded_demo, 5.0 * np.eye(2))


# ---------------------------------------------------------------------------
# enhanced functionals
# ---------------------------------------------------------------------------

def test_enhanced_with_original_noise_matches(scalar_aligned):
    q = [[0.7]]
    base = rates_aligned(scalar_aligned, q)
    enh = rates_enhanced(scalar_aligned, scalar_aligned.sigma_wy, q)
    assert enh.rp == pytest.approx(base.rp, abs=1e-14)
    assert enh.rk == pytest.approx(base.rk, abs=1e-14)


def test_enhanced_with_z_noise_zeroes_key_rate():
    # requires sigma_wz <= sigma_wy so the enhanced noise stays admissible
    rng = rng_for(32)
    wz = random_spd(rng, 2)
    m = AlignedModel(sigma_x=random_spd(rng, 2), sigma_wy=wz + random_spd(rng, 2),
                     sigma_wz=wz)
    for _ in range(10):
        q = random_conditional(rng, m.sigma_x)
        assert rates_enhanced(m, m.sigma_wz, q).rk == pytest.approx(0.0, abs=1e-12)


def test_enhanced_noise_gates(scalar_aligned):
    with pytest.raises(InvalidEnhancedNoise):
        rates_enhanced(scalar_aligned, [[1.5]], [[0.5]])  # exceeds sigma_wy
    with pytest.raises(InvalidEnhancedNoise):
        rates_enhanced(scalar_aligned, [[0.0]], [[0.5]])  # not PD


def test_enhanced_noise_bound_is_judged_at_its_own_scale():
    # W~ <= sigma_wy is tested on the pencil (W~, sigma_wy); on the
    # difference, the PSD test's unit floor accepted W~ = 2 sigma_wy here
    m = AlignedModel([[2e-12]], [[1e-12]], [[2e-12]])
    with pytest.raises(InvalidEnhancedNoise):
        rates_enhanced(m, 2.0 * m.sigma_wy, [[1e-12]])
    base = rates_aligned(m, [[1e-12]])
    assert rates_enhanced(m, m.sigma_wy, [[1e-12]]) == base


# ---------------------------------------------------------------------------
# asymptotic limit
# ---------------------------------------------------------------------------

def test_limit_zero_for_equal_observations():
    m = GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[1.0, 0.5]])
    assert asymptotic_limit(m) == 0.0


def test_limit_crossing_demo(crossing_demo):
    phi_max = float(np.max(np.roots([3.5, -9.25, 3.5])))
    assert asymptotic_limit(crossing_demo) == pytest.approx(0.5 * math.log(phi_max),
                                                            abs=1e-9)


def test_limit_degraded_demo_equals_mi_difference(degraded_demo):
    # degraded case: the limit equals I(X;Y) - I(X;Z)
    assert asymptotic_limit(degraded_demo) == pytest.approx(
        0.5 * math.log(3.5 / 2.225), abs=1e-12
    )


def test_limit_accepts_aligned(scalar_aligned):
    # scalar aligned: limit = I(X;Y) - I(X;Z) for the degraded direction
    expect = 0.5 * math.log(3.0 / 1.0) - 0.5 * math.log(4.0 / 2.0)
    assert asymptotic_limit(scalar_aligned) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# functional invariants
# ---------------------------------------------------------------------------

def test_public_rate_nonnegative_zero_only_at_full(degraded_demo, crossing_demo):
    rng = rng_for(33)
    for m in (degraded_demo, crossing_demo):
        for _ in range(200):
            q = random_conditional(rng, m.sigma_x)
            pair = rates_general(m, q)
            assert pair.rp > 0.0
        assert rates_general(m, m.sigma_x).rp == 0.0


def test_degraded_key_rate_nonnegative():
    rng = rng_for(34)
    for _ in range(10):
        wy = random_spd(rng, 2)
        m = AlignedModel(
            sigma_x=random_spd(rng, 2), sigma_wy=wy, sigma_wz=wy + random_spd(rng, 2)
        )
        for _ in range(20):
            q = random_conditional(rng, m.sigma_x)
            assert rates_aligned(m, q).rk >= -1e-12


def test_key_rate_below_limit(degraded_demo, crossing_demo):
    rng = rng_for(35)
    for m in (degraded_demo, crossing_demo):
        limit = asymptotic_limit(m)
        for _ in range(200):
            q = random_conditional(rng, m.sigma_x, lo=5e-3)
            assert rates_general(m, q).rk <= limit + 1e-10


def test_scalar_specialization_closed_form():
    # m = 1: every log-det is a scalar log; compare against plain arithmetic
    rng = rng_for(36)
    for _ in range(100):
        sx = float(rng.uniform(0.2, 5.0))
        wy = float(rng.uniform(0.1, 3.0))
        wz = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(0.05, 0.95)) * sx
        m = AlignedModel(sigma_x=[[sx]], sigma_wy=[[wy]], sigma_wz=[[wz]])
        pair = rates_aligned(m, [[q]])
        ip = 0.5 * math.log(sx / q) - 0.5 * math.log((sx + wy) / (q + wy))
        ik = 0.5 * math.log((sx + wy) / (q + wy)) - 0.5 * math.log((sx + wz) / (q + wz))
        assert pair.rp == pytest.approx(ip, abs=1e-12)
        assert pair.rk == pytest.approx(ik, abs=1e-12)


def test_general_equals_aligned_after_reduction():
    rng = rng_for(37)
    for _ in range(25):
        m = GeneralModel(
            sigma_x=random_spd(rng, 2),
            b=rng.standard_normal((2, 2)) + np.eye(2),
            e=rng.standard_normal((2, 2)) + np.eye(2),
        )
        al = to_aligned(m)
        q = random_conditional(rng, m.sigma_x)
        pg = rates_general(m, q)
        pa = rates_aligned(al, q)
        assert pg.rp == pytest.approx(pa.rp, abs=1e-10)
        assert pg.rk == pytest.approx(pa.rk, abs=1e-10)


# ---------------------------------------------------------------------------
# data types and membership
# ---------------------------------------------------------------------------

def test_rate_pair_validation():
    assert RatePair(rp=-1e-12, rk=0.0).rp == 0.0
    with pytest.raises(ValueError):
        RatePair(rp=-1.0, rk=0.0)


def test_region_boundary_validation(degraded_demo):
    digest = model_digest(degraded_demo)
    pts = (RatePair(0.0, 0.0), RatePair(1.0, 0.2))
    bnd = RegionBoundary(points=pts, model_digest=digest,
                         solver_meta=(PointMeta(None, None, 0.0),) * 2)
    assert bnd.rk_at(0.5) == 0.0
    assert bnd.rk_at(1.0) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        RegionBoundary(points=(RatePair(1.0, 0.2), RatePair(0.0, 0.0)),
                       model_digest=digest)
    with pytest.raises(ValueError):
        RegionBoundary(points=(RatePair(0.0, 0.3), RatePair(1.0, 0.1)),
                       model_digest=digest)


def test_contains_origin_and_above_limit(degraded_demo):
    assert contains(degraded_demo, RatePair(0.0, 0.0), 1e-9)
    limit = asymptotic_limit(degraded_demo)
    assert not contains(degraded_demo, RatePair(2.0, limit + 0.01), 1e-6)


def test_contains_boundary_self_consistency(crossing_demo):
    from gausskey import sweep_boundary

    bnd = sweep_boundary(crossing_demo, [1.0], st_resolution=40)
    point = RatePair(1.0, bnd.points[0].rk)
    assert contains(crossing_demo, point, 1e-6, boundary=bnd)
    # direct recomputation route, at the default resolution
    assert contains(crossing_demo, point, 1e-6)
