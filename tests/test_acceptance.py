"""End-to-end validation of the package's headline guarantees.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them as they complete.  These checks pin every tolerance of
the deliverable: boundary shape and limits for the two demo sources, sweep
against brute-force oracle on random sources, KKT certification of every
boundary point, enhancement edge cases, Monte-Carlo cross-validation,
generalized-eigenvalue identities, and the vanishing perturbation gap.
"""

import math
import time

import numpy as np
import pytest

from gausskey import (
    GeneralModel,
    SweepParams,
    asymptotic_limit,
    brute_force_grid,
    enhance,
    gen_eigs,
    inner_convex,
    kkt,
    linalg,
    perturb_svd,
    rates_general,
    solve_at_rate,
    sweep_boundary,
    to_aligned,
)
from gausskey.kkt import stationarity_matrix
from gausskey.mc import cross_validate

from conftest import random_conditional, random_spd, rng_for

RP_GRID = [round(x, 6) for x in np.linspace(0.0, 20.0, 41)]


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _concavity_violation(points):
    viol = 0.0
    for i in range(1, len(points) - 1):
        x0, y0 = points[i - 1].rp, points[i - 1].rk
        x1, y1 = points[i].rp, points[i].rk
        x2, y2 = points[i + 1].rp, points[i + 1].rk
        if x2 <= x0:
            continue
        w = (x1 - x0) / (x2 - x0)
        viol = max(viol, (1.0 - w) * y0 + w * y2 - y1)
    return viol


@pytest.fixture(scope="module")
def degraded_boundary(degraded_demo):
    start = time.time()
    boundary = sweep_boundary(degraded_demo, RP_GRID, st_resolution=200)
    return boundary, time.time() - start


@pytest.fixture(scope="module")
def crossing_boundary(crossing_demo):
    return sweep_boundary(crossing_demo, RP_GRID, st_resolution=200)


@pytest.fixture(scope="module")
def random_sweep_cases():
    """20 random 2x2 scalar-observation models with sweep and oracle values.

    The rate points sit on the curved-but-not-extreme part of the boundary:
    a density-60 oracle quantizes the rate by ~2-7% per grid step, so on the
    steepest corner (slopes near 1) no fixed grid can resolve 1e-2.
    """
    start = time.time()
    rps = [round(x, 6) for x in np.linspace(1.0, 4.0, 10)]
    cases = []
    for seed in range(20):
        rng = rng_for(900 + seed)
        m = GeneralModel(
            sigma_x=random_spd(rng, 2, floor=0.5),
            b=rng.standard_normal((1, 2)),
            e=rng.standard_normal((1, 2)),
        )
        boundary = sweep_boundary(m, rps, st_resolution=80)
        oracle = [brute_force_grid(m, rp, grid_density=60).rk for rp in rps]
        cases.append((m, rps, boundary, oracle))
    return cases, time.time() - start


def test_criterion_1_degraded_boundary(degraded_demo, degraded_boundary):
    boundary, elapsed = degraded_boundary
    target = 0.5 * math.log(3.5 / 2.225)
    rks = [p.rk for p in boundary.points]
    monotone = all(b >= a for a, b in zip(rks, rks[1:]))
    viol = _concavity_violation(boundary.points)
    final_err = abs(boundary.points[-1].rk - target)
    ok = monotone and viol <= 1e-3 and final_err <= 1e-3 and elapsed < 60.0
    _report(
        "criterion 1 (degraded-source boundary)",
        ok,
        f"monotone={monotone}, concavity violation={viol:.2e}, "
        f"|rk(20) - {target:.6f}|={final_err:.2e}, sweep time={elapsed:.1f}s",
    )


def test_criterion_2_crossing_boundary(crossing_demo, crossing_boundary):
    # equally informative observations overall: I(X;Y) - I(X;Z) is exactly 0
    eye = np.eye(1)
    mi_y = 0.5 * linalg.logdet_pd(crossing_demo.b @ crossing_demo.sigma_x
                                  @ crossing_demo.b.T + eye)
    mi_z = 0.5 * linalg.logdet_pd(crossing_demo.e @ crossing_demo.sigma_x
                                  @ crossing_demo.e.T + eye)
    phi_max = float(np.max(np.roots([3.5, -9.25, 3.5])))
    target = 0.5 * math.log(phi_max)
    rk_at_1 = crossing_boundary.rk_at(1.0)
    final_err = abs(crossing_boundary.points[-1].rk - target)
    ok = (abs(mi_y - mi_z) < 1e-12 and rk_at_1 > 0.05 and final_err <= 1e-3)
    _report(
        "criterion 2 (crossing-source boundary)",
        ok,
        f"I(X;Y)-I(X;Z)={mi_y - mi_z:.2e}, rk(1.0)={rk_at_1:.4f} > 0.05, "
        f"|rk(20) - {target:.6f}|={final_err:.2e}",
    )


def test_criterion_3_oracle_equivalence(random_sweep_cases):
    cases, elapsed = random_sweep_cases
    worst = 0.0
    for _, rps, boundary, oracle in cases:
        for pt, orc in zip(boundary.points, oracle):
            worst = max(worst, abs(pt.rk - orc))
    ok = worst <= 1e-2 and elapsed < 300.0
    _report(
        "criterion 3 (sweep vs brute-force oracle)",
        ok,
        f"20 models x 10 rates, worst |sweep - oracle|={worst:.2e}, "
        f"time={elapsed:.0f}s",
    )


def _certify_boundary_points(m, boundary, alpha=1e-3):
    """Certify the optimum behind every boundary point of a sweep.

    Each point's winning cell is re-solved for its achieved public rate;
    the model is embedded into an invertible-observation equivalent, the
    aligned optimum at that rate is found, and the full certificate is
    checked.  Returns (max residual, worst key-rate mismatch)."""
    aligned = to_aligned(perturb_svd(m, alpha).model_bar)
    worst_res = 0.0
    worst_val = 0.0
    seen = set()
    for pt, meta in zip(boundary.points, boundary.solver_meta):
        if meta.s is None:
            rp_cert = 0.0
        else:
            key = (round(meta.s, 12), round(meta.t, 12))
            if key in seen:
                continue
            seen.add(key)
            rp_cert = inner_convex(m, SweepParams(meta.s, meta.t)).value
        report = solve_at_rate(aligned, rp_cert)
        cert = kkt.certify(aligned, report.optimum, rp_cert)
        worst_res = max(worst_res, cert.max_residual)
        worst_val = max(worst_val, abs(max(report.value, 0.0) - pt.rk))
    return worst_res, worst_val


def test_criterion_4_kkt_certification(degraded_demo, crossing_demo,
                                       degraded_boundary, crossing_boundary,
                                       random_sweep_cases):
    worst_res = 0.0
    worst_val = 0.0
    n_sets = 0
    for m, boundary in [
        (degraded_demo, degraded_boundary[0]),
        (crossing_demo, crossing_boundary),
    ] + [(case[0], case[2]) for case in random_sweep_cases[0]]:
        res, val = _certify_boundary_points(m, boundary)
        worst_res = max(worst_res, res)
        worst_val = max(worst_val, val)
        n_sets += 1
    ok = worst_res < 1e-6 and worst_val < 0.05
    _report(
        "criterion 4 (KKT certificates at boundary points)",
        ok,
        f"{n_sets} boundaries certified, max residual={worst_res:.2e}, "
        f"worst key-rate mismatch={worst_val:.2e}",
    )


def test_criterion_5_enhancement_edges():
    rng = rng_for(75)
    # mu = 0 with the recovered multiplier matrix collapses the enhanced
    # noise onto the eavesdropper's noise
    wz = random_spd(rng, 2)
    from gausskey import AlignedModel

    m = AlignedModel(sigma_x=random_spd(rng, 2), sigma_wy=wz + random_spd(rng, 2),
                     sigma_wz=wz)
    sigma = 0.5 * m.sigma_x
    m_mat = linalg.eig_clip(stationarity_matrix(m, sigma, 0.0), 0.0, np.inf)
    err_mu0 = float(np.max(np.abs(enhance(m, sigma, 0.0, m_mat) - m.sigma_wz)))
    # M = 0 leaves the legitimate noise untouched
    m2 = AlignedModel(sigma_x=random_spd(rng, 2), sigma_wy=random_spd(rng, 2),
                      sigma_wz=random_spd(rng, 2))
    err_m0 = float(np.max(np.abs(
        enhance(m2, 0.4 * m2.sigma_x, 0.7, np.zeros((2, 2))) - m2.sigma_wy
    )))
    ok = err_mu0 < 1e-10 and err_m0 < 1e-10
    _report(
        "criterion 5 (enhancement edge cases)",
        ok,
        f"|W~ - Wz| at mu=0: {err_mu0:.2e}, |W~ - Wy| at M=0: {err_m0:.2e}",
    )


def test_criterion_6_monte_carlo():
    start = time.time()
    hits = 0
    for seed in range(10):
        rng = rng_for(800 + seed)
        my = 1 + seed % 2
        mz = 1 + (seed // 2) % 2
        m = GeneralModel(
            sigma_x=random_spd(rng, 2, floor=0.5),
            b=rng.standard_normal((my, 2)),
            e=rng.standard_normal((mz, 2)),
        )
        q = random_conditional(rng, m.sigma_x, lo=0.1, hi=0.85)
        rp_est, rk_est = cross_validate(m, q, 10**5, seed)
        analytic = rates_general(m, q)
        if (abs(rp_est.value - analytic.rp) < 3.0 * rp_est.std_error
                and abs(rk_est.value - analytic.rk) < 3.0 * rk_est.std_error):
            hits += 1
    elapsed = time.time() - start
    ok = hits >= 9 and elapsed < 120.0
    _report(
        "criterion 6 (Monte-Carlo cross-validation)",
        ok,
        f"{hits}/10 pairs within 3 standard errors, time={elapsed:.0f}s",
    )


def test_criterion_7_gen_eig_identities():
    rng = rng_for(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = GeneralModel(
            sigma_x=random_spd(rng, n),
            b=rng.standard_normal((int(rng.integers(1, 4)), n)),
            e=rng.standard_normal((int(rng.integers(1, 4)), n)),
        )
        res = gen_eigs(m)
        s_half = linalg.roots(m.sigma_x)[0]
        a = s_half @ m.b.T @ m.b @ s_half + np.eye(n)
        c = s_half @ m.e.T @ m.e @ s_half + np.eye(n)
        ratio = np.exp(linalg.logdet_pd(a) - linalg.logdet_pd(c))
        worst = max(worst, abs(np.prod(res.phis) - ratio) / ratio)
    equal = GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[1.0, 0.5]])
    limit_equal = asymptotic_limit(equal)
    ok = worst < 1e-10 and limit_equal == 0.0
    _report(
        "criterion 7 (generalized-eigenvalue identities)",
        ok,
        f"worst relative product error={worst:.2e} over 100 models, "
        f"equal-observation limit={limit_equal}",
    )


def test_criterion_8_vanishing_gap(degraded_demo):
    # the demo model's eavesdropper matrix pads to a rank-deficient square
    alphas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    gaps = [perturb_svd(degraded_demo, a).gap for a in alphas]
    decreasing = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] < 1e-4
    _report(
        "criterion 8 (vanishing perturbation gap)",
        ok,
        f"gaps strictly decreasing={decreasing}, gap(1e-6)={gaps[-1]:.2e}",
    )
