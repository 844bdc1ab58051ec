import copy
import math
import pickle
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest

from gausskey import (
    AlignedModel,
    GeneralModel,
    SweepParams,
    ascent_boundary,
    asymptotic_limit,
    brute_force_grid,
    inner_convex,
    kkt,
    linalg,
    rates_general,
    solve_at_rate,
    solver,
    sweep,
    sweep_boundary,
    to_aligned,
    to_general,
)
from gausskey.errors import DimensionTooLarge, Infeasible, SolverFailure
from gausskey.rates import PointMeta, RatePair

from conftest import random_general, random_spd, rng_for


def scalar_boundary_oracle(sx, wy, wz, rp):
    """Independent 1-d solve: bisection on the public-rate equality plus
    endpoint comparison (the key rate is monotone in the scalar variable)."""

    def ip(s):
        return 0.5 * math.log(sx / s) - 0.5 * math.log((sx + wy) / (s + wy))

    def ik(s):
        return 0.5 * math.log((sx + wy) / (s + wy)) - 0.5 * math.log(
            (sx + wz) / (s + wz)
        )

    lo, hi = 1e-15, sx
    if ip(lo) <= rp:
        s_min = lo
    else:
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if ip(mid) > rp:
                lo = mid
            else:
                hi = mid
        s_min = hi
    return max(0.0, ik(s_min), ik(sx))


# ---------------------------------------------------------------------------
# inner convex solve
# ---------------------------------------------------------------------------

def test_sweep_params_validation():
    with pytest.raises(ValueError):
        SweepParams(s=-0.1, t=0.0)
    with pytest.raises(ValueError):
        SweepParams(s=1.0, t=-1.0)


def test_inner_slack_cell_returns_full_covariance(degraded_demo):
    # both constraints slack at sigma_x: the log-det maximum is sigma_x and
    # the public-rate value reduces to the s terms
    s_max = 2.5
    t_at_full = (1.225 - 2.5) / 3.5
    params = SweepParams(s=s_max + 1.0, t=t_at_full - 0.05)
    report = inner_convex(degraded_demo, params)
    assert np.allclose(report.optimum.value, degraded_demo.sigma_x, atol=1e-5)
    expect = 0.5 * math.log1p(params.s) - 0.5 * math.log1p(s_max)
    assert report.value == pytest.approx(expect, abs=1e-6)
    assert report.converged


def _cell_grid_oracle(m, params, n_theta=360, n_d=800):
    """Exhaustive maximization of log-det over one cell's constraint set.

    Uses the whitened eigenvalue/angle parameterization; for fixed angle and
    first eigenvalue the constraints are affine in the second eigenvalue and
    the objective is increasing in it, so that variable is eliminated in
    closed form.  A second pass refines around the coarse maximizer.
    """
    s_half = linalg.roots(m.sigma_x)[0]
    b = m.b[0]
    e = m.e[0]
    bw = b @ s_half
    ew = e @ s_half

    def scan(thetas, d1s):
        best = (-np.inf, None, None)
        for theta in thetas:
            c, s = math.cos(theta), math.sin(theta)
            u1 = np.array([c, s])
            u2 = np.array([-s, c])
            cb1, cb2 = float(bw @ u1) ** 2, float(bw @ u2) ** 2
            ce1, ce2 = float(ew @ u1) ** 2, float(ew @ u2) ** 2
            for d1 in d1s:
                # b-power cap: d1 cb1 + d2 cb2 <= s
                hi = 1.0
                if cb2 > 1e-15:
                    hi = min(hi, (params.s - d1 * cb1) / cb2)
                elif d1 * cb1 > params.s:
                    continue
                # ratio bound: d2 (ce2 - (1+t) cb2) >= t + d1 ((1+t) cb1 - ce1)
                coef = ce2 - (1.0 + params.t) * cb2
                rhs = params.t + d1 * ((1.0 + params.t) * cb1 - ce1)
                lo = 1e-12
                if coef > 1e-15:
                    lo = max(lo, rhs / coef)
                elif coef < -1e-15:
                    hi = min(hi, rhs / coef)
                elif rhs > 0.0:
                    continue
                if hi < lo:
                    continue
                val = math.log(d1) + math.log(hi)
                if val > best[0]:
                    best = (val, theta, d1)
        return best

    thetas = np.linspace(0.0, math.pi, n_theta, endpoint=False)
    d1s = np.geomspace(1e-4, 1.0, n_d)
    best = scan(thetas, d1s)
    dth = math.pi / n_theta
    ratio = (1e4) ** (1.0 / (n_d - 1))
    best = scan(
        np.linspace(best[1] - dth, best[1] + dth, 60),
        np.geomspace(best[2] / ratio, min(1.0, best[2] * ratio), 400),
    )
    return best[0]


def test_inner_matches_restricted_grid_search(degraded_demo):
    params = SweepParams(s=0.8, t=-0.25)
    report = inner_convex(degraded_demo, params)
    best_logdet = _cell_grid_oracle(degraded_demo, params)
    oracle_value = (
        -0.5 * best_logdet - 0.5 * math.log1p(2.5) + 0.5 * math.log1p(params.s)
    )
    assert report.value <= oracle_value + 1e-9  # solver at least as good
    assert report.value == pytest.approx(oracle_value, abs=1e-3)


def test_inner_general_dimension_path():
    # a 3-d source is solved on the 2-d whitened span of (b, e)
    rng = rng_for(46)
    sigma_x = random_spd(rng, 3)
    b = rng.standard_normal((1, 3))
    e = rng.standard_normal((1, 3))
    m = GeneralModel(sigma_x=sigma_x, b=b, e=e)
    s_max = float(b[0] @ sigma_x @ b[0])
    e_full = float(e[0] @ sigma_x @ e[0])
    t_full = (e_full - s_max) / (s_max + 1.0)
    report = inner_convex(m, SweepParams(s=s_max + 1.0, t=t_full - 0.1))
    assert report.converged
    assert np.allclose(report.optimum.value, sigma_x, atol=1e-4)


def test_inner_infeasible_cell(degraded_demo):
    # t beyond the maximal achievable ratio has an empty constraint set
    with pytest.raises(Infeasible):
        inner_convex(degraded_demo, SweepParams(s=2.5, t=0.5))


def test_inner_requires_scalar_observations():
    m = GeneralModel(sigma_x=np.eye(2), b=np.eye(2), e=np.eye(2))
    with pytest.raises(SolverFailure):
        inner_convex(m, SweepParams(s=1.0, t=0.0))


# ---------------------------------------------------------------------------
# sweep boundary
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_sweeps(degraded_demo, crossing_demo):
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0]
    return {
        "degraded": sweep_boundary(degraded_demo, grid, st_resolution=60),
        "crossing": sweep_boundary(crossing_demo, grid, st_resolution=60),
        "grid": grid,
    }


def test_sweep_zero_communication_corner(demo_sweeps, degraded_demo):
    # at zero public rate only the full covariance is feasible and its key
    # rate is identically zero
    assert demo_sweeps["degraded"].points[0].rk == 0.0
    assert rates_general(degraded_demo, degraded_demo.sigma_x).rk == 0.0


def test_sweep_at_zero_rate_solves_no_cell(degraded_demo, crossing_demo, monkeypatch):
    # I(U;X|Y) = 0 forces Q = sigma_x, so the corner is exact at rp = 0; the
    # row search cost 12 and 46 cells here at resolution 60
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return inner_convex(*args, **kwargs)

    monkeypatch.setattr(sweep, "inner_convex", counted)
    for m in (degraded_demo, crossing_demo):
        boundary = sweep_boundary(m, [0.0], st_resolution=60)
        s_max = float(m.b[0] @ m.sigma_x @ m.b[0])
        ez = float(m.e[0] @ m.sigma_x @ m.e[0])
        assert boundary.points[0] == RatePair(rp=0.0, rk=0.0)
        assert boundary.solver_meta[0] == PointMeta(
            s=s_max, t=math.expm1(math.log1p(ez) - math.log1p(s_max)), kkt_residual=0.0)
    assert not calls
    # the counter sits where the sweep looks: above rp 0 it sees the cells
    sweep_boundary(degraded_demo, [0.5], st_resolution=60)
    assert calls


def test_sweep_reaches_limit_degraded(demo_sweeps, degraded_demo):
    limit = asymptotic_limit(degraded_demo)
    assert demo_sweeps["degraded"].points[-1].rk == pytest.approx(limit, abs=1e-3)


def test_sweep_reaches_limit_crossing(demo_sweeps, crossing_demo):
    limit = asymptotic_limit(crossing_demo)
    assert demo_sweeps["crossing"].points[-1].rk == pytest.approx(limit, abs=1e-3)


def test_sweep_monotone_and_bounded(demo_sweeps, degraded_demo, crossing_demo):
    for name, m in (("degraded", degraded_demo), ("crossing", crossing_demo)):
        bnd = demo_sweeps[name]
        limit = asymptotic_limit(m)
        rks = [p.rk for p in bnd.points]
        assert all(b >= a for a, b in zip(rks, rks[1:]))
        assert all(rk <= limit + 1e-9 for rk in rks)


def test_sweep_rejects_bad_grid(degraded_demo):
    with pytest.raises(ValueError):
        sweep_boundary(degraded_demo, [1.0, 0.5], st_resolution=20)


@pytest.mark.parametrize("resolution", (-3, 0, 1))
def test_sweep_rejects_degenerate_resolution(degraded_demo, resolution):
    # resolution 0 swept no cell and reported rk = 0 at every rate
    with pytest.raises(ValueError, match="st_resolution"):
        sweep_boundary(degraded_demo, [1.0], st_resolution=resolution)


@pytest.mark.parametrize("rp", [math.nan, -0.5])
def test_entry_points_reject_a_rate_that_is_not_nonnegative(degraded_demo, scalar_aligned, rp):
    # NaN passes every ordering test, so each entry point checks not rp >= 0
    with pytest.raises(ValueError):
        sweep_boundary(degraded_demo, [0.5, rp], st_resolution=20)
    with pytest.raises(ValueError):
        brute_force_grid(degraded_demo, rp)
    with pytest.raises(ValueError):
        solve_at_rate(scalar_aligned, rp)
    with pytest.raises(ValueError):
        ascent_boundary(scalar_aligned, [0.5, rp])


# ---------------------------------------------------------------------------
# ascent boundary
# ---------------------------------------------------------------------------

def test_ascent_zero_rate_returns_full_covariance(scalar_aligned):
    report = solve_at_rate(scalar_aligned, 0.0)
    assert np.allclose(report.optimum.value, scalar_aligned.sigma_x)
    assert report.value == pytest.approx(0.0, abs=1e-12)


def test_ascent_reports_iterations_taken(monkeypatch):
    # test_aligned_points._fresh_model(5001): at rp 5 the commuting-part
    # polish fails and, with the path in rp off (the default solve
    # certifies the point on it), the solve runs the ascent from its first
    # four starts.  It converges long before the iteration cap, and the
    # report counts the iterations of every start rather than the cap
    monkeypatch.setattr(solver, "_rate_path", lambda *args: None)
    rng = rng_for(5001)
    m = AlignedModel(*(random_spd(rng, 3) for _ in range(3)))
    report = solve_at_rate(m, 5.0, n_starts=4, max_iter=400)
    assert report.converged
    assert 0 < report.iterations < 4 * 400


def test_a_report_keeps_its_read_only_stats_through_pickle_and_deepcopy(degraded_demo,
                                                                        scalar_aligned):
    # SolveReport.stats is a read-only mapping, which a mappingproxy alone
    # does not pickle; the sweep's cell reports no work, the aligned solve
    # its own.  A pickle holds the fields alone, whatever else the instance
    # keeps (a cached_property's value, say)
    cell = inner_convex(degraded_demo, SweepParams(s=3.5, t=(1.225 - 2.5) / 3.5 - 0.05))
    aligned = solve_at_rate(scalar_aligned, 0.5)
    object.__setattr__(aligned, "cached", 1.0)
    assert dict(cell.stats) == {} and aligned.stats["polish_calls"] > 0
    for report in (cell, aligned):
        for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert type(copied.stats) is MappingProxyType and copied.stats == report.stats
            assert copied.optimum.value.tobytes() == report.optimum.value.tobytes()
            assert ((copied.value, copied.iterations, copied.kkt_residual, copied.converged)
                    == (report.value, report.iterations, report.kkt_residual, report.converged))
        with pytest.raises(TypeError):
            report.stats["route"] = "none"


def test_ascent_rejects_a_negative_iteration_cap(scalar_aligned):
    with pytest.raises(ValueError, match="max_iter"):
        solve_at_rate(scalar_aligned, 0.5, max_iter=-1)
    # no ascent at all is legal; the structured routes run first anyway
    report = solve_at_rate(scalar_aligned, 0.5, max_iter=0)
    assert report.iterations == 0


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), "3"])
@pytest.mark.parametrize("name", ["n_starts", "max_iter", "st_resolution", "grid_density"])
def test_counts_must_be_integers(degraded_demo, scalar_aligned, name, value):
    # a float count raised a TypeError from deep inside, and max_iter was
    # taken whenever the solve did not reach the ascent
    call = {"n_starts": lambda: solve_at_rate(scalar_aligned, 0.5, n_starts=value),
            "max_iter": lambda: solve_at_rate(scalar_aligned, 0.5, max_iter=value),
            "st_resolution": lambda: sweep_boundary(degraded_demo, [0.5], st_resolution=value),
            "grid_density": lambda: brute_force_grid(degraded_demo, 0.5, grid_density=value)}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call[name]()


@pytest.mark.parametrize("n_starts", [0, -1])
def test_ascent_rejects_fewer_than_one_start(scalar_aligned, n_starts):
    with pytest.raises(ValueError, match="n_starts"):
        solve_at_rate(scalar_aligned, 0.5, n_starts=n_starts)


def test_ascent_takes_at_most_its_six_structured_starts(scalar_aligned):
    # sigma_x scaled by 1, 3/4, 1/2 and 1/4 and the two commuting-part
    # optima; there is no seed and no random start
    with pytest.raises(ValueError, match="n_starts"):
        solve_at_rate(scalar_aligned, 0.5, n_starts=7)
    with pytest.raises(TypeError):
        solve_at_rate(scalar_aligned, 0.5, seed=0)
    assert solve_at_rate(scalar_aligned, 0.5, n_starts=6).converged


def test_ascent_matches_scalar_oracle():
    rng = rng_for(41)
    for _ in range(8):
        sx = float(rng.uniform(0.5, 4.0))
        wy = float(rng.uniform(0.2, 2.0))
        wz = float(rng.uniform(0.2, 2.0))
        m = AlignedModel(sigma_x=[[sx]], sigma_wy=[[wy]], sigma_wz=[[wz]])
        for rp in (0.3, 1.2):
            got = solve_at_rate(m, rp).value
            want = scalar_boundary_oracle(sx, wy, wz, rp)
            assert max(0.0, got) == pytest.approx(want, abs=1e-6)


def test_ascent_matches_grid_oracle_degraded_2x2():
    rng = rng_for(42)
    for _ in range(3):
        wy = random_spd(rng, 2)
        m = AlignedModel(
            sigma_x=random_spd(rng, 2), sigma_wy=wy, sigma_wz=wy + random_spd(rng, 2)
        )
        gen = to_general(m)
        for rp in (0.5, 1.5):
            got = solve_at_rate(m, rp).value
            oracle = brute_force_grid(gen, rp, 60).rk
            assert abs(max(0.0, got) - oracle) < 1e-2


def test_sweep_and_ascent_agree_on_scalar_models():
    # scalar sources are the only ones with both a scalar-observation sweep
    # and an invertible aligned equivalent
    rng = rng_for(43)
    grid = [0.0, 0.4, 1.0, 2.5]
    for _ in range(3):
        b = float(rng.uniform(0.4, 1.5))
        e = float(rng.uniform(0.2, 1.2))
        m = GeneralModel(sigma_x=[[float(rng.uniform(0.5, 3.0))]], b=[[b]], e=[[e]])
        bs = sweep_boundary(m, grid, st_resolution=80)
        ba = ascent_boundary(to_aligned(m), grid)
        for p_sweep, p_ascent in zip(bs.points, ba.points):
            assert abs(p_sweep.rk - p_ascent.rk) < 1e-3


def test_tall_models_solve_through_their_reduction():
    # Y = B X + W with a tall B of full column rank reduces to the aligned
    # form without loss; the optimum's rates on the original model are the
    # ascent's value and budget
    rng = np.random.default_rng(5)
    certified = 0
    for _ in range(16):
        mx = int(rng.integers(2, 4))
        my, mz = int(rng.integers(mx, 6)), int(rng.integers(mx, 6))
        a = rng.standard_normal((mx, mx))
        m = GeneralModel(sigma_x=a @ a.T + 0.5 * np.eye(mx),
                         b=rng.standard_normal((my, mx)),
                         e=0.7 * rng.standard_normal((mz, mx)))
        al = to_aligned(m)
        for rp in (0.3, 1.0, 3.0):
            report = solve_at_rate(al, rp)
            achieved = rates_general(m, report.optimum.value)
            assert achieved.rk == pytest.approx(report.value, abs=1e-9)
            assert achieved.rp <= rp + 1e-9
            certified += kkt.certify(al, report.optimum, rp).max_residual < 1e-6
    assert certified == 48


def test_ascent_points_certify():
    rng = rng_for(44)
    wy = random_spd(rng, 2)
    m = AlignedModel(
        sigma_x=random_spd(rng, 2), sigma_wy=wy, sigma_wz=wy + random_spd(rng, 2)
    )
    bnd = ascent_boundary(m, [0.0, 0.7, 2.0])
    for meta in bnd.solver_meta:
        assert meta.kkt_residual < 1e-6


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_grid_contains_full_covariance_corner(degraded_demo):
    # the d = (1, 1) grid point is the zero-communication corner
    pair = brute_force_grid(degraded_demo, 0.0, grid_density=30)
    assert pair.rk == pytest.approx(0.0, abs=1e-12)


def test_grid_equal_observations_zero_everywhere():
    m = GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[1.0, 0.5]])
    for rp in (0.0, 0.5, 2.0):
        assert brute_force_grid(m, rp, grid_density=40).rk == pytest.approx(
            0.0, abs=1e-12
        )


def test_grid_lower_bounds_sweep(degraded_demo, demo_sweeps):
    # the oracle is a restriction of the search space, so at matching rates
    # it never exceeds the sweep.  At deeply saturated rates both land within
    # each other's resolution: the oracle's restriction gap shrinks like
    # exp(-2 rp) while the sweep keeps its fixed top-of-grid quantization
    # (~2e-7 here), so the strict form is only meaningful on the curved part.
    for rp, pt in zip(demo_sweeps["grid"], demo_sweeps["degraded"].points):
        oracle = brute_force_grid(degraded_demo, rp, grid_density=60)
        slack = 1e-9 if rp <= 2.0 else 1e-6
        assert oracle.rk <= pt.rk + slack
        assert abs(oracle.rk - pt.rk) <= 1e-2


def test_grid_rejects_large_dimension():
    rng = rng_for(45)
    m = GeneralModel(
        sigma_x=random_spd(rng, 3), b=rng.standard_normal((1, 3)),
        e=rng.standard_normal((1, 3)),
    )
    with pytest.raises(DimensionTooLarge):
        brute_force_grid(m, 1.0)


def test_grid_scalar_model_matches_oracle():
    m = GeneralModel(sigma_x=[[2.0]], b=[[1.0]], e=[[0.5]])
    al = to_aligned(m)
    want = scalar_boundary_oracle(2.0, 1.0, 4.0, 1.0)
    got = brute_force_grid(m, 1.0, grid_density=400).rk
    assert got == pytest.approx(want, abs=2e-3)
    assert got <= want + 1e-12


def _stacked_grid_rates(m, rp, grid_density):
    """The oracle's grid evaluated the long way: every conditional
    covariance of the grid is formed, and each observation's log-det is a
    ``slogdet`` over the whole stack.  Same enumeration and coverage rule as
    ``brute_force_grid``; returns ``(ip, ik)`` on the grid, shaped
    ``(T, N, N)`` over ``(theta, d1, d2)`` for mx = 2 and ``(N,)`` for
    mx = 1."""
    gain = 0.5 * linalg.logdet_pd(m.b @ m.sigma_x @ m.b.T + np.eye(m.my))
    d_min = max(1e-14, min(1e-2, math.exp(-(2.0 * rp + 2.0 * gain + 2.0))))
    d = np.geomspace(d_min, 1.0, grid_density)
    s_half = linalg.roots(m.sigma_x)[0]
    if m.mx == 1:
        sigmas = (s_half[0, 0] ** 2 * d)[:, None, None]
        log_dq = np.log(d)
    else:
        theta = np.linspace(0.0, math.pi, grid_density, endpoint=False)
        c, s = np.cos(theta), np.sin(theta)
        u1 = np.stack([c, s], axis=-1)
        u2 = np.stack([-s, c], axis=-1)
        p1 = np.einsum("ta,tb->tab", u1, u1)
        p2 = np.einsum("ta,tb->tab", u2, u2)
        q = (d[None, :, None, None, None] * p1[:, None, None]
             + d[None, None, :, None, None] * p2[:, None, None])
        sigmas = np.einsum("ab,tijbc,cd->tijad", s_half, q, s_half).reshape(-1, 2, 2)
        log_dq = (np.log(d)[None, :, None] + np.log(d)[None, None, :]
                  + np.zeros((grid_density, 1, 1))).reshape(-1)
    eye_y, eye_z = np.eye(m.my), np.eye(m.mz)
    ld_y = np.linalg.slogdet(np.einsum("ij,njk,lk->nil", m.b, sigmas, m.b) + eye_y)[1]
    ld_z = np.linalg.slogdet(np.einsum("ij,njk,lk->nil", m.e, sigmas, m.e) + eye_z)[1]
    gy = 0.5 * (linalg.logdet_pd(m.b @ m.sigma_x @ m.b.T + eye_y) - ld_y)
    gz = 0.5 * (linalg.logdet_pd(m.e @ m.sigma_x @ m.e.T + eye_z) - ld_z)
    shape = (grid_density,) * (1 if m.mx == 1 else 3)
    return (-0.5 * log_dq - gy).reshape(shape), (gy - gz).reshape(shape)


def _stacked_grid_reference(m, rp, grid_density):
    """The best key rate of ``_stacked_grid_rates`` under the feasibility
    test of ``brute_force_grid``, clamped at zero."""
    ip, ik = _stacked_grid_rates(m, rp, grid_density)
    feasible = ip <= rp + 1e-12
    best = float(np.max(ik[feasible])) if feasible.any() else 0.0
    return max(0.0, best)


@pytest.mark.parametrize("my", (1, 2, 3))
@pytest.mark.parametrize("mz", (1, 2, 3))
def test_grid_rows_are_monotone(my, mz):
    # the two facts the oracle's row search rests on: ip does not rise along
    # d2 (nor along d1), so each row's feasible cells are a suffix, and ik
    # is monotone along d2, so a suffix's best key rate is at one of its ends
    rng = rng_for(7400 + 10 * my + mz)
    for _ in range(2):
        m = random_general(rng, 2, my, mz)
        for rp in (0.5, 6.0):
            ip, ik = _stacked_grid_rates(m, rp, 30)
            assert np.all(np.diff(ip, axis=2) <= 1e-12)
            assert np.all(np.diff(ip, axis=1) <= 1e-12)
            step = np.diff(ik, axis=2)
            assert np.all(np.all(step >= -1e-12, axis=2) | np.all(step <= 1e-12, axis=2))


@pytest.mark.parametrize("my,mz", ((1, 1), (2, 3)))
def test_grid_row_search_edges(my, mz):
    # rp = 0 leaves rows with no feasible cell, rp = 1e-9 rows feasible in
    # their last cells only, and rp = 40 makes every cell feasible.  An odd
    # density puts no angle a quarter turn from another, so a row's d2 = 1
    # cell has no mirror (d1 = 1, d2) cell in another row to stand in for it
    rng = rng_for(7500 + 10 * my + mz)
    m = random_general(rng, 2, my, mz)
    for density in (8, 30, 31):
        for rp in (0.0, 1e-9, 40.0):
            ip = _stacked_grid_rates(m, rp, density)[0]
            feasible = ip <= rp + 1e-12
            if rp == 40.0:
                assert feasible.all()
            else:
                assert feasible[:, :, -1].any() and not feasible[:, :, -1].all()
                assert not feasible[:, :, 0].any()
            got = brute_force_grid(m, rp, grid_density=density).rk
            assert got == pytest.approx(_stacked_grid_reference(m, rp, density), abs=1e-12)


@pytest.mark.parametrize("mx", (1, 2))
@pytest.mark.parametrize("my", (1, 2, 3))
@pytest.mark.parametrize("mz", (1, 2, 3))
def test_grid_matches_stacked_reference(mx, my, mz):
    # the closed-form Gram evaluation against the stacked slogdet one
    rng = rng_for(7000 + 100 * mx + 10 * my + mz)
    for _ in range(2):
        m = random_general(rng, mx, my, mz)
        for density in (8, 30, 60):
            for rp in (0.0, 0.5, 2.0, 6.0):
                got = brute_force_grid(m, rp, grid_density=density).rk
                assert got == pytest.approx(_stacked_grid_reference(m, rp, density),
                                            abs=1e-12)


def test_grid_uses_no_part_of_the_sweep(degraded_demo, monkeypatch):
    # the oracle checks the sweep, so it must not share its arithmetic
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the sweep")

    frame = sweep._span_reduction(degraded_demo)
    t_min, t_max = sweep._t_range(frame)
    monkeypatch.setattr(sweep, "_span_reduction", forbidden)
    monkeypatch.setattr(sweep, "inner_convex", forbidden)
    assert brute_force_grid(degraded_demo, 1.0, grid_density=20).rk > 0.0
    # both patches sit where the sweep looks: for its frame and for its cells
    with pytest.raises(AssertionError, match="reached the sweep"):
        sweep_boundary(degraded_demo, [1.0], st_resolution=20)
    with pytest.raises(AssertionError, match="reached the sweep"):
        s_max = float(degraded_demo.b[0] @ degraded_demo.sigma_x @ degraded_demo.b[0])
        sweep._row_min_rp(frame, 0.5 * (t_min + t_max), s_max, 0.0)


@pytest.mark.parametrize("density", (-1, 0, 1))
def test_grid_rejects_degenerate_density(degraded_demo, density):
    # density 0 evaluates no point and density 1 drops the d = 1 corner
    with pytest.raises(ValueError, match="grid_density"):
        brute_force_grid(degraded_demo, 1.0, grid_density=density)


def test_grid_memory_stays_closed_form(crossing_demo):
    # a density-60 call holds a few T x N float arrays (29 kB each), as
    # its row search probes one d2 cell per (theta, d1) row at a time;
    # scoring every T x N x N cell takes 7 MB, and forming the grid's 2x2
    # covariance stacks 30 MB
    brute_force_grid(crossing_demo, 2.0, grid_density=8)  # warm caches
    tracemalloc.start()
    try:
        brute_force_grid(crossing_demo, 2.0, grid_density=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6
