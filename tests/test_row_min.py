"""The sweep's row minimum (``sweep._row_min_rp``) against references.

``_scan_golden_row_min`` is the search that the envelope-theorem search
replaced: a 16-point log-s scan, then 18 golden-section steps around the
best scan point, every probe a full barrier solve.  On every row that the
sweep visits -- both demo sources at resolution 60 and the 13
models of the benchmark's ``random_sweep`` workload -- the reach may not
exceed that reference by more than 1e-9, and the demo boundaries may not
fall below the ones the reference gives by more than that.

Near ``t_max`` a row's feasible s-interval can be narrower than one scan
step.  The scan then sees only ``s_max`` and the golden section probes a
mostly infeasible bracket, so its reach is too high (by 2.2e-2 nats on the
rows of random model 902).  There the reach is checked against a dense
log-s scan that is refined by golden section and by bisection to the
feasibility edge.

On the same sweeps every reported key rate is within ``SWEEP_IK_TOL`` of
the ``t*`` of its bracket: the row one step of that size above the
reported ``t`` no longer qualifies.

A count of ``inner_convex`` calls guards the cost without a clock: on the
degraded demo every row minimum sits at the kink and takes two solves.
A cell that ends uncentred has no multiplier, so the search must stop at
it and keep the best value seen; so must a probe above the row's
closed-form edge that still raises ``Infeasible``.
"""

import dataclasses
import math

import numpy as np
import pytest

from gausskey import GeneralModel, SweepParams, sweep
from gausskey.errors import Infeasible, MaxIterationsExceeded

from conftest import random_spd, rng_for

REACH_TOL = 1e-9
DEMO_GRID = [float(x) for x in np.linspace(0.0, 20.0, 41)]


def _models():
    """(name, model, rp grid, resolution) of the checked sweeps: both demo
    sources as ``gausskey region`` runs them, then the ``random_sweep``
    benchmark models."""
    out = [
        ("degraded", GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]],
                                  e=[[0.7, 0.35]]), DEMO_GRID, 60),
        ("crossing", GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]],
                                  e=[[0.5, 1.0]]), DEMO_GRID, 60),
    ]
    for mx, key, rp in tuple((2, 900 + k, 1.0 + 3.0 * k / 11.0) for k in range(12)) \
            + ((3, 930, 2.5),):
        rng = rng_for(key)
        m = GeneralModel(sigma_x=random_spd(rng, mx, floor=0.5),
                         b=rng.standard_normal((1, mx)),
                         e=rng.standard_normal((1, mx)))
        out.append((f"key{key}", m, [rp], 40))
    return out


MODELS = _models()


def _scaled_start(frame, params, warm):
    """The row search's former start: the last reduced optimum ``warm``
    scaled into a thin boundary layer below the ``s`` cap, or None when
    there is none or it breaks a cell constraint."""
    if warm is None:
        return None
    qb_warm = frame.signal_power(warm)
    if qb_warm <= (1.0 - 1e-6) * params.s:
        beta = 1.0 - 1e-9
    else:
        beta = (1.0 - 1e-6) * params.s / qb_warm
    ca, cb, cc = beta * warm[0], beta * warm[1], beta * warm[2]
    if all(g00 * ca + 2.0 * g01 * cb + g11 * cc + cst < 0.0
           for g00, g01, g11, cst in sweep._cell_constraints(frame, params)):
        return ca, cb, cc
    return None


def _solver(frame, t):
    """Full-schedule cell solves along one row, each started from the last
    optimum scaled by ``_scaled_start``; returns the value at s, or None
    past the edge."""
    warm = {"a2": None}

    def solve(s):
        params = SweepParams(s=float(s), t=float(t))
        try:
            cell = sweep.inner_convex(
                frame, params, sigma0=_scaled_start(frame, params, warm["a2"]))
        except (Infeasible, MaxIterationsExceeded):
            return None
        warm["a2"] = cell.a2
        return cell.value
    return solve


def _golden_section(f, lo, hi, iters):
    """Golden-section minimization of f over [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a < 1e-10:
            break


def _scan_golden_row_min(frame, t, s_max, ik_t, near=None, n_scan=16, n_golden=18):
    """The former ``_row_min_rp``: a log-s scan, then a golden section on
    the bracket around the best scan point; returns it in the same form,
    with no top cell, so no row starts from it.  ``near`` is ignored: every
    probe runs cold."""
    solve = _solver(frame, t)
    evals = []
    for s in s_max * np.geomspace(1.0, sweep.SWEEP_S_FLOOR, n_scan):
        value = solve(s)
        if value is None:
            break
        evals.append((value, float(s)))
    if not evals:
        return float("inf"), None, None
    k = int(np.argmin([e[0] for e in evals]))
    lo = evals[k + 1][1] if k + 1 < len(evals) else \
        evals[k][1] * sweep.SWEEP_S_FLOOR ** (1.0 / n_scan)
    hi = evals[k - 1][1] if k > 0 else s_max
    best = list(evals[k])

    def f(log_s):
        value = solve(math.exp(log_s))
        if value is None:
            return float("inf")
        if value < best[0]:
            best[:] = [value, math.exp(log_s)]
        return value

    _golden_section(f, math.log(lo), math.log(hi), n_golden)
    return best[0], (best[0], ik_t, best[1], float(t), 0.0), None


def _dense_row_min(frame, t, s_max):
    """Row minimum from a 0.01-spaced log-s scan down to the feasibility
    edge (located by bisection), refined by golden section around the best
    scan point.  Only for rows whose feasible s-interval is short."""
    solve = _solver(frame, t)
    x_top = math.log(s_max)
    x_in, x_out = x_top, x_top - 1.0
    while solve(math.exp(x_out)) is not None:
        x_in, x_out = x_out, x_out - 1.0
        assert x_out > x_top - 4.0, "row feasible too far down for a dense scan"
    for _ in range(60):
        mid = 0.5 * (x_in + x_out)
        if solve(math.exp(mid)) is None:
            x_out = mid
        else:
            x_in = mid
    xs = np.append(np.arange(x_top, x_in, -0.01), x_in)
    values = [solve(math.exp(x)) for x in xs]
    k = int(np.argmin(values))
    best = [values[k]]

    def f(x):
        value = solve(math.exp(x))
        best[0] = min(best[0], value)
        return value

    _golden_section(f, xs[min(k + 1, len(xs) - 1)], xs[max(k - 1, 0)], 80)
    return best[0]


@pytest.fixture(scope="module")
def refined_rows():
    """Per model: the boundary, and each ``_row_min_rp`` call of its sweep as
    ``(frame, t, s_max, ik_t, reach, inner_convex calls)``."""
    out = {}
    row_min = sweep._row_min_rp
    inner = sweep.inner_convex
    calls = [0]

    def counted_inner(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    for name, m, grid, res in MODELS:
        rows = []

        def recorded(frame, t, s_max, ik_t, near=None):
            before = calls[0]
            out = row_min(frame, t, s_max, ik_t, near)
            rows.append((frame, t, s_max, ik_t, out[0], calls[0] - before))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "_row_min_rp", recorded)
            mp.setattr(sweep, "inner_convex", counted_inner)
            boundary = sweep.sweep_boundary(m, grid, st_resolution=res)
        # the counter sits where the sweep looks: every row solves a cell
        assert rows and all(row[-1] >= 1 for row in rows), name
        out[name] = (boundary, rows)
    return out


@pytest.mark.parametrize("name", [name for name, *_ in MODELS])
def test_reach_never_above_the_scan_reference(refined_rows, name):
    _, rows = refined_rows[name]
    assert rows
    misses = []
    for frame, t, s_max, ik_t, reach, _ in rows:
        ref, *_ = _scan_golden_row_min(frame, t, s_max, ik_t)
        if not reach <= ref + REACH_TOL:
            misses.append((t, reach, ref))
    assert not misses, misses


@pytest.mark.parametrize("name", ["degraded", "crossing"])
def test_demo_boundaries_match_the_scan_reference(refined_rows, monkeypatch, name):
    # one-sided: each sweep converges to the t* of its own row minimum, and
    # the reference's is never below ours, so its t* is the lower one
    _, m, grid, res = next(entry for entry in MODELS if entry[0] == name)
    monkeypatch.setattr(sweep, "_row_min_rp", _scan_golden_row_min)
    reference = sweep.sweep_boundary(m, grid, st_resolution=res)
    got = refined_rows[name][0]
    diffs = [p.rk - q.rk for p, q in zip(got.points, reference.points)]
    assert min(diffs) >= -REACH_TOL, diffs


def test_root_find_bisects_an_infeasible_end_and_closes_the_bracket():
    # f is -inf (an infeasible row) above 0.7 and zero on [0.5, root]: the
    # search bisects into the finite part, survives a kept end whose value
    # is exactly 0, and closes on the largest x with f >= 0
    root = 0.5 + 2.5e-8

    def f(x):
        fx = -math.inf if x > 0.7 else 0.5 - x if x < 0.5 else min(0.0, root - x)
        seen.append((x, fx))
        return fx

    seen = []
    sweep._anderson_bjorck(f, 0.0, 0.5, 1.0, -math.inf, 1e-7, margin=1e-8)
    lo = max(x for x, fx in seen if fx >= 0.0)
    hi = min(x for x, fx in seen if fx < 0.0)
    assert lo <= root < hi and hi - lo <= 1e-7
    assert any(fx == -math.inf for _, fx in seen)
    assert any(fx == 0.0 for _, fx in seen)


def _top_row(frame):
    """The highest ``t`` row of ``sweep_boundary``'s grid: the last of its
    uniform rows, ``t_max`` less the smallest gap, or the first of its gap
    rows, which should be the same."""
    t_min, t_max = sweep._t_range(frame)
    top = t_max - sweep.SWEEP_T_GAP_FLOOR * max(t_max - t_min, 1e-9)
    return max(top, float(np.expm1(np.log1p(top))))


@pytest.mark.parametrize("name", [name for name, *_ in MODELS])
def test_key_rates_are_within_the_tolerance_of_t_star(refined_rows, name):
    # a point below the top row has a non-qualifying row above it, and the
    # search for t* closes that bracket to SWEEP_IK_TOL in key rate
    boundary, rows = refined_rows[name]
    frame, _, s_max, *_ = rows[0]
    top = _top_row(frame)
    checked = 0
    misses = []
    for point, meta in zip(boundary.points, boundary.solver_meta):
        if meta.t is None or not meta.t < top:
            continue
        checked += 1
        t_up = math.expm1(2.0 * (0.5 * math.log1p(meta.t) + sweep.SWEEP_IK_TOL))
        reach, *_ = sweep._row_min_rp(frame, t_up, s_max, 0.0)
        if not reach > point.rp + 1e-12:
            misses.append((point.rp, meta.t, t_up, reach))
    assert checked
    assert not misses, misses


def test_narrow_rows_reach_their_feasibility_edge(refined_rows):
    # every refined row of model 902 is feasible on less than one scan step
    _, rows = refined_rows["key902"]
    misses = []
    for frame, t, s_max, _, reach, _ in rows:
        dense = _dense_row_min(frame, t, s_max)
        if not abs(reach - dense) <= REACH_TOL:
            misses.append((t, reach, dense))
    assert not misses, misses


def test_kink_rows_take_at_most_three_solves(refined_rows):
    # a reversion to scanning s would take 16 or more per row
    _, rows = refined_rows["degraded"]
    solves = [row[-1] for row in rows]
    assert len(solves) >= 50
    assert sum(solves) <= 3 * len(solves), solves


@pytest.mark.parametrize("forced", [1, 3])
def test_an_uncentred_cell_ends_the_row_search(refined_rows, monkeypatch, forced):
    # the first smooth crossing-demo row whose search takes more than three
    # solves; its cell number `forced` is made to report converged=False
    frame, t, s_max, ik_t, _, n_calls = next(
        row for row in refined_rows["crossing"][1] if row[-1] > 3)
    inner = sweep.inner_convex
    cells = []

    def forcing(*args, **kwargs):
        assert len(cells) < forced, "the search went on past an uncentred cell"
        cell = inner(*args, **kwargs)
        if len(cells) + 1 == forced:
            cell = dataclasses.replace(cell, converged=False)
        cells.append(cell)
        return cell

    monkeypatch.setattr(sweep, "inner_convex", forcing)
    rp_min, best, _ = sweep._row_min_rp(frame, t, s_max, ik_t)
    assert len(cells) == forced < n_calls
    s_free = frame.signal_power(cells[0].a2)
    kink = cells[0].value + 0.5 * (math.log1p(s_free) - math.log1p(s_max))
    assert rp_min == best[0] == min([kink] + [c.value for c in cells[1:]])


def test_an_infeasible_probe_above_the_edge_ends_the_row_search(refined_rows,
                                                                 monkeypatch):
    # no probe lies below the closed-form edge, but a start that rounding
    # leaves outside a sliver cell still raises Infeasible: the search keeps
    # the best value seen and stops, as at an uncentred cell
    frame, t, s_max, ik_t, _, n_calls = next(
        row for row in refined_rows["crossing"][1] if row[-1] > 3)
    inner = sweep.inner_convex
    cells = []

    def failing(*args, **kwargs):
        assert len(cells) < 3, "the search went on past an infeasible probe"
        if len(cells) == 2:
            cells.append(None)
            raise Infeasible("injected")
        cells.append(inner(*args, **kwargs))
        return cells[-1]

    monkeypatch.setattr(sweep, "inner_convex", failing)
    rp_min, best, _ = sweep._row_min_rp(frame, t, s_max, ik_t)
    assert len(cells) == 3 < n_calls
    s_free = frame.signal_power(cells[0].a2)
    kink = cells[0].value + 0.5 * (math.log1p(s_free) - math.log1p(s_max))
    assert rp_min == best[0] == min(kink, cells[1].value)


def test_a_cell_over_its_newton_budget_is_not_read_as_infeasible(monkeypatch):
    # a cell that exceeds its Newton budget must leave the sweep instead of
    # being dropped or read as the end of a row
    _, m, grid, res = MODELS[1]
    inner = sweep.inner_convex
    calls = []

    def failing(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 5:
            raise MaxIterationsExceeded("injected")
        return inner(*args, **kwargs)

    monkeypatch.setattr(sweep, "inner_convex", failing)
    with pytest.raises(MaxIterationsExceeded, match="injected"):
        sweep.sweep_boundary(m, grid, st_resolution=res)
    assert len(calls) == 5
