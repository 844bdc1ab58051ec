"""The sweep's boundaries against a frozen set, and its cost in Newton steps.

``data/sweep_boundaries.json`` holds the key rates of the sweeps that the
suite and the benchmark run (see ``data/make_sweep_boundaries.py``): both
demo sources at resolutions 60 and 200, the 13 models of the benchmark's
``random_sweep`` workload and the criterion-3 corpus.  A change to how the
cells are started or searched may not move any of them by more than 1e-12.
A change that finds ``t*`` more exactly may raise them; the file is then
re-frozen after ``make_sweep_boundaries.py --check``, which fails on any
key rate that falls, so frozen values only ever rise.

The sweep searches its ``t`` rows for the last one whose row minimum
``F(t)`` (``solver._row_min_rp``) is within the public rate, which is sound
only because ``F`` is nondecreasing in ``t``; every row minimum that the
frozen sweeps evaluate is checked for that.

A count of Newton steps over every ``inner_convex`` call guards the sweep's
cost without a clock: the sweeps that scanned a coarse (s, t) grid before
refining took 80,752 steps on the two demos at resolution 60 and 110,762 on
the ``random_sweep`` models; the search on row minima alone, with a 10-step
bisection for ``t*``, took 68,026 and 68,013; with the Anderson-Bjorck root
find for ``t*``, 45,909 and 43,090; with the closed-form cold start,
43,233 and 40,613; with the closed-form row edge, which leaves no probe
below it, 42,625 and 39,533, later 40,752 and 39,533; with each barrier
stage started from the central path's tangent at the last centre, 24,734
and 26,050; with each row's top cell started from the nearest row solved
before it and each prediction outside its cell pulled inside, 14,561 and
16,677; with every probe below a row's top cell started from its
closed-form capped optimum (``solver._capped_optimum``) pulled inside, in
place of the last probe's tangent in s, it takes 9,622 and 10,076.  Cold
cells, which run the whole barrier schedule, are counted too: 610 of the
704 cells of the demos at resolution 60 ran cold before rows started from
rows, 194 before probes started from the capped optimum, 8 now, and at
most ``COLD_CELL_BOUND`` may.  No cell of the frozen sweeps may
raise ``Infeasible``: each row's feasible ``s`` range is known in closed
form (``solver._row_edge``).  A badly centred start shows first as a cell
that ends uncentred (``converged=False``): over all frozen sweeps at most
``UNCENTRED_BOUND`` may.  A cell that does not start cold must also land
where a cold solve of the same cell does; those cells are drawn from every
frozen sweep, and they include top cells started from another row and
starts pulled toward the closed-form start.

The sweep's ``t`` range, now the two roots of a quadratic, is checked
against the bisection on an eigenvalue test that it replaced.
"""

import json
import os

import numpy as np
import pytest

from gausskey import GeneralModel, solver
from gausskey.errors import Infeasible

from conftest import random_spd, rng_for

FROZEN_TOL = 1e-12
PREDICTOR_TOL = 1e-10
STEP_BOUNDS = {"demo_res60": 10_600, "random_sweep": 11_100}
COLD_CELL_BOUND = 12  # of demo_res60
KIND_MIN = 500  # predictor-started cells of each new kind
UNCENTRED_BOUND = 0


def _group(name):
    if name.endswith("_res60"):
        return "demo_res60"
    return "random_sweep" if name.startswith("random_sweep") else "other"


@pytest.fixture(scope="module")
def swept():
    """Per frozen sweep: its entry, its boundary and each row minimum it
    evaluated as ``(t, F(t))``; per group of sweeps, as
    ``counts[key][group]``: the Newton steps, the cells, the cells of each
    start kind (``_Cell.start``), the constraint builds
    (``solver._cell_constraints``) and the closed-form starts
    (``solver._cell_start``) of its ``inner_convex`` calls; over all sweeps:
    the predictor-started cells as ``(frame, params, value, kind)``, where
    ``kind`` is "pulled" for a start pulled toward the closed-form start (a
    probe's capped optimum, or a top cell's prediction from another row),
    "top" for a row's top cell started from another row without a pull and
    "row" for the rest, and the uncentred
    cells and the cells that raise ``Infeasible``, each as
    ``(name, params)``."""
    path = os.path.join(os.path.dirname(__file__), "data", "sweep_boundaries.json")
    with open(path) as fh:
        entries = json.load(fh)["sweeps"]
    inner = solver.inner_convex
    row_min = solver._row_min_rp
    counts = {}
    predicted = []
    uncentred = []
    infeasible = []
    group = None
    reaches = None

    def count(key, n=1):
        per_group = counts.setdefault(key, {})
        per_group[group] = per_group.get(group, 0) + n

    def counted(m, params, **kwargs):
        try:
            cell = inner(m, params, **kwargs)
        except Infeasible:
            infeasible.append((entry["name"], params))
            raise
        count("steps", cell.iterations)
        count("cells")
        count(cell.start)
        if cell.start != "cold":
            kind = ("pulled" if cell.start == "pulled" else
                    "top" if params.s == s_max else "row")
            predicted.append((m, params, cell.value, kind))
        if not cell.converged:
            uncentred.append((entry["name"], params))
        return cell

    def recorded(frame, t, s_max, ik_t, near=None):
        out = row_min(frame, t, s_max, ik_t, near)
        reaches.append((t, out[0]))
        return out

    def counting(key, func):
        def wrapped(*args):
            count(key)
            return func(*args)
        return wrapped

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "inner_convex", counted)
        mp.setattr(solver, "_row_min_rp", recorded)
        mp.setattr(solver, "_cell_constraints",
                   counting("builds", solver._cell_constraints))
        mp.setattr(solver, "_cell_start", counting("starts", solver._cell_start))
        for entry in entries:
            group = _group(entry["name"])
            reaches = []
            m = GeneralModel(sigma_x=entry["sigma_x"], b=entry["b"], e=entry["e"])
            s_max = float(m.b[0] @ m.sigma_x @ m.b[0])
            boundary = solver.sweep_boundary(m, entry["rp"],
                                             st_resolution=entry["resolution"])
            out.append((entry, boundary, reaches))
    return out, counts, predicted, uncentred, infeasible


def test_boundaries_match_the_frozen_sweeps(swept):
    boundaries, *_ = swept
    assert len(boundaries) == 4 + 13 + 20
    misses = []
    for entry, boundary, _ in boundaries:
        for rp, rk, point in zip(entry["rp"], entry["rk"], boundary.points):
            assert point.rp == rp
            if not abs(point.rk - rk) <= FROZEN_TOL:
                misses.append((entry["name"], rp, rk, point.rk))
    assert not misses, misses


def test_row_minimum_is_nondecreasing_in_t(swept):
    # the sweep's search over t rows rests on this; an infeasible row would
    # read inf and must not come below a feasible one either
    boundaries, *_ = swept
    n_rows = 0
    misses = []
    for entry, _, reaches in boundaries:
        f_of_t = dict(reaches)
        ts = sorted(f_of_t)
        n_rows += len(ts)
        for lo, hi in zip(ts, ts[1:]):
            if not f_of_t[hi] >= f_of_t[lo]:
                misses.append((entry["name"], lo, f_of_t[lo], hi, f_of_t[hi]))
    assert n_rows >= 1000
    assert not misses, misses


@pytest.mark.parametrize("group", sorted(STEP_BOUNDS))
def test_newton_steps_stay_within_their_bound(swept, group):
    _, counts, *_ = swept
    assert 0 < counts["steps"][group] <= STEP_BOUNDS[group], counts["steps"]


def test_cold_cells_stay_within_their_bound(swept):
    # every row minimum but a sweep's first starts from a neighbouring row
    _, counts, *_ = swept
    assert 0 < counts["cold"]["demo_res60"] <= COLD_CELL_BOUND, counts["cold"]


def test_each_cell_builds_its_constraints_and_start_once(swept):
    # the cell kernel alone decides a cell's start: every cell builds its
    # constraints once, and only a pulled or cold cell computes the
    # closed-form start, once (704 builds and 600 starts on the demos at
    # resolution 60)
    _, counts, *_ = swept
    group = "demo_res60"
    assert counts["builds"][group] == counts["cells"][group]
    assert counts["starts"][group] == counts["pulled"][group] + counts["cold"][group]
    assert counts["starts"][group] < counts["cells"][group]


def _interval_linear_max(g_w):
    """Maximum of <G, A> over the whitened matrix interval 0 <= A <= I: the
    sum of the positive eigenvalues of G."""
    w = np.linalg.eigh(g_w)[0]
    return float(w[w > 0.0].sum())


def _reference_t_range(frame):
    """The former ``solver._t_range``: doubling, then 200 bisection steps on
    the linear feasibility test of each end over the matrix interval."""
    bb = np.outer(frame.bw, frame.bw)
    ee = np.outer(frame.ew, frame.ew)

    def reachable_above(v):
        return _interval_linear_max(ee - (1.0 + v) * bb) >= v

    def reachable_below(v):
        return _interval_linear_max((1.0 + v) * bb - ee) >= -v

    lo, hi = 0.0, 1.0
    while reachable_above(hi) and hi < 1e12:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reachable_above(mid):
            lo = mid
        else:
            hi = mid
    t_max = lo
    lo, hi = -0.999999999, 0.0
    while reachable_below(lo) and lo > -1.0 + 1e-12:
        hi, lo = lo, -1.0 + 0.5 * (1.0 + lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reachable_below(mid):
            hi = mid
        else:
            lo = mid
    t_min = hi
    return float(t_min), float(t_max)


def _t_range_models():
    """The distinct models of the frozen sweeps (both demos, the
    random_sweep models and the criterion-3 corpus), then seeded models with
    mx 1-4: random, with ``e`` parallel to ``b`` and stronger, and degraded
    (``e = c b`` with ``|c| < 1``)."""
    path = os.path.join(os.path.dirname(__file__), "data", "sweep_boundaries.json")
    with open(path) as fh:
        entries = json.load(fh)["sweeps"]
    frozen = {json.dumps([e["sigma_x"], e["b"], e["e"]]): e for e in entries}
    assert len(frozen) == 2 + 13 + 20 - 12  # the corpus holds 12 of the 13
    for entry in frozen.values():
        yield entry["name"], GeneralModel(sigma_x=entry["sigma_x"], b=entry["b"],
                                          e=entry["e"])
    for key in range(12):
        rng = rng_for(4300 + key)
        mx = 1 + key % 4
        b = rng.standard_normal((1, mx))
        kind = ("random", "parallel", "degraded")[key // 4]
        scale = {"parallel": (1.2, 2.0), "degraded": (-0.9, 0.9)}.get(kind)
        e = rng.standard_normal((1, mx)) if scale is None else rng.uniform(*scale) * b
        yield f"{kind}_key{4300 + key}", GeneralModel(sigma_x=random_spd(rng, mx),
                                                      b=b, e=e)


def test_closed_form_t_range_matches_the_bisection():
    # relative to the end, or absolute near 0: the degraded demo's t_max is
    # about 1e-33, the rounding of its parallel b and e
    misses = []
    for name, m in _t_range_models():
        frame = solver._span_reduction(m)
        got, want = solver._t_range(frame), _reference_t_range(frame)
        if not all(abs(g - w) <= 1e-13 * abs(w) + 1e-30 for g, w in zip(got, want)):
            misses.append((name, got, want))
    assert not misses, misses


def test_uncentred_cells_stay_within_their_bound(swept):
    # one ended uncentred before the closed-form row edge: criterion3_key906
    # at s = 0.3079, t = 0.8286, then criterion3_key911 at s = 0.5628,
    # t = 0.4606; in both the largest ratio slack exceeded t by less than
    # 1e-6, and the barrier's final stages stalled.  The edge's bisection
    # no longer reaches such sliver cells on the frozen sweeps.
    _, _, _, uncentred, _ = swept
    assert len(uncentred) <= UNCENTRED_BOUND, uncentred


def test_no_cell_of_the_frozen_sweeps_is_infeasible(swept):
    # the row edge is known in closed form, so no probe lies below it
    *_, infeasible = swept
    assert not infeasible, infeasible


def test_predictor_started_cells_match_cold_solves(swept):
    _, _, cells, *_ = swept
    kinds = {}
    for *_, kind in cells:
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("top", 0) >= KIND_MIN and kinds.get("pulled", 0) >= KIND_MIN, kinds
    assert len(cells) >= 1000
    misses = []
    for frame, params, value, _ in cells:
        cold = solver.inner_convex(frame, params).value
        if not abs(value - cold) <= PREDICTOR_TOL:
            misses.append((params, value, cold))
    assert not misses, misses


@pytest.mark.parametrize("s, t", [(1.0, 0.3), (2.0, 0.5), (0.5, 0.2), (1.5, 0.8)])
def test_a_start_just_outside_the_interval_is_pulled_inside(crossing_demo, s, t):
    # the cold centre with its top whitened eigenvalue lifted to 1 + 1e-6,
    # as a linear prediction lifts it: pulled inside, the final weight
    # centres it in 13-21 Newton steps, against 32-37 for the cold solve
    frame = solver._span_reduction(crossing_demo)
    params = solver.SweepParams(s=s, t=t)
    cold = solver.inner_convex(frame, params)
    a, b, c = cold.a2
    w, v = np.linalg.eigh([[a, b], [b, c]])
    w[-1] = 1.0 + 1e-6
    x = (v * w) @ v.T
    cell = solver.inner_convex(frame, params, sigma0=(x[0, 0], x[0, 1], x[1, 1]),
                               tau0=solver.TAU_FINAL)
    assert cold.start == "cold" and cell.start == "pulled"
    assert max(abs(p - q) for p, q in zip(cell.a2, cold.a2)) <= PREDICTOR_TOL
    assert abs(cell.value - cold.value) <= PREDICTOR_TOL
    assert cell.iterations < cold.iterations


def test_a_capped_optimum_that_rounds_inside_is_still_pulled():
    # At this cell of the random_sweep model of key 900 the capped optimum,
    # which lies on the cell's boundary, passes the strict feasibility test
    # by rounding; started there as given, the barrier exceeds MAX_NEWTON.
    # The kernel's own start pulls it toward the closed-form start first.
    rng = rng_for(900)
    m = GeneralModel(sigma_x=random_spd(rng, 2, floor=0.5),
                     b=rng.standard_normal((1, 2)), e=rng.standard_normal((1, 2)))
    frame = solver._span_reduction(m)
    params = solver.SweepParams(s=0.11773567843399703, t=-0.084257122616871)
    capped = solver._capped_optimum(frame, params)
    assert solver._strictly_feasible(capped, solver._cell_constraints(frame, params))
    cell = solver.inner_convex(frame, params, tau0=solver.TAU_FINAL)
    assert cell.start == "pulled" and cell.converged and cell.iterations < 40
    assert abs(cell.value - solver.inner_convex(frame, params).value) <= PREDICTOR_TOL


def test_small_rates_reach_the_oracle(degraded_demo, crossing_demo):
    # below the first t row's public rate the sweep searches up from the
    # zero-communication corner; it used to report 0 there, as at the
    # crossing demo at rp 0.001, where 0.00118 is achievable
    rates = (0.001, 0.01, 0.05)
    models = [("degraded", degraded_demo), ("crossing", crossing_demo)]
    for key in range(900, 920):
        rng = rng_for(key)
        models.append((f"criterion3_key{key}", GeneralModel(
            sigma_x=random_spd(rng, 2, floor=0.5), b=rng.standard_normal((1, 2)),
            e=rng.standard_normal((1, 2)))))
    misses = []
    for name, m in models:
        oracle = [solver.brute_force_grid(m, rp, 60).rk for rp in rates]
        for res in (60, 200):
            boundary = solver.sweep_boundary(m, rates, st_resolution=res)
            for rp, want, point in zip(rates, oracle, boundary.points):
                if not point.rk >= want - 1e-6:
                    misses.append((name, res, rp, point.rk, want))
            if name == "crossing":
                assert boundary.points[0].rk >= 0.00118
    assert not misses, misses
