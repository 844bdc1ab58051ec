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
below it, it takes 42,625 and 39,533.  No cell of the frozen sweeps may
raise ``Infeasible``: each row's feasible ``s`` range is known in closed
form (``solver._row_edge``).  A badly centred start shows first as a cell
that ends uncentred (``converged=False``): over all frozen sweeps at most
``UNCENTRED_BOUND`` may.  A cell started from the tangent predictor of its
neighbour must also land where a cold solve of the same cell does; those
cells are drawn from every frozen sweep.

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
STEP_BOUNDS = {"demo_res60": 47_000, "random_sweep": 43_500}
UNCENTRED_BOUND = 0


def _group(name):
    if name.endswith("_res60"):
        return "demo_res60"
    return "random_sweep" if name.startswith("random_sweep") else "other"


@pytest.fixture(scope="module")
def swept():
    """Per frozen sweep: its entry, its boundary and each row minimum it
    evaluated as ``(t, F(t))``; per group of sweeps: the Newton steps of all
    its cells; over all sweeps: the predictor-started cells as
    ``(frame, params, value)``, and the uncentred cells and the cells that
    raise ``Infeasible``, each as ``(name, params)``."""
    path = os.path.join(os.path.dirname(__file__), "data", "sweep_boundaries.json")
    with open(path) as fh:
        entries = json.load(fh)["sweeps"]
    inner = solver.inner_convex
    row_min = solver._row_min_rp
    steps = {}
    predicted = []
    uncentred = []
    infeasible = []
    group = None
    reaches = None

    def counted(m, params, **kwargs):
        try:
            cell = inner(m, params, **kwargs)
        except Infeasible:
            infeasible.append((entry["name"], params))
            raise
        steps[group] = steps.get(group, 0) + cell.iterations
        if "tau0" in kwargs:
            predicted.append((m, params, cell.value))
        if not cell.converged:
            uncentred.append((entry["name"], params))
        return cell

    def recorded(frame, t, s_max, ik_t):
        rp_min, cell = row_min(frame, t, s_max, ik_t)
        reaches.append((t, rp_min))
        return rp_min, cell

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "inner_convex", counted)
        mp.setattr(solver, "_row_min_rp", recorded)
        for entry in entries:
            group = _group(entry["name"])
            reaches = []
            m = GeneralModel(sigma_x=entry["sigma_x"], b=entry["b"], e=entry["e"])
            boundary = solver.sweep_boundary(m, entry["rp"],
                                             st_resolution=entry["resolution"])
            out.append((entry, boundary, reaches))
    return out, steps, predicted, uncentred, infeasible


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
    _, steps, *_ = swept
    assert 0 < steps[group] <= STEP_BOUNDS[group], steps


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
    assert len(cells) >= 1000
    misses = []
    for frame, params, value in cells:
        cold = solver.inner_convex(frame, params).value
        if not abs(value - cold) <= PREDICTOR_TOL:
            misses.append((params, value, cold))
    assert not misses, misses


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
