"""The sweep's boundaries against a frozen set, and its cost in Newton steps.

``data/sweep_boundaries.json`` holds the key rates of the sweeps that the
suite and the benchmark run (see ``data/make_sweep_boundaries.py``): both
demo sources at resolutions 60 and 200, the 13 models of the benchmark's
``random_sweep`` workload and the criterion-3 corpus.  A change to how the
cells are started or searched may not move any of them by more than 1e-12.

A count of Newton steps over every ``inner_convex`` call guards the sweep's
cost without a clock: the sweeps that started each cell from the scaled
previous optimum took 111,397 steps on the two demos at resolution 60 and
229,876 on the ``random_sweep`` models.  A cell started from the tangent
predictor of its neighbour must also land where a cold solve of the same
cell does.
"""

import json
import os

import numpy as np
import pytest

from gausskey import GeneralModel, solver

FROZEN_TOL = 1e-12
PREDICTOR_TOL = 1e-10
STEP_BOUNDS = {"demo_res60": 90_000, "random_sweep": 130_000}


def _group(name):
    if name.endswith("_res60"):
        return "demo_res60"
    return "random_sweep" if name.startswith("random_sweep") else "other"


@pytest.fixture(scope="module")
def swept():
    """Per frozen sweep: its entry and boundary; per group of sweeps: the
    Newton steps of all its cells and its predictor-started cells as
    ``(frame, params, value)``."""
    path = os.path.join(os.path.dirname(__file__), "data", "sweep_boundaries.json")
    with open(path) as fh:
        entries = json.load(fh)["sweeps"]
    inner = solver.inner_convex
    steps = {}
    predicted = {}
    group = None

    def counted(m, params, **kwargs):
        cell = inner(m, params, **kwargs)
        steps[group] = steps.get(group, 0) + cell.iterations
        if "tau0" in kwargs:
            predicted.setdefault(group, []).append((m, params, cell.value))
        return cell

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "inner_convex", counted)
        for entry in entries:
            group = _group(entry["name"])
            m = GeneralModel(sigma_x=entry["sigma_x"], b=entry["b"], e=entry["e"])
            out.append((entry, solver.sweep_boundary(m, entry["rp"],
                                                     st_resolution=entry["resolution"])))
    return out, steps, predicted


def test_boundaries_match_the_frozen_sweeps(swept):
    boundaries, _, _ = swept
    assert len(boundaries) == 4 + 13 + 20
    misses = []
    for entry, boundary in boundaries:
        for rp, rk, point in zip(entry["rp"], entry["rk"], boundary.points):
            assert point.rp == rp
            if not abs(point.rk - rk) <= FROZEN_TOL:
                misses.append((entry["name"], rp, rk, point.rk))
    assert not misses, misses


@pytest.mark.parametrize("group", sorted(STEP_BOUNDS))
def test_newton_steps_stay_within_their_bound(swept, group):
    _, steps, _ = swept
    assert 0 < steps[group] <= STEP_BOUNDS[group], steps


def _reference_t_range(frame):
    """``solver._t_range`` with both bisections run for a fixed 200 steps,
    as before they stopped at their float fixed point."""
    bb = np.outer(frame.bw, frame.bw)
    ee = np.outer(frame.ew, frame.ew)

    def reachable_above(v):
        return solver._interval_linear_max(ee - (1.0 + v) * bb)[0] >= v

    def reachable_below(v):
        return solver._interval_linear_max((1.0 + v) * bb - ee)[0] >= -v

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


def test_t_range_stops_at_the_fixed_point_with_the_same_bounds():
    # both demos, the random_sweep models and the criterion-3 corpus
    path = os.path.join(os.path.dirname(__file__), "data", "sweep_boundaries.json")
    with open(path) as fh:
        entries = json.load(fh)["sweeps"]
    models = {json.dumps([e["sigma_x"], e["b"], e["e"]]): e for e in entries}
    assert len(models) == 2 + 13 + 20 - 12  # the corpus holds 12 of the 13
    for entry in models.values():
        m = GeneralModel(sigma_x=entry["sigma_x"], b=entry["b"], e=entry["e"])
        frame = solver._span_reduction(m)
        assert solver._t_range(frame) == _reference_t_range(frame), entry["name"]


def test_predictor_started_cells_match_cold_solves(swept):
    _, _, predicted = swept
    cells = predicted["demo_res60"]
    assert len(cells) >= 1000
    misses = []
    for frame, params, value in cells:
        cold = solver.inner_convex(frame, params).value
        if not abs(value - cold) <= PREDICTOR_TOL:
            misses.append((params, value, cold))
    assert not misses, misses
