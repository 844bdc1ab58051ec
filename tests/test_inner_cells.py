"""The sweep's cell solver against a frozen corpus and under invariances.

``data/inner_cells.json`` holds ``inner_convex`` calls and their results as
frozen from an earlier solver (see ``data/make_inner_cells.py``): mx from 1
to 4, both demo sources (the degraded one has parallel ``b`` and ``e``),
warm-started cells and cells that raise ``Infeasible``.  A value may only
move by more than the corpus tolerance where the frozen solve fell short of
the optimum: the new value must then be lower (the cell minimizes it) and
meet the Lagrangian dual bound of the cell within the same tolerance.

Every feasible corpus cell must also meet its dual bound and report
convergence, and the float kernel's parts are checked against plain
references: the LDL^T Newton step against a dense solve, the stacked start
search against the candidate loop it replaces.

The property tests check what the cell problem guarantees whatever the
solver: its optimum does not depend on the basis of the source, nor on a
decoupled extra source coordinate, and the returned matrix is feasible.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from gausskey import GeneralModel, SweepParams, inner_convex, linalg, solver
from gausskey.errors import Infeasible

from conftest import random_conditional, random_spd, rng_for

CORPUS_TOL = 1e-8
INVARIANCE_TOL = 1e-8
FEASIBILITY_TOL = 1e-9


def _corpus():
    path = os.path.join(os.path.dirname(__file__), "data", "inner_cells.json")
    with open(path) as fh:
        return json.load(fh)["cells"]


def _solve(cell):
    m = GeneralModel(sigma_x=cell["sigma_x"], b=cell["b"], e=cell["e"])
    params = SweepParams(s=cell["s"], t=cell["t"])
    if cell["sigma0"] is None:
        return inner_convex(m, params)
    return inner_convex(m, params, sigma0=np.array(cell["sigma0"]),
                        tau0=cell["tau0"])


def _dual_value_bound(m, params):
    """Lower bound on the cell's optimal value from its Lagrangian dual.

    Whitened (``A = S^-1 Q S^-1``), the cell maximizes log|A| over
    ``0 < A <= I`` subject to ``<G_i, A> + c_i <= 0``.  For multipliers
    ``l >= 0`` the Lagrangian maximizer shares the eigenvectors of
    ``H = sum l_i G_i`` with eigenvalues ``min(1, 1/h)``, so the dual
    function is closed form and convex; every value of it bounds log|A|
    from above, hence the cell's value from below.
    """
    s_half = linalg.sqrtm_psd(m.sigma_x)
    bw = s_half @ m.b[0]
    ew = s_half @ m.e[0]
    g1 = (1.0 + params.t) * np.outer(bw, bw) - np.outer(ew, ew)
    g2 = np.outer(bw, bw)
    consts = np.array([params.t, -params.s])

    def dual(lam):
        h, v = np.linalg.eigh(lam[0] * g1 + lam[1] * g2)
        a = np.where(h > 1.0, 1.0 / np.maximum(h, 1.0), 1.0)
        a_max = (v * a) @ v.T
        value = float(np.sum(np.log(a) - h * a) - lam @ consts)
        grad = -np.array([np.sum(g1 * a_max), np.sum(g2 * a_max)]) - consts
        return value, grad

    best = min(
        minimize(dual, np.array(x0), jac=True, method="L-BFGS-B",
                 bounds=[(0.0, None)] * 2,
                 options={"ftol": 1e-15, "gtol": 1e-13, "maxiter": 2000}).fun
        for x0 in ((1.0, 1.0), (0.1, 10.0), (10.0, 0.1))
    )
    return (-0.5 * best - 0.5 * math.log1p(float(bw @ bw))
            + 0.5 * math.log1p(params.s))


def test_dual_bound_is_tight_on_a_slack_cell(degraded_demo):
    # both constraints slack at sigma_x: the optimum is sigma_x itself
    params = SweepParams(s=3.5, t=-0.5)
    expect = 0.5 * math.log1p(params.s) - 0.5 * math.log1p(2.5)
    assert _dual_value_bound(degraded_demo, params) == pytest.approx(expect, abs=1e-12)


def test_frozen_corpus_covers_its_cases():
    cells = _corpus()
    assert {len(c["sigma_x"]) for c in cells} == {1, 2, 3, 4}
    assert {"degraded_demo", "crossing_demo"} <= {c["model"] for c in cells}
    assert any(c["sigma0"] is not None and c["tau0"] == 1e9 for c in cells)
    assert any(c["value"] == "infeasible" for c in cells)


def test_frozen_cells_keep_their_values():
    misses = []
    for k, cell in enumerate(_corpus()):
        if cell["value"] == "infeasible":
            continue
        got = _solve(cell).value
        if abs(got - cell["value"]) <= CORPUS_TOL:
            continue
        m = GeneralModel(sigma_x=cell["sigma_x"], b=cell["b"], e=cell["e"])
        bound = _dual_value_bound(m, SweepParams(s=cell["s"], t=cell["t"]))
        if not (got < cell["value"] and got - bound <= CORPUS_TOL):
            misses.append((k, cell["model"], cell["value"], got, bound))
    assert not misses, misses


def test_every_feasible_corpus_cell_meets_its_dual_bound():
    # warm cells included: a stalled warm schedule must restart, not report
    # a stalled iterate as converged
    misses = []
    for k, cell in enumerate(_corpus()):
        if cell["value"] == "infeasible":
            continue
        report = _solve(cell)
        m = GeneralModel(sigma_x=cell["sigma_x"], b=cell["b"], e=cell["e"])
        gap = report.value - _dual_value_bound(m, SweepParams(s=cell["s"], t=cell["t"]))
        if not (report.converged and abs(gap) <= CORPUS_TOL):
            misses.append((k, cell["model"], report.converged, gap))
    assert not misses, misses


def test_frozen_infeasible_cells_still_raise():
    for cell in _corpus():
        if cell["value"] == "infeasible":
            with pytest.raises(Infeasible):
                _solve(cell)


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def _feasible_cell(rng, m):
    """A cell with a strictly feasible point: slightly loosen the constraints
    that a random interior conditional covariance meets."""
    q = random_conditional(rng, m.sigma_x)
    qb = float(m.b[0] @ q @ m.b[0])
    qe = float(m.e[0] @ q @ m.e[0])
    ratio = (qe - qb) / (qb + 1.0)
    s = qb * (1.0 + rng.uniform(0.01, 1.0)) + 1e-6
    t = ratio - rng.uniform(0.01, 0.5) * (1.0 + abs(ratio))
    return SweepParams(s=s, t=max(t, -0.99))


def _case(key, mx):
    rng = rng_for(key)
    m = GeneralModel(sigma_x=random_spd(rng, mx), b=rng.standard_normal((1, mx)),
                     e=rng.standard_normal((1, mx)))
    return rng, m, _feasible_cell(rng, m)


PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)
cases = st.tuples(st.integers(0, 2**31 - 1), st.integers(1, 5))


@PROPERTY_SETTINGS
@given(cases)
def test_inner_value_invariant_under_source_rotation(case):
    rng, m, params = _case(*case)
    r, _ = np.linalg.qr(rng.standard_normal((m.mx, m.mx)))
    rotated = GeneralModel(sigma_x=r @ m.sigma_x @ r.T, b=m.b @ r.T, e=m.e @ r.T)
    v0 = inner_convex(m, params).value
    v1 = inner_convex(rotated, params).value
    assert abs(v0 - v1) <= INVARIANCE_TOL * (1.0 + abs(v0))


@PROPERTY_SETTINGS
@given(cases)
def test_inner_value_invariant_under_decoupled_padding(case):
    rng, m, params = _case(*case)
    n = m.mx
    sigma_x = np.zeros((n + 1, n + 1))
    sigma_x[:n, :n] = m.sigma_x
    sigma_x[n, n] = rng.uniform(0.3, 3.0)
    padded = GeneralModel(sigma_x=sigma_x, b=np.append(m.b, [[0.0]], axis=1),
                          e=np.append(m.e, [[0.0]], axis=1))
    v0 = inner_convex(m, params).value
    v1 = inner_convex(padded, params).value
    assert abs(v0 - v1) <= INVARIANCE_TOL * (1.0 + abs(v0))


@PROPERTY_SETTINGS
@given(cases)
def test_inner_optimum_is_feasible(case):
    _, m, params = _case(*case)
    report = inner_convex(m, params)
    q = report.optimum.value
    scale = 1.0 + float(np.max(np.abs(m.sigma_x)))
    assert linalg.min_eig(q) > 0.0
    assert linalg.min_eig(m.sigma_x - q) >= -FEASIBILITY_TOL * scale
    qb = float(m.b[0] @ q @ m.b[0])
    qe = float(m.e[0] @ q @ m.e[0])
    assert qb <= params.s + FEASIBILITY_TOL * (1.0 + params.s)
    assert params.t * (qb + 1.0) <= qe - qb + FEASIBILITY_TOL * (1.0 + abs(qe) + qb)
    expect = (0.5 * (linalg.logdet_pd(m.sigma_x) - linalg.logdet_pd(q))
              - 0.5 * math.log1p(float(m.b[0] @ m.sigma_x @ m.b[0]))
              + 0.5 * math.log1p(params.s))
    assert report.value == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------------------
# parts of the float kernel
# ---------------------------------------------------------------------------

# directions of the (a, b, c) coordinates of a symmetric 2x2 matrix
_COORDS = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
           np.array([[0.0, 0.0], [0.0, 1.0]]))


def _barrier_hessian(a2, tau, gs, gvs):
    """Hessian of ``-tau log|A| - log|I - A| - sum log(-g_i)`` in the (a, b, c)
    coordinates, from its trace form."""
    p = np.linalg.inv(a2)
    r = np.linalg.inv(np.eye(2) - a2)
    h = np.empty((3, 3))
    for i, ei in enumerate(_COORDS):
        for j, ej in enumerate(_COORDS):
            h[i, j] = (tau * np.trace(p @ ei @ p @ ej) + np.trace(r @ ei @ r @ ej)
                       + sum(np.sum(g * ei) * np.sum(g * ej) / gv ** 2
                             for g, gv in zip(gs, gvs)))
    return h


def _ldl_vs_dense(h, g):
    step = solver._ldl_step(h[0, 0], h[0, 1], h[0, 2], h[1, 1], h[1, 2], h[2, 2], *g)
    assert step is not None
    ref = -np.linalg.solve(h, g)
    assert np.linalg.norm(np.array(step[:3]) - ref) <= 1e-10 * np.linalg.norm(ref)
    assert step[3] == pytest.approx(float(-g @ ref), rel=1e-10)


def test_ldl_step_matches_dense_solve():
    rng = rng_for(4101)
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        _ldl_vs_dense(a @ a.T + 0.1 * np.eye(3), rng.standard_normal(3))


def test_ldl_step_matches_dense_solve_on_barrier_hessians():
    rng = rng_for(4102)
    for tau in (1.0, 1e3, 1e9):
        for _ in range(50):
            v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            a2 = (v * rng.uniform(0.02, 0.98, 2)) @ v.T
            gs = [linalg.symmetrize(rng.standard_normal((2, 2))) for _ in range(2)]
            gvs = -rng.uniform(1e-6, 1.0, 2)
            _ldl_vs_dense(_barrier_hessian(a2, tau, gs, gvs), rng.standard_normal(3))


def test_ldl_step_refuses_an_indefinite_hessian():
    h = np.diag([1.0, -2.0, 3.0]) + 0.1
    assert solver._ldl_step(h[0, 0], h[0, 1], h[0, 2], h[1, 1], h[1, 2], h[2, 2],
                            1.0, 1.0, 1.0) is None


def test_failed_newton_systems_end_stages_unconverged(monkeypatch, degraded_demo):
    # every Newton system refused: each stage ends at once, the warm
    # schedule restarts in full, and the solve returns its feasible start
    params = SweepParams(s=1.0, t=-0.3)
    cold = inner_convex(degraded_demo, params)
    monkeypatch.setattr(solver, "_ldl_step", lambda *args: None)
    for kwargs in ({}, {"sigma0": 0.9 * cold.optimum.value, "tau0": 1e9}):
        report = inner_convex(degraded_demo, params, **kwargs)
        assert not report.converged
        assert report.iterations == 0
        assert report.value >= cold.value - CORPUS_TOL


def _reference_start(frame, params, cons, eta_star):
    """The candidate loop that the stacked start search replaces: the first
    strictly best score in (base, c, w) order."""
    bases, eig_lo, eig_hi = solver._start_bases(frame, params, eta_star)
    best, best_score = None, 0.0
    for a0, lo, hi in zip(bases, eig_lo, eig_hi):
        base_vals = [g00 * a0[0, 0] + 2.0 * g01 * a0[0, 1] + g11 * a0[1, 1]
                     for g00, g01, g11, _ in cons]
        for c in solver._START_C.tolist():
            for w in solver._START_W.tolist():
                if c + w >= 1.0:
                    continue
                score = min(c * lo + w, 1.0 - c * hi - w)
                for (g00, _, g11, cst), bv in zip(cons, base_vals):
                    slack = -(c * bv + w * (g00 + g11) + cst)
                    score = min(score, slack / (1.0 + abs(cst)))
                if score > best_score:
                    best_score, best = score, (a0, c, w)
    if best is None:
        return None
    a0, c, w = best
    return (c * a0[0, 0] + w, c * a0[0, 1], c * a0[1, 1] + w)


def test_start_search_matches_the_candidate_loop():
    found = 0
    for cell in _corpus():
        m = GeneralModel(sigma_x=cell["sigma_x"], b=cell["b"], e=cell["e"])
        params = SweepParams(s=cell["s"], t=cell["t"])
        frame = solver._span_reduction(m)
        try:
            cons = solver._cell_constraints(frame, params)
        except Infeasible:
            continue
        for eta_star in (None, 1.0 / params.s):
            got = solver._feasible_start(frame, params, cons, eta_star)
            assert got == _reference_start(frame, params, cons, eta_star)
            found += got is not None
    assert found > 0


def test_sweep_reduces_the_model_once(monkeypatch, crossing_demo):
    calls = {"validate_model": 0, "_span_reduction": 0}

    def counted(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    solver.sweep_boundary(crossing_demo, [0.0, 0.5, 1.0], st_resolution=12)
    assert calls == {"validate_model": 1, "_span_reduction": 1}
