"""The sweep's cell solver against a frozen corpus and under invariances.

``data/inner_cells.json`` holds ``inner_convex`` calls and their results as
frozen from an earlier solver (see ``data/make_inner_cells.py``): mx from 1
to 4, both demo sources (the degraded one has parallel ``b`` and ``e``),
warm-started cells and cells that raise ``Infeasible``.  A value may only
move by more than the corpus tolerance where the frozen solve fell short of
the optimum: the new value must then be lower (the cell minimizes it) and
meet the Lagrangian dual bound of the cell within the same tolerance.

Every feasible corpus cell must also meet its dual bound and report
convergence, and its multiplier of ``b Q b^T <= s`` must be the derivative
of its value in ``s`` (the envelope theorem) and its central-path tangent
the derivative of its optimum in ``s``, both checked by finite differences.
The float kernel's parts are checked against plain references: the LDL^T
Newton step against a dense solve, and the closed-form start's largest
ratio slack against a numerical minimum of its one-variable Lagrangian
dual, on cells up to within 1e-9 of the largest achievable t.  Every start
must be strictly feasible, and cells at the ends of the range (s = 0,
s = 1e-300, b = 0, t = t_max) must raise ``Infeasible`` or converge.  The
closed-form feasibility edge of a row must split its cells as the start's
own test does.

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


def test_s_multiplier_is_the_derivative_of_the_cell_value():
    # The value is -log|Q*(s)| / 2 + log(1 + s) / 2 + const, and
    # d log|Q*| / d s = lam_s, so each difference quotient of the log-det
    # part gives a multiplier estimate.  The constraint is
    # slack where both one-sided estimates vanish, active where they agree,
    # and the cell sits at a kink of the value (s = b Q* b^T) otherwise;
    # there lam_s must be a subgradient, between the two.  Slack is judged
    # per unit of log s: the barrier leaves 1 / (tau * slack) on a slack
    # constraint, up to 1.1e-5 on corpus cells with s near 5e-4.
    counts = {"active": 0, "slack": 0, "kink": 0}
    misses = []
    for k, cell in enumerate(_corpus()):
        if cell["value"] == "infeasible":
            continue
        m = GeneralModel(sigma_x=cell["sigma_x"], b=cell["b"], e=cell["e"])
        frame = solver._span_reduction(m)
        warm = {} if cell["sigma0"] is None else {
            "sigma0": frame.reduce(np.array(cell["sigma0"])), "tau0": cell["tau0"]}

        def half_logdet(s):
            cell_s = inner_convex(frame, SweepParams(s=s, t=cell["t"]), **warm)
            return 0.5 * math.log1p(s) - cell_s.value

        s = cell["s"]
        h = 1e-5 * s
        lo, mid, hi = (half_logdet(x) for x in (s - h, s, s + h))
        central = (hi - lo) / h
        below = 2.0 * (mid - lo) / h
        above = 2.0 * (hi - mid) / h
        lam = inner_convex(frame, SweepParams(s=s, t=cell["t"]), **warm).lam_s
        if max(abs(below), abs(above)) * s <= 1e-7:
            counts["slack"] += 1
            ok = lam * s <= 1e-6
        elif abs(above - below) <= 1e-2 * abs(central):
            counts["active"] += 1
            ok = abs(lam - central) <= 1e-6 * abs(central)
        else:
            counts["kink"] += 1
            ok = min(above, below) - 1e-6 <= lam <= max(above, below) + 1e-6
        if not ok:
            misses.append((k, cell["model"], s, cell["t"], lam, below, central, above))
    assert not misses, misses
    assert counts["active"] >= 80 and counts["slack"] >= 80, counts


def test_s_tangent_is_the_derivative_of_the_centred_optimum():
    # The cell's dx_ds is the tangent of the final barrier centre in s; where
    # the s constraint is active and the active set persists over s +- h
    # (the one-sided difference quotients of the optimum agree), a central
    # difference of the centre must match it.  On a slack constraint the
    # tangent is below the differences' rounding, so those cells are skipped.
    checked = 0
    misses = []
    for k, cell in enumerate(_corpus()):
        if cell["value"] == "infeasible":
            continue
        m = GeneralModel(sigma_x=cell["sigma_x"], b=cell["b"], e=cell["e"])
        frame = solver._span_reduction(m)
        s = cell["s"]
        h = 1e-5 * s
        lo, mid, hi = (inner_convex(frame, SweepParams(s=x, t=cell["t"]))
                       for x in (s - h, s, s + h))
        x_lo, x_mid, x_hi = (np.array(c.a2) for c in (lo, mid, hi))
        central = (x_hi - x_lo) / (2.0 * h)
        persists = (np.linalg.norm((x_hi - x_mid) - (x_mid - x_lo)) / h
                    <= 1e-2 * np.linalg.norm(central))
        if not (mid.lam_s * s > 1e-6 and persists):
            continue
        checked += 1
        err = np.linalg.norm(np.array(mid.dx_ds) - central)
        if not err <= 1e-5 * np.linalg.norm(central):
            misses.append((k, cell["model"], s, cell["t"], mid.dx_ds, central))
    assert not misses, misses
    assert checked >= 80, checked


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


# ---------------------------------------------------------------------------
# the closed-form start
# ---------------------------------------------------------------------------

def _dual_minimum(frame, params):
    """``min_{eta >= 0} lambda^+(N - eta b b^T) + eta s``, with
    ``N = e e^T - (1 + t) b b^T`` in the reduced frame and ``lambda^+`` the
    sum of the positive eigenvalues, by golden section on the convex dual.
    Every dual value bounds the ratio slack from above, so the minimizer
    lies below ``dual(0) / s``."""
    bw, ew = np.array(frame.bw), np.array(frame.ew)
    bb = np.outer(bw, bw)
    n = np.outer(ew, ew) - (1.0 + params.t) * bb

    def dual(eta):
        w = np.linalg.eigvalsh(n - eta * bb)
        return float(np.sum(w[w > 0.0])) + eta * params.s

    best = dual(0.0)
    lo, hi = 0.0, best / params.s
    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = dual(x1), dual(x2)
    for _ in range(300):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = dual(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = dual(x2)
    return min(best, f1, f2)


def _start_cells():
    """Models with mx 1-4, random and with parallel ``b`` and ``e``, each
    with cells over s from ``1e-7 s_max`` to ``s_max`` and t across
    ``[t_min, t_max]``, the top rows within 1e-6 and 1e-9 of ``t_max``; the
    last item marks the top row."""
    models = []
    for key in range(12):
        rng = rng_for(4200 + key)
        mx = 1 + key % 4
        b = rng.standard_normal((1, mx))
        e = rng.uniform(0.3, 2.0) * b if key >= 8 else rng.standard_normal((1, mx))
        models.append(GeneralModel(sigma_x=random_spd(rng, mx), b=b, e=e))
    for m in models:
        frame = solver._span_reduction(m)
        s_max = float(m.b[0] @ m.sigma_x @ m.b[0])
        t_min, t_max = solver._t_range(frame)
        ts = list(np.linspace(t_min, t_max, 9)[1:-1]) + [t_max - 1e-6, t_max - 1e-9]
        for s in s_max * np.geomspace(1e-7, 1.0, 8):
            for t in ts:
                yield frame, SweepParams(s=float(s), t=float(t)), t == ts[-1]


def test_closed_form_start_meets_the_dual_and_is_strictly_feasible():
    counts = {"feasible": 0, "infeasible": 0, "near_t_max": 0}
    misses = []
    for frame, params, near_t_max in _start_cells():
        cons = solver._cell_constraints(frame, params)
        dual = _dual_minimum(frame, params)
        margin = 1e-12 * (1.0 + abs(params.t))
        try:
            a2, v_max = solver._cell_start(frame, params, cons)
        except Infeasible:
            counts["infeasible"] += 1
            if not dual <= params.t + margin + 1e-10 * abs(dual):
                misses.append(("infeasible", params, dual))
            continue
        counts["feasible"] += 1
        bw, ew = np.array(frame.bw), np.array(frame.ew)
        # relative, above the rounding of the eigenvalues of N
        rounding = 1e-15 * (2.0 + abs(params.t)) * (bw @ bw + ew @ ew)
        a = np.array([[a2[0], a2[1]], [a2[1], a2[2]]])
        eig = np.linalg.eigvalsh(a)
        slack_s = params.s - bw @ a @ bw
        slack_t = ew @ a @ ew - bw @ a @ bw - params.t * (bw @ a @ bw + 1.0)
        if not (abs(v_max - dual) <= 1e-10 * abs(dual) + rounding and 0.0 < eig[0]
                and eig[1] < 1.0 and slack_s > 0.0 and slack_t > 0.0):
            misses.append(("start", params, v_max, dual, eig, slack_s, slack_t))
        counts["near_t_max"] += near_t_max
    assert not misses, misses
    assert counts["feasible"] >= 300 and counts["infeasible"] >= 100, counts
    assert counts["near_t_max"] >= 12, counts


def _edge_rows():
    """Seeded rows ``(frame, t)`` whose feasibility edge lies above s = 0:
    ``t`` in ``[max(0, e_1^2), t_max)`` in the b frame, up to the sweep's
    top row ``t_max - 1e-6 (t_max - t_min)``, on the crossing demo and on
    models with mx 1-4, random and with ``e`` parallel to ``b``.  The row
    ``t = e_1^2 > 0`` is left out: its edge lies below the float resolution
    ``eps beta^2`` of ``b Q b^T``, where ``_cell_start`` refuses every s."""
    models = [GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[0.5, 1.0]])]
    for key in range(24):
        rng = rng_for(4400 + key)
        mx = 1 + key % 4
        b = rng.standard_normal((1, mx))
        e = rng.uniform(1.2, 2.0) * b if key >= 16 else rng.standard_normal((1, mx))
        models.append(GeneralModel(sigma_x=random_spd(rng, mx), b=b, e=e))
    fractions = list(np.linspace(0.0, 1.0, 16)[:-1]) + [1.0 - 1e-3, 1.0 - 1e-6]
    for m in models:
        frame = solver._span_reduction(m)
        t_min, t_max = solver._t_range(frame)
        lo = max(0.0, frame.ew[1] ** 2)
        for f in fractions:
            t = float(lo + f * (t_max - lo))
            if (t > lo or lo == 0.0) and t < t_max - 1e-6 * (t_max - t_min):
                yield frame, t


def test_row_edge_inverts_the_cell_test():
    # the closed-form edge of a row against _cell_start's feasibility test
    # just above and just below it
    misses = []
    n_rows = 0
    for frame, t in _edge_rows():
        n_rows += 1
        edge = solver._row_edge(frame, t)
        if edge is None or not edge > 0.0:
            misses.append(("no edge", t, edge))
            continue
        for factor, feasible in ((1.0 + 1e-7, True), (1.0 - 1e-7, False)):
            params = SweepParams(s=edge * factor, t=t)
            try:
                solver._cell_start(frame, params, solver._cell_constraints(frame, params))
            except Infeasible:
                if feasible:
                    misses.append(("infeasible above", params, edge))
            else:
                if not feasible:
                    misses.append(("feasible below", params, edge))
    assert n_rows >= 350, n_rows
    assert not misses, misses


def _edge_cells():
    """Cells at the ends of the sweep's range: ``s = 0``, ``s = 1e-300``,
    ``b = 0`` and ``t = t_max``."""
    crossing = GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[0.5, 1.0]])
    scalar = GeneralModel(sigma_x=[[1.0]], b=[[1.0]], e=[[2.0]])
    blind = GeneralModel(sigma_x=2.0 * np.eye(2), b=[[0.0, 0.0]], e=[[0.5, 1.0]])
    for m in (crossing, scalar):
        t_min, t_max = solver._t_range(solver._span_reduction(m))
        for s in (0.0, 1e-300):
            for t in (t_min, -0.5 * (1.0 + t_min), 0.0, 0.5 * t_max):
                yield m, SweepParams(s=s, t=t)
        s_max = float(m.b[0] @ m.sigma_x @ m.b[0])
        yield m, SweepParams(s=s_max, t=t_max)
    for s in (0.0, 1e-300, 1.0):
        for t in (-0.5, 0.0, 2.4, 2.5, 3.0):
            yield blind, SweepParams(s=s, t=t)


@pytest.mark.parametrize("m, params", list(_edge_cells()))
def test_edge_cells_raise_infeasible_or_converge(m, params):
    try:
        report = inner_convex(m, params)
    except Infeasible:
        return
    assert report.converged


@pytest.mark.parametrize("s, t", [(0.5, 0.9), (0.19, 0.45)])
def test_scalar_cell_with_a_thin_feasible_interval(s, t):
    # every Q in (t / (3 - t), s) is strictly feasible; the optimum is the
    # cap Q = s, with value log((1 + s) / (2 s)) / 2
    m = GeneralModel(sigma_x=[[1.0]], b=[[1.0]], e=[[2.0]])
    report = inner_convex(m, SweepParams(s=s, t=t))
    assert report.converged
    assert report.optimum.value[0, 0] == pytest.approx(s, abs=1e-8)
    assert report.value == pytest.approx(0.5 * math.log((1.0 + s) / (2.0 * s)), abs=1e-8)


def test_the_feasibility_margin_refuses_a_cell_below_the_pd_floor():
    # every Q in (0, 1e-15) is strictly feasible, but the ratio slack is at
    # most 3e-15, below the absolute margin 1e-12 (1 + |t|).  A relative
    # margin would solve the cell, and the public call would then raise
    # InvalidConditionalCov: each such Q is below COND_COV_MIN_EIG.
    m = GeneralModel(sigma_x=[[1.0]], b=[[1.0]], e=[[2.0]])
    with pytest.raises(Infeasible):
        inner_convex(m, SweepParams(s=1e-15, t=0.0))


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
