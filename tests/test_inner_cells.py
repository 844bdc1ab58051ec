"""The sweep's cell solver against a frozen corpus and under invariances.

``data/inner_cells.json`` holds ``inner_convex`` calls and their results as
frozen from an earlier solver (see ``data/make_inner_cells.py``): mx from 1
to 4, both demo sources (the degraded one has parallel ``b`` and ``e``),
warm-started cells and cells that raise ``Infeasible``.  A value may only
move by more than the corpus tolerance where the frozen solve fell short of
the optimum: the new value must then be lower (the cell minimizes it) and
meet the Lagrangian dual bound of the cell within the same tolerance.

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

from gausskey import GeneralModel, SweepParams, inner_convex, linalg
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
