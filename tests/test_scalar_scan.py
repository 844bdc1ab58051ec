"""The scalar route against a closed-form scan of its own problem.

For scalar observations the boundary is a one-dimensional search.  Whiten by
``S = sigma_x^1/2`` (``A = S^-1 Q S^-1``, ``0 < A <= I``) and take an
orthonormal basis of the span of the whitened rows in which ``bw = (beta,
0)`` and ``ew = (e0, e1)``; outside the span ``A`` is the identity (Fischer's
inequality), so only its 2x2 compression ``[[a, b], [b, c]]`` counts.  At
public rate ``r``, with ``K = exp(-2 r)``, the rate constraint reads
``det = a c - b^2 >= kappa(a) = K (1 + beta^2 a) / (1 + beta^2)``, and the key
rate is

    h = 1/2 log((1 + beta^2) / (1 + beta^2 a))
        - 1/2 log((1 + |ew|^2) / (1 + e0^2 a + 2 e0 e1 b + e1^2 c)).

For a fixed ``a`` the key rate grows with ``c``, whose largest value under
``A <= I`` is ``c = 1 - b^2 / (1 - a)``; there ``det = a - b^2 / (1 - a)``,
so the rate constraint is ``b^2 <= (a - kappa) (1 - a)``, and the best ``b``
is the unconstrained maximiser ``e0 (1 - a) / e1`` clipped to that interval
(``b = 0`` when ``e1 = 0``).  The constraint admits ``a`` from ``a_min = K /
(1 + beta^2 - K beta^2)`` to 1, so ``R_k(r)`` is the maximum of ``h(a)`` over
``[a_min, 1]``, clamped at zero.  Every scanned ``a`` is a feasible point,
so the scan is a lower bound that meets the truth as the grid refines.

This shares no arithmetic with the sweep: the frame comes from numpy's
``eigh`` and ``qr`` here, not from ``solver._span_reduction``, and no cell
is solved.  The frozen key rates stand for the sweep's, which
``test_sweep_boundaries`` holds to them within 1e-12.  The scan takes 4,001
uniform and 4,001 geometric points from ``a_min``, then six rounds of 201
points around the best one.  Measured: on the 377 frozen points of
``data/sweep_boundaries.json`` the sweep is never above the scan and at most
3.953e-7 below it, and the density-60 oracle is never above it by more than
1.1e-16; on the seeded models at mx 3 to 8, where the oracle refuses, the
sweep is at most 4.5e-7 below and never above.
"""

import json
import math
import os

import numpy as np
import pytest

from gausskey import GeneralModel, brute_force_grid, sweep_boundary

from conftest import random_spd, rng_for

ABOVE_TOL = 1e-9  # the sweep may not exceed a feasible point's key rate
BELOW_TOL = 1e-6  # nor fall further below the scan
ORACLE_TOL = 1e-9
SEEDED_RATES = (0.01, 0.3, 1.0, 3.0, 8.0)


def _frame(m):
    """``(beta, e0, e1)``: the whitened rows in an orthonormal basis of
    their span, ``bw = (beta, 0)`` and ``ew = (e0, e1)``."""
    w, v = np.linalg.eigh(m.sigma_x)
    s_half = (v * np.sqrt(w)) @ v.T
    r = np.linalg.qr(np.stack([m.b[0] @ s_half, m.e[0] @ s_half], axis=1), mode="r")
    return abs(r[0, 0]), r[0, 1], (r[1, 1] if r.shape[0] > 1 else 0.0)


def _key_rate(a, beta, e0, e1, k):
    """``h(a)`` at the best feasible ``(b, c)`` for each ``a``."""
    bb = beta * beta
    kappa = k * (1.0 + bb * a) / (1.0 + bb)
    bound = np.sqrt(np.maximum((a - kappa) * (1.0 - a), 0.0))
    b = np.zeros_like(a) if e1 == 0.0 else np.clip(e0 * (1.0 - a) / e1, -bound, bound)
    c = 1.0 - b * b / np.where(a < 1.0, 1.0 - a, 1.0)
    ez = e0 * e0 * a + 2.0 * e0 * e1 * b + e1 * e1 * c
    return 0.5 * (np.log((1.0 + bb) / (1.0 + bb * a))
                  - np.log((1.0 + e0 * e0 + e1 * e1) / (1.0 + ez)))


def _scan(m, rp, n=4001, refine=201, rounds=6):
    """The largest key rate over the scanned ``a``, clamped at zero."""
    beta, e0, e1 = _frame(m)
    k = math.exp(-2.0 * rp)
    a_min = min(1.0, k / (1.0 + beta * beta - k * beta * beta))
    a = np.union1d(np.linspace(a_min, 1.0, n), np.geomspace(a_min, 1.0, n))
    for _ in range(rounds + 1):
        h = _key_rate(a, beta, e0, e1, k)
        i = int(np.argmax(h))
        best = float(h[i])
        a = np.linspace(a[max(i - 1, 0)], a[min(i + 1, len(a) - 1)], refine)
    return max(0.0, best)


def _frozen():
    path = os.path.join(os.path.dirname(__file__), "data", "sweep_boundaries.json")
    with open(path) as fh:
        entries = json.load(fh)["sweeps"]
    for entry in entries:
        m = GeneralModel(sigma_x=entry["sigma_x"], b=entry["b"], e=entry["e"])
        yield entry["name"], m, entry["rp"], entry["rk"]


def test_frozen_sweeps_meet_the_scan_and_the_oracle():
    points = oracle_points = 0
    for name, m, rates, frozen in _frozen():
        for rp, rk in zip(rates, frozen):
            scan = _scan(m, rp)
            assert -BELOW_TOL <= rk - scan <= ABOVE_TOL, (name, rp, rk, scan)
            points += 1
            if m.mx <= 2:
                oracle = brute_force_grid(m, rp, grid_density=60).rk
                assert scan >= oracle - ORACLE_TOL, (name, rp, scan, oracle)
                oracle_points += 1
    assert (points, oracle_points) == (377, 376)


@pytest.mark.parametrize("mx", [3, 4, 6, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_sweeps_beyond_the_oracle_meet_the_scan(mx, seed):
    rng = rng_for(4100 + 10 * mx + seed)
    m = GeneralModel(sigma_x=random_spd(rng, mx), b=rng.standard_normal((1, mx)),
                     e=rng.standard_normal((1, mx)))
    boundary = sweep_boundary(m, SEEDED_RATES, st_resolution=60)
    for point in boundary.points:
        scan = _scan(m, point.rp)
        assert -BELOW_TOL <= point.rk - scan <= ABOVE_TOL, (point, scan)


def test_the_scan_meets_closed_forms():
    """At rate 0 the corner is the only point; for a degraded model (``e``
    parallel to ``b``) with ``|e| < |b|`` the key rate tends to the gap of
    the full observations as the rate grows."""
    m = GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[0.7, 0.35]])
    assert _scan(m, 0.0) == pytest.approx(0.0, abs=1e-15)
    gap = 0.5 * (math.log1p(2.0 * 1.25) - math.log1p(2.0 * 0.6125))
    assert _scan(m, 30.0) == pytest.approx(gap, abs=1e-9)
