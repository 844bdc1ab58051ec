"""Boundary solvers for the key-rate / public-rate trade-off.

Three routes to the boundary R_k(R_p):

``sweep_boundary``
    For models with scalar observations (my = mz = 1).  The boundary search
    is rewritten with two scalar sweep parameters: ``s`` caps the observed
    signal power ``b Q b^T`` and ``t`` lower-bounds the achieved ratio
    ``(e Q e^T - b Q b^T) / (b Q b^T + 1)``.  For fixed (s, t) the remaining
    problem -- maximize log|Q| subject to two linear constraints and
    ``0 < Q <= sigma_x`` -- is convex.  After whitening by
    ``sigma_x^1/2`` the constraints see only the compression of the
    whitened matrix to the span of the whitened ``b`` and ``e``, so every
    cell is a 2x2 problem whatever the source dimension (Fischer's
    inequality fixes the rest at the identity); ``inner_convex`` solves it by
    a logarithmic-barrier Newton method, and its cost does not grow with mx.
    Sweeping a log-spaced (s, t) grid and taking running maxima over the
    achieved cells yields the boundary.

``ascent_boundary``
    For aligned models of any dimension.  The constrained key-rate
    maximization is attacked by projected gradient ascent on the whitened
    matrix interval with an exact penalty on the rate constraint and
    multi-start initialization, then polished by a Newton solve of the
    first-order optimality system on the detected active face.  The general
    problem is nonconvex, so this route is a heuristic: every returned point
    is either certified through the KKT machinery or flagged unconverged.

``brute_force_grid``
    An independent oracle for source dimension <= 2: exhaustive search over
    conditional covariances parameterized by whitened eigenvalues and a
    rotation angle.

Each sweep cell and each grid point is an independent pure computation; the
sweep optionally fans rows out over a thread pool (``threads`` argument or
the ``GAUSSKEY_THREADS`` environment variable) and always reduces results in
row order, so output is run-to-run identical.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import kkt, linalg
from .errors import (
    DimensionTooLarge,
    Infeasible,
    MaxIterationsExceeded,
    SolverFailure,
)
from .modelio import model_digest
from .models import AlignedModel, ConditionalCov, GeneralModel, validate_model
from .rates import PointMeta, RatePair, RegionBoundary, rates_aligned

BARRIER_GAP_TOL = 1e-8
NEWTON_DECREMENT_TOL = 1e-10
SIGMA_FLOOR_SCALE = 1e-9

# Final barrier weight of a full schedule, handed to warm-started cells.
# Every cell's reduced barrier has at most four terms (the 2x2 upper
# interval bound and the two linear constraints), so this weight meets
# BARRIER_GAP_TOL whatever the source dimension.
TAU_FINAL = 10.0 ** math.ceil(math.log10(4 / BARRIER_GAP_TOL))

# Sweep grid floors: the smallest swept s (relative to b sigma_x b^T) and the
# smallest gap below the maximal t (relative to the t range).  Beyond the
# public rate these floors can represent (~8-10 nats) the boundary is flat to
# well below every tolerance used here, and the floors keep every inner
# optimum inside the strict-PD tolerance of ConditionalCov.
SWEEP_S_FLOOR = 1e-7
SWEEP_T_GAP_FLOOR = 1e-6


@dataclass(frozen=True)
class SweepParams:
    """One (s, t) cell of the sweep; requires s >= 0 and 1 + t > 0."""

    s: float
    t: float

    def __post_init__(self):
        if not self.s >= 0.0:
            raise ValueError(f"s must be nonnegative, got {self.s!r}")
        if not self.t > -1.0:
            raise ValueError(f"t must exceed -1, got {self.t!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one constrained solve.

    ``value`` is the optimal objective (the public-rate contribution for
    ``inner_convex``, the key rate for ``solve_at_rate``); ``kkt_residual``
    is a first-order optimality residual: the barrier duality-gap proxy for
    the convex inner solve, the stationarity-system residual for the ascent
    polish.
    """

    optimum: ConditionalCov
    value: float
    iterations: int
    kkt_residual: float
    converged: bool


# ---------------------------------------------------------------------------
# shared small-matrix utilities
# ---------------------------------------------------------------------------

_BASIS_CACHE = {}


def _basis(n):
    if n not in _BASIS_CACHE:
        basis = []
        for i in range(n):
            for j in range(i, n):
                s = np.zeros((n, n))
                if i == j:
                    s[i, i] = 1.0
                else:
                    s[i, j] = s[j, i] = 1.0
                basis.append(s)
        _BASIS_CACHE[n] = np.array(basis)
    return _BASIS_CACHE[n]


def _interval_linear_max(g_w):
    """Maximize <g_w, A> over the whitened matrix interval 0 <= A <= I.

    Returns ``(value, a_max)`` where ``a_max`` is a maximizing projector.
    """
    w, v = np.linalg.eigh(linalg.symmetrize(g_w))
    pos = w > 0.0
    value = float(np.sum(w[pos]))
    if pos.any():
        a_max = linalg.symmetrize((v[:, pos]) @ (v[:, pos]).T)
    else:
        a_max = np.zeros_like(g_w)
    return value, a_max


def _sigma_floor(sigma_x):
    return SIGMA_FLOOR_SCALE * float(np.trace(sigma_x)) / sigma_x.shape[0]


# ---------------------------------------------------------------------------
# inner convex problem of the sweep
# ---------------------------------------------------------------------------

def _cell_matrices(b, e, params):
    """Linear constraint data of the cell: g_i(Q) = <G_i, Q> + c_i <= 0."""
    bb = np.outer(b, b)
    ee = np.outer(e, e)
    g1 = (1.0 + params.t) * bb - ee  # t (bQb^T + 1) <= eQe^T - bQb^T
    g2 = bb                          # bQb^T <= s
    return (g1, params.t), (g2, -params.s)


def _feasibility_bound(b, e, params, eta_max=1e8):
    """Upper bound on max{e A e^T - (1+t) b A b^T : b A b^T <= s} over the
    whitened interval, via the scalar Lagrangian dual.  The cell is
    infeasible when this bound does not exceed t.  Returns early once either
    verdict is certain: any single dual value already certifies
    infeasibility, and the eta = 0 primal value certifies feasibility."""
    gt = np.outer(e, e) - (1.0 + params.t) * np.outer(b, b)
    bb = np.outer(b, b)
    margin = 1e-12 * (1.0 + abs(params.t))

    def dual(eta):
        val, _ = _interval_linear_max(gt - eta * bb)
        return val + eta * params.s

    etas = np.concatenate(([0.0], np.geomspace(1e-8, eta_max, 25)))
    vals = []
    for x in etas:
        v = dual(x)
        vals.append(v)
        if v <= params.t + margin:
            return v, float(x)
    # interval-constrained primal value at eta given by complementarity is
    # unavailable cheaply; refine the dual minimum instead
    k = int(np.argmin(vals))
    lo = etas[max(k - 1, 0)]
    hi = etas[min(k + 1, len(etas) - 1)]
    best = vals[k]
    for _ in range(40):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        v1, v2 = dual(m1), dual(m2)
        best = min(best, v1, v2)
        if best <= params.t + margin:
            return best, 0.5 * (m1 + m2)
        if v1 <= v2:
            hi = m2
        else:
            lo = m1
    eta_star = 0.5 * (lo + hi)
    return min(best, dual(eta_star)), eta_star


def _slacks(constraints, sigma):
    return [-(float(np.sum(g * sigma)) + c) for g, c in constraints]


_START_C = (1.0 - 1e-7, 1.0 - 1e-6, 1.0 - 1e-5, 1.0 - 1e-4, 1.0 - 1e-3,
            0.99, 0.9, 0.7, 0.5, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4)
_START_W = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.05)


def _feasible_start(b, e, params, constraints, eta_star=None):
    """Search a candidate family ``c * A0 + w * I`` of the whitened interval
    for a strictly feasible point.  The scalar constraint values are affine
    in (c, w), so the scan is plain arithmetic; thin feasibility slivers near
    the extreme achievable t need c very close to 1 with w tiny.  The score
    is the worst slack, the interval's own bounds included: a start next to
    the PSD boundary costs the barrier Newton one step per doubling of its
    smallest eigenvalue.  When no dual estimate ``eta_star`` is available, a
    scale-aware probe grid stands in."""
    gt = np.outer(e, e) - (1.0 + params.t) * np.outer(b, b)
    bb = np.outer(b, b)
    eye = np.eye(len(b))
    if eta_star is None:
        s_scale = max(params.s, 1e-12)
        etas = (0.0, 0.3 / s_scale, 3.0 / s_scale, 30.0 / s_scale)
    else:
        etas = (eta_star, 0.0, 0.25 * eta_star, 4.0 * eta_star)
    bases = [eye] + [_interval_linear_max(gt - eta * bb)[1] for eta in etas]
    full_vals = [float(np.trace(g)) for g, _ in constraints]
    best = None
    best_score = 0.0
    for a0 in bases:
        base_vals = [float(np.sum(g * a0)) for g, _ in constraints]
        eig_lo, eig_hi = np.linalg.eigvalsh(a0)[[0, -1]]
        for c in _START_C:
            for w in _START_W:
                if c + w >= 1.0:
                    continue
                score = min(c * eig_lo + w, 1.0 - c * eig_hi - w)
                for (_, cst), bv, fv in zip(constraints, base_vals, full_vals):
                    slack = -(c * bv + w * fv + cst)
                    score = min(score, slack / (1.0 + abs(cst)))
                    if score <= best_score:
                        break
                if score > best_score:
                    best_score = score
                    best = (a0, c, w)
    if best is None:
        return None
    a0, c, w = best
    return linalg.symmetrize(c * a0 + w * eye)


def _resolve_start(b, e, params, constraints):
    """Strictly feasible whitened start for a cell, or raise ``Infeasible``.

    Cheap candidate probes come first; the Lagrangian dual bound is only
    computed when they fail, to certify infeasibility (or rescue a sliver
    cell with the dual-informed direction)."""
    start = _feasible_start(b, e, params, constraints)
    if start is not None:
        return start
    bound, eta_star = _feasibility_bound(b, e, params)
    if bound <= params.t + 1e-12 * (1.0 + abs(params.t)):
        raise Infeasible(
            f"cell (s={params.s:g}, t={params.t:g}) certified infeasible "
            f"(dual bound {bound:g})"
        )
    start = _feasible_start(b, e, params, constraints, eta_star)
    if start is None:
        raise Infeasible(
            f"no strictly feasible start found for cell "
            f"(s={params.s:g}, t={params.t:g})"
        )
    return start


def _span_reduction(m):
    """Whitening of the source and an orthonormal basis of the span of
    ``S b^T`` and ``S e^T`` (``S = sigma_x^1/2``).

    Returns ``(s_half, s_half_inv, u, bw, ew)``: ``u`` is mx x 2 with
    orthonormal columns and ``bw = u^T S b^T``, ``ew = u^T S e^T`` are the
    reduced observation vectors.  Householder QR keeps ``u`` orthonormal
    when ``b`` and ``e`` are parallel, completing it with an orthogonal
    direction.  A scalar source is padded with one decoupled coordinate
    (``u = [1, 0]``), whose optimal whitened entry is 1 and adds nothing to
    the log-det.
    """
    w, v = np.linalg.eigh(m.sigma_x)
    root = np.sqrt(w)
    s_half = (v * root) @ v.T
    s_half_inv = (v / root) @ v.T
    sb = s_half @ m.b[0]
    se = s_half @ m.e[0]
    if m.mx == 1:
        u = np.eye(1, 2)
    else:
        u = np.linalg.qr(np.column_stack((sb, se)))[0]
    return s_half, s_half_inv, u, u.T @ sb, u.T @ se


def _inner_convex_2x2(bw, ew, params, a0, tau0, gap_tol, max_newton, padded):
    """Scalarized barrier Newton for one whitened 2x2 cell.

    Maximizes log|A| over ``0 < A < I`` under the cell constraints written
    with the reduced observation vectors ``bw`` and ``ew``.  The symmetric
    matrix is unpacked into (a, b, c) floats so PD checks, inverses and
    log-dets are closed form.  ``padded`` marks the second coordinate as the
    decoupled padding of a scalar source.  Returns the optimal matrix, the
    Newton step count and the final duality-gap proxy.
    """
    cons = []
    for g_mat, cst in _cell_matrices(bw, ew, params):
        g00, g01, g11 = float(g_mat[0, 0]), float(g_mat[0, 1]), float(g_mat[1, 1])
        if g00 * g00 + 2.0 * g01 * g01 + g11 * g11 <= 1e-28:
            if cst > 0.0:
                raise Infeasible(f"constant constraint violated (c = {cst:g})")
        else:
            cons.append((g00, g01, g11, cst))

    def g_values(a, b, c):
        return [g00 * a + 2.0 * g01 * b + g11 * c + cst
                for g00, g01, g11, cst in cons]

    def feasible(a, b, c):
        det_s = a * c - b * b
        ga, gc = 1.0 - a, 1.0 - c
        det_g = ga * gc - b * b
        if a <= 0.0 or det_s <= 0.0 or ga <= 0.0 or det_g <= 0.0:
            return None, None
        return det_s, det_g

    def barrier_val(a, b, c, tau):
        det_s, det_g = feasible(a, b, c)
        if det_s is None:
            return None
        val = -tau * math.log(det_s) - math.log(det_g)
        for gv in g_values(a, b, c):
            if gv >= 0.0:
                return None
            val -= math.log(-gv)
        return val

    tau = max(1.0, float(tau0))

    def pad_center(x):
        # no constraint sees the padding coordinate, so it starts at its own
        # barrier center instead of crawling up from a tiny start value
        if not padded:
            return x
        return np.array([[x[0, 0], 0.0], [0.0, tau / (1.0 + tau)]])

    if a0 is not None:
        a0 = pad_center(a0)
    if a0 is None or barrier_val(
        float(a0[0, 0]), float(a0[0, 1]), float(a0[1, 1]), 1.0
    ) is None:
        constraints = [(np.array([[g00, g01], [g01, g11]]), cst)
                       for g00, g01, g11, cst in cons]
        a0 = pad_center(_resolve_start(bw, ew, params, constraints))

    a, b, c = float(a0[0, 0]), float(a0[0, 1]), float(a0[1, 1])
    n_constr = 2 + len(cons)
    total_iters = 0
    while True:
        # decrement^2 / tau bounds the log-det suboptimality of the stage
        # center, so the stop scales with the barrier weight
        decrement_tol = 2.0 * NEWTON_DECREMENT_TOL * max(1.0, tau)
        for _ in range(40):
            if total_iters >= max_newton:
                raise MaxIterationsExceeded(
                    f"inner solve exceeded {max_newton} Newton steps"
                )
            det_s, det_g = feasible(a, b, c)
            if det_s is None:
                raise SolverFailure("barrier iterate left the feasible set")
            p00, p01, p11 = c / det_s, -b / det_s, a / det_s
            r00, r01, r11 = (1.0 - c) / det_g, b / det_g, (1.0 - a) / det_g
            gr00 = -tau * p00 + r00
            gr01 = -tau * p01 + r01
            gr11 = -tau * p11 + r11
            gvals = g_values(a, b, c)
            h = [[tau * p00 * p00 + r00 * r00,
                  2.0 * (tau * p00 * p01 + r00 * r01),
                  tau * p01 * p01 + r01 * r01],
                 [0.0,
                  2.0 * (tau * (p00 * p11 + p01 * p01) + r00 * r11 + r01 * r01),
                  2.0 * (tau * p01 * p11 + r01 * r11)],
                 [0.0, 0.0, tau * p11 * p11 + r11 * r11]]
            h[1][0] = h[0][1]
            h[2][0] = h[0][2]
            h[2][1] = h[1][2]
            for (g00, g01, g11, _), gv in zip(cons, gvals):
                gr00 += g00 / (-gv)
                gr01 += g01 / (-gv)
                gr11 += g11 / (-gv)
                v = (g00, 2.0 * g01, g11)
                w = 1.0 / (gv * gv)
                for i in range(3):
                    for j in range(3):
                        h[i][j] += v[i] * v[j] * w
            gvec = np.array([gr00, 2.0 * gr01, gr11])
            try:
                step = -np.linalg.solve(np.array(h), gvec)
            except np.linalg.LinAlgError:
                break
            decrement = float(-gvec @ step)
            total_iters += 1
            if decrement <= decrement_tol:
                break
            da, db, dc = step[0], step[1], step[2]
            val0 = barrier_val(a, b, c, tau)
            alpha = 1.0
            for _ in range(40):
                val1 = barrier_val(a + alpha * da, b + alpha * db,
                                   c + alpha * dc, tau)
                if val1 is not None and val1 <= val0 - 1e-4 * alpha * decrement:
                    break
                alpha *= 0.5
            else:
                break  # no productive step; this stage is centered enough
            a, b, c = a + alpha * da, b + alpha * db, c + alpha * dc
        if n_constr / tau < gap_tol:
            break
        tau *= 10.0
    return np.array([[a, b], [b, c]]), total_iters, n_constr / tau


def inner_convex(m: GeneralModel, params: SweepParams, *, sigma0=None,
                 tau0: float = 1.0, gap_tol=BARRIER_GAP_TOL,
                 max_newton: int = 400) -> SolveReport:
    """Solve one sweep cell: maximize log|Q| under the cell constraints.

    Minimizes the public-rate contribution ``I_p(Q, s)`` over conditional
    covariances satisfying ``t (b Q b^T + 1) <= e Q e^T - b Q b^T``,
    ``b Q b^T <= s`` and ``0 < Q <= sigma_x``; only the ``-log|Q|/2`` term
    depends on Q, so this is a log-det maximization.

    The cell is solved on the span of the whitened observation vectors.
    With ``A = S^-1 Q S^-1`` (``S = sigma_x^1/2``) the constraints see only
    the compression ``A_2 = u^T A u`` of A to that span (see
    ``_span_reduction``).  Replacing A by ``I + u (A_2 - I) u^T`` keeps it
    feasible and, by Fischer's inequality, does not lower log|A|; so every
    cell is a 2x2 problem and its cost does not grow with the source
    dimension.  The 2x2 problem is solved by a log-barrier Newton path with
    barrier parameter growing tenfold per stage (from ``tau0``; pass the
    final value of a neighboring solve, with its optimum as ``sigma0``, to
    warm-start) until the duality-gap proxy drops below ``gap_tol``.

    Raises ``Infeasible`` when the constraint set is empty (certified by a
    dual bound) or has no strictly feasible point, ``MaxIterationsExceeded``
    when the Newton budget is exhausted.
    """
    validate_model(m)
    if m.my != 1 or m.mz != 1:
        raise SolverFailure("inner_convex requires scalar observations (my = mz = 1)")
    s_half, s_half_inv, u, bw, ew = _span_reduction(m)
    a0 = None
    if sigma0 is not None:
        a0 = u.T @ (s_half_inv @ np.asarray(sigma0, dtype=float) @ s_half_inv) @ u
    a2, total_iters, gap_proxy = _inner_convex_2x2(
        bw, ew, params, a0, tau0, gap_tol, max_newton, padded=m.mx == 1
    )
    a_full = linalg.symmetrize(np.eye(m.mx) + u @ (a2 - np.eye(2)) @ u.T)
    value = (
        -0.5 * linalg.logdet_pd(a_full)
        - 0.5 * math.log1p(float(bw @ bw))
        + 0.5 * math.log1p(params.s)
    )
    sigma = linalg.symmetrize(s_half @ a_full @ s_half)
    return SolveReport(
        optimum=ConditionalCov.for_model(m, sigma),
        value=float(value),
        iterations=total_iters,
        kkt_residual=gap_proxy,
        converged=True,
    )


# ---------------------------------------------------------------------------
# (s, t) sweep
# ---------------------------------------------------------------------------

def _t_range(m, s_half):
    """Extreme achievable values of t = (eQe^T - bQb^T) / (bQb^T + 1) over
    the matrix interval, by bisection on a linear feasibility test."""
    bw = s_half @ m.b[0]
    ew = s_half @ m.e[0]
    bb = np.outer(bw, bw)
    ee = np.outer(ew, ew)

    def reachable_above(v):
        val, _ = _interval_linear_max(ee - (1.0 + v) * bb)
        return val >= v

    def reachable_below(v):
        val, _ = _interval_linear_max((1.0 + v) * bb - ee)
        return val >= -v

    # t = 0 is always achieved in the Q -> 0 limit
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


def _warm_candidate(m, params, constraints, warm, anchor):
    """Blend the previous cell's optimum toward feasibility for this cell.

    Both ingredients live in [0, sigma_x], so any sub-convex combination
    stays strictly inside the matrix interval; only the two scalar
    constraints need checking, which is cheap arithmetic on precomputed
    quadratic forms.
    """
    if warm is None:
        return None
    b = m.b[0]
    qb_warm = float(b @ warm @ b)
    # rescale into a thin boundary layer below the new s cap so the barrier
    # Newton has no long crawl toward the active constraint
    if qb_warm <= (1.0 - 1e-6) * params.s:
        beta = 1.0 - 1e-9
    else:
        beta = (1.0 - 1e-6) * params.s / qb_warm
    thetas = (0.0,) if anchor is None else (0.0, 1e-4, 1e-2, 0.1, 0.3, 0.6)
    for theta in thetas:
        cand = (1.0 - theta) * beta * warm
        if theta:
            cand = cand + theta * 0.98 * anchor
        if all(s > 0.0 for s in _slacks(constraints, cand)):
            return linalg.symmetrize(cand)
    return None


def _sweep_row(m, s_half, t, s_values_desc, ik_t, row_seed=None):
    """Solve one t row over descending s values; returns achieved cells.

    Within a row every cell shares the key-rate level ``ik_t``, so only the
    cell of smallest achieved public rate can matter for the boundary; the
    scan stops early once the achieved rate has risen a full nat above the
    row minimum and keeps rising.
    """
    cells = []
    warm = row_seed
    first_optimum = None
    bw = s_half @ m.b[0]
    ew = s_half @ m.e[0]
    _, anchor_white = _interval_linear_max(
        np.outer(ew, ew) - (1.0 + t) * np.outer(bw, bw)
    )
    anchor = linalg.symmetrize(s_half @ anchor_white @ s_half)
    row_min = math.inf
    prev_rp = math.inf
    rises = 0
    for s in s_values_desc:
        params = SweepParams(s=float(s), t=float(t))
        constraints = [c for c in _cell_matrices(m.b[0], m.e[0], params)
                       if linalg.frob(c[0]) > 1e-14]
        start = _warm_candidate(m, params, constraints, warm, anchor)
        try:
            if start is not None:
                try:
                    report = inner_convex(m, params, sigma0=start, tau0=TAU_FINAL,
                                          max_newton=120)
                except MaxIterationsExceeded:
                    report = inner_convex(m, params, sigma0=start)
            else:
                report = inner_convex(m, params)
        except Infeasible:
            break  # shrinking s only tightens the cell; the row is done
        except MaxIterationsExceeded:
            warm = None
            continue  # point excluded; neighbors are unaffected
        warm = report.optimum.value
        if first_optimum is None:
            first_optimum = warm
        cells.append((report.value, ik_t, float(s), float(t), report.kkt_residual))
        row_min = min(row_min, report.value)
        rises = rises + 1 if report.value > prev_rp else 0
        prev_rp = report.value
        if rises >= 3 and report.value > row_min + 1.0:
            break
    return cells, first_optimum


def _thread_count(threads):
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("GAUSSKEY_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _row_min_rp(m, s_half, t, s_max, n_scan=16, n_golden=18):
    """Smallest achievable public rate on one t row.

    Pre-scans a log-spaced s grid, then golden-sections the bracket around
    the best scan point.  Returns ``(rp_min, cell)`` where ``cell`` is the
    achieved-cell tuple of the minimizer, or ``(inf, None)`` when the row is
    entirely infeasible.
    """
    ik_t = float("nan")  # filled by caller; kept in the cell tuple later
    s_grid = s_max * np.geomspace(1.0, SWEEP_S_FLOOR, n_scan)
    warm = {"sigma": None}

    def solve(s):
        # the warm matrix only short-circuits the feasibility phase; the
        # barrier runs its full schedule because golden-section probes jump
        # too far for a final-stage-only solve to stay reliable
        params = SweepParams(s=float(s), t=float(t))
        try:
            if warm["sigma"] is not None:
                constraints = [c for c in _cell_matrices(m.b[0], m.e[0], params)
                               if linalg.frob(c[0]) > 1e-14]
                start = _warm_candidate(m, params, constraints, warm["sigma"], None)
            else:
                start = None
            report = inner_convex(m, params, sigma0=start)
        except (Infeasible, MaxIterationsExceeded):
            return None
        warm["sigma"] = report.optimum.value
        return report

    evals = []
    for s in s_grid:
        rep = solve(s)
        if rep is None:
            break
        evals.append((rep.value, float(s), rep))
    if not evals:
        return float("inf"), None
    k = int(np.argmin([e[0] for e in evals]))
    lo = evals[k + 1][1] if k + 1 < len(evals) else evals[k][1] * SWEEP_S_FLOOR ** (1.0 / n_scan)
    hi = evals[k - 1][1] if k > 0 else s_max
    best = evals[k]
    # golden section on log s
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)

    def f(log_s):
        rep = solve(math.exp(log_s))
        if rep is None:
            return float("inf"), None
        return rep.value, rep

    fc, rc = f(c)
    fd, rd = f(d)
    if rc is not None and fc < best[0]:
        best = (fc, math.exp(c), rc)
    if rd is not None and fd < best[0]:
        best = (fd, math.exp(d), rd)
    for _ in range(n_golden):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc, rc = f(c)
            if rc is not None and fc < best[0]:
                best = (fc, math.exp(c), rc)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd, rd = f(d)
            if rd is not None and fd < best[0]:
                best = (fd, math.exp(d), rd)
        if b - a < 1e-10:
            break
    rp_min, s_at, rep = best
    cell = (rp_min, ik_t, s_at, float(t), rep.kkt_residual)
    return rp_min, cell


def sweep_boundary(m: GeneralModel, rp_grid, st_resolution: int = 200, *,
                   threads=None) -> RegionBoundary:
    """Boundary of the rate region for a model with scalar observations.

    For every public rate in ``rp_grid`` (sorted ascending), reports the
    largest key rate among all swept (s, t) cells whose inner optimum needs
    public rate at most that much, clamped at zero.  The grid spans
    ``s in (0, b sigma_x b^T]`` log-spaced and ``t`` approaching its maximal
    achievable value with log-spaced gaps, ``st_resolution`` points per
    axis.  Rows whose key-rate level is nonpositive are skipped; they can
    never beat the clamp.

    Rows (fixed t) are independent and may be spread over ``threads`` worker
    threads (default: the GAUSSKEY_THREADS environment variable, else 1);
    reduction is in fixed row order so results are deterministic.
    """
    validate_model(m)
    if m.my != 1 or m.mz != 1:
        raise SolverFailure("sweep_boundary requires scalar observations (my = mz = 1)")
    rp_grid = [float(r) for r in rp_grid]
    if any(y < x for x, y in zip(rp_grid, rp_grid[1:])):
        raise ValueError("rp_grid must be sorted ascending")
    if rp_grid and rp_grid[0] < 0.0:
        raise ValueError("public rates must be nonnegative")

    s_half = linalg.sqrtm_psd(m.sigma_x)
    b = m.b[0]
    e = m.e[0]
    s_max = float(b @ m.sigma_x @ b)
    ez = float(e @ m.sigma_x @ e)
    ik_const = 0.5 * (math.log1p(s_max) - math.log1p(ez))
    t_min, t_max = _t_range(m, s_half)

    s_values_desc = s_max * np.geomspace(1.0, SWEEP_S_FLOOR, st_resolution)
    t_span = max(t_max - t_min, 1e-9)
    g_min = SWEEP_T_GAP_FLOOR * t_span
    # hybrid t grid: uniform in log(1+t) for even key-rate coverage of the
    # whole curve, plus log-spaced gaps below t_max so the flat tail reaches
    # the asymptote to ~1e-6
    n_uniform = max(2, int(0.6 * st_resolution))
    n_refine = max(2, st_resolution - n_uniform)
    t_uniform = np.expm1(
        np.linspace(math.log1p(t_min), math.log1p(t_max - g_min), n_uniform)
    )
    t_refine = t_max - np.geomspace(g_min, 0.2 * t_span, n_refine)
    t_values = np.unique(np.concatenate([t_uniform, t_refine]))
    rows = []
    for t in t_values:
        if t <= -1.0:
            continue
        ik_t = ik_const + 0.5 * math.log1p(t)
        if ik_t > 0.0:
            rows.append((float(t), ik_t))

    n_workers = _thread_count(threads)
    if n_workers > 1 and len(rows) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_sweep_row, m, s_half, t, s_values_desc, ik)
                for t, ik in rows
            ]
            row_cells = [f.result()[0] for f in futures]
    else:
        row_cells = []
        row_seed = None
        for t, ik in rows:
            cells, first_opt = _sweep_row(m, s_half, t, s_values_desc, ik,
                                          row_seed=row_seed)
            if first_opt is not None:
                row_seed = first_opt
            row_cells.append(cells)

    cells = [c for row in row_cells for c in row]

    # Refinement pass.  The coarse grid quantizes rk(rp) in two ways: each
    # row's reach (its smallest achieved rp) is limited by the s grid, and
    # the best qualifying t is limited by the t grid.  Both are polished
    # with the same inner solver: rows near each requested rate get their
    # reach refined by golden section over s, then the winning t is located
    # by bisection between the best qualifying and first out-of-reach rows.
    coarse_reach = {}
    for (t, ik), rc in zip(rows, row_cells):
        if rc:
            coarse_reach[t] = min(c[0] for c in rc)
    ts_sorted = sorted(coarse_reach)
    refined = {}

    def reach(t):
        if t not in refined:
            rp_min, cell = _row_min_rp(m, s_half, t, s_max)
            if cell is not None:
                ik_t = ik_const + 0.5 * math.log1p(t)
                cells.append((cell[0], ik_t, cell[2], cell[3], cell[4]))
                rp_min = min(rp_min, coarse_reach.get(t, math.inf))
            refined[t] = rp_min
        return refined[t]

    if ts_sorted:
        prev_t_star = None
        for rp in rp_grid:
            qual = [t for t in ts_sorted if coarse_reach[t] <= rp + 1e-12]
            t_lo = max(qual) if qual else None
            if prev_t_star is not None and (t_lo is None or prev_t_star > t_lo):
                t_lo = prev_t_star  # the winning t is nondecreasing in rp
            # a row just out of coarse reach may still qualify once refined
            above = [t for t in ts_sorted if t_lo is None or t > t_lo]
            for t in above[:3]:
                if reach(t) <= rp + 1e-12:
                    t_lo = t
                else:
                    break
            if t_lo is None:
                continue
            later = [t for t in ts_sorted if t > t_lo]
            if not later:
                prev_t_star = t_lo
                continue
            t_hi = min(later)
            for _ in range(10):
                if t_hi - t_lo < 1e-6 * (1.0 + abs(t_hi)):
                    break
                t_mid = 0.5 * (t_lo + t_hi)
                rp_min, cell = _row_min_rp(m, s_half, t_mid, s_max)
                if cell is not None:
                    ik_mid = ik_const + 0.5 * math.log1p(t_mid)
                    cells.append((cell[0], ik_mid, cell[2], cell[3], cell[4]))
                if rp_min <= rp + 1e-12:
                    t_lo = t_mid
                else:
                    t_hi = t_mid
            prev_t_star = t_lo

    cells.sort(key=lambda c: c[0])  # by achieved public rate

    points = []
    meta = []
    best_rk = 0.0
    best_cell = None
    idx = 0
    for rp in rp_grid:
        while idx < len(cells) and cells[idx][0] <= rp + 1e-12:
            if cells[idx][1] > best_rk:
                best_rk = cells[idx][1]
                best_cell = cells[idx]
            idx += 1
        points.append(RatePair(rp=rp, rk=best_rk))
        if best_cell is None:
            meta.append(PointMeta(s=None, t=None, kkt_residual=0.0))
        else:
            meta.append(
                PointMeta(s=best_cell[2], t=best_cell[3], kkt_residual=best_cell[4])
            )
    return RegionBoundary(points=tuple(points), model_digest=model_digest(m),
                          solver_meta=tuple(meta))


# ---------------------------------------------------------------------------
# projected-gradient ascent for aligned models
# ---------------------------------------------------------------------------

def _aligned_grads(m, sigma):
    inv_y = linalg.inv_pd(sigma + m.sigma_wy, "sigma + sigma_wy")
    inv_z = linalg.inv_pd(sigma + m.sigma_wz, "sigma + sigma_wz")
    inv_s = linalg.inv_pd(sigma, "conditional covariance")
    grad_ik = 0.5 * (inv_z - inv_y)
    grad_ip = 0.5 * (inv_y - inv_s)
    return grad_ik, grad_ip


def _multi_starts(m, n_starts, seed):
    starts = [f * np.eye(m.mx) for f in (1.0, 0.75, 0.5, 0.25)][:n_starts]
    rng = np.random.Generator(np.random.Philox(key=seed))
    while len(starts) < n_starts:
        z = rng.standard_normal((m.mx, m.mx))
        q_fac, _ = np.linalg.qr(z)
        u = rng.uniform(0.05, 0.95, size=m.mx)
        starts.append(linalg.symmetrize((q_fac * u) @ q_fac.T))
    return starts


def _pga_penalty(m, rp, q0, s_half, rho=10.0, max_iter=400):
    """Projected gradient ascent on I_k - rho * max(0, I_p - rp) over the
    whitened interval, with eigenvalue flooring of the iterates.

    The floor is applied to the whitened eigenvalues so the unwhitened
    iterate never exceeds the source covariance.  Returns ``(sigma, pair,
    iterations)``, counting the ascent iterations actually taken."""
    floor = _sigma_floor(m.sigma_x)
    q_floor = floor / float(np.linalg.eigvalsh(m.sigma_x)[0])

    def objective(q):
        sigma = linalg.symmetrize(s_half @ q @ s_half)
        pair = rates_aligned(m, sigma)
        return pair.rk - rho * max(0.0, pair.rp - rp), sigma, pair

    q = linalg.eig_clip(q0, q_floor, 1.0)
    val, sigma, pair = objective(q)
    eta = 0.1
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad_ik, grad_ip = _aligned_grads(m, sigma)
        grad = grad_ik if pair.rp <= rp else grad_ik - rho * grad_ip
        grad_q = linalg.symmetrize(s_half @ grad @ s_half)
        if linalg.frob(grad_q) < 1e-13:
            break
        accepted = False
        for _ in range(30):
            q_new = linalg.eig_clip(q + eta * grad_q, q_floor, 1.0)
            move = linalg.frob(q_new - q)
            if move < 1e-14 * (1.0 + linalg.frob(q)):
                break
            val_new, sigma_new, pair_new = objective(q_new)
            if val_new > val + 1e-4 / max(eta, 1e-12) * move * move:
                q, val, sigma, pair = q_new, val_new, sigma_new, pair_new
                eta = min(eta * 1.5, 10.0)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
    return sigma, pair, iterations


def _interior_stationary(m, mu, sigma_init, max_iter=300):
    """Fixed point of the interior stationarity equation at multiplier mu.

    Solves ``sigma = mu [ (1+mu)(sigma+Wy)^-1 - (sigma+Wz)^-1 ]^-1`` by a
    damped iteration with backtracking on the fixed-point defect, so it
    converges even where the raw map is expansive.  Returns None when the
    bracket loses definiteness or the defect stops improving.  The result
    may violate the upper interval bound; callers must check.
    """

    def defect(sigma):
        try:
            bracket = (1.0 + mu) * linalg.inv_pd(sigma + m.sigma_wy, "y term") \
                - linalg.inv_pd(sigma + m.sigma_wz, "z term")
        except Exception:
            return None
        if linalg.min_eig(bracket) <= 0.0:
            return None
        return mu * linalg.inv_pd(bracket, "stationarity bracket") - sigma

    sigma = np.array(sigma_init, dtype=float)
    scale = 1.0 + linalg.frob(m.sigma_x)
    step = defect(sigma)
    if step is None:
        return None
    beta = 1.0
    for _ in range(max_iter):
        norm = linalg.frob(step)
        if norm < 1e-15 * scale:
            return sigma
        accepted = False
        for _ in range(25):
            cand = linalg.symmetrize(sigma + beta * step)
            if linalg.min_eig(cand) > 0.0:
                step_new = defect(cand)
                if step_new is not None and linalg.frob(step_new) < norm:
                    sigma, step = cand, step_new
                    beta = min(1.0, 1.5 * beta)
                    accepted = True
                    break
            beta *= 0.5
        if not accepted:
            return None
    return sigma if linalg.frob(step) < 1e-12 * scale else None


def _interior_mu_solve(m, rp, sigma_init, mu_hint):
    """Interior polish: find mu with I_p(sigma(mu)) = rp by bisection.

    The achieved rate of the interior stationary point is decreasing in mu;
    the bracket expands geometrically around ``mu_hint`` and the fixed point
    is warm-started by continuation.  Only applies when the optimum touches
    neither end of the matrix interval; returns (sigma, mu) or None.
    """
    ld_x = linalg.logdet_pd(m.sigma_x)
    ld_xy = linalg.logdet_pd(m.sigma_x + m.sigma_wy)
    state = {"sigma": np.array(sigma_init, dtype=float)}

    def rate_of(mu):
        sigma = _interior_stationary(m, mu, state["sigma"])
        if sigma is None:
            sigma = _interior_stationary(m, mu, sigma_init)
        if sigma is None:
            return None, None
        state["sigma"] = sigma
        ip = 0.5 * (ld_x - linalg.logdet_pd(sigma)) - 0.5 * (
            ld_xy - linalg.logdet_pd(sigma + m.sigma_wy)
        )
        return ip, sigma

    mu0 = min(max(mu_hint, 1e-9), 1e3)
    lo = hi = mu0
    ip0, _ = rate_of(mu0)
    if ip0 is None:
        return None
    if ip0 > rp:  # need larger mu to push the rate down
        for _ in range(40):
            hi *= 4.0
            ip_hi, _ = rate_of(hi)
            if ip_hi is None:
                return None
            if ip_hi <= rp:
                break
        else:
            return None
    else:
        for _ in range(40):
            lo /= 4.0
            ip_lo, _ = rate_of(lo)
            if ip_lo is None:
                return None
            if ip_lo >= rp:
                break
        else:
            return None
    sigma = None
    mu = mu0
    for _ in range(200):
        mu = math.sqrt(lo * hi)
        ip, sig = rate_of(mu)
        if ip is None:
            return None
        sigma = sig
        if abs(ip - rp) < 1e-13 * (1.0 + rp):
            break
        if ip > rp:
            lo = mu
        else:
            hi = mu
    if sigma is None or not linalg.is_psd(m.sigma_x - sigma):
        return None
    if linalg.min_eig(sigma) <= 0.0:
        return None
    return sigma, mu


def _skew_rotate(u0, n_active, thetas):
    """Rotate an orthogonal basis by a block-off-diagonal skew generator."""
    n = u0.shape[0]
    k = np.zeros((n, n))
    idx = 0
    for i in range(n_active):
        for j in range(n_active, n):
            k[i, j] = thetas[idx]
            k[j, i] = -thetas[idx]
            idx += 1
    return u0 @ sla.expm(k)


def _polish_face(m, rp, sigma_hat, s_half, s_half_inv, mu_hint, n_active,
                 rate_active):
    """Newton solve of the first-order system on a prescribed active face.

    The top ``n_active`` whitened eigendirections of the candidate are
    pinned to the source covariance.  Unknowns: the free-block coordinates
    of the whitened conditional covariance, the rotation mixing active and
    free subspaces, and (when the rate constraint is active) log mu.
    Residuals: the free-block and cross-block components of the
    stationarity matrix, plus the rate equality.  Returns
    (sigma, mu, residual_norm) or None.
    """
    n = m.mx
    q_hat = linalg.symmetrize(s_half_inv @ sigma_hat @ s_half_inv)
    w, u0 = np.linalg.eigh(q_hat)
    order = np.argsort(w)[::-1]
    w = w[order]
    u0 = u0[:, order]
    n_free = n - n_active
    if n_free == 0:
        return np.array(m.sigma_x), mu_hint, 0.0

    basis_f = _basis(n_free)
    n_qf = len(basis_f)
    n_rot = n_active * n_free

    u_f0 = u0[:, n_active:]
    q_free0 = u_f0.T @ q_hat @ u_f0
    x0 = [float(np.sum(q_free0 * s)) / float(np.sum(s * s)) for s in basis_f]
    x0 += [0.0] * n_rot
    if rate_active:
        x0.append(math.log(max(mu_hint, 1e-12)))
    x = np.array(x0)

    def build(xv):
        q_f = np.einsum("k,kab->ab", xv[:n_qf], basis_f)
        u = _skew_rotate(u0, n_active, xv[n_qf:n_qf + n_rot]) if n_rot else u0
        u_a = u[:, :n_active]
        u_f = u[:, n_active:]
        q = u_a @ u_a.T + u_f @ q_f @ u_f.T
        sigma = linalg.symmetrize(s_half @ q @ s_half)
        # the multiplier lives on a log scale; clamp runaway probes so the
        # line search can back off instead of overflowing
        mu = math.exp(min(max(xv[-1], -700.0), 60.0)) if rate_active else 0.0
        return sigma, mu, u_a, u_f

    ld_x = linalg.logdet_pd(m.sigma_x)
    ld_xy = linalg.logdet_pd(m.sigma_x + m.sigma_wy)

    def public_rate(sigma):
        return 0.5 * (ld_x - linalg.logdet_pd(sigma)) - 0.5 * (
            ld_xy - linalg.logdet_pd(sigma + m.sigma_wy)
        )

    excursion = 1e-3 * (1.0 + float(np.trace(m.sigma_x)))

    def residual(xv):
        sigma, mu, u_a, u_f = build(xv)
        if linalg.min_eig(sigma) <= 0.0:
            return None
        # block escapes toward stationary points beyond the interval
        if linalg.min_eig(m.sigma_x - sigma) < -excursion:
            return None
        try:
            m_w = s_half @ kkt.stationarity_matrix(m, sigma, mu) @ s_half
            parts = [np.array([float(np.sum((u_f.T @ m_w @ u_f) * s))
                               for s in basis_f])]
            if n_rot:
                parts.append((u_a.T @ m_w @ u_f).ravel())
            if rate_active:
                parts.append(np.array([public_rate(sigma) - rp]))
        except Exception:
            return None
        return np.concatenate(parts)

    r = residual(x)
    if r is None:
        return None
    for _ in range(80):
        rnorm = float(np.max(np.abs(r)))
        if rnorm < 1e-12:
            break
        jac = np.zeros((len(r), len(x)))
        for k in range(len(x)):
            h = 1e-7 * (1.0 + abs(x[k]))
            xp = x.copy()
            xp[k] += h
            xm = x.copy()
            xm[k] -= h
            rp_v = residual(xp)
            rm_v = residual(xm)
            if rp_v is None or rm_v is None:
                return None
            jac[:, k] = (rp_v - rm_v) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        improved = False
        for _ in range(30):
            x_new = x + step
            r_new = residual(x_new)
            if r_new is not None and float(np.max(np.abs(r_new))) < rnorm:
                x, r = x_new, r_new
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    sigma, mu, _, _ = build(x)
    if linalg.min_eig(sigma) <= 0.0 or not linalg.is_psd(m.sigma_x - sigma):
        return None
    return sigma, mu, float(np.max(np.abs(r)))


def solve_at_rate(m: AlignedModel, rp: float, *, sigma0=None, n_starts: int = 8,
                  seed: int = 0, max_iter: int = 400) -> SolveReport:
    """Maximize the key rate of an aligned model at public-rate budget ``rp``.

    Projected gradient ascent with an exact penalty (escalated when the
    returned point is infeasible) and multi-start initialization -- the
    source covariance scaled by {1, 0.75, 0.5, 0.25} plus seeded random SPD
    interpolants -- followed by a Newton polish of the stationarity system
    on the detected active face.  ``kkt_residual`` is the residual of that
    first-order system; ``iterations`` counts the ascent iterations actually
    taken, over every start and penalty escalation.  Heuristic for the
    nonconvex general case: certify the output through the KKT machinery
    before trusting it.
    """
    validate_model(m)
    if rp < 0.0:
        raise ValueError("rp must be nonnegative")
    s_half = linalg.sqrtm_psd(m.sigma_x)
    s_half_inv = linalg.inv_sqrtm_pd(m.sigma_x)

    if rp <= 1e-12:
        sigma = np.array(m.sigma_x)
        pair = rates_aligned(m, sigma)
        return SolveReport(
            optimum=ConditionalCov.for_model(m, sigma),
            value=pair.rk,
            iterations=0,
            kkt_residual=0.0,
            converged=True,
        )

    if sigma0 is not None:
        starts = [linalg.symmetrize(s_half_inv @ np.asarray(sigma0, float) @ s_half_inv)]
    else:
        starts = _multi_starts(m, n_starts, seed)

    best_sigma = None
    best_pair = None
    iterations = 0
    for q0 in starts:
        rho = 10.0
        sigma, pair, taken = _pga_penalty(m, rp, q0, s_half, rho=rho,
                                          max_iter=max_iter)
        iterations += taken
        for _ in range(4):
            if pair.rp <= rp + 1e-8:
                break
            rho *= 10.0
            q_here = linalg.symmetrize(s_half_inv @ sigma @ s_half_inv)
            sigma, pair, taken = _pga_penalty(m, rp, q_here, s_half, rho=rho,
                                              max_iter=max_iter)
            iterations += taken
        if pair.rp <= rp + 1e-6 and (best_pair is None or pair.rk > best_pair.rk):
            best_sigma, best_pair = sigma, pair
    if best_sigma is None:
        raise MaxIterationsExceeded("no penalty run produced a feasible point")

    # polish: estimate the multiplier, then solve the optimality system on
    # every candidate active face (the dimension is small) and both rate
    # branches, keeping the smallest-residual point that does not lose rate
    rate_guess = best_pair.rp >= rp - max(1e-7, 1e-6 * rp)
    mus = np.geomspace(1e-8, 1e4, 61)
    comps = [kkt.multiplier_composite(m, best_sigma, mu)[0] for mu in mus]
    mu_hint = float(mus[int(np.argmin(comps))])
    q_eigs = np.linalg.eigvalsh(
        linalg.symmetrize(s_half_inv @ best_sigma @ s_half_inv)
    )
    n_active_guess = int(np.sum(q_eigs >= 1.0 - 1e-4))

    polished = None
    if rate_guess:
        interior = _interior_mu_solve(m, rp, best_sigma, mu_hint)
        if interior is not None:
            sigma_int, mu_int = interior
            try:
                pair_int = rates_aligned(m, sigma_int)
            except Exception:
                pair_int = None
            if pair_int is not None and pair_int.rp <= rp + 1e-7 \
                    and pair_int.rk >= best_pair.rk - 1e-7:
                res_int, _ = kkt.multiplier_composite(m, sigma_int, mu_int)
                polished = (sigma_int, pair_int, float(res_int))

    cands = []
    for rate_active in (rate_guess, not rate_guess):
        order = [n_active_guess] + [k for k in range(m.mx) if k != n_active_guess]
        for idx, n_active in enumerate(order):
            factors = (1.0, 2.0, 0.5, 4.0, 0.25) if idx == 0 else (1.0, 2.0)
            for f in factors:
                cands.append((n_active, rate_active, f))

    for n_active, rate_active, factor in cands:
        if polished is not None and polished[2] < 1e-10:
            break
        cand = _polish_face(m, rp, best_sigma, s_half, s_half_inv,
                            factor * mu_hint if rate_active else 0.0, n_active,
                            rate_active)
        if cand is None:
            continue
        sigma_pol, _, res = cand
        try:
            pair_pol = rates_aligned(m, sigma_pol)
        except Exception:
            continue
        if pair_pol.rp > rp + 1e-7 or pair_pol.rk < best_pair.rk - 1e-7:
            continue
        if polished is None or res < polished[2]:
            polished = (sigma_pol, pair_pol, res)

    if polished is not None:
        sigma_out, pair_out, res_out = polished
        converged = res_out < 1e-8
    else:
        sigma_out, pair_out = best_sigma, best_pair
        res_out = kkt.multiplier_composite(m, sigma_out, mu_hint)[0]
        converged = False
    return SolveReport(
        optimum=ConditionalCov.for_model(m, sigma_out),
        value=pair_out.rk,
        iterations=iterations,
        kkt_residual=float(res_out),
        converged=converged,
    )


def ascent_boundary(m: AlignedModel, rp_grid, *, n_starts: int = 8, seed: int = 0,
                    certify: bool = True) -> RegionBoundary:
    """Boundary of an aligned model's rate region via penalized ascent.

    Each grid point is solved with ``solve_at_rate`` and, when ``certify``
    is set, validated end to end through the KKT/enhancement pipeline; the
    point's ``kkt_residual`` is then the maximum certificate residual, and
    points whose certificate fails the 1e-6 gate are reported with it so
    downstream code can reject them.  Key rates are clamped at zero and made
    monotone by running maximum, matching the region's closure under
    discarding communication.
    """
    validate_model(m)
    rp_grid = [float(r) for r in rp_grid]
    if any(y < x for x, y in zip(rp_grid, rp_grid[1:])):
        raise ValueError("rp_grid must be sorted ascending")

    points = []
    meta = []
    best_rk = 0.0
    for rp in rp_grid:
        report = solve_at_rate(m, rp, n_starts=n_starts, seed=seed)
        residual = report.kkt_residual
        if certify:
            try:
                cert = kkt.certify(m, report.optimum, rp)
                residual = cert.max_residual
            except Exception:
                residual = float("inf")
        best_rk = max(best_rk, report.value, 0.0)
        points.append(RatePair(rp=rp, rk=best_rk))
        meta.append(PointMeta(s=None, t=None, kkt_residual=float(residual)))
    return RegionBoundary(points=tuple(points), model_digest=model_digest(m),
                          solver_meta=tuple(meta))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_grid(m: GeneralModel, rp: float, grid_density: int = 60) -> RatePair:
    """Exhaustive-search oracle for the boundary at one public rate.

    Conditional covariances are enumerated as
    ``sigma_x^1/2 R(theta) diag(d) R(theta)^T sigma_x^1/2`` with the
    whitened eigenvalues ``d`` on a geometric grid in (0, 1] (endpoint
    included) and ``theta`` uniform over half a turn; the best feasible key
    rate is returned, clamped at zero to match boundary semantics.  Only
    source dimensions 1 and 2 are supported (``DimensionTooLarge``).
    """
    validate_model(m)
    if m.mx > 2:
        raise DimensionTooLarge(f"brute-force oracle supports mx <= 2, got {m.mx}")
    if rp < 0.0:
        raise ValueError("rp must be nonnegative")
    # coverage: the public rate affords roughly rp plus the full observation
    # information gain in log-det shrinkage, so the smallest useful
    # eigenvalue scales with both
    gain = 0.5 * linalg.logdet_pd(m.b @ m.sigma_x @ m.b.T + np.eye(m.my))
    d_min = max(1e-14, min(1e-2, math.exp(-(2.0 * rp + 2.0 * gain + 2.0))))
    d = np.geomspace(d_min, 1.0, grid_density)
    s_half = linalg.sqrtm_psd(m.sigma_x)

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
        q = (
            d[None, :, None, None, None] * p1[:, None, None]
            + d[None, None, :, None, None] * p2[:, None, None]
        )
        sigmas = np.einsum("ab,tijbc,cd->tijad", s_half, q, s_half).reshape(-1, 2, 2)
        log_dq = (
            np.log(d)[None, :, None]
            + np.log(d)[None, None, :]
            + np.zeros((grid_density, 1, 1))
        ).reshape(-1)

    eye_y = np.eye(m.my)
    eye_z = np.eye(m.mz)
    cov_y = np.einsum("ij,njk,lk->nil", m.b, sigmas, m.b) + eye_y
    cov_z = np.einsum("ij,njk,lk->nil", m.e, sigmas, m.e) + eye_z
    ld_y = np.linalg.slogdet(cov_y)[1]
    ld_z = np.linalg.slogdet(cov_z)[1]
    ld_y_full = linalg.logdet_pd(m.b @ m.sigma_x @ m.b.T + eye_y)
    ld_z_full = linalg.logdet_pd(m.e @ m.sigma_x @ m.e.T + eye_z)

    gx = -0.5 * log_dq
    gy = 0.5 * (ld_y_full - ld_y)
    gz = 0.5 * (ld_z_full - ld_z)
    ip = gx - gy
    ik = gy - gz
    feasible = ip <= rp + 1e-12
    best = float(np.max(ik[feasible])) if feasible.any() else 0.0
    return RatePair(rp=rp, rk=max(0.0, best))
