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
    Every cell of a ``t`` row has the same key rate, rising with ``t``, and
    the row's smallest public rate (``_row_min_rp``, a search over s) is
    nondecreasing in ``t``; a monotone search over ``t`` rows, refined by a
    root find on ``F(t) = rp``, yields the boundary.  The ratio form
    ``e e^T - (1 + t) b b^T`` has at most one positive eigenvalue, so the
    range of ``t`` (``_t_range``) and each row's feasible ``s``
    (``_row_edge``) are closed forms, and no search probes an empty cell.

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
    rotation angle, each evaluated in closed form through 2x2 Gram
    determinants.

Each grid point is an independent pure computation, and so is each row
minimum: its cells are solved in order, each started from the tangent of
the one before, so output is run-to-run identical.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kkt, linalg
from .errors import (
    DimensionTooLarge,
    GausskeyError,
    Infeasible,
    MaxIterationsExceeded,
    ModelValidationError,
    NotPositiveDefinite,
    SolverFailure,
)
from .modelio import model_digest
from .models import (
    COND_COV_MIN_EIG,
    AlignedModel,
    ConditionalCov,
    GeneralModel,
    to_aligned,
    validate_model,
)
from .rates import PointMeta, RatePair, RegionBoundary, rates_aligned

sla = linalg.sla  # scipy.linalg, loaded on the aligned route's first use
BARRIER_GAP_TOL = 1e-8
NEWTON_DECREMENT_TOL = 1e-10
SIGMA_FLOOR_SCALE = 1e-9

# Final barrier weight of a full schedule, handed to warm-started cells.
# Every cell's reduced barrier has at most four terms (the 2x2 upper
# interval bound and the two linear constraints), so this weight meets
# BARRIER_GAP_TOL whatever the source dimension.
TAU_FINAL = 10.0 ** math.ceil(math.log10(4 / BARRIER_GAP_TOL))

# Sweep floors: the smallest s a row-minimum search probes (relative to
# b sigma_x b^T) and the smallest gap of a t row below the maximal t
# (relative to the t range).  Beyond the public rate these floors can
# represent (~8-10 nats) the boundary is flat to well below every tolerance
# used here, and the floors keep every inner optimum inside the strict-PD
# tolerance of ConditionalCov.
SWEEP_S_FLOOR = 1e-7
SWEEP_T_GAP_FLOOR = 1e-6

# Extra centring of the final barrier stage.  Its decrement stop (0.2 at
# tau = 1e9) leaves 1 / (tau * slack) up to 40% off a constraint multiplier
# on the cell corpus; three more full Newton steps bring it within 3e-7 of
# a finite difference of the cell value, and the decrement stop of 1e-14
# bounds the relative error of each slack by 1e-7.  The central-path
# tangent that starts the next cell of a row is taken at this tight centre.
FINAL_CENTRING_STEPS = 6
FINAL_DECREMENT_TOL = 1e-14

# Row minimum (``_row_min_rp``): first step down in log s when bracketing,
# the bracket width in log s that ends a search and the stop on the
# stationarity residual g.
ROW_MIN_LOG_STEP = 0.25
ROW_MIN_LOG_TOL = 1e-9
ROW_MIN_G_TOL = 1e-6

# The bracket width in key rate log(1 + t) / 2 that ends the sweep's search
# for t*, so every reported key rate is within this many nats of its
# bracket's t*; and the cap on the steps of either Anderson-Bjorck search.
SWEEP_IK_TOL = 1e-7
SECANT_STEPS = 40

# A constraint whose matrix has squared Frobenius norm below this is
# dropped from a cell (see ``_cell_constraints``).
_VANISHING_GAIN = 1e-28


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

    For ``inner_convex``, ``converged`` says that the last barrier stage,
    at the final weight, met its Newton-decrement test (a stalled warm
    schedule is first rerun in full).  A cell that is not converged still
    returns a strictly feasible optimum and its value, which may then lie
    above the cell's minimum.  For ``solve_at_rate`` it says that the face
    polish met its residual test and that the point has a valid KKT
    multiplier (see there); a converged point can still miss another
    certificate identity, so ``kkt.certify`` stays the final check.
    """

    optimum: ConditionalCov
    value: float
    iterations: int
    kkt_residual: float
    converged: bool


# ---------------------------------------------------------------------------
# shared small-matrix utilities
# ---------------------------------------------------------------------------

@functools.cache
def _basis(n):
    """Basis of the symmetric n x n matrices: ``E_ii``, and ``E_ij + E_ji``
    for i < j, in row order."""
    e = np.eye(n)
    return np.array([np.outer(e[i], e[j]) + (i != j) * np.outer(e[j], e[i])
                     for i in range(n) for j in range(i, n)])


# ---------------------------------------------------------------------------
# inner convex problem of the sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _SpanFrame:
    """Per-model data of the sweep's cells, computed once by
    ``_span_reduction``.

    ``s_half = sigma_x^1/2`` whitens the source and ``u`` (mx x 2,
    orthonormal columns) spans ``S b^T`` and ``S e^T``; ``bw``, ``ew`` are
    the reduced observation vectors ``u^T S b^T``, ``u^T S e^T`` as float
    pairs, with ``bw = (beta, 0)`` exactly (the *b frame*).  A cell is then
    a problem in the whitened 2x2 matrix ``A_2 = [[a, b], [b, c]]``, held
    as the float triple ``(a, b, c)``.
    ``padded`` marks the second coordinate as the decoupled padding of a
    scalar source.
    """

    mx: int
    bw: tuple
    ew: tuple
    padded: bool
    s_half: np.ndarray
    s_half_inv: np.ndarray
    u: np.ndarray

    def reduce(self, sigma):
        """Whitened 2x2 compression ``u^T S^-1 Q S^-1 u`` of a conditional
        covariance, as ``(a, b, c)``."""
        a2 = self.u.T @ (self.s_half_inv @ np.asarray(sigma, dtype=float)
                         @ self.s_half_inv) @ self.u
        return float(a2[0, 0]), float(a2[0, 1]), float(a2[1, 1])

    def signal_power(self, a2):
        """Observed signal power ``b Q b^T`` of a reduced cell matrix
        ``(a, b, c)``."""
        beta = self.bw[0]
        return beta * beta * a2[0]

    def lift(self, a2):
        """Conditional covariance ``S (I + u (A_2 - I) u^T) S`` of a reduced
        cell matrix ``(a, b, c)``."""
        a, b, c = a2
        d = np.array([[a - 1.0, b], [b, c - 1.0]])
        a_full = linalg.symmetrize(np.eye(self.mx) + self.u @ d @ self.u.T)
        return linalg.symmetrize(self.s_half @ a_full @ self.s_half)


def _span_reduction(m):
    """Whitening of the source and an orthonormal basis of the span of
    ``S b^T`` and ``S e^T`` (``S = sigma_x^1/2``), as a ``_SpanFrame``.

    Householder QR keeps ``u`` orthonormal when ``b`` and ``e`` are
    parallel, completing it with an orthogonal direction; ``bw`` and ``ew``
    are the columns of its ``R`` factor.  A scalar source is padded with
    one decoupled coordinate (``u = [1, 0]``), whose optimal whitened entry
    is 1 and adds nothing to the log-det.
    """
    w, v = np.linalg.eigh(m.sigma_x)
    root = np.sqrt(w)
    s_half = (v * root) @ v.T
    s_half_inv = (v / root) @ v.T
    sb = s_half @ m.b[0]
    se = s_half @ m.e[0]
    if m.mx == 1:
        u, r = np.eye(1, 2), np.array([[sb[0], se[0]], [0.0, 0.0]])
    else:
        u, r = np.linalg.qr(np.column_stack((sb, se)))
    return _SpanFrame(mx=m.mx, bw=(float(r[0, 0]), 0.0),
                      ew=(float(r[0, 1]), float(r[1, 1])), padded=m.mx == 1,
                      s_half=s_half, s_half_inv=s_half_inv, u=u)


def _cell_constraints(frame, params):
    """Linear constraints of a reduced cell as float tuples
    ``(g00, g01, g11, k)``, meaning ``g00 a + 2 g01 b + g11 c + k <= 0``.

    The first is ``t (b Q b^T + 1) <= e Q e^T - b Q b^T``, the second
    ``b Q b^T <= s``.  A constraint whose matrix vanishes is dropped, or
    certifies infeasibility when its constant is positive.
    """
    e0, e1 = frame.ew
    bb = frame.bw[0] * frame.bw[0]
    cons = []
    for con in (((1.0 + params.t) * bb - e0 * e0, -e0 * e1, -e1 * e1, params.t),
                (bb, 0.0, 0.0, -params.s)):
        g00, g01, g11, cst = con
        if g00 * g00 + 2.0 * g01 * g01 + g11 * g11 > _VANISHING_GAIN:
            cons.append(con)
        elif cst > 0.0:
            raise Infeasible(f"constant constraint violated (c = {cst:g})")
    return tuple(cons)


def _strictly_feasible(a2, cons):
    """Whether the reduced cell matrix ``(a, b, c)`` lies strictly inside
    ``0 < A < I`` and every cell constraint."""
    a, b, c = a2
    return (0.0 < a < 1.0 and a * c - b * b > 0.0
            and (1.0 - a) * (1.0 - c) - b * b > 0.0
            and all(g00 * a + 2.0 * g01 * b + g11 * c + cst < 0.0
                    for g00, g01, g11, cst in cons))


def _ratio_form(frame, t):
    """The ratio form ``N = e e^T - (1 + t) b b^T`` in the b frame as
    ``(n00, n01, n11)``, and the level ``t + 1e-12 (1 + |t|)`` that a
    feasible cell's largest ratio slack exceeds."""
    beta = frame.bw[0]
    e0, e1 = frame.ew
    return ((e0 * e0 - (1.0 + t) * beta * beta, e0 * e1, e1 * e1),
            t + 1e-12 * (1.0 + abs(t)))


def _cell_start(frame, params, cons):
    """Strictly feasible start ``(a, b, c)`` of a cold cell and ``V``, the
    largest ratio slack under the s cap; or raise ``Infeasible``.

    In the b frame the cell asks ``<N, A> >= t`` (N of ``_ratio_form``)
    and ``A_00 <= s / beta^2``.  As N has at most one positive eigenvalue,
    ``V`` (the minimum over eta of the Lagrangian dual
    ``lambda^+(N - eta b b^T) + eta s``) is attained at ``A = 0`` or
    ``v v^T``: ``V = max(0, peak of v^T N v over unit v with
    v_0^2 <= s / beta^2)``, at N's top eigenvector or at that arc's end.
    The cell is infeasible when ``V`` does not exceed the level of
    ``_ratio_form`` (``_row_edge`` inverts this test) or ``s`` is below the
    float resolution ``eps beta^2`` of ``b Q b^T``.  The level's margin is
    absolute near ``t = 0``, where ``V`` shrinks with ``s``: it refuses the
    cell ``s = 1e-15``, ``t = 0`` of ``sigma_x = b = 1``, ``e = 2``, whose
    every feasible ``Q`` is below ``COND_COV_MIN_EIG``.  The start
    ``lam v v^T + delta w w^T`` (``w`` normal to ``v``) takes the midpoint
    ``lam`` of the eigenvalues along ``v`` that keep the ratio slack
    positive and half the largest ``delta`` that keeps both slacks
    positive; one that rounding leaves outside the cell also raises
    ``Infeasible``.
    """
    bb = frame.bw[0] * frame.bw[0]
    s, t = params.s, params.t
    (n00, n01, n11), level = _ratio_form(frame, t)
    cap = 1.0 if bb <= s else s / bb  # bound on v_0^2
    phi = 0.5 * math.atan2(n01, 0.5 * (n00 - n11))  # N's top eigenvector
    v0, v1 = math.cos(phi), math.sin(phi)
    if v0 * v0 > cap:  # off the arc: the peak is at its end
        v0, v1 = math.sqrt(cap), math.copysign(math.sqrt(1.0 - cap), n01)
    peak = n00 * v0 * v0 + 2.0 * n01 * v0 * v1 + n11 * v1 * v1
    v_max = max(0.0, peak)
    if s < math.ulp(1.0) * bb or not v_max > level:
        raise Infeasible(f"cell (s={s:g}, t={t:g}) is infeasible (largest ratio "
                         f"slack {v_max:g} under the s cap; beta^2 = {bb:g})")
    # lam * peak - t > 0 on (t / peak, 1) or (0, t / peak), clipped to (0, 1)
    lam = (0.5 * (1.0 + max(0.0, t / peak)) if peak > 0.0
           else 0.5 * min(1.0, t / peak) if peak < 0.0 else 0.5)
    n_w = n00 * v1 * v1 - 2.0 * n01 * v0 * v1 + n11 * v0 * v0
    q_w = bb * v1 * v1
    delta = 0.5 * min(1.0, (lam * peak - t) / -n_w if n_w < 0.0 else 1.0,
                      (s - lam * bb * v0 * v0) / q_w if q_w > 0.0 else 1.0)
    a2 = (lam * v0 * v0 + delta * v1 * v1, (lam - delta) * v0 * v1,
          lam * v1 * v1 + delta * v0 * v0)
    if not _strictly_feasible(a2, cons):
        raise Infeasible(f"cell (s={s:g}, t={t:g}) has no strictly feasible "
                         f"point resolved in float arithmetic")
    return a2, v_max


def _ldl_step(h00, h01, h02, h11, h12, h22, g0, g1, g2):
    """Newton step ``-H^-1 g`` and decrement ``g^T H^-1 g`` for a symmetric
    3x3 H (upper triangle given), by an unpivoted LDL^T factorization.

    Returns ``(x0, x1, x2, decrement)``, or None when a pivot is not
    positive, i.e. H is not numerically positive definite.
    """
    if not h00 > 0.0:
        return None
    l10 = h01 / h00
    l20 = h02 / h00
    d1 = h11 - l10 * h01
    if not d1 > 0.0:
        return None
    l21 = (h12 - l20 * h01) / d1
    d2 = h22 - l20 * h02 - l21 * l21 * d1
    if not d2 > 0.0:
        return None
    y0 = -g0
    y1 = -g1 - l10 * y0
    y2 = -g2 - l20 * y0 - l21 * y1
    z0 = y0 / h00
    z1 = y1 / d1
    x2 = y2 / d2
    x1 = z1 - l21 * x2
    x0 = z0 - l10 * x1 - l20 * x2
    return x0, x1, x2, y0 * z0 + y1 * z1 + y2 * x2


@dataclass(frozen=True)
class _Cell:
    """Outcome of one reduced cell: the whitened 2x2 optimum ``a2`` as
    ``(a, b, c)``, the fields of ``SolveReport`` that a sweep keeps, and,
    for a centred (``converged``) cell only, else None: ``lam_s``, the
    multiplier of ``b Q b^T <= s``, which by the envelope theorem gives
    ``d value / d s = 1 / (2 (1 + s)) - lam_s / 2``; and ``dx_ds``, the
    central path's tangent ``-H^-1 d(grad phi)/ds`` at ``a2``, from which
    the next cell of a row starts at ``a2 + (s' - s) dx_ds``."""

    a2: tuple
    value: float
    iterations: int
    kkt_residual: float
    converged: bool
    lam_s: float
    dx_ds: tuple


def _inner_convex_2x2(frame, params, a0, tau0, max_newton):
    """Scalarized barrier Newton for one whitened 2x2 cell.

    Maximizes log|A| over ``0 < A < I`` under the cell constraints of
    ``_cell_constraints``.  The iterate is the float triple ``(a, b, c)``,
    so PD checks, inverses and log-dets are closed form and each Newton
    system is solved by ``_ldl_step``; no array is built inside the loop.
    ``a0`` is a start ``(a, b, c)`` or None; a start that is not strictly
    feasible is replaced by the closed-form start of ``_cell_start``, which
    raises ``Infeasible`` for an empty cell.

    A barrier stage is *centred* when the Newton decrement drops below its
    tolerance; it ends uncentred after 40 steps, at a non-positive pivot, or
    when the line search finds no decrease.  The schedule runs from ``tau0``
    up tenfold per stage until the gap proxy ``n / tau`` drops below
    ``BARRIER_GAP_TOL``.  When a warm schedule (``tau0 > 1``) ends with its
    last stage uncentred, it restarts once from ``tau = 1`` at the same
    start, its steps counted on top.  ``converged`` reports whether the last stage
    of the final schedule was centred; an uncentred solve keeps its
    feasible, possibly suboptimal, value.  A centred final stage takes up to
    ``FINAL_CENTRING_STEPS`` more full Newton steps, until the decrement
    reaches ``FINAL_DECREMENT_TOL``, so that ``1 / (tau * slack)`` is the
    multiplier ``lam_s`` of ``b Q b^T <= s``; one more ``_ldl_step`` with
    the Hessian of that last centring step gives the tangent ``dx_ds``.
    """
    cons = _cell_constraints(frame, params)
    n_constr = 2 + len(cons)
    padded = frame.padded
    tau = max(1.0, float(tau0))

    def merit(a, b, c):
        # the barrier value, or None outside its domain
        det_s = a * c - b * b
        ga = 1.0 - a
        det_g = ga * (1.0 - c) - b * b
        if a <= 0.0 or det_s <= 0.0 or ga <= 0.0 or det_g <= 0.0:
            return None
        val = -tau * math.log(det_s) - math.log(det_g)
        for g00, g01, g11, cst in cons:
            gv = g00 * a + 2.0 * g01 * b + g11 * c + cst
            if gv >= 0.0:
                return None
            val -= math.log(-gv)
        return val

    if padded and a0 is not None:
        a0 = (a0[0], 0.0, 0.5)  # the padding coordinate is reset below
    if a0 is None or merit(*a0) is None:
        a0 = _cell_start(frame, params, cons)[0]
    total_iters = 0
    while True:
        tau_start = tau
        a, b, c = a0
        if padded:
            # no constraint sees the padding coordinate, so it starts at its
            # own barrier center instead of crawling up from a tiny value
            b, c = 0.0, tau / (1.0 + tau)
        while True:
            # decrement / tau bounds the log-det suboptimality of the stage
            # center, so the stop scales with the barrier weight
            decrement_tol = 2.0 * NEWTON_DECREMENT_TOL * max(1.0, tau)
            val = merit(a, b, c)
            centred = False
            final = n_constr / tau < BARRIER_GAP_TOL
            extra = 0
            for _ in range(40):
                if total_iters >= max_newton:
                    raise MaxIterationsExceeded(
                        f"inner solve exceeded {max_newton} Newton steps"
                    )
                det_s = a * c - b * b
                ga, gc = 1.0 - a, 1.0 - c
                det_g = ga * gc - b * b
                p00, p01, p11 = c / det_s, -b / det_s, a / det_s
                r00, r01, r11 = gc / det_g, b / det_g, ga / det_g
                gr00 = -tau * p00 + r00
                gr01 = -tau * p01 + r01
                gr11 = -tau * p11 + r11
                h00 = tau * p00 * p00 + r00 * r00
                h01 = 2.0 * (tau * p00 * p01 + r00 * r01)
                h02 = tau * p01 * p01 + r01 * r01
                h11 = 2.0 * (tau * (p00 * p11 + p01 * p01) + r00 * r11 + r01 * r01)
                h12 = 2.0 * (tau * p01 * p11 + r01 * r11)
                h22 = tau * p11 * p11 + r11 * r11
                for g00, g01, g11, cst in cons:
                    gv = g00 * a + 2.0 * g01 * b + g11 * c + cst
                    gr00 += g00 / -gv
                    gr01 += g01 / -gv
                    gr11 += g11 / -gv
                    w = 1.0 / (gv * gv)
                    v1 = 2.0 * g01
                    h00 += g00 * g00 * w
                    h01 += g00 * v1 * w
                    h02 += g00 * g11 * w
                    h11 += v1 * v1 * w
                    h12 += v1 * g11 * w
                    h22 += g11 * g11 * w
                step = _ldl_step(h00, h01, h02, h11, h12, h22,
                                 gr00, 2.0 * gr01, gr11)
                if step is None:
                    break
                da, db, dc, decrement = step
                total_iters += 1
                if decrement <= decrement_tol:
                    centred = True
                    if (not final or extra == FINAL_CENTRING_STEPS
                            or decrement <= FINAL_DECREMENT_TOL
                            or total_iters >= max_newton):
                        break
                    # centre the final stage tightly, so that 1 / (tau *
                    # slack) is each constraint's multiplier; this close to
                    # the centre full Newton steps converge quadratically
                    extra += 1
                    val1 = merit(a + da, b + db, c + dc)
                    if val1 is None:
                        break
                    a, b, c, val = a + da, b + db, c + dc, val1
                    continue
                alpha = 1.0
                for _ in range(40):
                    val1 = merit(a + alpha * da, b + alpha * db, c + alpha * dc)
                    if val1 is not None and val1 <= val - 1e-4 * alpha * decrement:
                        break
                    alpha *= 0.5
                else:
                    break  # no productive step; the stage ends uncentred
                a, b, c = a + alpha * da, b + alpha * db, c + alpha * dc
                val = val1
            if n_constr / tau < BARRIER_GAP_TOL:
                break
            tau *= 10.0
        if centred or tau_start <= 1.0:
            break
        tau = 1.0  # a stalled warm schedule runs the full one
    if padded:
        logdet = math.log(a)
    else:
        logdet = math.log(a * c - b * b)
    bb = frame.bw[0] * frame.bw[0]
    value = -0.5 * logdet - 0.5 * math.log1p(bb) + 0.5 * math.log1p(params.s)
    lam_s = dx_ds = None
    if centred and bb * bb <= _VANISHING_GAIN:
        lam_s, dx_ds = 0.0, (0.0, 0.0, 0.0)  # s is not constrained
    elif centred:  # b Q b^T <= s is the last constraint
        g00, g01, g11, _ = cons[-1]
        slack = params.s - frame.signal_power((a, b, c))
        lam_s = 1.0 / (tau * slack)
        # d(grad phi)/ds = -(g00, 2 g01, g11) / slack^2; h** is the Hessian
        # at (a, b, c), assembled by the step that ended the stage
        w = -1.0 / (slack * slack)
        step = _ldl_step(h00, h01, h02, h11, h12, h22,
                         g00 * w, 2.0 * g01 * w, g11 * w)
        if step is not None:
            dx_ds = step[:3]
    return _Cell(a2=(a, b, c), value=value, iterations=total_iters,
                 kkt_residual=n_constr / tau, converged=centred, lam_s=lam_s,
                 dx_ds=dx_ds)


def inner_convex(m: GeneralModel, params: SweepParams, *, sigma0=None,
                 tau0: float = 1.0, max_newton: int = 400) -> SolveReport:
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
    warm-start) until the duality-gap proxy drops below
    ``BARRIER_GAP_TOL``; see ``_inner_convex_2x2`` for what ``converged``
    reports.

    The public call validates the model, reduces it, solves and lifts the
    optimum.  The sweep, which reduces each model once, passes its
    ``_SpanFrame`` as ``m`` instead: ``sigma0`` is then a reduced start
    ``(a, b, c)`` and the result a ``_Cell``, with no lifted optimum and
    with the multiplier of ``b Q b^T <= s``.

    Raises ``Infeasible`` when the cell has no strictly feasible point, by
    one exact test (see ``_cell_start``): the largest ratio slack ``V`` over
    the interval capped by ``b Q b^T <= s``, in closed form, does not
    exceed ``t + 1e-12 (1 + |t|)``, or ``s`` is below the float resolution
    of ``b Q b^T``; the sweep solves no cell below ``_row_edge``.  Raises
    ``MaxIterationsExceeded`` when the Newton budget is exhausted.
    """
    if isinstance(m, _SpanFrame):
        return _inner_convex_2x2(m, params, sigma0, tau0, max_newton)
    validate_model(m)
    if m.my != 1 or m.mz != 1:
        raise SolverFailure("inner_convex requires scalar observations (my = mz = 1)")
    frame = _span_reduction(m)
    a0 = None if sigma0 is None else frame.reduce(sigma0)
    cell = _inner_convex_2x2(frame, params, a0, tau0, max_newton)
    return SolveReport(
        optimum=ConditionalCov.for_model(m, frame.lift(cell.a2)),
        value=cell.value,
        iterations=cell.iterations,
        kkt_residual=cell.kkt_residual,
        converged=cell.converged,
    )


# ---------------------------------------------------------------------------
# (s, t) sweep
# ---------------------------------------------------------------------------

def _t_range(frame):
    """Extreme achievable values ``(t_min, t_max)`` of
    ``t = (eQe^T - bQb^T) / (bQb^T + 1)`` over the matrix interval.

    ``t >= v`` is achievable iff ``lambda_max(N_v) >= v`` (N of
    ``_ratio_form``) and ``t <= v`` iff ``lambda_min(N_v) <= v``, so the
    ends are the roots of ``det(N_v - v I) = (1 + beta^2) v^2 - p v -
    beta^2 e_1^2``, one on each side of 0, taken in cancellation-free form.
    """
    beta = frame.bw[0]
    e0, e1 = frame.ew
    lead = 1.0 + beta * beta
    p = e0 * e0 - beta * beta + lead * e1 * e1
    q = 0.5 * (p + math.copysign(math.hypot(p, 2.0 * beta * e1 * math.sqrt(lead)), p))
    if q == 0.0:
        return 0.0, 0.0
    roots = (q / lead, -(beta * beta) * (e1 * e1) / q)
    return min(roots), max(roots)


def _row_edge(frame, t):
    """The smallest ``s`` above which row ``t`` passes ``_cell_start``'s
    test; 0.0 when every ``s > 0`` does, None when none does.

    ``V(s)``, the peak of ``v^T N v`` over ``v = (w, +-1) / sqrt(1 + w^2)``
    with ``v_0^2 <= s / beta^2``, rises with ``s`` from ``n11`` until the
    arc holds N's top eigenvector.  It reaches the level ``L`` at the least
    root ``w >= 0`` of ``(n00 - L) w^2 + 2 |n01| w + n11 - L``, taken in
    cancellation-free form: the edge is ``beta^2 w^2 / (1 + w^2)``.
    """
    (n00, n01, n11), level = _ratio_form(frame, t)
    if n11 > level:
        return 0.0
    a, b, c = n00 - level, abs(n01), n11 - level
    disc = b * b - a * c
    if not disc > 0.0:  # b = c = 0 when a > 0: V exceeds L for every s > 0
        return 0.0 if a > 0.0 else None
    w = -c / (b + math.sqrt(disc))
    return frame.bw[0] ** 2 * (w * w / (1.0 + w * w))


def _solve_row_cell(frame, params, prev):
    """Solve one cell of a t row.  With ``prev = (s_prev, cell)``, the
    previous cell of the row, the start is its tangent predictor
    ``a2 + (s - s_prev) dx_ds``; when that is strictly feasible the cell
    runs the warm schedule (the final barrier weight only) from it.  Any
    other cell runs cold on the full schedule."""
    if prev is not None and prev[1].dx_ds is not None:
        s_prev, cell = prev
        ds = params.s - s_prev
        a2 = tuple(x + ds * dx for x, dx in zip(cell.a2, cell.dx_ds))
        if _strictly_feasible(a2, _cell_constraints(frame, params)):
            return inner_convex(frame, params, sigma0=a2, tau0=TAU_FINAL)
    return inner_convex(frame, params)


def _anderson_bjorck(f, x_lo, f_lo, x_hi, f_hi, tol, margin=0.0):
    """Shrink a bracket ``x_lo < x_hi`` with ``f(x_lo) >= 0 > f(x_hi)`` to
    at most ``tol`` by secant steps, scaling down the value of an end kept
    twice in a row (the Illinois method with Anderson and Bjorck's factor).
    While ``f(x_hi)`` is ``-inf`` it bisects.  A secant step lands at least
    ``margin`` inside, so a search converging from one side still closes.
    ``f`` returns None to end the search; the caller keeps what it needs
    from the points ``f`` sees."""
    kept = 0  # +1 (-1): the last step replaced x_lo (x_hi)
    for _ in range(SECANT_STEPS):
        if x_hi - x_lo <= tol:
            break
        if f_hi == -math.inf:
            x = 0.5 * (x_lo + x_hi)
        else:
            x = x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo)
            x = min(max(x, x_lo + margin), x_hi - margin)
        fx = f(x)
        if fx is None:
            break
        if fx >= 0.0:
            if kept == 1:
                scale = 1.0 - fx / f_lo if f_lo > 0.0 else 0.0
                f_hi *= scale if scale > 0.0 else 0.5
            x_lo, f_lo, kept = x, fx, 1
        else:
            if kept == -1:
                scale = 1.0 - fx / f_hi
                f_lo *= scale if scale > 0.0 else 0.5
            x_hi, f_hi, kept = x, fx, -1


class _SearchEnd(Exception):
    """A row-minimum probe has no multiplier, which ends the search."""


def _row_min_rp(frame, t, s_max, ik_t):
    """Smallest achievable public rate on one t row.

    The cell value is ``rp(s) = -log|Q*(s)| / 2 + log(1 + s) / 2 + const``
    and, by the envelope theorem, ``d rp / d s = -g(s) / (2 (1 + s))`` with
    ``g(s) = lam_s (1 + s) - 1`` and ``lam_s`` the multiplier of
    ``b Q b^T <= s`` that the cell returns.

    The row is feasible above its edge (``_row_edge``), and no probe goes
    below it.  The search starts from one solve at ``s_max``, where the s
    constraint is redundant.  Its optimum stays optimal down to
    ``s_free = b Q* b^T``, so the row has a *kink* there: the same cell,
    with ``log(1 + s_max)`` replaced by ``log(1 + s_free)``.  One probe
    just below ``s_free`` decides whether the kink is the row minimum
    (``g >= 0`` there, so rp falls towards it).  Otherwise the minimum is a
    smooth root of ``g`` further down: steps in log s, doubling, bracket it
    down to ``SWEEP_S_FLOOR s_max``, or bisect towards an edge above that
    floor, where rp may still be rising; and ``_anderson_bjorck`` on ``g``
    closes the bracket.  ``_solve_row_cell`` starts each probe.  A cell
    over its Newton budget raises ``MaxIterationsExceeded`` out of the
    search.  A probe without a multiplier (uncentred, or ``Infeasible``
    from its start's float check) counts with its value, if any, and ends
    the search.

    Returns ``(rp_min, cell)`` where ``cell`` is the achieved-cell tuple of
    the best cell seen, with key-rate level ``ik_t``, or ``(inf, None)``
    when the row is infeasible at ``s_max``.
    """
    edge = _row_edge(frame, t)
    if edge is None or not edge < s_max:
        return float("inf"), None
    prev = None

    def solve(s):
        nonlocal prev
        params = SweepParams(s=s, t=float(t))
        try:
            cell = _solve_row_cell(frame, params, prev)
        except Infeasible:
            return None
        prev = (s, cell)
        return cell

    top = solve(s_max)
    if top is None:
        return float("inf"), None
    s_free = frame.signal_power(top.a2)
    best = (top.value + 0.5 * (math.log1p(s_free) - math.log1p(s_max)), s_free,
            top.kkt_residual)

    def probe(x):
        # g at s = e^x; keeps the best cell seen
        nonlocal best
        s = math.exp(x)
        cell = solve(s)
        if cell is None:
            raise _SearchEnd
        if cell.value < best[0]:
            best = (cell.value, s, cell.kkt_residual)
        if not cell.converged:
            raise _SearchEnd
        return cell.lam_s * (1.0 + s) - 1.0

    def result():
        return best[0], (best[0], ik_t, best[1], float(t), best[2])

    s_floor = s_max * SWEEP_S_FLOOR
    s_low = max(s_floor, edge)
    s_hi = s_free * (1.0 - 1e-6)
    try:
        g_hi = probe(math.log(s_hi)) if top.converged and s_hi > s_low else 0.0
        if g_hi >= 0.0:
            return result()  # the kink is the row minimum
        x_low, x_hi = math.log(s_low), math.log(s_hi)

        # bracket the root of g below x_hi, where g < 0; the floor may be
        # probed, the edge only approached
        near_edge = edge > s_floor
        step = ROW_MIN_LOG_STEP
        while True:
            if near_edge and x_hi - step <= x_low:
                x = 0.5 * (x_hi + x_low)
            else:
                x = max(x_hi - step, x_low)
                step *= 2.0
            g = probe(x)
            if g >= 0.0:
                x_lo, g_lo = x, g
                break
            x_hi, g_hi = x, g
            if x <= x_low or x_hi - x_low <= ROW_MIN_LOG_TOL:
                return result()  # rp still rises at the floor or the edge

        def g_or_stop(x):
            g = probe(x)
            return None if abs(g) <= ROW_MIN_G_TOL else g

        _anderson_bjorck(g_or_stop, x_lo, g_lo, x_hi, g_hi, ROW_MIN_LOG_TOL)
    except _SearchEnd:
        pass
    return result()


def _rate_grid(rp_grid):
    """A boundary's public rates as floats: sorted, nonnegative, not NaN."""
    rp_grid = [float(r) for r in rp_grid]
    if any(y < x for x, y in zip(rp_grid, rp_grid[1:])):
        raise ValueError("rp_grid must be sorted ascending")
    if not all(rp >= 0.0 for rp in rp_grid):
        raise ValueError("public rates must be nonnegative")
    return rp_grid


def sweep_boundary(m: GeneralModel, rp_grid, st_resolution: int = 200) -> RegionBoundary:
    """Boundary of the rate region for a model with scalar observations.

    Every cell of a ``t`` row has the key-rate level
    ``ik(t) = ik_const + log(1 + t) / 2``, which rises with ``t``, and the
    row's smallest public rate ``F(t)`` (``_row_min_rp``) is nondecreasing:
    a larger ``t`` only tightens the ratio constraint, and the public rate
    does not depend on it.  So for every public rate ``rp`` in ``rp_grid``
    (sorted ascending) the boundary is ``ik(t*)``, clamped at zero, with
    ``t* = max{t : F(t) <= rp}``, at least the level-0 row
    ``t0 = expm1(-2 ik_const)`` of the corner ``Q = sigma_x`` (``rp = 0``).
    At ``rp = 0`` the corner is exact, as ``I(U;X|Y) = 0`` forces it, and no
    row is searched.

    ``t*`` is bracketed on ``st_resolution`` rows (at least 2) that approach
    the maximal achievable ``t``: uniform in ``log(1 + t)``, plus log-spaced
    gaps below the maximum.  Rows below ``t0`` are skipped.  A binary search
    over the rows above the previous rate's last qualifying row finds the
    last row that qualifies.  From it (or the previous ``t*``, or ``t0``,
    when higher) to the next row, an Anderson-Bjorck search on
    ``F(t) = rp`` in ``log(1 + t) / 2`` shrinks the bracket to
    ``SWEEP_IK_TOL`` and reports its lower end and winning cell's ``s``.
    """
    validate_model(m)
    if m.my != 1 or m.mz != 1:
        raise SolverFailure("sweep_boundary requires scalar observations (my = mz = 1)")
    rp_grid = _rate_grid(rp_grid)
    if not st_resolution >= 2:
        raise ValueError(f"st_resolution must be at least 2, got {st_resolution!r}")

    frame = _span_reduction(m)
    s_max = float(m.b[0] @ m.sigma_x @ m.b[0])
    ez = float(m.e[0] @ m.sigma_x @ m.e[0])
    ik_const = 0.5 * (math.log1p(s_max) - math.log1p(ez))
    t_min, t_max = _t_range(frame)

    t_span = max(t_max - t_min, 1e-9)
    g_min = SWEEP_T_GAP_FLOOR * t_span
    # hybrid t grid: uniform in log(1+t) for even key-rate coverage of the
    # whole curve, plus log-spaced gaps below t_max so the flat tail reaches
    # the asymptote to ~1e-6
    n_uniform = max(2, int(0.6 * st_resolution))
    n_refine = max(2, st_resolution - n_uniform)
    t_uniform = np.expm1(np.linspace(math.log1p(t_min), math.log1p(t_max - g_min),
                                     n_uniform))
    t_refine = t_max - np.geomspace(g_min, 0.2 * t_span, n_refine)
    rows = [t for t in sorted({float(t) for t in np.concatenate([t_uniform, t_refine])})
            if ik_const + 0.5 * math.log1p(t) > 0.0]

    reach = {}  # t -> (F(t), cell) of every row evaluated

    def row_min(t):
        if t not in reach:
            reach[t] = _row_min_rp(frame, t, s_max, ik_const + 0.5 * math.log1p(t))
        return reach[t]

    points, meta = [], []
    last = -1  # last row known to qualify; qualifying rows only grow with rp
    # achieved-cell tuple of the best t so far, first the corner Q = sigma_x
    winner = (0.0, 0.0, s_max, math.expm1(-2.0 * ik_const), 0.0)

    def slack(u):
        # bound - F(t) at u = log(1 + t) / 2; a qualifying t is the best yet
        nonlocal winner
        rp_min, cell = row_min(math.expm1(2.0 * u))
        if rp_min <= bound:
            winner = cell
        return bound - rp_min

    for rp in rp_grid:
        if rp > 0.0:
            bound = rp + 1e-12
            above = len(rows)  # first row known not to qualify
            while above - last > 1:
                mid = (last + above) // 2
                if row_min(rows[mid])[0] <= bound:
                    last = mid
                else:
                    above = mid
            if last >= 0 and rows[last] > winner[3]:
                winner = row_min(rows[last])[1]
            if above < len(rows):
                _anderson_bjorck(slack, 0.5 * math.log1p(winner[3]), bound - winner[0],
                                 0.5 * math.log1p(rows[above]), bound - row_min(rows[above])[0],
                                 SWEEP_IK_TOL, margin=0.1 * SWEEP_IK_TOL)
        points.append(RatePair(rp=rp, rk=max(0.0, winner[1])))
        meta.append(PointMeta(s=winner[2], t=winner[3], kkt_residual=winner[4]))
    return RegionBoundary(points=tuple(points), model_digest=model_digest(m),
                          solver_meta=tuple(meta))


# ---------------------------------------------------------------------------
# projected-gradient ascent for aligned models
# ---------------------------------------------------------------------------

# The aligned route evaluates its small matrices as stacks.  Stacked eigh,
# Cholesky and matmul make the LAPACK/BLAS call of a per-matrix call on every
# slice, and ``_inv_stack`` the solve of ``linalg.inv_pd``: each slice matches
# the per-matrix helpers bit for bit, so stacked loops decide as per-point ones.

# Step sizes that the ascent's Armijo backtracking, and the face polish's line
# search, test per stacked evaluation.  On the benchmark's aligned points the
# ascent accepts one of its first four trials on about four steps in five, so
# four trials per call cut its stacked evaluations about threefold.  The polish
# stops at the damping floor 2^-7, its ``POLISH_HALVINGS``-th trial.
HALVINGS_PER_STACK = 4
POLISH_HALVINGS = 8

# Least weight of the ascent's penalty on the rate constraint: the ascent need
# only land near the boundary, as the polish solves the rate equation exactly.
PENALTY_RHO = 10.0

# How far past the whitened cap ``A <= I`` a face polish may walk (scale-free).
FACE_EXCURSION = 1e-2

def _frob_stack(a):
    flat = a.reshape(len(a), 1, -1)
    return np.sqrt((flat @ np.swapaxes(flat, -1, -2))[:, 0, 0])


def _chol_terms(m, sigma):
    """Cholesky factors of ``Q``, ``Q + sigma_wz`` and ``Q + sigma_wy`` for
    a stack of conditional covariances, shape ``(k, 3, n, n)``; raises
    ``NotPositiveDefinite`` as ``linalg.chol_lower`` does."""
    try:
        return np.linalg.cholesky(
            np.stack((sigma, sigma + m.sigma_wz, sigma + m.sigma_wy), axis=1))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"conditional covariance terms have no "
                                  f"Cholesky factor: {exc}") from exc


def _chol_valid(m, sigma, valid):
    """``_chol_terms`` of the matrices of a stack marked ``valid``; a matrix
    whose terms have no Cholesky factor is marked invalid in place."""
    try:
        return _chol_terms(m, sigma[valid])
    except NotPositiveDefinite:
        for i in np.flatnonzero(valid):  # find the matrices that fail
            try:
                _chol_terms(m, sigma[i:i + 1])
            except NotPositiveDefinite:
                valid[i] = False
        return _chol_terms(m, sigma[valid])


def _logdet_stack(lower):
    return 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)


def _inv_stack(lower):
    eye = np.eye(lower.shape[-1])
    inv = np.array([sla.lapack.dpotrs(c, eye, lower=1)[0]
                    for c in lower.reshape((-1,) + eye.shape)])
    return linalg.symmetrize(inv.reshape(lower.shape))


def _rates_stack(m, sigma, ld_full):
    """The public and key rates ``(ip, ik)`` that ``rates_aligned`` gives
    for a stack of conditional covariances inside the matrix interval (see
    ``_pga_penalty``), given the log-dets ``ld_full`` of ``sigma_x`` plus 0,
    ``sigma_wz`` and ``sigma_wy``, and a mask of the valid matrices: one
    whose terms have no Cholesky factor is invalid, its rates NaN."""
    valid = np.ones(len(sigma), dtype=bool)
    gx, gz, gy = (0.5 * (ld_full - _logdet_stack(_chol_valid(m, sigma, valid)))).T
    ip, ik = np.full(len(sigma), np.nan), np.full(len(sigma), np.nan)
    ip[valid], ik[valid] = gx - gy, gy - gz
    return ip, ik, valid


def _multi_starts(m, n_starts, seed):
    starts = [f * np.eye(m.mx) for f in (1.0, 0.75, 0.5, 0.25)][:n_starts]
    rng = np.random.Generator(np.random.Philox(key=seed))
    while len(starts) < n_starts:
        q_fac, _ = np.linalg.qr(rng.standard_normal((m.mx, m.mx)))
        u = rng.uniform(0.05, 0.95, size=m.mx)
        starts.append(linalg.symmetrize((q_fac * u) @ q_fac.T))
    return starts


def _penalty_weight(m):
    """The ascent's penalty weight: ``PENALTY_RHO``, or 1.25 times the corner
    multiplier ``kkt.closed_form_mu(m, sigma_x)`` when larger.  The corner
    bounds the gradient ratio on all of ``0 < Q <= sigma_x``: with
    ``P = Q^-1``, the pencil condition ``mu D >= (Q + sigma_wy)^-1 - (Q +
    sigma_wz)^-1`` of ``closed_form_mu`` is congruent to ``mu P + (1 + mu)
    sigma_wz^-1 >= sigma_wy^-1``, which only eases as ``P`` grows.  Above
    the bound the penalised objective rises from every point over the
    budget toward ``sigma_x``: the penalty is exact."""
    return max(PENALTY_RHO, 1.25 * kkt.closed_form_mu(m, m.sigma_x))


def _pga_penalty(m, rp, q0, s_half, max_iter):
    """Projected gradient ascent on I_k - rho * max(0, I_p - rp), with
    ``rho = _penalty_weight(m)``, over the whitened interval, with
    eigenvalue flooring of the iterates, for a stack of starts ``q0``.

    The clip to whitened eigenvalues in ``[q_floor, 1]`` keeps every iterate
    in the interval that ``ConditionalCov`` checks: ``q_floor min eig(sigma_x)``
    is ``SIGMA_FLOOR_SCALE tr(sigma_x) / mx``, at least ``2 COND_COV_MIN_EIG``.
    The starts advance in lockstep, one stacked evaluation per ascent step,
    while each keeps its own step size, Armijo test and early stop.  The
    Armijo backtracking tests at most 30 step sizes ``eta 2^-j`` per step,
    and each of its rounds evaluates the next ``HALVINGS_PER_STACK`` of them
    for every start still searching as one stack.  A start takes the first
    trial that passes the Armijo test, or stops at the first one that barely
    moves; the later trials of the round are discarded.  An invalid trial
    (see ``_rates_stack``) has a NaN value, fails the test and is
    backtracked past.  Halving is exact, so every start visits the iterates
    it would visit alone.  Returns ``(sigma, pair, iterations)`` per start,
    counting the ascent iterations it took."""
    floor = max(SIGMA_FLOOR_SCALE * float(np.trace(m.sigma_x)) / m.mx, 2.0 * COND_COV_MIN_EIG)
    q_floor = floor / float(np.linalg.eigvalsh(m.sigma_x)[0])
    ld_full = np.array([linalg.logdet_pd(m.sigma_x + w) for w in (0.0, m.sigma_wz, m.sigma_wy)])
    rho = _penalty_weight(m)

    def objective(q):
        sigma = linalg.symmetrize(s_half @ q @ s_half)
        ip, ik, valid = _rates_stack(m, sigma, ld_full)
        return ik - rho * np.maximum(0.0, ip - rp), sigma, ip, ik, valid

    k, n = len(q0), m.mx
    q = linalg.eig_clip(np.asarray(q0, dtype=float), q_floor, 1.0)
    val, sigma, ip, ik, valid = objective(q)
    if not valid.all():
        _chol_terms(m, sigma[~valid])  # raises the start's Cholesky failure
    eta = np.full(k, 0.1)
    iterations = np.zeros(k, dtype=int)
    live = np.arange(k)
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        iterations[live] = it
        inv_s, inv_z, inv_y = np.moveaxis(_inv_stack(_chol_terms(m, sigma[live])), 1, 0)
        grad_ik, grad_ip = 0.5 * (inv_z - inv_y), 0.5 * (inv_y - inv_s)
        over = ~(ip[live] <= rp)[:, None, None]
        grad = np.where(over, grad_ik - rho * grad_ip, grad_ik)
        grad_q = linalg.symmetrize(s_half @ grad @ s_half)
        moving = ~(_frob_stack(grad_q) < 1e-13)
        search, grad_q = live[moving], grad_q[moving]
        accepted = []
        tried = 0
        while search.size and tried < 30:
            n_j = min(HALVINGS_PER_STACK, 30 - tried)
            etas = np.empty((len(search), n_j))
            etas[:, 0] = eta[search]
            for j in range(1, n_j):
                etas[:, j] = etas[:, j - 1] * 0.5
            q_s = q[search]
            q_new = linalg.eig_clip(q_s[:, None] + etas[:, :, None, None] * grad_q[:, None],
                                    q_floor, 1.0).reshape(-1, n, n)
            move = _frob_stack(q_new - np.repeat(q_s, n_j, axis=0)).reshape(-1, n_j)
            stop = move < 1e-14 * (1.0 + _frob_stack(q_s))[:, None]
            # a trial is evaluated when no trial before it, or itself, stops
            tested = np.flatnonzero(~np.logical_or.accumulate(stop, axis=1))
            owner = np.repeat(search, n_j)[tested]
            val_t, sigma_t, ip_t, ik_t, _ = objective(q_new[tested])
            eta_t, move_t = etas.ravel()[tested], move.ravel()[tested]
            up = np.zeros_like(stop)
            armijo = val[owner] + 1e-4 / np.maximum(eta_t, 1e-12) * move_t * move_t
            up.flat[tested] = val_t > armijo
            # each start ends at its first stop or Armijo pass
            ends = stop | up
            first = np.argmax(ends, axis=1)
            ended = ends[np.arange(len(search)), first]
            at = np.arange(len(search)) * n_j + first
            won = ended & up.ravel()[at]
            win, pos = search[won], np.searchsorted(tested, at[won])
            q[win], val[win], sigma[win] = q_new[at[won]], val_t[pos], sigma_t[pos]
            ip[win], ik[win] = ip_t[pos], ik_t[pos]
            eta[win] = np.minimum(etas[won, first[won]] * 1.5, 10.0)
            accepted.extend(win)
            eta[search[~ended]] = etas[~ended, -1] * 0.5
            search, grad_q = search[~ended], grad_q[~ended]
            tried += n_j
        live = np.sort(np.array(accepted, dtype=int))
    return [(sigma[i], RatePair(rp=float(ip[i]), rk=float(ik[i])), int(iterations[i]))
            for i in range(k)]


def _skew_rotate(u0, n_active, thetas):
    """Rotate an orthogonal basis by block-off-diagonal skew generators, one
    per row of ``thetas``; returns the stack of rotated bases."""
    n = u0.shape[0]
    rows = np.repeat(np.arange(n_active), n - n_active)
    cols = np.tile(np.arange(n_active, n), n_active)
    gen = np.zeros((len(thetas), n, n))
    gen[:, rows, cols] = thetas
    gen[:, cols, rows] = -thetas
    return u0 @ sla.expm(gen)


class _FaceSystem:
    """The first-order system of ``_polish_face`` on one active face, for
    stacks of points.  ``u0`` holds whitened eigendirections, largest first;
    the top ``n_active`` are pinned to the source covariance.  A point holds
    the free-block coordinates (in ``_basis(n_free)``), the angles of the
    rotation mixing active and free directions and log mu.  The rotated
    basis stays orthogonal, so the free block alone places a point in the
    matrix interval.
    """

    def __init__(self, m, rp, s_half, u0, n_active):
        self.m, self.rp, self.s_half, self.u0 = m, rp, s_half, u0
        self.n_active = n_active
        self.basis_f = _basis(m.mx - n_active)
        self.n_qf = len(self.basis_f)
        self.n_rot = n_active * (m.mx - n_active)
        self.ld_x = linalg.logdet_pd(m.sigma_x)
        self.ld_xy = linalg.logdet_pd(m.sigma_x + m.sigma_wy)

    def build(self, xs):
        """Conditional covariances, multipliers, rotated bases, free blocks."""
        n_qf, n_rot, na = self.n_qf, self.n_rot, self.n_active
        q_f = np.einsum("pk,kab->pab", xs[:, :n_qf], self.basis_f)
        if n_rot:
            u = _skew_rotate(self.u0, na, xs[:, n_qf:n_qf + n_rot])
        else:
            u = np.broadcast_to(self.u0, (len(xs),) + self.u0.shape)
        u_a, u_f = u[:, :, :na], u[:, :, na:]
        q = u_a @ np.swapaxes(u_a, -1, -2) + u_f @ q_f @ np.swapaxes(u_f, -1, -2)
        sigma = linalg.symmetrize(self.s_half @ q @ self.s_half)
        # the multiplier lives on a log scale; clamp runaway probes so the
        # line search can back off instead of overflowing
        mu = np.array([math.exp(min(max(v, -700.0), 60.0)) for v in xs[:, -1]])
        return sigma, mu, u, q_f

    def residuals(self, xs):
        """Residual rows of points (free-block and cross-block components of
        the whitened stationarity matrix, then ``I_p - rp``) and a mask of
        the valid ones.  A point is invalid, its row NaN, when an eigenvalue
        of its free block is not positive or exceeds ``1 + FACE_EXCURSION``
        (an escape toward stationary points beyond the interval), or ``Q``,
        ``Q + sigma_wz`` or ``Q + sigma_wy`` has no Cholesky factor.
        """
        m = self.m
        sigma, mu, u, q_f = self.build(xs)
        w = np.linalg.eigvalsh(q_f)
        valid = (w[:, 0] > 0.0) & (w[:, -1] <= 1.0 + FACE_EXCURSION)
        lower = _chol_valid(m, sigma, valid)
        rows = np.full((len(xs), self.n_qf + self.n_rot + 1), np.nan)
        if not valid.any():
            return rows, valid
        inv = _inv_stack(lower)
        mu_v = mu[valid, None, None]
        stat = linalg.symmetrize(mu_v * inv[:, 0] + inv[:, 1] - (1.0 + mu_v) * inv[:, 2])
        m_w = self.s_half @ stat @ self.s_half
        u = u[valid]  # views of it give each slice the strides of a 2-D basis
        u_a, u_f = u[:, :, :self.n_active], u[:, :, self.n_active:]
        u_ft = np.swapaxes(u_f, -1, -2)
        parts = [np.einsum("kab,pab->kp", u_ft @ m_w @ u_f, self.basis_f)]
        if self.n_rot:
            parts.append((np.swapaxes(u_a, -1, -2) @ m_w @ u_f).reshape(len(m_w), -1))
        lds = _logdet_stack(lower[:, [0, 2]])
        ip = 0.5 * (self.ld_x - lds[:, 0]) - 0.5 * (self.ld_xy - lds[:, 1])
        parts.append((ip - self.rp)[:, None])
        rows[valid] = np.concatenate(parts, axis=1)
        return rows, valid


def _polish_face(m, rp, sigma_hat, s_half, s_half_inv, mu_hint, n_active):
    """Newton solve of the first-order system on a prescribed active face,
    with the rate constraint binding.

    The top ``n_active`` whitened eigendirections of the candidate are
    pinned to the source covariance.  Unknowns: the free-block coordinates
    of the whitened conditional covariance, the rotation mixing active and
    free subspaces, and log mu.  Residuals: the free-block and cross-block
    components of the stationarity matrix, plus the rate equality (see
    ``_FaceSystem``).

    A Newton step makes two or three stacked evaluations.  The
    central-difference Jacobian evaluates its ``2 nx`` probes ``x +- h
    e_k``, ``h = 1e-7 (1 + |x_k|)``, as one stack and abandons the face if
    any is invalid.  The line search takes the first valid one of the
    halvings ``x + 0.5^j step``, ``j < POLISH_HALVINGS``, that lowers the
    max-norm residual (halving is exact, so these are a sequential search's
    trials), ``HALVINGS_PER_STACK`` per stacked evaluation; when none does,
    mostly on a wrong face, the polish stops, as it does after 80 steps or
    below 1e-12.  Returns (sigma, mu, residual_norm), or None for an invalid
    start or probe; ``solve_at_rate``'s gate checks the result's interval.
    """
    q_hat = linalg.symmetrize(s_half_inv @ sigma_hat @ s_half_inv)
    w, u0 = np.linalg.eigh(q_hat)
    u0 = u0[:, np.argsort(w)[::-1]]
    if n_active == m.mx:
        return np.array(m.sigma_x), mu_hint, 0.0
    face = _FaceSystem(m, rp, s_half, u0, n_active)
    nx = face.n_qf + face.n_rot + 1
    x = np.zeros(nx)
    q_free0 = u0[:, n_active:].T @ q_hat @ u0[:, n_active:]
    x[:face.n_qf] = [float(np.sum(q_free0 * s)) / float(np.sum(s * s))
                     for s in face.basis_f]
    x[-1] = math.log(max(mu_hint, 1e-12))
    rows, valid = face.residuals(x[None])
    if not valid[0]:
        return None
    r = rows[0]
    halvings = 0.5 ** np.arange(POLISH_HALVINGS)[:, None]
    for _ in range(80):
        rnorm = float(np.max(np.abs(r)))
        if rnorm < 1e-12:
            break
        h = 1e-7 * (1.0 + np.abs(x))
        rows, valid = face.residuals(np.concatenate((x + np.diag(h), x - np.diag(h))))
        if not valid.all():
            return None
        jac = ((rows[:nx] - rows[nx:]) / (2.0 * h)[:, None]).T
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        trials = x + halvings * step
        for lo in range(0, POLISH_HALVINGS, HALVINGS_PER_STACK):
            rows, valid = face.residuals(trials[lo:lo + HALVINGS_PER_STACK])
            better = np.flatnonzero(valid & (np.max(np.abs(rows), axis=1) < rnorm))
            if better.size:
                break
        if not better.size:
            break
        x, r = trials[lo + better[0]], rows[better[0]]
    (sigma,), (mu,), _, _ = face.build(x[None])
    return sigma, float(mu), float(np.max(np.abs(r)))


def _face_schedule(n_active_guess, mx):
    """Candidates ``(n_active, factor)`` of the face polish, in the order
    ``solve_at_rate`` tries them.

    Faces run from the detected count ``g`` (which may be ``mx``) up to
    ``mx - 1``, then from ``g - 1`` down to 0: the ascent reaches ``A <= I``
    from inside and counts an eigenvalue still converging to 1 as free, so a
    wrongly detected face tends to lie below the true one.  The multiplier
    factor 1 runs on every face, then 2 on every face, then the detected
    face's 1/2, 4 and 1/4."""
    g = n_active_guess
    faces = [g, *range(g + 1, mx), *range(g - 1, -1, -1)]
    return [(k, f) for f in (1.0, 2.0) for k in faces] + [(g, f) for f in (0.5, 4.0, 0.25)]


def solve_at_rate(m: AlignedModel, rp: float, *, sigma0=None, n_starts: int = 8,
                  seed: int = 0, max_iter: int = 400) -> SolveReport:
    """Maximize the key rate of an aligned model at public-rate budget ``rp``.

    Projected gradient ascent with an exact penalty, its weight above every
    multiplier of the model (``_penalty_weight``), and multi-start
    initialization -- the source covariance scaled by {1, 0.75, 0.5, 0.25}
    plus seeded random SPD interpolants -- followed by a Newton polish of
    the stationarity system on candidate active faces (``_face_schedule``),
    with the rate constraint binding.  The polish starts from the best
    ascent point that keeps the budget, with the multiplier
    ``kkt.closed_form_mu`` gives there (clipped to [1e-8, 1e4]).  One gate
    accepts a candidate: ``rates_aligned`` (so ``ConditionalCov.for_model``)
    takes it, and it keeps the budget and the ascent's key rate.
    ``kkt_residual`` is the residual of that first-order system;
    ``iterations`` counts the ascent iterations actually taken, over every
    start; ``max_iter`` caps them per start (0 skips the ascent).
    ``converged`` says that the system of some face was solved below 1e-8
    and that the returned point passes the multiplier check of
    ``kkt.recover_multipliers`` (composite residual at most
    ``kkt.ACCEPT_COMPOSITE``), so a point polished on a wrong face is not
    reported converged.  When no face system is solved, the best ascent
    point is returned unconverged.  Raises ``MaxIterationsExceeded`` when no
    start ends within 1e-6 of the budget in ``max_iter`` iterations.
    Heuristic for the nonconvex general case: certify the output through
    the KKT machinery before trusting it.
    """
    validate_model(m)
    if not rp >= 0.0:
        raise ValueError(f"rp must be nonnegative, got {rp!r}")
    if sigma0 is None and not n_starts >= 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts!r}")
    if not max_iter >= 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    s_half = linalg.sqrtm_psd(m.sigma_x)
    s_half_inv = linalg.inv_sqrtm_pd(m.sigma_x)

    if rp <= 1e-12:
        sigma = np.array(m.sigma_x)
        return SolveReport(optimum=ConditionalCov.for_model(m, sigma),
                           value=rates_aligned(m, sigma).rk, iterations=0,
                           kkt_residual=0.0, converged=True)

    if sigma0 is not None:
        starts = [linalg.symmetrize(s_half_inv @ np.asarray(sigma0, float) @ s_half_inv)]
    else:
        starts = _multi_starts(m, n_starts, seed)

    runs = _pga_penalty(m, rp, np.array(starts), s_half, max_iter)
    iterations = sum(run[2] for run in runs)
    best_sigma = best_pair = None
    for sigma, pair, _ in runs:
        if pair.rp <= rp + 1e-6 and (best_pair is None or pair.rk > best_pair.rk):
            best_sigma, best_pair = sigma, pair
    if best_sigma is None:
        raise MaxIterationsExceeded("no penalty run produced a feasible point")

    # polish: take the closed-form multiplier of the ascent's point, then
    # solve the optimality system on every candidate active face (the
    # dimension is small), keeping the smallest-residual point that does
    # not lose rate
    mu_hint = min(max(kkt.closed_form_mu(m, best_sigma), 1e-8), 1e4)
    q_eigs = np.linalg.eigvalsh(linalg.symmetrize(s_half_inv @ best_sigma @ s_half_inv))
    n_active_guess = int(np.sum(q_eigs >= 1.0 - 1e-4))

    def keeps_rate(sigma):
        # the acceptance gate: a candidate's rates, if it passes
        try:
            pair = rates_aligned(m, sigma)
        except ModelValidationError:
            return None
        return pair if pair.rp <= rp + 1e-7 and pair.rk >= best_pair.rk - 1e-7 else None

    polished = None
    for n_active, factor in _face_schedule(n_active_guess, m.mx):
        if polished is not None and polished[2] < 1e-10:
            break
        cand = _polish_face(m, rp, best_sigma, s_half, s_half_inv, factor * mu_hint,
                            n_active)
        if cand is None:
            continue
        sigma_pol, _, res = cand
        pair_pol = keeps_rate(sigma_pol)
        if pair_pol is None:
            continue
        if polished is None or res < polished[2]:
            polished = (sigma_pol, pair_pol, res)

    if polished is not None:
        sigma_out, pair_out, res_out = polished
        converged = res_out < 1e-8
        if converged:
            # a face system solved on a wrong face leaves a point with no
            # multiplier that makes the stationarity matrix PSD
            try:
                kkt.recover_multipliers(m, sigma_out, rp)
            except (GausskeyError, ValueError):
                converged = False
    else:
        sigma_out, pair_out = best_sigma, best_pair
        res_out = kkt.multiplier_composite(m, sigma_out, mu_hint)[0]
        converged = False
    return SolveReport(optimum=ConditionalCov.for_model(m, sigma_out), value=pair_out.rk,
                       iterations=iterations, kkt_residual=float(res_out),
                       converged=converged)


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
    rp_grid = _rate_grid(rp_grid)

    points = []
    meta = []
    best_rk = 0.0
    for rp in rp_grid:
        report = solve_at_rate(m, rp, n_starts=n_starts, seed=seed)
        residual = report.kkt_residual
        if certify:
            try:
                residual = kkt.certify(m, report.optimum, rp).max_residual
            except (GausskeyError, ValueError):
                # ValueError: the certificate's own PSD check on M
                residual = float("inf")
        best_rk = max(best_rk, report.value, 0.0)
        points.append(RatePair(rp=rp, rk=best_rk))
        meta.append(PointMeta(s=None, t=None, kkt_residual=float(residual)))
    return RegionBoundary(points=tuple(points), model_digest=model_digest(m),
                          solver_meta=tuple(meta))


def contains(m, p: RatePair, tol: float, *, boundary: RegionBoundary | None = None,
             st_resolution: int = 200) -> bool:
    """Region membership: is the pair within ``tol`` of achievable?

    True iff the computed boundary at ``p.rp`` reaches ``p.rk - tol``.  A
    precomputed ``boundary`` for the same model may be supplied to avoid
    re-running the solver (it is trusted as-is); otherwise the boundary is
    computed at the single grid point ``p.rp`` with the requested sweep
    resolution (general models with scalar observations) or via the ascent
    solver (aligned or square-invertible general models).
    """
    if p.rk <= tol:
        return True
    if boundary is not None:
        return boundary.rk_at(p.rp) >= p.rk - tol
    if isinstance(m, GeneralModel) and m.my == 1 and m.mz == 1:
        bnd = sweep_boundary(m, [p.rp], st_resolution=st_resolution)
    else:
        bnd = ascent_boundary(m if isinstance(m, AlignedModel) else to_aligned(m), [p.rp])
    return bnd.rk_at(p.rp) >= p.rk - tol


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_grid(m: GeneralModel, rp: float, grid_density: int = 60) -> RatePair:
    """Exhaustive-search oracle for the boundary at one public rate.

    Conditional covariances are enumerated as
    ``sigma_x^1/2 R(theta) diag(d) R(theta)^T sigma_x^1/2`` with the
    whitened eigenvalues ``d`` on a geometric grid in (0, 1] (endpoint
    included, so ``grid_density`` must be at least 2) and ``theta`` uniform
    over half a turn; the best feasible key rate is returned, clamped at
    zero to match boundary semantics.  Only source dimensions 1 and 2 are
    supported (``DimensionTooLarge``).

    Every grid point is evaluated in closed form.  A candidate is
    ``Q = d1 w1 w1^T + d2 w2 w2^T`` with ``w_k = sigma_x^1/2 u_k(theta)``,
    so by Sylvester's determinant identity, for an observation matrix ``a``
    (``b`` or ``e``, any number of rows),

        det(I + a Q a^T) = det(I_2 + diag(d) G(theta))
                         = 1 + d1 g11 + d2 g22 + d1 d2 det G,

    with the 2x2 Gram matrix ``G(theta) = W^T a^T a W``, ``W = [w1 w2]``.
    ``det G = det(sigma_x) det(a^T a)`` does not depend on theta, and
    Cauchy-Binet writes ``det(a^T a)`` as the sum of the squared 2x2 minors
    of ``a``, so every term is nonnegative and ``log1p`` takes it without
    cancellation (an ``a`` with one row has no minors: ``det G = 0``
    exactly).  For mx = 1 there is one direction and the determinant is
    ``1 + d g``.  The cost is ``O(T N^2)`` flops for ``T = N =
    grid_density``, a few multiplies and one logarithm per grid point and
    observation, in a few ``T x N x N`` float arrays.  The oracle uses no
    part of the sweep, so it stays an independent arithmetic path.
    """
    validate_model(m)
    if m.mx > 2:
        raise DimensionTooLarge(f"brute-force oracle supports mx <= 2, got {m.mx}")
    if not rp >= 0.0:
        raise ValueError(f"rp must be nonnegative, got {rp!r}")
    if grid_density < 2:
        raise ValueError(f"grid_density must be at least 2, got {grid_density!r}")
    ld_y_full = linalg.logdet_pd(m.b @ m.sigma_x @ m.b.T + np.eye(m.my))
    ld_z_full = linalg.logdet_pd(m.e @ m.sigma_x @ m.e.T + np.eye(m.mz))
    # coverage: the public rate affords roughly rp plus the full observation
    # information gain (ld_y_full / 2) in log-det shrinkage, so the smallest
    # useful eigenvalue scales with both
    d_min = max(1e-14, min(1e-2, math.exp(-(2.0 * rp + ld_y_full + 2.0))))
    d = np.geomspace(d_min, 1.0, grid_density)
    log_d = np.log(d)
    s_half = linalg.sqrtm_psd(m.sigma_x)

    if m.mx == 1:
        log_dq = log_d

        def log_det(a):
            # log det(I + a Q a^T) on the d grid: one direction, G = g
            return np.log1p(d * float(np.sum((a @ s_half) ** 2)))
    else:
        theta = np.linspace(0.0, math.pi, grid_density, endpoint=False)
        c, s = np.cos(theta), np.sin(theta)
        w = s_half @ np.stack([np.stack([c, -s], axis=-1),
                               np.stack([s, c], axis=-1)], axis=-2)
        log_dq = log_d[:, None] + log_d[None, :]
        d1 = d[None, :, None]
        d2 = d[None, None, :]
        d12 = d[:, None] * d[None, :]
        det_x = float(np.linalg.det(m.sigma_x))

        def log_det(a):
            # log det(I + a Q a^T) on the (theta, d1, d2) grid from the
            # diagonal of G(theta) and its theta-free determinant
            aw = a @ w
            g = np.sum(aw * aw, axis=-2)
            minors = a[:, None, 0] * a[None, :, 1] - a[:, None, 1] * a[None, :, 0]
            det_g = det_x * 0.5 * float(np.sum(minors * minors))
            out = d1 * g[:, 0, None, None] + d2 * g[:, 1, None, None]
            out += det_g * d12
            return np.log1p(out, out=out)

    gy = 0.5 * (ld_y_full - log_det(m.b))
    ip = -0.5 * log_dq - gy
    ik = np.subtract(gy, 0.5 * (ld_z_full - log_det(m.e)), out=gy)
    best = float(np.max(ik, where=ip <= rp + 1e-12, initial=-np.inf))
    return RatePair(rp=rp, rk=max(0.0, best))
