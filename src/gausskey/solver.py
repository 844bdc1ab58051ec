"""Boundary solvers for the key-rate / public-rate trade-off.

Two routes to the boundary R_k(R_p); the third truth, the brute-force
oracle ``brute_force_grid``, lives in ``oracle`` and is re-imported here:

``sweep_boundary``
    For general models with scalar observations.  The boundary search
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
    Each barrier stage starts from the central path's tangent prediction of
    its centre, and Newton's method centres it to the same tests as from
    the last centre, so the prediction saves steps, not accuracy.
    Every cell of a ``t`` row has the same key rate, rising with ``t``, and
    the row's smallest public rate (``_row_min_rp``, a search over s) is
    nondecreasing in ``t``; a monotone search over ``t`` rows, refined by a
    root find on ``F(t) = rp``, yields the boundary.  The ratio form
    ``e e^T - (1 + t) b b^T`` has at most one positive eigenvalue, so the
    range of ``t`` (``_t_range``) and each row's feasible ``s``
    (``_row_edge``) are closed forms, and no search probes an empty cell.

``ascent_boundary``
    For aligned models of any dimension.  The model is whitened once, to
    ``sigma_x = I`` (a congruence, which keeps both rates), so every floor
    and tolerance is relative.  On ``0 < A <= I`` a Newton solve of the
    first-order optimality system on a detected active face polishes the
    optima of the model's two commuting parts.  When neither has a valid
    KKT multiplier, a homotopy moves the model from its commuting part to
    itself, polishing the last optimum at each step; only when that fails
    does a projected gradient ascent with an exact penalty on the rate
    constraint run from several starts, its best end point polished alike.
    The general problem is nonconvex, so this route is a heuristic: every
    returned point is either certified through the KKT machinery or flagged
    unconverged.

Each grid point is a pure computation.  A row minimum is not independent
of the sweep that asks for it: its first cell starts from the tangent in
``t`` of the nearest row solved before it in the same sweep, and every
later probe, below the row's kink, near its cell's closed-form optimum
(``_capped_optimum``): on the barrier's central path, computed from that
optimum's closed-form KKT multipliers (``_capped_multipliers``), where all
three are positive, else pulled inside.  Where a cell starts changes only
its Newton steps, and the rows are visited in an order fixed by the model
and the rate grid, so output is run-to-run identical.
"""

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kkt, linalg
from .errors import (
    GausskeyError,
    Infeasible,
    MaxIterationsExceeded,
    ModelValidationError,
    SolverFailure,
)
from .modelio import model_digest
from .models import (
    COND_COV_MIN_EIG,
    AlignedModel,
    ConditionalCov,
    GeneralModel,
    _count,
    to_aligned,
    validate_model,
    whiten,
)
from .oracle import brute_force_grid  # noqa: F401  (re-exported)
from .rates import PointMeta, RatePair, RegionBoundary, _chol_terms, rates_aligned

sla = linalg.sla  # scipy.linalg, loaded on the aligned route's first use
BARRIER_GAP_TOL = 1e-8
NEWTON_DECREMENT_TOL = 1e-10
SIGMA_FLOOR_SCALE = 1e-9

# Newton steps one cell solve may take over all its barrier stages.
MAX_NEWTON = 400

# Final barrier weight of a full schedule, handed to warm-started cells.
# Every cell's reduced barrier has at most four terms (the 2x2 upper
# interval bound and the two linear constraints), so this weight meets
# BARRIER_GAP_TOL whatever the source dimension.
TAU_FINAL = 10.0 ** math.ceil(math.log10(4 / BARRIER_GAP_TOL))

# Weights by which a start outside its cell, or a capped optimum on its
# boundary, is pulled toward the cell's closed-form start before the
# requested schedule runs from it.  On the frozen sweeps a pull of 1e-2 or
# more costs more Newton steps than the cold schedule, so the ladder stops
# at 1e-3.  It starts at 1e-6: a first weight of 1e-8 or 1e-5 raises the
# resolution-60 demos from 9,622 Newton steps to 10,434 or 10,009.
START_PULLS = (1e-6, 1e-4, 1e-3)

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
# bounds the relative error of each slack by 1e-7.  Both are caps: the
# centring also ends at its round-off floor, when a full step no longer
# lowers the decrement (often near 1e-13), where further steps would move
# the iterate only within round-off.  The central-path tangent in t that
# starts the top cell of the next row is taken at this tight centre.
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
# bracket's t*; and the cap on the steps of any Anderson-Bjorck search.
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
    the convex inner solve, and for ``solve_at_rate`` the multiplier
    composite of the returned point, whose test decides ``converged``.

    For ``inner_convex``, ``converged`` says that the last barrier stage,
    at the final weight, met its Newton-decrement test (a stalled warm
    schedule is first rerun in full).  A cell that is not converged still
    returns a strictly feasible optimum and its value, which may then lie
    above the cell's minimum.  For ``solve_at_rate`` it says that the point
    passed the polish's gate, a valid KKT multiplier included (see there);
    unconverged, it is the best point found within the budget.  A converged
    point can still miss another certificate identity: ``kkt.certify`` has
    the last word.
    """

    optimum: ConditionalCov
    value: float
    iterations: int
    kkt_residual: float
    converged: bool


# ---------------------------------------------------------------------------
# shared utilities of both routes
# ---------------------------------------------------------------------------

@functools.cache
def _basis(n):
    """Basis of the symmetric n x n matrices: ``E_ii``, and ``E_ij + E_ji``
    for i < j, in row order."""
    e = np.eye(n)
    return np.array([np.outer(e[i], e[j]) + (i != j) * np.outer(e[j], e[i])
                     for i in range(n) for j in range(i, n)])


def _anderson_bjorck(f, x_lo, f_lo, x_hi, f_hi, tol, margin=0.0):
    """Shrink a bracket ``x_lo < x_hi`` with ``f(x_lo) >= 0 > f(x_hi)`` to
    at most ``tol`` by secant steps, scaling down the value of an end kept
    twice in a row (the Illinois method with Anderson and Bjorck's factor).
    While ``f(x_hi)`` is ``-inf`` it bisects.  A secant step lands at least
    ``margin`` inside, so a search converging from one side still closes.
    ``f`` returns None to end the search; the caller keeps what it needs
    from the points ``f`` sees.  The one 1-D search of both routes: the
    sweep's row minima and ``t*``, and ``_commuting_start``."""
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
    s_half, s_half_inv = linalg.roots(m.sigma_x)
    sb, se = s_half @ m.b[0], s_half @ m.e[0]
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


def _capped_optimum(frame, params):
    """The cell's optimum ``(a, b, c)`` in the limit of a binding s cap, or
    None when ``a = s / beta^2 >= 1`` or the ratio constraint has no root.

    With ``a`` fixed the determinant ``a - b^2 / (1 - a)`` on the face
    ``c = 1 - b^2 / (1 - a)`` of ``A <= I`` falls with ``|b|``, so on that
    face ``b`` is the root nearest 0 of ``r(b) = t``, ``r(b) = <N, A>`` (N
    of ``_ratio_form``), taken in cancellation-free form, or 0 when
    ``r(0) >= t``.  Below a row's kink ``s_free`` the cap binds at
    every cell optimum (the cell problem is strictly convex, and the row's
    top optimum breaks the cap), so this is the optimum of every such cell.
    The point lies on the cell's boundary, however rounding judges it.
    """
    bb = frame.bw[0] * frame.bw[0]
    if not params.s < bb:
        return None
    a = params.s / bb
    (n00, n01, n11), _ = _ratio_form(frame, params.t)
    gap = params.t - n00 * a - n11  # t - r(0)
    if gap <= 0.0:
        return a, 0.0, 1.0
    # n11 / (1 - a) b^2 - 2 n01 b + gap = 0
    disc = n01 * n01 - n11 / (1.0 - a) * gap
    if disc < 0.0 or n01 == 0.0:
        return None
    b = gap / (n01 + math.copysign(math.sqrt(disc), n01))
    return a, b, 1.0 - b * b / (1.0 - a)


def _capped_multipliers(frame, params, a2):
    """KKT multipliers ``(lam_s, lam_r, zeta)`` of a capped optimum ``a2``
    (``_capped_optimum``), or None where they are not unique.

    In the b frame ``v = (b, 1 - a)`` spans the null space of ``I - A``, and
    stationarity of log|A| reads ``A^-1 = lam_s beta^2 E_00 - lam_r N +
    zeta v v^T`` (N of ``_ratio_form``; ``lam_s`` of ``b Q b^T <= s``,
    ``lam_r`` of the ratio constraint, ``zeta v v^T`` of ``A <= I``).
    Entries 01 and 11 give ``lam_r`` and ``zeta``, entry 00 then ``lam_s``.
    The cell is convex, so three positive multipliers certify ``a2`` as its
    unique optimum.  Where the ratio constraint is slack (``b = 0`` and
    ``r(0)`` above the level of ``_ratio_form``), ``lam_r = 0``.  Otherwise
    the system's determinant is ``beta^2 (1 - a) k`` with ``k = n11 b - n01
    (1 - a)``, and the multipliers are not unique where it vanishes against
    the product of its columns' norms (below 1e-12 of it): so at ``b = 0``
    with ``e`` parallel to ``b``, where ``n01`` is the rounding of the span's
    QR and both constraints bound ``a`` alone.
    """
    a, b, c = a2
    (n00, n01, n11), level = _ratio_form(frame, params.t)
    ga = 1.0 - a
    det = a * c - b * b
    k = n11 * b - n01 * ga
    if b == 0.0 and n00 * a + n11 > level:
        lam_r, zeta = 0.0, a / (det * ga * ga)
    elif abs(ga * k) > 1e-12 * (math.sqrt(n00 * n00 + 2.0 * n01 * n01 + n11 * n11)
                                * (b * b + ga * ga)):
        lam_r = -b / (det * k)
        zeta = -(n01 * a + n11 * b) / (det * ga * k)
    else:
        return None
    lam_s = (c / det + lam_r * n00 - zeta * b * b) / (frame.bw[0] * frame.bw[0])
    return lam_s, lam_r, zeta


def _centred_capped_start(frame, params, a2, tau):
    """The barrier's centre at weight ``tau`` near a capped optimum ``a2``,
    to first order, or None where a multiplier of ``_capped_multipliers``
    is not positive.

    At the centre each slack times its multiplier is ``1 / tau``; moving
    ``a2`` by ``d`` gives ``beta^2 d_a = -1 / (tau lam_s)``, ``<N, d> = 1 /
    (tau lam_r)`` and ``v^T d v = -1 / (tau zeta)``, one 2x2 solve for
    ``d_b`` and ``d_c`` once ``d_a`` is known.
    """
    mults = _capped_multipliers(frame, params, a2)
    if mults is None or not min(mults) > 0.0:
        return None
    lam_s, lam_r, zeta = mults
    a, b, c = a2
    (n00, n01, n11), _ = _ratio_form(frame, params.t)
    ga = 1.0 - a
    da = -1.0 / (tau * lam_s * frame.bw[0] * frame.bw[0])
    # 2 n01 db + n11 dc = r0, 2 b ga db + ga^2 dc = r1
    r0 = 1.0 / (tau * lam_r) - n00 * da
    r1 = -1.0 / (tau * zeta) - b * b * da
    det2 = 2.0 * ga * (n01 * ga - n11 * b)
    db = (ga * ga * r0 - n11 * r1) / det2
    dc = 2.0 * (n01 * r1 - b * ga * r0) / det2
    return a + da, b + db, c + dc


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
    ``d value / d s = 1 / (2 (1 + s)) - lam_s / 2``; and ``dx_dt``, the
    central path's tangent ``-H^-1 d(grad phi)/dt`` at ``a2`` (None also
    when the ratio constraint is dropped), from which the top cell of a
    neighbouring row starts at ``a2 + (t' - t) dx_dt``; and ``start``, where
    the solve started: ``"given"``, ``"centred"``, ``"pulled"`` or
    ``"cold"`` (see ``_inner_convex_2x2``)."""

    a2: tuple
    value: float
    iterations: int
    kkt_residual: float
    converged: bool
    lam_s: float
    dx_dt: tuple
    start: str


def _inner_convex_2x2(frame, params, a0, tau0):
    """Scalarized barrier Newton for one whitened 2x2 cell.

    Maximizes log|A| over ``0 < A < I`` under the cell constraints of
    ``_cell_constraints``.  The iterate is the float triple ``(a, b, c)``,
    so PD checks, inverses and log-dets are closed form and each Newton
    system is solved by ``_ldl_step``; no array is built inside the loop.

    Only this kernel decides where a cell starts (``_Cell.start``): at
    ``a0`` on the schedule from ``tau0`` when ``a0`` is strictly inside the
    cell (``"given"``); else at ``a0`` pulled toward the closed-form start
    of ``_cell_start`` by the first weight of ``START_PULLS`` that brings it
    strictly inside (``"pulled"``), as when a linear prediction lifts the
    top whitened eigenvalue past 1; else at the closed-form start on the
    full schedule (``"cold"``).  Without ``a0`` a warm schedule
    (``tau0 > 1``) starts near the capped optimum of ``_capped_optimum``:
    where its three KKT multipliers (``_capped_multipliers``) are positive,
    at the barrier's centre at ``tau0`` predicted from them
    (``_centred_capped_start``) when that lies strictly inside the cell
    (``"centred"``, and ``_cell_start`` does not run); else it pulls the
    capped optimum itself, which lies on the cell's boundary even where
    rounding judges it strictly inside.  Without either the cell runs
    cold.  ``_cell_start`` runs at most once and raises ``Infeasible`` for
    an empty cell.

    A barrier stage is *centred* when the Newton decrement drops below its
    tolerance; it ends uncentred after 40 steps, at a non-positive pivot, or
    when the line search finds no decrease.  The schedule runs from ``tau0``
    up tenfold per stage until the gap proxy ``n / tau`` drops below
    ``BARRIER_GAP_TOL``.  A stage that follows a centred one starts from the
    predicted centre (predictor-corrector path following): the centres
    ``x(tau)`` form a smooth path in ``1 / tau``, with tangent
    ``dx/dtau = H^-1 grad log|A|`` (one more ``_ldl_step`` with the Hessian
    that the last step assembled), so the next centre is about
    ``x + (1 - 1/10) tau dx/dtau``.  A failed solve or a prediction outside
    the barrier's domain starts the stage at ``x``, as does a stage after
    an uncentred one.  Where a stage starts changes only how many Newton
    steps centre it: each stage's centre is the unique minimizer of its
    barrier, and the final stage meets the same decrement tests wherever it
    starts, so the cell ends at the same optimum within their tolerance.
    When a warm schedule (``tau0 > 1``) ends with its last stage uncentred,
    it restarts once from ``tau = 1`` at the same start, its steps counted
    on top; a warm schedule that starts at the final weight has no stage to
    predict.  ``converged`` reports whether the last stage of the final
    schedule was centred; an uncentred solve keeps its
    feasible, possibly suboptimal, value.  A centred final stage takes up to
    ``FINAL_CENTRING_STEPS`` more full Newton steps, until the decrement
    reaches ``FINAL_DECREMENT_TOL`` or a full step no longer lowers it (its
    round-off floor), so that ``1 / (tau * slack)`` is the multiplier
    ``lam_s`` of ``b Q b^T <= s``; one more ``_ldl_step`` with the Hessian
    of that last centring step gives the tangent ``dx_dt``.
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

    capped = a0 is None and tau > 1.0
    start = "given"
    if capped:
        a0 = _capped_optimum(frame, params)  # on the boundary: never given
        if a0 is not None and len(cons) == 2:  # the centre assumes both kept
            centre = _centred_capped_start(frame, params, a0, tau)
            if centre is not None and _strictly_feasible(centre, cons):
                capped, start, a0 = False, "centred", centre
    if padded and a0 is not None:
        a0 = (a0[0], 0.0, 0.5)  # the padding coordinate is reset below
    if capped or a0 is None or not _strictly_feasible(a0, cons):
        x0 = _cell_start(frame, params, cons)[0]
        for theta in START_PULLS if a0 is not None else ():
            pulled = tuple(x + theta * (y - x) for x, y in zip(a0, x0))
            if _strictly_feasible(pulled, cons):
                start, a0 = "pulled", pulled
                break
        else:
            start, a0, tau = "cold", x0, 1.0
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
            last_decrement = math.inf
            for _ in range(40):
                if total_iters >= MAX_NEWTON:
                    raise MaxIterationsExceeded(
                        f"inner solve exceeded {MAX_NEWTON} Newton steps"
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
                            or decrement >= last_decrement
                            or total_iters >= MAX_NEWTON):
                        break
                    # centre the final stage tightly, so that 1 / (tau *
                    # slack) is each constraint's multiplier; this close to
                    # the centre full Newton steps converge quadratically,
                    # until a step no longer lowers the decrement: round-off
                    extra += 1
                    val1 = merit(a + da, b + db, c + dc)
                    if val1 is None:
                        break
                    a, b, c, val = a + da, b + db, c + dc, val1
                    last_decrement = decrement
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
            if centred:
                # start the next stage at x + (1 - 1/10) tau dx/dtau, its
                # predicted centre; h** and p** are at x, assembled by the
                # step that ended this stage
                step = _ldl_step(h00, h01, h02, h11, h12, h22,
                                 -p00, -2.0 * p01, -p11)
                if step is not None:
                    k = 0.9 * tau
                    pred = (a + k * step[0], b + k * step[1], c + k * step[2])
                    if merit(*pred) is not None:
                        a, b, c = pred
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
    lam_s = dx_dt = None
    if centred:
        s_con = bb * bb > _VANISHING_GAIN  # b Q b^T <= s, when kept, is last
        lam_s = (1.0 / (tau * (params.s - frame.signal_power((a, b, c))))
                 if s_con else 0.0)
        if len(cons) > s_con:  # the ratio constraint g <= 0 is first
            g00, g01, g11, cst = cons[0]
            gv = g00 * a + 2.0 * g01 * b + g11 * c + cst
            # -H^-1 d(grad phi)/dt, H assembled at (a, b, c) by the step
            # that ended the stage: dg/dt = beta^2 a + 1 and d(grad g)/dt =
            # (beta^2, 0, 0), so d(grad phi)/dt = (beta^2, 0, 0) / -g +
            # grad g (dg/dt) / g^2
            w = (bb * a + 1.0) / (gv * gv)
            step = _ldl_step(h00, h01, h02, h11, h12, h22,
                             bb / -gv + g00 * w, 2.0 * g01 * w, g11 * w)
            dx_dt = None if step is None else step[:3]
    return _Cell(a2=(a, b, c), value=value, iterations=total_iters,
                 kkt_residual=n_constr / tau, converged=centred, lam_s=lam_s,
                 dx_dt=dx_dt, start=start)


def inner_convex(m: GeneralModel, params: SweepParams, *, sigma0=None,
                 tau0: float = 1.0) -> SolveReport:
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
    ``BARRIER_GAP_TOL``.  A ``sigma0`` outside the cell is pulled inside,
    toward the closed-form start; without ``sigma0`` a ``tau0 > 1`` starts
    the cell near its optimum under a binding s cap: on the central path at
    ``tau0``, from that optimum's closed-form KKT multipliers, where all
    three are positive, else at the optimum pulled inside alike.
    With ``tau0 = 1`` and no ``sigma0``, or when no pull brings a start
    inside, the full schedule runs from the closed-form start.  A stage after
    a centred one starts from the central path's prediction of its centre,
    which saves Newton steps and leaves the final centre where it was; see
    ``_inner_convex_2x2`` for the start rule, for why and for what
    ``converged`` reports.

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
    ``MaxIterationsExceeded`` when the budget of ``MAX_NEWTON`` Newton steps
    is exhausted.
    """
    if isinstance(m, _SpanFrame):
        return _inner_convex_2x2(m, params, sigma0, tau0)
    validate_model(m)
    if not isinstance(m, GeneralModel) or m.my != 1 or m.mz != 1:
        raise SolverFailure("inner_convex requires a general model with scalar "
                            "observations (my = mz = 1)")
    frame = _span_reduction(m)
    a0 = None if sigma0 is None else frame.reduce(sigma0)
    cell = _inner_convex_2x2(frame, params, a0, tau0)
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


def _row_min_rp(frame, t, s_max, ik_t, near=None):
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
    closes the bracket.  The top cell starts from ``near = (t', top')``,
    the top cell of a row already solved, moved by ``(t - t') dx_dt``, or
    runs cold without ``near``; every later probe lies below ``s_free``,
    where the s cap binds, and starts near its cell's closed-form optimum
    (``_capped_optimum``), centred from its KKT multipliers where they are
    positive.  Both starts run on the final barrier weight, and the kernel
    pulls either inside or runs the cell cold.  Where a
    probe starts changes only its Newton steps, not the centre it reaches.
    A cell over its Newton budget raises ``MaxIterationsExceeded`` out of
    the search.  A probe without a
    multiplier (uncentred, or ``Infeasible`` from its start's float check)
    counts with its value, if any, and ends the search.

    Returns ``(rp_min, cell, top)`` where ``cell`` is the achieved-cell
    tuple of the best cell seen, with key-rate level ``ik_t``, and ``top``
    the ``_Cell`` solved at ``s_max``; or ``(inf, None, None)`` when the row
    is infeasible at ``s_max``.
    """
    edge = _row_edge(frame, t)
    if edge is None or not edge < s_max:
        return float("inf"), None, None

    def solve(s, **start):
        try:
            return inner_convex(frame, SweepParams(s=s, t=float(t)), **start)
        except Infeasible:
            return None

    if near is None or near[1].dx_dt is None:
        top = solve(s_max)
    else:
        top = solve(s_max, sigma0=tuple(x + (t - near[0]) * dx for x, dx
                                        in zip(near[1].a2, near[1].dx_dt)),
                    tau0=TAU_FINAL)
    if top is None:
        return float("inf"), None, None
    s_free = frame.signal_power(top.a2)
    best = (top.value + 0.5 * (math.log1p(s_free) - math.log1p(s_max)), s_free,
            top.kkt_residual)

    def probe(x):
        # g at s = e^x, or None to end the search; keeps the best cell seen
        nonlocal best
        s = math.exp(x)
        cell = solve(s, tau0=TAU_FINAL)
        if cell is None:
            return None
        if cell.value < best[0]:
            best = (cell.value, s, cell.kkt_residual)
        return cell.lam_s * (1.0 + s) - 1.0 if cell.converged else None

    def result():
        return best[0], (best[0], ik_t, best[1], float(t), best[2]), top

    s_floor = s_max * SWEEP_S_FLOOR
    s_low = max(s_floor, edge)
    s_hi = s_free * (1.0 - 1e-6)
    g_hi = probe(math.log(s_hi)) if top.converged and s_hi > s_low else 0.0
    if g_hi is None or g_hi >= 0.0:
        return result()  # the kink is the row minimum, or the search ended
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
        if g is None:
            return result()
        if g >= 0.0:
            x_lo, g_lo = x, g
            break
        x_hi, g_hi = x, g
        if x <= x_low or x_hi - x_low <= ROW_MIN_LOG_TOL:
            return result()  # rp still rises at the floor or the edge

    def g_or_stop(x):
        g = probe(x)
        return None if g is None or abs(g) <= ROW_MIN_G_TOL else g

    _anderson_bjorck(g_or_stop, x_lo, g_lo, x_hi, g_hi, ROW_MIN_LOG_TOL)
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
    Each row is evaluated once; its top cell starts from the top cell of
    the nearest row evaluated before it (``_row_min_rp``'s ``near``), and
    the sweep's first row runs cold.
    """
    validate_model(m)
    if not isinstance(m, GeneralModel) or m.my != 1 or m.mz != 1:
        raise SolverFailure("sweep_boundary requires a general model with scalar "
                            "observations (my = mz = 1)")
    rp_grid = _rate_grid(rp_grid)
    st_resolution = _count("st_resolution", st_resolution)
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

    reach = {}  # t -> (F(t), cell, top cell) of every row evaluated
    started = []  # sorted t of the rows whose top cell has a tangent in t

    def row_min(t):
        if t not in reach:
            # the top cell starts from the nearest row solved before it
            k = bisect.bisect(started, t)
            near = min(started[max(k - 1, 0):k + 1], key=lambda u: abs(u - t),
                       default=None)
            reach[t] = _row_min_rp(frame, t, s_max, ik_const + 0.5 * math.log1p(t),
                                   None if near is None else (near, reach[near][2]))
            if reach[t][2] is not None and reach[t][2].dx_dt is not None:
                started.insert(k, t)
        return reach[t]

    points, meta = [], []
    last = -1  # last row known to qualify; qualifying rows only grow with rp
    # achieved-cell tuple of the best t so far, first the corner Q = sigma_x
    winner = (0.0, 0.0, s_max, math.expm1(-2.0 * ik_const), 0.0)

    def slack(u):
        # bound - F(t) at u = log(1 + t) / 2; a qualifying t is the best yet
        nonlocal winner
        rp_min, cell, _ = row_min(math.expm1(2.0 * u))
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
# slice, and ``linalg.inv_chol`` makes one ``dpotrs`` solve per slice: each
# slice matches the per-matrix helpers bit for bit, so stacked loops decide as
# per-point ones.

# Step sizes that the face polish's line search tests per stacked evaluation.
# The polish stops at the damping floor 2^-8, its ``POLISH_HALVINGS``-th trial:
# at 2^-7, a first step from the commuting-part optimum of ``bench_mx4_key2006``
# at rp 4 found no lower residual, where 2^-8 starts a walk that crosses to the
# face of the optimum (see ``_polish_face``).  Each halving below the floor lets
# walks that lead nowhere go on: at rates 8 and 12 on the probe's 52 models off
# the corpus, the polish evaluates 37,204, 45,114 and 51,776 residual rows with
# the floor at 2^-7, 2^-8 and 2^-9.
HALVINGS_PER_STACK = 4
POLISH_HALVINGS = 9

# Least weight of the ascent's penalty on the rate constraint: the ascent need
# only land near the boundary, as the polish solves the rate equation exactly.
PENALTY_RHO = 10.0

# How far past the whitened cap ``A <= I`` a face polish may walk (scale-free).
FACE_EXCURSION = 1e-2

def _frob_stack(a):
    flat = a.reshape(len(a), 1, -1)
    return np.sqrt((flat @ np.swapaxes(flat, -1, -2))[:, 0, 0])


def _rates_stack(m, sigma, ld_full):
    """The public and key rates ``(ip, ik)`` that ``rates_aligned`` gives
    for a stack of conditional covariances inside the matrix interval (see
    ``_pga_penalty``), given the log-dets ``ld_full`` of ``sigma_x`` plus 0,
    ``sigma_wz`` and ``sigma_wy``."""
    gx, gz, gy = (0.5 * (ld_full - linalg.logdet_chol(_chol_terms(m, sigma)))).T
    return gx - gy, gy - gz


def _commuting_part(w, swap):
    """``(V, dy, dz)``: the eigenbasis ``V`` of a whitened model's
    ``sigma_wy`` (``sigma_wz`` when ``swap``) and the noises' diagonals in
    it, the model's commuting part."""
    wy, wz = (w.sigma_wz, w.sigma_wy) if swap else (w.sigma_wy, w.sigma_wz)
    d_own, v = np.linalg.eigh(wy)
    d_other = np.einsum("ji,jk,ki->i", v, wz, v)
    return (v, d_other, d_own) if swap else (v, d_own, d_other)


def _commuting_start(w, rp, swap):
    """The optimum at ``rp`` of the commuting part of a whitened model ``w``
    (``_commuting_part``): parallel scalar sources that share one
    multiplier mu (the parallel-channel step of the enhancement argument),
    at ``q_i = min(1, mu dy dz / (dz - (1 + mu) dy))`` where
    ``dz > (1 + mu) dy``, else 1.  ``I_p`` falls as mu grows, to 0 at
    ``x_top = log max (dz - dy) / (dy (1 + dz))`` over ``dz > dy``, where
    every ``q_i`` reaches 1; the root in log mu on [-40, x_top] gives
    ``V diag(q) V^T`` at the last log mu within the budget (``I`` when no
    ``dz > dy``), each ``q_i`` clipped from below to the ascent's floor
    ``SIGMA_FLOOR_SCALE``: at high rates the root's ``q_i`` fall to 1e-15,
    which no conditional covariance may have, and raising ``q_i`` only
    lowers ``I_p``."""
    v, dy, dz = _commuting_part(w, swap)
    useful = dz > dy
    if not useful.any():
        return np.eye(w.mx)
    kept = []

    def excess(x):
        # I_p - rp at mu = e^x; keeps q when it is within the budget
        mu = math.exp(x)
        gap = dz - (1.0 + mu) * dy
        q, on = np.ones_like(dy), gap > 0.0
        q[on] = np.minimum(1.0, mu * dy[on] * dz[on] / gap[on])
        f = 0.5 * float(np.sum(np.log1p(dy / q) - np.log1p(dy))) - rp
        if f <= 0.0:
            kept.append(q)
        return f

    dy_u, dz_u = dy[useful], dz[useful]
    x_top = math.log(float(np.max((dz_u - dy_u) / (dy_u * (1.0 + dz_u)))))
    f_hi, f_lo = excess(x_top), excess(-40.0)
    if f_lo > 0.0 > f_hi:
        _anderson_bjorck(excess, -40.0, f_lo, x_top, f_hi, 1e-12)
    if not kept:
        return np.eye(w.mx)
    return linalg.symmetrize((v * np.maximum(kept[-1], SIGMA_FLOOR_SCALE)) @ v.T)


def _starts(w, rp, n_starts):
    """The first ``n_starts`` ascent starts on a whitened model: ``I``
    scaled by 1, 0.75, 0.5 and 0.25, then the two commuting-part optima."""
    starts = [f * np.eye(w.mx) for f in (1.0, 0.75, 0.5, 0.25)][:n_starts]
    return starts + [_commuting_start(w, rp, s) for s in (False, True)[:max(0, n_starts - 4)]]


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


def _pga_penalty(m, rp, q0, max_iter):
    """Projected gradient ascent on I_k - rho * max(0, I_p - rp), with
    ``rho = _penalty_weight(m)``, over ``0 < Q <= I`` of a whitened model
    (``models.whiten``), from each of a stack of starts ``q0`` alone.  The
    clip of the eigenvalues to ``[SIGMA_FLOOR_SCALE, 1]`` keeps every
    iterate in the interval that ``ConditionalCov`` checks, at any scale of
    the model, and every trial factors: the whitened noises pass
    ``validate_model``, so ``Q``, ``Q + sigma_wz`` and ``Q + sigma_wy`` have
    condition numbers below about 1.1e10.  The starts are evaluated as one
    stack, then a step's Armijo backtracking evaluates at most 30 step sizes
    ``eta 2^-j`` one by one and takes the first that passes.  A start ends
    when none passes, when a trial barely moves, when its gradient vanishes
    or after ``max_iter`` steps.  Returns ``(q, pair, iterations)`` per
    start, counting the ascent iterations it took."""
    ld_full = np.array([linalg.logdet_pd(m.sigma_x + w) for w in (0.0, m.sigma_wz, m.sigma_wy)])
    rho = _penalty_weight(m)

    def objective(q):
        ip, ik = _rates_stack(m, q, ld_full)
        return ik - rho * np.maximum(0.0, ip - rp), ip, ik

    q0 = linalg.eig_clip(np.asarray(q0, dtype=float), SIGMA_FLOOR_SCALE, 1.0)
    runs = []
    for q, val, ip, ik in zip(q0[:, None], *objective(q0)):
        eta, iterations = 0.1, 0
        for iterations in range(1, max_iter + 1):
            inv_s, inv_z, inv_y = linalg.inv_chol(_chol_terms(m, q))[0]
            grad_ik, grad_ip = 0.5 * (inv_z - inv_y), 0.5 * (inv_y - inv_s)
            grad = grad_ik if ip <= rp else grad_ik - rho * grad_ip
            if _frob_stack(grad[None])[0] < 1e-13:
                break
            accepted = False
            for _ in range(30):
                q_new = linalg.eig_clip(q + eta * grad, SIGMA_FLOOR_SCALE, 1.0)
                move = _frob_stack(q_new - q)[0]
                if move < 1e-14 * (1.0 + _frob_stack(q)[0]):
                    break
                val_new, ip_new, ik_new = (a[0] for a in objective(q_new))
                if val_new > val + 1e-4 / max(eta, 1e-12) * move * move:
                    q, val, ip, ik = q_new, val_new, ip_new, ik_new
                    eta, accepted = min(eta * 1.5, 10.0), True
                    break
                eta *= 0.5
            if not accepted:
                break
        runs.append((q[0], RatePair(rp=float(ip), rk=float(ik)), iterations))
    return runs


def _skew_generators(n, n_active, thetas):
    """Block-off-diagonal skew generators, one per row of ``thetas``, that
    mix the first ``n_active`` of ``n`` directions with the rest."""
    rows = np.repeat(np.arange(n_active), n - n_active)
    cols = np.tile(np.arange(n_active, n), n_active)
    gen = np.zeros((len(thetas), n, n))
    gen[:, rows, cols] = thetas
    gen[:, cols, rows] = -thetas
    return gen


class _FaceSystem:
    """The first-order system of ``_polish_face`` on one active face of a
    whitened model (``sigma_x = I``), for stacks of points.  ``u0`` holds
    eigendirections, largest first; the top ``n_active`` are pinned to the
    source covariance.  A point holds the free-block coordinates (in
    ``_basis(n_free)``), the angles of the rotation mixing active and free
    directions and log mu.
    """

    def __init__(self, m, rp, u0, n_active):
        self.m, self.rp, self.u0, self.n_active = m, rp, u0, n_active
        self.basis_f = _basis(m.mx - n_active)
        self.n_qf = len(self.basis_f)
        self.n_rot = n_active * (m.mx - n_active)
        self.ld_xy = linalg.logdet_pd(m.sigma_x + m.sigma_wy)

    def build(self, xs, rotations=None):
        """Conditional covariances, multipliers, rotated bases, free blocks;
        ``rotations``, when given, are the ``expm`` of the points' angles."""
        n_qf, n_rot, na = self.n_qf, self.n_rot, self.n_active
        q_f = np.einsum("pk,kab->pab", xs[:, :n_qf], self.basis_f)
        if n_rot:
            if rotations is None:
                rotations = sla.expm(_skew_generators(self.m.mx, na, xs[:, n_qf:-1]))
            u = self.u0 @ rotations
        else:
            u = np.broadcast_to(self.u0, (len(xs),) + self.u0.shape)
        u_a, u_f = u[:, :, :na], u[:, :, na:]
        sigma = linalg.symmetrize(u_a @ np.swapaxes(u_a, -1, -2)
                                  + u_f @ q_f @ np.swapaxes(u_f, -1, -2))
        # the multiplier lives on a log scale; clamp runaway probes so the
        # line search can back off instead of overflowing
        mu = np.array([math.exp(min(max(v, -700.0), 60.0)) for v in xs[:, -1]])
        return sigma, mu, u, q_f

    def residuals(self, xs):
        """Residual rows of points (free-block and cross-block components of
        the whitened stationarity matrix, then ``I_p - rp``) and a mask of
        the valid ones: those whose ``Q`` has its eigenvalues in
        ``(COND_COV_MIN_EIG, 1 + FACE_EXCURSION]``, above the interval gate's
        floor and short of an escape toward stationary points beyond the
        interval.  Such a ``Q`` factors as an ascent trial does (see
        ``_pga_penalty``).  The whole ``Q`` is tested, not its free block:
        the ``expm`` of angles of order 1e14, which a Newton step can
        reach, is far from orthogonal.  An invalid point's row is NaN.
        """
        sigma, mu, u, _ = self.build(xs)
        w = np.linalg.eigvalsh(sigma)
        valid = (w[:, 0] > COND_COV_MIN_EIG) & (w[:, -1] <= 1.0 + FACE_EXCURSION)
        rows = np.full((len(xs), self.n_qf + self.n_rot + 1), np.nan)
        if not valid.any():
            return rows, valid
        lower = _chol_terms(self.m, sigma[valid])
        m_w = kkt.stationarity_stack(linalg.inv_chol(lower), mu[valid])
        u = u[valid]  # views of it give each slice the strides of a 2-D basis
        u_a, u_f = u[:, :, :self.n_active], u[:, :, self.n_active:]
        u_ft = np.swapaxes(u_f, -1, -2)
        parts = [np.einsum("kab,pab->kp", u_ft @ m_w @ u_f, self.basis_f)]
        if self.n_rot:
            parts.append((np.swapaxes(u_a, -1, -2) @ m_w @ u_f).reshape(len(m_w), -1))
        lds = linalg.logdet_chol(lower[:, [0, 2]])
        ip = -0.5 * lds[:, 0] - 0.5 * (self.ld_xy - lds[:, 1])
        parts.append((ip - self.rp)[:, None])
        rows[valid] = np.concatenate(parts, axis=1)
        return rows, valid

    def jacobian(self, x):
        """The Jacobian of ``residuals`` at one valid point ``x``, in closed
        form in the same chart at ``u0``.  In the rotated basis ``U``, where
        ``U^T Q U = D = diag(I, q_f)`` and ``N = U^T M U``, a free coordinate
        moves ``D`` by its basis matrix on the free block, and an angle by
        ``F = K D - D K`` with ``K = e^{G^T} L``, ``L`` the Frechet derivative
        of ``expm`` at the generator ``G`` in the angle's direction ``E``:
        the top right block of ``expm([[G, E], [0, G]])`` (Al-Mohy & Higham
        2009), one stacked call for every angle.  A move ``F`` changes ``N``
        by ``-M(mu)`` of ``(P F P, Z F Z, Y F Y)``, the rotated inverses of
        ``Q``, ``Q + sigma_wz`` and ``Q + sigma_wy`` (plus ``N K - K N`` for an
        angle) and ``I_p`` by ``tr((Y - P) F) / 2``; log mu changes ``N`` by
        ``mu (P - Y)``."""
        n_qf, n_rot, na, n = self.n_qf, self.n_rot, self.n_active, self.m.mx
        if n_rot:
            block = np.zeros((n_rot, 2 * n, 2 * n))
            block[:, :n, :n] = block[:, n:, n:] = _skew_generators(n, na, x[None, n_qf:-1])
            block[:, :n, n:] = _skew_generators(n, na, np.eye(n_rot))
            big = sla.expm(block)
        (sigma,), (mu,), (u,), (q_f,) = self.build(x[None], big[:1, :n, :n] if n_rot else None)
        inv = u.T @ linalg.inv_chol(_chol_terms(self.m, sigma[None]))[0] @ u
        f = np.zeros((n_qf + n_rot, n, n))
        f[:n_qf, na:, na:] = self.basis_f
        if n_rot:
            k = np.swapaxes(big[:, :n, :n], -1, -2) @ big[:, :n, n:]
            d = np.eye(n)
            d[na:, na:] = q_f
            f[n_qf:] = k @ d - d @ k
        dn = -kkt.stationarity_stack(inv @ f[:, None] @ inv, mu)
        if n_rot:
            n_mat = kkt.stationarity_stack(inv, mu)
            dn[n_qf:] += n_mat @ k - k @ n_mat
        dn = np.concatenate((dn, mu * (inv[None, 0] - inv[None, 2])))
        cols = [np.einsum("kab,pab->pk", dn[:, na:, na:], self.basis_f)]
        if n_rot:
            cols.append(dn[:, :na, na:].reshape(len(dn), -1).T)
        rate = 0.5 * np.einsum("ab,kab->k", inv[2] - inv[0], f)
        cols.append(np.append(rate, 0.0)[None])
        return np.concatenate(cols)


def _polish_face(m, rp, q_hat, mu_hint, n_active):
    """Newton solve of the first-order system on a prescribed active face,
    with the rate constraint binding.

    On a whitened model (``sigma_x = I``), the top ``n_active``
    eigendirections of the candidate ``q_hat`` are pinned to the source
    covariance.  Unknowns: the free-block coordinates, the rotation mixing
    active and free subspaces, and log mu.  Residuals: the free-block and
    cross-block components of the stationarity matrix, plus the rate
    equality (see ``_FaceSystem``).

    A Newton step takes the closed-form Jacobian at its point
    (``_FaceSystem.jacobian``, in the fixed chart at ``u0``) and one to
    three stacked residual evaluations.  The line search takes the first valid
    one of the halvings ``x + 0.5^j step``, ``j < POLISH_HALVINGS``, that
    lowers the max-norm residual (halving is exact, so these are a
    sequential search's trials), ``HALVINGS_PER_STACK`` per stacked
    evaluation; when none does, the polish stops, as it does after 80 steps
    or below 1e-12.

    A step that lifts a free eigenvalue above 1 has left the interval
    through a free direction, which belongs to the face: at the optimum each
    direction pinned at 1 carries a PSD block of ``M(mu)`` (the enhancement
    argument).  The polish then goes on, in place of that step, on face
    ``n_active + 1`` from the iterate before it, which lies inside the
    interval, with its ``Q`` and mu: the directions it pins are that
    iterate's top ``n_active + 1`` eigendirections, the pinned ones and its
    largest free one.  So a polish started on a face too low climbs to the
    face of the optimum instead of walking past the cap until it stalls.

    Returns (q, mu, residual_norm), or None for an invalid start;
    ``solve_at_rate``'s gate checks the result's interval.
    """
    w, u0 = np.linalg.eigh(q_hat)
    u0 = u0[:, np.argsort(w)[::-1]]
    if n_active == m.mx:
        return np.array(m.sigma_x), mu_hint, 0.0
    face = _FaceSystem(m, rp, u0, n_active)
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
        jac = face.jacobian(x)
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
        x_new = trials[lo + better[0]]
        if np.linalg.eigvalsh(np.tensordot(x_new[:face.n_qf], face.basis_f, 1))[-1] > 1.0:
            (sigma,), (mu,), _, _ = face.build(x[None])
            return _polish_face(m, rp, sigma, float(mu), n_active + 1)
        x, r = x_new, rows[better[0]]
    (sigma,), (mu,), _, _ = face.build(x[None])
    return sigma, float(mu), float(np.max(np.abs(r)))


def _face_schedule(n_active_guess, mx):
    """Candidates ``(n_active, factor)`` of the face polish of an end point,
    in the order ``_polish_end`` tries them.

    The detected face ``g`` (which may be ``mx``) and ``g + 1`` when it is
    below ``mx``, at the multiplier factor 1, then 2; then ``g`` at 4; then
    ``g - 1``.  A polish climbs to a higher face by itself when a free
    eigenvalue crosses 1 (``_polish_face``), so over the benchmark's and the
    probe's solves, at rates up to 16, no candidate passed on a face above
    ``g + 1``.  A homotopy step's optimum can lose a pinned direction, which
    ``g - 1`` covers."""
    g = n_active_guess
    faces = [g, *range(g + 1, min(g + 2, mx))]
    return ([(k, f) for f in (1.0, 2.0) for k in faces] + [(g, 4.0)]
            + ([(g - 1, 1.0)] if g else []))


def _composite(w, rp, q, ip=None):
    """The multiplier test of ``kkt.recover_multipliers`` at ``q`` on a
    whitened model, whose public rate ``ip`` is computed when not given: the
    composite at mu = 0 when the rate is slack, else at
    ``kkt.closed_form_mu``; ``inf`` when ``q`` or its multiplier is
    refused."""
    try:
        ip = rates_aligned(w, q).rp if ip is None else ip
        mu = 0.0 if kkt.rate_is_slack(rp, ip) else kkt.closed_form_mu(w, q)
        return kkt.multiplier_composite(w, q, mu)[0]
    except GausskeyError:
        return math.inf


def _end_point(w, rp, q, rk):
    """A point to polish: ``(q, rk, mu_hint, n_active)``, with its multiplier
    hint (``kkt.closed_form_mu``, clipped to [1e-8, 1e4]) and detected face:
    the eigenvalues within ``min(1e-4, rp)`` of 1.  A budget ``rp`` moves a
    free eigenvalue off 1 by about that much, so below 1e-4 a fixed
    threshold would count it as active."""
    return (q, rk, min(max(kkt.closed_form_mu(w, q), 1e-8), 1e4),
            int(np.sum(np.linalg.eigvalsh(q) >= 1.0 - min(1e-4, rp))))


def _polished(w, rp, q_end, rk_end, mu_hint, n_active):
    """``(q, rk, composite, passed)`` of the face polish of an end point when
    ``rates_aligned`` takes it and it keeps the budget and the end point's
    key rate, else None; ``composite`` is None unless the face system is
    solved below 1e-8.  A system solved on a wrong face leaves a point with
    no multiplier that makes the stationarity matrix PSD."""
    cand = _polish_face(w, rp, q_end, mu_hint, n_active)
    if cand is None:
        return None
    try:
        pair = rates_aligned(w, cand[0])
    except ModelValidationError:
        return None
    if not (pair.rp <= rp + 1e-7 and pair.rk >= rk_end - 1e-7):
        return None
    comp = _composite(w, rp, cand[0], pair.rp) if cand[2] < 1e-8 else None
    return cand[0], pair.rk, comp, comp is not None and comp <= kkt.ACCEPT_COMPOSITE


def _polish_end(w, rp, q, rk):
    """The face polish of an end point ``q`` of key rate ``rk`` on a
    whitened model (``_end_point``), over the candidates of
    ``_face_schedule``: the first ``_polished`` candidate that passes the
    gate, else the one with the highest key rate, else None."""
    q, rk, mu_hint, g = _end_point(w, rp, q, rk)
    kept = []
    for n_active, factor in _face_schedule(g, w.mx):
        cand = _polished(w, rp, q, rk, factor * mu_hint, n_active)
        if cand and cand[3]:
            return cand
        if cand:
            kept.append(cand)
    return max(kept, key=lambda cand: cand[1], default=None)


# Step counts of the homotopy from the commuting part: the finer grid takes
# over from the last t that passed when a step of the coarser one fails.
HOMOTOPY_STEPS = (3, 20)


def _homotopy(w, rp, start):
    """The optimum of a whitened model ``w`` at ``rp`` by continuation from
    its commuting part (Allgower & Georg 1990), or None.

    With ``(V, dy, dz) = _commuting_part(w, False)``, the path keeps
    ``sigma_wy`` and moves ``sigma_wz(t) = (1 - t) V diag(dz) V^T + t
    sigma_wz`` from ``t = 0``, where ``start = _commuting_start(w, rp,
    False)`` is the optimum, to the model at ``t = 1``.  The budget depends
    on ``sigma_wy`` alone, so every step's start keeps it.  Each step
    polishes the last optimum on the model at ``t`` (``_polish_end``), on
    the grid ``k / n`` for the first ``n`` of ``HOMOTOPY_STEPS``.  A step
    whose candidates pass no gate, or that raises a ``GausskeyError``, hands
    over to the next grid, which goes on from the last ``t`` that passed;
    when the last grid fails too, None.  Returns the candidate at ``t = 1``.
    No ``dz > dy``: the start is the corner ``I``, where the path stays, so
    there is no path."""
    v, dy, dz = _commuting_part(w, False)
    if not np.any(dz > dy):
        return None
    commuting = (v * dz) @ v.T
    q, t_passed = start, 0.0
    for n in HOMOTOPY_STEPS:
        for t in np.arange(1, n + 1) / n:
            if t <= t_passed:
                continue
            w_t = w if t == 1.0 else AlignedModel(
                w.sigma_x, w.sigma_wy,
                linalg.symmetrize((1.0 - t) * commuting + t * w.sigma_wz))
            try:
                cand = _polish_end(w_t, rp, q, rates_aligned(w_t, q).rk)
            except GausskeyError:
                cand = None
            if not (cand and cand[3]):
                break
            q, t_passed = cand[0], t
        else:
            return cand
    return None


def solve_at_rate(m: AlignedModel, rp: float, *, n_starts: int = 6,
                  max_iter: int = 400) -> SolveReport:
    """Maximize the key rate of an aligned model at public-rate budget ``rp``.

    The model is whitened once (``models.whiten``): ascent, polish and gate
    run on ``sigma_x = I``, so every floor and tolerance is relative to
    ``sigma_x``, and the optimum is mapped back once as ``S Q S``.

    A Newton polish of the stationarity system on an active face
    (``_polish_face``), with the rate binding, starts from an end point with
    its own multiplier hint, detected face and key rate to keep
    (``_end_point``).  A polish step that lifts a free eigenvalue above 1
    pins that direction: the polish goes on on the next face from the
    iterate before the step, so a candidate's face is only the one it
    starts on, and a polish started below the optimum's face climbs to it.
    The routes, in order:

    1. the optima of the model's two commuting parts (``_commuting_start``),
       each polished on its detected face at factor 1 (on the corner face
       ``n_active = mx`` the polish returns ``sigma_x``, which the gate
       judges at mu = 0), the second formed only when the first fails; a
       ``GausskeyError`` here moves the solve on;
    2. the homotopy from the first commuting-part optimum to the model
       (``_homotopy``);
    3. the fallback, which ``n_starts`` and ``max_iter`` alone size:
       projected gradient ascent with an exact penalty, its weight above
       every multiplier of the model (``_penalty_weight``), from the first
       ``n_starts`` (1 to 6) of ``_starts``, for at most ``max_iter`` steps
       each (0 skips the ascent).  The end point in budget with the highest
       key rate is polished like a homotopy step (``_polish_end``).  Over
       the probe's and the benchmark's solves, every one that this route
       certified passed on that end point's first candidate.
    The first two return a candidate that passes the gate below with
    ``iterations = 0``.  One gate decides every polished candidate:
    ``rates_aligned`` takes it, it keeps the budget and its end point's key
    rate, its face system is solved below 1e-8, and its multiplier
    composite (``_composite``: the test of ``kkt.recover_multipliers``, at
    mu = 0 when the rate is slack and at ``kkt.closed_form_mu`` when it
    binds) is at most ``kkt.ACCEPT_COMPOSITE``.  A point with a valid
    multiplier is optimal whatever candidate produced it (the enhancement
    argument), so the first candidate to pass is returned converged; a
    point solved on a wrong face has none.  When none passes, the candidate
    in budget with the highest key rate, the commuting-part ones included,
    is returned unconverged, or the best ascent point.  The returned
    ``S Q S`` is not re-tested in the model's frame: ``Q`` passed the
    interval test in the whitened frame, or is an ascent point clipped into
    it, while ``S Q S`` carries round-off of about ``eps cond(sigma_x)``
    there.  It is formed in long double and rounded once
    (``linalg.congruence_rounded``): the floor stays, and so does the
    re-test's own round-off, but the product's cancellation adds little to
    them, so more answers with directions pinned at 1 pass ``certify``'s
    re-test in the model's frame.
    ``kkt_residual`` is, in the whitened frame, the multiplier composite at
    the returned point, converged or not.  ``iterations`` counts the ascent
    iterations taken, over every start.  Raises ``MaxIterationsExceeded``
    when the fallback runs and no start ends within 1e-6 of the budget.
    Heuristic for the nonconvex general case: certify the output through
    the KKT machinery before trusting it.
    """
    validate_model(m)
    if not rp >= 0.0:
        raise ValueError(f"rp must be nonnegative, got {rp!r}")
    n_starts, max_iter = _count("n_starts", n_starts), _count("max_iter", max_iter)
    if not 1 <= n_starts <= 6:
        raise ValueError(f"n_starts must be 1 to 6, got {n_starts!r}")
    if not max_iter >= 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    if rp <= 1e-12:
        sigma = np.array(m.sigma_x)
        return SolveReport(optimum=ConditionalCov.for_model(m, sigma),
                           value=rates_aligned(m, sigma).rk, iterations=0,
                           kkt_residual=0.0, converged=True)

    w, s_half, _ = whiten(m)

    def report(q, rk, res, converged, iterations):
        return SolveReport(optimum=ConditionalCov(linalg.congruence_rounded(s_half, q)),
                           value=rk, iterations=iterations, converged=converged,
                           kkt_residual=float(_composite(w, rp, q) if res is None else res))

    # the commuting-part optima first, each on its detected face, the second
    # formed only when the first fails; then the path from the first
    start, pool = _commuting_start(w, rp, False), []
    try:
        for swap in (False, True):
            q0 = _commuting_start(w, rp, True) if swap else start
            cand = _polished(w, rp, *_end_point(w, rp, q0, rates_aligned(w, q0).rk))
            if cand and cand[3]:
                return report(*cand, 0)
            if cand:
                pool.append(cand)
    except GausskeyError:
        pass
    if cand := _homotopy(w, rp, start):
        return report(*cand, 0)

    runs = _pga_penalty(w, rp, np.array(_starts(w, rp, n_starts)), max_iter)
    iterations = sum(run[2] for run in runs)
    ends = [run[:2] for run in runs if run[1].rp <= rp + 1e-6]
    if not ends:
        raise MaxIterationsExceeded("no penalty run produced a feasible point")

    # polish the best end point, else keep the best candidate in budget
    q_end, pair = max(ends, key=lambda end: end[1].rk)
    cand = _polish_end(w, rp, q_end, pair.rk)
    if cand and cand[3]:
        return report(*cand, iterations)
    best = max([(q_end, pair.rk, None, False), *pool, *([cand] if cand else [])],
               key=lambda c: c[1])
    return report(*best, iterations)


def ascent_boundary(m: AlignedModel, rp_grid) -> RegionBoundary:
    """Boundary of an aligned model's rate region, point by point.

    Each grid point is solved with ``solve_at_rate`` (the commuting-part
    polish, the homotopy from it, and the penalised ascent only when both
    fail) and validated end to end through the KKT/enhancement pipeline;
    the point's ``kkt_residual`` is the maximum certificate residual
    (``inf`` when the certificate raises), and points whose certificate
    fails the 1e-6 gate are reported with it so downstream code can reject
    them.  Key rates are clamped at zero and made monotone by running
    maximum, matching the region's closure under discarding communication.
    """
    validate_model(m)
    rp_grid = _rate_grid(rp_grid)

    points = []
    meta = []
    best_rk = 0.0
    for rp in rp_grid:
        report = solve_at_rate(m, rp)
        try:
            residual = kkt.certify(m, report.optimum, rp).max_residual
        except GausskeyError:
            residual = float("inf")
        best_rk = max(best_rk, report.value, 0.0)
        points.append(RatePair(rp=rp, rk=best_rk))
        meta.append(PointMeta(s=None, t=None, kkt_residual=float(residual)))
    return RegionBoundary(points=tuple(points), model_digest=model_digest(m),
                          solver_meta=tuple(meta))


def contains(m, p: RatePair, tol: float, *, boundary: RegionBoundary | None = None) -> bool:
    """Region membership: is the pair within ``tol`` of achievable?

    True iff the computed boundary at ``p.rp`` reaches ``p.rk - tol``.  A
    precomputed ``boundary`` for the same model, at any sweep resolution,
    may be supplied to avoid re-running the solver (it is trusted as-is);
    otherwise ``_boundary`` computes it at the single grid point ``p.rp``.
    """
    if p.rk <= tol:
        return True
    if boundary is None:
        boundary = _boundary(m, [p.rp])
    return boundary.rk_at(p.rp) >= p.rk - tol


def _boundary(m, rp_grid, *, st_resolution: int = 200) -> RegionBoundary:
    """The sweep for a general model with scalar observations, else the
    ascent on ``to_aligned(m)``."""
    if isinstance(m, GeneralModel) and m.my == 1 and m.mz == 1:
        return sweep_boundary(m, rp_grid, st_resolution=st_resolution)
    return ascent_boundary(to_aligned(m), rp_grid)
