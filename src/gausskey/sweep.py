"""The (s, t) sweep: the boundary R_k(R_p) of a general model with scalar
observations.

``sweep_boundary`` rewrites the boundary search with two scalar sweep
parameters: ``s`` caps the observed signal power ``b Q b^T`` and ``t``
lower-bounds the achieved ratio ``(e Q e^T - b Q b^T) / (b Q b^T + 1)``.
For fixed (s, t) the remaining problem -- maximize log|Q| subject to two
linear constraints and ``0 < Q <= sigma_x`` -- is convex.  After whitening
by ``sigma_x^1/2`` the constraints see only the compression of the
whitened matrix to the span of the whitened ``b`` and ``e``, so every cell
is a 2x2 problem whatever the source dimension (Fischer's inequality fixes
the rest at the identity); ``inner_convex`` solves it by a logarithmic-barrier
Newton method, and its cost does not grow with mx.  Each barrier stage
starts from the central path's tangent prediction of its centre, and
Newton's method centres it to the same tests as from the last centre, so
the prediction saves steps, not accuracy.  Every cell of a ``t`` row has
the same key rate, rising with ``t``, and the row's smallest public rate
(``_row_min_rp``, a search over s) is nondecreasing in ``t``; a monotone
search over ``t`` rows, refined by a root find on ``F(t) = rp``, yields the
boundary.  The ratio form ``e e^T - (1 + t) b b^T`` has at most one positive
eigenvalue, so the range of ``t`` (``_t_range``) and each row's feasible
``s`` (``_row_edge``) are closed forms, and no search probes an empty cell.

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
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import Infeasible, MaxIterationsExceeded, SolverFailure
from .modelio import model_digest
from .models import ConditionalCov, GeneralModel, _count, validate_model
from .rates import PointMeta, RatePair, RegionBoundary, SolveReport, _rate_grid

BARRIER_GAP_TOL = 1e-8
NEWTON_DECREMENT_TOL = 1e-10

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


def _scalar_model(m):
    """Whether the sweep takes ``m``: a general model with scalar
    observations (my = mz = 1)."""
    return isinstance(m, GeneralModel) and m.my == 1 and m.mz == 1


def _anderson_bjorck(f, x_lo, f_lo, x_hi, f_hi, tol, margin=0.0):
    """Shrink a bracket ``x_lo < x_hi`` with ``f(x_lo) >= 0 > f(x_hi)`` to
    at most ``tol`` by secant steps, scaling down the value of an end kept
    twice in a row (the Illinois method with Anderson and Bjorck's factor).
    While ``f(x_hi)`` is ``-inf`` it bisects.  A secant step lands at least
    ``margin`` inside, so a search converging from one side still closes.
    ``f`` returns None to end the search; the caller keeps what it needs
    from the points ``f`` sees: the sweep's row minima and ``t*``."""
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
    s_half, s_half_inv = m._roots
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
    if not _scalar_model(m):
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
        stats={},
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
    if not _scalar_model(m):
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
