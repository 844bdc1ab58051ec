"""The aligned route to the boundary R_k(R_p), and the choice of route.

``ascent_boundary``
    For aligned models of any dimension.  The model is whitened once, to
    ``sigma_x = I`` (a congruence, which keeps both rates), so every floor
    and tolerance is relative.  On ``0 < A <= I`` a Newton solve of the
    first-order optimality system on a detected active face polishes the
    optimum of the model's commuting part.  When that has no valid KKT
    multiplier, a path in the budget runs from the corner, polishing the
    last optimum at each higher rate; only when that fails does a
    projected gradient ascent with an exact penalty on the rate constraint
    run from several starts, its best end point polished alike.
    The general problem is nonconvex, so this route is a heuristic: every
    returned point is either certified through the KKT machinery or flagged
    unconverged.

``_boundary`` hands a general model with scalar observations to the
``(s, t)`` sweep of ``sweep`` and any other model, through ``to_aligned``,
to the ascent.  The sweep's ``sweep_boundary``, ``inner_convex`` and
``SweepParams``, and the brute-force oracle ``brute_force_grid`` of
``oracle``, are re-imported here.
"""

import functools
import math
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np

from . import kkt, linalg
from .errors import GausskeyError, MaxIterationsExceeded, ModelValidationError
from .modelio import model_digest
from .models import (
    COND_COV_MIN_EIG,
    AlignedModel,
    ConditionalCov,
    _budget,
    _count,
    from_white,
    to_aligned,
    validate_model,
    whiten,
)
from .oracle import brute_force_grid  # noqa: F401  (re-exported)
from .rates import (PointMeta, RatePair, RegionBoundary, SolveReport, _chol_terms,
                    _logdet_rates, _point, _rate_grid, rates_aligned)
from .sweep import (SweepParams, _scalar_model, inner_convex,  # noqa: F401  (re-exported)
                    sweep_boundary)

# The face polish's rotations ``e^G``, called through this name, which
# ``perfbench/spans.py`` traces: ``linalg.skew_expm``, on numpy alone.
sla = SimpleNamespace(expm=linalg.skew_expm)
SIGMA_FLOOR_SCALE = 1e-9
_PHASES = ("commuting_part_cpu_s", "path_cpu_s", "ascent_cpu_s")  # stats: each phase's CPU s
_STATS = ("route", "polish_calls", "residual_calls", "residual_rows", "invalid_rows", "jacobians",
          "expm_calls", "path_steps", "path_failed_steps", "face_tries", "face_passes", "drop_tries",
          "drop_passes", "ascent_rate_calls", "ascent_matrices", *_PHASES)


@functools.cache
def _basis(n):
    """Basis of the symmetric n x n matrices: ``E_ii``, and ``E_ij + E_ji``
    for i < j, in row order."""
    e = np.eye(n)
    return np.array([np.outer(e[i], e[j]) + (i != j) * np.outer(e[j], e[i])
                     for i in range(n) for j in range(i, n)])


# ---------------------------------------------------------------------------
# projected-gradient ascent for aligned models
# ---------------------------------------------------------------------------

# The aligned route evaluates its small matrices as stacks: stacked eigh,
# Cholesky, inverse and matmul make a per-matrix call's LAPACK/BLAS
# calls slice by slice, so stacked loops decide as per-point ones.

# Step sizes that the face polish's line search tests per stacked evaluation
# after the full step, which it tests alone: 249 of the 336 steps that the
# benchmark's 36 solves take are full ones.  The polish stops at the damping
# floor 2^-8, its ``POLISH_HALVINGS``-th trial: at 2^-7, a first step from the
# commuting-part optimum of ``bench_mx4_key2006`` at rp 4 found no lower
# residual, where 2^-8 starts a walk that crosses to the face of the optimum
# (see ``_polish_face``).  Each halving below the floor lets
# walks that lead nowhere go on: at rates 8 and 12 on the probe's 52 models off
# the corpus, the polish evaluates 37,204, 45,114 and 51,776 residual rows with
# the floor at 2^-7, 2^-8 and 2^-9.
HALVINGS_PER_STACK = 4
POLISH_HALVINGS = 9

# Least weight of the ascent's penalty on the rate constraint: the ascent need
# only land near the boundary, as the polish solves the rate equation exactly.
PENALTY_RHO = 10.0

# How far past the whitened cap ``A <= I`` a face polish may walk (scale-free),
# and how far from orthogonal a face point's rotation ``e^G`` may be.
FACE_EXCURSION = 1e-2
FACE_ORTHO_TOL = 1e-10

def _frob_stack(a):
    flat = a.reshape(len(a), 1, -1)
    return np.sqrt((flat @ np.swapaxes(flat, -1, -2))[:, 0, 0])


def _rates_stack(m, sigma, ld_full):
    """The public and key rates ``(ip, ik)`` that ``rates_aligned`` gives
    for a stack of conditional covariances inside the matrix interval (see
    ``_pga_penalty``), given the log-dets ``ld_full`` of ``sigma_x`` plus 0,
    ``sigma_wz`` and ``sigma_wy``."""
    return _logdet_rates(ld_full, linalg.logdet_chol(_chol_terms(m, sigma)))


def _commuting_part(w, swap):
    """``(V, dy, dz)``: the eigenbasis ``V`` of a whitened model's
    ``sigma_wy`` (``sigma_wz`` when ``swap``) and the noises' diagonals in
    it, the model's commuting part."""
    wy, wz = (w.sigma_wz, w.sigma_wy) if swap else (w.sigma_wy, w.sigma_wz)
    d_own, v = np.linalg.eigh(wy)
    d_other = np.einsum("ji,jk,ki->i", v, wz, v)
    return (v, d_other, d_own) if swap else (v, d_own, d_other)


def _commuting_q(dy, dz, rp):
    """The optimum ``q`` at ``rp`` of parallel scalar sources with noises
    ``dy``, ``dz`` and one shared multiplier mu (a whitened model's commuting
    part; the parallel-channel step of the enhancement argument), None when
    no ``dz > dy``.  ``q_i = min(1, mu dy dz / (dz - (1 + mu) dy))`` is below
    1 for ``mu < mu_i = (dz - dy) / (dy (1 + dz))``, where ``1 + dy / q_i =
    (1 + mu)(dz - dy) / (mu dz)``: over the ``k`` such, ``I_p(mu) = k/2
    log((1 + mu) / mu) + 1/2 sum c_i``, ``c_i = log((dz - dy) / (dz (1 +
    dy)))``, falling in mu, so ``I_p = rp`` is closed form on each piece
    between the sorted ``mu_i``; the first piece from the top whose root
    lies above its next ``mu_i`` holds it.  Mu is floored at e^-40 and
    raised by 1e-12 relative while round-off puts ``I_p`` over ``rp``; at
    high rates the ``q_i`` fall to about 1e-15, which ``rates_aligned``
    refuses."""
    useful = dz > dy
    if not useful.any():
        return None
    dy_u, dz_u = dy[useful], dz[useful]
    pieces = sorted(zip(((dz_u - dy_u) / (dy_u * (1.0 + dz_u))).tolist(),
                        np.log((dz_u - dy_u) / (dz_u * (1.0 + dy_u))).tolist()), reverse=True)
    for k in range(1, len(pieces) + 1):
        ell = (2.0 * rp - sum(c for _, c in pieces[:k])) / k  # log((1 + mu) / mu)
        mu = 1.0 / math.expm1(ell) if ell < 50.0 else 0.0  # past 50, below the floor
        if k == len(pieces) or mu >= pieces[k][0]:
            break
    mu = max(mu, math.exp(-40.0))
    for _ in range(4):
        gap = dz - (1.0 + mu) * dy
        q, on = np.ones_like(dy), gap > 0.0
        q[on] = np.minimum(1.0, mu * dy[on] * dz[on] / gap[on])
        if 0.5 * float(np.sum(np.log1p(dy / q) - np.log1p(dy))) <= rp:
            return q
        mu *= 1.0 + 1e-12
    return None


def _commuting_start(w, rp, swap):
    """``V diag(q) V^T`` at the commuting part's optimum (``_commuting_q``), else ``I``."""
    v, dy, dz = _commuting_part(w, swap)
    q = _commuting_q(dy, dz, rp)
    return np.eye(w.mx) if q is None else linalg.symmetrize((v * q) @ v.T)


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


def _pga_penalty(m, rp, q0, max_iter, stats):
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
    start, counting the ascent iterations it took (its work in ``stats``)."""
    ld_full = np.array(m._logdets)
    rho = _penalty_weight(m)

    def objective(q):
        stats.update(ascent_rate_calls=1, ascent_matrices=len(q))
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


class _FaceSystem:
    """The first-order system of ``_polish_face`` on one active face of a
    whitened model (``sigma_x = I``), for stacks of points, in a chart
    centred at the polish's iterate.  ``u0`` holds eigendirections, largest
    first; the top ``n_active`` are pinned to the source covariance.  A
    point holds the free-block coordinates (in ``_basis(n_free)``), the
    angles of the rotation mixing active and free directions and log mu.  At
    the angles' generator ``G``, ``Q = U D U^T`` with ``U = u0 e^G`` and ``D
    = diag(I, q_f)``.  The system lives in that rotated frame: ``w0`` holds
    ``u0^T W u0`` for ``W = 0, Wz, Wy``, ``W~ = e^{G^T} w0 e^G``
    symmetrized, and ``N = U^T M(mu) U`` is ``M(mu)`` of ``D + W~``, whose
    log-dets are those of ``Q + W``.  ``e^G`` comes from ``exp``.
    ``centre`` moves the chart to a valid point (Absil, Mahony & Sepulchre
    2008, ch. 6), so the polish takes every Jacobian at ``G = 0``."""

    def __init__(self, m, rp, u0, n_active, stats):
        self.m, self.rp, self.u0, self.n_active, self.stats = m, rp, u0, n_active, stats
        n = m.mx
        self.basis_f = _basis(n - n_active)
        self.n_qf = len(self.basis_f)
        self.n_rot = n_active * (n - n_active)
        self.ld_full = m._logdets
        self.w0 = linalg.symmetrize(u0.T @ np.stack((0 * m.sigma_wz, m.sigma_wz, m.sigma_wy)) @ u0)
        self.basis_d = np.pad(self.basis_f, ((0, 0), (n_active, 0), (n_active, 0)))
        self.eye_a = np.diag(np.arange(n) < n_active) * 1.0
        self.gen_at = (np.repeat(np.arange(n_active), n - n_active),
                       np.tile(np.arange(n_active, n), n_active))
        self.units = self.skew(np.eye(self.n_rot))

    def skew(self, thetas):
        """Block-off-diagonal skew generators, one per row of ``thetas``, that
        mix the active directions with the free ones."""
        rows, cols = self.gen_at
        gen = np.zeros((len(thetas), self.m.mx, self.m.mx))
        gen[:, rows, cols] = thetas
        gen[:, cols, rows] = -thetas
        return gen

    def exp(self, xs):
        """``e^G`` for the points' generators ``G``, one stacked call."""
        self.stats["expm_calls"] += 1
        return sla.expm(self.skew(xs[:, self.n_qf:-1]))

    @staticmethod
    def mu(xs):  # log mu clamped, so the line search backs off runaway probes
        return np.exp(np.clip(xs[:, -1], -700.0, 60.0))

    def centre(self, kept):
        """Move the chart's centre to a valid point from what its residual
        call kept (``kept``): ``u0 <- u0 e^G`` and ``w0 <- W~``, the kept
        rotated noises; returns the point's coordinates in the new chart,
        its angles 0.  ``e^0`` is ``I`` exactly, so a residual call at the
        centre keeps the point's ``D``, factors and ``N`` bit for bit."""
        x, e, *_, w_t, _ = kept
        x = x.copy()
        if self.n_rot:
            self.u0, self.w0 = self.u0 @ e, w_t
            x[self.n_qf:-1] = 0.0
        return x

    def point(self, kept):
        """``(Q, mu)`` at the chart's centre from what its residual call kept
        (``kept``): ``Q = u_a u_a^T + u_f q_f u_f^T`` over ``u0``'s active
        and free columns, with ``q_f`` the free block of the kept ``D``."""
        _, _, d, *_, mu, _, _ = kept
        na = self.n_active
        u_a, u_f = self.u0[:, :na], self.u0[:, na:]
        return linalg.symmetrize(u_a @ u_a.T + u_f @ d[na:, na:] @ u_f.T), mu

    def residuals(self, xs):
        """Residual rows of points (free-block and cross-block components of
        ``N``, then ``I_p - rp``) and a mask of the valid ones: ``q_f`` has
        its eigenvalues in ``(COND_COV_MIN_EIG, 1 + FACE_EXCURSION]`` (the
        interval gate's floor; short of an escape beyond the interval),
        tested before any ``expm``, and ``e^G`` is orthogonal to
        ``FACE_ORTHO_TOL``, unlike the ``expm`` of angles of order 1e14,
        which a Newton step can reach.  The valid ``D``, ``D + W~z`` and ``D
        + W~y`` take one stacked Cholesky (``log|D|``, ``log|D + W~y|``) and
        one stacked inverse of its factors; invalid rows are NaN.
        ``kept[i]`` holds what ``jacobian`` and ``centre`` need of
        ``xs[i]``: its coordinates, ``e^G``, ``D``, the inverses, ``N``, mu,
        ``W~`` and its free eigenvalues; None when invalid."""
        n_qf, n_rot, na, n = self.n_qf, self.n_rot, self.n_active, self.m.mx
        d = self.eye_a + np.einsum("pk,kab->pab", xs[:, :n_qf], self.basis_d)
        lam = np.linalg.eigvalsh(d[:, na:, na:])
        valid = (lam[:, 0] > COND_COV_MIN_EIG) & (lam[:, -1] <= 1.0 + FACE_EXCURSION)
        rows, self.kept = np.full((len(xs), n_qf + n_rot + 1), np.nan), [None] * len(xs)
        at, e, w_t = np.flatnonzero(valid), [None] * len(xs), self.w0[None]
        if n_rot and at.size:
            e = self.exp(xs[at])
            err = np.abs(np.swapaxes(e, -1, -2) @ e - np.eye(n)).reshape(at.size, -1)
            valid[at] = err.max(axis=1) <= FACE_ORTHO_TOL  # False on NaN too
            e, at = e[valid[at]], np.flatnonzero(valid)
            w_t = linalg.symmetrize(np.swapaxes(e[:, None], -1, -2) @ self.w0 @ e[:, None])
        self.stats.update(residual_calls=1, residual_rows=len(xs), invalid_rows=len(xs) - at.size)
        if not at.size:
            return rows, valid
        lower = linalg.chol_lower(d[at, None] + w_t, "D, D + W~z or D + W~y")
        lds, inv = linalg.logdet_chol(lower), linalg.inv_chol(lower)
        mu, ip = self.mu(xs[at]), _logdet_rates(self.ld_full, lds)[0]
        n_mat = kkt.stationarity_stack(inv, mu)
        rows[at] = np.concatenate((np.einsum("kab,pab->kp", n_mat[:, na:, na:], self.basis_f),
                                   n_mat[:, :na, na:].reshape(at.size, -1),
                                   (ip - self.rp)[:, None]), axis=1)
        for j, i in enumerate(at):
            self.kept[i] = (xs[i], e[j], d[i], inv[j], n_mat[j], mu[j], w_t[j if n_rot else 0],
                            lam[i])
        return rows, valid

    def jacobian(self, kept):
        """The Jacobian of ``residuals`` at the chart's centre (``G = 0``), in
        closed form from what the call that evaluated it kept (``kept``):
        ``D``, ``N`` and the rotated inverses ``(P, Z, Y)`` of ``D``, ``D +
        W~z`` and ``D + W~y``, taken as they are.  A free coordinate moves
        ``D`` by its basis matrix on the free block, an angle by ``F = K D -
        D K`` with ``K`` its unit generator (``units``: at ``G = 0``, ``e^-G
        L(G, K) = K`` for the Frechet derivative ``L`` of ``expm``).  A move
        ``F`` changes ``N`` by ``-M(mu)`` of ``(P F P, Z F Z, Y F Y)`` (plus
        ``N K - K N`` for an angle) and ``I_p`` by ``tr((Y - P) F) / 2``; log
        mu changes ``N`` by ``mu (P - Y)``."""
        n_qf, n_rot, na, n = self.n_qf, self.n_rot, self.n_active, self.m.mx
        self.stats["jacobians"] += 1
        _, _, d, inv, n_mat, mu, *_ = kept
        f = np.zeros((n_qf + n_rot, n, n))
        f[:n_qf, na:, na:] = self.basis_f
        k = self.units
        f[n_qf:] = k @ d - d @ k
        dn = -kkt.stationarity_stack(inv @ f[:, None] @ inv, mu)
        dn[n_qf:] += n_mat @ k - k @ n_mat
        dn = np.concatenate((dn, mu * (inv[None, 0] - inv[None, 2])))
        cols = [np.einsum("kab,pab->pk", dn[:, na:, na:], self.basis_f),
                dn[:, :na, na:].reshape(len(dn), -1).T]
        rate = 0.5 * np.einsum("ab,kab->k", inv[2] - inv[0], f)
        cols.append(np.append(rate, 0.0)[None])
        return np.concatenate(cols)


def _polish_face(m, rp, q_hat, mu_hint, n_active, stats):
    """Newton solve of the first-order system on a prescribed active face,
    with the rate constraint binding.

    On a whitened model (``sigma_x = I``), the top ``n_active``
    eigendirections of the candidate ``q_hat`` are pinned to the source
    covariance.  When more than ``n_active`` of its eigenvalues are 1
    (within 1e-9), the pinned ones are the top eigenvectors of ``U_c^T
    M(mu_hint) U_c`` on that unit eigenspace ``U_c``, not round-off's pick:
    at an optimum, ``M(mu)`` is PSD on each pinned direction (active-set
    identification from the multiplier, Burke & More 1988).  Unknowns: the
    free-block coordinates, the rotation mixing active and free subspaces,
    and log mu.  Residuals: the free-block and cross-block components of
    the stationarity matrix, plus the rate equality (see ``_FaceSystem``).

    A Newton step takes the closed-form Jacobian at its point
    (``_FaceSystem.jacobian``, at ``G = 0`` of a chart centred there: the
    start and each accepted iterate re-centre it, ``_FaceSystem.centre``),
    on the factors that the point's own residual evaluation kept, and one
    to three stacked residual evaluations.  The line search takes the first
    valid one of the halvings ``x + 0.5^j step``, ``j < POLISH_HALVINGS``,
    that lowers the max-norm residual (halving is exact, so these are a
    sequential search's trials): the full step alone, then
    ``HALVINGS_PER_STACK`` per stacked evaluation; when none does, the
    polish stops, as it does after 80 steps or below ``1e-12 min(1, rp)``:
    the rate row's error overruns the budget, so it shrinks with it.

    A step that lifts a free eigenvalue above 1 has left the interval
    through a free direction, which belongs to the face: at the optimum each
    direction pinned at 1 carries a PSD block of ``M(mu)`` (the enhancement
    argument).  The polish then goes on, in place of that step, on face
    ``n_active + 1`` from the iterate before it, which lies inside the
    interval, with its ``Q`` and mu: the directions it pins are that
    iterate's top ``n_active + 1`` eigendirections, the pinned ones and its
    largest free one.  So a polish started on a face too low climbs to the
    face of the optimum instead of walking past the cap until it stalls.

    Returns ``q``, or None for an invalid start; ``_polished`` judges it.
    """
    stats["polish_calls"] += 1
    lam, u0 = np.linalg.eigh(q_hat)
    order = np.argsort(lam)[::-1]
    lam, u0 = lam[order], u0[:, order]
    if n_active == m.mx:
        return np.array(m.sigma_x)
    n_unit = int(np.sum(lam >= 1.0 - 1e-9))
    if 0 < n_active < n_unit:  # pin the unit directions where M(mu_hint) is largest
        u_c = u0[:, :n_unit]
        _, v = np.linalg.eigh(u_c.T @ kkt.stationarity_matrix(m, q_hat, mu_hint) @ u_c)
        u0[:, :n_unit] = u_c @ v[:, ::-1]
    face = _FaceSystem(m, rp, u0, n_active, stats)
    x = np.zeros(face.n_qf + face.n_rot + 1)
    q_free0 = u0[:, n_active:].T @ q_hat @ u0[:, n_active:]
    x[:face.n_qf] = linalg.symmetrize(q_free0)[np.triu_indices(m.mx - n_active)]
    x[-1] = math.log(max(mu_hint, 1e-12))
    rows, valid = face.residuals(x[None])
    if not valid[0]:
        return None
    r, kept = rows[0], face.kept[0]
    x = face.centre(kept)
    halvings = 0.5 ** np.arange(POLISH_HALVINGS)[:, None]
    for _ in range(80):
        rnorm = float(np.max(np.abs(r)))
        if rnorm < 1e-12 * min(1.0, rp):
            break
        jac = face.jacobian(kept)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        trials = x + halvings * step
        for lo in (0, *range(1, POLISH_HALVINGS, HALVINGS_PER_STACK)):
            rows, valid = face.residuals(trials[lo:lo + HALVINGS_PER_STACK if lo else 1])
            better = np.flatnonzero(valid & (np.max(np.abs(rows), axis=1) < rnorm))
            if better.size:
                break
        if not better.size:
            break
        kept_new = face.kept[better[0]]
        if kept_new[-1][-1] > 1.0:  # its top free eigenvalue
            sigma, mu = face.point(kept)
            return _polish_face(m, rp, sigma, float(mu), n_active + 1, stats)
        r, kept = rows[better[0]], kept_new
        x = face.centre(kept)
    return face.point(kept)[0]


def _composite(w, rp, q, ip):
    """The composite of ``kkt.multiplier_test`` at ``q``, of public rate
    ``ip``, on a whitened model; ``inf`` when its multiplier is refused."""
    try:
        return kkt.multiplier_test(w, q, rp, ip)[0]
    except GausskeyError:
        return math.inf


def _passes(cand):
    """Whether a candidate ``(q, rk, composite)`` passes the multiplier test."""
    return cand is not None and cand[2] <= kkt.ACCEPT_COMPOSITE


def _polished(w, rp, q_end, mu_hint, n_active, stats):
    """``(q, rk, composite)`` of the face polish of an end point, with the
    composite of ``kkt.multiplier_test`` (``_composite``), when
    ``rates._point`` takes it, it keeps the budget and its key rate is not
    below the corner's 0 by more than ``1e-9 min(1, rp)`` (at small budgets
    the composite is O(rp) at any point), all read from one ``rates._point``;
    else None.  A point solved on a wrong face has no multiplier that makes
    ``M`` PSD; one with it is optimal."""
    q = _polish_face(w, rp, q_end, mu_hint, n_active, stats)
    if q is None:
        return None
    try:
        point = _point(w, q)
    except ModelValidationError:
        return None
    pair = rates_aligned(w, point)
    if not (pair.rp <= rp + 1e-7 and pair.rk >= -1e-9 * min(1.0, rp)):
        return None
    return q, pair.rk, _composite(w, rp, point, pair.rp)


def _polish_end(w, rp, q, stats):
    """The face polish of an end point ``q`` on a whitened model, on its
    detected face ``g`` at its multiplier hint (``_polish_start``); when
    that candidate fails the multiplier test, the active-set drop step
    (Burke & More 1988): a face that pins a direction whose block of
    ``M(mu)`` is not PSD has no valid multiplier, so the candidate is
    polished on the face below its own, at its own hint (``q`` on ``g - 1``
    when the first polish returned none).  Returns the first ``_polished``
    candidate that passes, else the one with the highest key rate, else
    None; None too when a ``GausskeyError`` ends the call, as for a ``q``
    that ``rates._point`` refuses: a refused start."""
    try:
        g, mu_hint = _polish_start(w, rp, q)
        stats["face_tries"] += 1
        first = _polished(w, rp, q, mu_hint, g, stats)
        if _passes(first):
            stats["face_passes"] += 1
            return first
        if first:
            q, (g, mu_hint) = first[0], _polish_start(w, rp, first[0])
        stats["drop_tries"] += g > 0
        second = _polished(w, rp, q, mu_hint, g - 1, stats) if g else None
    except GausskeyError:
        return None
    if _passes(second):
        stats["drop_passes"] += 1
        return second
    return max((cand for cand in (first, second) if cand), key=lambda cand: cand[1],
               default=None)


def _polish_start(w, rp, q):
    """``(g, mu_hint)`` of an end point ``q`` on a whitened model: ``g``
    counts its eigenvalues within ``min(1e-4, rp)`` of 1 (a budget ``rp``
    moves a free eigenvalue off 1 by about that much, so below 1e-4 a fixed
    threshold would count it as active), and ``mu_hint`` is
    ``kkt.closed_form_mu`` at ``q``, clipped to [1e-8, 1e4]."""
    mu_hint = min(max(kkt.closed_form_mu(w, _point(w, q)), 1e-8), 1e4)
    return int(np.sum(np.linalg.eigvalsh(q) >= 1.0 - min(1e-4, rp))), mu_hint


def _rate_path(w, rp, stats):
    """The optimum of a whitened model ``w`` at ``rp`` by continuation in
    the budget from the corner (Allgower & Georg 1990), or None.

    Neighbouring optima lie on the same face or one face apart, so each
    step polishes the last optimum at a higher rate (``_polish_end``).  The
    seed is the corner ``I`` polished alike at ``min(1e-4, rp)``: on its
    own face it stays ``I``, whose slack rate fails the test unless the
    curve is 0, and face ``mx - 1`` frees the corner pencil's top
    direction.  Each step goes up to three times the last rate that
    passed; one that passes no test (a refused start included) is tried
    again from that rate at the square root of its ratio, giving up below
    1.1.  Returns the passed candidate at rp; ``stats`` counts the steps."""
    r, ratio = min(1e-4, rp), 3.0
    cand = _polish_end(w, r, np.eye(w.mx), stats)
    stats.update(path_steps=1, path_failed_steps=not _passes(cand))
    while _passes(cand) and r < rp:
        r_next = min(rp, r * ratio)
        step = _polish_end(w, r_next, cand[0], stats)
        stats.update(path_steps=1, path_failed_steps=not _passes(step))
        if _passes(step):
            cand, r, ratio = step, r_next, 3.0
        elif (ratio := math.sqrt(r_next / r)) < 1.1:
            return None
    return cand if _passes(cand) else None


def solve_at_rate(m: AlignedModel, rp: float, *, n_starts: int = 6,
                  max_iter: int = 400) -> SolveReport:
    """Maximize the key rate of an aligned model at public-rate budget ``rp``.

    The model is whitened once (``models.whiten``): ascent, polish and gate
    run on ``sigma_x = I``, so every floor and tolerance is relative to
    ``sigma_x``.  Every answer leaves by one exit: ``models.from_white``
    maps it back once, ``S Q S`` rounded once and the corner ``I`` to
    ``sigma_x`` exactly, and one test judges it (below).  At ``rp <=
    1e-12``, where the route's answers are round-off, the answer is the
    corner.

    Every candidate is an end point polished by ``_polish_end``, on its
    detected face and then by the drop step (see there and
    ``_polish_face``); a start that raises a ``GausskeyError``, as an
    optimum that ``rates_aligned`` refuses at high rates, is refused.  The
    end points, in order, each under the name that ``stats["route"]`` gives
    it when it decides the answer:

    1. ``commuting part``: the optimum of the model's commuting part in
       ``sigma_wy``'s eigenbasis (``_commuting_start``; the one in
       ``sigma_wz``'s is only the ascent's sixth start);
    2. ``path``: the path in the budget from the corner (``_rate_path``);
    3. ``ascent``: the fallback, which ``n_starts`` and ``max_iter`` alone size:
       projected gradient ascent with an exact penalty, its weight above
       every multiplier of the model (``_penalty_weight``), from the first
       ``n_starts`` (1 to 6) of ``_starts``, for at most ``max_iter`` steps
       each (0 skips the ascent).  The end point in budget with the highest
       key rate is polished.  It certifies no point of the probe's sets,
       the direct sums or the benchmark.
    The first two return a candidate that passes the test below with
    ``iterations = 0``.  A polished candidate is kept when ``rates_aligned``
    takes it, it keeps the budget and its key rate is not below the
    corner's 0 (``_polished``).  One test then decides it:
    ``kkt.multiplier_test``, which also opens every certificate (at mu = 0
    when the rate is slack and at ``kkt.closed_form_mu`` when it binds), its
    composite at most ``kkt.ACCEPT_COMPOSITE``.  A point with a valid
    multiplier is optimal whatever candidate produced it, however far its
    polish got (the enhancement argument), so the first candidate to pass
    is returned; a point solved on a wrong face has none.  When none
    passes, the answer is the ascent's polished candidate when its key
    rate is higher than its end point's, else that end point (on a tie,
    the end point).  The mapped answer is not re-tested in the model's
    frame, where it carries round-off of about ``eps cond(sigma_x)``.
    ``kkt_residual`` is, in the whitened frame, the test's composite at the
    returned point, and ``converged`` is its verdict, ``kkt_residual <=
    kkt.ACCEPT_COMPOSITE``.  ``iterations`` counts the ascent iterations
    taken, over every start, and ``stats`` the solve's work.  Raises
    ``MaxIterationsExceeded`` when the fallback runs and no start ends
    within 1e-6 of the budget.  Heuristic for the nonconvex general case:
    certify the output through the KKT machinery before trusting it.
    """
    validate_model(m)
    _budget(rp)
    n_starts, max_iter = _count("n_starts", n_starts), _count("max_iter", max_iter)
    if not 1 <= n_starts <= 6:
        raise ValueError(f"n_starts must be 1 to 6, got {n_starts!r}")
    if not max_iter >= 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    w = whiten(m)[0]
    stats, marks = Counter(dict.fromkeys(_STATS, 0)), []  # marks: each phase's start

    def report(q, rk, composite, iterations, route):
        marks.append(time.process_time())
        stats.update({key: b - a for key, a, b in zip(_PHASES, marks, marks[1:])})
        stats["route"] = route if composite <= kkt.ACCEPT_COMPOSITE else "none"
        return SolveReport(optimum=ConditionalCov(from_white(m, q)),
                           value=rk, iterations=iterations, kkt_residual=float(composite),
                           converged=composite <= kkt.ACCEPT_COMPOSITE, stats=stats)

    if rp <= 1e-12:  # the corner: below this, the route's answers are round-off
        return report(w.sigma_x, 0.0, _composite(w, rp, w.sigma_x, 0.0), 0, "corner")
    # the commuting-part optimum first, then the path from the corner
    marks.append(time.process_time())
    cand = _polish_end(w, rp, _commuting_start(w, rp, False), stats)
    if _passes(cand):
        return report(*cand, 0, "commuting part")
    marks.append(time.process_time())
    if cand := _rate_path(w, rp, stats):
        return report(*cand, 0, "path")

    marks.append(time.process_time())
    runs = _pga_penalty(w, rp, np.array(_starts(w, rp, n_starts)), max_iter, stats)
    iterations = sum(run[2] for run in runs)
    ends = [run[:2] for run in runs if run[1].rp <= rp + 1e-6]
    if not ends:
        raise MaxIterationsExceeded("no penalty run produced a feasible point")

    # polish the best end point; keep it unless its candidate wins
    q_end, pair = max(ends, key=lambda end: end[1].rk)
    cand = _polish_end(w, rp, q_end, stats)
    if _passes(cand) or (cand and cand[1] > pair.rk):
        return report(*cand, iterations, "ascent")
    return report(q_end, pair.rk, _composite(w, rp, q_end, pair.rp), iterations, "ascent")


def ascent_boundary(m: AlignedModel, rp_grid) -> RegionBoundary:
    """Boundary of an aligned model's rate region, point by point.

    Each grid point is solved with ``solve_at_rate`` (the commuting-part
    polish, the path in the budget from the corner, and the penalised
    ascent only when both fail) and validated end to end through the
    KKT/enhancement pipeline;
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
    if _scalar_model(m):
        return sweep_boundary(m, rp_grid, st_resolution=st_resolution)
    return ascent_boundary(to_aligned(m), rp_grid)
