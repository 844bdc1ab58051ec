"""The brute-force oracle: an exhaustive search over conditional
covariances for source dimension <= 2.

``brute_force_grid`` enumerates conditional covariances parameterized by
whitened eigenvalues and a rotation angle, each evaluated in closed form
through 2x2 Gram determinants.  Along one eigenvalue both rates are
monotone, so each (angle, other eigenvalue) row is settled by a binary
search for its first feasible cell and a key rate at two cells, and no grid
point that could win is skipped.  It searches the problem's own set, every
``0 < Q <= sigma_x``, and shares no arithmetic with either route, the
sweep of ``sweep`` or the ascent of ``solver``, so it is an independent
check of both; it runs on numpy alone.
"""

import math

import numpy as np

from . import linalg
from .errors import DimensionTooLarge
from .models import _budget, _count, to_general, validate_model
from .rates import RatePair


def brute_force_grid(m, rp: float, grid_density: int = 60) -> RatePair:
    """Exhaustive-search oracle for the boundary at one public rate.

    Conditional covariances are enumerated as
    ``sigma_x^1/2 R(theta) diag(d) R(theta)^T sigma_x^1/2`` with the
    whitened eigenvalues ``d`` on a geometric grid in (0, 1] (endpoint
    included, so ``grid_density`` must be at least 2) and ``theta`` uniform
    over half a turn; the best feasible key rate is returned, clamped at
    zero to match boundary semantics.  Only source dimensions 1 and 2 are
    supported (``DimensionTooLarge``).  An aligned model is searched as
    ``to_general(m)``, which has the same rate region.

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
    ``1 + d g``, and every grid point is scored.

    For mx = 2 the grid has ``T = N = grid_density`` rows ``(theta, d1)``
    of ``N`` cells ``d2``, and a row is searched, not scored whole.  On a
    row each log-det is ``log1p(alpha + beta d2)`` with ``alpha = d1 g11``
    and ``beta = g22 + d1 det G``, both nonnegative, so

    * ``I_p = -1/2 log(d1 d2) - 1/2 (ld_y_full - log1p(alpha_b + beta_b
      d2))`` strictly falls along ``d2``: its derivative ``-1/(2 d2) +
      beta_b / (2 (1 + alpha_b + beta_b d2))`` is negative.  The feasible
      cells ``I_p <= rp`` of a row are therefore a suffix of the ``d`` grid,
      found by a binary search on its first cell;
    * ``I_k = 1/2 log1p(alpha_e + beta_e d2) - 1/2 log1p(alpha_b + beta_b
      d2) + const`` has a derivative of the fixed sign of ``beta_e (1 +
      alpha_b) - beta_b (1 + alpha_e)``, so it is monotone along ``d2``,
      and its maximum over the suffix is at the suffix's first cell or at
      ``d2 = 1``.

    So the best feasible grid point is among the two cells per row that are
    scored, and the result is the exhaustive search's: every cell that is
    evaluated is evaluated with the same expression, in the same order, so
    it is the same float.  (Both facts are exact; the computed rates keep
    them wherever one grid step moves a rate by more than its round-off.)
    The cost is ``O(T N log N)`` flops: the search takes ``floor(log2 N) +
    1`` passes, each a few multiplies and one logarithm per row, and the
    scoring two more per observation, all in a few ``T x N`` float arrays
    (a density-60 call peaks near 0.3 MB of allocations).
    """
    m = to_general(validate_model(m))
    if m.mx > 2:
        raise DimensionTooLarge(f"brute-force oracle supports mx <= 2, got {m.mx}")
    _budget(rp)
    grid_density = _count("grid_density", grid_density)
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
    s_half = m._roots[0]

    if m.mx == 1:
        def log_det(a):
            # log det(I + a Q a^T) on the d grid: one direction, G = g
            return np.log1p(d * float(np.sum((a @ s_half) ** 2)))

        gy = 0.5 * (ld_y_full - log_det(m.b))
        ip = -0.5 * log_d - gy
        ik = np.subtract(gy, 0.5 * (ld_z_full - log_det(m.e)), out=gy)
        best = float(np.max(ik, where=ip <= rp + 1e-12, initial=-np.inf))
        return RatePair(rp=rp, rk=max(0.0, best))

    n = len(d)
    theta = np.linspace(0.0, math.pi, n, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    w = s_half @ np.stack([np.stack([c, -s], axis=-1),
                           np.stack([s, c], axis=-1)], axis=-2)
    d1, log_d1 = d[None, :], log_d[None, :]
    det_x = float(np.linalg.det(m.sigma_x))

    def row_log_det(a):
        # log det(I + a Q a^T) at the cells (theta, d1, d[j]) for a d2
        # index j, one or a T x N array, from the diagonal of G(theta) and
        # its theta-free determinant
        aw = a @ w
        g = np.sum(aw * aw, axis=-2)
        minors = a[:, None, 0] * a[None, :, 1] - a[:, None, 1] * a[None, :, 0]
        det_g = det_x * 0.5 * float(np.sum(minors * minors))

        def at(j):
            d2 = d[j]
            out = d1 * g[:, 0, None] + d2 * g[:, 1, None]
            out += det_g * (d1 * d2)
            return np.log1p(out, out=out)
        return at

    log_det_y, log_det_z = row_log_det(m.b), row_log_det(m.e)

    def gain_y(j):
        return 0.5 * (ld_y_full - log_det_y(j))

    def key_rate(j):
        return gain_y(j) - 0.5 * (ld_z_full - log_det_z(j))

    # each (theta, d1) row's feasible cells are a suffix of the d grid:
    # first[t, i] counts the infeasible cells before it, by a binary search
    # that tests cell first + step - 1 (the last cell when past it) for
    # step = 2^k, ..., 2, 1
    first = np.zeros((n, n), dtype=np.intp)
    step = 1 << n.bit_length()
    while step := step >> 1:
        probe = np.minimum(first + step, n)
        ip = -0.5 * (log_d1 + log_d[probe - 1]) - gain_y(probe - 1)
        first = np.where(ip <= rp + 1e-12, first, probe)
    # a row's best key rate is at its first feasible cell or at d2 = 1
    ik = np.maximum(key_rate(np.minimum(first, n - 1)), key_rate(n - 1))
    best = float(np.max(ik, where=first < n, initial=-np.inf))
    return RatePair(rp=rp, rk=max(0.0, best))
