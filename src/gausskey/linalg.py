"""Dense symmetric-matrix kernels.

The package's symmetric-matrix kernels: symmetry/PSD checks with the
package-wide tolerances, Cholesky-based inverses and log-determinants, PSD
square roots, and the symmetric-definite generalized eigenvalue solve via
Cholesky whitening (which also gives the closed-form KKT multiplier).  It
is not the only route to ``numpy.linalg``: ``solver``, ``kkt``, ``models``
and ``mc`` call it directly for general solves, SVDs, stacked
factorizations and eigensolves, and the sampler's Cholesky factor.
The functions are pure and take ``numpy`` arrays.  All but
``inv_pd`` run on numpy alone; ``inv_pd`` solves through SciPy's
``cho_solve``, reached through ``sla``, a handle that imports
``scipy.linalg`` on first use, so the scalar route (sweep, oracle and
closed-form limit) never loads SciPy.

Tolerance conventions
---------------------
A matrix is accepted as PSD when its minimum eigenvalue is at least
``-1e-10 * (1 + max |eig|)``; strict positive definiteness requires the
minimum eigenvalue to exceed ``1e-10``.  Sweep iterates sit on the boundary
of the PSD cone, so the PSD test must tolerate small negative round-off.
"""

import numpy as np

from .errors import AsymmetricInput, DimensionMismatch, NotPositiveDefinite

SYM_RTOL = 1e-12
PSD_RTOL = 1e-10
PD_MIN_EIG = 1e-10


class _LazySciPyLinalg:
    """``scipy.linalg``, imported on the first attribute read.

    The plain ``import`` holds the import lock, so concurrent first reads
    all see the fully executed module; each attribute is then cached on the
    handle.
    """

    def __getattr__(self, name):
        import scipy.linalg

        value = getattr(scipy.linalg, name)
        setattr(self, name, value)
        return value


sla = _LazySciPyLinalg()


def symmetrize(a):
    """Return ``(a + a.T) / 2``, for one matrix or a stack of them."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def check_symmetric(a, name="matrix", rtol=SYM_RTOL):
    """Validate that ``a`` is square and symmetric to relative tolerance.

    Returns the symmetrized array (round-off removed).  Raises
    ``AsymmetricInput`` or ``DimensionMismatch`` otherwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    scale = 1.0 + np.max(np.abs(a)) if a.size else 1.0
    if np.max(np.abs(a - a.T)) > rtol * scale:
        raise AsymmetricInput(f"{name} is not symmetric to relative tolerance {rtol:g}")
    return symmetrize(a)


def eigvals_sym(a):
    """Eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(symmetrize(a))


def min_eig(a):
    return float(eigvals_sym(a)[0])


def is_psd(a, rtol=PSD_RTOL):
    """PSD test with the package tolerance (see module docstring)."""
    w = eigvals_sym(a)
    scale = 1.0 + float(np.max(np.abs(w))) if w.size else 1.0
    return float(w[0]) >= -rtol * scale


def is_pd(a, min_eig_tol=PD_MIN_EIG):
    """Strict PD test: minimum eigenvalue above ``min_eig_tol``."""
    return min_eig(a) > min_eig_tol


def require_pd(a, name, min_eig_tol=PD_MIN_EIG):
    """Raise ``NotPositiveDefinite`` naming ``name`` unless ``a`` is PD."""
    if not is_pd(a, min_eig_tol):
        raise NotPositiveDefinite(
            f"{name} is not strictly positive definite (min eig = {min_eig(a):.3e})"
        )


def psd_violation(a):
    """Magnitude of the most negative eigenvalue (0 when PSD)."""
    return max(0.0, -min_eig(a))


def chol_lower(a, name="matrix"):
    """Lower Cholesky factor; raises ``NotPositiveDefinite`` on failure."""
    try:
        return np.linalg.cholesky(symmetrize(a))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} has no Cholesky factor: {exc}") from exc


def logdet_pd(a, name="matrix"):
    """log|a| for a PD matrix via Cholesky.

    Log-determinant ratios elsewhere in the package are always computed as
    differences of these values, never as determinant quotients.
    """
    lower = chol_lower(a, name)
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def inv_pd(a, name="matrix"):
    """Inverse of a PD matrix via Cholesky."""
    lower = chol_lower(a, name)
    inv = sla.cho_solve((lower, True), np.eye(a.shape[0]))
    return symmetrize(inv)


def sqrtm_psd(a):
    """Symmetric PSD square root via eigendecomposition.

    Negative round-off eigenvalues are clamped to 0 before the square root.
    """
    w, v = np.linalg.eigh(symmetrize(a))
    w = np.clip(w, 0.0, None)
    return symmetrize((v * np.sqrt(w)) @ v.T)


def inv_sqrtm_pd(a, name="matrix"):
    """Inverse symmetric square root of a PD matrix."""
    w, v = np.linalg.eigh(symmetrize(a))
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"{name} is singular; no inverse square root")
    return symmetrize((v / np.sqrt(w)) @ v.T)


def eig_floor(a, floor):
    """Clamp the eigenvalues of a symmetric matrix from below."""
    w, v = np.linalg.eigh(symmetrize(a))
    w = np.maximum(w, floor)
    return symmetrize((v * w) @ v.T)


def eig_clip(a, lo, hi):
    """Clamp the eigenvalues of a symmetric matrix, or of each matrix of a
    stack, into ``[lo, hi]``."""
    w, v = np.linalg.eigh(symmetrize(a))
    w = np.clip(w, lo, hi)
    return symmetrize((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))


def gen_eig_pencil(a, c):
    """Generalized eigenvalues of the symmetric-definite pencil ``(a, c)``.

    Solves ``det(a - phi c) = 0`` for symmetric ``a`` and PD ``c`` by
    Cholesky whitening: with ``c = L L^T``, the values are the ordinary
    eigenvalues of ``L^-1 a L^-T``.  Returned descending.
    """
    a = check_symmetric(a, "pencil lhs")
    lower = chol_lower(c, "pencil rhs")
    half = np.linalg.solve(lower, a)
    white = np.linalg.solve(lower, half.T)
    w = np.linalg.eigvalsh(symmetrize(white))
    return w[::-1].copy()


def frob(a):
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def rel_residual(x, *operands):
    """Frobenius norm of ``x`` normalized by ``1 + sum ||operand||_F``.

    This is the scale-free residual convention used by every certificate
    check in the package.
    """
    denom = 1.0 + sum(frob(op) for op in operands)
    return frob(x) / denom
