"""Dense symmetric-matrix kernels.

The package's one home for its symmetric-matrix kernels: symmetry/PSD
checks with the package-wide tolerances, Cholesky factors and the inverses
and log-determinants taken from them (``chol_lower``, ``chol_sym``, ``inv_chol``,
``logdet_chol`` and ``eig_clip`` take one matrix or a stack of them), square
roots and congruences, the symmetric-definite generalized eigenvalue
solve, whitened by the inverse root, and the Cayley map of a skew matrix
(``cayley``: the face polish's rotations, ``solver.sla.expm``).  Callers use ``numpy.linalg``
directly only where no kernel here fits: QR and SVD, solves of non-symmetric
systems and eigenbases that the caller reads (the face polish's directions).
The functions are pure, take ``numpy`` arrays and run on numpy alone, so
no part of the package loads SciPy.

Tolerance conventions
---------------------
Scaling a model keeps its rates, so symmetry and strict PD are judged at
each matrix's own scale: finite entries with ``max |a - a^T|`` at most
``SYM_RTOL * max |a|``, and a least eigenvalue above ``PD_MIN_EIG * max
|eig|`` (a condition number above 1e10 is refused at any scale).  PSD
allows a least eigenvalue down to ``-PSD_RTOL * (1 + max |eig|)``, relative
only from unit scale up: on the edge of the cone (``M`` at an interior
optimum, ``I - diag(phi)`` at ``Q = sigma_x``) a matrix is zero up to
round-off.  The aligned route decides in ``models.whiten``'s frame.
"""

import numpy as np

from .errors import AsymmetricInput, DimensionMismatch, ModelValidationError, NotPositiveDefinite

SYM_RTOL = 1e-12
PSD_RTOL = 1e-10
PD_MIN_EIG = 1e-10


def symmetrize(a):
    """Return ``(a + a.T) / 2``, for one matrix or a stack of them."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def check_symmetric(a, name="matrix"):
    """Validate that ``a`` is square, finite and symmetric (see the module
    docstring) and return it symmetrized.  Raises ``DimensionMismatch``,
    ``ModelValidationError`` (a non-finite entry) or ``AsymmetricInput``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ModelValidationError(f"{name} has a non-finite entry")
    if np.max(np.abs(a - a.T), initial=0.0) > SYM_RTOL * np.max(np.abs(a), initial=0.0):
        raise AsymmetricInput(f"{name} is not symmetric to relative tolerance {SYM_RTOL:g}")
    return symmetrize(a)


def eigvals_sym(a):
    """Eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(symmetrize(a))


def min_eig(a):
    return float(eigvals_sym(a)[0])


def is_psd(a):
    """PSD test with the package tolerance (see module docstring)."""
    w = eigvals_sym(a)
    return float(w[0]) >= -PSD_RTOL * (1.0 + float(np.max(np.abs(w))))


def is_pd(a):
    """Strict PD test, relative to the largest eigenvalue magnitude."""
    w = eigvals_sym(a)
    return float(w[0]) > PD_MIN_EIG * float(np.max(np.abs(w)))


def require_pd(a, name):
    """Raise ``NotPositiveDefinite`` naming ``name`` unless ``a`` is PD."""
    if not is_pd(a):
        raise NotPositiveDefinite(f"{name} is not strictly positive definite (min eig = "
                                  f"{min_eig(a):.3e}, relative tolerance {PD_MIN_EIG:g})")


def psd_violation(a):
    """Magnitude of the most negative eigenvalue (0 when PSD)."""
    return max(0.0, -min_eig(a))


def chol_lower(a, name="matrix"):
    """Lower Cholesky factor of ``a`` symmetrized (``chol_sym``)."""
    return chol_sym(symmetrize(a), name)


def chol_sym(a, name="matrix"):
    """Lower Cholesky factor of an exactly symmetric ``a``, or of each of a
    stack (numpy reads its lower triangle); ``NotPositiveDefinite`` else."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} has no Cholesky factor: {exc}") from exc


def logdet_chol(lower):
    """log|a| from the lower Cholesky factor of ``a``, for one factor or a
    stack of them.

    Log-determinant ratios elsewhere in the package are always computed as
    differences of these values, never as determinant quotients.
    """
    return 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)


def inv_chol(lower):
    """Inverse of ``a`` from its lower Cholesky factor ``L``, for one factor
    or a stack of them: ``L^-T L^-1`` from one (stacked) numpy inverse."""
    inv_l = np.linalg.inv(lower)
    return symmetrize(np.swapaxes(inv_l, -1, -2) @ inv_l)


def logdet_pd(a, name="matrix"):
    """log|a| for a PD matrix via Cholesky (see ``logdet_chol``)."""
    return float(logdet_chol(chol_lower(a, name)))


def inv_pd(a, name="matrix"):
    """Inverse of a PD matrix, or of each of a stack of them, via Cholesky."""
    return inv_chol(chol_lower(a, name))


def roots(a, name="matrix"):
    """``a^1/2`` and ``a^-1/2`` of a PD matrix, from one eigendecomposition
    (of the lower triangle of ``a``); ``NotPositiveDefinite`` otherwise."""
    w, v = np.linalg.eigh(a)
    if not w[0] > 0.0:
        raise NotPositiveDefinite(f"{name} has a non-positive eigenvalue ({w[0]:.3e})")
    root = np.sqrt(w)
    return (v * root) @ v.T, (v / root) @ v.T


def congruence(t, a):
    """``t a t`` symmetrized, for a symmetric ``t``."""
    return symmetrize(t @ a @ t)


def congruence_rounded(t, a):
    """``t a t`` for a symmetric ``t``, summed and symmetrized in long double
    and rounded to float once.  Rounded term by term, a product that cancels
    loses bits which a later ``t^-1 (.) t^-1`` magnifies up to ``cond(t)^2``
    fold; an x86-64 long double's 11 extra bits absorb a cancellation of up to
    about 2^11.  Where numpy's long double is the double, this is
    ``congruence``'s arithmetic.
    """
    t = np.asarray(t, dtype=np.longdouble)
    x = t @ np.asarray(a, dtype=np.longdouble) @ t
    return (0.5 * (x + x.T)).astype(float)


def eig_clip(a, lo, hi):
    """Clamp the eigenvalues of a symmetric matrix, or of each matrix of a
    stack, into ``[lo, hi]``."""
    w, v = np.linalg.eigh(symmetrize(a))
    w = np.clip(w, lo, hi)
    return symmetrize((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))


def gen_eig_pencil(a, c):
    """Generalized eigenvalues of the symmetric-definite pencil ``(a, c)``.

    Solves ``det(a - phi c) = 0`` for symmetric ``a`` and PD ``c`` by
    whitening by ``c^-1/2`` from ``roots`` (``models.whiten``'s frame for ``c
    = sigma_x``): the eigenvalues of ``c^-1/2 a c^-1/2``, descending.
    """
    a = check_symmetric(a, "pencil lhs")
    inv_root = roots(c, "pencil rhs")[1]
    return np.linalg.eigvalsh(congruence(inv_root, a))[::-1].copy()


def cayley(gens):
    """The Cayley map ``(I - G/2)^-1 (I + G/2)`` of a real skew ``G``, or of
    each of a stack, by one solve: ``e^G`` to second order, and orthogonal
    up to round-off, which grows like ``eps |G|`` where ``G`` is singular."""
    half = 0.5 * np.asarray(gens, dtype=float)
    eye = np.eye(half.shape[-1])
    return np.linalg.solve(eye - half, eye + half)


def frob(a):
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def rel_residual(x, *operands):
    """Frobenius norm of ``x`` normalized by ``1 + sum ||operand||_F``.

    This is the scale-free residual convention used by every certificate
    check in the package.
    """
    denom = 1.0 + sum(frob(op) for op in operands)
    return frob(x) / denom
