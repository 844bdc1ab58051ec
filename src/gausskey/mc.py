"""Monte-Carlo cross-validation of the rate functionals.

The analytic functionals are cross-checked by sampling the joint Gaussian
vector (X, Y, Z, U), with U = G X + N a Gaussian auxiliary such that the
conditional covariance of X given U equals the prescribed matrix, and
estimating

    rp_est = I_hat(U; X) - I_hat(U; Y),
    rk_est = I_hat(U; Y) - I_hat(U; Z)

by Gaussian plug-in: every mutual information is computed from empirical
covariance blocks as half the log-det of the marginals minus the log-det of
the joint block.  Because every law here is exactly Gaussian, the plug-in
estimator is an independent arithmetic path to the same quantities, not an
extra statistical assumption.

The estimator reads each fold's mean and scatter only, so ``sample`` draws
those sufficient statistics directly instead of the rows behind them.  The
``n`` rows fall into ``DEFAULT_FOLDS`` (10) folds whose sizes ``n_k`` sum
to ``n`` and differ by at most one.  With ``L`` the joint's Cholesky factor,
a fold's scaled mean ``sqrt(n_k) m_k`` is ``L z``, ``z ~ N(0, I)``, and its
scatter is ``R_k^T R_k`` with ``R_k = (L A_k)^T``: ``A_k`` is the Bartlett
factor (Bartlett 1933; Odell & Feiveson 1966), lower triangular with
``A_ii^2 ~ chi2(n_k - i)`` and standard normals below the diagonal, so the
scatter is ``Wishart(Sigma, n_k - 1)``.  The cost is ``O(k dim^3)``, the
same for ``n = 1e3`` as for ``n = 1e10``.  Randomness comes from numpy's
Philox counter-based generator keyed by the caller's 64-bit seed, with a
single fixed draw order (means, then below-diagonal normals, then
chi-squares), so batches are bitwise reproducible for a given seed and
numpy version.  Standard errors come from the spread of the fold estimates.
The module runs on numpy alone.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefinite, NotPsd, SingularEmpiricalCov
from .models import ConditionalCov, to_general, validate_model

# Sub-batches behind every standard error.
DEFAULT_FOLDS = 10


@dataclass(frozen=True)
class JointLayout:
    """Block sizes of the stacked (X, Y, Z, U) vector."""

    mx: int
    my: int
    mz: int

    @property
    def dim(self):
        return 2 * self.mx + self.my + self.mz

    @property
    def slices(self):
        ix = slice(0, self.mx)
        iy = slice(self.mx, self.mx + self.my)
        iz = slice(self.mx + self.my, self.mx + self.my + self.mz)
        iu = slice(self.mx + self.my + self.mz, self.dim)
        return ix, iy, iz, iu


@dataclass(frozen=True)
class SampleBatch:
    """The sufficient statistics of ``n`` reproducible joint samples.

    ``samples`` is the ``(DEFAULT_FOLDS, dim + 1, dim)`` stack ``C_k =
    [sqrt(n_k) m_k^T; R_k]`` over the stacked (X, Y, Z, U) order, with
    ``m_k`` fold k's mean and ``R_k^T R_k`` its scatter.  ``C_k^T C_k`` is
    the fold's Gram matrix ``X_k^T X_k``: ``C_k`` is the fold's rows after
    an orthogonal rotation, truncated to ``dim + 1`` rows, and loses nothing
    for an estimator that reads covariances.  ``joint_cov_empirical`` is
    the pooled covariance of all ``n`` rows.
    """

    n: int
    seed: int
    samples: np.ndarray
    joint_cov_empirical: np.ndarray


@dataclass(frozen=True)
class MiEstimate:
    """A mutual-information difference estimate with its standard error."""

    value: float
    std_error: float


def layout_for(m) -> JointLayout:
    """Block sizes for a model of either kind, as ``to_general(m)``."""
    m = to_general(m)
    return JointLayout(mx=m.mx, my=m.my, mz=m.mz)


def build_joint(m, q) -> np.ndarray:
    """Joint covariance of (X, Y, Z, U) with conditional cov of X given U = q.

    The auxiliary variable is U = G X + N with N ~ N(0, I) independent of
    everything else and ``G^T G = q^-1 - sigma_x^-1``, so by the
    information-form identity ``(sigma_x^-1 + G^T G)^-1 = q`` the
    conditional covariance of X given U is exactly q.  With ``S =
    sigma_x^1/2`` and the whitened ``S^-1 q S^-1 = V diag(phi) V^T``, ``G =
    diag(sqrt(1/phi - 1)) V^T S^-1``: a direction where q meets sigma_x
    (``phi = 1``) gets a zero row, so every q that ``ConditionalCov``
    accepts, ``q = sigma_x`` included, has a joint law.  The stacked vector
    is ``T X`` plus independent unit noise, ``T = [I; B; E; G]``, so the
    joint covariance is the congruence ``T sigma_x T^T`` plus the identity
    on every block after X, which keeps it positive definite.  An aligned
    model is built as ``to_general(m)``, which has the same rates.
    """
    m = to_general(validate_model(m))
    q = ConditionalCov.for_model(m, q).value
    s_half_inv = linalg.roots(m.sigma_x, "sigma_x")[1]
    phi, v = np.linalg.eigh(linalg.congruence(s_half_inv, q))
    g = np.sqrt(np.maximum(1.0 / phi - 1.0, 0.0))[:, None] * (v.T @ s_half_inv)
    t = np.vstack([np.eye(m.mx), m.b, m.e, g])
    joint = t @ m.sigma_x @ t.T
    joint[m.mx:, m.mx:] += np.eye(m.my + m.mz + m.mx)
    return linalg.symmetrize(joint)


def _fold_sizes(n):
    """Sizes of the ``DEFAULT_FOLDS`` folds of ``n`` rows: they sum to ``n``
    and differ by at most one."""
    return n // DEFAULT_FOLDS + (np.arange(DEFAULT_FOLDS) < n % DEFAULT_FOLDS)


def sample(joint_cov, n: int, seed: int) -> SampleBatch:
    """Draw the fold statistics of ``n`` i.i.d. joint samples; bitwise
    deterministic given ``seed``.

    See the module docstring for the draw.  A fold of ``n_k <= dim`` rows
    has a singular scatter: its Bartlett factor keeps only its first ``n_k -
    1`` columns.  Raises ``NotPsd``, naming the least eigenvalue, when the
    covariance has no Cholesky factor, and ``ValueError`` when ``n < 1``.
    """
    joint_cov = linalg.check_symmetric(joint_cov, "joint covariance")
    try:
        factor = linalg.chol_lower(joint_cov, "joint covariance")
    except NotPositiveDefinite as exc:
        raise NotPsd(f"joint covariance is not positive definite "
                     f"(min eig = {linalg.min_eig(joint_cov):.3e})") from exc
    if n < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    n, dim = int(n), joint_cov.shape[0]
    sizes = _fold_sizes(n)
    # an empty fold (n < DEFAULT_FOLDS) has a zero sum
    z = rng.standard_normal((DEFAULT_FOLDS, dim)) * (sizes > 0)[:, None]
    bartlett = np.tril(rng.standard_normal((DEFAULT_FOLDS, dim, dim)), -1)
    dof = sizes[:, None] - 1 - np.arange(dim)
    diag = np.sqrt(2.0 * rng.standard_gamma(np.maximum(dof, 0) / 2.0))
    bartlett[:, np.arange(dim), np.arange(dim)] = diag
    bartlett *= (dof > 0)[:, None, :]
    roots = np.swapaxes(factor @ bartlett, 1, 2)
    stats = np.concatenate([(z @ factor.T)[:, None], roots], axis=1)
    gram = np.einsum("kij,kil->jl", stats, stats)
    mean = np.sqrt(sizes) @ stats[:, 0] / n
    emp = linalg.symmetrize((gram - n * np.outer(mean, mean)) / max(n - 1, 1))
    return SampleBatch(n=n, seed=int(seed), samples=stats, joint_cov_empirical=emp)


def _plugin_rates(covs, lay: JointLayout):
    """(rp, rk) plug-in estimates from a stack of empirical covariances."""
    ix, iy, iz, iu = (np.r_[s] for s in lay.slices)

    def logdet(idx):
        try:
            return linalg.logdet_chol(linalg.chol_lower(covs[:, idx[:, None], idx],
                                                        "empirical covariance block"))
        except NotPositiveDefinite as exc:
            raise SingularEmpiricalCov(
                f"singular empirical covariance block: {exc}"
            ) from exc

    def mi(ia, ib):
        return 0.5 * (logdet(ia) + logdet(ib) - logdet(np.r_[ia, ib]))

    i_ux = mi(iu, ix)
    i_uy = mi(iu, iy)
    i_uz = mi(iu, iz)
    return i_ux - i_uy, i_uy - i_uz


def estimate_rates(batch: SampleBatch, layout: JointLayout):
    """Plug-in estimates of the rate functionals from a sample batch.

    Returns ``(rp_est, rk_est)`` as ``MiEstimate`` values.  The point
    estimates use the pooled empirical covariance; standard errors come
    from recomputing the estimates on each fold's covariance ``R_k^T R_k /
    (n_k - 1)`` and taking the standard error of the fold mean.  Requires
    at least ``DEFAULT_FOLDS * (dim + 1)`` samples so every fold covariance
    is nonsingular; raises ``SingularEmpiricalCov`` otherwise.
    """
    if batch.samples.shape[-1] != layout.dim:
        raise ValueError(
            f"batch dimension {batch.samples.shape[-1]} does not match layout "
            f"dimension {layout.dim}"
        )
    if batch.n // DEFAULT_FOLDS < layout.dim + 1:
        raise SingularEmpiricalCov(
            f"{batch.n} samples cannot fill {DEFAULT_FOLDS} folds of at least "
            f"{layout.dim + 1} samples each"
        )
    roots = batch.samples[:, 1:]
    folds = np.swapaxes(roots, 1, 2) @ roots / (_fold_sizes(batch.n) - 1)[:, None, None]
    rp, rk = _plugin_rates(np.concatenate([batch.joint_cov_empirical[None], folds]), layout)
    return tuple(
        MiEstimate(value=float(est[0]),
                   std_error=float(np.std(est[1:], ddof=1) / np.sqrt(DEFAULT_FOLDS)))
        for est in (rp, rk)
    )


def cross_validate(m, q, n: int, seed: int):
    """Convenience pipeline: build the joint, sample, and estimate."""
    joint = build_joint(m, q)
    batch = sample(joint, n, seed)
    return estimate_rates(batch, layout_for(m))
