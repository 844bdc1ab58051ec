"""Monte-Carlo cross-validation of the rate functionals.

The analytic functionals are cross-checked by sampling the joint Gaussian
vector (X, Y, Z, U), with U = X + V a Gaussian auxiliary such that the
conditional covariance of X given U equals the prescribed matrix, and
estimating

    rp_est = I_hat(U; X) - I_hat(U; Y),
    rk_est = I_hat(U; Y) - I_hat(U; Z)

by Gaussian plug-in: every mutual information is computed from empirical
covariance blocks as half the log-det of the marginals minus the log-det of
the joint block.  Because every law here is exactly Gaussian, the plug-in
estimator is an independent arithmetic path to the same quantities, not an
extra statistical assumption.

Randomness comes from numpy's Philox counter-based generator keyed by the
caller's 64-bit seed, with a single fixed draw order (the rows of one
(n, dim) standard-normal block, drawn a block of rows at a time), so
batches are bitwise reproducible for a given seed and numpy version.
Covariances come from centred Gram matrices ``X^T X - n m m^T``, one pass
over the rows with no centred copy.  Standard errors use 10-fold batch
splitting.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateConditional, NotPsd, SingularEmpiricalCov
from .models import ConditionalCov, GeneralModel, validate_model

# Gate on 1 - phi_max (the pencil (q, sigma_x)) below which q counts as
# degenerate and no finite auxiliary-noise covariance exists.
DEGENERATE_RTOL = 1e-5

DEFAULT_FOLDS = 10

# Rows drawn and transformed per block by ``sample``.
SAMPLE_BLOCK_ROWS = 8192


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
    """One reproducible batch of joint samples.

    ``samples`` has shape (n, dim) over the stacked (X, Y, Z, U) order;
    ``joint_cov_empirical`` is its empirical covariance.
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


def layout_for(m: GeneralModel) -> JointLayout:
    return JointLayout(mx=m.mx, my=m.my, mz=m.mz)


def build_joint(m: GeneralModel, q) -> np.ndarray:
    """Joint covariance of (X, Y, Z, U) with conditional cov of X given U = q.

    The auxiliary variable is U = X + V with V ~ N(0, (q^-1 - sigma_x^-1)^-1)
    independent of everything else; by the information-form identity the
    conditional covariance of X given U is then exactly q.  The stacked
    vector is ``T X`` plus independent noise, ``T = [I; B; E; I]``, so the
    joint covariance is the congruence ``T sigma_x T^T`` plus ``I``, ``I``
    and ``cov V`` on the Y, Z and U diagonal blocks.  Requires q strictly
    below sigma_x; raises ``DegenerateConditional`` when the pencil ``(q,
    sigma_x)`` has an eigenvalue within ``DEGENERATE_RTOL`` of 1.
    """
    validate_model(m)
    q = ConditionalCov.for_model(m, q).value
    phi_max = linalg.gen_eig_pencil(q, m.sigma_x)[0]
    if 1.0 - phi_max <= DEGENERATE_RTOL:
        raise DegenerateConditional(
            "conditional covariance is too close to sigma_x "
            f"(largest pencil eigenvalue {phi_max:.6f})"
        )
    sigma_v = linalg.inv_pd(
        linalg.inv_pd(q, "conditional covariance") - linalg.inv_pd(m.sigma_x, "sigma_x"),
        "auxiliary precision",
    )
    t = np.vstack([np.eye(m.mx), m.b, m.e, np.eye(m.mx)])
    joint = t @ m.sigma_x @ t.T
    _, iy, iz, iu = layout_for(m).slices
    joint[iy, iy] += np.eye(m.my)
    joint[iz, iz] += np.eye(m.mz)
    joint[iu, iu] += sigma_v
    return linalg.symmetrize(joint)


def _centred_cov(gram, total, n, ddof):
    """Covariance of ``n`` rows from their Gram matrix ``X^T X`` and column
    sums ``total``."""
    mean = total / n
    return linalg.symmetrize((gram - n * np.outer(mean, mean)) / (n - ddof))


def sample(joint_cov, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` i.i.d. joint samples; bitwise deterministic given ``seed``.

    Samples are the Cholesky factor of the joint covariance applied to the
    rows of an (n, dim) standard-normal block from a Philox generator keyed
    by ``seed``, drawn ``SAMPLE_BLOCK_ROWS`` rows at a time straight into
    the result.  Raises ``NotPsd`` when the covariance is not PSD.
    """
    joint_cov = linalg.check_symmetric(joint_cov, "joint covariance")
    if not linalg.is_psd(joint_cov):
        raise NotPsd(
            f"joint covariance is not PSD (min eig = {linalg.min_eig(joint_cov):.3e})"
        )
    if n < 1:
        raise ValueError("sample count must be positive")
    # tiny jitter only to absorb round-off at the PSD boundary
    try:
        factor = np.linalg.cholesky(joint_cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * (1.0 + float(np.trace(joint_cov)))
        factor = np.linalg.cholesky(joint_cov + jitter * np.eye(joint_cov.shape[0]))
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    n, dim = int(n), joint_cov.shape[0]
    samples = np.empty((n, dim))
    gram = np.zeros((dim, dim))
    total = np.zeros(dim)
    lo = 0
    while lo < n:
        # a lone last row would go through a matrix-vector product, which
        # rounds differently from the one-block draw; its block takes it
        hi = n if n - lo <= SAMPLE_BLOCK_ROWS + 1 else lo + SAMPLE_BLOCK_ROWS
        block = np.matmul(rng.standard_normal((hi - lo, dim)), factor.T,
                          out=samples[lo:hi])
        gram += block.T @ block
        total += block.sum(axis=0)
        lo = hi
    emp = _centred_cov(gram, total, n, ddof=1 if n > 1 else 0)
    return SampleBatch(n=n, seed=int(seed), samples=samples, joint_cov_empirical=emp)


def _plugin_rates(cov, lay: JointLayout):
    """(rp, rk) plug-in estimates from one empirical covariance matrix."""
    ix, iy, iz, iu = lay.slices

    def mi(sa, sb):
        ia = np.r_[sa]
        ib = np.r_[sb]
        idx = np.r_[ia, ib]
        block = cov[np.ix_(idx, idx)]
        try:
            return 0.5 * (
                linalg.logdet_pd(cov[np.ix_(ia, ia)])
                + linalg.logdet_pd(cov[np.ix_(ib, ib)])
                - linalg.logdet_pd(block)
            )
        except Exception as exc:
            raise SingularEmpiricalCov(
                f"singular empirical covariance block: {exc}"
            ) from exc

    i_ux = mi(iu, ix)
    i_uy = mi(iu, iy)
    i_uz = mi(iu, iz)
    return i_ux - i_uy, i_uy - i_uz


def estimate_rates(batch: SampleBatch, layout: JointLayout,
                   folds: int = DEFAULT_FOLDS):
    """Plug-in estimates of the rate functionals from a sample batch.

    Returns ``(rp_est, rk_est)`` as ``MiEstimate`` values.  The point
    estimates use the full-batch empirical covariance; standard errors come
    from recomputing the estimates on ``folds`` contiguous sub-batches and
    taking the standard error of the fold mean, so ``folds`` must be at
    least 2 (``ValueError`` otherwise).  Requires at least ``folds * (dim +
    1)`` samples so every fold covariance is nonsingular; raises
    ``SingularEmpiricalCov`` otherwise.
    """
    if not folds >= 2:
        raise ValueError(f"folds must be at least 2 for a standard error, got {folds!r}")
    if batch.samples.shape[1] != layout.dim:
        raise ValueError(
            f"batch dimension {batch.samples.shape[1]} does not match layout "
            f"dimension {layout.dim}"
        )
    per_fold = batch.n // folds
    if per_fold < layout.dim + 1:
        raise SingularEmpiricalCov(
            f"{batch.n} samples cannot fill {folds} folds of at least "
            f"{layout.dim + 1} samples each"
        )
    rp_full, rk_full = _plugin_rates(batch.joint_cov_empirical, layout)
    rp_folds = []
    rk_folds = []
    for k in range(folds):
        chunk = batch.samples[k * per_fold:(k + 1) * per_fold]
        cov = _centred_cov(chunk.T @ chunk, chunk.sum(axis=0), per_fold, ddof=1)
        rp_k, rk_k = _plugin_rates(cov, layout)
        rp_folds.append(rp_k)
        rk_folds.append(rk_k)
    rp_se = float(np.std(rp_folds, ddof=1) / np.sqrt(folds))
    rk_se = float(np.std(rk_folds, ddof=1) / np.sqrt(folds))
    return (
        MiEstimate(value=float(rp_full), std_error=rp_se),
        MiEstimate(value=float(rk_full), std_error=rk_se),
    )


def cross_validate(m: GeneralModel, q, n: int, seed: int,
                   folds: int = DEFAULT_FOLDS):
    """Convenience pipeline: build the joint, sample, and estimate."""
    joint = build_joint(m, q)
    batch = sample(joint, n, seed)
    return estimate_rates(batch, layout_for(m), folds=folds)
