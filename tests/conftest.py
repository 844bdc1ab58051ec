import os

# gausskey's stacked matrices are small, and OpenBLAS threads only contend for
# the cores on them; the pin must precede numpy's first import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gausskey import AlignedModel, GeneralModel


@pytest.fixture(scope="session")
def degraded_demo():
    """2-d source with proportional observation vectors (degraded triple)."""
    return GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[0.7, 0.35]])


@pytest.fixture(scope="session")
def crossing_demo():
    """2-d source whose two observations are equally informative overall but
    see different directions, so the key rate comes from quantization."""
    return GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[0.5, 1.0]])


@pytest.fixture(scope="session")
def scalar_aligned():
    return AlignedModel(sigma_x=[[2.0]], sigma_wy=[[1.0]], sigma_wz=[[2.0]])


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def random_spd(rng, n, floor=0.3):
    a = rng.standard_normal((n, n))
    return a @ a.T + floor * np.eye(n)


def random_general(rng, mx=2, my=1, mz=1):
    return GeneralModel(
        sigma_x=random_spd(rng, mx),
        b=rng.standard_normal((my, mx)),
        e=rng.standard_normal((mz, mx)),
    )


def random_aligned(rng, m=2, degraded=False):
    sigma_wy = random_spd(rng, m)
    if degraded:
        sigma_wz = sigma_wy + random_spd(rng, m)
    else:
        sigma_wz = random_spd(rng, m)
    return AlignedModel(
        sigma_x=random_spd(rng, m), sigma_wy=sigma_wy, sigma_wz=sigma_wz
    )


def ill_conditioned_aligned(rng, m, cond):
    """Aligned model whose source covariance has eigenvalues
    ``geomspace(1, 1 / cond, m)`` on a random orthogonal basis."""
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    sigma_x = (u * np.geomspace(1.0, 1.0 / cond, m)) @ u.T
    return AlignedModel(sigma_x=0.5 * (sigma_x + sigma_x.T), sigma_wy=random_spd(rng, m),
                        sigma_wz=random_spd(rng, m))


def random_conditional(rng, sigma_x, lo=0.05, hi=0.95):
    """Random conditional covariance strictly inside (0, sigma_x)."""
    from gausskey import linalg

    n = sigma_x.shape[0]
    s_half = linalg.roots(sigma_x)[0]
    z = rng.standard_normal((n, n))
    v, _ = np.linalg.qr(z)
    u = rng.uniform(lo, hi, size=n)
    return linalg.symmetrize(s_half @ ((v * u) @ v.T) @ s_half)
