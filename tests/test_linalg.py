import math

import numpy as np
import pytest

from gausskey import linalg
from gausskey.errors import (AsymmetricInput, DimensionMismatch, ModelValidationError,
                             NotPositiveDefinite)

from conftest import random_spd, rng_for


def test_logdet_product_identity():
    # log|AB| = log|A| + log|B| on random SPD pairs
    rng = rng_for(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        lhs = np.linalg.slogdet(a @ b)[1]
        rhs = linalg.logdet_pd(a) + linalg.logdet_pd(b)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_logdet_matches_slogdet():
    rng = rng_for(12)
    for _ in range(30):
        a = random_spd(rng, 3)
        assert linalg.logdet_pd(a) == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12)


def test_check_symmetric_gates():
    with pytest.raises(DimensionMismatch):
        linalg.check_symmetric(np.ones((2, 3)))
    with pytest.raises(AsymmetricInput):
        linalg.check_symmetric(np.array([[1.0, 0.2], [0.1, 1.0]]))
    # round-off asymmetry passes and is removed
    a = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
    out = linalg.check_symmetric(a)
    assert np.array_equal(out, out.T)


def test_pd_checks_and_tolerances():
    assert linalg.is_pd(np.eye(2))
    assert not linalg.is_pd(np.zeros((2, 2)))
    # PSD tolerance is relative to the eigenvalue scale
    a = np.diag([1.0, -1e-12])
    assert linalg.is_psd(a)
    assert not linalg.is_psd(np.diag([1.0, -1e-6]))
    with pytest.raises(NotPositiveDefinite):
        linalg.require_pd(np.diag([1.0, 0.0]), "probe")


def test_model_checks_judge_each_matrix_at_its_own_scale():
    # the rates do not change under scaling, so neither may a model check:
    # symmetry and strict PD give the same answer on c * a at every c
    rot = np.array([[0.8, -0.6], [0.6, 0.8]])
    pd_cases = [
        (np.eye(2), True), (rot @ np.diag([1.0, 1e-8]) @ rot.T, True),
        (rot @ np.diag([1.0, 1e-11]) @ rot.T, False), (np.diag([1.0, 0.0]), False),
        (np.diag([1.0, -1e-3]), False), (np.zeros((2, 2)), False),
    ]
    sym_cases = [
        (np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]]), True), (np.zeros((2, 2)), True),
        (np.array([[1.0, 0.5 + 1e-9], [0.5, 1.0]]), False),
    ]
    for c in (1e-12, 1.0, 1e12):
        for a, pd in pd_cases:
            assert linalg.is_pd(c * a) is pd
            if pd:
                linalg.require_pd(c * a, "probe")
            else:
                with pytest.raises(NotPositiveDefinite):
                    linalg.require_pd(c * a, "probe")
        for a, symmetric in sym_cases:
            if symmetric:
                linalg.check_symmetric(c * a)
            else:
                with pytest.raises(AsymmetricInput):
                    linalg.check_symmetric(c * a)


def test_psd_tolerance_is_relative_from_unit_scale_up():
    # a matrix on the edge of the cone is zero up to round-off, so is_psd
    # floors its tolerance at PSD_RTOL: relative at and above unit scale,
    # absolute below it, where round-off of a zero matrix passes
    for c in (1.0, 1e12):
        assert linalg.is_psd(c * np.diag([1.0, -1e-12]))
        assert not linalg.is_psd(c * np.diag([1.0, -1e-6]))
    assert linalg.is_psd(1e-17 * np.diag([1.0, -1.0]))
    assert linalg.is_psd(1e-12 * np.diag([1.0, -1e-6]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_check_symmetric_refuses_non_finite_entries(value):
    with pytest.raises(ModelValidationError, match="non-finite"):
        linalg.check_symmetric(np.array([[1.0, 0.0], [0.0, value]]))


def test_sqrtm_and_inverse_roundtrip():
    # roots(a) = (S, S^-1) with S S = a and S^-1 a S^-1 = I
    rng = rng_for(13)
    for _ in range(20):
        a = random_spd(rng, 3)
        root, inv_root = linalg.roots(a)
        assert np.allclose(root @ root, a, atol=1e-10)
        assert np.allclose(inv_root @ a @ inv_root, np.eye(3), atol=1e-9)
        assert np.allclose(root @ inv_root, np.eye(3), atol=1e-9)
        assert np.allclose(linalg.inv_pd(a) @ a, np.eye(3), atol=1e-9)


def test_stacked_kernels_match_per_matrix_byte_for_byte():
    # a stack is factored, inverted and log-det'ed slice by slice, with the
    # arithmetic of the per-matrix helpers
    rng = rng_for(15)
    for n in range(1, 9):
        stack = np.array([random_spd(rng, n) for _ in range(5)]).reshape(5, 1, n, n)
        lower = linalg.chol_lower(stack)
        inv, logdet = linalg.inv_chol(lower), linalg.logdet_chol(lower)
        assert lower.shape == inv.shape == (5, 1, n, n) and logdet.shape == (5, 1)
        for k in range(5):
            a = stack[k, 0]
            assert linalg.chol_lower(a).tobytes() == lower[k, 0].tobytes()
            assert linalg.inv_pd(a).tobytes() == inv[k, 0].tobytes()
            assert np.float64(linalg.logdet_pd(a)).tobytes() == logdet[k, 0].tobytes()


def test_gen_eig_pencil_against_char_poly():
    # roots of det(A - phi C) via polynomial coefficients from sampled dets
    rng = rng_for(14)
    for _ in range(20):
        a = random_spd(rng, 2)
        c = random_spd(rng, 2)
        phis = linalg.gen_eig_pencil(a, c)
        grid = np.linspace(0.0, float(np.max(phis)) * 2 + 1.0, 5)
        dets = [np.linalg.det(a - p * c) for p in grid]
        coeffs = np.polyfit(grid, dets, 2)
        roots = np.sort(np.roots(coeffs))[::-1]
        assert np.allclose(phis, roots, rtol=1e-8, atol=1e-10)


def test_eig_floor_and_clip():
    a = np.diag([2.0, -1.0])
    floored = linalg.eig_clip(a, 0.5, np.inf)
    assert linalg.min_eig(floored) >= 0.5 - 1e-12
    assert linalg.eigvals_sym(floored)[-1] == pytest.approx(2.0, abs=1e-12)
    clipped = linalg.eig_clip(a, 0.0, 1.0)
    w = np.linalg.eigvalsh(clipped)
    assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12


def test_rel_residual_normalization():
    x = np.eye(2)
    assert linalg.rel_residual(x) == pytest.approx(math.sqrt(2.0))
    denom = 1.0 + linalg.frob(3.0 * np.eye(2))
    assert linalg.rel_residual(x, 3.0 * np.eye(2)) == pytest.approx(
        math.sqrt(2.0) / denom
    )


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="numpy's long double is the double here")
def test_congruence_rounded_is_the_product_rounded_once():
    # t a t cancels where a shrinks t's largest direction, as an optimum
    # whose free direction is the source's strongest does: the once-rounded
    # product is within an ulp of the exact one, which the product rounded
    # term by term misses by far more
    from fractions import Fraction
    rng = rng_for(13)
    worst_once = worst_naive = 0.0
    for _ in range(20):
        w = np.geomspace(1.0, 1e4, 4)
        v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        t = linalg.symmetrize((v * w) @ v.T)
        top = v[:, -1] + 1e-3 * rng.standard_normal(4)
        a = linalg.symmetrize(np.eye(4) - 0.9 * np.outer(top, top) / (top @ top))
        tf = [[Fraction(x) for x in row] for row in t]
        af = [[Fraction(x) for x in row] for row in a]
        ta = [[sum(tf[i][k] * af[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        exact = np.array([[float(sum(ta[i][k] * tf[k][j] for k in range(4)))
                           for j in range(4)] for i in range(4)])
        exact = linalg.symmetrize(exact)
        once, naive = linalg.congruence_rounded(t, a), linalg.congruence(t, a)
        assert np.array_equal(once, once.T)
        scale = np.spacing(np.abs(exact))
        worst_once = max(worst_once, float(np.max(np.abs(once - exact) / scale)))
        worst_naive = max(worst_naive, float(np.max(np.abs(naive - exact) / scale)))
    assert worst_once <= 1.0
    assert worst_naive > 8.0


def _skew(rng, shape, norms):
    """Skew generators of the given spectral norms (largest rotation angles)."""
    gen = rng.standard_normal(shape)
    gen = gen - np.swapaxes(gen, -1, -2)
    return gen * (norms / np.linalg.norm(gen, 2, axis=(-2, -1)))[..., None, None]


def _ortho_error(e):
    return np.max(np.abs(np.swapaxes(e, -1, -2) @ e - np.eye(e.shape[-1])), axis=(-2, -1))


@pytest.mark.parametrize("n", range(2, 9))
def test_cayley_map_is_orthogonal_and_first_order(n):
    # (I - G/2)^-1 (I + G/2) for generators of spectral norm 1e-8 to 1e14:
    # orthogonal within 1e-13 where G is nonsingular (a random skew G of
    # even order), and within 4 eps (1 + |G|) for every G, the face polish's
    # block generators included: where G is singular (odd order, or blocks
    # of unequal size) the solve's round-off of order eps |G| reaches its
    # null directions.  Its central difference at 0 is the generator to
    # O(h^2)
    rng = rng_for(1890 + n)
    norms = np.geomspace(1e-8, 1e14, 12)
    full = _skew(rng, (12, n, n), norms)
    err = _ortho_error(linalg.cayley(full))
    if n % 2 == 0:
        assert np.all(err <= 1e-13)
    blocks = np.zeros((n - 1, 12, n, n))
    for na in range(1, n):
        b = rng.standard_normal((12, na, n - na))
        blocks[na - 1, :, :na, na:], blocks[na - 1, :, na:, :na] = b, -np.swapaxes(b, 1, 2)
    blocks *= (norms / np.linalg.norm(blocks, 2, axis=(-2, -1)))[..., None, None]
    eps = np.finfo(float).eps
    for gen in (full, *blocks):
        assert np.all(_ortho_error(linalg.cayley(gen)) <= 4.0 * eps * (1.0 + norms))
    h = 1e-5
    for g in _skew(rng, (6, n, n), np.ones(6)):
        slope = (linalg.cayley(h * g) - linalg.cayley(-h * g)) / (2.0 * h)
        assert np.max(np.abs(slope - g)) <= 1e-9


def test_stacked_cayley_matches_per_matrix_calls():
    rng = rng_for(71)
    for n in (2, 3, 4, 6):
        gen = _skew(rng, (9, n, n), np.geomspace(1e-6, 3.0, 9))
        stacked = linalg.cayley(gen)
        for g, e in zip(gen, stacked):
            assert e.tobytes() == linalg.cayley(g).tobytes()
