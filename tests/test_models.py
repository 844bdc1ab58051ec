import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from gausskey import (
    AlignedModel,
    ConditionalCov,
    GeneralModel,
    SweepParams,
    brute_force_grid,
    certify,
    cross_validate,
    gen_eigs,
    inner_convex,
    linalg,
    perturb_svd,
    rates_aligned,
    rates_general,
    solve_at_rate,
    sweep_boundary,
    to_aligned,
    to_general,
    validate_model,
)
from gausskey.errors import (
    AsymmetricInput,
    CertificateError,
    DimensionMismatch,
    InvalidConditionalCov,
    ModelValidationError,
    NearSingular,
    NonPositiveAlpha,
    NotPositiveDefinite,
    SolverFailure,
)
from gausskey.models import whiten

from conftest import (
    ill_conditioned_aligned,
    random_aligned,
    random_conditional,
    random_general,
    random_spd,
    rng_for,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_demo_model(degraded_demo):
    assert validate_model(degraded_demo) is degraded_demo


def test_zero_source_covariance_rejected():
    with pytest.raises(NotPositiveDefinite):
        GeneralModel(sigma_x=np.zeros((2, 2)), b=[[1.0, 0.5]], e=[[0.7, 0.35]])


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        GeneralModel(sigma_x=np.eye(2), b=[[1.0, 0.5, 0.2]], e=[[0.7, 0.35]])


def test_asymmetric_source_rejected():
    with pytest.raises(AsymmetricInput):
        GeneralModel(
            sigma_x=[[1.0, 0.3], [0.2, 1.0]], b=[[1.0, 0.0]], e=[[0.5, 0.0]]
        )


def test_aligned_validation():
    with pytest.raises(NotPositiveDefinite):
        AlignedModel(sigma_x=np.eye(2), sigma_wy=np.zeros((2, 2)), sigma_wz=np.eye(2))
    with pytest.raises(DimensionMismatch):
        AlignedModel(sigma_x=np.eye(2), sigma_wy=np.eye(3), sigma_wz=np.eye(2))


NON_FINITE = [(kind, field, value)
              for kind, fields in ((GeneralModel, ("sigma_x", "b", "e")),
                                   (AlignedModel, ("sigma_x", "sigma_wy", "sigma_wz")))
              for field in fields for value in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("kind,field,value", NON_FINITE,
                         ids=[f"{k.__name__}-{f}-{v}" for k, f, v in NON_FINITE])
def test_non_finite_entries_are_refused(kind, field, value):
    # a NaN passed the symmetry test (its comparison is false) and an inf
    # entry made a - a^T NaN; such a model validated and solved to rk = 0
    if kind is GeneralModel:
        fields = {"sigma_x": 2.0 * np.eye(2), "b": [[1.0, 0.5]], "e": [[0.7, 0.35]]}
    else:
        fields = {"sigma_x": 2.0 * np.eye(2), "sigma_wy": np.eye(2), "sigma_wz": 2.0 * np.eye(2)}
    mat = np.array(fields[field], dtype=float)
    mat[-1, -1] = value
    with pytest.raises(ModelValidationError, match="non-finite"):
        kind(**{**fields, field: mat})


def test_models_are_immutable(degraded_demo):
    with pytest.raises(ValueError):
        degraded_demo.sigma_x[0, 0] = 5.0


@pytest.mark.parametrize("kind", ["general", "aligned", "conditional"])
def test_frozen_arrays_cannot_be_made_writable(kind):
    # each array was a read-only array that owned its data, so
    # setflags(write=True) succeeded and a validated model could be mutated
    rng = rng_for(7100)
    obj = {"general": lambda: random_general(rng, 2),
           "aligned": lambda: random_aligned(rng, 2),
           "conditional": lambda: ConditionalCov(np.eye(2))}[kind]()
    for f in dataclasses.fields(obj):
        arr = getattr(obj, f.name)
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        with pytest.raises(ValueError):
            arr[0, 0] = -5.0


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_rebuilt_through_the_constructor(copy_of):
    # an unpickled model came back with writable arrays, and without running
    # __post_init__; it would also have carried the original's caches
    rng = rng_for(7101)
    m = random_aligned(rng, 3)
    whiten(m), to_general(m)
    for obj in (m, random_general(rng, 2), ConditionalCov(np.eye(2))):
        twin = copy_of(obj)
        assert type(twin) is type(obj)
        for f in dataclasses.fields(obj):
            assert np.array_equal(getattr(twin, f.name), getattr(obj, f.name))
            assert not getattr(twin, f.name).flags.writeable
        assert "_white" not in vars(twin) and "_general" not in vars(twin)
    bad = copy.copy(m)
    object.__setattr__(bad, "sigma_wz", -np.eye(3))
    with pytest.raises(NotPositiveDefinite):
        pickle.loads(pickle.dumps(bad))


def test_cached_constants_match_fresh_computations():
    rng = rng_for(7102)
    for mx in (1, 2, 4):
        m = random_aligned(rng, mx)
        fresh = {
            "_roots": linalg.roots(m.sigma_x),
            "_sigma_x_sym": (linalg.symmetrize(m.sigma_x),),
            "_logdets": tuple(linalg.logdet_pd(m.sigma_x + w)
                              for w in (0.0, m.sigma_wz, m.sigma_wy)),
            "_inverses": (linalg.inv_pd(m.sigma_wz), linalg.inv_pd(m.sigma_x + m.sigma_wz)),
        }
        for name, want in fresh.items():
            got = getattr(m, name)
            got = got if isinstance(got, tuple) else (got,)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
                assert not isinstance(a, np.ndarray) or not a.flags.writeable
            assert getattr(m, name) is getattr(m, name)
        s_half, s_half_inv = linalg.roots(m.sigma_x)
        w, s, s_inv = whiten(m)
        assert whiten(m) is whiten(m)
        gen = to_general(m)
        assert to_general(m) is gen
        assert gen.b.tobytes() == linalg.roots(m.sigma_wy)[1].tobytes()
        assert gen.e.tobytes() == linalg.roots(m.sigma_wz)[1].tobytes()
        assert s.tobytes() == s_half.tobytes() and s_inv.tobytes() == s_half_inv.tobytes()
        assert w.sigma_x.tobytes() == np.eye(mx).tobytes()
        for got, noise in ((w.sigma_wy, m.sigma_wy), (w.sigma_wz, m.sigma_wz)):
            assert got.tobytes() == linalg.congruence(s_half_inv, noise).tobytes()
        assert not (s.flags.writeable or s_inv.flags.writeable)


def test_a_constructed_model_is_validated_once(monkeypatch):
    m = random_aligned(rng_for(7103), 2)
    monkeypatch.setattr(linalg, "require_pd", lambda *args: pytest.fail("validated again"))
    assert validate_model(m) is m


def test_conditional_cov_gates(degraded_demo):
    good = ConditionalCov.for_model(degraded_demo, np.eye(2))
    assert np.allclose(good.value, np.eye(2))
    with pytest.raises(InvalidConditionalCov):
        ConditionalCov.for_model(degraded_demo, np.zeros((2, 2)))
    with pytest.raises(InvalidConditionalCov):
        ConditionalCov.for_model(degraded_demo, 3.0 * np.eye(2))
    with pytest.raises(InvalidConditionalCov):
        ConditionalCov.for_model(degraded_demo, np.eye(3))


def test_conditional_cov_interval_is_scale_free(degraded_demo):
    # the interval is tested relative to sigma_x (= 2 I here), so scaling
    # sigma_x and Q together keeps every decision
    sigma_x = degraded_demo.sigma_x
    rot = np.array([[0.8, -0.6], [0.6, 0.8]])
    candidates = [
        (np.eye(2), True), (sigma_x, True), ((1.0 - 1e-12) * sigma_x, True),
        (1e-3 * np.eye(2), True), (rot @ np.diag([2.0, 1e-4]) @ rot.T, True),
        (np.zeros((2, 2)), False), (3.0 * np.eye(2), False), (1e-11 * sigma_x, False),
        ((1.0 + 1e-6) * sigma_x, False), (rot @ np.diag([2.0 + 1e-6, 1.0]) @ rot.T, False),
    ]
    for c in (1.0, 1e-9, 1e9):
        m = GeneralModel(sigma_x=c * sigma_x, b=degraded_demo.b, e=degraded_demo.e)
        for q, valid in candidates:
            if valid:
                ConditionalCov.for_model(m, c * q)
            else:
                with pytest.raises(InvalidConditionalCov):
                    ConditionalCov.for_model(m, c * q)


@pytest.mark.parametrize("key", range(7000, 7003))
def test_the_corner_is_accepted_at_any_condition_number(key):
    # the pencil (sigma_x, sigma_x) misses 1 by about eps cond(sigma_x), past
    # the interval test's 1e-10 at cond 1e8; Q = sigma_x is the corner itself
    m = ill_conditioned_aligned(rng_for(key), 4, 1e8)
    assert np.array_equal(ConditionalCov.for_model(m, m.sigma_x).value, m.sigma_x)
    pair = rates_aligned(m, m.sigma_x)
    assert (pair.rp, pair.rk) == (0.0, 0.0)
    assert solve_at_rate(m, 0.0).value == 0.0
    # a zero curve answers the corner at every budget; it leaves the whitened
    # frame as sigma_x exactly, where S I S missed it and certify refused it
    twin = AlignedModel(m.sigma_x, 2 * m.sigma_wz, m.sigma_wz)
    for rp in (0.5, 4.0):
        report = solve_at_rate(twin, rp)
        assert report.optimum.value.tobytes() == twin._sigma_x_sym.tobytes()
        assert report.converged and report.value == 0.0
        assert certify(twin, report.optimum, rp).max_residual < 1e-6


# ---------------------------------------------------------------------------
# aligned reduction
# ---------------------------------------------------------------------------

def test_to_aligned_identity_observations():
    m = GeneralModel(sigma_x=np.eye(2), b=np.eye(2), e=np.eye(2))
    al = to_aligned(m)
    assert np.allclose(al.sigma_wy, np.eye(2))
    assert np.allclose(al.sigma_wz, np.eye(2))


def test_to_aligned_scalar_scaling():
    m = GeneralModel(sigma_x=np.eye(2), b=2.0 * np.eye(2), e=np.eye(2))
    al = to_aligned(m)
    assert np.allclose(al.sigma_wy, 0.25 * np.eye(2))
    assert np.allclose(al.sigma_wz, np.eye(2))


def test_to_aligned_requires_full_column_rank():
    for b in ([[1.0, 0.5]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]):
        with pytest.raises(NearSingular, match="perturb_svd"):
            to_aligned(GeneralModel(sigma_x=np.eye(2), b=b, e=np.eye(2)))
    # a tall B of full column rank reduces to (B^T B)^-1
    b = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    al = to_aligned(GeneralModel(sigma_x=np.eye(2), b=b, e=np.eye(2)))
    assert np.allclose(al.sigma_wy, np.linalg.inv(b.T @ b), rtol=0.0, atol=1e-15)


def _rel_close(a, b, rtol):
    return np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


def test_to_aligned_matches_the_square_inverse():
    # the QR reduction against the square B's own B^-1 B^-T, to 1e-12
    rng = rng_for(24)
    for k in range(200):
        mx = 1 + k % 6
        m = GeneralModel(sigma_x=random_spd(rng, mx), b=rng.standard_normal((mx, mx)),
                         e=rng.standard_normal((mx, mx)))
        al = to_aligned(m)
        for mat, noise in ((m.b, al.sigma_wy), (m.e, al.sigma_wz)):
            inv = np.linalg.solve(mat, np.eye(mx))
            assert _rel_close(noise, linalg.symmetrize(inv @ inv.T), 1e-12)


def _certifies(m, q, rp):
    try:
        return certify(m, q, rp).max_residual < 1e-6
    except CertificateError:
        return False


def test_to_aligned_keeps_the_row_laws():
    # Y = B X + W and its transforms below carry the same information about
    # X, so they reduce to the same aligned model and the same optimum
    rng = rng_for(25)
    certified = 0
    for k in range(6):
        mx = 1 + k % 3
        b = rng.standard_normal((mx + k % 2, mx))
        m = GeneralModel(sigma_x=random_spd(rng, mx), b=b,
                         e=rng.standard_normal((mx, mx)))
        al = to_aligned(m)
        rotation = np.linalg.qr(rng.standard_normal((b.shape[0], b.shape[0])))[0]
        pairs = [(np.vstack([b, np.zeros((1, mx))]), b), (rotation @ b, b),
                 (np.vstack([b, b]), math.sqrt(2.0) * b)]
        rp = 0.3 + 0.5 * k
        for got_b, want_b in pairs:
            got = to_aligned(GeneralModel(sigma_x=m.sigma_x, b=got_b, e=m.e))
            want = to_aligned(GeneralModel(sigma_x=m.sigma_x, b=want_b, e=m.e))
            assert _rel_close(got.sigma_wy, want.sigma_wy, 1e-12)
            assert np.array_equal(got.sigma_wz, want.sigma_wz)
            reports = [solve_at_rate(a, rp) for a in (got, want)]
            if all(_certifies(a, r.optimum, rp) for a, r in zip((got, want), reports)):
                assert reports[0].value == pytest.approx(reports[1].value, abs=1e-9)
                certified += 1
        back = to_aligned(to_general(al))
        for name in ("sigma_wy", "sigma_wz"):
            assert _rel_close(getattr(back, name), getattr(al, name), 1e-12)
        assert np.array_equal(back.sigma_x, al.sigma_x)
    assert certified >= 16


def test_aligned_reduction_preserves_rates():
    # both rate functionals agree between the general form and its aligned
    # reduction, for random invertible 3x3 observation matrices
    rng = rng_for(21)
    for _ in range(100):
        sigma_x = random_spd(rng, 3)
        b = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
        e = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
        m = GeneralModel(sigma_x=sigma_x, b=b, e=e)
        al = to_aligned(m)
        q = random_conditional(rng, sigma_x)
        pg = rates_general(m, q)
        pa = rates_aligned(al, q)
        assert pg.rp == pytest.approx(pa.rp, abs=1e-8)
        assert pg.rk == pytest.approx(pa.rk, abs=1e-8)


def test_to_general_roundtrip():
    rng = rng_for(22)
    al = AlignedModel(
        sigma_x=random_spd(rng, 2),
        sigma_wy=random_spd(rng, 2),
        sigma_wz=random_spd(rng, 2),
    )
    gen = to_general(al)
    q = random_conditional(rng, al.sigma_x)
    pa = rates_aligned(al, q)
    pg = rates_general(gen, q)
    assert pg.rp == pytest.approx(pa.rp, abs=1e-10)
    assert pg.rk == pytest.approx(pa.rk, abs=1e-10)


def test_converters_return_a_model_already_in_form():
    a = AlignedModel(sigma_x=np.eye(2), sigma_wy=np.eye(2), sigma_wz=2.0 * np.eye(2))
    g = GeneralModel(sigma_x=np.eye(2), b=np.eye(2), e=[[1.0, 0.5]])
    assert to_aligned(a) is a
    assert to_general(g) is g


@pytest.mark.parametrize("entry, call", [
    ("brute_force_grid", lambda m: brute_force_grid(m, 0.5, grid_density=20)),
    ("cross_validate", lambda m: cross_validate(m, 0.5 * m.sigma_x, 2000, 0)),
    ("sweep_boundary", lambda m: sweep_boundary(m, [0.5], st_resolution=20)),
    ("inner_convex", lambda m: inner_convex(m, SweepParams(s=1.0, t=0.0))),
])
def test_general_model_entries_take_or_refuse_an_aligned_model(entry, call):
    """The oracle and Monte Carlo work on ``to_general(m)``, which has the
    same rates; the sweep and its cell kernel refuse an aligned model with a
    ``SolverFailure``, as they refuse vector observations."""
    rng = rng_for(23)
    al = AlignedModel(sigma_x=random_spd(rng, 2), sigma_wy=random_spd(rng, 2),
                      sigma_wz=random_spd(rng, 2))
    if entry in ("sweep_boundary", "inner_convex"):
        with pytest.raises(SolverFailure, match="general model"):
            call(al)
    else:
        assert call(al) == call(to_general(al))


# ---------------------------------------------------------------------------
# SVD perturbation
# ---------------------------------------------------------------------------

def test_perturb_invertible_small_alpha():
    rng = rng_for(23)
    m = GeneralModel(
        sigma_x=random_spd(rng, 2),
        b=rng.standard_normal((2, 2)) + np.eye(2),
        e=rng.standard_normal((2, 2)) + np.eye(2),
    )
    pair = perturb_svd(m, 1e-6)
    assert 0.0 <= pair.gap < 1e-4


def test_perturb_rejects_nonpositive_alpha(degraded_demo):
    with pytest.raises(NonPositiveAlpha):
        perturb_svd(degraded_demo, 0.0)
    with pytest.raises(NonPositiveAlpha):
        perturb_svd(degraded_demo, -0.1)


def test_perturb_gap_matches_direct_determinants(degraded_demo):
    # rank-1 observation padded to 2x2; the gap must equal the log ratio of
    # the two determinants evaluated by the plain 2x2 formula
    pair = perturb_svd(degraded_demo, 0.1)
    e_bar = pair.model_bar.e
    cov = e_bar @ degraded_demo.sigma_x @ e_bar.T + np.eye(2)
    det_bar = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    e = degraded_demo.e[0]
    det_orig = float(e @ degraded_demo.sigma_x @ e) + 1.0  # = 2.225
    assert det_orig == pytest.approx(2.225)
    assert pair.gap == pytest.approx(0.5 * math.log(det_bar) - 0.5 * math.log(det_orig),
                                     abs=1e-12)
    # perturbed matrices are invertible
    assert np.linalg.matrix_rank(pair.model_bar.b) == 2
    assert np.linalg.matrix_rank(pair.model_bar.e) == 2


def test_perturb_gap_decreases(degraded_demo):
    gaps = [perturb_svd(degraded_demo, a).gap for a in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


def test_perturbed_region_contains_original_rates(degraded_demo):
    # the perturbed model dominates: at the same conditional covariance the
    # achievable key rate of the original differs by at most the gap
    rng = rng_for(24)
    pair = perturb_svd(degraded_demo, 0.05)
    for _ in range(20):
        q = random_conditional(rng, degraded_demo.sigma_x)
        rk_orig = rates_general(degraded_demo, q).rk
        rk_bar = rates_general(pair.model_bar, q).rk
        assert rk_orig <= rk_bar + pair.gap + 1e-9


# ---------------------------------------------------------------------------
# generalized eigenvalues
# ---------------------------------------------------------------------------

def test_gen_eigs_equal_observations():
    m = GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[1.0, 0.5]])
    res = gen_eigs(m)
    assert np.allclose(res.phis, 1.0, atol=1e-12)
    assert res.rho == 0


def test_gen_eigs_crossing_demo(crossing_demo):
    # independent oracle: the 2x2 pencil's characteristic polynomial is
    # 3.5 phi^2 - 9.25 phi + 3.5
    roots = np.sort(np.roots([3.5, -9.25, 3.5]))[::-1]
    res = gen_eigs(crossing_demo)
    assert np.allclose(res.phis, roots, atol=1e-6)
    assert res.rho == 1


def test_gen_eigs_degraded_demo(degraded_demo):
    # brute-force determinant root-finding on the pencil
    s_half = linalg.roots(degraded_demo.sigma_x)[0]
    a = s_half @ degraded_demo.b.T @ degraded_demo.b @ s_half + np.eye(2)
    c = s_half @ degraded_demo.e.T @ degraded_demo.e @ s_half + np.eye(2)
    grid = np.linspace(0.0, 4.0, 5)
    coeffs = np.polyfit(grid, [np.linalg.det(a - p * c) for p in grid], 2)
    roots = np.sort(np.roots(coeffs))[::-1]
    res = gen_eigs(degraded_demo)
    assert np.allclose(res.phis, roots, atol=1e-8)
    above = res.phis[res.phis > 1.0 + 1e-12]
    assert np.sum(np.log(above)) == pytest.approx(math.log(3.5 / 2.225), abs=1e-10)


def test_gen_eigs_product_identity():
    rng = rng_for(25)
    for _ in range(50):
        sigma_x = random_spd(rng, int(rng.integers(1, 4)))
        n = sigma_x.shape[0]
        m = GeneralModel(
            sigma_x=sigma_x,
            b=rng.standard_normal((int(rng.integers(1, 4)), n)),
            e=rng.standard_normal((int(rng.integers(1, 4)), n)),
        )
        res = gen_eigs(m)
        s_half = linalg.roots(sigma_x)[0]
        a = s_half @ m.b.T @ m.b @ s_half + np.eye(n)
        c = s_half @ m.e.T @ m.e @ s_half + np.eye(n)
        ratio = np.linalg.det(a) / np.linalg.det(c)
        assert np.prod(res.phis) == pytest.approx(ratio, rel=1e-10)
