"""The aligned route against a frozen corpus and against per-point references.

``data/aligned_points.json`` holds frozen ``solve_at_rate`` results (see
``data/make_aligned_points.py``): the benchmark's 36 aligned points at mx 2,
4 and 6, the ``scalar_aligned`` fixture and the mx = 2 models of the
certificate tests.  Every point must keep its value, its optimum, its
``converged`` flag and its certificate outcome, including the points whose
certificate raises ``NoValidMultiplier``, and a point reported converged
must certify.  Scaling a model's three covariances by ``c`` scales its
optimum by ``c`` and keeps both rates: frozen benchmark points rescaled by
1e-3 to 1e8 must keep their value and ``sigma / c`` and certify.

The ascent builds its iterates inside the matrix interval and the polish
tests a point's whitened free block against ``1 + FACE_EXCURSION``; one
gate in ``solve_at_rate`` checks every polished candidate.  The per-point
references below mirror that.

The stacked kernels are checked against plain per-point references: the
face-polish residual against the per-point closure it replaces, the stacked
``expm`` against per-matrix calls, and the lockstep multi-start ascent
against the per-start loop.  The line searches that test several step sizes
per stacked call must keep every iterate of the ones they replaced, kept
here as references: the ascent that evaluated one backtracking trial per
call and the polish that evaluated all 30 halvings, down to 2^-29 of the
step, as one stack.  The polish stops at 2^-7, so on its cases the
reference also checks that the halvings below that floor change no
result.  An invalid backtracking trial fails the Armijo test, in both
ascents alike.  Errors that are not a rejected face or an invalid point
must propagate.

Two counts guard the aligned route's cost and reliability without a
clock: the face polishes and the residual rows they evaluate over the
benchmark's points, and the certified points per model on models off the
corpus at mx 3 to 8.
"""

import json
import math
import os
import zlib

import numpy as np
import pytest
import scipy.linalg as sla

from gausskey import AlignedModel, certify, kkt, linalg, solve_at_rate, solver
from gausskey.errors import GausskeyError, NoValidMultiplier
from gausskey.models import COND_COV_MIN_EIG
from gausskey.rates import RatePair, rates_aligned

from conftest import random_aligned, random_conditional, random_spd, rng_for

VALUE_TOL = 1e-10
SIGMA_TOL = 1e-8
CERT_GATE = 1e-6
ROW_RTOL = 1e-12


def _corpus():
    path = os.path.join(os.path.dirname(__file__), "data", "aligned_points.json")
    with open(path) as fh:
        return json.load(fh)["points"]


POINTS = _corpus()


def _model(point):
    return AlignedModel(sigma_x=point["sigma_x"], sigma_wy=point["sigma_wy"],
                        sigma_wz=point["sigma_wz"])


def _certificate_outcome(m, sigma, rp):
    try:
        cert = certify(m, sigma, rp)
    except GausskeyError as exc:
        return type(exc).__name__
    return "certified" if cert.max_residual < CERT_GATE else "uncertified"


def test_frozen_corpus_covers_its_cases():
    bench = [p for p in POINTS if p["model"].startswith("bench_")]
    assert len(bench) == 36
    assert {len(p["sigma_x"]) for p in bench} == {2, 4, 6}
    assert {p["rp"] for p in bench} == {0.5, 1.0, 2.0, 4.0}
    assert sum(p["certificate"] == "NoValidMultiplier" for p in bench) == 2
    assert any(not p["converged"] for p in POINTS)
    assert "scalar_aligned" in {p["model"] for p in POINTS}


@pytest.mark.parametrize("point", POINTS,
                         ids=[f"{p['model']}-rp{p['rp']}" for p in POINTS])
def test_frozen_point_keeps_its_optimum(point):
    m = _model(point)
    report = solve_at_rate(m, point["rp"])
    assert abs(report.value - point["value"]) <= VALUE_TOL
    assert linalg.frob(report.optimum.value - np.array(point["sigma"])) <= SIGMA_TOL
    assert report.converged == point["converged"]
    assert _certificate_outcome(m, report.optimum, point["rp"]) == point["certificate"]


SCALED = [(name, rp, c) for name in ("bench_mx2_key2001", "bench_mx4_key2005",
                                     "bench_mx6_key2009")
          for rp in (0.5, 2.0) for c in (1e-3, 1e4, 1e6, 1e8)]


@pytest.mark.parametrize("name,rp,c", SCALED, ids=[f"{n}-rp{r}-x{c:g}" for n, r, c in SCALED])
def test_rescaled_model_keeps_its_optimum(name, rp, c):
    # scaling all three covariances by c scales every admissible Q by c and
    # leaves both rates unchanged; the absolute tolerances of a re-checked
    # interval used to reject the rounding of the corner start S I S
    point = next(p for p in POINTS if p["model"] == name and p["rp"] == rp)
    m = AlignedModel(*(c * np.array(point[k]) for k in ("sigma_x", "sigma_wy", "sigma_wz")))
    report = solve_at_rate(m, rp)
    assert abs(report.value - point["value"]) <= 1e-9
    assert linalg.frob(report.optimum.value / c - np.array(point["sigma"])) <= 1e-8
    assert _certificate_outcome(m, report.optimum, rp) == "certified"


def test_converged_points_certify():
    # converged only says the polish solved the system of its face; on a
    # wrong face that is not optimality, and the certificate must catch it
    wrong = []
    for point in POINTS:
        m = _model(point)
        report = solve_at_rate(m, point["rp"])
        outcome = _certificate_outcome(m, report.optimum, point["rp"])
        if report.converged and outcome != "certified":
            wrong.append(f"{point['model']} rp {point['rp']}: {outcome}")
    assert not wrong


def _fresh_model(key):
    """Aligned model off the corpus: sigma_x, sigma_wy and sigma_wz drawn in
    that order, mx = 2 + key mod 4."""
    rng = rng_for(key)
    mx = 2 + key % 4
    sigma_x = random_spd(rng, mx)
    sigma_wy = random_spd(rng, mx)
    return AlignedModel(sigma_x=sigma_x, sigma_wy=sigma_wy, sigma_wz=random_spd(rng, mx))


@pytest.mark.parametrize("key,rp", [(5002, 1.5), (5007, 5.0), (5011, 3.0), (5011, 5.0)])
def test_wrong_face_point_is_not_converged(key, rp):
    # the polish solves some face's system to round-off here, but the point
    # has no valid multiplier: it must not be reported converged
    m = _fresh_model(key)
    report = solve_at_rate(m, rp)
    assert report.kkt_residual < 1e-8
    with pytest.raises(NoValidMultiplier):
        kkt.recover_multipliers(m, report.optimum, rp)
    assert not report.converged
    assert _certificate_outcome(m, report.optimum, rp) == "NoValidMultiplier"


@pytest.mark.parametrize("rp", [0.001, 0.01, 0.03])
def test_a_multiplier_far_above_the_weight_floor_keeps_the_budget(rp):
    # a low-noise Y: the multiplier at the corner is 49.5, and at the weight
    # floor PENALTY_RHO every start ends over the budget below rp 0.038.
    # The scalar rate binds, so the optimum is closed form.
    m = AlignedModel(sigma_x=[[1.0]], sigma_wy=[[0.01]], sigma_wz=[[1.0]])
    assert kkt.closed_form_mu(m, m.sigma_x) > 4.0 * solver.PENALTY_RHO
    report = solve_at_rate(m, rp)
    sigma = 0.01 / (1.01 * math.exp(2.0 * rp) - 1.0)
    assert abs(report.value - rates_aligned(m, [[sigma]]).rk) <= VALUE_TOL
    assert report.converged
    assert _certificate_outcome(m, report.optimum, rp) == "certified"


def test_the_corner_multiplier_bounds_the_interval():
    # what makes the ascent's penalty exact (see solver._penalty_weight):
    # the gradient ratio is largest at Q = sigma_x
    rng = rng_for(97)
    for mx in (1, 2, 3, 4, 6):
        for degraded in (False, True):
            m = random_aligned(rng, mx, degraded)
            corner = kkt.closed_form_mu(m, m.sigma_x)
            for hi in np.repeat((0.1, 0.5, 0.9, 0.99, 0.9999), 4):
                sigma = random_conditional(rng, m.sigma_x, lo=0.01, hi=hi)
                assert kkt.closed_form_mu(m, sigma) <= corner * (1.0 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# the order of the face polish's candidates
# ---------------------------------------------------------------------------

def _reference_schedule(n_active_guess, mx):
    """The candidate list the face schedule replaced: every factor of the
    detected face before the next face."""
    order = [n_active_guess] + [k for k in range(mx) if k != n_active_guess]
    return [(n_active, f) for idx, n_active in enumerate(order)
            for f in ((1.0, 2.0, 0.5, 4.0, 0.25) if idx == 0 else (1.0, 2.0))]


@pytest.mark.parametrize("mx", range(1, 7))
def test_face_schedule_tries_each_candidate_once(mx):
    for g in range(mx + 1):
        got = solver._face_schedule(g, mx)
        want = _reference_schedule(g, mx)
        assert len(got) == len(set(got))
        assert set(got) == set(want)
        faces = [g, *range(g + 1, mx), *range(g - 1, -1, -1)]
        assert [c[0] for c in got[:len(faces)]] == faces
        assert [f for _, f in got] == [1.0] * len(faces) + [2.0] * len(faces) + [0.5, 4.0, 0.25]


def test_face_polish_calls_on_the_benchmark_points(monkeypatch):
    # 169 calls at the schedule that tried every factor of the detected
    # face before the next face; 34,532 residual rows with the line search
    # that halved down to 2^-29, 10,824 with the floor at 2^-7; 80 calls
    # with the rate-slack faces, 72 and 10,054 rows without them; 10,262
    # once the pencil whitening moved to numpy (last bits of the mu hint);
    # 10,010 with the polish's interval test on the whitened free block
    calls = []
    rows = []
    polish = solver._polish_face
    residuals = solver._FaceSystem.residuals

    def counted(*args, **kwargs):
        calls.append(args)
        return polish(*args, **kwargs)

    def counted_rows(face, xs):
        rows.append(len(xs))
        return residuals(face, xs)

    monkeypatch.setattr(solver, "_polish_face", counted)
    monkeypatch.setattr(solver._FaceSystem, "residuals", counted_rows)
    for point in POINTS:
        if point["model"].startswith("bench_"):
            solve_at_rate(_model(point), point["rp"])
    assert len(calls) <= 81
    assert sum(rows) <= 11_050


# Certified points per model off the corpus, at rates 0.25, 0.5, 1, 2 and 4
# (100 of 110): the benchmark's draw at keys 3300-3305 (mx 3), 3400-3405
# (mx 4), 3600-3605 (mx 6) and 13-16 (mx 8).  The counts may only rise.
RELIABILITY_RATES = (0.25, 0.5, 1.0, 2.0, 4.0)
RELIABILITY_CERTIFIED = {
    **{(3, key): 5 for key in range(3300, 3306)},
    **{(4, key): 5 for key in range(3400, 3406)},
    (6, 3600): 4, (6, 3601): 4, (6, 3602): 5, (6, 3603): 4, (6, 3604): 5, (6, 3605): 5,
    (8, 13): 3, (8, 14): 3, (8, 15): 4, (8, 16): 3,
}


@pytest.mark.parametrize("mx,key", sorted(RELIABILITY_CERTIFIED))
def test_certified_points_off_the_corpus_do_not_fall(mx, key):
    m = _bench_model(key, mx)
    certified = sum(_certificate_outcome(m, solve_at_rate(m, rp).optimum, rp) == "certified"
                    for rp in RELIABILITY_RATES)
    assert certified >= RELIABILITY_CERTIFIED[mx, key]


@pytest.mark.parametrize("key", range(5000, 5018))
def test_face_schedule_keeps_the_reference_schedule_optima(monkeypatch, key):
    m = _fresh_model(key)
    for rp in (0.7, 1.5, 3.0, 5.0):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_face_schedule", _reference_schedule)
            want = solve_at_rate(m, rp)
        got = solve_at_rate(m, rp)
        assert got.value == want.value
        assert np.array_equal(got.optimum.value, want.optimum.value)
        assert got.converged == want.converged
        assert (_certificate_outcome(m, got.optimum, rp)
                == _certificate_outcome(m, want.optimum, rp))


# ---------------------------------------------------------------------------
# stacked face residual against the per-point closure
# ---------------------------------------------------------------------------

def _reference_residual(face, xv):
    """The per-point residual of the face polish, one call per point."""
    m = face.m
    n_qf, n_rot, n_active = face.n_qf, face.n_rot, face.n_active
    q_f = np.einsum("k,kab->ab", xv[:n_qf], face.basis_f)
    w = np.linalg.eigvalsh(q_f)
    if w[0] <= 0.0 or w[-1] > 1.0 + solver.FACE_EXCURSION:
        return None
    u = face.u0
    if n_rot:
        n = u.shape[0]
        gen = np.zeros((n, n))
        idx = 0
        for i in range(n_active):
            for j in range(n_active, n):
                gen[i, j] = xv[n_qf + idx]
                gen[j, i] = -xv[n_qf + idx]
                idx += 1
        u = u @ sla.expm(gen)
    u_a = u[:, :n_active]
    u_f = u[:, n_active:]
    q = u_a @ u_a.T + u_f @ q_f @ u_f.T
    sigma = linalg.symmetrize(face.s_half @ q @ face.s_half)
    mu = math.exp(min(max(xv[-1], -700.0), 60.0))
    try:
        m_w = face.s_half @ kkt.stationarity_matrix(m, sigma, mu) @ face.s_half
        parts = [np.array([float(np.sum((u_f.T @ m_w @ u_f) * s))
                           for s in face.basis_f])]
        if n_rot:
            parts.append((u_a.T @ m_w @ u_f).ravel())
        ip = 0.5 * (face.ld_x - linalg.logdet_pd(sigma)) - 0.5 * (
            face.ld_xy - linalg.logdet_pd(sigma + m.sigma_wy))
        parts.append(np.array([ip - face.rp]))
    except GausskeyError:
        return None
    return np.concatenate(parts)


def _bench_model(key, mx):
    rng = rng_for(key)
    sigma_wy = random_spd(rng, mx)
    return AlignedModel(sigma_x=random_spd(rng, mx), sigma_wy=sigma_wy,
                        sigma_wz=random_spd(rng, mx))


def _face_probes(mx, key):
    """Faces of one model with seeded probes around the polish start: small
    and large perturbations, and free blocks scaled to just inside and just
    outside the whitened bound ``1 + FACE_EXCURSION``."""
    rng = rng_for(key)
    m = _bench_model(2000 + key, mx)
    s_half = linalg.sqrtm_psd(m.sigma_x)
    s_half_inv = linalg.inv_sqrtm_pd(m.sigma_x)
    sigma_hat = random_conditional(rng, m.sigma_x)
    q_hat = linalg.symmetrize(s_half_inv @ sigma_hat @ s_half_inv)
    w, u0 = np.linalg.eigh(q_hat)
    u0 = u0[:, np.argsort(w)[::-1]]
    for n_active in range(mx):
        face = solver._FaceSystem(m, 1.0, s_half, u0, n_active)
        nx = face.n_qf + face.n_rot + 1
        x0 = np.zeros(nx)
        u_f0 = u0[:, n_active:]
        q_free0 = u_f0.T @ q_hat @ u_f0
        x0[:face.n_qf] = [np.sum(q_free0 * s) / np.sum(s * s) for s in face.basis_f]
        x0[-1] = math.log(0.7)
        probes = [x0 + scale * rng.standard_normal(nx)
                  for scale in (1e-7, 1e-3, 0.05, 0.3, 1.0) for _ in range(3)]
        if n_active == 0:
            # free block c * I: sigma_x - sigma = (1 - c) sigma_x
            eye_x = np.array([float(s.sum() == 1.0) for s in face.basis_f])
            for rel in (1.0 - 1e-6, 1.0 + 1e-6):
                c = 1.0 + rel * solver.FACE_EXCURSION
                x = np.zeros(nx)
                x[:face.n_qf] = c * eye_x
                x[-1] = math.log(0.7)
                probes.append(x)
        yield face, np.array(probes)


@pytest.mark.parametrize("mx", [2, 4, 6])
def test_stacked_face_residual_matches_per_point(mx):
    n_invalid = n_valid = n_outside = 0
    for key in range(2):
        for face, probes in _face_probes(mx, key):
            rows, valid = face.residuals(probes)
            for x, row, ok in zip(probes, rows, valid):
                ref = _reference_residual(face, x)
                assert ok == (ref is not None)
                if ref is None:
                    n_invalid += 1
                    assert np.isnan(row).all()
                    continue
                n_valid += 1
                assert np.all(np.abs(row - ref) <= ROW_RTOL * (1.0 + np.abs(ref)))
            if face.n_active == 0:
                # the last two probes straddle the whitened bound
                assert list(valid[-2:]) == [True, False]
                n_outside += 1
    assert n_valid and n_invalid and n_outside


def test_stacked_expm_matches_per_matrix_calls():
    rng = rng_for(71)
    for n in (2, 4, 6):
        gen = rng.standard_normal((9, n, n)) * np.geomspace(1e-6, 3.0, 9)[:, None, None]
        gen = gen - np.swapaxes(gen, -1, -2)
        stacked = sla.expm(gen)
        for g, e in zip(gen, stacked):
            assert np.array_equal(e, sla.expm(g))


# ---------------------------------------------------------------------------
# lockstep ascent against the per-start loop
# ---------------------------------------------------------------------------

def _q_floor(m):
    """The ascent's whitened eigenvalue floor, guarded so that every
    iterate passes ``ConditionalCov``'s least-eigenvalue check."""
    floor = max(solver.SIGMA_FLOOR_SCALE * float(np.trace(m.sigma_x)) / m.mx,
                2.0 * COND_COV_MIN_EIG)
    return floor / float(np.linalg.eigvalsh(m.sigma_x)[0])


def _reference_ascent(m, rp, q0, s_half, max_iter):
    """Penalised projected-gradient ascent from one start, one call per
    point: the loop that the lockstep ascent runs for every start at once."""
    rho = solver._penalty_weight(m)
    q_floor = _q_floor(m)

    def objective(q):
        sigma = linalg.symmetrize(s_half @ q @ s_half)
        pair = rates_aligned(m, sigma)
        return pair.rk - rho * max(0.0, pair.rp - rp), sigma, pair

    def grads(sigma):
        inv_y = linalg.inv_pd(sigma + m.sigma_wy)
        inv_z = linalg.inv_pd(sigma + m.sigma_wz)
        inv_s = linalg.inv_pd(sigma)
        return 0.5 * (inv_z - inv_y), 0.5 * (inv_y - inv_s)

    q = linalg.eig_clip(q0, q_floor, 1.0)
    val, sigma, pair = objective(q)
    eta = 0.1
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad_ik, grad_ip = grads(sigma)
        grad = grad_ik if pair.rp <= rp else grad_ik - rho * grad_ip
        grad_q = linalg.symmetrize(s_half @ grad @ s_half)
        if linalg.frob(grad_q) < 1e-13:
            break
        accepted = False
        for _ in range(30):
            q_new = linalg.eig_clip(q + eta * grad_q, q_floor, 1.0)
            move = linalg.frob(q_new - q)
            if move < 1e-14 * (1.0 + linalg.frob(q)):
                break
            val_new, sigma_new, pair_new = objective(q_new)
            if val_new > val + 1e-4 / max(eta, 1e-12) * move * move:
                q, val, sigma, pair = q_new, val_new, sigma_new, pair_new
                eta = min(eta * 1.5, 10.0)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
    return sigma, pair, iterations


@pytest.mark.parametrize("mx, key, rp, rho, max_iter", [
    (1, 81, 0.5, 10.0, 400),
    (2, 2001, 1.0, 10.0, 400),
    (2, 2004, 0.2, 1e3, 60),
    (4, 2005, 2.0, 10.0, 150),
    (6, 2009, 1.0, 100.0, 40),
    (2, 2002, 0.5, 1.0, 400),  # the weight is the model's bound, 4.49
])
def test_lockstep_ascent_matches_per_start_loop(monkeypatch, mx, key, rp, rho, max_iter):
    # both ascents take their weight from _penalty_weight, floored at rho
    monkeypatch.setattr(solver, "PENALTY_RHO", rho)
    m = _bench_model(key, mx)
    s_half = linalg.sqrtm_psd(m.sigma_x)
    starts = solver._multi_starts(m, 8, 0)
    got = solver._pga_penalty(m, rp, np.array(starts), s_half, max_iter)
    for q0, (sigma, pair, iterations) in zip(starts, got):
        want = _reference_ascent(m, rp, q0, s_half, max_iter)
        assert iterations == want[2]
        assert np.array_equal(sigma, want[0])
        assert (pair.rp, pair.rk) == (want[1].rp, want[1].rk)


# ---------------------------------------------------------------------------
# line searches that test several step sizes per stacked call
# ---------------------------------------------------------------------------

def _reference_pga_penalty(m, rp, q0, s_half, max_iter):
    """The lockstep ascent with one stacked evaluation per backtracking
    trial: what ``_pga_penalty`` did before it tested several trials per
    call.  An invalid trial's value is NaN, so it fails the Armijo test."""
    q_floor = _q_floor(m)
    ld_full = np.array([linalg.logdet_pd(m.sigma_x + w) for w in (0.0, m.sigma_wz, m.sigma_wy)])
    rho = solver._penalty_weight(m)

    def objective(q):
        sigma = linalg.symmetrize(s_half @ q @ s_half)
        ip, ik, valid = solver._rates_stack(m, sigma, ld_full)
        pairs = [RatePair(rp=float(a), rk=float(b)) for a, b in zip(ip, ik)]
        vals = [p.rk - rho * max(0.0, p.rp - rp) for p in pairs]
        return np.array(vals), sigma, pairs, valid

    k = len(q0)
    q = linalg.eig_clip(np.asarray(q0, dtype=float), q_floor, 1.0)
    val, sigma, pairs, valid = objective(q)
    if not valid.all():
        solver._chol_terms(m, sigma[~valid])
    eta = np.full(k, 0.1)
    iterations = np.zeros(k, dtype=int)
    live = np.arange(k)
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        iterations[live] = it
        inv_s, inv_z, inv_y = np.moveaxis(
            solver._inv_stack(solver._chol_terms(m, sigma[live])), 1, 0)
        grad_ik, grad_ip = 0.5 * (inv_z - inv_y), 0.5 * (inv_y - inv_s)
        over = np.array([not pairs[i].rp <= rp for i in live])[:, None, None]
        grad = np.where(over, grad_ik - rho * grad_ip, grad_ik)
        grad_q = linalg.symmetrize(s_half @ grad @ s_half)
        moving = ~(solver._frob_stack(grad_q) < 1e-13)
        search, grad_q = live[moving], grad_q[moving]
        accepted = []
        for _ in range(30):
            if not search.size:
                break
            q_new = linalg.eig_clip(q[search] + eta[search, None, None] * grad_q,
                                    q_floor, 1.0)
            move = solver._frob_stack(q_new - q[search])
            keep = ~(move < 1e-14 * (1.0 + solver._frob_stack(q[search])))
            search, q_new, move, grad_q = search[keep], q_new[keep], move[keep], grad_q[keep]
            if not search.size:
                break
            val_new, sigma_new, pairs_new, _ = objective(q_new)
            up = val_new > val[search] + 1e-4 / np.maximum(eta[search], 1e-12) * move * move
            win = search[up]
            q[win], val[win], sigma[win] = q_new[up], val_new[up], sigma_new[up]
            for i, j in zip(win, np.flatnonzero(up)):
                pairs[i] = pairs_new[j]
            eta[win] = np.minimum(eta[win] * 1.5, 10.0)
            accepted.extend(win)
            eta[search[~up]] *= 0.5
            search, grad_q = search[~up], grad_q[~up]
        live = np.sort(np.array(accepted, dtype=int))
    return [(sigma[i], pairs[i], int(iterations[i])) for i in range(k)]


def _reference_polish_face(m, rp, sigma_hat, s_half, s_half_inv, mu_hint, n_active):
    """The face polish whose line search evaluates all 30 halvings as one
    stack: what ``_polish_face`` did before it tried the first few alone."""
    q_hat = linalg.symmetrize(s_half_inv @ sigma_hat @ s_half_inv)
    w, u0 = np.linalg.eigh(q_hat)
    u0 = u0[:, np.argsort(w)[::-1]]
    if n_active == m.mx:
        return np.array(m.sigma_x), mu_hint, 0.0
    face = solver._FaceSystem(m, rp, s_half, u0, n_active)
    nx = face.n_qf + face.n_rot + 1
    x = np.zeros(nx)
    q_free0 = u0[:, n_active:].T @ q_hat @ u0[:, n_active:]
    x[:face.n_qf] = [float(np.sum(q_free0 * s)) / float(np.sum(s * s))
                     for s in face.basis_f]
    x[-1] = math.log(max(mu_hint, 1e-12))
    rows, valid = face.residuals(x[None])
    if not valid[0]:
        return None
    r = rows[0]
    halvings = 0.5 ** np.arange(30)[:, None]
    for _ in range(80):
        rnorm = float(np.max(np.abs(r)))
        if rnorm < 1e-12:
            break
        h = 1e-7 * (1.0 + np.abs(x))
        rows, valid = face.residuals(np.concatenate((x + np.diag(h), x - np.diag(h))))
        if not valid.all():
            return None
        jac = ((rows[:nx] - rows[nx:]) / (2.0 * h)[:, None]).T
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        trials = x + halvings * step
        rows, valid = face.residuals(trials)
        better = np.flatnonzero(valid & (np.max(np.abs(rows), axis=1) < rnorm))
        if not better.size:
            break
        x, r = trials[better[0]], rows[better[0]]
    sigma, mu, _, _ = face.build(x[None])
    return sigma[0], float(mu[0]), float(np.max(np.abs(r)))


def _degraded_model(key):
    return random_aligned(rng_for(key), 2 + key % 5, degraded=True)


_STACKED_SEARCH_CASES = (
    [(f"corpus-{p['model']}", p["rp"]) for p in POINTS]
    + [(f"fresh-{key}", rp) for key in range(5000, 5018) for rp in (0.7, 1.5, 3.0, 5.0)]
    + [(f"degraded-{key}", rp) for key in range(6000, 6012) for rp in (0.5, 2.0, 6.0)])


def _case_model(name):
    kind, _, rest = name.partition("-")
    if kind == "corpus":
        return _model(next(p for p in POINTS if p["model"] == rest))
    return _fresh_model(int(rest)) if kind == "fresh" else _degraded_model(int(rest))


@pytest.mark.parametrize("name", sorted({n for n, _ in _STACKED_SEARCH_CASES}))
def test_stacked_line_searches_keep_the_sequential_iterates(monkeypatch, name):
    m = _case_model(name)
    calls = []
    pga = solver._pga_penalty

    def recorded(mm, rp, q0, s_half, max_iter):
        out = pga(mm, rp, q0, s_half, max_iter)
        calls.append(((mm, rp, np.array(q0), s_half, max_iter), out))
        return out

    for rp in sorted({rp for n, rp in _STACKED_SEARCH_CASES if n == name}):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_pga_penalty", _reference_pga_penalty)
            patch.setattr(solver, "_polish_face", _reference_polish_face)
            want = solve_at_rate(m, rp)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_pga_penalty", recorded)
            got = solve_at_rate(m, rp)
        assert got.value == want.value
        assert got.optimum.value.tobytes() == want.optimum.value.tobytes()
        assert (got.iterations, got.kkt_residual, got.converged) == (
            want.iterations, want.kkt_residual, want.converged)
        assert (_certificate_outcome(m, got.optimum, rp)
                == _certificate_outcome(m, want.optimum, rp))
    assert calls
    for args, out in calls:
        for (sigma, pair, its), (sigma_r, pair_r, its_r) in zip(
                out, _reference_pga_penalty(*args)):
            assert sigma.tobytes() == sigma_r.tobytes()
            assert (pair.rp, pair.rk, its) == (pair_r.rp, pair_r.rk, its_r)


@pytest.mark.parametrize("mx, key, rp, period, max_iter, sequential", [
    (2, 2001, 1.0, 5, 400, "meets"), (2, 2003, 0.5, 13, 400, "meets"),
    (2, 2003, 0.5, 41, 3, "misses"), (4, 2005, 2.0, 41, 3, "misses"),
    (4, 2005, 2.0, 13, 400, "meets"), (6, 2009, 1.0, 13, 400, "meets")])
def test_injected_invalid_trials_backtrack(monkeypatch, mx, key, rp, period, max_iter,
                                           sequential):
    # declare invalid every trial matrix whose bytes hash to 0 mod period: a
    # property of the matrix alone, so both searches see the same invalid
    # trials; each fails its Armijo test, and the batched search must keep
    # the sequential one's iterates, raising in neither
    rates = solver._rates_stack
    marked = []

    def marking(mm, sigma, ld_full):
        ip, ik, valid = rates(mm, sigma, ld_full)
        for i, s in enumerate(sigma):
            if zlib.crc32(s.tobytes()) % period == 0:
                valid[i], ip[i], ik[i] = False, np.nan, np.nan
                marked.append(s.tobytes())
        return ip, ik, valid

    monkeypatch.setattr(solver, "_rates_stack", marking)
    m = _bench_model(key, mx)
    s_half = linalg.sqrtm_psd(m.sigma_x)
    starts = np.array(solver._multi_starts(m, 8, 0))
    outcomes, n_marked = [], []
    for search in (_reference_pga_penalty, solver._pga_penalty):
        marked.clear()
        out = search(m, rp, starts, s_half, max_iter)
        outcomes.append([(s.tobytes(), p.rp, p.rk, its) for s, p, its in out])
        n_marked.append(len(set(marked)))
    assert outcomes[0] == outcomes[1]
    # the batched search met invalid trials that the sequential one never
    # reached; where the sequential one met some, it backtracked past them
    assert n_marked[1] > n_marked[0]
    assert (n_marked[0] > 0) == (sequential == "meets")


def test_ascent_evaluations_on_the_benchmark_points(monkeypatch):
    # 6,496 stacked evaluations with one backtracking trial per call
    calls = []
    rates = solver._rates_stack

    def counted(*args):
        calls.append(1)
        return rates(*args)

    monkeypatch.setattr(solver, "_rates_stack", counted)
    for point in POINTS:
        if point["model"].startswith("bench_"):
            solve_at_rate(_model(point), point["rp"])
    assert len(calls) <= 3000


# ---------------------------------------------------------------------------
# errors that are not a rejected face propagate
# ---------------------------------------------------------------------------

def _bug(*args, **kwargs):
    raise TypeError("a bug, not a rejected face")


@pytest.mark.parametrize("target", ["rates_aligned", "_FaceSystem.residuals"])
def test_bugs_in_the_polish_propagate(monkeypatch, target):
    if target == "rates_aligned":
        # the ascent does not call it; the face polish does, inside a guard
        # that rejects an invalid point only
        monkeypatch.setattr(solver, "rates_aligned", _bug)
    else:
        monkeypatch.setattr(solver._FaceSystem, "residuals", _bug)
    with pytest.raises(TypeError):
        solve_at_rate(_bench_model(2002, 2), 1.0)


def test_bugs_in_the_certificate_propagate(monkeypatch):
    monkeypatch.setattr(kkt, "certify", _bug)
    with pytest.raises(TypeError):
        solver.ascent_boundary(_bench_model(2002, 2), [0.5])


@pytest.mark.parametrize("error", [NoValidMultiplier("not optimal"),
                                   ValueError("M must be PSD")])
def test_failed_certificate_reports_infinite_residual(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(kkt, "certify", fail)
    boundary = solver.ascent_boundary(_bench_model(2002, 2), [0.5, 1.0])
    assert [pm.kkt_residual for pm in boundary.solver_meta] == [math.inf, math.inf]
