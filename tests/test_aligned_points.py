"""The aligned route against a frozen corpus and against per-point references.

``data/aligned_points.json`` holds frozen ``solve_at_rate`` results (see
``data/make_aligned_points.py``): the benchmark's 36 aligned points at mx 2,
4 and 6, the ``scalar_aligned`` fixture and the mx = 2 models of the
certificate tests.  Every point must keep its value, its optimum, its
``converged`` flag and its certificate outcome (every entry certifies),
and a point reported converged must certify.  A congruence ``T`` of a
model's three covariances maps its optimum to ``T Q T^T`` and keeps both
rates: frozen benchmark points scaled by ``T = sqrt(c) I``, c from 1e-12 to
1e8, must keep their value, ``sigma / c`` and certificate outcome, and
models under a seeded ill-conditioned ``T`` their value and certificate
outcome.  Every frozen value lies under the curve's head tangent ``mu0 rp``
(``mu0`` the multiplier of the corner) and under the limit at unbounded
public rate.

The ascent builds its iterates inside the matrix interval and the polish
tests a point's whitened free block against ``1 + FACE_EXCURSION``; a
polish step that lifts a free eigenvalue above 1 hands over to the next
face, and one gate in ``solve_at_rate`` checks every polished candidate,
a valid KKT multiplier included, at mu = 0 when the candidate's rate is
slack.  The first candidate to pass is the answer; when none passes, no
candidate within the budget may have a higher key rate than the answer.
The path in ``rp`` from the corner certifies every point of the corpus,
so the tests of unconverged answers switch it off (``_no_path``) to
reach the ascent, the route they are about.  Every candidate is the
polish of an end point (the commuting-part optimum, the corner that seeds
the path, a path step's start or the ascent's best end point), which tries
the detected face, then, when that candidate fails, the candidate on the
face below its own, and must keep every optimum of the schedule that tried
every face at every factor.  When a unit
eigenspace of the start holds more directions than the face pins, the
polish pins those where ``M(mu)`` is largest, so the basis ``eigh`` gives
that eigenspace changes no polished point.  The per-point references below
mirror that.

The aligned route runs on the whitened model (``models.whiten``), and so
do the internals below.  The stacked kernels are checked against plain
per-point references: the face-polish residual against the per-point
closure it replaces, its closed-form Jacobian against central differences,
and the ascent against a per-start loop on per-point rates and inverses.
The ascent, which runs each start alone, must keep every iterate of the
lockstep ascent that advanced every start at once, one backtracking
trial per stacked call, and the polish, which tests four halvings per
stacked call, every iterate of the polish that evaluated all 30
halvings, down to 2^-29 of the step, as one stack, each in a chart
re-centred at its iterate; both are kept here as references.  The polish stops at 2^-8,
so on its cases the reference also checks that the halvings below that
floor change no result.  A backtracking trial with NaN rates fails the Armijo test, in
both ascents alike.  Errors that are not a rejected face or an invalid
point must propagate.

Three counts guard the aligned route's cost and reliability without a
clock: the face polishes, the residual rows they evaluate, the path runs
and the ascent runs over the benchmark's points, the matrices the
ascent evaluates on points that still reach it, and the certified points
per model on models off the corpus at mx 3 to 8.
"""

import copy
import json
import math
import os
import zlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from gausskey import AlignedModel, certify, kkt, linalg, solve_at_rate, solver, sweep
from gausskey.errors import GausskeyError, NotPositiveDefinite, NoValidMultiplier
from gausskey.models import COND_COV_MIN_EIG, ConditionalCov, whiten
from gausskey.rates import RatePair, _chol_terms, asymptotic_limit, rates_aligned

from conftest import (ill_conditioned_aligned, random_aligned, random_conditional, random_spd,
                      rng_for)

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
    # bench_mx4_key2007 at rp 2 and 4 once raised NoValidMultiplier; the
    # commuting-part polish certifies them
    assert sum(p["certificate"] == "NoValidMultiplier" for p in bench) == 0
    assert all(p["converged"] and p["certificate"] == "certified" for p in POINTS)
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


def _congruent(m, t):
    """The model ``(T sigma_x T^T, T sigma_wy T^T, T sigma_wz T^T)``: it has
    the rates of ``m``, at ``T Q T^T`` for each ``Q`` of ``m``."""
    return AlignedModel(*(t @ a @ t.T for a in (m.sigma_x, m.sigma_wy, m.sigma_wz)))


def _seeded_t(mx, c):
    """``T = U diag(geomspace(1, c, mx)) V``, with ``U`` and then ``V`` the Q
    factors of standard-normal draws from ``default_rng(7)``."""
    rng = np.random.default_rng(7)
    u, v = (np.linalg.qr(rng.standard_normal((mx, mx)))[0] for _ in range(2))
    return u @ np.diag(np.geomspace(1.0, c, mx)) @ v


# (name, rp, c, seeded): a scaling T = sqrt(c) I of a frozen point, or the
# seeded T of a model off the corpus, compared with its unscaled solve
CONGRUENT = ([(name, rp, c, False) for name in ("bench_mx2_key2001", "bench_mx4_key2005",
                                                "bench_mx6_key2009")
              for rp in (0.5, 2.0, 4.0)
              for c in (1e-6, 1e-3, 1e4, 1e6, 1e8, 1e-12, 1e-10, 1e-8)]
             + [(name, rp, 1e-12, False) for name, rp in (("bench_mx2_key2002", 2.0),
                                                         ("bench_mx2_key2003", 4.0),
                                                         ("kkt_mx2_key52", 1.5))]
             + [("rel6-3604", rp, 1e3, True) for rp in (1.0, 2.0, 4.0)]
             + [("degraded-6007", 0.5, 1e3, True)])


@pytest.mark.parametrize("name,rp,c,seeded", CONGRUENT,
                         ids=[f"{n}-rp{r}-{'T' if t else 'x'}{c:g}" for n, r, c, t in CONGRUENT])
def test_rescaled_model_keeps_its_optimum(name, rp, c, seeded):
    # a congruence T keeps both rates and maps every admissible Q to T Q T^T;
    # the solver and the certificate both judge in the whitened frame, which
    # T leaves unchanged up to an orthogonal rotation.  Absolute tolerances
    # of a re-checked interval used to reject the rounding of the corner
    # start S I S, below 1e-10 the model's absolute PD test refused the
    # model, at 1e-12 the certificate's original-frame multiplier gate
    # raised NoValidMultiplier, and under the seeded T at 1e3 the solver's
    # Cholesky-whitened interval test refused its own optimum S A S
    if seeded:
        kind, _, key = name.partition("-")
        m = _bench_model(int(key), 6) if kind == "rel6" else _degraded_model(int(key))
        ref = solve_at_rate(m, rp)
        value, outcome = ref.value, _certificate_outcome(m, ref.optimum, rp)
        mt = _congruent(m, _seeded_t(m.mx, c))
    else:
        # T = sqrt(c) I, applied as c sigma
        point = next(p for p in POINTS if p["model"] == name and p["rp"] == rp)
        value, outcome = point["value"], point["certificate"]
        mt = AlignedModel(*(c * np.array(point[k]) for k in ("sigma_x", "sigma_wy", "sigma_wz")))
    report = solve_at_rate(mt, rp)
    assert abs(report.value - value) <= 1e-9
    if not seeded:
        assert linalg.frob(report.optimum.value / c - np.array(point["sigma"])) <= 1e-8
    assert _certificate_outcome(mt, report.optimum, rp) == outcome


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


# Points where, with the path off (``_no_path``), no candidate of the
# commuting-part polish or the ascent has a valid multiplier: each raises
# NoValidMultiplier in the certificate, and each spends its whole budget.
# The default solve certifies every one of them on the path.  bench-15 is
# ``probe_aligned.py``'s rel8-15.  bench-2007 at rp 2 and 4 and fresh-5011
# at rp 5 were such points until the face polish pinned a free direction
# that crosses 1; they stay in the test of the best candidate as converged
# points.  bench-16 at rp 8, bench-15 at rp 12 and bench-14 at rp 4 were
# such points until an end point's second polish started from the first
# candidate, on the face below its own, and bench-15 at rp 16 until the
# polish climbed on the full Newton step's exit: route 1 certifies them now
# (``ROUTE_1_CERTIFIES``).  bench-13 at rp 4 (probe_aligned.py's rel8-13),
# bench-14 at rp 6 and bench-16 at rp 5 joined then: route 1 fails there,
# and the path certifies them.
UNCERTIFIED = [("rel3-3302", 6.0), ("rel3-3302", 8.0), ("rel4-3402", 10.0), ("bench-13", 4.0),
               ("bench-14", 6.0), ("bench-16", 5.0)]
ROUTE_1_CERTIFIES = [("bench-16", 8.0), ("bench-15", 12.0), ("bench-14", 4.0), ("bench-15", 16.0)]
# With the path off, no polish candidate of rel3-3302 at rp 6 and 8 keeps
# the budget: the drop step's face-0 polish, whose candidate kept it and
# was the ascent's end point to 4e-15, climbs back to face 1 on the full
# step's exit, whose candidates overrun it (rp 6.13 and 8.12).  The answer,
# that end point, is unchanged.
NO_CANDIDATE_IN_BUDGET = [("rel3-3302", 6.0), ("rel3-3302", 8.0)]


def _no_path(patch):
    """Send ``solve_at_rate`` from the commuting-part polish straight to
    the ascent, with no path in ``rp`` between them."""
    patch.setattr(solver, "_rate_path", lambda *args: None)


class _FirstFace(Exception):
    pass


def _end_point(w, rp, q, polish_end=solver._polish_end):
    """``(q, mu_hint, g)``: the multiplier hint and detected face at which
    ``solver._polish_end`` polishes the end point ``q``, read from its
    first ``_polished`` call (``polish_end`` is the unpatched one)."""
    def first(w, rp, q, mu_hint, n_active, stats):
        raise _FirstFace(q, mu_hint, n_active)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_polished", first)
        try:
            polish_end(w, rp, q, Counter())
        except _FirstFace as face:
            return face.args
    raise AssertionError("the end point was not polished")


def _named_model(name):
    # bench keys 13-16 are the reliability ratchet's mx 8 draws, 2000 on
    # the benchmark's (bench_mx4_key2007 is mx 4); rel<mx>-<key> names a
    # draw of the ratchet as ``probe_aligned.py`` does
    kind, _, key = name.partition("-")
    if kind == "fresh":
        return _fresh_model(int(key))
    if kind.startswith("rel"):
        return _bench_model(int(key), int(kind[3:]))
    return _bench_model(int(key), 8 if int(key) < 2000 else 4)


# Points where, with the path off, some polish solves a wrong face to
# round-off: fresh-5007 and fresh-5011 at rp 3, fresh-5013 at rp 8 and
# bench-16 at rp 8 end certified from the commuting part, and the
# uncertified points of ``probe_aligned.py --high`` fresh-5013 at rp 12 and
# 16 end unconverged on the ascent.  fresh-5011 at rp 5 was such a point
# until an end point's second polish started from the first candidate: no
# polish there solves a wrong face now
@pytest.mark.parametrize("key,rp", [(5007, 3.0), (5011, 3.0), (5013, 8.0),
                                    (5013, 12.0), (5013, 16.0), (16, 8.0)])
def test_wrong_face_point_is_not_converged(monkeypatch, key, rp):
    # the polish solves some faces' systems to round-off here at points with
    # no valid multiplier: none may be reported converged.  The answer is a
    # certified point or, where every candidate is such a one, an
    # unconverged point whose residual says so rather than repeat a face
    # residual.  The polish returns its point alone, so each candidate's
    # face residual comes from the reference polish, which returns the same
    # point
    m = _named_model(f"fresh-{key}" if key >= 5000 else f"bench-{key}")
    _no_path(monkeypatch)
    candidates = []
    polish = solver._polish_face

    def recorded(*args):
        q = polish(*args)
        if q is not None:
            ref = _reference_polish_face(*args, solver.POLISH_HALVINGS)
            assert ref[0].tobytes() == q.tobytes()
            candidates.append((args[0], q, ref[2]))  # the whitened model, Q, residual
        return q

    monkeypatch.setattr(solver, "_polish_face", recorded)
    report = solve_at_rate(m, rp)
    solved = [(white, q) for white, q, res in candidates if res < 1e-8]
    wrong = 0
    for white, q in solved:
        try:
            kkt.recover_multipliers(white, q, rp)
        except NoValidMultiplier:
            wrong += 1
    assert wrong
    if report.converged:
        assert report.kkt_residual <= kkt.ACCEPT_COMPOSITE
        assert _certificate_outcome(m, report.optimum, rp) == "certified"
    else:
        assert wrong == len(solved)
        assert report.kkt_residual > kkt.ACCEPT_COMPOSITE
        assert _certificate_outcome(m, report.optimum, rp) == "NoValidMultiplier"
        for white, q, _ in candidates:
            try:
                in_budget = rates_aligned(white, q).rp <= rp + 1e-7
            except GausskeyError:
                continue
            if in_budget:
                with pytest.raises(NoValidMultiplier):
                    kkt.recover_multipliers(white, q, rp)


@pytest.mark.parametrize("model,rp", [
    ("bench-15", 4.0),
    ("fresh-5002", 1.5), ("fresh-5007", 5.0), ("fresh-5011", 3.0),
    ("bench-2007", 2.0), ("bench-2007", 4.0), ("fresh-5011", 5.0),
    *(point for point in UNCERTIFIED if point not in NO_CANDIDATE_IN_BUDGET), *ROUTE_1_CERTIFIES])
def test_unconverged_solve_keeps_its_best_candidate(monkeypatch, model, rp):
    # with no candidate passing the gate, the answer is the best point the
    # polish reached within the budget, not the smallest face residual; a
    # certified answer is the optimum, which a candidate may pass only by
    # overrunning the budget (by at most 1e-7)
    m = _named_model(model)
    _no_path(monkeypatch)
    candidates = []
    polish = solver._polish_face

    def recorded(*args):
        q = polish(*args)
        if q is not None:
            candidates.append((args[0], q))  # the whitened model and Q
        return q

    monkeypatch.setattr(solver, "_polish_face", recorded)
    report = solve_at_rate(m, rp)
    in_budget = []
    for white, q in candidates:
        try:
            pair = rates_aligned(white, q)
        except GausskeyError:
            continue
        if pair.rp <= rp + 1e-7:
            in_budget.append(pair.rk)
    assert in_budget
    assert report.value >= max(in_budget) - (1e-6 if report.converged else 1e-12)
    assert report.converged == ((model, rp) not in UNCERTIFIED)


@pytest.mark.parametrize("model,rp", UNCERTIFIED + ROUTE_1_CERTIFIES)
def test_the_path_certifies_what_the_forced_fallback_leaves(model, rp):
    # the points the solve leaves unconverged with the path off certify on
    # the path, with no ascent; those that route 1 now certifies, with the
    # path off or on, certify with no ascent too
    m = _named_model(model)
    report = solve_at_rate(m, rp)
    assert report.converged and report.iterations == 0
    assert _certificate_outcome(m, report.optimum, rp) == "certified"


@pytest.mark.parametrize("model,rp", UNCERTIFIED)
def test_unconverged_solve_reports_the_multiplier_composite(monkeypatch, model, rp):
    # not the face residual of the candidate that won on key rate: at
    # _bench_model(15, 8) rp 4 that was a stalled wrong-face walk's 17,307.7
    m = _named_model(model)
    _no_path(monkeypatch)
    report = solve_at_rate(m, rp)
    assert not report.converged
    w, _, s_half_inv = whiten(m)
    q = linalg.symmetrize(s_half_inv @ report.optimum.value @ s_half_inv)
    want = kkt.multiplier_composite(w, q, kkt.closed_form_mu(w, q))[0]
    assert want > kkt.ACCEPT_COMPOSITE
    assert abs(report.kkt_residual - want) <= 1e-6 * want


@pytest.mark.parametrize("model,rp", [("fresh-5017", 3.0), ("fresh-5017", 8.0),
                                      ("fresh-5014", 16.0), ("rel6-3601", 16.0)])
def test_converged_solve_reports_the_multiplier_composite(monkeypatch, model, rp):
    # one multiplier test decides converged and is the reported residual, so
    # it does not depend on how far the polish crept at round-off.  At rp 8
    # and 16 the polish stalls with a face residual above 1e-8 on optima
    # whose composites pass: when the gate also asked for a face residual
    # below 1e-8 and the end point's key rate, these solves ran the ascent
    # and returned unconverged.  The test reads the whitened point that the
    # solve maps back as ``S Q S``: at these optima, of least whitened
    # eigenvalue 6e-9 to 5e-8, the round trip through the model's frame
    # moves the composite by up to 2.5e-7
    m = _named_model(model)
    mapped = []
    congruence = linalg.congruence_rounded

    def recorded(s_half, q):
        mapped.append(q)
        return congruence(s_half, q)

    monkeypatch.setattr(linalg, "congruence_rounded", recorded)
    report = solve_at_rate(m, rp)
    assert report.converged and report.iterations == 0
    w, s_half, _ = whiten(m)
    q = mapped[-1]
    assert congruence(s_half, q).tobytes() == report.optimum.value.tobytes()
    want = kkt.multiplier_composite(w, q, kkt.closed_form_mu(w, q))[0]
    assert report.kkt_residual <= kkt.ACCEPT_COMPOSITE
    assert abs(report.kkt_residual - want) <= 1e-12
    assert _certificate_outcome(m, report.optimum, rp) == "certified"


@pytest.mark.parametrize("rp", [0.7, 3.0])
def test_the_corner_with_the_rate_slack_fails_the_gate(rp):
    # Q = sigma_x spends no public rate, so its multiplier must vanish, and
    # M(0) is not PSD here (a cold solve reaches 0.0629 at rp 0.7).  The gate
    # judged it at closed_form_mu, which passes at the corner, and returned
    # a corner start converged at value 0
    m = _fresh_model(5013)
    w = whiten(m)[0]
    corner = np.eye(w.mx)
    assert solver._composite(w, rp, corner, rates_aligned(w, corner).rp) > kkt.ACCEPT_COMPOSITE
    assert _certificate_outcome(m, m.sigma_x, rp) == "NoValidMultiplier"


# (key, rp, value): points where the solve ran the ascent to end at or
# below what the commuting-part polish, or the path from the corner, now
# certifies with iterations = 0, with the values it returned.
# _fresh_model(5000) has no key rate at any public rate: its optimum is the
# corner Q = sigma_x, where M(0) is PSD, and the polish skipped the corner
# face (36-53 ascent iterations).  At the small rates the search over log
# mu spent its steps on the plateau where every q_i = 1, so the
# commuting-part start was the corner (I_p of 0 to 4.9e-32), and the solve
# ran the ascent at seven of them (139-354 iterations) and at 5002 ended
# unconverged
FROM_THE_COMMUTING_PART = (
    [(5000, rp, 0.0) for rp in (0.7, 1.5, 3.0, 5.0)]
    + [(5001, 1e-4, 5.439015280872539e-05), (5001, 1e-3, 0.0005431467686793923),
       (5002, 1e-4, 0.00012053650194543408), (5002, 1e-3, 0.0009177963082032115),
       (5004, 1e-4, 0.0001337046998035607), (5004, 1e-3, 0.0013342412578243312),
       (5007, 1e-4, 0.0010484011610270016), (5007, 1e-3, 0.010377137380033208)])


@pytest.mark.parametrize("key,rp,before", FROM_THE_COMMUTING_PART)
def test_points_that_ran_the_ascent_certify_from_the_commuting_part(key, rp, before):
    m = _fresh_model(key)
    report = solve_at_rate(m, rp)
    assert report.converged and report.iterations == 0
    assert report.value >= before - 1e-12
    assert _certificate_outcome(m, report.optimum, rp) == "certified"


@pytest.mark.parametrize("key", [5001, 5002, 5004, 5007])
@pytest.mark.parametrize("rp", [1e-7, 1e-6, 1e-5])
def test_a_rate_below_the_face_threshold_certifies(key, rp):
    # below rp 1e-4 the budget moves the commuting-part start's free
    # eigenvalue by less than 1e-4, so _polish_end's face threshold scales
    # with the budget: a fixed one detected the corner face, no polish
    # solved the rate equation and the solve ran the ascent, ending
    # unconverged with NoValidMultiplier at 5002 rp 1e-6 and 5001, 5004 rp
    # 1e-5
    m = _fresh_model(key)
    report = solve_at_rate(m, rp)
    assert report.converged and report.iterations == 0
    assert report.value >= 0.0
    assert _certificate_outcome(m, report.optimum, rp) == "certified"


# (key, rp) of the head points still more than 0.1% below mu0 rp: the
# gate's composite tolerance is absolute, so at these budgets a point short
# of the slope at zero passes (ROADMAP item 1); 5005 returns 0.642 of it
HEAD_LOW = {(5005, 1e-8), (5005, 1e-7), (5005, 1e-6)}


@pytest.mark.parametrize("key,rp", [
    pytest.param(key, rp, marks=pytest.mark.xfail(
        (key, rp) in HEAD_LOW, strict=True,
        reason="ROADMAP item 1: the gate's absolute tolerances pass a point below the head"))
    for key in (5001, 5005, 5008, 5013) for rp in (1e-8, 1e-7, 1e-6)])
def test_the_head_of_the_curve_is_the_slope_at_zero(key, rp):
    # mu0 = closed_form_mu at the corner is the slope of R_k at 0, so near 0
    # the curve is mu0 rp to O(rp^2), and never below the corner's 0.  At
    # 5008 every rate here, and 5001 at 1e-6, returned a polished point
    # below 0, converged and certified, before the gate refused key rates
    # below the corner
    m = _fresh_model(key)
    w = whiten(m)[0]
    mu0 = kkt.closed_form_mu(w, np.eye(w.mx))
    report = solve_at_rate(m, rp)
    assert report.value >= 0.0
    assert report.value >= (1.0 - 1e-3) * mu0 * rp


@pytest.mark.parametrize("rp", [1e-15, 1e-12, 0.0])
def test_a_tiny_budget_answers_the_corner_judged_by_the_common_test(rp):
    # at rp <= 1e-12 the answer is the corner, judged by the multiplier test
    # that judges every other answer: reported converged with kkt_residual
    # 0.0 on every model, it was refused by certify on all of these but
    # fresh-5000, whose curve is 0.  At rp 0 the rate binds and the corner
    # is optimal
    for m in [_fresh_model(key) for key in range(5000, 5018)] + [
            _degraded_model(key) for key in range(6000, 6012)]:
        report = solve_at_rate(m, rp)
        assert report.optimum.value.tobytes() == m._sigma_x_sym.tobytes()
        assert report.value == 0.0 and report.iterations == 0
        assert report.converged == (report.kkt_residual <= kkt.ACCEPT_COMPOSITE)
        certified = _certificate_outcome(m, report.optimum, rp) == "certified"
        assert report.converged == certified
        assert report.converged or rp > 0.0
        # no work beyond the test: the route names the corner, or none
        assert report.stats["route"] == ("corner" if report.converged else "none")
        assert not any(v for key, v in report.stats.items() if key != "route")


@pytest.mark.parametrize("rp", [12.0, 13.0])
def test_high_rates_at_mx8_certify(rp):
    # _bench_model(15, 8), the reliability ratchet's rel8-15: at rp 13 the
    # face polish of the ascent's end points raised NotPositiveDefinite (a
    # trial Q with a negative eigenvalue whose free block passed the
    # validity mask), and at rp 12 the solve returned 2.5054 unconverged;
    # the structured routes certify both
    m = _bench_model(15, 8)
    report = solve_at_rate(m, rp)
    assert report.converged
    assert rates_aligned(m, report.optimum).rp <= rp + 1e-7
    assert _certificate_outcome(m, report.optimum, rp) == "certified"


def test_the_ascent_fallback_at_mx8_keeps_the_budget(monkeypatch):
    # with the path off, a face polish of the ascent's end points at
    # rel8-15 rp 13 evaluated a trial Q with eigenvalues from -8.1e-6 to
    # 7.1e11 whose free block passed the validity mask, and raised
    # NotPositiveDefinite in its factors.  The mask tests the eigenvalues
    # of the whole trial, so the fallback ends within the budget
    _no_path(monkeypatch)
    m = _bench_model(15, 8)
    report = solve_at_rate(m, 13.0)
    assert math.isfinite(report.value)
    assert rates_aligned(m, report.optimum).rp <= 13.0 + 1e-7


def test_the_path_resumes_from_the_last_rate_that_passed(monkeypatch):
    # the path polishes the corner at rp 1e-4, then each step goes up to
    # three times the last rate that passed, from its optimum.  A failed
    # step is tried again from that rate at the square root of its ratio:
    # no rate is solved twice, and the last step lands on rp itself.  A
    # path whose steps all fail gives up once the ratio falls below 1.1,
    # and one whose seed fails makes no step
    w = whiten(_bench_model(2005, 4))[0]
    rp = 2.0
    steps = []

    def step(w_step, r, q, stats):
        steps.append((r, q))
        return None if len(steps) == 4 else (r * np.eye(w.mx), 0.0, 0.0)

    monkeypatch.setattr(solver, "_polish_end", step)
    cand = solver._rate_path(w, rp, Counter())
    rates = [r for r, _ in steps]
    assert rates[0] == 1e-4 and np.array_equal(steps[0][1], np.eye(w.mx))  # the seed
    assert np.allclose(rates[1:5], [3e-4, 9e-4, 2.7e-3, 9e-4 * math.sqrt(3.0)], rtol=1e-12)
    assert len(set(rates)) == len(rates) and rates[-1] == rp
    assert np.array_equal(cand[0], rp * np.eye(w.mx))
    passed = rates[:3] + rates[4:]
    assert all(1.0 < b / a <= 3.0 * (1.0 + 1e-12) for a, b in zip(passed, passed[1:]))
    for i in range(1, len(steps)):  # each starts from the last optimum that passed
        assert np.array_equal(steps[i][1], passed[i - 1 - (i > 3)] * np.eye(w.mx))
    steps.clear()

    def seed_only(w_step, r, q, stats):
        steps.append(r)
        return (r * np.eye(w.mx), 0.0, 0.0) if len(steps) == 1 else None

    monkeypatch.setattr(solver, "_polish_end", seed_only)
    assert solver._rate_path(w, rp, Counter()) is None
    assert steps[0] == 1e-4
    assert np.allclose(steps[1:], 1e-4 * 3.0 ** (1.0 / 2.0 ** np.arange(4)), rtol=1e-12)
    steps.clear()
    monkeypatch.setattr(solver, "_polish_end", lambda w_step, r, q, stats: steps.append(r))
    assert solver._rate_path(w, rp, Counter()) is None
    assert steps == [1e-4]


def _fallback_trace(patch):
    """Record, per solve, the key rates of the ascent's end points in
    budget, the ``_polish_end`` calls made after the ascent, and the key
    rates of the ``_polished`` candidates made outside the path."""
    trace = {"ends": [], "polish_ends": 0, "candidates": []}
    phase = ["route 1"]
    rate_path, pga, polish_end, polished = (
        solver._rate_path, solver._pga_penalty, solver._polish_end, solver._polished)

    def on_the_path(*args):
        phase[0] = "path"
        try:
            return rate_path(*args)
        finally:
            phase[0] = "route 1"

    def ascent(w, rp, q0, max_iter, stats):
        runs = pga(w, rp, q0, max_iter, stats)
        phase[0] = "ascent"
        trace["ends"] += [pair.rk for _, pair, _ in runs if pair.rp <= rp + 1e-6]
        return runs

    def counted(*args):
        trace["polish_ends"] += phase[0] == "ascent"
        return polish_end(*args)

    def kept(*args):
        cand = polished(*args)
        if cand and phase[0] != "path":
            trace["candidates"].append(cand[1])
        return cand

    patch.setattr(solver, "_rate_path", on_the_path)
    patch.setattr(solver, "_pga_penalty", ascent)
    patch.setattr(solver, "_polish_end", counted)
    patch.setattr(solver, "_polished", kept)
    return trace


@pytest.mark.parametrize("model,rp", [("fresh-5008", 5.0), ("fresh-5007", 16.0)])
def test_the_ascent_fallback_polishes_one_end_point(monkeypatch, model, rp):
    # the commuting-part polish fails here and the path is off, so the
    # solve runs the ascent; of its six end points, only the best in budget
    # is polished, and it passes the gate.  With the path on, both certify
    # on it.  fresh-5006 at rp 1.5 and rel3-3301 at rp 1 were such points
    # until an end point's second polish started from the first candidate,
    # and fresh-5001 and fresh-5007 at rp 5 until the polish climbed on the
    # full Newton step's exit
    trace = _fallback_trace(monkeypatch)
    _no_path(monkeypatch)
    m = _named_model(model)
    report = solve_at_rate(m, rp)
    assert report.iterations > 0
    assert trace["polish_ends"] == 1
    assert report.converged
    assert _certificate_outcome(m, report.optimum, rp) == "certified"


@pytest.mark.parametrize("key, mx", [(2001, 2), (2005, 4), (2009, 6)])
def test_n_starts_sizes_only_the_ascent(key, mx):
    # the structured routes run first at every start count and certify these
    # benchmark points, so every n_starts returns the default call's optimum.
    # Up to four starts used to skip both routes: with n_starts=1 and
    # max_iter=20 the benchmark's warm-up ran 20 ascent iterations
    m = _bench_model(key, mx)
    want = solve_at_rate(m, 1.0)
    assert want.converged and want.iterations == 0
    for n_starts in range(1, 7):
        got = solve_at_rate(m, 1.0, n_starts=n_starts)
        assert got.optimum.value.tobytes() == want.optimum.value.tobytes()
        assert (got.value, got.iterations, got.converged) == (want.value, 0, True)


def test_an_unconverged_fallback_returns_the_best_candidate_in_budget(monkeypatch):
    # fresh-5009 at rp 12: no candidate passes the gate, and the best one
    # is the best end point's second candidate, above the end point itself
    trace = _fallback_trace(monkeypatch)
    m = _fresh_model(5009)
    report = solve_at_rate(m, 12.0)
    assert not report.converged and report.iterations > 0
    assert trace["polish_ends"] == 1
    assert trace["candidates"]
    assert report.value == max(trace["ends"] + trace["candidates"])
    assert report.value > max(trace["ends"])


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


def test_frozen_points_lie_under_the_head_tangent_and_the_limit():
    # The corner sigma_x maximises the Lagrangian at mu0 =
    # closed_form_mu(w, I) on the whitened model, so R_k(r) <= mu0 r is a
    # global tangent at the head of the curve; and no key rate exceeds the
    # limit at unbounded public rate.  The largest value / (mu0 rp) over
    # the corpus is 0.678.
    misses = []
    for p in POINTS:
        m = _model(p)
        mu0 = kkt.closed_form_mu(whiten(m)[0], np.eye(m.mx))
        if not (p["value"] <= mu0 * p["rp"] * (1.0 + 1e-9)
                and p["value"] <= asymptotic_limit(m) + 1e-12):
            misses.append((p["model"], p["rp"], p["value"], mu0 * p["rp"]))
    assert not misses, misses
    assert len(POINTS) == 47


@pytest.mark.parametrize("mx", [1, 2, 3, 5])
def test_commuting_start_is_the_optimum_of_a_commuting_model(mx):
    # when the whitened noises commute, the model is its own commuting part
    # (with either noise's eigenbasis): the start keeps the budget within
    # 1e-9, certifies as it stands, and is the start that solve_at_rate
    # builds last but one.  At rp 1e-4 and 1e-3 the search over log mu in
    # [-40, 40] ended on the plateau where every q_i = 1 and missed the
    # budget by the whole rp
    rng = rng_for(300 + mx)
    v, _ = np.linalg.qr(rng.standard_normal((mx, mx)))
    dy = rng.uniform(0.1, 1.0, mx)
    dz = dy * rng.uniform(0.5, 4.0, mx)
    dz[0] = 2.0 * dy[0]  # at least one component with a key rate
    w = AlignedModel(np.eye(mx), (v * dy) @ v.T, (v * dz) @ v.T)
    for rp in (1e-4, 1e-3, 1e-2, 0.3, 1.0, 3.0):
        for swap in (False, True):
            q = solver._commuting_start(w, rp, swap)
            assert abs(rates_aligned(w, q).rp - rp) <= 1e-9
            assert _certificate_outcome(w, q, rp) == "certified"
        assert np.array_equal(solver._starts(w, rp, 6)[4], solver._commuting_start(w, rp, False))
    # no component with dz > dy: the commuting part has no key rate to buy
    w = AlignedModel(np.eye(mx), (v * dy) @ v.T, (v * (0.5 * dy)) @ v.T)
    for swap in (False, True):
        assert np.array_equal(solver._commuting_start(w, 1.0, swap), np.eye(mx))


def _root_search_q(dy, dz, rp):
    """The commuting-part optimum by the search the closed form replaced:
    an Anderson-Bjorck root search of ``I_p - rp`` in log mu on [-40,
    log max mu_i] to 1e-12, keeping the ``q`` of the last log mu within the
    budget; None when no ``dz > dy``."""
    useful = dz > dy
    if not useful.any():
        return None
    kept = []

    def excess(x):
        mu = math.exp(x)
        gap = dz - (1.0 + mu) * dy
        q, on = np.ones_like(dy), gap > 0.0
        q[on] = np.minimum(1.0, mu * dy[on] * dz[on] / gap[on])
        f = 0.5 * float(np.sum(np.log1p(dy / q) - np.log1p(dy))) - rp
        if f <= 0.0:
            kept.append(q)
        return f

    dy_u, dz_u = dy[useful], dz[useful]
    x_top = math.log(float(np.max((dz_u - dy_u) / (dy_u * (1.0 + dz_u)))))
    f_hi, f_lo = excess(x_top), excess(-40.0)
    if f_lo > 0.0 > f_hi:
        sweep._anderson_bjorck(excess, -40.0, f_lo, x_top, f_hi, 1e-12)
    return kept[-1] if kept else None


@pytest.mark.parametrize("mx", range(1, 9))
def test_the_commuting_optimum_in_closed_form_is_the_root_search(mx):
    # I_p(mu) is piecewise k/2 log((1 + mu) / mu) + 1/2 sum c_i between
    # the sorted thresholds mu_i, so its root is closed form: on seeded
    # models, both commuting parts and rates from 1e-8 to inf (where mu
    # stops at its floor e^-40), it is the root search's q within 1e-10 and
    # keeps the budget, and no dz > dy gives I
    checked = 0
    for key in range(8):
        w = whiten(random_aligned(rng_for(9400 + 10 * mx + key), mx))[0]
        for swap in (False, True):
            v, dy, dz = solver._commuting_part(w, swap)
            for rp in (1e-8, 1e-4, 0.5, 4.0, 16.0, 1e300, math.inf):
                q, want = solver._commuting_q(dy, dz, rp), _root_search_q(dy, dz, rp)
                assert (q is None) == (want is None) == (not np.any(dz > dy))
                if q is None:
                    assert np.array_equal(solver._commuting_start(w, rp, swap), np.eye(mx))
                    continue
                checked += 1
                assert np.max(np.abs(q - want)) <= 1e-10
                assert 0.5 * float(np.sum(np.log1p(dy / q) - np.log1p(dy))) <= rp * (1.0 + 1e-12)
                assert np.array_equal(solver._commuting_start(w, rp, swap),
                                      linalg.symmetrize((v * q) @ v.T))
    assert checked >= 7 * 2
    dy = np.linspace(0.5, 1.0, mx)
    assert solver._commuting_q(dy, 0.5 * dy, 1.0) is None


# the benchmark's nine aligned models, (mx, key) of _bench_model
BENCH_MODELS = [(2, key) for key in range(2000, 2005)] + [(4, 2005), (4, 2006), (4, 2007),
                                                          (6, 2009)]


@pytest.mark.parametrize("key, mx, rp", [(key, mx, 12.0) for mx, key in BENCH_MODELS]
                         + [(key, None, 16.0) for key in (5001, 5002, 5003)])
def test_solves_where_the_ascent_floor_binds(key, mx, rp):
    # high rates drive whitened eigenvalues down to SIGMA_FLOOR_SCALE, where
    # every trial must still factor.  Neither certification nor monotonicity
    # in rp holds here yet, so only the solve and its budget are checked
    m = _fresh_model(key) if mx is None else _bench_model(key, mx)
    report = solve_at_rate(m, rp)
    assert math.isfinite(report.value)
    assert np.isfinite(report.optimum.value).all()
    assert rates_aligned(m, report.optimum).rp <= rp + 1e-6


@pytest.mark.parametrize("key", range(7000, 7003))
def test_ill_conditioned_solves_keep_their_own_output(monkeypatch, key):
    # at cond(sigma_x) = 1e8 the answer S A S carries round-off of about
    # eps cond(sigma_x) in the whitened frame, so a re-test of it in the
    # model's frame refused the solver's own output, and mapping it back
    # cannot recover A's rates.  The budget is judged on the whitened A
    # that the solve maps back, by its last once-rounded congruence with S
    m = ill_conditioned_aligned(rng_for(key), 4, 1e8)
    white, s_half, _ = whiten(m)
    congruence, mapped = linalg.congruence_rounded, []

    def recorded(t, a):
        mapped.append((t, a))
        return congruence(t, a)

    monkeypatch.setattr(linalg, "congruence_rounded", recorded)
    for rp in (1.25, 2.5, 3.75, 5.0, 7.5, 10.0):
        mapped.clear()
        report = solve_at_rate(m, rp)
        a = [a for t, a in mapped if np.array_equal(t, s_half)][-1]
        assert np.array_equal(report.optimum.value, congruence(s_half, a))
        assert rates_aligned(white, a).rp <= rp + 1e-7


# ---------------------------------------------------------------------------
# the order of the face polish's candidates
# ---------------------------------------------------------------------------

def _reference_schedule(n_active_guess, mx):
    """The candidate list the face schedule replaced: every factor of the
    detected face before the next face."""
    order = [n_active_guess] + [k for k in range(mx) if k != n_active_guess]
    return [(n_active, f) for idx, n_active in enumerate(order)
            for f in ((1.0, 2.0, 0.5, 4.0, 0.25) if idx == 0 else (1.0, 2.0))]


def _reference_polish_end(w, rp, q, stats):
    """``solver._polish_end`` over ``_reference_schedule``: the first
    candidate that passes the gate, else the one with the highest key
    rate."""
    q, mu_hint, g = _end_point(w, rp, q)
    kept = []
    for n_active, factor in _reference_schedule(g, w.mx):
        cand = solver._polished(w, rp, q, factor * mu_hint, n_active, stats)
        if solver._passes(cand):
            return cand
        if cand:
            kept.append(cand)
    return max(kept, key=lambda cand: cand[1], default=None)


@pytest.mark.parametrize("mx", range(1, 7))
def test_face_schedule_tries_each_candidate_once(monkeypatch, mx):
    # an end point's polish tries the detected face g, then, for a failed
    # candidate that stays on face g (as here), g - 1, at the candidate's
    # own multiplier hint (here the end point's), stops at the first
    # candidate that passes the gate and else returns the one with the
    # highest key rate.
    # The pick of the pinned unit directions comes from M(mu) and the path
    # in rp walks the curve, so no other face or multiplier factor decides
    # a point of the probe's two sets, of the direct sums or of the
    # benchmark
    w = SimpleNamespace(mx=mx)
    tried = []

    def failing(w, rp, q, mu, n_active, stats):
        tried.append((n_active, mu))
        return q, float(n_active), 1.0  # the composite fails the gate

    def passing(w, rp, q, mu, n_active, stats):
        tried.append((n_active, mu))
        return q, 0.0, 0.0

    monkeypatch.setattr(solver, "_polished", failing)
    monkeypatch.setattr(solver, "_point", lambda w, q: q)
    monkeypatch.setattr(kkt, "closed_form_mu", lambda w, q: 0.25)
    for g in range(mx + 1):
        q = np.diag([1.0] * g + [0.5] * (mx - g))  # g eigenvalues at 1
        tried.clear()
        cand = solver._polish_end(w, 1.0, q, Counter())
        faces = [g, g - 1] if g else [0]
        assert tried == [(k, 0.25) for k in faces]
        assert cand[1] == max(faces)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_polished", passing)
            tried.clear()
            solver._polish_end(w, 1.0, q, Counter())
            assert tried == [(g, 0.25)]


def test_the_drop_step_polishes_the_failed_candidate(monkeypatch):
    # a first candidate that fails the test is polished next on the face
    # below its own (here it climbed from face 1 to 3, so face 2), at its
    # own hint; one on face 0 frees nothing, so no second polish runs.  When
    # the first polish returns none, the second polishes the end point on
    # g - 1 at the end point's hint
    w = SimpleNamespace(mx=4)
    q = np.diag([1.0, 0.5, 0.5, 0.5])  # face 1
    tried, firsts = [], []

    def polished(w, rp, start, mu, n_active, stats):
        tried.append((start, mu, n_active))
        return firsts[0] if len(tried) == 1 else None

    monkeypatch.setattr(solver, "_polished", polished)
    monkeypatch.setattr(solver, "_point", lambda w, q: q)
    monkeypatch.setattr(kkt, "closed_form_mu", lambda w, q: float(np.trace(q)))
    climbed = (np.diag([1.0, 1.0, 1.0, 0.5]), 1.0, 1.0)  # face 3, failing
    firsts.append(climbed)
    assert solver._polish_end(w, 1.0, q, Counter()) is climbed
    assert [(mu, n) for _, mu, n in tried] == [(2.5, 1), (3.5, 2)]
    assert tried[1][0] is climbed[0]
    tried.clear()
    firsts[0] = (np.diag([0.9, 0.5, 0.5, 0.5]), 1.0, 1.0)  # face 0, failing
    assert solver._polish_end(w, 1.0, q, Counter()) is firsts[0]
    assert [(mu, n) for _, mu, n in tried] == [(2.5, 1)]
    tried.clear()
    firsts[0] = None
    assert solver._polish_end(w, 1.0, q, Counter()) is None
    assert [(mu, n) for _, mu, n in tried] == [(2.5, 1), (2.5, 0)]
    assert all(start is q for start, _, _ in tried)


@pytest.mark.parametrize("key,rp", [(5004, 12.0), (5009, 12.0), (5012, 16.0)])
def test_no_face_polish_runs_on_a_start_the_rates_refuse(key, rp):
    # the commuting-part optimum here has whitened eigenvalues of about
    # 1e-15, which ``rates_aligned`` refuses: the solve moves on at once to
    # the path in rp, which starts from the corner, with no face polish
    # before it (11 before each ascent when the start was clipped to the
    # ascent's floor, none of which certified)
    m = _fresh_model(key)
    w, route_1 = whiten(m)[0], Counter()
    assert solver._polish_end(w, rp, solver._commuting_start(w, rp, False), route_1) is None
    assert route_1["polish_calls"] == 0
    assert solve_at_rate(m, rp).stats["path_steps"] > 0


def test_face_polish_calls_on_the_benchmark_points():
    # every candidate is an end point polished on its detected face, then,
    # when that candidate fails, the candidate on the face below its own:
    # the commuting-part optimum of each point.  The 36 solves make 59
    # polish calls and 534 residual rows in 411 evaluations, with 311
    # Jacobians, and no path or ascent run (827 rows, 503 evaluations and
    # 336 Jacobians when the polish climbed only on an accepted step; 72
    # calls, 968 rows, 593 evaluations, 397 Jacobians and one path run when
    # the second polish restarted from the end point and each Jacobian was
    # taken away from its chart's centre; 169 calls and 34,532 rows when
    # every face was tried at five multiplier factors and the line search
    # halved down to 2^-29).  A move to the next face is one more polish
    # call
    work = Counter()
    for point in POINTS:
        if point["model"].startswith("bench_"):
            stats = solve_at_rate(_model(point), point["rp"]).stats
            work.update({key: stats[key] for key in ("polish_calls", "residual_rows",
                                                     "residual_calls", "jacobians")})
            work.update(paths=stats["path_steps"] > 0, ascents=stats["ascent_rate_calls"] > 0)
    assert work["polish_calls"] <= 62
    assert work["residual_rows"] <= 600
    assert work["residual_calls"] <= 430
    assert work["jacobians"] <= 320
    assert work["paths"] <= 1
    assert not work["ascents"]


def test_route_1_decides_the_benchmark_point_the_path_took(monkeypatch):
    # bench_mx4_key2007 at rp 0.5: the commuting-part optimum's polish on
    # its detected face fails the test; the second polish, of that
    # candidate on the face below its own, certifies it, with no path run.
    # When the second polish restarted from the end point on g - 1, route 1
    # failed and a 10-call path from the corner certified the point.
    # fresh-5008 at rp 3, where route 1 still fails, is the positive
    # control: the path runs there and certifies
    tried = []
    polished = solver._polished

    def traced(w, rp, q, mu_hint, n_active, stats):
        cand = polished(w, rp, q, mu_hint, n_active, stats)
        tried.append((q, cand))
        return cand

    monkeypatch.setattr(solver, "_polished", traced)
    point = next(p for p in POINTS if p["model"] == "bench_mx4_key2007" and p["rp"] == 0.5)
    m = _model(point)
    report = solve_at_rate(m, 0.5)
    assert report.converged and report.iterations == 0
    assert report.stats["route"] == "commuting part" and report.stats["path_steps"] == 0
    assert _certificate_outcome(m, report.optimum, 0.5) == "certified"
    assert abs(report.value - point["value"]) <= VALUE_TOL
    (_, first), (start, second) = tried
    assert not solver._passes(first) and start is first[0] and solver._passes(second)
    report = solve_at_rate(_fresh_model(5008), 3.0)
    assert report.converged and report.iterations == 0
    assert report.stats["route"] == "path" and report.stats["path_steps"] > 0


def test_no_benchmark_solve_forms_the_second_commuting_part(monkeypatch):
    # each default solve of the benchmark's points forms the commuting part
    # in sigma_wy's eigenbasis once, for its first route, and never the one
    # in sigma_wz's (swap), which only the ascent's sixth start takes: with
    # the path off at fresh-5007 rp 16, a six-start ascent forms it (route 1
    # certifies rp 3 since the second polish starts from the first
    # candidate, and rp 5 since the polish climbs on the full Newton step's
    # exit)
    swaps = []
    start = solver._commuting_start
    monkeypatch.setattr(solver, "_commuting_start",
                        lambda w, rp, swap: swaps.append(swap) or start(w, rp, swap))
    bench = [p for p in POINTS if p["model"].startswith("bench_")]
    for point in bench:
        solve_at_rate(_model(point), point["rp"])
    assert swaps == [False] * len(bench)
    _no_path(monkeypatch)
    assert solve_at_rate(_fresh_model(5007), 16.0, n_starts=6).iterations > 0
    assert True in swaps


# (model, rp, route): a point that each route decides, the ascent with the
# path off, and one that none does
STATS_CASES = [("bench-2005", 1.0, "commuting part"), ("fresh-5008", 3.0, "path"),
               ("fresh-5007", 16.0, "ascent"), ("fresh-5009", 12.0, "none")]


@pytest.mark.parametrize("model,rp,route", STATS_CASES)
def test_a_solve_run_twice_counts_the_same_work(monkeypatch, model, rp, route):
    # a solve's stats are deterministic but for its CPU seconds: a second
    # run gives the same counts and the same bytes.  The route is none
    # exactly when the point is not converged, and a phase that did not run
    # took no CPU time
    if route == "ascent":
        _no_path(monkeypatch)
    m = _named_model(model)
    first, second = solve_at_rate(m, rp), solve_at_rate(m, rp)
    assert first.stats["route"] == route and (route == "none") == (not first.converged)
    cpu = ("commuting_part_cpu_s", "path_cpu_s", "ascent_cpu_s")
    assert ({k: v for k, v in first.stats.items() if k not in cpu}
            == {k: v for k, v in second.stats.items() if k not in cpu})
    assert np.float64(first.value).tobytes() == np.float64(second.value).tobytes()
    assert first.optimum.value.tobytes() == second.optimum.value.tobytes()
    ran = {"commuting part": 1, "path": 2}.get(route, 3)  # the phases that ran
    assert all(first.stats[k] > 0 for k in cpu[:ran])
    assert not any(first.stats[k] for k in cpu[ran:])
    assert (first.stats["path_steps"] > 0) == (route in ("path", "none"))  # else off
    assert (first.stats["ascent_matrices"] > 0) == (ran > 2) == (first.iterations > 0)


# Certified points per model off the corpus, at rates 0.25, 0.5, 1, 2 and 4
# (110 of 110; 102 before the ascent started from the commuting parts and
# the polish from three end points): the benchmark's draw at keys 3300-3305
# (mx 3), 3400-3405 (mx 4), 3600-3605 (mx 6) and 13-16 (mx 8).  The counts
# may only rise.
RELIABILITY_RATES = (0.25, 0.5, 1.0, 2.0, 4.0)
RELIABILITY_CERTIFIED = {
    **{(3, key): 5 for key in range(3300, 3306)},
    **{(4, key): 5 for key in range(3400, 3406)},
    **{(6, key): 5 for key in range(3600, 3606)},
    **{(8, key): 5 for key in range(13, 17)},
}


@pytest.mark.parametrize("mx,key", sorted(RELIABILITY_CERTIFIED))
def test_certified_points_off_the_corpus_do_not_fall(mx, key):
    m = _bench_model(key, mx)
    certified = sum(_certificate_outcome(m, solve_at_rate(m, rp).optimum, rp) == "certified"
                    for rp in RELIABILITY_RATES)
    assert certified >= RELIABILITY_CERTIFIED[mx, key]


@pytest.mark.parametrize("key", range(5000, 5018))
def test_face_schedule_keeps_the_reference_schedule_optima(monkeypatch, key):
    # the two faces of an end point's polish keep every optimum of the
    # schedule that tried every face at every factor.  Every route polishes
    # end points, so the two schedules can reach the same optimum through
    # different candidates and path steps: 58 of the 72 optima are the same
    # bytes, and the other 14 (at 5001, 5006, 5007, 5008, 5010, 5011 and
    # 5013) differ by at most 1.1e-14 in value and 1.6e-14 relative in sigma
    m = _fresh_model(key)
    for rp in (0.7, 1.5, 3.0, 5.0):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_polish_end", _reference_polish_end)
            want = solve_at_rate(m, rp)
        got = solve_at_rate(m, rp)
        assert abs(got.value - want.value) <= 1e-12
        assert _rel_close(got.optimum.value, want.optimum.value)
        assert got.converged == want.converged
        assert (_certificate_outcome(m, got.optimum, rp)
                == _certificate_outcome(m, want.optimum, rp))


# ---------------------------------------------------------------------------
# stacked face residual against the per-point closure
# ---------------------------------------------------------------------------

def _build(face, xs):
    """Conditional covariances, multipliers, rotated bases and free blocks of
    a stack of points, each rotation from the chart's own ``exp``: what
    ``_FaceSystem.point`` reads from a residual call's kept entry instead."""
    n_qf, na = face.n_qf, face.n_active
    q_f = np.einsum("pk,kab->pab", xs[:, :n_qf], face.basis_f)
    u = (face.u0 @ face.exp(xs) if face.n_rot
         else np.broadcast_to(face.u0, (len(xs),) + face.u0.shape))
    u_a, u_f = u[:, :, :na], u[:, :, na:]
    sigma = linalg.symmetrize(u_a @ np.swapaxes(u_a, -1, -2)
                              + u_f @ q_f @ np.swapaxes(u_f, -1, -2))
    return sigma, face.mu(xs), u, q_f


def _reference_residual(face, xv):
    """The per-point residual of the face polish, one call per point, each
    rotation from its own call of the chart's map ``solver.sla.expm``."""
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
        u = u @ solver.sla.expm(gen)
    u_a = u[:, :n_active]
    u_f = u[:, n_active:]
    sigma = linalg.symmetrize(u_a @ u_a.T + u_f @ q_f @ u_f.T)
    mu = math.exp(min(max(xv[-1], -700.0), 60.0))
    try:
        m_w = kkt.stationarity_matrix(m, sigma, mu)
        parts = [np.array([float(np.sum((u_f.T @ m_w @ u_f) * s))
                           for s in face.basis_f])]
        if n_rot:
            parts.append((u_a.T @ m_w @ u_f).ravel())
        ip = 0.5 * (linalg.logdet_pd(m.sigma_x) - linalg.logdet_pd(sigma)) - 0.5 * (
            face.m._logdets[2] - linalg.logdet_pd(sigma + m.sigma_wy))
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
    white, _, s_half_inv = whiten(m)
    sigma_hat = random_conditional(rng, m.sigma_x)
    q_hat = linalg.symmetrize(s_half_inv @ sigma_hat @ s_half_inv)
    w, u0 = np.linalg.eigh(q_hat)
    u0 = u0[:, np.argsort(w)[::-1]]
    for n_active in range(mx):
        face = solver._FaceSystem(white, 1.0, u0, n_active, Counter())
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


def _model_frame_residuals(face, xs):
    """The face residual as it was computed in the model's frame: each
    point's ``Q = U D U^T`` (``_build``), valid when the eigenvalues of
    the whole ``Q`` lie in ``(COND_COV_MIN_EIG, 1 + FACE_EXCURSION]``, then
    ``M(mu)`` of ``Q``, ``Q + sigma_wz`` and ``Q + sigma_wy`` rotated back
    as ``U^T M U``."""
    sigma, mu, u, _ = _build(face, xs)
    w = np.linalg.eigvalsh(sigma)
    valid = (w[:, 0] > COND_COV_MIN_EIG) & (w[:, -1] <= 1.0 + solver.FACE_EXCURSION)
    rows = np.full((len(xs), face.n_qf + face.n_rot + 1), np.nan)
    if not valid.any():
        return rows, valid
    lower = _chol_terms(face.m, sigma[valid])
    m_w = kkt.stationarity_stack(linalg.inv_chol(lower), mu[valid])
    u = u[valid]
    u_a, u_f = u[:, :, :face.n_active], u[:, :, face.n_active:]
    lds = linalg.logdet_chol(lower)
    ip = -0.5 * lds[:, 0] - 0.5 * (face.m._logdets[2] - lds[:, 2])
    rows[valid] = np.concatenate((
        np.einsum("kab,pab->kp", np.swapaxes(u_f, -1, -2) @ m_w @ u_f, face.basis_f),
        (np.swapaxes(u_a, -1, -2) @ m_w @ u_f).reshape(len(u), -1),
        (ip - face.rp)[:, None]), axis=1)
    return rows, valid


def _seeded_faces(mx, key):
    """``(face, x0)`` on every face below the corner of a seeded whitened
    model, ``x0`` the chart's centre at mu 0.7."""
    rng = rng_for(key)
    m = AlignedModel(*(random_spd(rng, mx) for _ in range(3)))
    white, _, s_half_inv = whiten(m)
    q_hat = linalg.congruence(s_half_inv, random_conditional(rng, m.sigma_x))
    w, u0 = np.linalg.eigh(q_hat)
    u0 = u0[:, np.argsort(w)[::-1]]
    for n_active in range(mx):
        face = solver._FaceSystem(white, 1.0, u0, n_active, Counter())
        u_f0 = u0[:, n_active:]
        yield face, np.concatenate((
            [np.sum((u_f0.T @ q_hat @ u_f0) * s) / np.sum(s * s) for s in face.basis_f],
            np.zeros(face.n_rot), [math.log(0.7)]))


@pytest.mark.parametrize("mx", range(2, 7))
def test_the_rotated_frame_gives_the_model_frame_rows(mx):
    # the residual reads N = U^T M U from D, D + W~z and D + W~y in the
    # rotated frame; the model frame built Q = U D U^T, factored its three
    # terms and rotated M back.  At seeded valid points on every face, with
    # angles of order 0.5, both take the same points and give the same rows
    # within 1e-12 on the rows' own scale (1 + |r|)
    n_valid = 0
    for key in range(3):
        rng = rng_for(9500 + 10 * mx + key)
        for face, x0 in _seeded_faces(mx, 9500 + 10 * mx + key):
            steps = np.concatenate((0.02 * rng.standard_normal((8, face.n_qf)),
                                    0.5 * rng.standard_normal((8, face.n_rot)),
                                    0.5 * rng.standard_normal((8, 1))), axis=1)
            rows, valid = face.residuals(x0 + steps)
            want, want_valid = _model_frame_residuals(face, x0 + steps)
            assert np.array_equal(valid, want_valid)
            n_valid += int(valid.sum())
            assert np.all(np.abs(rows - want)[valid]
                          <= ROW_RTOL * (1.0 + np.abs(want[valid])))
    assert n_valid >= 8 * 3 * mx - 4


@pytest.mark.parametrize("case", ["above the cap", "below the floor", "NaN angles"])
def test_an_invalid_trial_has_nan_rows_and_factors_nothing(monkeypatch, case):
    # a trial whose free eigenvalue passes 1 + FACE_EXCURSION or falls to
    # the interval gate's floor is refused before any rotation; one with a
    # NaN angle has a NaN rotation, which the orthogonality gate refuses
    # before any factorisation (the Cayley map of this face's generators,
    # three equal angles of order 1e14, is orthogonal to round-off, where
    # the exponential by eigensolve that it replaced was not).  Each row is
    # NaN and keeps nothing, and a valid trial beside it keeps the rows of a
    # call on its own
    face, x0 = next(f for f in _seeded_faces(4, 9600) if f[0].n_active == 1)
    bad = np.repeat(x0[None], 3, axis=0)
    eye_f = np.array([float(s.sum() == 1.0) for s in face.basis_f])
    if case == "above the cap":
        bad[:, :face.n_qf] = (1.0 + np.array([1.01, 2.0, 10.0])[:, None]
                              * solver.FACE_EXCURSION) * eye_f
    elif case == "below the floor":
        bad[:, :face.n_qf] = np.array([0.5, 1e-11, -0.1])[:, None] * eye_f
        bad[0, 0] = 1e-11  # one free eigenvalue at the floor, the others at 0.5
    else:
        bad[:, face.n_qf:-1] = 0.1
        bad[0, face.n_qf:-1] = np.nan  # every angle NaN, then the first or the last alone
        bad[1, face.n_qf] = bad[2, -2] = np.nan
    calls = _counted(monkeypatch)
    rows, valid = face.residuals(bad)
    assert not valid.any() and np.isnan(rows).all() and face.kept == [None] * 3
    assert calls == {"for_model": 0, "cholesky": 0, "inv_chol": 0, "inv": 0}
    assert face.stats["expm_calls"] == int(case == "NaN angles")
    single, _ = face.residuals(x0[None])
    mixed, valid = face.residuals(np.concatenate((bad[:1], x0[None], bad[1:])))
    assert list(valid) == [False, True, False, False]
    assert mixed[1].tobytes() == single[0].tobytes()
    assert np.isnan(mixed[[0, 2, 3]]).all()


@pytest.mark.parametrize("mx", range(2, 7))
def test_face_jacobian_matches_central_differences(mx):
    # every face below the corner, in a chart centred at seeded angles and
    # multipliers away from the start's (``_FaceSystem.centre``), where the
    # polish takes its Jacobians; central differences of step 1e-6 (1 + |x|)
    # are good to about 1e-9 here
    for key in range(2):
        rng = rng_for(9100 + 10 * mx + key)
        m = AlignedModel(*(random_spd(rng, mx) for _ in range(3)))
        white, _, s_half_inv = whiten(m)
        q_hat = linalg.congruence(s_half_inv, random_conditional(rng, m.sigma_x))
        w, u0 = np.linalg.eigh(q_hat)
        u0 = u0[:, np.argsort(w)[::-1]]
        for n_active in range(mx):
            face = solver._FaceSystem(white, 1.0, u0, n_active, Counter())
            nx = face.n_qf + face.n_rot + 1
            u_f0 = u0[:, n_active:]
            x = np.concatenate((
                [np.sum((u_f0.T @ q_hat @ u_f0) * s) / np.sum(s * s) for s in face.basis_f],
                0.3 * rng.standard_normal(face.n_rot),
                [math.log(0.7) + 0.5 * rng.standard_normal()]))
            _, valid = face.residuals(x[None])
            assert valid.all()
            x = face.centre(face.kept[0])
            assert not x[face.n_qf:-1].any()
            h = 1e-6 * (1.0 + np.abs(x))
            rows, valid = face.residuals(np.concatenate((x + np.diag(h), x - np.diag(h))))
            assert valid.all()
            want = ((rows[:nx] - rows[nx:]) / (2.0 * h)[:, None]).T
            face.residuals(x[None])
            got = face.jacobian(face.kept[0])
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("mx", range(2, 7))
def test_kept_factors_give_the_fresh_jacobian(mx):
    # the polish takes each Jacobian from the factors that the line search's
    # stacked residual call kept for the accepted trial: for every face and
    # stacks of 1, 4 and 30 trials they give the Jacobian of one single-point
    # evaluation bit for bit, and the residual rows match too.  So does one
    # evaluation at the centre of the chart moved to the trial
    # (``_FaceSystem.centre``), where the polish takes the Jacobian
    rng = rng_for(9200 + mx)
    m = AlignedModel(*(random_spd(rng, mx) for _ in range(3)))
    white, _, s_half_inv = whiten(m)
    q_hat = linalg.congruence(s_half_inv, random_conditional(rng, m.sigma_x))
    w, u0 = np.linalg.eigh(q_hat)
    u0 = u0[:, np.argsort(w)[::-1]]
    for n_active in range(mx):
        face = solver._FaceSystem(white, 1.0, u0, n_active, Counter())
        nx = face.n_qf + face.n_rot + 1
        x0 = np.zeros(nx)
        x0[:face.n_qf] = [0.5 * float(s.sum() == 1.0) for s in face.basis_f]
        x0[-1] = math.log(0.7)
        for size in (1, 4, 30):
            trials = x0 + 0.05 * rng.standard_normal((size, nx))
            rows, valid = face.residuals(trials)
            kept = face.kept
            assert valid.all()
            for x, row, factors in zip(trials, rows, kept):
                single, _ = face.residuals(x[None])
                assert row.tobytes() == single[0].tobytes()
                assert (face.jacobian(factors).tobytes()
                        == face.jacobian(face.kept[0]).tobytes())
                centred = copy.copy(face)
                at_centre, _ = centred.residuals(centred.centre(factors)[None])
                assert row.tobytes() == at_centre[0].tobytes()
                assert (face.jacobian(factors).tobytes()
                        == centred.jacobian(centred.kept[0]).tobytes())


# ---------------------------------------------------------------------------
# the ascent against a per-start loop on per-point kernels
# ---------------------------------------------------------------------------

def _reference_ascent(m, rp, q0, max_iter):
    """Penalised projected-gradient ascent from one start on a whitened
    model, with ``rates_aligned`` and ``linalg.inv_pd`` per point: the loop
    that ``_pga_penalty`` runs for each start on stacked kernels."""
    rho = solver._penalty_weight(m)
    floor = solver.SIGMA_FLOOR_SCALE

    def objective(q):
        pair = rates_aligned(m, q)
        return pair.rk - rho * max(0.0, pair.rp - rp), pair

    def grads(q):
        inv_y = linalg.inv_pd(q + m.sigma_wy)
        inv_z = linalg.inv_pd(q + m.sigma_wz)
        inv_s = linalg.inv_pd(q)
        return 0.5 * (inv_z - inv_y), 0.5 * (inv_y - inv_s)

    q = linalg.eig_clip(q0, floor, 1.0)
    val, pair = objective(q)
    eta = 0.1
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad_ik, grad_ip = grads(q)
        grad = grad_ik if pair.rp <= rp else grad_ik - rho * grad_ip
        if linalg.frob(grad) < 1e-13:
            break
        accepted = False
        for _ in range(30):
            q_new = linalg.eig_clip(q + eta * grad, floor, 1.0)
            move = linalg.frob(q_new - q)
            if move < 1e-14 * (1.0 + linalg.frob(q)):
                break
            val_new, pair_new = objective(q_new)
            if val_new > val + 1e-4 / max(eta, 1e-12) * move * move:
                q, val, pair = q_new, val_new, pair_new
                eta = min(eta * 1.5, 10.0)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
    return q, pair, iterations


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
    m = whiten(_bench_model(key, mx))[0]
    starts = solver._starts(m, rp, 6)
    got = solver._pga_penalty(m, rp, np.array(starts), max_iter, Counter())
    for q0, (sigma, pair, iterations) in zip(starts, got):
        want = _reference_ascent(m, rp, q0, max_iter)
        assert iterations == want[2]
        assert np.array_equal(sigma, want[0])
        assert (pair.rp, pair.rk) == (want[1].rp, want[1].rk)


# ---------------------------------------------------------------------------
# line searches that test several step sizes per stacked call
# ---------------------------------------------------------------------------

def _reference_pga_penalty(m, rp, q0, max_iter, stats):
    """The lockstep ascent, which advances every start at once with one
    stacked evaluation per backtracking trial: what ``_pga_penalty`` did
    before it tested several trials per call, and before it ran each start
    alone.  A trial with NaN rates fails the Armijo test.  It counts
    nothing in ``stats``."""
    floor = solver.SIGMA_FLOOR_SCALE
    ld_full = np.array([linalg.logdet_pd(m.sigma_x + w) for w in (0.0, m.sigma_wz, m.sigma_wy)])
    rho = solver._penalty_weight(m)

    def objective(q):
        # (rp, rk) per trial, NaN for an invalid one, which ``RatePair``
        # refuses: only the accepted points become rate pairs
        ip, ik = solver._rates_stack(m, q, ld_full)
        pairs = list(zip(ip.tolist(), ik.tolist()))
        vals = [b - rho * max(0.0, a - rp) for a, b in pairs]
        return np.array(vals), pairs

    k = len(q0)
    q = linalg.eig_clip(np.asarray(q0, dtype=float), floor, 1.0)
    val, pairs = objective(q)
    eta = np.full(k, 0.1)
    iterations = np.zeros(k, dtype=int)
    live = np.arange(k)
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        iterations[live] = it
        inv_s, inv_z, inv_y = np.moveaxis(linalg.inv_chol(_chol_terms(m, q[live])), 1, 0)
        grad_ik, grad_ip = 0.5 * (inv_z - inv_y), 0.5 * (inv_y - inv_s)
        over = np.array([not pairs[i][0] <= rp for i in live])[:, None, None]
        grad_q = np.where(over, grad_ik - rho * grad_ip, grad_ik)
        moving = ~(solver._frob_stack(grad_q) < 1e-13)
        search, grad_q = live[moving], grad_q[moving]
        accepted = []
        for _ in range(30):
            if not search.size:
                break
            q_new = linalg.eig_clip(q[search] + eta[search, None, None] * grad_q,
                                    floor, 1.0)
            move = solver._frob_stack(q_new - q[search])
            keep = ~(move < 1e-14 * (1.0 + solver._frob_stack(q[search])))
            search, q_new, move, grad_q = search[keep], q_new[keep], move[keep], grad_q[keep]
            if not search.size:
                break
            val_new, pairs_new = objective(q_new)
            up = val_new > val[search] + 1e-4 / np.maximum(eta[search], 1e-12) * move * move
            win = search[up]
            q[win], val[win] = q_new[up], val_new[up]
            for i, j in zip(win, np.flatnonzero(up)):
                pairs[i] = pairs_new[j]
            eta[win] = np.minimum(eta[win] * 1.5, 10.0)
            accepted.extend(win)
            eta[search[~up]] *= 0.5
            search, grad_q = search[~up], grad_q[~up]
        live = np.sort(np.array(accepted, dtype=int))
    return [(q[i], RatePair(*pairs[i]), int(iterations[i])) for i in range(k)]


def _picked_frame(m, q_hat, mu_hint, n_active):
    """The eigenvectors of ``q_hat``, largest first, with the unit ones
    (eigenvalue at least 1 - 1e-9), when more than ``n_active``, mixed into
    the eigenvectors of ``M(mu_hint)``'s block on them, largest first."""
    lam, u0 = np.linalg.eigh(q_hat)
    order = np.argsort(lam)[::-1]
    lam, u0 = lam[order], u0[:, order]
    unit = lam >= 1.0 - 1e-9
    if 0 < n_active < np.sum(unit):
        u_c = u0[:, unit]
        _, v = np.linalg.eigh(u_c.T @ kkt.stationarity_matrix(m, q_hat, mu_hint) @ u_c)
        u0[:, unit] = u_c @ v[:, ::-1]
    return u0


def _reference_polish_face(m, rp, q_hat, mu_hint, n_active, stats, n_halvings=30, pin=True):
    """The face polish whose line search evaluates all ``n_halvings`` (30)
    halvings as one stack: what ``_polish_face`` did before it tried the
    first few alone.  Both take the closed-form ``_FaceSystem.jacobian``
    in a chart re-centred at each iterate (``_FaceSystem.centre``), the
    same pick of the pinned unit directions (``_picked_frame``) and the
    same pin rule (a full Newton step that lifts a free eigenvalue above 1,
    below the corner's face, or an accepted step that does, hands over to
    face ``n_active + 1`` from the iterate before it), so the line search
    is what this reference checks; it takes each Jacobian from a fresh
    evaluation at the chart's centre.  With ``pin=False`` and
    ``n_halvings=solver.POLISH_HALVINGS`` it is the polish without the pin
    rule."""
    u0 = _picked_frame(m, q_hat, mu_hint, n_active)
    if n_active == m.mx:
        return np.array(m.sigma_x), mu_hint, 0.0
    face = solver._FaceSystem(m, rp, u0, n_active, stats)
    nx = face.n_qf + face.n_rot + 1
    x = np.zeros(nx)
    q_free0 = u0[:, n_active:].T @ q_hat @ u0[:, n_active:]
    x[:face.n_qf] = [float(np.sum(q_free0 * s)) / float(np.sum(s * s))
                     for s in face.basis_f]
    x[-1] = math.log(max(mu_hint, 1e-12))
    rows, valid = face.residuals(x[None])
    if not valid[0]:
        return None
    r, x = rows[0], face.centre(face.kept[0])
    halvings = 0.5 ** np.arange(n_halvings)[:, None]

    def top(t):  # the top free eigenvalue of a trial
        return np.linalg.eigvalsh(np.tensordot(t[:face.n_qf], face.basis_f, 1))[-1]

    for _ in range(80):
        rnorm = float(np.max(np.abs(r)))
        if rnorm < 1e-12 * min(1.0, rp):
            break
        face.residuals(x[None])
        jac = face.jacobian(face.kept[0])
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        trials = x + halvings * step
        rows, valid = face.residuals(trials)
        better = np.flatnonzero(valid & (np.max(np.abs(rows), axis=1) < rnorm))
        exits = pin and top(trials[0]) > 1.0 and n_active + 1 < m.mx
        if not (better.size or exits):
            break
        if exits or pin and top(trials[better[0]]) > 1.0:
            sigma, mu, _, _ = _build(face, x[None])
            return _reference_polish_face(m, rp, sigma[0], float(mu[0]), n_active + 1, stats,
                                          n_halvings)
        x, r = face.centre(face.kept[better[0]]), rows[better[0]]
    sigma, mu, _, _ = _build(face, x[None])
    return sigma[0], float(mu[0]), float(np.max(np.abs(r)))


def _reference_point(*args):
    """``_reference_polish_face`` as a drop-in for ``solver._polish_face``,
    which returns the point alone."""
    out = _reference_polish_face(*args)
    return None if out is None else out[0]


def _degraded_model(key):
    return random_aligned(rng_for(key), 2 + key % 5, degraded=True)


# fresh-5007 takes rp 4 for rp 5, where the damping floor decided route 1
# (``test_the_halving_floor_sends_one_polish_to_the_ascent``), and
# fresh-5008 rp 1.4 for rp 1.5, where the halvings below the floor move the
# value by 3.3e-16 (a first polish on face 1 that goes on below the floor;
# both certify).  They move it at rp 1.25 and 1.6 too, and at 1.25 and 2
# before the polish climbed on the full Newton step's exit
_STEPPED_AROUND = {(5007, 5.0): 4.0, (5008, 1.5): 1.4}
_STACKED_SEARCH_CASES = (
    [(f"corpus-{p['model']}", p["rp"]) for p in POINTS]
    + [(f"fresh-{key}", _STEPPED_AROUND.get((key, rp), rp))
       for key in range(5000, 5018) for rp in (0.7, 1.5, 3.0, 5.0)]
    + [(f"degraded-{key}", rp) for key in range(6000, 6012) for rp in (0.5, 2.0, 6.0)])


def _case_model(name):
    kind, _, rest = name.partition("-")
    if kind == "corpus":
        return _model(next(p for p in POINTS if p["model"] == rest))
    return _fresh_model(int(rest)) if kind == "fresh" else _degraded_model(int(rest))


@pytest.mark.parametrize("name", sorted({n for n, _ in _STACKED_SEARCH_CASES}))
def test_stacked_line_searches_keep_the_sequential_iterates(monkeypatch, name):
    # the solve runs the ascent only when the polished commuting-part
    # optimum fails the gate and the path fails, so the ascent half is
    # checked on the starts it would take, whether or not the solve reaches
    # it.  Both solves skip the path: on fresh-5006, 5007 and 5010 and
    # degraded-6004 its steps reach the same optima by different halvings
    # in the two polishes
    m = _case_model(name)
    w = whiten(m)[0]
    _no_path(monkeypatch)
    for rp in sorted({rp for n, rp in _STACKED_SEARCH_CASES if n == name}):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_pga_penalty", _reference_pga_penalty)
            patch.setattr(solver, "_polish_face", _reference_point)
            want = solve_at_rate(m, rp)
        got = solve_at_rate(m, rp)
        assert got.value == want.value
        assert got.optimum.value.tobytes() == want.optimum.value.tobytes()
        assert (got.iterations, got.kkt_residual, got.converged) == (
            want.iterations, want.kkt_residual, want.converged)
        assert (_certificate_outcome(m, got.optimum, rp)
                == _certificate_outcome(m, want.optimum, rp))
        starts = np.array(solver._starts(w, rp, 6))
        for (sigma, pair, its), (sigma_r, pair_r, its_r) in zip(
                solver._pga_penalty(w, rp, starts, 400, Counter()),
                _reference_pga_penalty(w, rp, starts, 400, Counter())):
            assert sigma.tobytes() == sigma_r.tobytes()
            assert (pair.rp, pair.rk, its) == (pair_r.rp, pair_r.rk, its_r)


def test_the_halving_floor_sends_one_polish_to_the_ascent(monkeypatch):
    # rel6-3600 at rp 12, with the path off: route 1 passes only with
    # halvings below the floor 2^-8, so the solve runs the ascent there,
    # where the reference's 30 halvings certify from route 1.  Both answers
    # certify, 4e-16 apart; with the path on, the path certifies the point.
    # fresh-5007 at rp 5 was such a point until the polish climbed on the
    # full Newton step's exit: route 1 certifies it now
    m = _named_model("rel6-3600")
    _no_path(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_polish_face", _reference_point)
        want = solve_at_rate(m, 12.0)
    got = solve_at_rate(m, 12.0)
    assert want.iterations == 0 < got.iterations
    assert want.converged and got.converged
    assert abs(got.value - want.value) <= 1e-12
    for report in (got, want):
        assert _certificate_outcome(m, report.optimum, 12.0) == "certified"


def test_a_free_eigenvalue_crossing_1_moves_the_polish_to_the_next_face(monkeypatch):
    # the first commuting-part optimum of bench_mx4_key2005 at rp 2 is
    # detected on face 1; its polish there lifts a free eigenvalue above 1
    # and goes on on face 2, where the optimum is.  Before the pin rule it
    # walked face 1 until no halving helped (residual 1.69)
    w = whiten(_bench_model(2005, 4))[0]
    rp = 2.0
    q0 = solver._commuting_start(w, rp, False)
    q, mu_hint, g = _end_point(w, rp, q0)
    assert g == 1
    faces = []
    polish = solver._polish_face

    def recorded(*args):
        faces.append(args[4])
        return polish(*args)

    monkeypatch.setattr(solver, "_polish_face", recorded)
    pinned = solver._polished(w, rp, q, mu_hint, 1, Counter())
    assert faces == [1, 2]
    direct = solver._polished(w, rp, q, mu_hint, 2, Counter())
    assert max(pinned[2], direct[2]) <= kkt.ACCEPT_COMPOSITE
    assert abs(pinned[1] - direct[1]) <= 1e-12
    unpinned = _reference_polish_face(w, rp, q, mu_hint, 1, Counter(), solver.POLISH_HALVINGS,
                                      pin=False)
    assert unpinned[2] > 1e-8


def _mixed_unit_basis(q, seed):
    """``q`` rebuilt from its eigendecomposition with the basis of its unit
    eigenspace (eigenvalues at least 1 - 1e-9) mixed by the Q factor of a
    standard-normal draw from ``rng_for(seed)``."""
    lam, u = np.linalg.eigh(q)
    unit = lam >= 1.0 - 1e-9
    mix = np.linalg.qr(rng_for(seed).standard_normal((int(unit.sum()),) * 2))[0]
    u[:, unit] = u[:, unit] @ mix
    return linalg.symmetrize((u * lam) @ u.T)


@pytest.mark.parametrize("key,mx,rp", [(2005, 4, 1e-4), (2009, 6, 1e-4), (15, 8, 1e-4),
                                       (2005, 4, 0.5), (2009, 6, 2.0), (15, 8, 4.0)])
def test_the_pick_does_not_depend_on_the_unit_basis(key, mx, rp):
    # a start with more unit eigenvalues than its face pins: the corner I,
    # polished on face mx - 1 as the path's seed (at rp 1e-4), or an optimum
    # on face g, polished on g - 1.  Which unit directions stay pinned is
    # read from M(mu_hint), so mixing the unit eigenspace's basis by seeded
    # orthogonal matrices gives the same polished point to round-off (at
    # most 3.5e-14 relative here), while the direction that eigh's order
    # would free moves (|cos| down to 0.02)
    w = whiten(_bench_model(key, mx))[0]
    start = np.eye(mx) if rp < 1e-3 else solver._polish_end(
        w, rp, solver._commuting_start(w, rp, False), Counter())[0]
    q, mu_hint, g = _end_point(w, rp, start)
    assert int(np.sum(np.linalg.eigvalsh(q) >= 1.0 - 1e-9)) == g >= 2
    want = solver._polish_face(w, rp, q, mu_hint, g - 1, Counter())

    def by_order(a):  # the eigenvector that eigh's order would free
        lam, u = np.linalg.eigh(a)
        return u[:, np.argsort(lam)[::-1][g - 1]]

    freed = []
    for seed in range(9800, 9803):
        mixed = _mixed_unit_basis(q, seed)
        assert _rel_close(solver._polish_face(w, rp, mixed, mu_hint, g - 1, Counter()), want)
        freed.append(abs(by_order(mixed) @ by_order(q)))
    assert min(freed) < 0.9


def test_a_polish_that_never_crosses_keeps_its_iterates(monkeypatch):
    # over the benchmark's points, every polish in which no free eigenvalue
    # crosses 1 returns the bytes of the polish without the pin rule
    calls = []
    polish = solver._polish_face

    def recorded(*args):
        entry = [args, False]
        calls.append(entry)
        n = len(calls)
        out = polish(*args)
        entry[1] = len(calls) > n  # it moved to the next face
        return out

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_polish_face", recorded)
        for point in POINTS:
            if point["model"].startswith("bench_"):
                solve_at_rate(_model(point), point["rp"])
    kept = [args for args, moved in calls if not moved]
    assert len(kept) < len(calls)
    for args in kept:
        got = solver._polish_face(*args)
        want = _reference_polish_face(*args, solver.POLISH_HALVINGS, pin=False)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want[0].tobytes()


@pytest.mark.parametrize("mx, key, rp, period, max_iter, sequential", [
    (2, 2001, 1.0, 5, 400, "meets"), (2, 2003, 0.5, 13, 400, "meets"),
    (2, 2003, 0.5, 25, 3, "misses"), (4, 2005, 2.0, 13, 3, "meets"),
    (4, 2005, 2.0, 13, 400, "meets"), (6, 2009, 1.0, 13, 400, "meets")])
def test_injected_invalid_trials_backtrack(monkeypatch, mx, key, rp, period, max_iter,
                                           sequential):
    # give NaN rates to every trial matrix whose bytes hash to 0 mod period:
    # a property of the matrix alone, so both searches see the same invalid
    # trials; each fails its Armijo test, and the per-start ascent must keep
    # the lockstep reference's iterates, raising in neither.  The starts,
    # which the first call evaluates as one stack in both, are not trials
    rates = solver._rates_stack
    marked, calls = [], []

    def marking(mm, sigma, ld_full):
        ip, ik = rates(mm, sigma, ld_full)
        calls.append(len(sigma))
        for i, s in enumerate(sigma if len(calls) > 1 else ()):
            if zlib.crc32(s.tobytes()) % period == 0:
                ip[i], ik[i] = np.nan, np.nan
                marked.append(s.tobytes())
        return ip, ik

    monkeypatch.setattr(solver, "_rates_stack", marking)
    m = whiten(_bench_model(key, mx))[0]
    starts = np.array(solver._starts(m, rp, 6))
    outcomes, n_marked = [], []
    for search in (_reference_pga_penalty, solver._pga_penalty):
        marked.clear()
        calls.clear()
        out = search(m, rp, starts, max_iter, Counter())
        outcomes.append([(s.tobytes(), p.rp, p.rk, its) for s, p, its in out])
        n_marked.append(len(set(marked)))
    assert outcomes[0] == outcomes[1]
    # each start evaluates one trial per call, as the reference's stacked
    # rounds do, so both meet the same invalid trials; where they meet
    # some, they backtrack past them
    assert n_marked[1] == n_marked[0]
    assert (n_marked[0] > 0) == (sequential == "meets")


def test_ascent_evaluations_where_the_ascent_runs(monkeypatch):
    # no point of the benchmark or of the main probe set reaches the ascent:
    # the path in rp runs before it.  Here on fresh-5008 at rp 3 and 5,
    # rel6-3605 at rp 1 and rel8-13 (bench-13) at rp 4, the four main-set
    # points where the commuting-part polish fails, with the path off, the
    # ascent evaluates 1,747 matrices, one backtracking trial per matrix
    # (1,765 on fresh-5001 and fresh-5007 at rp 5 and fresh-5008 at rp 3
    # and 5, before the polish climbed on the full Newton step's exit)
    _no_path(monkeypatch)
    matrices = 0
    for name, rp in (("fresh-5008", 3.0), ("fresh-5008", 5.0), ("rel6-3605", 1.0),
                     ("bench-13", 4.0)):
        report = solve_at_rate(_named_model(name), rp)
        assert report.iterations > 0
        matrices += report.stats["ascent_matrices"]
    assert matrices <= 1800


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


def test_a_refused_polish_start_is_refused_on_every_route(monkeypatch):
    # a GausskeyError inside the face polish refuses its start: route 1, the
    # path and the fallback all go on, where the fallback's polish raised
    def refused(*args, **kwargs):
        raise NotPositiveDefinite("a trial's factor")

    monkeypatch.setattr(solver._FaceSystem, "residuals", refused)
    report = solve_at_rate(_bench_model(2002, 2), 1.0)
    assert not report.converged and report.iterations > 0


def test_bugs_in_the_certificate_propagate(monkeypatch):
    monkeypatch.setattr(kkt, "certify", _bug)
    with pytest.raises(TypeError):
        solver.ascent_boundary(_bench_model(2002, 2), [0.5])


@pytest.mark.parametrize("error", [NoValidMultiplier("not optimal")])
def test_failed_certificate_reports_infinite_residual(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(kkt, "certify", fail)
    boundary = solver.ascent_boundary(_bench_model(2002, 2), [0.5, 1.0])
    assert [pm.kkt_residual for pm in boundary.solver_meta] == [math.inf, math.inf]


def test_a_value_error_in_the_certificate_propagates(monkeypatch):
    # certify returns M's PSD projection, so its own check on M cannot
    # raise; a ValueError out of it is a bug, not a failed certificate
    def fail(*args, **kwargs):
        raise ValueError("M must be PSD")

    monkeypatch.setattr(kkt, "certify", fail)
    with pytest.raises(ValueError):
        solver.ascent_boundary(_bench_model(2002, 2), [0.5])


# ---------------------------------------------------------------------------
# one test and one factoring per point
# ---------------------------------------------------------------------------

def _counted(monkeypatch):
    """Count ``ConditionalCov.for_model``, ``np.linalg.cholesky``,
    ``linalg.inv_chol`` and ``np.linalg.inv`` calls from here on."""
    calls = dict.fromkeys(("for_model", "cholesky", "inv_chol", "inv"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for_model = ConditionalCov.for_model.__func__
    monkeypatch.setattr(ConditionalCov, "for_model",
                        classmethod(counting("for_model", for_model)))
    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(linalg, "inv_chol", counting("inv_chol", linalg.inv_chol))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    return calls


def _benchmark_key_point(rp=1.0):
    point = next(p for p in POINTS if p["model"] == "bench_mx4_key2005" and p["rp"] == rp)
    return _model(point), point


def test_a_certificate_tests_and_factors_its_point_once(monkeypatch):
    # bench_mx4_key2005 (the benchmark's key) at rp 1, its model's cached
    # constants warm: certify tests Q once (6 ConditionalCov.for_model calls
    # when recover_multipliers, enhance and the residuals each tested it
    # again) and makes 5 Cholesky calls and 5 inverse calls (20 and 10
    # before): A, A + W~z and A + W~y as one stack, the enhancement kernel,
    # Q + W~ with sigma_x + W~, the posterior precision, and sigma_xuz with
    # sigma_xuz + sigma_n3
    m, point = _benchmark_key_point()
    want = certify(m, point["sigma"], 1.0)
    calls = _counted(monkeypatch)
    cert = certify(m, point["sigma"], 1.0)
    assert cert.max_residual < CERT_GATE
    assert kkt.certificate_to_json(cert) == kkt.certificate_to_json(want)
    assert calls["for_model"] == 1
    assert (calls["cholesky"], calls["inv_chol"]) == (5, 5)


@pytest.mark.parametrize("size", [1, 4])
def test_a_face_residual_call_factors_its_rows_once(monkeypatch, size):
    # one _FaceSystem.residuals call of k valid rows makes one stacked
    # Cholesky and one stacked inverse of its factors, and one stacked expm
    # when the face has angles; the Jacobian from the kept factors makes
    # none of the three, and a stack of trials past the cap makes none
    m, _ = _benchmark_key_point()
    w = whiten(m)[0]
    q, mu_hint, g = _end_point(w, 1.0, solver._commuting_start(w, 1.0, False))
    evals, u0 = np.linalg.eigh(q)
    face = solver._FaceSystem(w, 1.0, u0[:, np.argsort(evals)[::-1]], max(g, 1), Counter())
    nx = face.n_qf + face.n_rot + 1
    x0 = np.zeros(nx)
    x0[:face.n_qf] = [0.5 * float(s.sum() == 1.0) for s in face.basis_f]
    x0[-1] = math.log(mu_hint)
    trials = x0 + 0.01 * rng_for(9300 + size).standard_normal((size, nx))
    calls = _counted(monkeypatch)
    rows, valid = face.residuals(trials)
    assert valid.all() and face.n_rot
    once = {"for_model": 0, "cholesky": 1, "inv_chol": 1, "inv": 1}
    assert calls == once and face.stats["expm_calls"] == 1
    face.jacobian(face.kept[0])
    assert calls == once and face.stats["expm_calls"] == 1
    past = trials.copy()
    past[:, :face.n_qf] *= 2.0 * (1.0 + solver.FACE_EXCURSION) / 0.5
    rows, valid = face.residuals(past)
    assert not valid.any() and np.isnan(rows).all()
    assert calls == once and face.stats["expm_calls"] == 1


@pytest.mark.parametrize("rp, faces", [(1.0, [2]), (2.0, [1, 2]), (0.5, [2, 3])])
def test_a_polish_calls_expm_once_per_rotated_evaluation(monkeypatch, rp, faces):
    # the polishes of bench_mx4_key2005's first commuting-part optimum, on
    # its detected face and, at rp 2 and 0.5, climbing to the next one: one
    # expm call per residual evaluation that holds a trial inside the free
    # eigenvalue gate on a face with angles, and none for the point that
    # starts the next face or the point returned, both read from kept entries
    w = whiten(_bench_model(2005, 4))[0]
    q, mu_hint, g = _end_point(w, rp, solver._commuting_start(w, rp, False))
    want = solver._polish_face(w, rp, q, mu_hint, g, Counter())
    polish, residuals = solver._polish_face, solver._FaceSystem.residuals
    seen, rotated, stats = [], [0], Counter()

    def recorded(*args):
        seen.append(args[4])
        return polish(*args)

    def gated(face, xs):
        q_f = np.einsum("pk,kab->pab", xs[:, :face.n_qf], face.basis_f)
        lam = np.linalg.eigvalsh(q_f)
        inside = (lam[:, 0] > COND_COV_MIN_EIG) & (lam[:, -1] <= 1.0 + solver.FACE_EXCURSION)
        rotated[0] += bool(face.n_rot and inside.any())
        return residuals(face, xs)

    monkeypatch.setattr(solver, "_polish_face", recorded)
    monkeypatch.setattr(solver._FaceSystem, "residuals", gated)
    got = solver._polish_face(w, rp, q, mu_hint, g, stats)
    assert seen == faces
    assert got.tobytes() == want.tobytes()
    assert stats["expm_calls"] == rotated[0] > 0


@pytest.mark.parametrize("mx", range(2, 7))
def test_the_kept_point_is_the_built_point(mx):
    # at seeded valid points on every face, the face without angles
    # included, the Q and mu that a residual call's kept entry gives, once
    # the chart is centred there, are the bytes of those built from the
    # point's coordinates and its own expm
    n_valid = n_plain = 0
    for key in range(3):
        rng = rng_for(9700 + 10 * mx + key)
        for face, x0 in _seeded_faces(mx, 9700 + 10 * mx + key):
            xs = x0 + np.concatenate((0.02 * rng.standard_normal((8, face.n_qf)),
                                      0.5 * rng.standard_normal((8, face.n_rot)),
                                      0.5 * rng.standard_normal((8, 1))), axis=1)
            _, valid = face.residuals(xs)
            for i in np.flatnonzero(valid):
                centred = copy.copy(face)
                centred.centre(face.kept[i])
                sigma, mu = centred.point(face.kept[i])
                want_sigma, want_mu, _, _ = _build(face, xs[i][None])
                assert sigma.tobytes() == want_sigma[0].tobytes()
                assert np.float64(mu).tobytes() == want_mu[0].tobytes()
                n_valid += 1
                n_plain += not face.n_rot
    assert n_valid >= 8 * 3 * mx - 4 and n_plain


def _rel_close(got, want, tol=1e-12):
    return np.linalg.norm(np.asarray(got) - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"{p['model']}-rp{p['rp']}")
def test_the_one_pass_certificate_is_the_public_steps(point):
    # certify passes one tested and factored point through
    # recover_multipliers, enhance and its residuals; called one by one on
    # raw arrays, in its frame, they give its mu, M and W~ within 1e-12
    # relative, and verify_certificate gives its ten residuals within 1e-12
    # on the residuals' own scale (1 + |r|)
    m, rp = _model(point), point["rp"]
    cert = certify(m, point["sigma"], rp)
    assert cert.max_residual < CERT_GATE
    w, s_half, s_half_inv = whiten(m)
    a = linalg.congruence(s_half_inv, cert.sigma_star.value)
    rec = kkt.recover_multipliers(w, a, rp)
    wy_tilde = kkt.enhance(w, a, rec.mu, rec.m_matrix)
    assert abs(cert.mu - rec.mu) <= 1e-12 * abs(rec.mu)
    assert _rel_close(cert.m_matrix, linalg.congruence(s_half_inv, rec.m_matrix))
    assert _rel_close(cert.wy_tilde, linalg.congruence(s_half, wy_tilde))
    ref = kkt.verify_certificate(m, cert)
    for key in kkt.RESIDUAL_KEYS:
        assert abs(cert.residuals[key] - ref[key]) <= 1e-12 * (1.0 + abs(ref[key])), key
