"""Run ``solve_at_rate`` over a fixed probe set and record or compare results.

The probe set has 265 points, built from the helpers of
``tests/test_aligned_points.py``:

- the 47 entries of ``aligned_points.json`` (the frozen corpus);
- ``_fresh_model`` keys 5000-5017 at rates 0.7, 1.5, 3 and 5;
- the 22 models of the reliability ratchet (``RELIABILITY_CERTIFIED``) at
  its rates 0.25, 0.5, 1, 2 and 4;
- ``_degraded_model`` keys 6000-6011 at rates 0.5, 2 and 6.

``--high`` before the mode runs the high-rate set instead: the 52 models
off the corpus above (fresh, reliability and degraded) at rates 8, 12 and
16, 156 points, where the aligned route still fails to certify some
points.  Every mode takes it, and a file saved with it is compared with it:

    PYTHONPATH=src python tests/data/probe_aligned.py --high --save high.json
    PYTHONPATH=src python tests/data/probe_aligned.py --high --compare high.json

Per point it records the bytes of the value and of the optimum ``sigma``,
``converged``, ``kkt_residual`` and the certificate outcome (``certified``,
``uncertified`` or the name of the exception ``certify`` raised), or the name
of the exception ``solve_at_rate`` raised.  Apart, as ``cert``, it records
the bytes of the certificate itself: ``mu``, the ten residuals in the order
of ``kkt.RESIDUAL_KEYS``, ``wy_tilde`` and ``m_matrix``, as ``cpu_s`` and
``certify_cpu_s`` the process CPU seconds of the point's solve and of its
certificate, as ``cholesky_calls`` and ``certify_cholesky_calls`` the
``np.linalg.cholesky`` calls of each (a stacked call counts once), and as
``iterations`` the solve's ascent iterations (0 when it ran no ascent).

As ``stats`` it records a copy of the solve's ``SolveReport.stats``, under
its keys (``{"route": "none"}`` when the solve raised), which the
``SolveReport`` docstring names: the ``route`` that returned the point, the
polish, residual, ``expm``, Jacobian, path and ascent counts, per face
entry (``face``, the end point's detected face ``g``, and ``drop``, the
face ``g' - 1`` below the first candidate's own) its tries and first
passes, and each phase's CPU seconds.  CPU seconds are noisy on a shared
machine; the counts are deterministic, so they tell a change in the
polish's or the ascent's cost apart from noise.  Saves made before
``SolveReport.stats`` keep their counts under other keys and no
``stats``: ``--compare`` shows the run's cost and routes alone beside
them.

A change to the aligned route is checked by saving the probe on the parent
tree and comparing on the change:

    PYTHONPATH=src python tests/data/probe_aligned.py --save before.json
    PYTHONPATH=src python tests/data/probe_aligned.py --compare before.json

``--compare`` prints how many points are bit-identical, how many keep their
value, ``sigma``, ``converged`` and certificate outcome (the ``kkt_residual``
alone may move), how many moved (and the largest change of value and of
``sigma``), how many changed certificate outcome, how many values rose and
fell by more than ``FALL_TOL`` (listing each fall with both values and its
certificate outcome on both trees), how many points are certified now
and in the file, how many points have ``converged != (kkt_residual <=
kkt.ACCEPT_COMPOSITE)`` (listing each: that multiplier test alone decides
``converged``), and the run's cost beside the file's: the summed
``cpu_s`` and ``certify_cpu_s``, the summed Cholesky calls of the solves
and of the certificates, how many solves ran the ascent, the summed
polish calls, residual rows, invalid residual rows, ``expm`` calls and
Jacobians, the path's summed steps and failed steps, and the ascent's
summed rate evaluations, matrices and CPU seconds, listing each point
solved on both runs whose solve ran the ascent on one run only
(``--save`` prints the run's certified points, its points that test
disagrees with and its cost too).  Both print the points per route and
the tries and first passes per face entry, beside the file's under
``--compare``.  It
exits 1 when a value falls by more than ``FALL_TOL``, or is lost to an
exception, or a certified point loses its certificate, or that test
disagrees with a point's ``converged``.  It also prints how
many certificates are bit-identical and lists the points whose certificate
bytes moved; these do not change the exit code.

The rates do not change when a model's three covariances are scaled by the
same ``C``, so a run on the scaled models must keep every value and every
certificate outcome of an unscaled save:

    PYTHONPATH=src python tests/data/probe_aligned.py --scale 1e-9 before.json

``--scale`` cannot use ``--compare``, which compares ``sigma`` byte for
byte.  It prints how many scaled models the model checks refuse (by
exception name), how many points raise, how many values move by more than
``SCALE_VALUE_TOL`` (listing each, and the largest move) and how many
points lose or gain their certificate (listing each loss), then the run's
cost.  It exits 1 when a point certified in the file loses its
certificate.

The rates do not change under any congruence
``(sigma_x, sigma_wy, sigma_wz) -> (T sigma_x T^T, T sigma_wy T^T, T
sigma_wz T^T)`` either.  ``--congruence c FILE`` applies the ill-conditioned
``T = U diag(geomspace(1, c, mx)) V`` of ``test_aligned_points._seeded_t``
(``U`` and then ``V`` the Q factors of standard-normal draws from
``default_rng(7)``, drawn afresh per model) and reports and exits like
``--scale``:

    PYTHONPATH=src python tests/data/probe_aligned.py --congruence 1e3 before.json

``--head`` probes the head of the curve, where ``R_k(rp)`` is ``mu0 rp``
to O(rp^2), with ``mu0 = kkt.closed_form_mu`` at the whitened corner
``I``, the slope at zero.  It solves ``_fresh_model`` keys 5000-5017 and
``_degraded_model`` keys 6000-6011 at rates 1e-8, 1e-7, 1e-6, 1e-5 and
1e-4 and prints each value beside ``mu0 rp``:

    PYTHONPATH=src python tests/data/probe_aligned.py --head

It counts the negative values (below the corner, which is always
feasible), the values above ``mu0 rp (1 + HEAD_ROUNDOFF) + 1e-14`` (over
the bound ``R_k(rp) <= mu0 rp``, up to round-off) and, at rates up to
1e-6, the values below ``(1 - HEAD_SHORTFALL) mu0 rp``, listing these as
the head's remaining defects (ROADMAP item 1).  It exits 1 when a value is
negative or above the bound, or a solve raises.
"""

import json
import os
import sys
import time
from collections import Counter

# as in tests/conftest.py: OpenBLAS threads only contend on small matrices
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import test_aligned_points as tap  # noqa: E402
from gausskey import AlignedModel, certify, kkt, solve_at_rate  # noqa: E402
from gausskey.kkt import ACCEPT_COMPOSITE, RESIDUAL_KEYS  # noqa: E402
from gausskey.errors import GausskeyError  # noqa: E402
from gausskey.models import whiten  # noqa: E402

FRESH_RATES = (0.7, 1.5, 3.0, 5.0)
DEGRADED_RATES = (0.5, 2.0, 6.0)
HIGH_RATES = (8.0, 12.0, 16.0)
FALL_TOL = 1e-9
SCALE_VALUE_TOL = 1e-9
HEAD_RATES = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
HEAD_ROUNDOFF = 1e-9
HEAD_SHORTFALL = 1e-3


def models():
    """``(label, model, rates)`` of the 52 models off the corpus, with the
    rates of the main probe set, in a fixed order."""
    for key in range(5000, 5018):
        yield f"fresh-{key}", tap._fresh_model(key), FRESH_RATES
    for mx, key in sorted(tap.RELIABILITY_CERTIFIED):
        yield f"rel{mx}-{key}", tap._bench_model(key, mx), tap.RELIABILITY_RATES
    for key in range(6000, 6012):
        yield f"degraded-{key}", tap._degraded_model(key), DEGRADED_RATES


def cases(high=False):
    """``(label, model, rp)`` of every probe point, in a fixed order: the
    main set, or with ``high`` the models off the corpus at ``HIGH_RATES``."""
    if not high:
        for p in tap.POINTS:
            yield f"corpus-{p['model']}-rp{p['rp']}", tap._model(p), p["rp"]
    for name, m, rates in models():
        for rp in HIGH_RATES if high else rates:
            yield f"{name}-rp{rp}", m, rp


def transformed(m, mode, c):
    """``m`` with its three covariances scaled by ``c`` (``--scale``) or
    under the seeded congruence of ratio ``c`` (``--congruence``)."""
    if mode == "--congruence":
        return tap._congruent(m, tap._seeded_t(m.mx, c))
    return AlignedModel(*(c * np.asarray(a) for a in (m.sigma_x, m.sigma_wy, m.sigma_wz)))


def record(m, rp, mode=None, c=1.0):
    if mode is not None:
        try:
            m = transformed(m, mode, c)
        except GausskeyError as exc:
            return {"refused": type(exc).__name__}
    try:
        report = solve_at_rate(m, rp)
    except GausskeyError as exc:
        return {"error": type(exc).__name__}
    start, cholesky_calls = time.process_time(), CHOLESKY["calls"]
    try:
        cert = certify(m, report.optimum, rp)
    except GausskeyError as exc:
        outcome, cert_bytes = type(exc).__name__, None
    else:
        outcome = "certified" if cert.max_residual < tap.CERT_GATE else "uncertified"
        fields = [cert.mu, *(cert.residuals[k] for k in RESIDUAL_KEYS)]
        cert_bytes = b"".join(np.asarray(a, dtype=np.float64).tobytes()
                              for a in (fields, cert.wy_tilde, cert.m_matrix)).hex()
    certify_cpu_s = time.process_time() - start
    return {
        "certify_cpu_s": certify_cpu_s,
        "certify_cholesky_calls": CHOLESKY["calls"] - cholesky_calls,
        "value": np.float64(report.value).tobytes().hex(),
        "sigma": report.optimum.value.tobytes().hex(),
        "converged": report.converged,
        "kkt_residual": report.kkt_residual,
        "certificate": outcome,
        "cert": cert_bytes,
        "iterations": report.iterations,
        "stats": dict(report.stats),
    }


ROUTES = ("commuting part", "path", "ascent", "none")
CHOLESKY = Counter()  # np.linalg.cholesky calls since the start of the run


def count_cholesky():
    """Make ``np.linalg.cholesky`` add its calls to ``CHOLESKY``."""
    cholesky = np.linalg.cholesky

    def counted(a):
        CHOLESKY["calls"] += 1
        return cholesky(a)

    np.linalg.cholesky = counted


def timed(m, rp, mode, c):
    """``record`` with the process CPU seconds and Cholesky calls its solve
    took, as ``cpu_s`` and ``cholesky_calls``, the certificate's apart; a
    point with no solve has the route ``none`` and no other stats."""
    cholesky_calls, start = CHOLESKY["calls"], time.process_time()
    rec = {"stats": {"route": "none"}, **record(m, rp, mode, c)}
    rec["cpu_s"] = time.process_time() - start - rec.get("certify_cpu_s", 0.0)
    rec["cholesky_calls"] = (CHOLESKY["calls"] - cholesky_calls
                             - rec.get("certify_cholesky_calls", 0))
    return rec


# the fields of the bit-identity test: the certificate's bytes are listed
# apart, and time, Cholesky calls, ascent iterations and stats are cost
OUTCOME_KEYS = ("value", "sigma", "converged", "kkt_residual", "certificate", "error")


def cost_figures(run):
    """``(name, figure)`` of the run's cost: its summed CPU seconds and
    Cholesky calls of the solves and of the certificates, how many of its
    solves ran the ascent, its summed polish calls, residual rows, invalid
    residual rows, ``expm`` calls and Jacobians, the path's summed steps
    and failed steps, and the ascent's summed rate evaluations, matrices
    and CPU seconds."""
    recs = list(run.values())
    solved = [rec for rec in recs if "value" in rec]

    def total(key, of, term=lambda x: x, spec=""):
        return format(sum(term(r[key]) for r in of), spec)

    def spent(key, spec=""):  # a stats count; a solve that raised has none
        return format(sum(r["stats"].get(key, 0) for r in recs), spec)

    return [("CPU seconds of the solves", total("cpu_s", recs, spec=".2f")),
            ("of the certificates", total("certify_cpu_s", solved, spec=".2f")),
            ("Cholesky calls of the solves", total("cholesky_calls", recs)),
            ("of the certificates", total("certify_cholesky_calls", solved)),
            ("solves that ran the ascent", total("iterations", solved, lambda it: it > 0)),
            ("face polish calls", spent("polish_calls")),
            ("residual rows", spent("residual_rows")),
            ("invalid residual rows", spent("invalid_rows")),
            ("expm calls", spent("expm_calls")),
            ("Jacobians", spent("jacobians")),
            ("path steps", spent("path_steps")),
            ("failed path steps", spent("path_failed_steps")),
            ("ascent rate calls", spent("ascent_rate_calls")),
            ("ascent matrices", spent("ascent_matrices")),
            ("ascent CPU seconds", spent("ascent_cpu_s", ".2f"))]


def cost_line(run, old=None):
    """The run's cost figures, each beside the file's when ``old`` is
    given."""
    figures = cost_figures(run)
    if old is None:
        return "; ".join(f"{name}: {fig}" for name, fig in figures)
    return "; ".join(f"{name}: {fig} (file: {was})"
                     for (name, fig), (_, was) in zip(figures, cost_figures(old)))


def decisions(run, old=None):
    """Lines of the run's points per route and of its tries and first
    passes per face entry, each beside the file's when ``old`` is given."""
    def routes(r):
        return Counter(rec["stats"]["route"] for rec in r.values())

    def entries(r):
        done = Counter()
        for rec in r.values():
            done.update(rec["stats"])
        return {e: f"{done[e + '_tries']}/{done[e + '_passes']}" for e in ("face", "drop")}

    runs = [run] if old is None else [run, old]

    def line(title, keys, tables):
        cells = []
        for key in keys:
            now, *was = (t[key] for t in tables)
            cells.append(f"{key} {now}" + (f" (file: {was[0]})" if was else ""))
        return f"{title}: " + "; ".join(cells)

    return [line("points per route", ROUTES, [routes(r) for r in runs]),
            line("face entry tries/first passes", ("face", "drop"),
                 [entries(r) for r in runs])]


def undecided(run):
    """Print how many of the run's solved points have a ``converged`` that
    is not the multiplier test of their ``kkt_residual`` (at most
    ``kkt.ACCEPT_COMPOSITE``), which alone decides it, listing each; return
    their labels."""
    labels = [label for label, rec in run.items() if "converged" in rec
              and rec["converged"] != (rec["kkt_residual"] <= ACCEPT_COMPOSITE)]
    print(f"converged != (kkt_residual <= {ACCEPT_COMPOSITE:g}): {len(labels)} points")
    for label in labels:
        print(f"{label}: converged {run[label]['converged']}, "
              f"kkt_residual {run[label]['kkt_residual']:.3g}")
    return labels


def _floats(hexed):
    return np.frombuffer(bytes.fromhex(hexed), dtype=np.float64)


def compare(old, new):
    """Print the comparison of two probe runs keyed by label; return the
    number of points whose value fell by more than ``FALL_TOL``, that lost
    their certificate, or whose ``converged`` the multiplier test of their
    ``kkt_residual`` does not decide (``undecided``)."""
    same = kept = moved = changed = rose = fell = 0
    value_move = sigma_move = 0.0
    failed = set()

    def outcomes(ref, rec):
        return f"certificate {ref['certificate']} -> {rec.get('certificate', rec.get('error'))}"

    cert_moved = [label for label, rec in new.items()
                  if rec.get("cert") != old[label].get("cert")]
    for label, rec in new.items():
        ref = {k: v for k, v in old[label].items() if k in OUTCOME_KEYS}
        if {k: v for k, v in rec.items() if k in OUTCOME_KEYS} == ref:
            same += 1
            continue
        kept += all(rec.get(k) == ref.get(k)
                    for k in ("value", "sigma", "converged", "certificate", "error"))
        moved += 1
        if rec.get("certificate") != ref.get("certificate"):
            changed += 1
            print(f"{label}: certificate {ref.get('certificate', ref.get('error'))} -> "
                  f"{rec.get('certificate', rec.get('error'))}")
            if ref.get("certificate") == "certified":
                failed.add(label)
        if "value" not in ref:
            continue
        was = float(_floats(ref["value"])[0])
        if "value" not in rec:
            fell += 1
            failed.add(label)
            print(f"{label}: value {was!r} -> {rec['error']} ({outcomes(ref, rec)})")
            continue
        now = float(_floats(rec["value"])[0])
        value_move = max(value_move, abs(now - was))
        sigma_move = max(sigma_move, float(np.linalg.norm(
            _floats(rec["sigma"]) - _floats(ref["sigma"]))))
        if now > was + FALL_TOL:
            rose += 1
        elif now < was - FALL_TOL:
            fell += 1
            failed.add(label)
            print(f"{label}: value fell {was!r} -> {now!r} ({outcomes(ref, rec)})")
    certified = [sum(r.get("certificate") == "certified" for r in run.values())
                 for run in (new, old)]
    print(f"{len(new)} points: {same} bit-identical, {same + kept} keep value, sigma, "
          f"converged and certificate outcome, {moved} moved "
          f"(largest value change {value_move:.3g}, sigma {sigma_move:.3g}), "
          f"{changed} changed certificate outcome")
    print(f"values: {rose} rose and {fell} fell by more than {FALL_TOL:g}")
    print(f"certified: {certified[0]} (file: {certified[1]})")
    print(f"certificates: {len(new) - len(cert_moved)} of {len(new)} bit-identical")
    failed.update(undecided(new))
    file = old if all("stats" in rec for rec in old.values()) else None  # older saves: no stats
    print(cost_line(new, file))
    print(*decisions(new, file), sep="\n")
    for label, rec in new.items():
        ref = old[label]
        if "value" in rec and "value" in ref:
            ran = rec["iterations"] > 0
            if ran != (ref["iterations"] > 0):
                print(f"{label}: ascent {'did not run -> ran' if ran else 'ran -> did not run'}")
    for label in cert_moved:
        print(f"{label}: certificate bytes moved")
    return len(failed)


def compare_scaled(old, new, where):
    """Print the comparison of a run on transformed models (``where`` says
    how, as "at scale 1e-09") with an unscaled run keyed by label; return
    the number of points certified in ``old`` that lost their
    certificate."""
    refused = Counter(rec["refused"] for rec in new.values() if "refused" in rec)
    raised = sum("error" in rec for rec in new.values())
    moved = lost = gained = 0
    value_move = 0.0
    for label, rec in new.items():
        ref = old[label]
        now_cert = rec.get("certificate", rec.get("refused", rec.get("error")))
        if ref.get("certificate") == "certified" and now_cert != "certified":
            lost += 1
            print(f"{label}: certificate certified -> {now_cert}")
        gained += ref.get("certificate") != "certified" and now_cert == "certified"
        if "value" in ref and "value" in rec:
            was, now = (float(_floats(r["value"])[0]) for r in (ref, rec))
            value_move = max(value_move, abs(now - was))
            if abs(now - was) > SCALE_VALUE_TOL:
                moved += 1
                print(f"{label}: value {was!r} -> {now!r}")
    names = ", ".join(f"{k} {v}" for k, v in sorted(refused.items())) or "none"
    certified = [sum(r.get("certificate") == "certified" for r in run.values())
                 for run in (new, old)]
    print(f"{len(new)} points {where}: {sum(refused.values())} on refused "
          f"models ({names}), {raised} raised in the solve")
    print(f"values: {moved} moved by more than {SCALE_VALUE_TOL:g} "
          f"(largest change {value_move:.3g})")
    print(f"certified: {certified[0]} (file: {certified[1]}); {lost} lost and "
          f"{gained} gained a certificate")
    return lost


def head():
    """Run and print the ``--head`` probe; return its exit code."""
    negative, above, short, raised = [], [], [], []
    for name, m, _ in models():
        if name.startswith("rel"):
            continue
        w = whiten(m)[0]
        mu0 = kkt.closed_form_mu(w, np.eye(w.mx))
        for rp in HEAD_RATES:
            label, bound = f"{name}-rp{rp:g}", mu0 * rp
            try:
                value = solve_at_rate(m, rp).value
            except GausskeyError as exc:
                raised.append(label)
                print(f"{label}: {type(exc).__name__}, mu0 rp {bound:.6g}")
                continue
            print(f"{label}: value {value:.6g}, mu0 rp {bound:.6g}")
            if value < 0.0:
                negative.append(label)
            if value > bound * (1.0 + HEAD_ROUNDOFF) + 1e-14:
                above.append(label)
            if rp <= 1e-6 and value < (1.0 - HEAD_SHORTFALL) * bound:
                short.append(label)
    print(f"{len(negative)} negative, {len(above)} above mu0 rp, {len(raised)} raised; "
          f"{len(short)} at rp <= 1e-6 below (1 - {HEAD_SHORTFALL:g}) mu0 rp "
          f"(ROADMAP item 1): {', '.join(short) or 'none'}")
    return 1 if negative or above or raised else 0


def main(argv):
    if argv == ["--head"]:
        return head()
    high = argv[:1] == ["--high"]
    argv = argv[high:]
    modes = {"--save": 2, "--compare": 2, "--scale": 3, "--congruence": 3}
    if not argv or modes.get(argv[0]) != len(argv):
        sys.stderr.write("usage: probe_aligned.py --head | [--high] (--save FILE "
                         "| --compare FILE | --scale C FILE | --congruence C FILE)\n")
        return 2
    mode, c = (argv[0], float(argv[1])) if len(argv) == 3 else (None, 1.0)
    count_cholesky()
    run = {label: timed(m, rp, mode, c) for label, m, rp in cases(high)}
    if argv[0] == "--save":
        with open(argv[1], "w") as fh:
            json.dump(run, fh, indent=0)
        certified = sum(r.get("certificate") == "certified" for r in run.values())
        print(f"certified: {certified} of {len(run)}")
        undecided(run)
        print(cost_line(run))
        print(*decisions(run), sep="\n")
        return 0
    with open(argv[-1]) as fh:
        old = json.load(fh)
    if set(old) != set(run):
        sys.stderr.write("the file holds a different probe set\n")
        return 2
    if mode is not None:
        where = f"at scale {c:g}" if mode == "--scale" else f"under congruence {c:g}"
        lost = compare_scaled(old, run, where)
        print(cost_line(run))
        return 1 if lost else 0
    return 1 if compare(old, run) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
