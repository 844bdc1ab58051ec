"""Run ``solve_at_rate`` over a fixed probe set and record or compare results.

The probe set has 265 points, built from the helpers of
``tests/test_aligned_points.py``:

- the 47 entries of ``aligned_points.json`` (the frozen corpus);
- ``_fresh_model`` keys 5000-5017 at rates 0.7, 1.5, 3 and 5;
- the 22 models of the reliability ratchet (``RELIABILITY_CERTIFIED``) at
  its rates 0.25, 0.5, 1, 2 and 4;
- ``_degraded_model`` keys 6000-6011 at rates 0.5, 2 and 6.

Per point it records the bytes of the value and of the optimum ``sigma``,
``converged``, ``kkt_residual`` and the certificate outcome (``certified``,
``uncertified`` or the name of the exception ``certify`` raised), or the name
of the exception ``solve_at_rate`` raised.  A change to the aligned route is
checked by saving the probe on the parent tree and comparing on the change:

    PYTHONPATH=src python tests/data/probe_aligned.py --save before.json
    PYTHONPATH=src python tests/data/probe_aligned.py --compare before.json

``--compare`` prints how many points are bit-identical, how many moved (and
the largest change of value and of ``sigma``), how many changed certificate
outcome, and how many are certified now and in the file.
"""

import json
import os
import sys

# as in tests/conftest.py: OpenBLAS threads only contend on small matrices
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import test_aligned_points as tap  # noqa: E402
from gausskey import solve_at_rate  # noqa: E402
from gausskey.errors import GausskeyError  # noqa: E402

FRESH_RATES = (0.7, 1.5, 3.0, 5.0)
DEGRADED_RATES = (0.5, 2.0, 6.0)


def cases():
    """``(label, model, rp)`` of every probe point, in a fixed order."""
    for p in tap.POINTS:
        yield f"corpus-{p['model']}-rp{p['rp']}", tap._model(p), p["rp"]
    for key in range(5000, 5018):
        m = tap._fresh_model(key)
        for rp in FRESH_RATES:
            yield f"fresh-{key}-rp{rp}", m, rp
    for mx, key in sorted(tap.RELIABILITY_CERTIFIED):
        m = tap._bench_model(key, mx)
        for rp in tap.RELIABILITY_RATES:
            yield f"rel{mx}-{key}-rp{rp}", m, rp
    for key in range(6000, 6012):
        m = tap._degraded_model(key)
        for rp in DEGRADED_RATES:
            yield f"degraded-{key}-rp{rp}", m, rp


def record(m, rp):
    try:
        report = solve_at_rate(m, rp)
    except GausskeyError as exc:
        return {"error": type(exc).__name__}
    return {
        "value": np.float64(report.value).tobytes().hex(),
        "sigma": report.optimum.value.tobytes().hex(),
        "converged": report.converged,
        "kkt_residual": report.kkt_residual,
        "certificate": tap._certificate_outcome(m, report.optimum, rp),
    }


def _floats(hexed):
    return np.frombuffer(bytes.fromhex(hexed), dtype=np.float64)


def compare(old, new):
    """Print the comparison of two probe runs keyed by label."""
    same = moved = changed = 0
    value_move = sigma_move = 0.0
    for label, rec in new.items():
        ref = old[label]
        if rec == ref:
            same += 1
            continue
        moved += 1
        if rec.get("certificate") != ref.get("certificate"):
            changed += 1
            print(f"{label}: certificate {ref.get('certificate', ref.get('error'))} -> "
                  f"{rec.get('certificate', rec.get('error'))}")
        if "value" in rec and "value" in ref:
            value_move = max(value_move,
                             float(np.abs(_floats(rec["value"]) - _floats(ref["value"]))[0]))
            sigma_move = max(sigma_move, float(np.linalg.norm(
                _floats(rec["sigma"]) - _floats(ref["sigma"]))))
    certified = [sum(r.get("certificate") == "certified" for r in run.values())
                 for run in (new, old)]
    print(f"{len(new)} points: {same} bit-identical, {moved} moved "
          f"(largest value change {value_move:.3g}, sigma {sigma_move:.3g}), "
          f"{changed} changed certificate outcome")
    print(f"certified: {certified[0]} (file: {certified[1]})")


def main(argv):
    if len(argv) != 2 or argv[0] not in ("--save", "--compare"):
        sys.stderr.write("usage: probe_aligned.py (--save FILE | --compare FILE)\n")
        return 2
    run = {label: record(m, rp) for label, m, rp in cases()}
    if argv[0] == "--save":
        with open(argv[1], "w") as fh:
            json.dump(run, fh, indent=0)
        return 0
    with open(argv[1]) as fh:
        old = json.load(fh)
    if set(old) != set(run):
        sys.stderr.write("the file holds a different probe set\n")
        return 2
    compare(old, run)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
