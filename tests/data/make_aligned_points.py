"""Regenerate ``aligned_points.json``, the frozen corpus of aligned optima.

Each entry records one ``solve_at_rate`` call -- the aligned model and the
public rate -- and what came of it: the key rate, the optimum ``sigma``,
``converged``, ``kkt_residual``, and the outcome of ``kkt.certify`` on the
optimum (``"certified"`` when the largest residual is below 1e-6,
``"uncertified"`` when it is not, or the name of the exception it raised).
``tests/test_aligned_points.py`` checks the current solver against it.

The models are the benchmark's aligned workload (fixed generator keys
2000-2009 at mx 2, 4 and 6, rates 0.5, 1, 2 and 4), the ``scalar_aligned``
fixture of ``tests/conftest.py`` and the mx = 2 models of the certificate
tests.  The committed file was re-frozen from the polish whose first
candidate to pass its gate is the answer (the child of commit e3a9220).
Before that, 22 of its entries had moved by round-off (value by at most
3.55e-15) since commit dfd4ac2 whitened the multiplier pencil in numpy; no
flag or certificate outcome changed.  The freeze before came from the
solver that takes the closed-form KKT multiplier (the child of commit
ef42ab7).  The first freeze, from the per-point solver of commit 7117088,
agrees with it within the test's tolerances on 40 of the 47 entries; the
other 7 did not certify then and certify now, at higher key rates.
Regenerate only to freeze a deliberately changed solver, and only after
``--check`` passes:

    PYTHONPATH=src python tests/data/make_aligned_points.py --check
    PYTHONPATH=src python tests/data/make_aligned_points.py > tests/data/aligned_points.json

``--check`` regenerates every entry and compares it with the committed
file: per group of models it prints how many entries moved (a changed value
or ``sigma``) and the largest change of value, and it exits non-zero when
an entry's ``converged`` flag or certificate outcome changes, its value
falls by more than ``VALUE_TOL``, the ``sigma`` of a certified entry moves
by more than ``SIGMA_TOL`` in Frobenius norm, or its model or rate changed.
"""

import json
import os
import sys

import numpy as np

# the corpus draws its models with the helpers of tests/conftest.py; not
# through test_aligned_points, whose import reads the file being rewritten
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from conftest import random_aligned, random_spd, rng_for  # noqa: E402
from gausskey import AlignedModel, certify, solve_at_rate  # noqa: E402
from gausskey.errors import GausskeyError  # noqa: E402

CERT_GATE = 1e-6
BENCH_RATES = (0.5, 1.0, 2.0, 4.0)
FROZEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "aligned_points.json")
VALUE_TOL = 1e-10
SIGMA_TOL = 1e-8


def bench_aligned(key, mx):
    # the benchmark draws sigma_wy, sigma_x, sigma_wz in this order
    rng = rng_for(key)
    sigma_wy = random_spd(rng, mx)
    return AlignedModel(sigma_x=random_spd(rng, mx), sigma_wy=sigma_wy,
                        sigma_wz=random_spd(rng, mx))


def cases():
    bench = [(2, 2000 + k) for k in range(5)] + [(4, 2005 + k) for k in range(3)]
    for mx, key in bench + [(6, 2009)]:
        for rp in BENCH_RATES:
            yield f"bench_mx{mx}_key{key}", bench_aligned(key, mx), rp
    scalar = AlignedModel(sigma_x=[[2.0]], sigma_wy=[[1.0]], sigma_wz=[[2.0]])
    for rp in (0.3, 0.5, 1.5):
        yield "scalar_aligned", scalar, rp
    for key, degraded in ((52, True), (53, True), (55, False), (56, False)):
        for rp in (0.4, 1.5):
            yield f"kkt_mx2_key{key}", random_aligned(rng_for(key), 2, degraded), rp


def entry(name, m, rp):
    report = solve_at_rate(m, rp)
    try:
        cert = certify(m, report.optimum, rp)
    except GausskeyError as exc:
        outcome = type(exc).__name__
    else:
        outcome = "certified" if cert.max_residual < CERT_GATE else "uncertified"
    return {
        "model": name,
        "sigma_x": m.sigma_x.tolist(),
        "sigma_wy": m.sigma_wy.tolist(),
        "sigma_wz": m.sigma_wz.tolist(),
        "rp": rp,
        "value": report.value,
        "sigma": report.optimum.value.tolist(),
        "converged": report.converged,
        "kkt_residual": report.kkt_residual,
        "certificate": outcome,
    }


def group(name):
    """The group an entry's moves are reported in: its model family."""
    return name.rsplit("_key", 1)[0]


def check(fresh):
    """Compare regenerated entries with the committed file, in order;
    return the number of failures."""
    with open(FROZEN_PATH) as fh:
        frozen = json.load(fh)["points"]
    failures = 0
    if len(frozen) != len(fresh):
        print(f"the corpus has {len(fresh)} entries, the file {len(frozen)}")
        failures += 1
    moves = {}
    for old, new in zip(frozen, fresh):
        label = f"{new['model']} rp={new['rp']}"
        if any(old[k] != new[k] for k in ("model", "sigma_x", "sigma_wy", "sigma_wz", "rp")):
            print(f"{label}: model or rate changed")
            failures += 1
            continue
        for key in ("converged", "certificate"):
            if old[key] != new[key]:
                print(f"{label}: {key} {old[key]!r} -> {new[key]!r}")
                failures += 1
        if new["value"] < old["value"] - VALUE_TOL:
            print(f"{label}: value fell {old['value']!r} -> {new['value']!r}")
            failures += 1
        shift = float(np.linalg.norm(np.array(new["sigma"]) - np.array(old["sigma"])))
        if old["certificate"] == "certified" and shift > SIGMA_TOL:
            print(f"{label}: certified sigma moved by {shift:.3g}")
            failures += 1
        moved = moves.setdefault(group(new["model"]), [0, 0, 0.0])
        moved[0] += 1
        if new["value"] != old["value"] or new["sigma"] != old["sigma"]:
            moved[1] += 1
            moved[2] = max(moved[2], abs(new["value"] - old["value"]))
    for name, (n_entries, n_moved, largest) in moves.items():
        print(f"{name}: {n_moved} of {n_entries} entries moved, "
              f"largest value change {largest:.3g}")
    return failures


def main(argv):
    fresh = [entry(name, m, rp) for name, m, rp in cases()]
    if argv == ["--check"]:
        return 1 if check(fresh) else 0
    if argv:
        sys.stderr.write("usage: make_aligned_points.py [--check]\n")
        return 2
    # one point per line keeps the file diffable
    sys.stdout.write('{"points": [\n')
    sys.stdout.write(",\n".join(json.dumps(p) for p in fresh))
    sys.stdout.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
