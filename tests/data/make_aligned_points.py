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
tests.  The committed file was re-frozen from the solver that takes the
closed-form KKT multiplier (the child of commit ef42ab7).  Its first freeze,
from the per-point solver of commit 7117088, agrees with it within the
test's tolerances on 40 of the 47 entries; the other 7 did not certify then
and certify now, at higher key rates.  Regenerate only to freeze a
deliberately changed solver.

    PYTHONPATH=src python tests/data/make_aligned_points.py > tests/data/aligned_points.json
"""

import json
import sys

import numpy as np

from gausskey import AlignedModel, certify, solve_at_rate
from gausskey.errors import GausskeyError

CERT_GATE = 1e-6
BENCH_RATES = (0.5, 1.0, 2.0, 4.0)


def rng_for(key):
    return np.random.Generator(np.random.Philox(key=key))


def random_spd(rng, n, floor=0.3):
    a = rng.standard_normal((n, n))
    return a @ a.T + floor * np.eye(n)


def bench_aligned(key, mx):
    # the benchmark draws sigma_wy, sigma_x, sigma_wz in this order
    rng = rng_for(key)
    sigma_wy = random_spd(rng, mx)
    return AlignedModel(sigma_x=random_spd(rng, mx), sigma_wy=sigma_wy,
                        sigma_wz=random_spd(rng, mx))


def random_aligned(key, mx, degraded=False):
    # ``random_aligned`` of tests/conftest.py: sigma_wy, sigma_wz, sigma_x
    rng = rng_for(key)
    sigma_wy = random_spd(rng, mx)
    if degraded:
        sigma_wz = sigma_wy + random_spd(rng, mx)
    else:
        sigma_wz = random_spd(rng, mx)
    return AlignedModel(sigma_x=random_spd(rng, mx), sigma_wy=sigma_wy,
                        sigma_wz=sigma_wz)


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
            yield f"kkt_mx2_key{key}", random_aligned(key, 2, degraded), rp


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


def main():
    points = [entry(name, m, rp) for name, m, rp in cases()]
    # one point per line keeps the file diffable
    sys.stdout.write('{"points": [\n')
    sys.stdout.write(",\n".join(json.dumps(p) for p in points))
    sys.stdout.write("\n]}\n")


if __name__ == "__main__":
    main()
