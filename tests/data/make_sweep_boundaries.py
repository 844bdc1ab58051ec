"""Regenerate ``sweep_boundaries.json``, the frozen sweep boundaries.

Each entry records one ``sweep_boundary`` call -- the model, its rate grid
and resolution -- and the key rates it returned.  The sweeps are those the
suite and the benchmark run: both demo sources at resolutions 60 and 200 on
41 rates up to 20 nats, the 13 models of the benchmark's ``random_sweep``
workload at resolution 40, and the criterion-3 corpus (20 random 2x2 models
at 10 rates) at resolution 80.  ``tests/test_sweep_boundaries.py`` checks
the current solver against it.  The committed file was frozen from the
sweep that finds ``t*`` by an Anderson-Bjorck root find on the row minimum;
regenerate only to freeze a deliberately changed sweep, and only after
``--check`` passes:

    PYTHONPATH=src python tests/data/make_sweep_boundaries.py --check
    PYTHONPATH=src python tests/data/make_sweep_boundaries.py > tests/data/sweep_boundaries.json

``--check`` regenerates every sweep and compares it with the committed
file: per group of sweeps it prints how many key rates rose and the largest
rise, and it exits non-zero when any key rate falls by more than
``FALL_TOL`` (or a sweep's model, rates or resolution changed).
"""

import json
import os
import sys

import numpy as np

from gausskey import GeneralModel, sweep_boundary

DEMO_GRID = [float(x) for x in np.linspace(0.0, 20.0, 41)]
CRITERION_3_GRID = [round(float(x), 6) for x in np.linspace(1.0, 4.0, 10)]
FROZEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "sweep_boundaries.json")
FALL_TOL = 1e-12


def rng_for(key):
    return np.random.Generator(np.random.Philox(key=key))


def random_scalar_general(key, mx):
    """The criterion-3 draw: ``sigma_x = a a^T + 0.5 I``, then ``b``, ``e``."""
    rng = rng_for(key)
    a = rng.standard_normal((mx, mx))
    return GeneralModel(sigma_x=a @ a.T + 0.5 * np.eye(mx),
                        b=rng.standard_normal((1, mx)),
                        e=rng.standard_normal((1, mx)))


def sweeps():
    """(name, model, rate grid, resolution) of every frozen sweep."""
    demos = (("degraded", GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]],
                                       e=[[0.7, 0.35]])),
             ("crossing", GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]],
                                       e=[[0.5, 1.0]])))
    for res in (60, 200):
        for name, m in demos:
            yield f"{name}_res{res}", m, DEMO_GRID, res
    for mx, key, rp in tuple((2, 900 + k, 1.0 + 3.0 * k / 11.0) for k in range(12)) \
            + ((3, 930, 2.5),):
        yield f"random_sweep_key{key}", random_scalar_general(key, mx), [rp], 40
    for key in range(900, 920):
        yield f"criterion3_key{key}", random_scalar_general(key, 2), CRITERION_3_GRID, 80


def entries():
    """The frozen-file entry of every sweep, run on the current solver."""
    out = []
    for name, m, grid, res in sweeps():
        boundary = sweep_boundary(m, grid, st_resolution=res)
        out.append({
            "name": name,
            "sigma_x": m.sigma_x.tolist(),
            "b": m.b.tolist(),
            "e": m.e.tolist(),
            "rp": grid,
            "resolution": res,
            "rk": [p.rk for p in boundary.points],
        })
    return out


def group(name):
    """The group a sweep's rises are reported in."""
    for prefix in ("random_sweep", "criterion3"):
        if name.startswith(prefix):
            return prefix
    return name.rsplit("_", 1)[1]  # the demos, by resolution


def check(fresh):
    """Compare regenerated entries with the committed file; return the
    number of failures (a fall beyond ``FALL_TOL`` or a changed input)."""
    with open(FROZEN_PATH) as fh:
        frozen = {e["name"]: e for e in json.load(fh)["sweeps"]}
    failures = 0
    rises = {}
    if sorted(frozen) != sorted(e["name"] for e in fresh):
        print("the set of sweeps changed")
        failures += 1
    for entry in fresh:
        old = frozen.get(entry["name"])
        if old is None:
            continue
        if any(old[k] != entry[k] for k in ("sigma_x", "b", "e", "rp", "resolution")):
            print(f"{entry['name']}: model, rates or resolution changed")
            failures += 1
            continue
        rose = rises.setdefault(group(entry["name"]), [0, 0, 0.0])
        for rp, was, now in zip(entry["rp"], old["rk"], entry["rk"]):
            rose[0] += 1
            if now < was - FALL_TOL:
                print(f"{entry['name']} rp={rp}: fell {was!r} -> {now!r}")
                failures += 1
            elif now > was:
                rose[1] += 1
                rose[2] = max(rose[2], now - was)
    for name, (n_points, n_rose, largest) in rises.items():
        print(f"{name}: {n_rose} of {n_points} points rose, largest rise {largest:.3g}")
    return failures


def main(argv):
    fresh = entries()
    if argv == ["--check"]:
        return 1 if check(fresh) else 0
    if argv:
        sys.stderr.write("usage: make_sweep_boundaries.py [--check]\n")
        return 2
    # one sweep per line keeps the file diffable
    sys.stdout.write('{"sweeps": [\n')
    sys.stdout.write(",\n".join(json.dumps(e) for e in fresh))
    sys.stdout.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
