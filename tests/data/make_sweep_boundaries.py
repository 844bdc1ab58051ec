"""Regenerate ``sweep_boundaries.json``, the frozen sweep boundaries.

Each entry records one ``sweep_boundary`` call -- the model, its rate grid
and resolution -- and the key rates it returned.  The sweeps are those the
suite and the benchmark run: both demo sources at resolutions 60 and 200 on
41 rates up to 20 nats, the 13 models of the benchmark's ``random_sweep``
workload at resolution 40, and the criterion-3 corpus (20 random 2x2 models
at 10 rates) at resolution 80.  ``tests/test_sweep_boundaries.py`` checks
the current solver against it.  The committed file was frozen from the
sweep whose cells were warm-started by scaling the previous optimum into a
boundary layer below the ``s`` cap; regenerate only to freeze a
deliberately changed sweep.

    PYTHONPATH=src python tests/data/make_sweep_boundaries.py > tests/data/sweep_boundaries.json
"""

import json
import sys

import numpy as np

from gausskey import GeneralModel, sweep_boundary

DEMO_GRID = [float(x) for x in np.linspace(0.0, 20.0, 41)]
CRITERION_3_GRID = [round(float(x), 6) for x in np.linspace(1.0, 4.0, 10)]


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


def main():
    entries = []
    for name, m, grid, res in sweeps():
        boundary = sweep_boundary(m, grid, st_resolution=res)
        entries.append({
            "name": name,
            "sigma_x": m.sigma_x.tolist(),
            "b": m.b.tolist(),
            "e": m.e.tolist(),
            "rp": grid,
            "resolution": res,
            "rk": [p.rk for p in boundary.points],
        })
    # one sweep per line keeps the file diffable
    sys.stdout.write('{"sweeps": [\n')
    sys.stdout.write(",\n".join(json.dumps(e) for e in entries))
    sys.stdout.write("\n]}\n")


if __name__ == "__main__":
    main()
