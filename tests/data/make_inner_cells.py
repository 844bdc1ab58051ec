"""Regenerate ``inner_cells.json``, the frozen corpus of sweep cells.

Each entry records one ``inner_convex`` call -- the model, the cell
``(s, t)``, an optional warm start ``(sigma0, tau0)`` -- and what the solver
returned: the optimal value, or ``"infeasible"`` when it raised
``Infeasible``.  ``tests/test_inner_cells.py`` checks the current solver
against it.  The committed file was frozen from the per-dimension barrier
solver of commit 4a79b3b (vech-basis Newton for mx != 2, scalarised 2x2
Newton for mx = 2), before the cell solve moved to the whitened span of
(b, e); regenerate only to freeze a deliberately changed solver.

    PYTHONPATH=src python tests/data/make_inner_cells.py > tests/data/inner_cells.json
"""

import json
import sys

import numpy as np

from gausskey import GeneralModel, SweepParams, inner_convex, solver
from gausskey.errors import Infeasible, MaxIterationsExceeded

WARM_TAU0 = 1e9


def rng_for(key):
    return np.random.Generator(np.random.Philox(key=key))


def random_model(key, mx):
    rng = rng_for(key)
    a = rng.standard_normal((mx, mx))
    return GeneralModel(sigma_x=a @ a.T + 0.3 * np.eye(mx),
                        b=rng.standard_normal((1, mx)),
                        e=rng.standard_normal((1, mx)))


def models():
    yield "degraded_demo", GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]],
                                        e=[[0.7, 0.35]])
    yield "crossing_demo", GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]],
                                        e=[[0.5, 1.0]])
    for mx, keys in ((1, (1101, 1102)), (2, (1201, 1202, 1203)),
                     (3, (1301, 1302, 1303)), (4, (1401, 1402))):
        for key in keys:
            yield f"random_mx{mx}_key{key}", random_model(key, mx)


def scaled_start(frame, params, warm):
    """The sweep's warm start when the corpus was frozen: the previous
    reduced optimum scaled into a thin boundary layer below the ``s`` cap,
    or None when that breaks a cell constraint."""
    qb_warm = frame.signal_power(warm)
    if qb_warm <= (1.0 - 1e-6) * params.s:
        beta = 1.0 - 1e-9
    else:
        beta = (1.0 - 1e-6) * params.s / qb_warm
    ca, cb, cc = beta * warm[0], beta * warm[1], beta * warm[2]
    if all(g00 * ca + 2.0 * g01 * cb + g11 * cc + cst < 0.0
           for g00, g01, g11, cst in solver._cell_constraints(frame, params)):
        return ca, cb, cc
    return None


def entry(name, m, params, sigma0=None, tau0=None):
    kwargs = {}
    if sigma0 is not None:
        kwargs = {"sigma0": sigma0, "tau0": tau0}
    try:
        report = inner_convex(m, params, **kwargs)
    except Infeasible:
        outcome, report = "infeasible", None
    except MaxIterationsExceeded:
        return None, None
    else:
        outcome = report.value
    cell = {
        "model": name,
        "sigma_x": m.sigma_x.tolist(),
        "b": m.b.tolist(),
        "e": m.e.tolist(),
        "s": params.s,
        "t": params.t,
        "sigma0": None if sigma0 is None else np.asarray(sigma0).tolist(),
        "tau0": tau0,
        "value": outcome,
    }
    return cell, report


def cells_for(name, m):
    frame = solver._span_reduction(m)
    s_max = float(m.b[0] @ m.sigma_x @ m.b[0])
    t_min, t_max = solver._t_range(frame)
    span = t_max - t_min
    out = []
    for t in (t_min + 0.3 * span, t_min + 0.7 * span, t_max - 1e-3 * span,
              t_max + 0.05 * span + 0.01):
        for s in (1.2 * s_max, 0.5 * s_max, 0.05 * s_max, 1e-3 * s_max):
            params = SweepParams(s=s, t=t)
            cell, report = entry(name, m, params)
            if cell is None:
                continue
            out.append(cell)
            if report is None:
                continue
            # the next sweep cell down the row, warm-started as the sweep does
            nxt = SweepParams(s=0.8 * s, t=t)
            start = scaled_start(frame, nxt, frame.reduce(report.optimum.value))
            if start is not None:
                cell, _ = entry(name, m, nxt, sigma0=frame.lift(start),
                                tau0=WARM_TAU0)
                if cell is not None:
                    out.append(cell)
    return out


def main():
    cells = [c for name, m in models() for c in cells_for(name, m)]
    # one cell per line keeps the file diffable
    sys.stdout.write('{"cells": [\n')
    sys.stdout.write(",\n".join(json.dumps(c) for c in cells))
    sys.stdout.write("\n]}\n")


if __name__ == "__main__":
    main()
