"""Compute the R_k(R_p) boundary for the two demo sources.

Writes `boundary_degraded.csv` and `boundary_crossing.csv` next to this
script (columns rp,rk in nats) and prints a compact table.  At this
resolution the script runs in about a second; the cost grows roughly with
the square of `RESOLUTION`.
"""

import os

import numpy as np

import gausskey as gk

RESOLUTION = 100
RP_GRID = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0]

degraded = gk.GeneralModel(sigma_x=2 * np.eye(2), b=[[1.0, 0.5]], e=[[0.7, 0.35]])
crossing = gk.GeneralModel(sigma_x=2 * np.eye(2), b=[[1.0, 0.5]], e=[[0.5, 1.0]])

here = os.path.dirname(os.path.abspath(__file__))

for name, model in (("degraded", degraded), ("crossing", crossing)):
    limit = gk.asymptotic_limit(model)
    print(f"== {name} source (limit {limit:.6f} nats) ==")
    boundary = gk.sweep_boundary(model, RP_GRID, st_resolution=RESOLUTION)
    print(f"  {'R_p':>6}  {'R_k':>9}  {'limit - R_k':>11}")
    for p in boundary.points:
        print(f"  {p.rp:6.2f}  {p.rk:9.6f}  {limit - p.rk:11.2e}")
    path = os.path.join(here, f"boundary_{name}.csv")
    with open(path, "w") as fh:
        fh.write("rp,rk\n")
        for p in boundary.points:
            fh.write(f"{p.rp:.17g},{p.rk:.17g}\n")
    print(f"  wrote {path}")
    # spot-check against the brute-force oracle
    for rp in (1.0, 2.0):
        oracle = gk.brute_force_grid(model, rp, grid_density=60)
        print(f"  oracle check at rp={rp}: sweep {boundary.rk_at(rp):.6f} "
              f"vs grid {oracle.rk:.6f}")
    print()
