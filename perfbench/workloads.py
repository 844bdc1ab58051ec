"""The benchmark's workloads: inputs, the timed public calls, and checks.

Every workload writes its models to files (set-up), then computes a list
of boundaries through gausskey's public calls.  One *item* is one boundary:
its wall time, checks included, is one ``boundary_s`` sample, and each point
it delivers gets a ``point_s`` sample.  Outputs are checked against truths
the solver cannot fake: closed-form limits, the brute-force oracle (a
feasible lower bound), concavity, and Monte-Carlo estimates.

Models are fixed draws (fixed generator keys) from the distributions of
``tests/conftest.py``; the seed keys the Monte-Carlo samples.  Library
functions are always looked up through their module at call time
(``solver.sweep_boundary`` rather than a name bound at import), so the
tracer's wrappers see every call.
"""

import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from gausskey import cli, kkt, mc, modelio, rates, solver
from gausskey.models import AlignedModel, GeneralModel, to_general

# Check gates.  The demo's concavity and limit-gap gates are those of
# acceptance criteria 1 and 2, the oracle gate is criterion 3's.
DEMO_GAP_TOL = 1e-3
DEMO_CONCAVITY_TOL = 1e-3
ORACLE_TOL = 1e-2
LIMIT_TOL = 1e-9
RATE_TOL = 1e-6
VALUE_TOL = 1e-9
MC_Z_GATE = 10.0  # fold standard errors follow a t law with 9 degrees of freedom
CERT_GATE = 1e-6

DEMO_RP_MAX = 20.0
MC_Q_SCALE = 0.5


@dataclass(frozen=True)
class Size:
    """Input sizes of one run.  ``FULL`` is the benchmark, ``SMOKE`` its test."""

    demo_points: int
    demo_resolution: int
    sweep_models: tuple         # (mx, generator key, public rate) per sweep
    sweep_resolution: int
    oracle_density: int
    aligned_models: tuple       # (mx, fixed generator key) of the aligned models
    aligned_rates: tuple
    mc_samples: int
    gated: bool                 # whether the size-dependent accuracy gates apply


FULL = Size(
    demo_points=41, demo_resolution=60,
    # twelve models of the criterion-3 corpus at rates spread over [1, 4],
    # then one mx = 3 model, which takes 40-50% of the wall time
    sweep_models=tuple((2, 900 + k, 1.0 + 3.0 * k / 11.0) for k in range(12))
    + ((3, 930, 2.5),),
    sweep_resolution=40,
    oracle_density=60,
    aligned_models=tuple((2, 2000 + k) for k in range(5))
    + tuple((4, 2005 + k) for k in range(3)) + ((6, 2009),),
    aligned_rates=(0.5, 1.0, 2.0, 4.0),
    mc_samples=200_000,
    gated=True,
)

SMOKE = Size(
    demo_points=5, demo_resolution=8,
    sweep_models=((2, 900, 2.5), (3, 930, 2.5)),
    sweep_resolution=6,
    oracle_density=12,
    aligned_models=((2, 2000), (4, 2005)),
    aligned_rates=(0.5,),
    mc_samples=20_000,
    gated=False,
)


def rng_for(key):
    return np.random.Generator(np.random.Philox(key=key))


def random_spd(rng, n, floor=0.3):
    a = rng.standard_normal((n, n))
    return a @ a.T + floor * np.eye(n)


def random_scalar_general(rng, mx):
    """Criterion-3 corpus model: scalar observations, floor 0.5."""
    return GeneralModel(sigma_x=random_spd(rng, mx, floor=0.5),
                        b=rng.standard_normal((1, mx)),
                        e=rng.standard_normal((1, mx)))


def random_aligned(rng, mx):
    """``random_aligned`` of the test suite, not degraded."""
    sigma_wy = random_spd(rng, mx)
    return AlignedModel(sigma_x=random_spd(rng, mx), sigma_wy=sigma_wy,
                        sigma_wz=random_spd(rng, mx))


def concavity_violation(rps, rks):
    viol = 0.0
    for i in range(1, len(rps) - 1):
        x0, x1, x2 = rps[i - 1], rps[i], rps[i + 1]
        if x2 <= x0:
            continue
        w = (x1 - x0) / (x2 - x0)
        viol = max(viol, (1.0 - w) * rks[i - 1] + w * rks[i + 1] - rks[i])
    return viol


@dataclass
class Item:
    label: str
    mx: int
    path: str
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one item delivered and how its outputs checked out."""

    points: int = 0
    operations: int = 0          # public calls whose output the item needs
    failed: int = 0              # of those, calls that delivered nothing
    exceptions: int = 0          # every exception raised by a public call
    uncertified: int = 0
    point_seconds: list = field(default_factory=list)
    truths: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)    # failed checks
    failures: list = field(default_factory=list)  # calls that raised
    samples_drawn: int = 0

    def truth(self, name, value):
        self.truths[name] = max(self.truths.get(name, 0.0), float(value))

    def fail(self, message):
        self.failed += 1
        self.exceptions += 1
        self.failures.append(message)

    def gate(self, label, gates):
        for name, tol in gates.items():
            value = self.truths.get(name)
            if value is not None and not value <= tol:
                self.errors.append(f"{label}: {name} = {value:.3e} exceeds {tol:.1e}")


def _save(model, workdir, label, mx, **extra):
    path = os.path.join(workdir, f"{label}.json")
    modelio.save_model(model, path)
    return Item(label=label, mx=mx, path=path, extra=extra)


# ---------------------------------------------------------------------------
# demo_region: in-process `gausskey region` on the paper's two demo sources
# ---------------------------------------------------------------------------

def _demo_models():
    crossing_phi = float(np.max(np.roots([3.5, -9.25, 3.5])))
    return (
        ("degraded",
         GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[0.7, 0.35]]),
         0.5 * math.log(3.5 / 2.225)),
        ("crossing",
         GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[0.5, 1.0]]),
         0.5 * math.log(crossing_phi)),
    )


def demo_inputs(seed, cycles, workdir, size):
    # the demo sources are fixed by the paper; the seed does not change them
    return [_save(model, workdir, f"{name}-{c}", 2, limit=limit,
                  csv=os.path.join(workdir, f"{name}-{c}.csv"))
            for c in range(cycles) for name, model, limit in _demo_models()]


def demo_run(item, seed, index, size):
    out = Outcome(operations=1)
    cfg = cli.RunConfig(command="region", model_path=item.path,
                        output_path=item.extra["csv"], rp_max=DEMO_RP_MAX,
                        points=size.demo_points, resolution=size.demo_resolution)
    code = cli.run(cfg, out=io.StringIO())
    if code != 0:
        out.fail(f"{item.label}: region exited {code}")
        return out
    with open(item.extra["csv"], encoding="utf-8") as fh:
        rows = [(float(r["rp"]), float(r["rk"])) for r in csv.DictReader(fh)]
    sidecar = os.path.splitext(item.extra["csv"])[0] + ".meta.json"
    if len(rows) != size.demo_points or not os.path.exists(sidecar):
        out.errors.append(f"{item.label}: {len(rows)} rows, sidecar "
                          f"{'present' if os.path.exists(sidecar) else 'missing'}")
    rps = [r[0] for r in rows]
    rks = [r[1] for r in rows]
    out.points = len(rows)
    limit = item.extra["limit"]
    out.truth("limit_excess_nats", max(0.0, max(rks) - limit))
    out.truth("limit_gap_nats", abs(rks[-1] - limit))
    out.truth("concavity_violation_nats", concavity_violation(rps, rks))
    out.truth("monotonicity_violation_nats",
              max([0.0] + [a - b for a, b in zip(rks, rks[1:])]))
    gates = {"limit_excess_nats": LIMIT_TOL,
             "concavity_violation_nats": DEMO_CONCAVITY_TOL,
             "monotonicity_violation_nats": 0.0}
    if size.gated:
        gates["limit_gap_nats"] = DEMO_GAP_TOL
    out.gate(item.label, gates)
    return out


# ---------------------------------------------------------------------------
# random_sweep: criterion-3 corpus models, sweep plus oracle
# ---------------------------------------------------------------------------

def sweep_inputs(seed, cycles, workdir, size):
    # Fixed draws of the criterion-3 distribution at fixed rates: a sweep
    # costs 0.4-5 s by geometry and rate, and with seeded geometries or
    # rates one run's time varied by 14-35% between seeds.
    return [_save(random_scalar_general(rng_for(key), mx), workdir,
                  f"sweep-{c}-{key}-mx{mx}", mx, rp=rp)
            for c in range(cycles) for mx, key, rp in size.sweep_models]


def sweep_run(item, seed, index, size):
    out = Outcome(operations=1)
    model = item.extra["model"]
    rp = item.extra["rp"]
    try:
        boundary = solver.sweep_boundary(model, [rp],
                                         st_resolution=size.sweep_resolution)
    except Exception as exc:  # counted and reported, never dropped
        out.fail(f"{item.label}: sweep raised {exc!r}")
        return out
    rk = boundary.points[0].rk
    out.points = 1
    out.truth("limit_excess_nats", max(0.0, rk - rates.asymptotic_limit(model)))
    gates = {"limit_excess_nats": LIMIT_TOL}
    if item.mx == 2:
        out.operations += 1
        try:
            oracle = solver.brute_force_grid(model, rp, grid_density=size.oracle_density)
        except Exception as exc:
            out.fail(f"{item.label}: oracle raised {exc!r}")
        else:
            out.truth("oracle_shortfall_nats", max(0.0, oracle.rk - rk))
        if size.gated:
            gates["oracle_shortfall_nats"] = ORACLE_TOL
    out.gate(item.label, gates)
    return out


# ---------------------------------------------------------------------------
# aligned_certified: ascent + certificate per point, one Monte-Carlo check
# ---------------------------------------------------------------------------

def aligned_inputs(seed, cycles, workdir, size):
    # Fixed draws: one mx = 4 point costs 0.3-7 s by geometry, and with
    # seeded geometries one run's time varied by a third between seeds.  The
    # seed keys the Monte-Carlo samples only.
    return [_save(random_aligned(rng_for(key), mx), workdir,
                  f"aligned-{c}-{key}-mx{mx}", mx)
            for c in range(cycles) for mx, key in size.aligned_models]


def aligned_run(item, seed, index, size):
    out = Outcome()
    model = item.extra["model"]
    general = to_general(model)
    limit = rates.asymptotic_limit(model)
    for rp in size.aligned_rates:
        # one point as `gausskey kkt-check` computes it: solve, then certify
        out.operations += 1
        t0 = time.perf_counter()
        try:
            report = solver.solve_at_rate(model, rp)
        except Exception as exc:  # counted and reported, never dropped
            out.fail(f"{item.label} rp={rp}: solve raised {exc!r}")
            continue
        try:
            certified = kkt.certify(model, report.optimum, rp).max_residual < CERT_GATE
        except Exception:  # e.g. NoValidMultiplier: the point is flagged
            out.exceptions += 1
            certified = False
        out.point_seconds.append(time.perf_counter() - t0)
        out.points += 1
        out.uncertified += 0 if certified else 1
        # the general-form functional of the reduced model is an arithmetic
        # path independent of the ascent's aligned-form rates
        achieved = rates.rates_general(general, report.optimum.value)
        out.truth("limit_excess_nats", max(0.0, report.value - limit))
        out.truth("rate_excess_nats", max(0.0, achieved.rp - rp))
        out.truth("value_mismatch_nats", abs(achieved.rk - report.value))
    # Monte Carlo away from the optimum, as `gausskey mc` does: optima on an
    # active face make the auxiliary noise degenerate
    q = MC_Q_SCALE * general.sigma_x
    out.operations += 1
    try:
        rp_est, rk_est = mc.cross_validate(general, q, size.mc_samples,
                                           seed * 1000 + index)
    except Exception as exc:
        out.fail(f"{item.label}: Monte Carlo raised {exc!r}")
    else:
        out.samples_drawn += size.mc_samples
        analytic = rates.rates_general(general, q)
        out.truth("mc_max_z", max(abs(rp_est.value - analytic.rp) / rp_est.std_error,
                                  abs(rk_est.value - analytic.rk) / rk_est.std_error))
    out.gate(item.label, {"limit_excess_nats": LIMIT_TOL,
                          "rate_excess_nats": RATE_TOL,
                          "value_mismatch_nats": VALUE_TOL,
                          "mc_max_z": MC_Z_GATE})
    return out


# ---------------------------------------------------------------------------
# warm-up: one small call per layer, so lazy set-up is paid before timing
# ---------------------------------------------------------------------------

def _warm_cell(model):
    # t = -1/2 with s at half the observed power admits every small Q
    s = 0.5 * float(model.b[0] @ model.sigma_x @ model.b[0])
    solver.inner_convex(model, solver.SweepParams(s=s, t=-0.5))


def _warm_demo():
    model = _demo_models()[0][1]
    _warm_cell(model)
    rates.asymptotic_limit(model)


def _warm_sweep():
    _warm_demo()
    _warm_cell(random_scalar_general(rng_for(0), 3))
    solver.brute_force_grid(_demo_models()[0][1], 1.0, grid_density=8)


def _warm_aligned():
    model = random_aligned(rng_for(0), 2)
    report = solver.solve_at_rate(model, 1.0, n_starts=1, max_iter=20)
    try:
        kkt.certify(model, report.optimum, 1.0)
    except Exception:
        pass  # an unpolished warm-up point need not certify
    mc.cross_validate(to_general(model), MC_Q_SCALE * model.sigma_x, 2000, 0)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    run: object
    warm_up: object
    cycle_seconds: float   # wall time of one FULL input cycle, reference machine


WORKLOADS = {w.name: w for w in (
    Workload("demo_region", demo_inputs, demo_run, _warm_demo, 26.0),
    Workload("random_sweep", sweep_inputs, sweep_run, _warm_sweep, 30.0),
    Workload("aligned_certified", aligned_inputs, aligned_run, _warm_aligned, 30.0),
)}
