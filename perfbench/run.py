"""gausskey benchmark: one workload, end to end or traced per module.

    python3 perfbench/run.py --workload demo_region --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run plus
the tracing overhead.  Both print a human-readable report first and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every output check passed, 1 when one failed and 2
on a usage error or a missing source tree.

The amount of work is fixed: the workload's input cycle (about
``cycle_seconds`` of work on the reference machine) is repeated
``round(seconds / cycle_seconds)`` times, at least once, so two runs with the
same arguments do the same work and make the same calls.  One
process, one compute thread: BLAS threads are pinned to 1 before numpy
loads and ``GAUSSKEY_THREADS`` is removed.  Untraced runs report times in
reference seconds: the compute thread's CPU time, scaled by a speed probe
that runs all through the measurement (``probe.py``).  Scratch files go to
``.perfbench/`` in the checkout; the span log and a full results file stay
there after the run.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("GAUSSKEY_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("demo_region", "random_sweep", "aligned_certified")

# Bounded in BENCHMARK.json.  The medians and the tail are printed beside
# them but not bounded: with a few boundaries per run they move by 10-38%
# between identical runs on a shared machine.
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Layers each workload exists to exercise, and layers it must bypass.  A
# zero count on the first list, or a nonzero one on the second, fails the
# traced run.
SWEEP_LAYERS = ("solver.sweep_boundary", "solver.inner_convex.warm",
                "solver.inner_convex.full")
ASCENT_LAYERS = ("solver.solve_at_rate", "rates.rates_aligned",
                 "solver.ascent.expm", "kkt.certify", "kkt.recover_multipliers",
                 "kkt.enhance", "kkt.multiplier_composite", "mc.cross_validate",
                 "mc.sample", "mc.estimate_rates")
EXPECT = {
    "demo_region": {
        "nonzero": SWEEP_LAYERS + ("cli.run", "models.validate_model",
                                   "rates.asymptotic_limit",
                                   "solver.inner_convex.mx2"),
        "zero": ASCENT_LAYERS + ("solver.brute_force_grid",),
    },
    "random_sweep": {
        "nonzero": SWEEP_LAYERS + ("solver.inner_convex.mx2",
                                   "solver.inner_convex.mx3",
                                   "solver.brute_force_grid",
                                   "models.validate_model"),
        "zero": ASCENT_LAYERS + ("cli.run",),
    },
    "aligned_certified": {
        "nonzero": ASCENT_LAYERS + ("models.validate_model",),
        "zero": SWEEP_LAYERS + ("solver.inner_convex", "solver.brute_force_grid",
                                "cli.run"),
    },
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out seed "
                        f"{HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="intended measuring time; sets the number of input cycles")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def environment():
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except Exception:  # older builds have no dict form
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def tail(samples):
    """Highest percentile with at least ten samples above it.

    Returns ``(value, percentile, n)``; with ten samples or fewer no such
    percentile exists and the maximum is returned at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else 0.0), 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def measure(workload, items, seed, size, speed, tracer=None):
    """Run every item; returns ``[(item, outcome, seconds, marks)]``.

    ``marks`` are the speed probe's marks before and after the item, from
    which ``timed`` derives its CPU and reference seconds.
    """
    results = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.boundary = i
        m0 = speed.mark()
        t0 = time.perf_counter()
        outcome = workload.run(item, seed, i, size)
        seconds = time.perf_counter() - t0
        m1 = speed.mark()
        if not outcome.point_seconds and outcome.points:
            # a sweep delivers its points together; each costs an equal share
            outcome.point_seconds = [seconds / outcome.points] * outcome.points
        results.append((item, outcome, seconds, (m0, m1)))
    return results


def timed(results, speed):
    """``[(item, outcome, wall s, CPU s, reference s)]`` of measured items.

    CPU seconds are the main thread's CPU time (user plus system) without
    the probe's.  All the work runs on that thread, so on an idle machine
    they equal the wall time; on a shared one they leave out the time the
    thread waited for a processor, including time the hypervisor gave its
    CPU to other guests (steal time, which the kernel keeps out of a task's
    CPU time).  Reference seconds also take out the host's speed changes
    (``probe.py``).
    """
    return [(item, out, seconds, speed.cpu_seconds(*marks),
             speed.reference_seconds(*marks))
            for item, out, seconds, marks in results]


def points_per_s(results, column=2):
    """Points per wall second, per CPU second (3) or per reference second (4)."""
    total = sum(r[column] for r in results)
    return sum(r[1].points for r in results) / total if total else 0.0


def summarize(results):
    """Report-level numbers of a measured item list."""
    outcomes = [r[1] for r in results]
    point_s = [x for o in outcomes for x in o.point_seconds]
    truths = {}
    for o in outcomes:
        for k, v in o.truths.items():
            truths[k] = max(truths.get(k, 0.0), v)
    operations = sum(o.operations for o in outcomes)
    points = sum(o.points for o in outcomes)
    return {
        "points": points,
        "operations": operations,
        "failed": sum(o.failed for o in outcomes),
        "failed_frac": sum(o.exceptions for o in outcomes) / max(operations, 1),
        "uncertified_frac": (sum(o.uncertified for o in outcomes) / points
                             if points else 0.0),
        "points_per_s": points_per_s(results),
        "points_per_cpu_s": points_per_s(results, column=3),
        "points_per_ref_s": points_per_s(results, column=4),
        "boundary_s.p50": statistics.median(r[2] for r in results),
        "point_s.p50": statistics.median(point_s) if point_s else 0.0,
        "point_s.tail": tail(point_s),
        "truths": truths,
        "errors": [e for o in outcomes for e in o.errors],
        "failures": [e for o in outcomes for e in o.failures],
        "samples_drawn": sum(o.samples_drawn for o in outcomes),
    }


def set_up(workload, seed, cycles, size, workdir, modelio):
    """Write the seeded model files, read them back, warm every layer up."""
    items = workload.inputs(seed, cycles, str(workdir), size)
    for item in items:
        item.extra["model"] = modelio.load_model(item.path)
    workload.warm_up()
    return items


def check_layers(name, totals):
    problems = []
    for key in EXPECT[name]["nonzero"]:
        if totals.calls[key] == 0:
            problems.append(f"layer {key} made no calls on {name}, which it dominates")
    for key in EXPECT[name]["zero"]:
        if totals.calls[key] != 0:
            problems.append(f"layer {key} made {totals.calls[key]} calls on {name}, "
                            "which bypasses it")
    if name == "demo_region":
        inner = (totals.seconds["solver.inner_convex.warm"]
                 + totals.seconds["solver.inner_convex.full"])
        sweep = totals.seconds["solver.sweep_boundary"]
        if not inner > 0.5 * sweep:
            problems.append(f"inner_convex covers {inner:.2f} s of the "
                            f"{sweep:.2f} s sweep, not most of it")
    return problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gausskey" / "__init__.py").is_file():
        print(f"error: no gausskey sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    # the speed probe samples the host through untraced runs only: in a
    # traced run its time would land inside the library's spans
    speed = probe.SpeedProbe()
    if not args.trace:
        speed.start()
    try:
        return run_benchmark(args, load_start, speed)
    finally:
        speed.stop()


def run_benchmark(args, load_start, speed):
    """Set up, measure, check and print one run; returns the exit code."""
    import_marks = [speed.mark()]
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import gausskey  # noqa: F401
    from gausskey import modelio

    import spans
    import workloads
    import_marks.append(speed.mark())

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SMOKE if args.smoke else workloads.FULL
    cycles = 1 if args.smoke else max(1, round(args.seconds / workload.cycle_seconds))
    run_dir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_marks = []
        for r in range(SETUP_REPEATS):
            m0 = speed.mark()
            workdir = run_dir / f"setup-{r}"
            workdir.mkdir(parents=True)
            items = set_up(workload, args.seed, cycles, size, workdir, modelio)
            setup_marks.append((m0, speed.mark()))

        problems = []
        if args.trace:
            # overhead: the leading third of the items untraced before and
            # after the traced pass over all items, so warm-up and drift do
            # not favour either side
            prefix = items[:max(1, math.ceil(len(items) / 3))]
            untraced = measure(workload, prefix, args.seed, size, speed)
            tracer = spans.Tracer()
            tracer.install()
            try:
                results = measure(workload, items, args.seed, size, speed, tracer)
            finally:
                tracer.uninstall()
            untraced += measure(workload, prefix, args.seed, size, speed)
            results = timed(results, speed)
            untraced = timed(untraced, speed)
            totals = spans.Totals(tracer.spans)
            summary = summarize(results)
            metrics = spans.layer_metrics(totals, summary["samples_drawn"])
            overhead = 1.0 - (points_per_s(results[:len(prefix)], column=3)
                              / points_per_s(untraced, column=3))
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
            problems = check_layers(args.workload, totals)
            OUT_DIR.mkdir(exist_ok=True)
            span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_csv(span_path)
            counts = spans.repeatable_counts(totals)
        else:
            results = timed(measure(workload, items, args.seed, size, speed), speed)
            counts = None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            run_dir.parent.rmdir()
    speed.stop()

    # set-up in reference seconds: the import plus the median of the repeats
    import_s = speed.reference_seconds(*import_marks)
    setup_times = [speed.reference_seconds(*m) for m in setup_marks]
    setup_s = import_s + statistics.median(setup_times)
    if not args.trace:
        summary = summarize(results)
        values = {
            "setup_s": setup_s,
            "points_per_ref_s": summary["points_per_ref_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    errors = summary["errors"] + problems
    correct = not errors
    tail_value, tail_pct, tail_n = summary["point_s.tail"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles,
        "boundaries": [{"label": item.label, "seconds": seconds,
                        "cpu_seconds": cpu_s, "reference_seconds": ref_s,
                        "points": out.points}
                       for item, out, seconds, cpu_s, ref_s in results],
        "points_per_s": summary["points_per_s"],
        "points_per_cpu_s": summary["points_per_cpu_s"],
        "probe": {"samples": len(speed.samples), "mean_s": speed.mean(),
                  "nominal_s": probe.NOMINAL_PROBE_S},
        "environment": environment(),
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "setup_s": setup_s, "import_s": import_s, "setup_repeats_s": setup_times,
        "boundary_s.p50": summary["boundary_s.p50"],
        "point_s.p50": summary["point_s.p50"],
        "point_s.tail": {"value": tail_value, "percentile": tail_pct,
                         "samples": tail_n},
        "failed_frac": summary["failed_frac"],
        "uncertified_frac": summary["uncertified_frac"],
        "accuracy_nats": summary["truths"],
        "errors": errors, "failures": summary["failures"],
        "counts": counts, "metrics": metrics,
    }

    w = args.workload
    for key, value in report["environment"].items():
        print(f"# env {key}: {value}")
    print(f"# load average at start {load_start[0]:.2f}, at end {os.getloadavg()[0]:.2f}")
    for name, m in metrics.items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        n_points = summary["points"]
        print(f"{w} points_per_s {summary['points_per_s']:.6g} 1/s (wall clock)")
        print(f"{w} points_per_cpu_s {summary['points_per_cpu_s']:.6g} 1/s (CPU time)")
        print(f"{w} probe_s {speed.mean():.6g} s (mean of {len(speed.samples)} "
              f"probes; nominal {probe.NOMINAL_PROBE_S:g} s)")
        print(f"{w} boundary_s.p50 {summary['boundary_s.p50']:.6g} s "
              f"(of {len(results)} boundaries)")
        print(f"{w} point_s.p50 {summary['point_s.p50']:.6g} s (of {n_points} points)")
        print(f"{w} point_s.tail {tail_value:.6g} s (p{tail_pct:.0f} of {tail_n} points)")
        print(f"{w} failed_frac {summary['failed_frac']:.6g} ratio")
        print(f"{w} uncertified_frac {summary['uncertified_frac']:.6g} ratio")
        for name, value in sorted(summary["truths"].items()):
            print(f"{w} {name} {value:.3e} nats" if name != "mc_max_z"
                  else f"{w} {name} {value:.3f} z")
    for line in summary["failures"]:
        print(f"# call failed: {line}")
    for line in errors:
        print(f"# CHECK FAILED: {line}")

    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"result-{w}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["operations"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
