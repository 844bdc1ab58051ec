"""The benchmark's own checks, at smoke size.

Counts from two traced runs on one seed must repeat exactly, the tracer must
bind every copy of a wrapped function and restore it, the speed probe's
scaling must take out its own time and the host's speed, and the benchmark
must refuse to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def _run(args, cwd, script=RUN):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["demo_region", "random_sweep",
                                      "aligned_certified"])
def test_traced_counts_repeat(workload):
    counts = []
    for _ in range(2):
        result = _result(_run(["--workload", workload, "--seed", "3",
                               "--trace", "1", "--smoke"], ROOT))
        assert {k: m["unit"] for k, m in result["metrics"].items()} == \
            _declared("per_layer")
        path = ROOT / ".perfbench" / f"result-{workload}-seed3-trace1.json"
        with open(path, encoding="utf-8") as fh:
            counts.append(json.load(fh)["counts"])
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_untraced_run_prints_declared_metrics():
    result = _result(_run(["--workload", "aligned_certified", "--seed", "3",
                           "--smoke"], ROOT))
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrappers_bind_every_copy_and_restore():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gausskey
    import spans
    from gausskey import kkt, solver

    originals = (solver.inner_convex, solver.rates_aligned, kkt.rates_aligned,
                 solver.validate_model, solver.sla, gausskey.solve_at_rate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solver.inner_convex.__wrapped__ is originals[0]
        assert gausskey.inner_convex is solver.inner_convex
        assert solver.rates_aligned is gausskey.rates.rates_aligned
        assert kkt.rates_aligned is gausskey.rates.rates_aligned
        assert solver.validate_model is gausskey.models.validate_model
        assert solver.validate_model.__wrapped__ is originals[3]
        assert solver.sla.expm.__wrapped__ is originals[4].expm
        assert gausskey.solve_at_rate is solver.solve_at_rate
    finally:
        tracer.uninstall()
    assert (solver.inner_convex, solver.rates_aligned, kkt.rates_aligned,
            solver.validate_model, solver.sla, gausskey.solve_at_rate) == originals


def test_reference_seconds_take_out_probe_time_and_host_speed():
    sys.path.insert(0, str(HERE))
    import probe

    speed = probe.SpeedProbe()
    start, end = (1.0, 0.0), (3.0, 0.5)
    assert speed.reference_seconds(start, end) == pytest.approx(1.5)  # no probes yet
    # a host running at half speed: the probe took twice its nominal time
    speed.samples = [(0.5, 1.0), (2.0, 2 * probe.NOMINAL_PROBE_S)]
    assert speed.cpu_seconds(start, end) == pytest.approx(1.5)
    assert speed.reference_seconds(start, end) == pytest.approx(0.75)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "demo_region", "--seed", "1"], tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
