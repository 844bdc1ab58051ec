"""The package runs on numpy alone.

The sweep, the oracle, the closed-form limit and Monte Carlo load neither
SciPy nor ``numpy.ma``, and the aligned route, whose face polish takes its
rotations from ``linalg.skew_expm``, loads no SciPy either.  Each check runs
in a fresh interpreter, so modules that other tests imported do not count.
SciPy serves these tests as a reference alone.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg

from gausskey import linalg

from conftest import random_spd, rng_for

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_fresh(code):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scalar_route_loads_neither_scipy_nor_numpy_ma(tmp_path):
    out = _run_fresh(f"""
        import io, os, sys
        import numpy as np
        import gausskey
        from gausskey import cli, mc, rates, solver
        from gausskey.modelio import save_model

        def loaded():
            return sorted(k for k in sys.modules if k in ("scipy", "numpy.ma")
                          or k.startswith(("scipy.", "numpy.ma.")))

        m = gausskey.GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]],
                                  e=[[0.7, 0.35]])
        solver.sweep_boundary(m, [0.0, 0.5, 1.0], st_resolution=40)
        solver.brute_force_grid(m, 1.0, grid_density=20)
        rates.asymptotic_limit(m)
        path = os.path.join({str(tmp_path)!r}, "degraded.json")
        save_model(m, path)
        cfg = cli.RunConfig(command="region", model_path=path,
                            output_path=os.path.join({str(tmp_path)!r}, "out.csv"),
                            rp_max=2.0, points=5, resolution=40)
        assert cli.run(cfg, out=io.StringIO()) == 0
        mc.cross_validate(m, m.sigma_x, 2000, 0)
        print("scalar", loaded())
    """)
    assert "scalar []" in out


def test_aligned_route_loads_no_scipy(tmp_path):
    # solve_at_rate and certify, then region, kkt-check and mc on an aligned
    # model file; the solve counts the polish's rotations, so the route is
    # seen to reach the call that once loaded scipy.linalg
    out = _run_fresh(f"""
        import io, os, sys
        import numpy as np
        import gausskey
        from gausskey import cli, kkt, solver
        from gausskey.modelio import save_model

        m = gausskey.AlignedModel(sigma_x=2.0 * np.eye(2), sigma_wy=np.eye(2),
                                  sigma_wz=np.diag([2.0, 0.5]))
        report = solver.solve_at_rate(m, 0.5, n_starts=1, max_iter=20)
        kkt.certify(m, report.optimum, 0.5)
        path = os.path.join({str(tmp_path)!r}, "aligned.json")
        save_model(m, path)
        out_csv = os.path.join({str(tmp_path)!r}, "out.csv")
        for cfg in (cli.RunConfig(command="region", model_path=path, output_path=out_csv,
                                  rp_max=1.0, points=3),
                    cli.RunConfig(command="kkt-check", model_path=path, rp=0.5),
                    cli.RunConfig(command="mc", model_path=path, samples=2000)):
            assert cli.run(cfg, out=io.StringIO()) == 0, cfg.command
        print(report.stats["expm_calls"] > 0, sorted(k for k in sys.modules
                                       if k == "scipy" or k.startswith("scipy.")))
    """)
    assert out.split() == ["True", "[]"]


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
def test_gen_eig_pencil_matches_scipy(n, cond):
    # the numpy whitening keeps SciPy's accuracy on ill-conditioned pencils
    rng = rng_for(1700 + n)
    for _ in range(5):
        a = random_spd(rng, n) - 2.0 * np.eye(n)
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        c = (v * np.geomspace(1.0, 1.0 / cond, n)) @ v.T
        c = 0.5 * (c + c.T)
        phis = linalg.gen_eig_pencil(a, c)
        ref = scipy.linalg.eigh(a, c, eigvals_only=True)[::-1]
        assert np.all(np.abs(phis - ref) <= 1e-13 * cond * (1.0 + np.abs(ref)))
