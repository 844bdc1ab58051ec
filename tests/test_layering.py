"""The package's module layering, read from the source with ``ast``.

The modules form one order, each tier importing only from tiers to its left:

    errors -> linalg -> models -> rates -> {kkt, mc, oracle, modelio}
           -> sweep -> solver -> cli

``__init__`` re-exports from every tier and is exempt.  No module imports one
to its right, and no module imports another from its own tier, so the
certificate (``kkt``), Monte Carlo (``mc``) and the brute-force oracle
(``oracle``) share no arithmetic with either solver route or with each
other.  The sweep (``sweep``) sits to the right of the model files only for
``modelio.model_digest``: it imports none of the certificate, Monte Carlo
or the oracle, and the aligned route (``solver``) takes from it only the
names it re-exports and the test of which models the sweep takes, so the
two routes share no arithmetic either.  The package runs on numpy alone:
no module imports ``scipy`` or reads a ``linalg.sla`` handle, and
certifying, verifying, evaluating rates, Monte Carlo, the oracle and the
sweep load no ``scipy``.

The aligned route reports its own work (``SolveReport.stats``), so the
probe script ``tests/data/probe_aligned.py`` reads it there: it assigns to
no attribute of ``gausskey.solver`` and passes none to ``setattr``.
"""

import ast
import os
import subprocess
import sys
import textwrap

import pytest

import gausskey
from gausskey import oracle, solver, sweep

PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "gausskey")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "probe_aligned.py")

TIERS = {
    "errors": 0,
    "linalg": 1,
    "models": 2,
    "rates": 3,
    "kkt": 4,
    "mc": 4,
    "oracle": 4,
    "modelio": 4,
    "sweep": 5,
    "solver": 6,
    "cli": 7,
}
# Imports that the tiers allow but the layering forbids.
SHUNNED = {"sweep": ("kkt", "mc", "oracle")}
# The only names ``solver`` takes from ``sweep``.
SWEEP_NAMES = {"SweepParams", "inner_convex", "sweep_boundary", "_scalar_model"}
NUMPY_ONLY = ("__init__", *TIERS)


def _sources():
    out = {}
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, fname), encoding="utf-8") as fh:
                out[fname[:-3]] = fh.read()
    return out


def _imported(tree):
    """The package modules that a module's syntax tree imports, wherever the
    import statement stands, each with the names taken from it (``*`` for
    the module itself)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "gausskey" and len(parts) > 1:
                    out.setdefault(parts[1], set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["gausskey"]:
                    continue
                parts = parts[1:]
            if parts:
                out.setdefault(parts[0], set()).update(alias.name for alias in node.names)
            else:
                for alias in node.names:
                    out.setdefault(alias.name, set()).add("*")
    return out


def _violations(sources):
    """One line per import that breaks the layering, and per module that has
    no tier."""
    out = []
    for name, source in sorted(sources.items()):
        if name == "__init__":
            continue
        if name not in TIERS:
            out.append(f"{name} has no tier")
            continue
        imported = _imported(ast.parse(source))
        for dep in sorted(imported):
            if dep not in TIERS:
                out.append(f"{name} imports {dep}, which has no tier")
            elif TIERS[dep] > TIERS[name]:
                out.append(f"{name} imports {dep}, to its right")
            elif TIERS[dep] == TIERS[name]:
                out.append(f"{name} imports {dep}, from its own tier")
            elif dep in SHUNNED.get(name, ()):
                out.append(f"{name} imports {dep}, which it must not")
        if name == "solver":
            out += [f"solver takes {n} from sweep"
                    for n in sorted(imported.get("sweep", set()) - SWEEP_NAMES)]
    return out


def _scipy_uses(source):
    """Every import of ``scipy`` and every read of ``linalg.sla`` in a
    module's source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "scipy":
                out.append(node.module)
            out += [f"import {a.name}" for a in node.names if a.name == "sla"]
        elif (isinstance(node, ast.Attribute) and node.attr == "sla"
              and isinstance(node.value, ast.Name) and node.value.id == "linalg"):
            out.append("linalg.sla")
    return out


def _solver_patches(source):
    """Every assignment to (or deletion of) an attribute of
    ``gausskey.solver``, or of a name taken from it, and every ``setattr``
    call on one, in a script's source."""
    tree = ast.parse(source)
    names = set()  # the names bound to the module, or taken from it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gausskey":
            names |= {a.asname or a.name for a in node.names if a.name == "solver"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gausskey.solver":
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.asname for a in node.names if a.name == "gausskey.solver" and a.asname}

    def in_solver(node):
        while isinstance(node, ast.Attribute):
            if node.attr == "solver" and isinstance(node.value, ast.Name) \
                    and node.value.id == "gausskey":
                return True
            node = node.value
        return isinstance(node, ast.Name) and node.id in names

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load) \
                and in_solver(node.value):
            out.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and "setattr" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None))
              and node.args and in_solver(node.args[0])):
            out.append(ast.unparse(node))
    return out


def test_the_probe_patches_no_solver_name():
    with open(PROBE, encoding="utf-8") as fh:
        assert _solver_patches(fh.read()) == []


@pytest.mark.parametrize("line", [
    "solver._polish_face = counted", "solver._FaceSystem.residuals = counted",
    "solver.sla = SimpleNamespace(expm=counted)", "solver.POLISH_HALVINGS += 1",
    "setattr(solver, '_rate_path', traced)", "patch.setattr(solver._FaceSystem, 'jacobian', f)",
    "import gausskey.solver as s\ns._pga_penalty = timed", "gausskey.solver._polished = traced",
    "from gausskey.solver import _FaceSystem\n_FaceSystem.jacobian = counted"])
def test_the_guard_sees_a_solver_patch(line):
    with open(PROBE, encoding="utf-8") as fh:
        assert len(_solver_patches(fh.read() + f"\nfrom gausskey import solver\n{line}\n")) == 1
    assert _solver_patches("np.linalg.cholesky = counted\nsetattr(np.linalg, 'inv', f)\n") == []


def test_every_module_has_a_tier():
    assert set(_sources()) - {"__init__"} == set(TIERS)


def test_imports_follow_the_layering():
    assert _violations(_sources()) == []


@pytest.mark.parametrize("module, line, expected", [
    ("oracle", "from . import solver", "oracle imports solver, to its right"),
    ("oracle", "from gausskey.solver import sweep_boundary",
     "oracle imports solver, to its right"),
    ("kkt", "from .mc import build_joint", "kkt imports mc, from its own tier"),
    ("models", "import gausskey.rates", "models imports rates, to its right"),
    ("sweep", "from . import kkt", "sweep imports kkt, which it must not"),
    ("sweep", "from .solver import SIGMA_FLOOR_SCALE", "sweep imports solver, to its right"),
    ("solver", "from .sweep import _row_min_rp", "solver takes _row_min_rp from sweep"),
    ("solver", "from . import sweep", "solver takes * from sweep"),
])
def test_the_checker_sees_a_bad_import(module, line, expected):
    sources = _sources()
    sources[module] += f"\n\ndef _late():\n    {line}\n"
    assert _violations(sources) == [expected]


def test_the_oracle_is_one_object():
    assert gausskey.brute_force_grid is solver.brute_force_grid is oracle.brute_force_grid


@pytest.mark.parametrize("name", ["sweep_boundary", "inner_convex", "SweepParams"])
def test_the_sweep_names_are_one_object(name):
    assert getattr(solver, name) is getattr(sweep, name) is getattr(gausskey, name)


@pytest.mark.parametrize("module", NUMPY_ONLY)
def test_independent_checks_stay_numpy_only(module):
    assert _scipy_uses(_sources()[module]) == []


@pytest.mark.parametrize("line", ["import scipy.linalg", "from scipy import linalg",
                                  "from .linalg import sla", "linalg.sla.expm(x)"])
def test_the_numpy_guard_sees_scipy(line):
    assert len(_scipy_uses(_sources()["oracle"] + f"\n{line}\n")) == 1


def test_the_checking_layer_runs_without_scipy():
    # in a fresh interpreter, so that modules other tests imported do not
    # count: the frozen aligned points certified, their certificates
    # verified and their rates evaluated, then Monte Carlo, the oracle and
    # the sweep on a scalar model
    points = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                          "aligned_points.json")
    code = f"""
        import json, sys
        import numpy as np
        import gausskey
        from gausskey import kkt, mc, oracle, sweep
        from gausskey.rates import rates_aligned

        with open({points!r}) as fh:
            points = json.load(fh)["points"]
        certified = 0
        for p in points:
            m = gausskey.AlignedModel(p["sigma_x"], p["sigma_wy"], p["sigma_wz"])
            cert = kkt.certify(m, p["sigma"], p["rp"])
            certified += max(kkt.verify_certificate(m, cert).values()) < 1e-6
            rates_aligned(m, p["sigma"])
        m = gausskey.GeneralModel(sigma_x=2.0 * np.eye(2), b=[[1.0, 0.5]], e=[[0.7, 0.35]])
        mc.cross_validate(m, m.sigma_x, 2000, 0)
        oracle.brute_force_grid(m, 1.0, grid_density=20)
        sweep.sweep_boundary(m, [0.0, 0.5, 1.0], st_resolution=40)
        print(len(points), certified, "scipy" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE_DIR)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["47", "47", "False"]
