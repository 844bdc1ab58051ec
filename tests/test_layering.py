"""The package's module layering, read from the source with ``ast``.

The modules form one order, each tier importing only from tiers to its left:

    errors -> linalg -> models -> rates -> {kkt, mc, oracle, modelio}
           -> solver -> cli

``__init__`` re-exports from every tier and is exempt.  No module imports one
to its right, and no module imports another from its own tier, so the
certificate (``kkt``), Monte Carlo (``mc``) and the brute-force oracle
(``oracle``) share no arithmetic with either solver route or with each
other.  The oracle and Monte Carlo also stay on numpy alone: neither imports
``scipy`` nor reads ``linalg.sla``.
"""

import ast
import os

import pytest

import gausskey
from gausskey import oracle, solver

PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "gausskey")

TIERS = {
    "errors": 0,
    "linalg": 1,
    "models": 2,
    "rates": 3,
    "kkt": 4,
    "mc": 4,
    "oracle": 4,
    "modelio": 4,
    "solver": 5,
    "cli": 6,
}
NUMPY_ONLY = ("oracle", "mc")


def _sources():
    out = {}
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, fname), encoding="utf-8") as fh:
                out[fname[:-3]] = fh.read()
    return out


def _imported(tree):
    """The package modules that a module's syntax tree imports, wherever the
    import statement stands."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "gausskey" and len(parts) > 1:
                    out.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["gausskey"]:
                    continue
                parts = parts[1:]
            if parts:
                out.add(parts[0])
            else:
                out.update(alias.name for alias in node.names)
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
        for dep in sorted(_imported(ast.parse(source))):
            if dep not in TIERS:
                out.append(f"{name} imports {dep}, which has no tier")
            elif TIERS[dep] > TIERS[name]:
                out.append(f"{name} imports {dep}, to its right")
            elif TIERS[dep] == TIERS[name]:
                out.append(f"{name} imports {dep}, from its own tier")
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
])
def test_the_checker_sees_a_bad_import(module, line, expected):
    sources = _sources()
    sources[module] += f"\n\ndef _late():\n    {line}\n"
    assert _violations(sources) == [expected]


def test_the_oracle_is_one_object():
    assert gausskey.brute_force_grid is solver.brute_force_grid is oracle.brute_force_grid


@pytest.mark.parametrize("module", NUMPY_ONLY)
def test_independent_checks_stay_numpy_only(module):
    assert _scipy_uses(_sources()[module]) == []


@pytest.mark.parametrize("line", ["import scipy.linalg", "from scipy import linalg",
                                  "from .linalg import sla", "linalg.sla.expm(x)"])
def test_the_numpy_guard_sees_scipy(line):
    assert len(_scipy_uses(_sources()["oracle"] + f"\n{line}\n")) == 1
