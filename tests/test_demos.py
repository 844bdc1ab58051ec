"""Every demo script runs to completion.

Each script runs from a copy in a temporary directory, so the files it
writes next to itself stay out of the source tree, with the package on
``PYTHONPATH``.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
SCRIPTS = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def test_demos_are_found():
    # an empty list would parametrize no test at all
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(tmp_path, script):
    path = shutil.copy(os.path.join(DEMOS, script), tmp_path)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
