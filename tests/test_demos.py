"""The demos run clean as scripts against the source tree."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_four_demos():
    assert [d.name for d in DEMOS] == [
        "01_exact_polytopes.py", "02_toric_invariants.py", "03_filtrations.py",
        "04_stability.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs_clean(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if demo.name == "04_stability.py":
        assert proc.stdout.splitlines()[-1] == (
            "identity suite: 693 exact checks, 0 failures")
