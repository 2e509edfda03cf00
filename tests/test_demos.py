"""The demos run clean as scripts against the source tree and print the
same bytes as before."""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the sha256 of each demo's stdout; a demo prints only exact values, so its
# bytes do not depend on the hash seed
STDOUT_SHA256 = {
    "01_exact_polytopes.py":
        "13db1ea9161d8b8f3b889a13ff3a23df0051c890ceddf164af74902a7a0b9a96",
    "02_toric_invariants.py":
        "24c6edf409d67fd736d028a29453be683869be8797633f22cb1a80868dc682a2",
    "03_filtrations.py":
        "81e12847a0aca12fc0ee80ef43dfddd6e50a32106d1d01801616175132fd8d1d",
    "04_stability.py":
        "b49132534e379fab5815617fe8f320fcbb5b1f469c262cd34ffe827658385345",
}


def test_four_demos():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs_clean(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    if demo.name == "04_stability.py":
        assert proc.stdout.splitlines()[-1] == (
            b"identity suite: 693 exact checks, 0 failures")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
