from __future__ import annotations

import pathlib
import runpy
from fractions import Fraction

import pytest

from ckstab.serialize import load_model
from ckstab.cli import resolve_model_path

FIXTURE_NAMES = [
    "p1_halves", "p1_skew", "p1_thirds",
    "p2_halves", "p2_steps",
    "p1xp1_symmetric",
    "bl1p2_halves", "bl1p2_hsplit",
]

CANONICAL = ["p1_halves", "p2_halves", "p1xp1_symmetric", "bl1p2_halves"]

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    return load_model(resolve_model_path(name + ".json"))


@pytest.fixture(scope="session")
def models():
    return {name: _load(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def p1(models):
    return models["p1_halves"]


@pytest.fixture(scope="session")
def p1_skew(models):
    return models["p1_skew"]


@pytest.fixture(scope="session")
def p2(models):
    return models["p2_halves"]


@pytest.fixture(scope="session")
def p2_steps(models):
    return models["p2_steps"]


@pytest.fixture(scope="session")
def p1xp1(models):
    return models["p1xp1_symmetric"]


@pytest.fixture(scope="session")
def bl1p2(models):
    return models["bl1p2_halves"]


@pytest.fixture(scope="session")
def bl1p2_hsplit(models):
    return models["bl1p2_hsplit"]


@pytest.fixture(scope="session")
def rank3_dir(tmp_path_factory):
    """The rank-3 benchmark models, written from the benchmark's data."""
    directory = tmp_path_factory.mktemp("rank3")
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    workloads["write_rank3_models"](str(directory))
    return directory


@pytest.fixture(scope="session")
def rank3_models(rank3_dir):
    return {p.stem: load_model(str(p)) for p in sorted(rank3_dir.glob("*.json"))}


@pytest.fixture(scope="session")
def lct_pool():
    """The (eta, level) pairs of the benchmark's lct calls, by rank, sorted:
    those of the ``verbs`` fixtures in ranks 1 and 2, of ``rank3`` in 3."""
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    pool = {}
    for argv in workloads["pool"]("verbs") + workloads["pool"]("rank3"):
        if argv[0] == "lct":
            flags = dict(a.split("=") for a in argv[2:])
            eta = tuple(Fraction(x) for x in flags["--eta"].split(","))
            pool.setdefault(len(eta), set()).add((eta, Fraction(flags["--level"])))
    return {rank: sorted(pairs) for rank, pairs in pool.items()}
