"""Loaded models, pinned and seen from other lattice frames.

``test_loaded_model_structure_is_pinned`` pins one digest of the whole
loaded structure per model: the 11 packaged fixtures and the three rank-3
models of the benchmark's ``rank3`` workload, whose JSON is written here
from the benchmark's own data into a temporary directory.

``test_model_in_another_lattice_frame`` writes each fixture in the frame of
a seeded unimodular U: rays and half-space normals go by U, vertices by
U^-T.  The model must load as the same model seen in that frame, and the
threshold and the Futaki vector must follow.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import runpy
from fractions import Fraction as F
from importlib import resources

import pytest

from ckstab.serialize import load_model
from ckstab.stability import coupled_delta, coupled_futaki

FIXTURES = sorted(p.stem for p in (resources.files("ckstab") / "fixtures").iterdir()
                  if p.name.endswith(".json"))
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _fixture_path(name: str) -> str:
    return str(resources.files("ckstab") / "fixtures" / f"{name}.json")


def _q(x) -> str:
    assert type(x) is F, x
    return str(x)


def _ints(v) -> list:
    assert all(type(x) is int for x in v), v
    return list(v)


def _polytope(p) -> dict:
    return {"vertices": [[_q(x) for x in v] for v in p.vertices],
            "halfspaces": [[_ints(h.normal), _q(h.offset)] for h in p.halfspaces],
            "dim": p.dim, "rank": p.rank, "den": p.den,
            "nums": [_ints(n) for n in p.nums]}


def structure(model) -> dict:
    """Everything a load builds, with exact types checked on the way."""
    return {
        "name": model.name, "rank": model.rank,
        "rays": [_ints(r) for r in model.rays],
        "anticanonical": _polytope(model.anticanonical),
        "summands": [_polytope(p) for p in model.summands],
        "fan": [{"generators": [_ints(g) for g in c.generators],
                 "facets": [_ints(f) for f in c.facets]} for c in model.fan],
        "support_forms": [[[_q(x) for x in v] for v in row]
                          for row in model.support_forms],
        "barycenters": [[_q(x) for x in b] for b in model.barycenters],
        "bary_den": model.bary_den,
        "bary_nums": [_ints(b) for b in model.bary_nums],
    }


def digest(model) -> str:
    text = json.dumps(structure(model), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED = {
    "bl1p2_halves": "3b1e347f6f2cf65f",
    "bl1p2_hsplit": "afc8749d970bec65",
    "p1": "d744c467348fc2ec",
    "p1_halves": "353c6ead904828fc",
    "p1_skew": "5fbeff9b1f751a6f",
    "p1_thirds": "490af15c00e3ed4e",
    "p1xp1": "be0283700f7113e1",
    "p1xp1_symmetric": "bac30b30dacfa2ee",
    "p2": "d6d3c0d47e950762",
    "p2_halves": "38c679161a68af75",
    "p2_steps": "aa2cd36b731beba9",
    "p1cubed": "01dbee9eef017fd7",
    "p3_halves": "3d1d0a6056a4a1b5",
    "p3_quarters": "d9f3355b88e3102b",
}


@pytest.fixture(scope="module")
def rank3_dir(tmp_path_factory):
    """The rank-3 benchmark models, written from the benchmark's data."""
    directory = tmp_path_factory.mktemp("rank3")
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    workloads["write_rank3_models"](str(directory))
    return directory


def test_loaded_model_structure_is_pinned(rank3_dir):
    paths = {name: _fixture_path(name) for name in FIXTURES}
    paths.update((p.stem, str(p)) for p in rank3_dir.glob("*.json"))
    assert sorted(paths) == sorted(PINNED)
    got = {name: digest(load_model(path)) for name, path in paths.items()}
    assert got == PINNED


def _unimodular(rng: random.Random, rank: int) -> list[list[int]]:
    """A seeded integer matrix of determinant +-1: shears, then a signed
    permutation of the rows."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        k = rng.choice([-2, -1, 1, 2])
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in u]


def _inverse_transpose(u: list[list[int]]) -> list[list[F]]:
    """(U^-1)^T by Gauss-Jordan over Fractions."""
    n = len(u)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(u)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    inv = [row[n:] for row in aug]
    return [[inv[j][i] for j in range(n)] for i in range(n)]


def _apply(m, v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def _frame_model(model, u, w) -> dict:
    """The model written in the frame of U: rays by U, summand 0 by its
    vertices under W = U^-T, the other summands by their half-spaces, each
    normal by U with its offset unchanged."""
    decomposition = [{"vertices": [[str(x) for x in _apply(w, v)]
                                   for v in model.summands[0].vertices]}]
    decomposition += [{"halfspaces": [{"normal": list(_apply(u, h.normal)),
                                       "offset": str(h.offset)}
                                      for h in p.halfspaces]}
                      for p in model.summands[1:]]
    return {"name": model.name, "rank": model.rank,
            "rays": [list(_apply(u, r)) for r in model.rays],
            "decomposition": decomposition}


@pytest.mark.parametrize("name", FIXTURES)
def test_model_in_another_lattice_frame(tmp_path, name):
    model = load_model(_fixture_path(name))
    delta, futaki = coupled_delta(model), coupled_futaki(model)
    # the threshold's optimum is unique when one ray alone attains it
    slopes = [1 + sum(b * r for b, r in zip(futaki.total, rho)) for rho in model.rays]
    unique = slopes.count(max(slopes)) == 1
    rng = random.Random(f"frame:{name}")
    for k in range(4):
        u = _unimodular(rng, model.rank)
        w = _inverse_transpose(u)
        path = tmp_path / f"{name}-{k}.json"
        path.write_text(json.dumps(_frame_model(model, u, w)))
        moved = load_model(str(path))
        assert moved.rays == tuple(sorted(_apply(u, r) for r in model.rays))
        for p, q in zip((model.anticanonical, *model.summands),
                        (moved.anticanonical, *moved.summands)):
            assert q.vertices == tuple(sorted(_apply(w, v) for v in p.vertices))
            assert {(h.normal, h.offset) for h in q.halfspaces} == {
                (_apply(u, h.normal), h.offset) for h in p.halfspaces}
        assert moved.barycenters == tuple(_apply(w, b) for b in model.barycenters)
        assert coupled_futaki(moved).total == _apply(w, futaki.total)
        moved_delta = coupled_delta(moved)
        assert moved_delta.value == delta.value
        if unique:
            assert moved_delta.witness == _apply(u, delta.witness)
