"""Loaded models, pinned and seen from other lattice frames.

``test_loaded_model_structure_is_pinned`` pins one digest of the whole
loaded structure per model: the 11 packaged fixtures and the three rank-3
models of the benchmark's ``rank3`` workload, whose JSON is written here
from the benchmark's own data into a temporary directory.

``test_model_in_another_lattice_frame`` writes each fixture in the frame of
a seeded unimodular U: rays and half-space normals go by U, vertices by
U^-T.  The model must load as the same model seen in that frame, and the
threshold, the Futaki vector, the lc thresholds of valuation ideals, the
J norms and the reduced J norm and threshold must follow.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from importlib import resources

import pytest

from oracles import SUBTORI_2, min_support_cells

from ckstab.geometry import (Cone, ExactPolytope, restrict_min_support,
                             support_value)
from ckstab.serialize import load_model
from ckstab.stability import (SubtorusSpec, coupled_delta, coupled_futaki,
                              j_twist, reduced_coupled_delta, reduced_coupled_j)
from ckstab.toric import (TOTAL, MonomialIdealSeq, ZeroIdeal,
                          _region_of_ideal, log_discrepancy, monomial_lct,
                          support_min, t_invariant)

FIXTURES = sorted(p.stem for p in (resources.files("ckstab") / "fixtures").iterdir()
                  if p.name.endswith(".json"))


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
        "barycenters": [[_q(x) for x in b] for b in model.barycenters],
        "bary_den": model.bary_den,
        "bary_nums": [_ints(b) for b in model.bary_nums],
    }


def digest(model) -> str:
    text = json.dumps(structure(model), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED = {
    "bl1p2_halves": "98406326a4c73f62",
    "bl1p2_hsplit": "a8cafc402b2b2a83",
    "p1": "0428623a10882f50",
    "p1_halves": "7529c0cc965d851c",
    "p1_skew": "4df40658ae02f65a",
    "p1_thirds": "b7952b6b5c2b6e37",
    "p1xp1": "6172ea0bd4d05f56",
    "p1xp1_symmetric": "ad78b977eabe473f",
    "p2": "c8a4459d9c19b1b5",
    "p2_halves": "532808a8cb787ec4",
    "p2_steps": "18fb4901fb75d3c6",
    "p1cubed": "54d729bc04d0e8b8",
    "p3_halves": "b64e695a5a4a3768",
    "p3_quarters": "8552db51bb26e86b",
}


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


def _lct_attaining_rays(model, seq, value) -> list:
    """The rays of the threshold's cells at which A / ord takes its value."""
    region = _region_of_ideal(model, seq)
    rays = {r for cells in restrict_min_support(model.fan, region)
            for cell in cells for r in cell}
    attaining = []
    for r in sorted(rays):
        order = support_value(region, r)[0] - support_min(model, seq.summand, r)
        if order > 0 and log_discrepancy(model, r) == value * order:
            attaining.append(r)
    return attaining


def _frame_inputs(model, rng) -> dict:
    """Seeded inputs in the model's own frame, with their values: valuation
    ideals on the total ring and on summand 0, twists for the J norms, and
    the subtori of the reduced J norm and threshold."""
    def rational():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    ideals = []
    for summand in (TOTAL, 0):
        eta = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(model.rank))
        level = t_invariant(model, summand, eta) * F(rng.randint(1, 4), 4)
        seq = MonomialIdealSeq.valuation_levels(eta, level, summand)
        res = monomial_lct(model, seq)
        unique = res.value is not None and len(
            _lct_attaining_rays(model, seq, res.value)) == 1
        ideals.append((seq, res, unique))
    xi = tuple(rational() for _ in range(model.rank))
    jnorms = {i: j_twist(model, i, xi) for i in (TOTAL, *range(model.num_summands))}
    xi0 = tuple(rational() for _ in range(model.rank))
    bases = [(), SubtorusSpec.full(model.rank).basis]
    if model.rank == 2:
        bases.append(rng.choice(SUBTORI_2))
    reduced_j = [(basis, reduced_coupled_j(model, xi0, SubtorusSpec(basis)))
                 for basis in bases]
    reduced_delta = [(basis, reduced_coupled_delta(model, SubtorusSpec(basis)))
                     for basis in (SUBTORI_2 if model.rank == 2 else [])]
    return {"ideals": ideals, "xi": xi, "jnorms": jnorms, "xi0": xi0,
            "reduced_j": reduced_j, "reduced_delta": reduced_delta}


def _assert_invariants_follow(moved, u, inputs) -> None:
    """The seeded invariants of a model at its inputs moved by U equal those
    of ``moved``, the model seen in the frame of U."""
    for seq, res, unique in inputs["ideals"]:
        got = monomial_lct(moved, MonomialIdealSeq.valuation_levels(
            _apply(u, seq.eta), seq.level, seq.summand))
        assert got.value == res.value
        if unique:
            assert got.witness == _apply(u, res.witness)
    xi = _apply(u, inputs["xi"])
    assert {i: j_twist(moved, i, xi) for i in inputs["jnorms"]} == inputs["jnorms"]
    for basis, res in inputs["reduced_j"]:
        got = reduced_coupled_j(moved, _apply(u, inputs["xi0"]),
                                SubtorusSpec(tuple(_apply(u, w) for w in basis)))
        assert got.value == res.value
        assert got.argmin == _apply(u, res.argmin)
    for basis, res in inputs["reduced_delta"]:
        # the witness is a coset representative chosen in each frame
        got = reduced_coupled_delta(moved, SubtorusSpec(
            tuple(_apply(u, w) for w in basis)))
        assert (got.value, got.note) == (res.value, res.note)


@pytest.mark.parametrize("name", FIXTURES)
def test_model_in_another_lattice_frame(tmp_path, name):
    model = load_model(_fixture_path(name))
    delta, futaki = coupled_delta(model), coupled_futaki(model)
    # the threshold's optimum is unique when one ray alone attains it
    slopes = [1 + sum(b * r for b, r in zip(futaki.total, rho)) for rho in model.rays]
    unique = slopes.count(max(slopes)) == 1
    rng = random.Random(f"frame:{name}")
    inputs = _frame_inputs(model, random.Random(f"frame-inputs:{name}"))
    assert any(unique for _, _, unique in inputs["ideals"])
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
        _assert_invariants_follow(moved, u, inputs)


def test_min_support_walk_on_lct_regions_in_other_frames(models, rank3_models,
                                                         lct_pool):
    # the regions of the benchmark's lct calls, on the total ring and on
    # every summand of the 8 fixtures and the 3 rank-3 models, cut by the
    # model's fan: the walk returns the all-vertex loop's cells in the
    # model's frame, and in the frames of 4 seeded unimodular U, the fan by
    # U and the region by U^-T, each region in one of them in turn
    checked = 0
    for name, model in [*models.items(), *rank3_models.items()]:
        regions = set()
        for eta, level in lct_pool[model.rank]:
            for summand in (TOTAL, *range(model.num_summands)):
                seq = MonomialIdealSeq.valuation_levels(eta, level, summand)
                try:
                    regions.add(_region_of_ideal(model, seq))
                except ZeroIdeal:
                    pass
        rng = random.Random(f"frame:{name}")
        frames = []
        for _ in range(4):
            u = _unimodular(rng, model.rank)
            frames.append(([Cone.from_generators([_apply(u, g) for g in c.generators])
                            for c in model.fan], _inverse_transpose(u)))
        for k, region in enumerate(sorted(regions, key=lambda p: (p.den, p.nums))):
            fan, w = frames[k % 4]
            moved = ExactPolytope.from_vertices([_apply(w, v) for v in region.vertices])
            for cones, p in ((model.fan, region), (fan, moved)):
                want = [[rays for _, rays in min_support_cells(c, p)] for c in cones]
                assert restrict_min_support(cones, p) == want, (name, p.vertices)
            checked += 1
    assert checked == 783
