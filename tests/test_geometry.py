"""Polytope kernel tests: frozen examples plus oracle comparisons.

The rank-2 oracles here (monotone-chain hull, shoelace area and centroid)
are deliberately different algorithms from the kernel's subset enumeration,
so agreement is a real cross-check.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from fractions import Fraction as F
from importlib import resources
from operator import mul as operator_mul

import pytest

import ckstab.geometry
from ckstab.cli import resolve_model_path
from ckstab.geometry import (DimensionMismatch, EmptyRegion, ExactPolytope,
                             HalfSpace, UnboundedRegion, _edge_table, _int_det,
                             _minor_normal, centroid, lattice_points,
                             minkowski_sum, normal_cones, normal_fan,
                             restrict_min_support, support_value, vdot, volume)
from ckstab.serialize import load_model


from oracles import (affine_rank, cofactor_det, cone_from_generators,
                     cone_rays_oracle, hull_oracle, hull_oracle_any,
                     incidence_oracle, lattice_oracle, min_support_cells,
                     minor_normal_oracle,
                     normal_fan_oracle, rand_point,
                     rand_rational_points, shoelace_area, shoelace_centroid,
                     support_oracle, volume_centroid_oracle)


# --- dual description -------------------------------------------------------

def test_simplex_facets():
    p = ExactPolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    got = {(h.normal, h.offset) for h in p.halfspaces}
    assert got == {((1, 0), F(0)), ((0, 1), F(0)), ((-1, -1), F(-1))}


def test_halfspaces_to_vertices():
    hs = [HalfSpace.make((1, 0), -1), HalfSpace.make((0, 1), -1),
          HalfSpace.make((-1, -1), -1), HalfSpace.make((1, 1), -1)]
    p = ExactPolytope.from_halfspaces(hs, 2)
    assert set(p.vertices) == {(F(-1), F(2)), (F(2), F(-1)),
                               (F(-1), F(0)), (F(0), F(-1))}


def _unit(rank, i, s=1):
    return tuple(s * (j == i) for j in range(rank))


def test_empty_region():
    for rank in (1, 2, 3, 4):
        # x >= 0 and -sum x >= 1: no recession direction and no point
        hs = [HalfSpace.make(_unit(rank, i), 0) for i in range(rank)]
        with pytest.raises(EmptyRegion, match="half-space intersection is empty"):
            ExactPolytope.from_halfspaces(
                hs + [HalfSpace.make((-1,) * rank, 1)], rank)
        if rank == 1:
            # normals that span in rank 1 leave no recession direction
            continue
        # x_0 >= 1, -x_0 >= 0, x_i >= 0: a recession direction, but no point
        hs = [HalfSpace.make(_unit(rank, 0), 1), HalfSpace.make(_unit(rank, 0, -1), 0)]
        hs += [HalfSpace.make(_unit(rank, i), 0) for i in range(1, rank)]
        with pytest.raises(EmptyRegion, match="contradictory constraints"):
            ExactPolytope.from_halfspaces(hs, rank)


def test_unbounded_region():
    for rank in (1, 2, 3, 4):
        hs = [HalfSpace.make(_unit(rank, i), 0) for i in range(rank)]
        with pytest.raises(UnboundedRegion, match="feasible region is unbounded"):
            ExactPolytope.from_halfspaces(hs, rank)
        if rank == 1:
            # a nonzero normal spans in rank 1
            continue
        # x_i >= 0 for i < rank - 1: the last axis is a line
        with pytest.raises(UnboundedRegion, match="half-space normals do not span; "
                           "lineality present"):
            ExactPolytope.from_halfspaces(hs[:-1], rank)


def test_roundtrip_exact():
    rng = random.Random(5)
    for _ in range(40):
        pts = [rand_point(rng) for _ in range(rng.randint(3, 8))]
        p = ExactPolytope.from_vertices(pts)
        if p.dim < 2:
            continue
        back = ExactPolytope.from_halfspaces(list(p.halfspaces), 2)
        assert back.vertices == p.vertices
        assert set(p.vertices) == set(hull_oracle(pts))


def test_interior_points_dropped():
    p = ExactPolytope.from_vertices([(0, 0), (4, 0), (0, 4), (1, 1)])
    assert (F(1), F(1)) not in p.vertices


# --- minkowski sums ----------------------------------------------------------

def test_interval_addition():
    a = ExactPolytope.from_vertices([(0,), (1,)])
    b = ExactPolytope.from_vertices([(0,), (2,)])
    assert minkowski_sum([a, b]).vertices == ((F(0),), (F(3),))


def test_triangle_plus_trapezoid():
    t = ExactPolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    z = ExactPolytope.from_vertices([(1, 0), (2, 0), (0, 2), (0, 1)])
    s = minkowski_sum([t, z])
    assert set(s.vertices) == {(F(1), F(0)), (F(3), F(0)),
                               (F(0), F(3)), (F(0), F(1))}


def test_sum_with_point_translates():
    p = ExactPolytope.from_vertices([(-1, 2), (2, -1), (-1, 0), (0, -1)])
    pt = ExactPolytope.from_vertices([(3, -2)])
    assert minkowski_sum([p, pt]) == p.translate((3, -2))


def test_sum_associative_commutative():
    rng = random.Random(11)
    for _ in range(10):
        ps = [ExactPolytope.from_vertices([rand_point(rng, 2) for _ in range(4)])
              for _ in range(3)]
        a = minkowski_sum([ps[0], minkowski_sum([ps[1], ps[2]])])
        b = minkowski_sum([minkowski_sum([ps[0], ps[1]]), ps[2]])
        c = minkowski_sum([ps[2], ps[0], ps[1]])
        assert a == b == c


def test_support_additivity_under_sum():
    rng = random.Random(13)
    for _ in range(15):
        p = ExactPolytope.from_vertices([rand_point(rng) for _ in range(5)])
        q = ExactPolytope.from_vertices([rand_point(rng) for _ in range(5)])
        s = minkowski_sum([p, q])
        xi = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
        assert support_value(s, xi, "min")[0] == \
            support_value(p, xi, "min")[0] + support_value(q, xi, "min")[0]


def test_mixed_rank_rejected():
    a = ExactPolytope.from_vertices([(0,), (1,)])
    b = ExactPolytope.from_vertices([(0, 0), (1, 1)])
    with pytest.raises(DimensionMismatch):
        minkowski_sum([a, b])


# --- volume and centroid -----------------------------------------------------

def test_unit_square_volume():
    sq = ExactPolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert volume(sq) == 1


def test_triangle_volume_and_centroid():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    assert volume(t) == F(9, 2)
    assert centroid(t) == (F(0), F(0))


def test_quadrilateral_volume_and_centroid():
    q = ExactPolytope.from_vertices([(-1, 2), (2, -1), (-1, 0), (0, -1)])
    assert volume(q) == 4
    assert centroid(q) == (F(1, 12), F(1, 12))


def test_segment_centroid_and_volume():
    seg = ExactPolytope.from_vertices([(-1,), (1,)])
    assert centroid(seg) == (F(0),)
    assert volume(seg) == 2
    diag = ExactPolytope.from_vertices([(0, 0), (2, 2)])
    assert centroid(diag) == (F(1), F(1))
    assert volume(diag) == 2            # lattice length along (1, 1)


def test_point_centroid_and_volume():
    # a point has volume 1 in its own affine hull, the counting measure
    pt = ExactPolytope.from_vertices([(F(1, 2), -3)])
    assert (pt.dim, volume(pt), centroid(pt)) == (0, 1, (F(1, 2), F(-3)))


def test_only_nonzero_vectors_are_primitive():
    from ckstab.geometry import is_primitive
    assert [is_primitive(v) for v in [(0, 0), (0,), (2, 0), (0, -1), (2, 3)]] == [
        False, False, False, True, True]


def test_translation_equivariance():
    rng = random.Random(17)
    for _ in range(15):
        pts = [rand_point(rng) for _ in range(6)]
        p = ExactPolytope.from_vertices(pts)
        if p.dim < 2:
            continue
        t = rand_point(rng)
        q = p.translate(t)
        assert volume(q) == volume(p)
        assert centroid(q) == tuple(c + s for c, s in zip(centroid(p), t))


def test_volume_centroid_against_shoelace():
    rng = random.Random(19)
    for _ in range(40):
        pts = [rand_point(rng) for _ in range(rng.randint(3, 8))]
        p = ExactPolytope.from_vertices(pts)
        if p.dim < 2:
            continue
        ccw = hull_oracle(pts)
        assert volume(p) == shoelace_area(ccw)
        assert centroid(p) == shoelace_centroid(ccw)


# --- support values ----------------------------------------------------------

def test_support_examples():
    sq = ExactPolytope.from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    val, vtx = support_value(sq, (1, 0), "min")
    assert val == -1 and vtx[0] == -1
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    assert support_value(t, (1, 1), "min")[0] == -2
    assert support_value(t, (0, 0), "min")[0] == 0


def test_vdot_keeps_ints_and_the_rank_check():
    assert vdot((1, -2, 3), (4, 5, 6)) == 12
    assert type(vdot((1, -2, 3), (4, 5, 6))) is int
    assert type(vdot((F(1, 2), 2), (2, 3))) is F
    assert vdot((F(1, 2), 2), (2, 3)) == 7
    with pytest.raises(DimensionMismatch):
        vdot((1, 2), (1, 2, 3))


def test_support_rank_mismatch():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    with pytest.raises(DimensionMismatch):
        support_value(t, (1,), "min")


def test_contains_on_the_boundary_inside_and_out():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    # a vertex, a rational edge point, a rational interior point
    for pt in [(2, -1), (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 7))]:
        assert t.contains(pt)
    # just past the edge x + y <= 1, and just below the vertex (-1, -1)
    for pt in [(F(1, 2), F(1, 2) + F(1, 10 ** 9)), (-1, F(-101, 100))]:
        assert not t.contains(pt)
    # a segment in rank 3: on it, at its end, past its end, and off its line
    s = ExactPolytope.from_vertices([(0, 0, 0), (F(1, 2), 1, F(3, 2))])
    assert s.contains((F(1, 4), F(1, 2), F(3, 4)))
    assert s.contains((F(1, 2), 1, F(3, 2)))
    assert not s.contains((1, 2, 3))
    assert not s.contains((F(1, 4), F(1, 2), F(3, 4) + F(1, 10 ** 9)))
    # a point of the wrong length is refused, not zipped down to size
    for pt in [(0,), (0, 0, 0)]:
        with pytest.raises(DimensionMismatch):
            t.contains(pt)


def test_contains_agrees_with_the_halfspace_view():
    rng = random.Random(71)
    inside = 0
    for _, p in _random_polytopes(71, per_shape=1):
        mid = tuple((a + b) / 2 for a, b in zip(p.vertices[0], p.vertices[-1]))
        for q in [*rand_rational_points(rng, p.rank, 6), *p.vertices, mid]:
            assert p.contains(q) == all(vdot(q, h.normal) >= h.offset
                                        for h in p.halfspaces)
            inside += p.contains(q)
    assert inside > 0


# --- lattice points and support cells ---------------------------------------

def test_lattice_points_triangle():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    assert len(lattice_points(t)) == 10


def test_normal_fan_matches_vertex_scan():
    # every cone that contains eta has a form that gives the support minimum
    q = ExactPolytope.from_vertices([(-1, 2), (2, -1), (-1, 0), (0, -1)])
    fan = normal_fan(q)
    rng = random.Random(23)
    for _ in range(50):
        eta = (F(rng.randint(-6, 6), rng.choice([1, 2])),
               F(rng.randint(-6, 6), rng.choice([1, 2])))
        forms = [v for cone, v in fan if cone.contains(eta)]
        assert forms
        for v in forms:
            assert vdot(v, eta) == support_value(q, eta, "min")[0]


def _all_fixtures(models):
    """Every packaged fixture model, by name, reusing those that the
    ``models`` fixture has loaded."""
    names = sorted(f.name[:-len(".json")]
                   for f in (resources.files("ckstab") / "fixtures").iterdir()
                   if f.name.endswith(".json"))
    assert len(names) == 11
    return {name: models.get(name) or load_model(resolve_model_path(name + ".json"))
            for name in names}


def _hexagons_antican():
    """The 36-vertex product of two hexagons, cut out by the 12 rays of the
    two hexagon fans at level -1."""
    fan = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    rays = [(a, b, 0, 0) for a, b in fan] + [(0, 0, a, b) for a, b in fan]
    return ExactPolytope.from_halfspaces([HalfSpace.make(r, -1) for r in rays], 4)


def test_normal_fan_matches_the_spanned_cones(models, rank3_models):
    # each cone read off the edge table equals the span of the vertex's
    # tight facet normals with its facets solved for: same generators,
    # facets, vertex and order
    polys = []
    for model in [*_all_fixtures(models).values(), *rank3_models.values()]:
        polys.append(model.anticanonical)
        polys += [q for q in model.summands if q.dim == q.rank]
    polys.append(ExactPolytope.from_vertices(
        [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]))
    polys.append(ExactPolytope.from_vertices(
        [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]))
    polys.append(_hexagons_antican())
    rng = random.Random(41)
    # rank-4 hulls of rational points dominate the time, so fewer of them
    for rank, count in ((1, 30), (2, 30), (3, 30), (4, 10)):
        seeded = 0
        while seeded < count:
            p = ExactPolytope.from_vertices(rand_rational_points(
                rng, rank, rng.randint(rank + 1, rank + 4), span=4))
            if p.dim == rank:
                polys.append(p)
                seeded += 1
    for p in polys:
        assert normal_fan(p) == normal_fan_oracle(p), p


def test_normal_fan_solves_no_rays(models, monkeypatch):
    # the fan is read off the edge table, so no cone is solved for; the
    # counter is live, as a library solve shows
    fixtures = _all_fixtures(models)
    calls = []
    rays = ckstab.geometry._rays

    def counted(rows, rank):
        calls.append(rank)
        return rays(rows, rank)

    monkeypatch.setattr(ckstab.geometry, "_rays", counted)
    for name, model in fixtures.items():
        normal_fan(model.anticanonical)
        assert calls == [], name
    # a hull and its cross-check
    ExactPolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    assert calls == [3, 3]


def test_loading_and_face_queries_rescan_nothing(models, rank3_dir, monkeypatch):
    # the vertex loop gives a full-dimensional polytope its incidence, and
    # the edge table, the fan and the triangulation compare its sets: no
    # second scan, and no rank.  The counters are live, as the last calls
    # show
    paths = [resolve_model_path(name + ".json") for name in _all_fixtures(models)]
    paths += sorted(str(p) for p in rank3_dir.glob("*.json"))
    assert len(paths) == 14
    scanned, ranked = [], []
    incidence, rank = ckstab.geometry._incidence, ckstab.geometry._rank

    def counted_incidence(nums, facets):
        scanned.append(nums)
        return incidence(nums, facets)

    def counted_rank(rows):
        ranked.append(rows)
        return rank(rows)

    monkeypatch.setattr(ckstab.geometry, "_incidence", counted_incidence)
    monkeypatch.setattr(ckstab.geometry, "_rank", counted_rank)
    loaded = [load_model(path) for path in paths]
    # only a hull of lower dimension is scanned
    assert all(affine_rank(nums) < len(nums[0]) for nums in scanned)
    del scanned[:], ranked[:]
    for model in loaded:
        for p in (model.anticanonical, *model.summands):
            if p.dim == p.rank:
                normal_fan(p)
            _edge_table(p)
            centroid(p)
            assert scanned == [] and ranked == [], (model.name, p)
    ExactPolytope.from_vertices([(0, 0), (1, 1)])
    ExactPolytope.from_halfspaces([HalfSpace.make((1, 0), -1),
                                   HalfSpace.make((0, 1), -1),
                                   HalfSpace.make((-1, -1), -1)], 2)
    assert scanned and ranked


# --- rank-3 coverage ---------------------------------------------------------

def test_rank3_cube_volume_centroid():
    cube = ExactPolytope.from_vertices(
        [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    assert cube.dim == 3 and len(cube.halfspaces) == 6
    assert volume(cube) == 8
    assert centroid(cube) == (F(0), F(0), F(0))
    shifted = cube.translate((F(1, 2), F(-1, 3), F(2)))
    assert volume(shifted) == 8
    assert centroid(shifted) == (F(1, 2), F(-1, 3), F(2))


def test_rank3_simplex_volume():
    # |det| / 3! for a skewed simplex
    s = ExactPolytope.from_vertices([(0, 0, 0), (2, 0, 0), (1, 3, 0), (1, 1, 4)])
    assert volume(s) == F(2 * 3 * 4, 6)


def test_rank3_roundtrip():
    rng = random.Random(29)
    for _ in range(10):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(4, 8))]
        p = ExactPolytope.from_vertices(pts)
        if p.dim < 3:
            continue
        back = ExactPolytope.from_halfspaces(list(p.halfspaces), 3)
        assert back.vertices == p.vertices


def test_cone_roundtrip_and_rays_contract():
    # the rays of a cone's facets, with sums of two facets and a doubled
    # facet among them, are the cone's generators; _rays gives each ray
    # once, primitive, in the order in which the oracle's subset scan first
    # finds it, with the rows the oracle scans tight at it
    rng = random.Random(31)
    repeated = 0
    for rank in (1, 2, 3, 4):
        for _ in range(5 if rank == 1 else 30):
            cone = _seeded_cone(rng, rank)
            facets = list(cone.facets)
            rows = facets + [tuple(2 * x for x in rng.choice(facets))]
            rows += [tuple(map(sum, zip(*rng.sample(facets, 2))))
                     for _ in range(min(2, len(facets) - 1))]
            got = ckstab.geometry._rays(rows, rank)
            assert list(got.items()) == list(cone_rays_oracle(rows, rank).items())
            assert sorted(got) == list(cone.generators)
            # a ray tight at rank rows or more is found by several subsets
            repeated += any(len(t) >= rank for t in got.values())
    assert repeated > 30


def test_min_support_cells_are_the_rays_of_their_cones():
    # each cell of restrict_min_support is the sorted generator list of the
    # cone its rays span, lies in the cone, and has one vertex minimize the
    # support pairing on every ray, a different one in each cell;
    # degenerate polytopes included
    rng = random.Random(37)
    cells_seen = 0
    for rank in (2, 3):
        for _ in range(15):
            gens = [tuple(rng.randint(-3, 3) for _ in range(rank - 1))
                    + (rng.randint(1, 3),) for _ in range(rng.randint(rank, 6))]
            if affine_rank([(0,) * rank] + gens) < rank:
                continue
            cone = cone_from_generators(gens)
            dim = rng.randint(0, rank)
            p = ExactPolytope.from_vertices(
                rand_rational_points(rng, rank, dim + 2, dim, 4))
            (cells,) = restrict_min_support([cone], p)
            assert cells
            winners = set()
            for rays in cells:
                assert rays == list(cone_from_generators(rays).generators)
                assert all(cone.contains(r) for r in rays)
                (v,) = [v for v in p.vertices
                        if all(vdot(v, r) == support_value(p, r, "min")[0]
                               for r in rays)]
                winners.add(v)
                cells_seen += 1
            assert len(winners) == len(cells)
    assert cells_seen > 30


def _seeded_cone(rng, rank):
    """A pointed full-dimensional cone: in rank 1 a half-line, above it the
    span of rank to 6 generators with a positive last coordinate."""
    if rank == 1:
        return cone_from_generators([(rng.choice([-1, 1]),)])
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank - 1))
                + (rng.randint(1, 3),) for _ in range(rng.randint(rank, 6))]
        if affine_rank([(0,) * rank] + gens) == rank:
            return cone_from_generators(gens)


def _seeded_cells(rng):
    """(cone, polytope) pairs in ranks 1 to 3, each polytope a point, a
    segment, a polygon or a solid of one to six seeded points."""
    for rank in (1, 2, 3):
        for k in range(48):
            dim = k % (rank + 1)
            yield _seeded_cone(rng, rank), ExactPolytope.from_vertices(
                rand_rational_points(rng, rank, dim + rng.randint(1, 5), dim, 4))


def test_min_support_walk_matches_the_all_vertex_loop():
    # the walk over the edge table returns the cells, in the order of their
    # vertices, that the loop over every vertex and every vertex difference
    # keeps; one call takes several cones
    rng = random.Random(71)
    seen = set()
    for cone, p in _seeded_cells(rng):
        other = _seeded_cone(rng, p.rank)
        want = [[rays for _, rays in min_support_cells(c, p)] for c in (cone, other)]
        assert restrict_min_support([cone, other], p) == want, (cone, p.vertices)
        seen.add((p.rank, p.dim, max(map(len, want))))
    # every rank and dimension, with cones cut into one and into several cells
    assert {(r, d) for r, d, _ in seen} == {(r, d) for r in (1, 2, 3)
                                            for d in range(r + 1)}
    assert {n for r, _, n in seen if r > 1} >= {1, 2, 3}


def test_min_support_walk_solves_only_its_cells(monkeypatch, rank3_models, lct_pool):
    # one _rays solve per returned cell, and at most one more per vertex
    # tied with another at the cone's probe: on seeded cones and on the
    # regions of the rank-3 lct calls of the benchmark, whose 128 cones
    # hold 168 cells among 672 (cone, vertex) pairs
    from ckstab import geometry
    from ckstab.toric import MonomialIdealSeq, _region_of_ideal
    rays = geometry._rays
    solves = []

    def counted(rows, rank):
        solves.append(rows)
        return rays(rows, rank)

    seeded = list(_seeded_cells(random.Random(73)))
    pooled = []
    for name in ("p3_halves", "p3_quarters"):
        model = rank3_models[name]
        for eta, level in lct_pool[3]:
            region = _region_of_ideal(
                model, MonomialIdealSeq.valuation_levels(eta, level))
            pooled += [(cone, region) for cone in model.fan]
    monkeypatch.setattr(geometry, "_rays", counted)
    found = []
    for cone, p in seeded + pooled:
        solves.clear()
        (got,) = restrict_min_support([cone], p)
        vals = [vdot(v, [sum(x) for x in zip(*cone.generators)]) for v in p.vertices]
        assert len(solves) <= len(got) + vals.count(min(vals)) - 1, (cone, p.vertices)
        found.append(len(got))
    assert (sum(len(p.nums) for _, p in pooled),
            sum(found[len(seeded):])) == (672, 168)


def test_whole_cones_solve_no_cell(monkeypatch, models, rank3_models, lct_pool):
    # a cone inside the normal cone of the one vertex that minimizes at its
    # probe is returned whole, with no _rays solve; a split cone solves each
    # of its cells once: on the lct regions of the benchmark's (eta, level)
    # pairs, on every fixture and rank-3 model of their rank
    from ckstab import geometry
    from ckstab.toric import MonomialIdealSeq, _region_of_ideal
    rays = geometry._rays
    solves = []

    def counted(rows, rank):
        solves.append(rows)
        return rays(rows, rank)

    regions = [(model, _region_of_ideal(
                   model, MonomialIdealSeq.valuation_levels(eta, level)))
               for model in [*models.values(), *rank3_models.values()]
               for eta, level in lct_pool[model.rank]]
    monkeypatch.setattr(geometry, "_rays", counted)
    whole = split = 0
    for model, region in regions:
        for cone in model.fan:
            solves.clear()
            (got,) = restrict_min_support([cone], region)
            if len(got) == 1:
                assert got == [sorted(cone.generators)] and not solves
                whole += 1
            else:
                assert len(solves) == len(got), (model.name, cone, region)
                split += 1
    assert (whole, split) == (1338, 286)


def test_edge_table_is_built_once_per_polytope(monkeypatch, rank3_dir):
    # a load certifies on the incidence alone and builds no edge table; the
    # first read of the fan builds the anticanonical one, and a second read
    # returns the same fan.  Comparing models builds no fan.  An lct call
    # clips the polytope with the anticanonical table and reads the fan: one
    # more is built, for the clipped region
    from ckstab.toric import MonomialIdealSeq, monomial_lct
    built = []
    edge_table = ckstab.geometry._edge_table

    def counted(p):
        built.append(p)
        return edge_table(p)

    monkeypatch.setattr(ckstab.geometry, "_edge_table", counted)
    names = sorted(f.name for f in (resources.files("ckstab") / "fixtures").iterdir()
                   if f.name.endswith(".json"))
    paths = ([resolve_model_path(n) for n in names]
             + sorted(map(str, rank3_dir.glob("*.json"))))
    assert (len(names), len(paths)) == (11, 14)
    for path in paths:
        model, again, other = load_model(path), load_model(path), load_model(path)
        assert built == [], path
        assert model == again and hash(model) == hash(again), path
        assert built == [], path
        fan = model.fan
        assert built == [model.anticanonical], path
        assert fan == tuple(normal_cones(model.anticanonical)), path
        assert model.fan is fan, path
        assert model == again, path
        assert other.fan == fan and model == other, path
        assert len(built) == 2, path
        built.clear()

    model = load_model(resolve_model_path("bl1p2_hsplit.json"))
    monomial_lct(model, MonomialIdealSeq.valuation_levels((1, 1), 1))
    assert [p is model.anticanonical for p in built] == [True, False]
    assert model.anticanonical.edges is model.anticanonical.edges


# --- integer kernels against plain-Fraction oracles, ranks 1 to 4 -----------

# (rank, affine dimension, point count) of the seeded random polytopes;
# full-dimensional and lower-dimensional ones in every rank
SHAPES = [(1, 1, 4), (1, 0, 2), (2, 2, 7), (2, 1, 4), (3, 3, 7), (3, 2, 5),
          (3, 1, 3), (4, 4, 7), (4, 3, 6), (4, 2, 4)]


def _random_polytopes(seed, per_shape=3, span=9):
    rng = random.Random(seed)
    for rank, dim, count in SHAPES:
        for _ in range(per_shape):
            pts = rand_rational_points(rng, rank, count, dim, span)
            yield pts, ExactPolytope.from_vertices(pts)


def _structure(p):
    return p.vertices, p.halfspaces, p.dim


def test_minor_normal_in_four_and_five_columns_against_cofactor_expansion():
    # the written-out n = 4 and n = 5 kernels against the cofactor vector,
    # on rows with entries up to 10^6, zero rows and dependent rows; the
    # n = 5 oracle takes about six times as long per case, so it gets fewer
    rng = random.Random(83)
    for n, cases in ((4, 20_000), (5, 2_000)):
        for _ in range(cases):
            span = rng.choice((9, 1_000, 10 ** 6))
            rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n - 1)]
            kind = rng.random()
            if kind < 0.1:
                rows[rng.randrange(n - 1)] = [0] * n
            elif kind < 0.3:
                k = rng.randrange(n - 1)
                others = [r for i, r in enumerate(rows) if i != k]
                coeffs = [rng.randint(-3, 3) for _ in others]
                rows[k] = [sum(c * x for c, x in zip(coeffs, col))
                           for col in zip(*others)]
            rows = [tuple(r) for r in rows]
            w = _minor_normal(rows, n)
            assert w == minor_normal_oracle(rows), rows
            if kind < 0.3:
                assert not any(w)


def test_int_det_against_cofactor_expansion():
    rng = random.Random(41)
    for n in range(5):
        for _ in range(40):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n >= 2 and rng.random() < 0.4:
                # singular: the last row a combination of the others
                coeffs = [rng.randint(-3, 3) for _ in rows[:-1]]
                rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows))
                            for j in range(n)]
                assert _int_det(rows) == 0
            det = _int_det(rows)
            assert type(det) is int and det == cofactor_det(rows)
    # a zero column stays zero under the row operations, so no pivot is
    # found in it and the elimination stops there
    for n in range(4, 7):
        for k in range(n):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for r in rows:
                r[k] = 0
            assert _int_det(rows) == cofactor_det(rows) == 0, rows


def test_hull_against_subset_scan_oracle():
    seen_dims = set()
    for pts, p in _random_polytopes(43):
        assert p.dim == affine_rank(pts)
        seen_dims.add((p.rank, p.dim))
        if p.dim < p.rank:
            continue
        verts, facets = hull_oracle_any(pts)
        assert list(p.vertices) == verts
        assert [(h.normal, h.offset) for h in p.halfspaces] == facets
    assert {(r, d) for r, d, _ in SHAPES} <= seen_dims


def test_from_halfspaces_matches_from_vertices():
    rng = random.Random(47)
    for pts, p in _random_polytopes(47):
        hs = list(p.halfspaces)
        h = rng.choice(hs)
        # a duplicate with a non-primitive normal, and a loosened copy
        extra = [HalfSpace(tuple(2 * x for x in h.normal), 2 * h.offset),
                 HalfSpace(h.normal, h.offset - F(1, rng.randint(1, 9)))]
        if p.dim == p.rank >= 2:
            # supporting at a vertex, tight on less than a facet
            v = rng.choice(p.vertices)
            through = [g.normal for g in hs
                       if sum(a * b for a, b in zip(v, g.normal)) == g.offset]
            n = tuple(a + b for a, b in zip(through[0], through[1]))
            extra.append(HalfSpace.make(n, sum(a * b for a, b in zip(v, n))))
        rng.shuffle(extra)
        q = ExactPolytope.from_halfspaces(hs + extra + hs[:1], p.rank)
        assert _structure(q) == _structure(p)
        assert _structure(ExactPolytope.from_halfspaces(hs, p.rank)) == _structure(p)


def test_support_value_against_point_scan():
    rng = random.Random(53)
    for pts, p in _random_polytopes(53):
        for _ in range(6):
            # small integer directions make ties on edges and facets common
            xi = tuple(F(rng.randint(-2, 2), rng.choice([1, 1, 2, 9]))
                       for _ in range(p.rank))
            for mode in ("min", "max"):
                val, vtx = support_value(p, xi, mode)
                assert type(val) is F
                assert (val, vtx) == support_oracle(pts, xi, mode)
                assert vtx in p.vertices


def test_lattice_points_against_fraction_scan():
    # small numerators keep the oracle's bounding boxes small in rank 4; the
    # copy moved to the origin puts lattice points on lower-dimensional ones
    found = 0
    for pts, p in _random_polytopes(59, span=2):
        for q in (p, p.translate(tuple(-x for x in pts[0]))):
            got = lattice_points(q)
            assert got == lattice_oracle(
                q.vertices, [(h.normal, h.offset) for h in q.halfspaces])
            assert all(type(x) is int for pt in got for x in pt)
            found += len(got)
    assert found > 100


def _cube(rank):
    return [tuple(x) for x in itertools.product((-1, 1), repeat=rank)]


# full-dimensional polytopes with faces that are not simplices
SQUARE_PYRAMID = [(x, y, 0) for x in (-1, 1) for y in (-1, 1)] + [(F(1, 3), F(1, 2), 2)]
NON_SIMPLICIAL = [
    _cube(3),
    [tuple(F(3, 2) * x + t for x, t in zip(v, (F(1, 2), F(-1, 3), 2)))
     for v in _cube(3)],
    [(x, y, z) for x, y in ((0, 0), (1, 0), (0, 1)) for z in (0, 2)],
    SQUARE_PYRAMID,
    _cube(4),
    # the prism over the square pyramid, whose facets include the prism
    # over its square base
    [v + (z,) for v in SQUARE_PYRAMID for z in (0, F(3, 2))],
    # the bipyramid over the 3-cube: each edge of a square base of a facet
    # is cut by two other facets, so it must be taken once
    [v + (0,) for v in _cube(3)] + [(0, 0, 0, 1), (0, 0, 0, -1)],
]
# a hexagon and a square in the plane, each mapped into ranks 3 and 4
PLANAR = [[(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
          [(0, 0), (2, 0), (0, 2), (2, 2)]]


def _affine_map(cols, b):
    """y -> A y + b, with the columns of A given."""
    def image(y):
        return tuple(bi + sum((t * c[i] for t, c in zip(y, cols)), F(0))
                     for i, bi in enumerate(b))
    return image


def _planar_maps():
    """(pts, image, p) for each planar polygon mapped into ranks 3 and 4 by
    an injective y -> A y + b, as in the affine equivariance test."""
    rng = random.Random(73)
    for pts in PLANAR:
        for rank in (3, 4):
            while True:
                cols = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)]
                        for _ in range(2)]
                if affine_rank([(0,) * rank] + cols) == 2:
                    break
            image = _affine_map(cols, rand_rational_points(rng, rank, 1)[0])
            yield pts, image, ExactPolytope.from_vertices([image(y) for y in pts])


def test_volume_centroid_against_barycentric_subdivision():
    for pts, p in _random_polytopes(61, per_shape=2):
        if p.dim < p.rank or p.rank == 1:
            continue
        assert (volume(p), centroid(p)) == volume_centroid_oracle(pts)
    # rank 1, where the subdivision is the two halves of the segment
    seg = ExactPolytope.from_vertices([(F(-7, 3),), (F(5, 9),), (F(1, 2),)])
    assert (volume(seg), centroid(seg)) == volume_centroid_oracle(
        [(F(-7, 3),), (F(5, 9),)])
    # faces that are not simplices, where the triangulation recurses
    for pts in NON_SIMPLICIAL:
        p = ExactPolytope.from_vertices(pts)
        assert p.dim == p.rank
        assert (volume(p), centroid(p)) == volume_centroid_oracle(pts)
    for pts, image, p in _planar_maps():
        assert p.dim == 2
        assert centroid(p) == image(volume_centroid_oracle(pts)[1])


def test_centroid_and_volume_hull_nothing(models, rank3_models, monkeypatch):
    # the triangulation reads every face off the vertex-facet incidence, so
    # no face is hulled again; the counter is live, as a constructor shows
    polys = [q for model in [*_all_fixtures(models).values(), *rank3_models.values()]
             for q in model.summands]
    polys += [ExactPolytope.from_vertices(pts) for pts in NON_SIMPLICIAL]
    polys += [p for _, _, p in _planar_maps()]
    calls = []
    hull = ckstab.geometry._hull

    def counted(pts, rank):
        calls.append(rank)
        return hull(pts, rank)

    monkeypatch.setattr(ckstab.geometry, "_hull", counted)
    for p in polys:
        centroid(p)
        if p.dim == p.rank or p.dim <= 1:
            volume(p)
        assert calls == [], p
    ExactPolytope.from_vertices(NON_SIMPLICIAL[0])
    assert calls


def _pair(a, b):
    return sum((F(x) * F(y) for x, y in zip(a, b)), F(0))


def test_lower_dimensional_hull_is_affine_equivariant():
    # a full-dimensional Q in R^d, mapped into R^rank by an injective
    # y -> A y + b: the image's vertices, facets and centroid are the
    # oracle's for Q, carried through the map
    rng = random.Random(71)
    tested = 0
    for rank in (2, 3, 4):
        for d in range(1, rank):
            for _ in range(6):
                pts = rand_rational_points(rng, d, d + 3)
                cols = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)]
                        for _ in range(d)]
                if affine_rank(pts) < d or affine_rank([(0,) * rank] + cols) < d:
                    continue
                b = rand_rational_points(rng, rank, 1)[0]
                image = _affine_map(cols, b)
                p = ExactPolytope.from_vertices([image(y) for y in pts])
                verts, facets = hull_oracle_any(pts)
                assert p.dim == d
                assert list(p.vertices) == sorted(image(v) for v in verts)
                assert centroid(p) == image(volume_centroid_oracle(pts)[1])
                hs = {(h.normal, h.offset) for h in p.halfspaces}
                eqs = {(n, c) for n, c in hs if (tuple(-x for x in n), -c) in hs}
                assert len(eqs) == 2 * (rank - d)
                for n, c in eqs:
                    assert all(_pair(v, n) == c for v in p.vertices)
                # <A y + b, n> >= c is <y, A^T n> >= c - <b, n> on Q
                back = {HalfSpace.make([_pair(col, n) for col in cols], c - _pair(b, n))
                        for n, c in hs - eqs}
                assert sorted((h.normal, h.offset) for h in back) == facets
                tested += 1
    assert tested >= 30


def test_lower_dimensional_halfspaces_pinned():
    # every facet normal is zero off the pivot columns of the vertex
    # differences; one equality pair per other column
    b = (F(1, 2), F(-1), F(1, 3))
    square = [tuple(x + s * u + t * w for x, u, w in zip(b, (1, 2, 2), (2, 1, -2)))
              for s in (0, 1) for t in (0, 1)]
    p = ExactPolytope.from_vertices(square)
    assert p.dim == 2
    assert [(h.normal, h.offset) for h in p.halfspaces] == [
        ((-2, 1, 0), F(-5)), ((-2, 2, -1), F(-10, 3)), ((-1, 2, 0), F(-5, 2)),
        ((1, -2, 0), F(-1, 2)), ((2, -2, 1), F(10, 3)), ((2, -1, 0), F(2))]
    assert centroid(p) == (F(2), F(1, 2), F(1, 3))
    triangle = ExactPolytope.from_vertices(
        [(1, 0, 2, -1), (0, F(1, 2), 1, 1), (2, -1, 0, F(1, 3))])
    assert triangle.dim == 2
    assert [(h.normal, h.offset) for h in triangle.halfspaces] == [
        ((-16, -20, 0, -3), F(-13)), ((-4, -6, 1, 0), F(-2)), ((-1, -2, 0, 0), F(-1)),
        ((-1, -1, 0, 0), F(-1)), ((3, 4, 0, 0), F(2)), ((4, 6, -1, 0), F(2)),
        ((16, 20, 0, 3), F(13))]
    assert centroid(triangle) == (F(1), F(-1, 6), F(1), F(1, 9))


def _assert_int_table(p):
    assert type(p.den) is int and p.den > 0
    assert p.den == math.lcm(*(F(x).denominator for v in p.vertices for x in v))
    assert len(p.nums) == len(p.vertices)
    for n, v in zip(p.nums, p.vertices):
        assert all(type(x) is int for x in n)
        assert tuple(F(x, p.den) for x in n) == v
    # the stored incidence is the Fraction scan, aligned with both orders
    assert type(p.incidence) is tuple
    assert all(type(t) is frozenset for t in p.incidence)
    assert list(p.incidence) == incidence_oracle(
        p.vertices, [(h.normal, h.offset) for h in p.halfspaces])


def test_every_polytope_carries_its_int_vertex_table():
    rng = random.Random(67)
    for pts, p in _random_polytopes(67, per_shape=1):
        _assert_int_table(p)
        _assert_int_table(p.translate(rand_rational_points(rng, p.rank, 1)[0]))
        _assert_int_table(p.scale(F(rng.randint(1, 9), rng.randint(1, 9))))
        _assert_int_table(ExactPolytope.from_vertices(pts[:1]))
        _assert_int_table(ExactPolytope.from_halfspaces(list(p.halfspaces),
                                                        p.rank))
        if p.rank <= 3:
            q = ExactPolytope.from_vertices(rand_rational_points(rng, p.rank, 3))
            _assert_int_table(minkowski_sum([p, q]))
    _assert_int_table(ExactPolytope.from_vertices([(0, 0), (2, 2)]))


def _rank_criterion_facets(vertices, rows, rank):
    """The facets of the full-dimensional polytope with these vertices cut
    out by (normal, offset) rows, by the rank test the incidence replaced:
    a row is a facet when its tight vertices span an affine space of
    dimension rank - 1."""
    facets = set()
    for a, c in rows:
        face = [v for v in vertices if _pair(v, a) == c]
        if len(face) >= rank and affine_rank(face) == rank - 1:
            h = HalfSpace.make(a, c)
            facets.add((h.normal, h.offset))
    return sorted(facets)


def test_from_rows_facets_match_the_rank_criterion():
    # redundant rows tight only at a vertex, on an edge or on a larger face,
    # a facet row scaled by 2 and a loosened one; the facets kept are those
    # of the rank test, and the incidence is the Fraction scan's
    rng = random.Random(89)
    tested = 0
    for pts, p in _random_polytopes(89, per_shape=2):
        if p.dim < p.rank or p.rank == 1:
            continue
        hs = [(h.normal, h.offset) for h in p.halfspaces]
        inc = incidence_oracle(p.vertices, hs)
        rows = list(hs)
        for _ in range(3):
            # the normals of the facets common to two vertices sum to a
            # normal that supports their least face, at most a facet
            i, j = rng.sample(range(len(p.vertices)), 2)
            for ks in (inc[i], inc[i] & inc[j]):
                n = tuple(map(sum, zip(*(hs[k][0] for k in ks))))
                if any(n):
                    rows.append((n, _pair(p.vertices[i], n)))
        a, c = rng.choice(hs)
        rows += [(tuple(2 * x for x in a), 2 * c), (a, c - F(1, rng.randint(1, 9)))]
        rng.shuffle(rows)
        q = ExactPolytope.from_halfspaces([HalfSpace(a, c) for a, c in rows],
                                          p.rank)
        assert q.vertices == p.vertices
        got = [(h.normal, h.offset) for h in q.halfspaces]
        assert got == _rank_criterion_facets(q.vertices, rows, p.rank) == hs
        assert list(q.incidence) == inc
        tested += 1
    assert tested == 6


def _clip_cuts(p, rng):
    """(kind, a, c, d) cuts { x : <x, a> >= c / d } of p: through a vertex,
    along an edge (a orthogonal to it), on a facet (either side), below the
    minimum, above the maximum and between two vertex levels."""
    rank = p.rank

    def direction():
        while True:
            a = tuple(rng.randint(-3, 3) for _ in range(rank))
            if any(a):
                return a

    def level(a, n):
        return sum(map(operator_mul, a, n)), p.den

    a = direction()
    vals = sorted({sum(map(operator_mul, a, n)) for n in p.nums})
    cuts = [("vertex", a, *level(a, rng.choice(p.nums))),
            ("below", a, vals[0] * 3 - 1, p.den * 3),
            ("above", a, vals[-1] * 2 + 1, p.den * 2)]
    if len(vals) > 1:
        cuts.append(("between", a, vals[0] + vals[1], 2 * p.den))
    for i, row in enumerate(_edge_table(p)):
        for e, j in row[:1]:
            # a normal orthogonal to the edge direction e
            b = direction()
            b = tuple(x * sum(y * y for y in e) - sum(map(operator_mul, b, e)) * y
                      for x, y in zip(b, e))
            if any(b):
                cuts.append(("edge", b, *level(b, p.nums[i])))
    f, c = rng.choice(p.facets)
    cuts += [("facet", f, c, p.den), ("facet", tuple(-x for x in f), -c, p.den)]
    return cuts


def test_clipped_region_matches_from_rows():
    # the clip of a polytope by one half-space is the polytope that
    # _from_rows solves from its facet rows and the cut, structurally, in
    # ranks 1 to 4 and on points and segments; an empty cut raises as there
    rng = random.Random(97)
    polys = [p for _, p in _random_polytopes(97, per_shape=2, span=6)]
    polys += [ExactPolytope.from_vertices(rand_rational_points(rng, r, 1))
              for r in (2, 3, 4)]
    polys.append(ExactPolytope.from_vertices(rand_rational_points(rng, 4, 2, 1)))
    kinds, shapes = collections.Counter(), set()
    for p in polys:
        for kind, a, c, d in _clip_cuts(p, rng):
            den = math.lcm(p.den, d)
            rows = [(f, k * (den // p.den)) for f, k in p.facets]
            rows.append((a, c * (den // d)))
            try:
                want = ExactPolytope._from_rows(den, rows, p.rank)
            except EmptyRegion:
                with pytest.raises(EmptyRegion):
                    ckstab.geometry._clip(p, a, c, d)
                kinds["empty"] += 1
                continue
            got = ckstab.geometry._clip(p, a, c, d)
            assert ((got.den, got.nums, got.facets, got.incidence, got.dim, got.rank)
                    == (want.den, want.nums, want.facets, want.incidence, want.dim,
                        want.rank)), (p.vertices, kind, a, c, d)
            kinds[kind] += 1
            shapes.add((p.rank, p.dim))
    assert kinds == {"empty": 24, "vertex": 24, "below": 24, "between": 18,
                     "edge": 71, "facet": 48}
    # every rank, with its points and segments
    assert {(r, d) for r in (1, 2, 3, 4) for d in (0, 1) if d < r} <= shapes
