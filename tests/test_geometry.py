"""Polytope kernel tests: frozen examples plus oracle comparisons.

The rank-2 oracles here (monotone-chain hull, shoelace area and centroid)
are deliberately different algorithms from the kernel's subset enumeration,
so agreement is a real cross-check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from ckstab.geometry import (Cone, DimensionMismatch, EmptyRegion,
                             ExactPolytope, HalfSpace, UnboundedRegion,
                             _int_det, centroid, dual_description,
                             extreme_rays, lattice_points, minkowski_sum,
                             normal_fan, primitive_vector,
                             restrict_min_support, support_value, vdot, volume)


from oracles import (affine_rank, cofactor_det, hull_oracle, hull_oracle_any,
                     lattice_oracle, min_support_cells, rand_point,
                     rand_rational_points, shoelace_area, shoelace_centroid,
                     support_oracle, volume_centroid_oracle)


# --- dual description -------------------------------------------------------

def test_simplex_facets():
    p = dual_description(vertices=[(0, 0), (1, 0), (0, 1)])
    got = {(h.normal, h.offset) for h in p.halfspaces}
    assert got == {((1, 0), F(0)), ((0, 1), F(0)), ((-1, -1), F(-1))}


def test_halfspaces_to_vertices():
    hs = [HalfSpace.make((1, 0), -1), HalfSpace.make((0, 1), -1),
          HalfSpace.make((-1, -1), -1), HalfSpace.make((1, 1), -1)]
    p = dual_description(halfspaces=hs, rank=2)
    assert set(p.vertices) == {(F(-1), F(2)), (F(2), F(-1)),
                               (F(-1), F(0)), (F(0), F(-1))}


def test_empty_region():
    with pytest.raises(EmptyRegion):
        dual_description(halfspaces=[HalfSpace.make((1,), 0),
                                     HalfSpace.make((-1,), 1)], rank=1)
    # x >= 1, -x >= 0, y >= 0: a recession direction, but no point
    with pytest.raises(EmptyRegion, match="contradictory constraints"):
        dual_description(halfspaces=[HalfSpace.make((1, 0), 1),
                                     HalfSpace.make((-1, 0), 0),
                                     HalfSpace.make((0, 1), 0)], rank=2)


def test_unbounded_region():
    with pytest.raises(UnboundedRegion):
        dual_description(halfspaces=[HalfSpace.make((1,), 0)], rank=1)
    with pytest.raises(UnboundedRegion, match="feasible region is unbounded"):
        dual_description(halfspaces=[HalfSpace.make((1, 0), 0),
                                     HalfSpace.make((0, 1), 0)], rank=2)


def test_roundtrip_exact():
    rng = random.Random(5)
    for _ in range(40):
        pts = [rand_point(rng) for _ in range(rng.randint(3, 8))]
        p = ExactPolytope.from_vertices(pts)
        if p.dim < 2:
            continue
        back = dual_description(halfspaces=list(p.halfspaces), rank=2)
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
        back = dual_description(halfspaces=list(p.halfspaces), rank=3)
        assert back.vertices == p.vertices


def test_rank3_cone_roundtrip():
    rng = random.Random(31)
    for _ in range(30):
        # generators with a positive last coordinate span a pointed cone
        gens = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(3, 7))]
        cone = Cone.from_generators(gens)
        back = sorted({primitive_vector(r) for r in extreme_rays(cone.facets, 3)})
        assert tuple(back) == cone.generators


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
            cone = Cone.from_generators(gens)
            dim = rng.randint(0, rank)
            p = ExactPolytope.from_vertices(
                rand_rational_points(rng, rank, dim + 2, dim, 4))
            (cells,) = restrict_min_support([cone], p)
            assert cells
            winners = set()
            for rays in cells:
                assert rays == list(Cone.from_generators(rays).generators)
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
        return Cone.from_generators([(rng.choice([-1, 1]),)])
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank - 1))
                + (rng.randint(1, 3),) for _ in range(rng.randint(rank, 6))]
        if affine_rank([(0,) * rank] + gens) == rank:
            return Cone.from_generators(gens)


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
        assert _structure(dual_description(halfspaces=hs, rank=p.rank)) == _structure(p)


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


def test_volume_centroid_against_barycentric_subdivision():
    for pts, p in _random_polytopes(61, per_shape=2):
        if p.dim < p.rank or p.rank == 1:
            continue
        assert (volume(p), centroid(p)) == volume_centroid_oracle(pts)
    # rank 1, where the subdivision is the two halves of the segment
    seg = ExactPolytope.from_vertices([(F(-7, 3),), (F(5, 9),), (F(1, 2),)])
    assert (volume(seg), centroid(seg)) == volume_centroid_oracle(
        [(F(-7, 3),), (F(5, 9),)])


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

                def image(y):
                    return tuple(bi + sum((t * c[i] for t, c in zip(y, cols)), F(0))
                                 for i, bi in enumerate(b))

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


def test_every_polytope_carries_its_int_vertex_table():
    rng = random.Random(67)
    for pts, p in _random_polytopes(67, per_shape=1):
        _assert_int_table(p)
        _assert_int_table(p.translate(rand_rational_points(rng, p.rank, 1)[0]))
        _assert_int_table(p.scale(F(rng.randint(1, 9), rng.randint(1, 9))))
        _assert_int_table(ExactPolytope.from_vertices(pts[:1]))
        _assert_int_table(dual_description(halfspaces=list(p.halfspaces),
                                           rank=p.rank))
        if p.rank <= 3:
            q = ExactPolytope.from_vertices(rand_rational_points(rng, p.rank, 3))
            _assert_int_table(minkowski_sum([p, q]))
    _assert_int_table(ExactPolytope.from_vertices([(0, 0), (2, 2)]))
