"""Polytope kernel tests: frozen examples plus oracle comparisons.

The rank-2 oracles here (monotone-chain hull, shoelace area and centroid)
are deliberately different algorithms from the kernel's subset enumeration,
so agreement is a real cross-check.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ckstab.geometry import (Cone, DegenerateInput, DimensionMismatch,
                             EmptyRegion, ExactPolytope, HalfSpace,
                             UnboundedRegion, centroid, cone_from_facets,
                             dual_description, lattice_points, minkowski_sum,
                             min_support_function, support_value, volume)


from oracles import hull_oracle, rand_point, shoelace_area, shoelace_centroid


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
    with pytest.raises(DegenerateInput):
        volume(diag, ambient=True)


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


def test_support_rank_mismatch():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    with pytest.raises(DimensionMismatch):
        support_value(t, (1,), "min")


# --- lattice points and support cells ---------------------------------------

def test_lattice_points_triangle():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    assert len(lattice_points(t)) == 10


def test_min_support_function_matches_vertex_scan():
    q = ExactPolytope.from_vertices([(-1, 2), (2, -1), (-1, 0), (0, -1)])
    f = min_support_function(q)
    rng = random.Random(23)
    for _ in range(50):
        eta = (F(rng.randint(-6, 6), rng.choice([1, 2])),
               F(rng.randint(-6, 6), rng.choice([1, 2])))
        assert f(eta) == support_value(q, eta, "min")[0]


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
        back = cone_from_facets(cone.facets, 3)
        assert back.generators == cone.generators
        assert back.facets == cone.facets
