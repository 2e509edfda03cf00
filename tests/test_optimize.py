"""Optimizer tests: examples with frozen values, and vertex-scan oracles for
small linear programs and for ratio programs."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ckstab.errors import InternalInvariantError
from ckstab.geometry import (ExactPolytope, centroid, normal_fan,
                             support_value, vdot, vneg, vsub)
from ckstab.optimize import (LinearProgram, PLTermSpec, Unbounded, lp_solve,
                             minimize_convex_pl, minimize_pl_ratio)


def test_lp_min_single_constraint():
    res = lp_solve(LinearProgram([1], [([1], ">=", 3)], 1), "min")
    assert res.status == "optimal" and res.value == 3


def test_lp_max_over_quadrilateral():
    cons = [((1, 0), ">=", -1), ((0, 1), ">=", -1),
            ((1, 1), "<=", 1), ((1, 1), ">=", -1)]
    res = lp_solve(LinearProgram([1, 1], list(cons), 2), "max")
    assert res.status == "optimal" and res.value == 1


def test_lp_infeasible():
    res = lp_solve(LinearProgram([0], [([1], "<=", -1), ([1], ">=", 0)], 1), "min")
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = lp_solve(LinearProgram([1], [([1], ">=", 0)], 1), "max")
    assert res.status == "unbounded"


def test_lp_equality_constraints():
    res = lp_solve(LinearProgram([1, 1],
                                 [((1, 1), "=", F(3, 2)), ((1, -1), "<=", 1),
                                  ((1, 0), ">=", 0)], 2), "min")
    assert res.status == "optimal" and res.value == F(3, 2)


def test_lp_agrees_with_vertex_scan():
    # random bounded polytopes: optimum must match the best vertex value
    rng = random.Random(3)
    for _ in range(30):
        pts = [(F(rng.randint(-4, 4), rng.choice([1, 2])),
                F(rng.randint(-4, 4), rng.choice([1, 2])))
               for _ in range(rng.randint(3, 7))]
        p = ExactPolytope.from_vertices(pts)
        if p.dim < 2 or len(p.halfspaces) > 8:
            continue
        cons = [(h.normal, ">=", h.offset) for h in p.halfspaces]
        obj = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
        for sense, mode in (("min", "min"), ("max", "max")):
            res = lp_solve(LinearProgram(obj, list(cons), 2), sense)
            assert res.status == "optimal"
            assert res.value == support_value(p, obj, mode)[0]


def test_convex_pl_zero_at_origin():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    term = PLTermSpec(t.vertices, centroid(t), (F(0), F(0)))
    value, xi = minimize_convex_pl([term], 2)
    assert value == 0 and xi == (0, 0)


def test_convex_pl_translation():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    term = PLTermSpec(t.vertices, centroid(t), (F(3), F(-2)))
    value, xi = minimize_convex_pl([term], 2)
    assert value == 0 and xi == (-3, 2)


def test_convex_pl_pinned_subspace():
    half = ExactPolytope.from_vertices([(F(-1, 2),), (F(1, 2),)])
    terms = [PLTermSpec(half.vertices, centroid(half), (F(1),))
             for _ in range(2)]
    value, xi = minimize_convex_pl(terms, 1, subspace=[])
    assert value == 1 and xi == (0,)


def test_convex_pl_unbounded():
    # offset outside the hull makes the objective a decreasing direction
    seg = ExactPolytope.from_vertices([(0,), (1,)])
    term = PLTermSpec(seg.vertices, (F(5),), (F(0),))
    with pytest.raises(Unbounded):
        minimize_convex_pl([term], 1)


_QUAD = ExactPolytope.from_vertices([(-1, 2), (2, -1), (-1, 0), (0, -1)])


def _bl1p2_cells():
    # on the normal cone of the vertex f: A = -<f, .> and S = <b - f, .>
    b = centroid(_QUAD)
    return [(cone, vneg(f), vsub(b, f)) for cone, f in normal_fan(_QUAD)]


def test_ratio_symmetric_data_is_one():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    cells = [(cone, vneg(f), vneg(f)) for cone, f in normal_fan(t)]
    res = minimize_pl_ratio(cells)
    assert res.value == 1


def test_ratio_destabilized_quadrilateral():
    res = minimize_pl_ratio(_bl1p2_cells())
    assert res.value == F(6, 7) and res.witness == (1, 1)


def test_ratio_zero_numerator():
    cells = [(cone, (F(0), F(0)), vneg(f)) for cone, f in normal_fan(_QUAD)]
    res = minimize_pl_ratio(cells)
    assert res.value == 0


def test_cells_disagreeing_on_a_ray_are_an_internal_error():
    cells = _bl1p2_cells()
    cone, num, den = cells[0]
    cells[0] = (cone, tuple(x + 1 for x in num), den)
    with pytest.raises(InternalInvariantError, match="disagree"):
        minimize_pl_ratio(cells)


def test_ratio_scaling_invariance():
    # both functions are evaluated by vertex scan, apart from the cells
    b = centroid(_QUAD)

    def num(eta):
        return -support_value(_QUAD, eta, "min")[0]

    def den(eta):
        return vdot(b, eta) - support_value(_QUAD, eta, "min")[0]

    res = minimize_pl_ratio(_bl1p2_cells())
    rng = random.Random(9)
    for _ in range(200):
        eta = (F(rng.randint(-9, 9), rng.choice([1, 2, 3])),
               F(rng.randint(-9, 9), rng.choice([1, 2, 3])))
        if eta == (0, 0):
            continue
        assert den(eta) > 0
        assert res.value <= num(eta) / den(eta)
        for e in (2, F(1, 3), F(7, 2)):
            scaled = tuple(e * x for x in eta)
            assert num(scaled) * den(eta) == num(eta) * den(scaled)
    # equality at the returned witness
    assert num(res.witness) == res.value * den(res.witness)


def test_lp_agrees_with_vertex_scan_rank3():
    from ckstab.geometry import ExactPolytope, support_value
    rng = random.Random(31)
    done = 0
    while done < 12:
        pts = [(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)),
                F(rng.randint(-3, 3))) for _ in range(rng.randint(4, 7))]
        p = ExactPolytope.from_vertices(pts)
        if p.dim < 3 or len(p.halfspaces) > 8:
            continue
        done += 1
        cons = [(h.normal, ">=", h.offset) for h in p.halfspaces]
        obj = [F(rng.randint(-3, 3)) for _ in range(3)]
        for sense, mode in (("min", "min"), ("max", "max")):
            res = lp_solve(LinearProgram(obj, list(cons), 3), sense)
            assert res.status == "optimal"
            assert res.value == support_value(p, obj, mode)[0]
