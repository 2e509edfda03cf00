"""Ratio program tests: examples with frozen values, and a vertex-scan
oracle."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ckstab.errors import InternalInvariantError
from ckstab.geometry import (ExactPolytope, centroid, normal_fan,
                             support_value, vdot, vneg, vsub)
from ckstab.optimize import minimize_pl_ratio


_QUAD = ExactPolytope.from_vertices([(-1, 2), (2, -1), (-1, 0), (0, -1)])


def _bl1p2_cells():
    # on the normal cone of the vertex f: A = -<f, .> and S = <b - f, .>
    b = centroid(_QUAD)
    return [(cone.generators, vneg(f), vsub(b, f))
            for cone, f in normal_fan(_QUAD)]


def test_ratio_symmetric_data_is_one():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    cells = [(cone.generators, vneg(f), vneg(f)) for cone, f in normal_fan(t)]
    res = minimize_pl_ratio(cells)
    assert res.value == 1


def test_ratio_destabilized_quadrilateral():
    res = minimize_pl_ratio(_bl1p2_cells())
    assert res.value == F(6, 7) and res.witness == (1, 1)


def test_ratio_zero_numerator():
    cells = [(cone.generators, (F(0), F(0)), vneg(f))
             for cone, f in normal_fan(_QUAD)]
    res = minimize_pl_ratio(cells)
    assert res.value == 0


def test_cells_disagreeing_on_a_ray_are_an_internal_error():
    cells = _bl1p2_cells()
    rays, num, den = cells[0]
    cells[0] = (rays, tuple(x + 1 for x in num), den)
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



def test_zero_denominator_rays_are_left_out_and_negative_ones_raise():
    # the denominator <(0, 1), .> is zero along (1, 0) and (-1, 0), which
    # constrain nothing, and negative along (0, -1)
    num, den = (F(1), F(1)), (F(0), F(1))
    cells = [([(1, 0), (0, 1)], num, den), ([(-1, 0), (0, 1)], num, den)]
    res = minimize_pl_ratio(cells)
    assert res.value == 1 and res.witness == (0, 1)
    assert minimize_pl_ratio([([(1, 0)], num, den)]).value is None
    with pytest.raises(InternalInvariantError, match="negative"):
        minimize_pl_ratio(cells + [([(1, 0), (0, -1)], num, den)])
