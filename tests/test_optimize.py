"""Ratio program tests: examples with frozen values, and a vertex-scan
oracle."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ckstab.errors import InternalInvariantError
from ckstab.geometry import (ExactPolytope, centroid, normal_fan,
                             support_value, vdot)
from ckstab.optimize import minimize_pl_ratio


_QUAD = ExactPolytope.from_vertices([(-1, 2), (2, -1), (-1, 0), (0, -1)])


def _fan_values(p, num, den):
    """(ray, num(ray), den(ray)) at the sorted rays of the normal fan of p."""
    rays = sorted({g for cone, _ in normal_fan(p) for g in cone.generators})
    return [(g, num(g), den(g)) for g in rays]


def _bl1p2_values():
    # A = -min <., .> over the quadrilateral and S = <b, .> - min
    b = centroid(_QUAD)
    return _fan_values(_QUAD, lambda g: -support_value(_QUAD, g, "min")[0],
                       lambda g: vdot(b, g) - support_value(_QUAD, g, "min")[0])


def test_ratio_symmetric_data_is_one():
    t = ExactPolytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])

    def minus(g):
        return -support_value(t, g, "min")[0]

    res = minimize_pl_ratio(_fan_values(t, minus, minus))
    assert res.value == 1 and res.witness == (-1, -1)


def test_ratio_destabilized_quadrilateral():
    res = minimize_pl_ratio(_bl1p2_values())
    assert res.value == F(6, 7) and res.witness == (1, 1)


def test_ratio_zero_numerator():
    res = minimize_pl_ratio(_fan_values(
        _QUAD, lambda g: F(0), lambda g: -support_value(_QUAD, g, "min")[0]))
    assert res.value == 0


def test_ratio_scaling_invariance():
    # both functions are evaluated by vertex scan, apart from the candidates
    b = centroid(_QUAD)

    def num(eta):
        return -support_value(_QUAD, eta, "min")[0]

    def den(eta):
        return vdot(b, eta) - support_value(_QUAD, eta, "min")[0]

    res = minimize_pl_ratio(_bl1p2_values())
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


def test_ties_keep_the_least_ray_in_any_order():
    values = [((0, 1), F(2), F(4)), ((1, 0), F(1), F(2)), ((-1, 0), F(3), F(6))]
    for order in (values, values[::-1], values[1:] + values[:1]):
        res = minimize_pl_ratio(order)
        assert res.value == F(1, 2) and res.witness == (-1, 0)


def test_zero_denominator_rays_are_left_out_and_negative_ones_raise():
    # the denominator <(0, 1), .> is zero along (1, 0) and (-1, 0), which
    # constrain nothing, and negative along (0, -1)
    values = [((-1, 0), F(1), F(0)), ((0, 1), F(1), F(1)), ((1, 0), F(1), F(0))]
    res = minimize_pl_ratio(values)
    assert res.value == 1 and res.witness == (0, 1)
    assert minimize_pl_ratio(values[2:]).value is None
    assert minimize_pl_ratio([]).value is None
    with pytest.raises(InternalInvariantError,
                       match=r"^denominator negative along ray \(0, -1\)$"):
        minimize_pl_ratio(values + [((0, -1), F(1), F(-1))])


def test_integer_pairs_give_the_fraction_result():
    # the same rays as int (numerator, denominator) pairs, scaled by
    # different positive factors, and mixed with Fractions: the same value,
    # ties and errors, and one Fraction built for the value
    rng = random.Random(13)
    for values in (_bl1p2_values(), _fan_values(
            _QUAD, lambda g: F(0), lambda g: -support_value(_QUAD, g, "min")[0])):
        want = minimize_pl_ratio(values)
        for _ in range(20):
            pairs = []
            for g, num, den in values:
                k = rng.randint(1, 9) * num.denominator * den.denominator
                pairs.append((g, int(num * k), int(den * k)) if rng.random() < 0.7
                             else (g, num, den))
            got = minimize_pl_ratio(pairs)
            assert got == want and type(got.value) is F
    ties = [((0, 1), 2, 4), ((1, 0), 1, 2), ((-1, 0), F(3), 6)]
    for order in (ties, ties[::-1], ties[1:] + ties[:1]):
        assert minimize_pl_ratio(order) == (F(1, 2), (-1, 0))
    with pytest.raises(InternalInvariantError,
                       match=r"^denominator negative along ray \(0, -1\)$"):
        minimize_pl_ratio(ties + [((0, -1), 1, -1)])
