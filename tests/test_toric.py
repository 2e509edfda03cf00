"""Toric model tests: construction validation, the support-value invariants,
and the monomial threshold oracle."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ckstab.geometry import ExactPolytope, support_value
from ckstab.toric import (TOTAL, DecompositionMismatch, MonomialIdealSeq,
                          NonIntegralScaling, NotReflexive, RankMismatch,
                          ZeroIdeal, build_model, integrality_step,
                          log_discrepancy, monomial_lct, s_invariant,
                          section_basis, support_min, t_invariant,
                          theta_twist, total_s_sum)


def rand_dir(rng, rank, span=6):
    while True:
        v = tuple(F(rng.randint(-span, span), rng.choice([1, 2, 3]))
                  for _ in range(rank))
        if any(x != 0 for x in v):
            return v


# --- construction ------------------------------------------------------------

def test_build_p1_halves(p1):
    assert p1.barycenters == ((F(0),), (F(0),))
    assert p1.anticanonical.vertices == ((F(-1),), (F(1),))


def test_build_bl1p2_halves(bl1p2):
    assert bl1p2.barycenters == (((F(1, 24), F(1, 24))), (F(1, 24), F(1, 24)))


def test_decomposition_mismatch():
    u = ExactPolytope.from_vertices([(0,), (1,)])
    with pytest.raises(DecompositionMismatch):
        build_model([[1], [-1]], [u, u])


def test_not_reflexive_nonlattice_dual():
    p = ExactPolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(NotReflexive):
        build_model([[1, 2], [2, 1], [-1, -1]], [p, p])


def test_nonprimitive_ray_rejected():
    p = ExactPolytope.from_vertices([(F(-1, 2),), (F(1, 2),)])
    with pytest.raises(NotReflexive):
        build_model([[2], [-1]], [p, p])


def test_rays_must_span():
    p = ExactPolytope.from_vertices([(0, 0), (1, 0)])
    with pytest.raises(RankMismatch):
        build_model([[1, 0], [-1, 0]], [p, p])


# --- log discrepancy ----------------------------------------------------------

def test_log_discrepancy_rays(p2, bl1p2):
    assert log_discrepancy(p2, (1, 0)) == 1
    assert log_discrepancy(bl1p2, (2, 2)) == 2
    assert log_discrepancy(p2, (0, 0)) == 0


def test_log_discrepancy_positive_and_homogeneous(models):
    rng = random.Random(31)
    for model in models.values():
        for _ in range(30):
            eta = rand_dir(rng, model.rank)
            a = log_discrepancy(model, eta)
            assert a > 0
            assert log_discrepancy(model, tuple(3 * x for x in eta)) == 3 * a
            # reflexive duality against the vertex scan
            assert a == -support_value(model.anticanonical, eta, "min")[0]


# --- slopes -------------------------------------------------------------------

def test_s_invariant_examples(p1, p2, bl1p2):
    assert s_invariant(p1, 0, (1,)) == F(1, 2)
    assert s_invariant(p2, TOTAL, (1, 0)) == 1
    assert s_invariant(bl1p2, TOTAL, (1, 1)) == F(7, 6)


def test_t_invariant_examples(p1, p2):
    assert t_invariant(p1, 0, (1,)) == 1
    assert t_invariant(p2, TOTAL, (1, 1)) == 3
    assert t_invariant(p2, TOTAL, (0, 0)) == 0


def test_theta_examples(p1):
    assert theta_twist(p1, TOTAL, (0,), (1,)) == 1
    assert theta_twist(p1, TOTAL, (2,), (-1,)) == -1
    assert theta_twist(p1, TOTAL, (2,), (0,)) == 0


def test_twist_identities_sampled(models):
    rng = random.Random(37)
    for model in models.values():
        k = model.num_summands
        for _ in range(25):
            eta, xi = rand_dir(rng, model.rank), rand_dir(rng, model.rank)
            eta_xi = tuple(a + b for a, b in zip(eta, xi))
            assert theta_twist(model, TOTAL, eta, xi) == sum(
                theta_twist(model, i, eta, xi) for i in range(k))
            for i in range(k):
                assert s_invariant(model, i, eta_xi) == (
                    s_invariant(model, i, eta)
                    + sum(b * x for b, x in zip(model.barycenters[i], xi))
                    + theta_twist(model, i, eta, xi))
            assert (log_discrepancy(model, eta_xi)
                    - log_discrepancy(model, eta)
                    == theta_twist(model, TOTAL, eta, xi))
            assert t_invariant(model, TOTAL, eta) >= s_invariant(model, TOTAL, eta) > 0


# --- section bases -------------------------------------------------------------

def test_section_basis_p1(p1):
    assert section_basis(p1, 0, 2) == [(-1,), (0,), (1,)]
    with pytest.raises(NonIntegralScaling):
        section_basis(p1, 0, 3)


def test_section_basis_p2_total(p2):
    assert len(section_basis(p2, TOTAL, 1)) == 10


def test_integrality_steps(p1, p2_steps):
    assert integrality_step(p1, 0) == 2
    assert integrality_step(p2_steps, 0) == 1
    assert integrality_step(p2_steps, TOTAL) == 1


# --- monomial thresholds --------------------------------------------------------

def test_lct_valuation_levels(p1):
    res = monomial_lct(p1, MonomialIdealSeq.valuation_levels((1,), 1))
    assert res.value == 1 and res.witness == (1,)
    res = monomial_lct(p1, MonomialIdealSeq.valuation_levels((1,), 2))
    assert res.value == F(1, 2)


def test_lct_unit_ideal(p1):
    res = monomial_lct(p1, MonomialIdealSeq.valuation_levels((1,), 0))
    assert res.value is None


def test_lct_zero_ideal(p1):
    with pytest.raises(ZeroIdeal):
        monomial_lct(p1, MonomialIdealSeq.valuation_levels((1,), 3))


def test_lct_scale(p1):
    res = monomial_lct(p1, MonomialIdealSeq.valuation_levels((1,), 1),
                       scale=F(1, 2))
    assert res.value == 2


def test_lct_explicit_generators(p2):
    # degree-1 generators at the two extreme characters of the full ring
    gens = {1: [((2, -1), F(1)), ((-1, 2), F(1))]}
    seq = MonomialIdealSeq.from_generators(gens, level=1)
    res = monomial_lct(p2, seq)
    assert res.value is not None and res.value > 0
    oracle = monomial_lct(p2, seq, oracle=True)
    assert oracle.value == res.value


def test_lct_closed_form_up_to_discrepancy(models):
    rng = random.Random(41)
    for model in models.values():
        for _ in range(8):
            eta = tuple(rng.randint(-2, 2) for _ in range(model.rank))
            if all(x == 0 for x in eta):
                continue
            a = log_discrepancy(model, eta)
            for num in (1, 2, 3, 4):
                level = F(num, 4) * a
                res = monomial_lct(
                    model, MonomialIdealSeq.valuation_levels(eta, level))
                assert res.value == a / level


def test_lct_dinkelbach_agreement(bl1p2):
    rng = random.Random(43)
    for _ in range(10):
        eta = tuple(rng.randint(-2, 2) for _ in range(2))
        if all(x == 0 for x in eta):
            continue
        t_max = t_invariant(bl1p2, TOTAL, eta)
        level = F(rng.randint(1, 4), 4) * t_max
        seq = MonomialIdealSeq.valuation_levels(eta, level)
        assert monomial_lct(bl1p2, seq).value == \
            monomial_lct(bl1p2, seq, oracle=True).value


def test_support_min_linear_on_cones(bl1p2):
    # the cached per-cone forms agree with the vertex scan everywhere
    rng = random.Random(47)
    for _ in range(40):
        eta = rand_dir(rng, 2)
        lam = support_min(bl1p2, TOTAL, eta)
        assert lam == support_value(bl1p2.anticanonical, eta, "min")[0]
        assert total_s_sum(bl1p2, eta) == (
            log_discrepancy(bl1p2, eta)
            + sum(b * x for b, x in zip(bl1p2.barycenter(TOTAL), eta)))


def test_dual_description_needs_exactly_one_side():
    from ckstab.geometry import GeometryError, dual_description
    with pytest.raises(GeometryError):
        dual_description()
    with pytest.raises(GeometryError):
        dual_description(vertices=[(0, 0)], halfspaces=[])
