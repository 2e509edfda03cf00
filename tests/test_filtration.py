"""Filtration engine tests: the operation examples with frozen tables, and
the structural identities on sampled inputs."""

from __future__ import annotations

import collections
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction as F
from importlib import resources

import pytest

from conftest import FIXTURE_NAMES
from oracles import (check_multiplicative, descriptor_base_change_oracle,
                     descriptor_shift_oracle, descriptor_sum_oracle,
                     descriptor_twist_oracle, ding_descriptor_oracle,
                     is_shifted_trivial, mean_slope_decay_constant,
                     table_approximate, table_base_change, table_round,
                     table_shift, table_slopes, table_sum, table_twist,
                     valuation_oracle, valuation_table)

import ckstab

from ckstab.cli import resolve_model_path
from ckstab.filtration import (EmptyDecomposition, Filtration,
                               FiltrationError, FiltrationFamily, GradedBasis,
                               GridMismatch, MissingCharacter,
                               NotIntegerValued, UnboundedWeights,
                               ValuationDescriptor, _base_change_descriptor,
                               _integer_valued, _shift_descriptor,
                               _sum_descriptor, _twist_descriptor,
                               approximate, base_change, construct,
                               family_degree_grid, graded_basis, numerics,
                               round_weights, shift, sum_filtration,
                               trivial_family, twist, twist_family,
                               valuation_family, valuation_filtration)
from ckstab.geometry import ExactPolytope
from ckstab.serialize import load_model
from ckstab.stability import coupled_ding, ding_of_descriptors, identity_suite
from ckstab.toric import (TOTAL, RankMismatch, build_model, s_invariant,
                          theta_twist)


def _trivial(basis):
    """The trivial filtration: the valuation table at eta = 0."""
    return valuation_filtration(basis, (0,) * basis.model.rank)


def rand_frac(rng, span=3):
    den = rng.choice([1, 2, 3, 4])
    return F(rng.randint(-span * den, span * den), den)


# --- construction ---------------------------------------------------------

@pytest.mark.parametrize("name", ["p2_steps", "bl1p2_hsplit", "p1_skew"])
def test_zero_direction_is_the_trivial_table(models, name):
    # every weight 0 over den 1, with the zero direction and shift as its
    # descriptor, on each summand and the total basis
    model = models[name]
    for i in [*range(model.num_summands), TOTAL]:
        f = _trivial(graded_basis(model, i, m_max=4))
        assert f.den == 1
        assert f.nums == {m: (0,) * len(f.basis.characters(m))
                          for m in f.basis.degrees}
        d = f.descriptor
        assert (type(d), d.den, d.nums, d.shift) == (
            ValuationDescriptor, 1, (0,) * model.rank, 0)


def test_trivial_weights(p1_skew):
    f = _trivial(graded_basis(p1_skew, 0, m_max=3))
    assert all(w == 0 for row in f.weights.values() for w in row.values())


def test_weight_view_is_a_mapping_of_the_stored_degrees(p2_steps):
    f = valuation_filtration(graded_basis(p2_steps, 0, m_max=4), (1, -2))
    view = f.weights
    assert len(view) == len(f.basis.degrees) == len(list(view))
    assert dict(view) == {m: dict(zip(f.basis.characters(m),
                                      (F(n, f.den) for n in f.nums[m])))
                          for m in f.basis.degrees}


def test_valuation_weights_unit_interval(p1_skew):
    f = valuation_filtration(graded_basis(p1_skew, 0, m_max=2), (1,))
    assert f.weights[2] == {(-0 - 0,): 0, (1,): 1, (2,): 2} or \
        f.weights[2] == {(0,): F(0), (1,): F(1), (2,): F(2)}


def test_table_requires_all_characters(p1_skew):
    basis = graded_basis(p1_skew, 0, m_max=1)
    with pytest.raises(MissingCharacter):
        construct(basis, {1: {(0,): F(1)}})


def test_infinite_weight_rejected(p1_skew):
    basis = graded_basis(p1_skew, 0, m_max=1)
    with pytest.raises(UnboundedWeights):
        construct(basis, {1: {(0,): None, (1,): F(0)}})


# --- shift / twist / round / base change -----------------------------------

def test_shift_trivial(p1_skew):
    f = shift(_trivial(graded_basis(p1_skew, 0, m_max=3)), 1)
    assert all(w == m for m, row in f.weights.items() for w in row.values())


def test_shift_composition(p1_skew):
    basis = graded_basis(p1_skew, 0, m_max=3)
    f = valuation_filtration(basis, (1,))
    assert shift(shift(f, F(1, 2)), F(1, 3)).table_equal(shift(f, F(5, 6)))


def test_shift_of_valuation(p1_skew):
    f = valuation_filtration(graded_basis(p1_skew, 0, m_max=2), (1,))
    g = shift(f, F(-1, 2))
    assert g.weights[2][(1,)] == 0


def test_twist_trivial(p1_skew):
    f = twist(_trivial(graded_basis(p1_skew, 0, m_max=1)), (2,))
    assert f.weights[1] == {(0,): F(0), (1,): F(2)}


def test_twist_inverse(p1_skew):
    f = valuation_filtration(graded_basis(p1_skew, 0, m_max=3), (2,))
    assert twist(twist(f, (3,)), (-3,)).table_equal(f)


def test_twist_of_valuation_is_shifted_valuation(models):
    rng = random.Random(53)
    for model in models.values():
        grid = family_degree_grid(model, 4)
        for i in range(model.num_summands):
            basis = graded_basis(model, i, m_max=4, step=grid[0])
            eta = tuple(rand_frac(rng, 2) for _ in range(model.rank))
            xi = tuple(rand_frac(rng, 2) for _ in range(model.rank))
            lhs = twist(valuation_filtration(basis, eta), xi)
            th = theta_twist(model, i, eta, xi)
            rhs = shift(valuation_filtration(
                basis, tuple(a + b for a, b in zip(eta, xi))), -th)
            assert lhs.table_equal(rhs)


def test_round_weights():
    # frozen example: {3/2, 2} -> {1, 2}, and idempotence
    from ckstab.serialize import load_model
    from ckstab.cli import resolve_model_path
    model = load_model(resolve_model_path("p1_skew.json"))
    basis = graded_basis(model, 0, m_max=1)
    f = construct(basis, {1: {(0,): F(3, 2), (1,): F(2)}})
    r = round_weights(f)
    assert r.weights[1] == {(0,): F(1), (1,): F(2)}
    assert round_weights(r).table_equal(r)


def test_base_change_scales_weights(p1_skew):
    basis = graded_basis(p1_skew, 0, m_max=3)
    f = valuation_filtration(basis, (1,))
    g = base_change(f, 3)
    assert all(g.weights[m][a] == 3 * f.weights[m][a]
               for m in f.weights for a in f.weights[m])
    n_f, n_g = numerics(f), numerics(g)
    assert all(n_g.s_by_degree[m] == 3 * n_f.s_by_degree[m] for m in n_f.s_by_degree)
    assert all(n_g.t_by_degree[m] == 3 * n_f.t_by_degree[m] for m in n_f.t_by_degree)


def test_base_change_needs_integers(p1_skew):
    basis = graded_basis(p1_skew, 0, m_max=2)
    f = construct(basis, {m: {a: F(1, 2) for a in basis.characters(m)}
                          for m in basis.degrees})
    with pytest.raises(NotIntegerValued):
        base_change(f, 2)
    base_change(round_weights(f), 2)


def test_base_change_commutes_with_integral_twist(bl1p2):
    grid = family_degree_grid(bl1p2, 4)
    basis = graded_basis(bl1p2, 0, m_max=4, step=grid[0])
    f = valuation_filtration(basis, (1, -1))
    lhs = twist(base_change(f, 2), (2, 4))
    rhs = base_change(twist(f, (1, 2)), 2)
    assert lhs.table_equal(rhs)


# --- sums -------------------------------------------------------------------

def test_sum_of_common_valuations_is_total_valuation(p1, p1_skew):
    for model in (p1, p1_skew):
        fam = valuation_family(model, (1,), m_max=4)
        total = sum_filtration(fam)
        expected = valuation_filtration(
            graded_basis(model, TOTAL, m_max=4,
                         step=fam.degrees[0]).restrict(fam.degrees), (1,))
        assert total.table_equal(expected)


def test_sum_weight_at_top_character(p1_skew):
    fam = valuation_family(p1_skew, (1,), m_max=2)
    total = sum_filtration(fam)
    assert total.weights[1][(1,)] == 2


def test_sum_of_trivials_is_trivial(p2):
    total = sum_filtration(trivial_family(p2, m_max=3))
    flag, c = is_shifted_trivial(total)
    assert flag and c == 0


def test_sum_of_shifts(p2_steps):
    rng = random.Random(59)
    fam = valuation_family(p2_steps, (1, -1), m_max=3)
    cs = [rand_frac(rng) for _ in fam.members]
    lhs = sum_filtration(FiltrationFamily(p2_steps, tuple(
        shift(f, c) for f, c in zip(fam.members, cs))))
    rhs = shift(sum_filtration(fam), sum(cs))
    assert lhs.table_equal(rhs)


def test_sum_twist_commutes(bl1p2):
    fam = valuation_family(bl1p2, (2, -1), m_max=4)
    xi = (F(1, 2), F(-3, 2))
    lhs = sum_filtration(twist_family(fam, xi))
    rhs = twist(sum_filtration(fam), xi)
    assert lhs.table_equal(rhs)


def test_shifted_trivial_detection(p1):
    fam = trivial_family(p1, m_max=4)
    shifted = FiltrationFamily(p1, tuple(
        shift(f, c) for f, c in zip(fam.members, (F(3, 2), F(1)))))
    flag, c = is_shifted_trivial(sum_filtration(shifted))
    assert flag and c == F(5, 2)
    flag, _ = is_shifted_trivial(
        valuation_filtration(graded_basis(p1, 0, m_max=4), (1,)))
    assert not flag


def test_family_grid_mismatch(p1):
    a = valuation_filtration(graded_basis(p1, 0, m_max=4), (1,))
    b = valuation_filtration(graded_basis(p1, 1, m_max=2), (1,))
    with pytest.raises(GridMismatch):
        FiltrationFamily(p1, (a, b))


# --- approximation -----------------------------------------------------------

def test_approximation_fixes_base_degree(bl1p2):
    basis = graded_basis(bl1p2, TOTAL, m_max=4)
    rng = random.Random(61)
    table = {m: {a: rand_frac(rng) for a in basis.characters(m)}
             for m in basis.degrees}
    f = construct(basis, table)
    ap = approximate(f, 1)
    assert ap.weights[1] == f.weights[1]
    # generated filtration sits below the original on every degree it defines
    mult_ok = all(ap.weights[m][a] >= f.weights[m][a]
                  for m in ap.weights for a in ap.weights[m])
    # random tables need not be multiplicative, so only degree one is pinned
    assert set(ap.weights) == {1, 2, 3, 4}
    del mult_ok


def test_approximation_of_valuation_is_itself(p2_steps):
    f = valuation_filtration(graded_basis(p2_steps, TOTAL, m_max=4), (1, 2))
    assert approximate(f, 1).table_equal(f)
    f0 = valuation_filtration(graded_basis(p2_steps, 0, m_max=4), (-1, 1))
    assert approximate(f0, 2).table_equal(
        valuation_filtration(graded_basis(p2_steps, 0, m_max=4,
                                          step=2), (-1, 1)))


def test_approximation_of_trivial(p1):
    f = _trivial(graded_basis(p1, TOTAL, m_max=4))
    ap = approximate(f, 2)
    flag, c = is_shifted_trivial(ap)
    assert flag and c == 0


def test_approximation_grid_error(p1):
    f = _trivial(graded_basis(p1, TOTAL, m_max=4))
    with pytest.raises(GridMismatch):
        approximate(f, 5)


# --- numerics ----------------------------------------------------------------

def test_numerics_valuation_p1_skew(p1_skew):
    f = valuation_filtration(graded_basis(p1_skew, 0, m_max=6), (1,))
    n = numerics(f)
    assert all(v == F(1, 2) for v in n.s_by_degree.values())
    assert n.s_value == F(1, 2) and n.lambda_max == 1 and n.j_value == F(1, 2)


def test_numerics_trivial(p2):
    n = numerics(_trivial(graded_basis(p2, TOTAL, m_max=4)))
    assert n.s_value == 0 and n.lambda_max == 0 and n.j_value == 0
    assert all(v == 0 for v in n.t_by_degree.values())


def test_numerics_twisted_trivial_matches_polytope(bl1p2):
    from ckstab.geometry import support_value
    xi = (2, -1)
    f = twist(_trivial(graded_basis(bl1p2, TOTAL, m_max=6)), xi)
    n = numerics(f)
    top = support_value(bl1p2.anticanonical, xi, "max")[0]
    bary = sum(b * x for b, x in zip(bl1p2.barycenter(TOTAL), xi))
    assert n.lambda_max == top and n.s_value == bary
    assert n.j_value == top - bary
    # finite degrees approach the certified values
    assert all(n.t_by_degree[m] == top for m in n.t_by_degree)
    gaps = [abs(n.s_by_degree[m] - bary) for m in sorted(n.s_by_degree)]
    assert gaps[-1] <= gaps[0]


def test_numerics_table_has_no_certified_limits(p1):
    basis = graded_basis(p1, 0, m_max=4)
    rng = random.Random(67)
    f = construct(basis, {m: {a: rand_frac(rng) for a in basis.characters(m)}
                          for m in basis.degrees})
    n = numerics(f)
    assert n.s_value is None and n.lambda_max is None
    assert n.provenance == "finite-degree-estimate"


def test_rounding_mean_slope_bound(models):
    rng = random.Random(71)
    for model in models.values():
        grid = family_degree_grid(model, 4)
        basis = graded_basis(model, 0, m_max=4, step=grid[0])
        for _ in range(5):
            f = construct(basis, {m: {a: rand_frac(rng)
                                      for a in basis.characters(m)}
                                  for m in basis.degrees})
            xi = tuple(rand_frac(rng, 2) for _ in range(model.rank))
            s_f = numerics(twist(f, xi)).s_by_degree
            s_r = numerics(twist(round_weights(f), xi)).s_by_degree
            for m in grid:
                assert abs(s_f[m] - s_r[m]) <= F(1, m)


def test_approximation_contained_in_multiplicative_source(bl1p2):
    # floor of a valuation filtration is multiplicative, so its
    # approximations must sit below it and agree at the base degree
    import random
    rng = random.Random(97)
    basis = graded_basis(bl1p2, TOTAL, m_max=4)
    f = round_weights(shift(valuation_filtration(basis, (F(3, 2), F(-1))),
                            F(2)))
    assert check_multiplicative(f, 200, rng) > 0
    ap = approximate(f, 1)
    assert ap.weights[1] == f.weights[1]
    for m in ap.weights:
        for a, w in ap.weights[m].items():
            assert w <= f.weights[m][a]


def test_multiplicativity_check_flags_bad_tables(p1_skew):
    import random
    from ckstab.filtration import FiltrationError
    basis = graded_basis(p1_skew, 0, m_max=2)
    bad = construct(basis, {1: {(0,): F(5), (1,): F(5)},
                            2: {(0,): F(0), (1,): F(0), (2,): F(0)}})
    with pytest.raises(FiltrationError):
        check_multiplicative(bad, 100, random.Random(1))


def test_twist_rank_error(p1_skew):
    from ckstab.toric import RankMismatch
    f = _trivial(graded_basis(p1_skew, 0, m_max=2))
    with pytest.raises(RankMismatch):
        twist(f, (1, 0))


def test_valuation_mean_slope_decay(models):
    # |S_m - S| <= c/m for valuation filtrations on the total ring, with
    # the same boundary-layer constant used by the acceptance suite
    rng = random.Random(101)
    for name in ("p2_steps", "bl1p2_halves"):
        model = models[name]
        basis = graded_basis(model, TOTAL, m_max=8, step=1)
        c_model = mean_slope_decay_constant(model)
        for _ in range(5):
            eta = tuple(rand_frac(rng, 3) for _ in range(model.rank))
            f = valuation_filtration(basis, eta)
            n = numerics(f)
            c = c_model * sum(abs(x) for x in eta)
            for m in basis.degrees:
                assert abs(n.s_by_degree[m] - n.s_value) <= c / max(m, 1)


# --- the integer tables against plain-Fraction oracles ----------------------

def mixed_frac(rng, span=3):
    den = rng.choice([1, 2, 3, 4, 5, 6, 7, 9])
    return F(rng.randint(-span * den, span * den), den)


def random_table(rng, basis, value=mixed_frac):
    return {m: {a: value(rng) for a in basis.characters(m)} for m in basis.degrees}


def assert_matches(f, table):
    """f holds exactly the table, read through weights and numerics."""
    assert {m: f.weights[m] for m in f.weights} == table
    n = numerics(f)
    assert (n.t_by_degree, n.s_by_degree) == table_slopes(table)


@pytest.mark.parametrize("name", ["p1_halves", "p2_steps", "bl1p2_halves"])
def test_operations_match_fraction_oracle(models, name):
    rng = random.Random(20260810)
    model = models[name]
    grid = family_degree_grid(model, 4)
    bases = [graded_basis(model, i, m_max=4, step=grid[0])
             for i in range(model.num_summands)]
    for _ in range(4):
        tables = [random_table(rng, b) for b in bases]
        fs = [construct(b, t) for b, t in zip(bases, tables)]
        for f, t in zip(fs, tables):
            assert_matches(f, t)
            c = mixed_frac(rng)
            xi = tuple(mixed_frac(rng, 2) for _ in range(model.rank))
            assert_matches(shift(f, c), table_shift(t, c))
            assert_matches(twist(f, xi), table_twist(t, xi))
            assert_matches(twist(shift(f, c), xi),
                           table_twist(table_shift(t, c), xi))
            assert_matches(round_weights(f), table_round(t))
            for m0 in grid:
                ap = approximate(f, m0)
                assert_matches(ap, table_approximate(t, m0))
                assert ap.descriptor is None
        total = sum_filtration(FiltrationFamily(model, tuple(fs)))
        expected = table_sum(tables)
        assert_matches(total, expected)
        assert total.descriptor is None
        for m in grid:
            assert total.row_max(m) == max(expected[m].values())
            assert total.row_min(m) == min(expected[m].values())
            assert total.mean_slope(m) == table_slopes(expected)[1][m]


def test_round_floors_negative_weights(p1_skew):
    basis = graded_basis(p1_skew, 0, m_max=1)
    f = construct(basis, {1: {(0,): F(-1, 2), (1,): F(-7, 3)}})
    assert round_weights(f).weights[1] == {(0,): F(-1), (1,): F(-3)}


def test_base_change_raises_exactly_on_fractions(models):
    rng = random.Random(41)
    model = models["p2_steps"]
    basis = graded_basis(model, 0, m_max=3)
    for trial in range(12):
        # every weight integral on even trials, so both outcomes occur
        table = random_table(rng, basis, lambda r: F(r.randint(-9, 9)))
        if trial % 2:
            m = rng.choice(basis.degrees)
            a = rng.choice(basis.characters(m))
            table[m][a] += F(rng.choice([-1, 1]), rng.choice([2, 3, 5]))
        # a half shift there and back leaves the table, over denominator 2
        f = shift(shift(construct(basis, table), F(1, 2)), F(-1, 2))
        e = rng.choice([2, 3])
        expected = table_base_change(table, e)
        if expected is None:
            with pytest.raises(NotIntegerValued):
                base_change(f, e)
        else:
            assert_matches(base_change(f, e), expected)


def test_approximate_keeps_only_regenerated_descriptors(models):
    rng = random.Random(5)
    for name in ("p2_halves", "p2_steps", "bl1p2_halves"):
        model = models[name]
        basis = graded_basis(model, TOTAL, m_max=4)
        eta = tuple(mixed_frac(rng, 2) for _ in range(model.rank))
        f = shift(valuation_filtration(basis, eta), mixed_frac(rng))
        table = {m: f.weights[m] for m in f.weights}
        m0 = basis.degrees[0]
        ap = approximate(f, m0)
        expected = table_approximate(table, m0)
        assert_matches(ap, expected)
        regenerated = all(expected[m] == table[m] for m in expected)
        assert regenerated and ap.descriptor == f.descriptor
        # the same table without its closed form keeps none
        opaque = construct(basis, table)
        assert approximate(opaque, m0).descriptor is None


def test_table_equal_compares_values(models):
    rng = random.Random(17)
    basis = graded_basis(models["p2_steps"], 0, m_max=3)
    table = random_table(rng, basis)
    f = construct(basis, table)
    # the same weights over a larger denominator
    assert shift(shift(f, F(1, 11)), F(-1, 11)).table_equal(f)
    m = basis.degrees[-1]
    a = basis.characters(m)[0]
    for bump in (F(1), F(1, 11)):
        table[m][a] += bump
        assert not construct(basis, table).table_equal(f)
        assert not f.table_equal(construct(basis, table))


def test_table_equal_reads_characters_not_positions(models):
    # the same table on a basis listing its characters in another order
    rng = random.Random(23)
    basis = graded_basis(models["p2_steps"], 0, m_max=3)
    flipped = GradedBasis(basis.model, basis.index, basis.degrees,
                          {m: basis.chars[m][::-1] for m in basis.degrees})
    table = random_table(rng, basis)
    f, g = construct(basis, table), construct(flipped, table)
    assert f.nums != g.nums
    assert f.table_equal(g) and g.table_equal(f)
    assert f.first_difference(g) is None
    m = basis.degrees[-1]
    a = basis.characters(m)[1]
    table[m][a] += F(1, 2)
    h = construct(flipped, table)
    assert not f.table_equal(h)
    assert f.first_difference(h) == (m, a, table[m][a] - F(1, 2), table[m][a])
    # a character one table lacks reads None on that side
    table[m][a] -= F(1, 2)
    short = GradedBasis(basis.model, basis.index, basis.degrees,
                        {d: basis.chars[d][:-1] if d == m else basis.chars[d]
                         for d in basis.degrees})
    e = construct(short, table)
    last = basis.characters(m)[-1]
    assert not f.table_equal(e)
    assert f.first_difference(e) == (m, last, table[m][last], None)


def integer_tables(f):
    # one int tuple per degree, aligned with the basis characters
    return (type(f.den) is int and f.den > 0
            and f.nums.keys() == f.basis.chars.keys()
            and all(type(row) is tuple and len(row) == len(f.basis.chars[m])
                    and all(type(n) is int for n in row)
                    for m, row in f.nums.items()))


@pytest.mark.parametrize("name", ["p2_halves", "bl1p2_halves"])
def test_tables_store_only_ints(models, name):
    rng = random.Random(3)
    model = models[name]
    grid = family_degree_grid(model, 4)
    basis = graded_basis(model, 0, m_max=4, step=grid[0])
    eta = (F(1, 2), F(-2, 3))
    val = valuation_filtration(basis, eta)
    made = [_trivial(basis), val,
            construct(basis, random_table(rng, basis)),
            shift(val, F(5, 7)), twist(val, (F(1, 3), 2)),
            round_weights(val), base_change(round_weights(val), 3),
            approximate(val, grid[0])]
    plain = valuation_family(model, eta, m_max=4)
    families = [plain,
                FiltrationFamily(model, tuple(
                    shift(f, c) for f, c in zip(plain.members, (F(1, 4), -1)))),
                trivial_family(model, m_max=4)]
    families.append(twist_family(families[0], (F(-1, 5), F(1, 2))))
    for fam in families:
        made.extend(fam.members)
        made.append(sum_filtration(fam))
    assert all(isinstance(f, Filtration) and integer_tables(f) for f in made)


# --- sums of three summands, and the plan memo -------------------------------

@pytest.fixture(scope="module")
def p2_thirds():
    # P^2 as three copies of a third of its polytope: every sum and every
    # three-fold power runs an intermediate stage
    third = ExactPolytope.from_vertices(
        [(F(-1, 3), F(-1, 3)), (F(2, 3), F(-1, 3)), (F(-1, 3), F(2, 3))])
    return build_model([[1, 0], [0, 1], [-1, -1]], [third] * 3, name="p2_thirds")


def test_three_summand_sums_match_fraction_oracle(p2_thirds):
    rng = random.Random(20261018)
    model = p2_thirds
    assert family_degree_grid(model, 6) == (3, 6)
    bases = [graded_basis(model, i, m_max=6, step=3) for i in range(3)]
    for _ in range(2):
        tables = [random_table(rng, b) for b in bases]
        fs = [construct(b, t) for b, t in zip(bases, tables)]
        total = sum_filtration(FiltrationFamily(model, tuple(fs)))
        expected = table_sum(tables)
        assert_matches(total, expected)
        assert_matches(approximate(total, 3), table_approximate(expected, 3))
    basis = graded_basis(model, 0, m_max=9, step=3)
    table = random_table(rng, basis)
    assert_matches(approximate(construct(basis, table), 3),
                   table_approximate(table, 3))
    # the closed form of a same-direction sum still holds on three summands
    eta = (F(1, 2), F(-1, 3))
    total = sum_filtration(valuation_family(model, eta, m_max=6))
    assert total.table_equal(valuation_filtration(
        graded_basis(model, TOTAL, m_max=6, step=3), eta))


def test_one_summand_sum_is_its_member(p2):
    # the whole polytope as its only summand: the sum lays the member's
    # rows out on the total basis
    whole = build_model(p2.rays, [p2.anticanonical], name="p2_whole")
    basis = graded_basis(whole, 0, m_max=3)
    table = random_table(random.Random(5), basis)
    total = sum_filtration(FiltrationFamily(whole, (construct(basis, table),)))
    assert total.basis.index == TOTAL
    assert_matches(total, table)


def without(basis, m, alpha):
    """A hand-built copy of the basis lacking one character."""
    return GradedBasis(basis.model, basis.index, basis.degrees,
                       {d: tuple(a for a in basis.chars[d] if (d, a) != (m, alpha))
                        for d in basis.degrees})


def test_plans_follow_the_characters_not_the_summand(p2):
    # plans for the canonical bases are cached first; a basis lacking the
    # vertex (2, -1) of the degree-2 piece must not reuse them: (4, -2) is
    # only (2, -1) twice, and (3, -2) only (2, -1) + (1, -1)
    fam = valuation_family(p2, (F(1, 2), F(1, 3)), m_max=4)
    sum_filtration(fam)
    approximate(fam.members[0], 2)
    assert p2.plans
    basis = fam.members[0].basis
    short = without(basis, 2, (2, -1))
    f = valuation_filtration(short, (F(1, 2), F(1, 3)))
    with pytest.raises(EmptyDecomposition,
                       match=r"^character \(4, -2\) at degree 2 admits no decomposition$"):
        sum_filtration(FiltrationFamily(p2, (f, fam.members[1])))
    with pytest.raises(EmptyDecomposition,
                       match=r"^character \(3, -2\) at degree 4 admits no s-fold decomposition$"):
        approximate(f, 2)
    # nor may a basis listing the same characters in another order
    flipped = GradedBasis(p2, 0, basis.degrees,
                          {d: basis.chars[d][::-1] for d in basis.degrees})
    g = valuation_filtration(flipped, (F(1, 2), F(1, 3)))
    assert sum_filtration(FiltrationFamily(p2, (g, fam.members[1]))).table_equal(
        sum_filtration(fam))
    assert approximate(g, 2).table_equal(approximate(fam.members[0], 2))


def test_powers_keep_sums_outside_the_target_basis(models):
    # (6, -3) at degree 6 is only (2, -1) three times, through (4, -2) at
    # degree 4, which the hand-built basis lacks
    rng = random.Random(31)
    model = models["p2_halves"]
    short = without(graded_basis(model, 0, m_max=6, step=2), 4, (4, -2))
    table = random_table(rng, short)
    expected = {m: {a: w for a, w in row.items() if a in short.chars[m]}
                for m, row in table_approximate(table, 2).items()}
    ap = approximate(construct(short, table), 2)
    assert_matches(ap, expected)
    assert ap.weights[6][(6, -3)] == 3 * table[2][(2, -1)]


def test_memos_let_a_model_go_without_the_cycle_collector():
    # neither memo refers back to the model, so a model is freed as soon as
    # its caller lets go, with its bases and plans
    gc.disable()
    try:
        model = load_model(resolve_model_path("p1_halves.json"))
        identity_suite(model, samples=2, seed=0)
        assert model.bases and model.plans
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


def test_bases_share_one_tuple_per_degree():
    # a degree stored under two caps is enumerated once
    model = load_model(resolve_model_path("p2_steps.json"))
    assert (graded_basis(model, 0, m_max=1).chars[1]
            is graded_basis(model, 0, m_max=4).chars[1])
    identity_suite(model, samples=5, seed=0)
    assert set(model.bases) == {(i, m) for i in (0, 1, TOTAL)
                                for m in range(1, 5)}


def test_second_suite_run_adds_no_plans():
    model = load_model(resolve_model_path("p1_halves.json"))
    identity_suite(model, samples=5, seed=0)
    sizes = len(model.bases), len(model.plans), len(model.totals)
    assert sizes[2] == 1    # every sum in the suite is on its one grid
    identity_suite(model, samples=5, seed=1)
    assert (len(model.bases), len(model.plans), len(model.totals)) == sizes


def test_sums_build_no_basis_once_a_grid_is_seen(p2_steps, monkeypatch):
    # the total basis of a grid is kept on the model: a later sum on that
    # grid neither looks up its degrees again nor restricts a basis
    fam = valuation_family(p2_steps, (F(1, 2), F(-1, 3)), m_max=3)
    first = sum_filtration(fam)
    assert first.basis.degrees == (1, 2, 3)
    assert first.basis.chars == graded_basis(p2_steps, TOTAL, m_max=3).chars
    calls = []
    for fn in ("graded_basis", "_stored"):
        def counted(*args, _fn=getattr(ckstab.filtration, fn), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ckstab.filtration, fn, counted)
    monkeypatch.setattr(GradedBasis, "restrict", None)
    again = sum_filtration(twist_family(fam, (1, 0)))
    assert calls == []
    assert again.basis.chars is first.basis.chars
    assert again.basis.cols is first.basis.cols
    # a grid that is no run of multiples of its first degree is refused,
    # as the restriction of the total basis refused it
    odd = GradedBasis(p2_steps, 0, (2, 3), {m: fam.members[0].basis.chars[m]
                                            for m in (2, 3)})
    other = GradedBasis(p2_steps, 1, (2, 3), {m: fam.members[1].basis.chars[m]
                                              for m in (2, 3)})
    with pytest.raises(GridMismatch,
                       match="^restriction outside the stored grid$"):
        sum_filtration(FiltrationFamily(p2_steps, (
            _trivial(odd), _trivial(other))))


# --- valuation tables and twists against per-character Fraction tables ------

@pytest.fixture(scope="module")
def p1_fourth():
    # (P^1)^4 with its 4-cube as the one summand: rank 4, with 81
    # characters at degree 1
    cube = ExactPolytope.from_vertices(list(itertools.product((-1, 1), repeat=4)))
    rays = [[s * (j == k) for j in range(4)] for k in range(4) for s in (1, -1)]
    return build_model(rays, [cube], name="p1to4")


def pairing_draw(rng):
    # zero and unit coordinates come up often, and so do other fractions
    r = rng.random()
    if r < 0.3:
        return F(0)
    if r < 0.6:
        return F(rng.choice((1, -1)))
    den = rng.randint(1, 6)
    return F(rng.randint(-3 * den, 3 * den), den)


@pytest.mark.parametrize("name, m_max", [
    ("p1_halves", 6), ("p1_thirds", 6), ("p1_skew", 3),
    ("p3_halves", 2), ("p1cubed", 2), ("p1to4", 1)])
def test_pairing_tables_match_fraction_oracle(models, rank3_models, p1_fourth,
                                              name, m_max):
    # valuation tables and twists on the bases of every summand and the
    # total ring, on a hand-built basis with its characters reversed or
    # one short, and on a restriction, against tables built one character
    # at a time in Fractions
    model = {**models, **rank3_models, "p1to4": p1_fourth}[name]
    rng = random.Random(sum(map(ord, name)))
    rank = model.rank
    step = family_degree_grid(model, m_max)[0]
    pairs = [((F(0),) * rank, (F(1),) * rank), ((F(-1),) * rank, (F(0),) * rank),
             (tuple(pairing_draw(rng) for _ in range(rank)),
              tuple(pairing_draw(rng) for _ in range(rank)))]
    for i in (*range(model.num_summands), TOTAL):
        # the total ring's bases are the largest: its first degree only
        basis = graded_basis(model, i, m_max=m_max if i != TOTAL else step,
                             step=step)
        m = basis.degrees[-1]
        flipped = GradedBasis(model, i, basis.degrees,
                              {d: row[::-1] for d, row in basis.chars.items()})
        short = GradedBasis(model, i, basis.degrees,
                            {d: row[1:] if d == m else row
                             for d, row in basis.chars.items()})
        restricted = basis.restrict(basis.degrees[1:] or basis.degrees)
        assert all(restricted.cols[d] is basis.cols[d]
                   for d in restricted.degrees)
        for b in (basis, flipped, short, restricted):
            assert b.cols == {d: tuple(zip(*row)) for d, row in b.chars.items()}
            for eta, xi in pairs:
                f = valuation_filtration(b, eta)
                table = valuation_table(b, eta)
                assert dict(f.weights) == table
                assert dict(twist(f, xi).weights) == table_twist(table, xi)
            # an opaque table, over a denominator the twist must scale
            table = {d: {a: w + F(1, 7) for a, w in row.items()}
                     for d, row in table.items()}
            assert dict(twist(construct(b, table), xi).weights) == \
                table_twist(table, xi)


def test_identity_suite_in_rank_three(rank3_models):
    rep = identity_suite(rank3_models["p3_halves"], samples=3, seed=0)
    assert rep.failed == 0
    assert rep.passed == sum(rep.cases.values()) > 0


# --- integer descriptors against the Fraction descriptor steps ---------------

def desc_of(f):
    d = f.descriptor
    assert all(type(x) is F for x in d.eta) and type(d.shift) is F
    return d.eta, d.shift


def twelfths(rng, span=2):
    # denominators up to 12, with zero entries drawn on purpose
    if rng.random() < 0.2:
        return F(0)
    den = rng.randint(1, 12)
    return F(rng.randint(-span * den, span * den), den)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["p1cubed", "p3_halves",
                                                  "p3_quarters"])
def test_descriptor_steps_match_fraction_oracle(models, rank3_models, name):
    model = {**models, **rank3_models}[name]
    rng = random.Random(sum(map(ord, name)))
    rank, k = model.rank, model.num_summands
    step = family_degree_grid(model, 12)[0]

    def vec(draw=twelfths):
        return tuple(draw(rng) for _ in range(rank))

    def ints(rng):
        return F(rng.randint(-3, 3))

    for _ in range(3):
        eta, xi, cs = vec(), vec(), [twelfths(rng, 3) for _ in range(k)]
        fam = valuation_family(model, eta, m_max=step)
        shifted, twisted = [], []
        for i, f in enumerate(fam.members):
            want = valuation_oracle(eta)
            assert desc_of(f) == want
            g = shift(f, cs[i])
            want = descriptor_shift_oracle(want, cs[i])
            assert desc_of(g) == want
            h = twist(g, xi)
            moved = descriptor_twist_oracle(model, i, want, xi)
            assert desc_of(h) == moved
            back = twist(h, tuple(-x for x in xi))
            assert desc_of(back) == descriptor_twist_oracle(
                model, i, moved, tuple(-x for x in xi)) == want
            shifted.append(g)
            twisted.append(h)
        for members in (shifted, twisted):
            total = sum_filtration(FiltrationFamily(model, tuple(members)))
            assert desc_of(total) == descriptor_sum_oracle(
                [desc_of(g) for g in members])
        mixed = FiltrationFamily(model, tuple(
            valuation_filtration(f.basis, vec()) for f in fam.members))
        want = descriptor_sum_oracle([desc_of(f) for f in mixed.members])
        d = sum_filtration(mixed).descriptor
        got = ((d.eta, d.shift) if isinstance(d, ValuationDescriptor)
               else tuple((p.eta, p.shift) for p in d.parts))
        assert got == want
        # the closed forms read from the descriptors, probe included
        parts = [desc_of(g) for g in shifted]
        res = coupled_ding(FiltrationFamily(model, tuple(shifted)))
        assert (res.value, res.mu, res.s_values, res.provenance,
                res.probe_value) == ding_descriptor_oracle(model, parts, 1)
        # base change keeps integer tables: integer eta, shifts and twists
        int_eta, int_xi = vec(ints), vec(ints)
        e = rng.choice([2, 3])
        for i in range(k):
            f = valuation_filtration(fam.members[i].basis, int_eta)
            c = F(rng.randint(-3, 3))
            for g, want in (
                    (shift(f, c), descriptor_shift_oracle(valuation_oracle(int_eta), c)),
                    (twist(f, int_xi), descriptor_twist_oracle(
                        model, i, valuation_oracle(int_eta), int_xi))):
                assert desc_of(base_change(g, e)) == \
                    descriptor_base_change_oracle(want, e)


def test_descriptors_are_normalized(p2, bl1p2):
    half = ValuationDescriptor((F(2, 4), 1))
    assert half == ValuationDescriptor((F(1, 2), 1))
    assert hash(half) == hash(ValuationDescriptor((F(1, 2), 1)))
    assert (half.den, half.nums) == (2, (1, 2))
    with pytest.raises(AttributeError):
        half.den = 4
    assert ValuationDescriptor((1, -2), 3) == ValuationDescriptor(
        (F(1), F(-2)), F(3))
    assert hash(ValuationDescriptor((1, -2), 3)) == hash(
        ValuationDescriptor((F(1), F(-2)), F(3)))
    assert ValuationDescriptor((F(1, 2), 1)) != ValuationDescriptor((F(1, 2), 1),
                                                                    F(1, 2))
    assert repr(ValuationDescriptor((1, F(1, 2)), F(-1, 3))) == (
        "ValuationDescriptor(eta=(Fraction(1, 1), Fraction(1, 2)), "
        "shift=Fraction(-1, 3))")
    # a member twisted away and back, over a larger denominator, still
    # shares its direction with the others, so the sum keeps one direction
    for model in (p2, bl1p2):
        eta, xi = (F(1, 2), F(1)), (F(1, 3), F(-1, 6))
        fam = valuation_family(model, eta, m_max=family_degree_grid(model, 2)[0])
        first = twist(twist(fam.members[0], xi), tuple(-x for x in xi))
        assert first.descriptor == fam.members[0].descriptor
        assert hash(first.descriptor) == hash(fam.members[0].descriptor)
        total = sum_filtration(FiltrationFamily(
            model, (first,) + fam.members[1:]))
        assert isinstance(total.descriptor, ValuationDescriptor)
        assert total.descriptor == ValuationDescriptor(eta)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["p1cubed", "p3_halves",
                                                  "p3_quarters"])
def test_descriptor_steps_rescale_no_direction(models, rank3_models, name,
                                               monkeypatch):
    # the descriptors hold their direction as integers, so neither the Ding
    # closed form nor a twist scales a direction again; the counter is
    # live, as the public invariant shows
    model = {**models, **rank3_models}[name]
    fam = valuation_family(model, (F(1, 2),) + (F(-1, 3),) * (model.rank - 1),
                           m_max=family_degree_grid(model, 12)[0])
    parts = [f.descriptor for f in fam.members]
    calls = []
    for module in (ckstab.geometry, ckstab.toric, ckstab.filtration,
                   ckstab.stability):
        for fn in ("_int_directions", "_scaled"):
            if hasattr(module, fn):
                def counted(*args, _fn=getattr(module, fn), _name=fn):
                    calls.append(_name)
                    return _fn(*args)
                monkeypatch.setattr(module, fn, counted)
    for delta in (F(1, 2), 1, 3):
        ding_of_descriptors(model, parts, delta)
    for f in fam.members:
        twist(f, (F(1, 4),) * model.rank)
    assert calls == [], name
    s_invariant(model, 0, parts[0].eta)
    assert calls


# --- descriptors derived on first read ---------------------------------------

ALL_FIXTURES = sorted(
    f.name[:-len(".json")] for f in (resources.files("ckstab") / "fixtures").iterdir()
    if f.name.endswith(".json"))


def eager_step(kind, f, d, arg):
    """The descriptor a step on f, whose descriptor is d, gives when it is
    computed at once: the rules each step applied before descriptors were
    deferred."""
    model, i = f.basis.model, f.basis.index
    if kind == "shift":
        return _shift_descriptor(model, i, d, F(arg))
    if kind == "twist":
        den = math.lcm(f.den, *(x.denominator for x in arg))
        return _twist_descriptor(model, i, d, den,
                                 tuple(x.numerator * (den // x.denominator)
                                       for x in arg))
    if kind == "base_change":
        return _base_change_descriptor(model, i, d, arg)
    valuation = isinstance(d, ValuationDescriptor)
    if kind == "round":
        integer = all(n % f.den == 0 for row in f.nums.values() for n in row)
        return d if valuation and integer else None
    # approximate: kept only where the degree-arg powers regenerate f
    ap = approximate(f, arg)
    return d if valuation and all(ap.nums[m] == f.nums[m]
                                  for m in ap.basis.degrees) else None


def apply_step(kind, f, arg):
    return {"shift": shift, "twist": twist, "base_change": base_change,
            "round": lambda g, _: round_weights(g),
            "approximate": approximate}[kind](f, arg)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_deferred_descriptors_equal_the_eager_ones(models, name):
    # seeded chains of every step on each member, then a sum and steps on
    # the sum, with the descriptors read at random points along the way, so
    # a step finds its parent's descriptor read or still pending; every
    # read equals the descriptor computed step by step at once, and a
    # second read is the same object.  Half the chains stay on integer
    # tables, where rounding and base change keep the closed form, and a
    # third start from distinct directions, whose sum has parts
    model = models.get(name) or load_model(resolve_model_path(name + ".json"))
    assert len(ALL_FIXTURES) == 11
    rng = random.Random(sum(map(ord, name)) + 5)
    rank, k = model.rank, model.num_summands
    grid = family_degree_grid(model, 4)
    kinds = ["shift", "twist", "twist", "base_change", "round", "approximate"]
    reads, checks = collections.Counter(), 0

    def vec(integral):
        if integral:
            return tuple(F(rng.randint(-2, 2)) for _ in range(rank))
        return tuple(twelfths(rng) for _ in range(rank))

    def arg(kind, integral):
        if kind == "shift":
            return F(rng.randint(-3, 3)) if integral else twelfths(rng, 3)
        if kind == "twist":
            return vec(integral)
        if kind == "base_change":
            return rng.choice([2, 3])
        return grid[0]

    def check(f, want, always=False):
        nonlocal checks
        checks += 1
        if always or rng.random() < 0.5:
            got = f.descriptor
            assert got == want, (name, got, want)
            assert f.descriptor is got
            reads[type(got).__name__] += 1

    for chain in range(6):
        integral, mixed = chain % 2 == 0, chain % 3 == 0 and k > 1
        etas = [vec(integral) for _ in range(k)] if mixed else [vec(integral)] * k
        members = [valuation_filtration(graded_basis(model, i, m_max=grid[-1],
                                                     step=grid[0]), etas[i])
                   for i in range(k)]
        wants = [f.descriptor for f in members]
        for _ in range(5):
            kind = rng.choice(kinds)
            shared = arg(kind, integral)
            args = [arg(kind, integral) if kind == "shift" else shared
                    for _ in range(k)]
            rough = [f for f in members if not _integer_valued(f)]
            if kind == "base_change" and rough:
                with pytest.raises(NotIntegerValued):
                    base_change(rough[0], shared)
                continue
            nxt = [apply_step(kind, f, a) for f, a in zip(members, args)]
            wants = [eager_step(kind, f, d, a)
                     for f, d, a in zip(members, wants, args)]
            members = nxt
            for f, want in zip(members, wants):
                check(f, want)
        total = sum_filtration(FiltrationFamily(model, tuple(members)))
        want = _sum_descriptor(wants)
        check(total, want, always=True)
        for kind in ("shift", "twist", "round"):
            a = arg(kind, integral)
            total, want = apply_step(kind, total, a), eager_step(kind, total, want, a)
            check(total, want)
        assert total.descriptor == want
    assert checks >= 70 and sum(reads.values()) >= 30, (checks, reads)
    assert reads["ValuationDescriptor"] and reads["NoneType"], reads
    assert reads["SumDescriptor"] or k == 1, reads


def test_deferred_sum_of_distinct_directions(p2_steps):
    # a sum of members on distinct directions reads as their parts, and a
    # shift of it moves the first part only
    a, b = ((F(1, 2), F(1, 3)), (F(-1, 2), F(1)))
    fam = FiltrationFamily(p2_steps, (
        valuation_filtration(graded_basis(p2_steps, 0, m_max=2), a),
        twist(valuation_filtration(graded_basis(p2_steps, 1, m_max=2), b),
              (F(1, 4), 0))))
    total = shift(sum_filtration(fam), F(2, 3))
    parts = total.descriptor.parts
    assert total.descriptor is total.descriptor
    assert parts == (ValuationDescriptor(a, F(2, 3)), fam.members[1].descriptor)


def test_numerics_of_a_sum_of_distinct_directions(p2_steps):
    # a sum on distinct directions certifies only its largest slope: the
    # sum of the members' largest slopes, each the spread of its summand's
    # vertex pairings with its direction plus its shift
    parts = [((F(1, 2), F(1, 3)), F(3, 4)), ((F(-1, 2), F(1)), F(-1, 5))]
    fam = FiltrationFamily(p2_steps, tuple(
        shift(valuation_filtration(graded_basis(p2_steps, i, m_max=2), eta), c)
        for i, (eta, c) in enumerate(parts)))
    n = numerics(sum_filtration(fam))
    lam = F(0)
    for i, (eta, c) in enumerate(parts):
        pairs = [sum(x * e for x, e in zip(v, eta))
                 for v in p2_steps.summand(i).vertices]
        lam += max(pairs) - min(pairs) + c
    assert (n.lambda_max, n.s_value, n.j_value, n.provenance) == (
        lam, None, None, "closed-form-lambda-only")


def test_an_unread_chain_holds_a_bounded_number_of_steps(models):
    # a long unread chain of steps keeps at most _MAX_PENDING of them
    # pending, reading the rest as it goes, and reads the descriptor the
    # steps give one at a time
    from ckstab.filtration import _MAX_PENDING, _Pending

    def pending(f):
        n, slot = 0, f._descriptor
        while isinstance(slot, _Pending):
            n, slot = n + 1, slot.parent
        return n

    rng = random.Random(7)
    for model in models.values():
        grid = family_degree_grid(model, 4)
        f = valuation_filtration(graded_basis(model, 0, m_max=grid[-1],
                                              step=grid[0]), (F(1, 2),) * model.rank)
        want, depths = f.descriptor, set()
        for n in range(5 * _MAX_PENDING):
            if n % 3:
                xi = tuple(twelfths(rng) for _ in range(model.rank))
                want = eager_step("twist", f, want, xi)
                f = twist(f, xi)
            else:
                c = twelfths(rng)
                want = eager_step("shift", f, want, c)
                f = shift(f, c)
            depths.add(pending(f))
        assert depths == set(range(1, _MAX_PENDING + 1)), model.name
        assert f.descriptor == want and pending(f) == 0


class WeakTable(dict):
    """A weight table that a weakref can watch."""


def test_a_pending_descriptor_keeps_no_table_alive(models):
    # a step's result holds only its parent's descriptor slot and the step's
    # own arguments: once the parent goes, its table is freed though the
    # child's descriptor is still pending, and the child reads the same
    # descriptor as a chain whose parent stayed alive
    gc.disable()
    try:
        cases = 0
        for model in models.values():
            grid = family_degree_grid(model, 4)
            eta, xi = (F(1, 2),) * model.rank, (F(1, 3),) * model.rank

            def watched(i):
                f = valuation_filtration(graded_basis(
                    model, i, m_max=grid[-1], step=grid[0]), eta)
                return Filtration(f.basis, WeakTable(f.nums), f.den,
                                  f.descriptor)

            steps = [lambda f: shift(f, F(1, 5)), lambda f: twist(f, xi),
                     round_weights, lambda f: approximate(f, grid[0]),
                     lambda f: base_change(round_weights(f), 2)]
            for step in steps:
                want = step(twist(watched(0), xi)).descriptor
                parent = watched(0)
                ref = weakref.ref(parent.nums)
                child = step(twist(parent, xi))
                del parent
                assert ref() is None, model.name
                assert child.descriptor == want
                cases += 1
            want = sum_filtration(twist_family(FiltrationFamily(model, tuple(
                watched(i) for i in range(model.num_summands))), xi)).descriptor
            members = [watched(i) for i in range(model.num_summands)]
            refs = [weakref.ref(f.nums) for f in members]
            total = sum_filtration(twist_family(FiltrationFamily(
                model, tuple(members)), xi))
            del members
            assert all(r() is None for r in refs), model.name
            assert isinstance(want, ValuationDescriptor)
            assert total.descriptor == want
            cases += 1
        assert cases == 6 * len(models)
    finally:
        gc.enable()


def test_step_checks_raise_at_the_step(models):
    # deferring a descriptor defers no input check: each still raises at the
    # step, with its message, on a table whose descriptor is still pending
    for model in models.values():
        grid = family_degree_grid(model, 4)
        f = valuation_filtration(graded_basis(model, 0, m_max=grid[-1],
                                              step=grid[0]), (F(1, 2),) * model.rank)
        pending = shift(twist(f, (F(1, 3),) * model.rank), F(1, 7))
        with pytest.raises(RankMismatch,
                           match="^twist rank differs from the torus rank$"):
            twist(pending, (1,) * (model.rank + 1))
        with pytest.raises(NotIntegerValued,
                           match="^round the filtration before base change$"):
            base_change(pending, 2)
        with pytest.raises(FiltrationError, match="^base change exponent must "
                                                  "be a positive integer$"):
            base_change(round_weights(pending), 0)
        with pytest.raises(GridMismatch, match=f"^degree {grid[-1] + 1} not stored$"):
            approximate(pending, grid[-1] + 1)
        with pytest.raises(ValueError):
            shift(pending, "one")
        if model.num_summands > 1:
            with pytest.raises(GridMismatch,
                               match="^family member bound to the wrong summand$"):
                FiltrationFamily(model, (pending,) * model.num_summands)
