"""Stability layer tests: invariant values on the fixture corpus, verdicts,
destabilizer search, the reduced threshold, and the identity suite."""

from __future__ import annotations

import collections
import itertools
import math
import random
from fractions import Fraction as F
from importlib import resources

import pytest

from oracles import (SUBTORI_2, ding_of_twist, ding_public_oracle,
                     ding_via_sums, dist2_to_affine, fan_cell_delta, mu_slope_scan,
                     inner_sup_candidates, inner_sup_oracle, matrix_rank,
                     ratio_oracle,
                     reduced_j_oracle,
                     reduced_j_slice_oracle, slice_cells_oracle,
                     twisted_profile_oracle)

import ckstab

from ckstab.errors import CkstabError, InternalInvariantError
from ckstab.filtration import (FiltrationFamily, GridMismatch,
                               SumDescriptor, UnsupportedDescriptor,
                               ValuationDescriptor, construct,
                               family_degree_grid, graded_basis,
                               round_weights, shift, trivial_family,
                               twist_family, valuation_family,
                               valuation_filtration)
from ckstab.geometry import (DimensionMismatch, ExactPolytope, HalfSpace,
                             _int_directions)
from ckstab.serialize import load_model
from ckstab.stability import (DegenerateSubtorus, DingResult, RankTooHigh,
                              StabilityError, SubtorusSpec, SuiteFailure,
                              _inner_sup_cells, _reduced_j_cells,
                              _slice_cells, coupled_delta,
                              coupled_ding, coupled_futaki,
                              ding_of_descriptors, find_destabilizer,
                              identity_suite, inner_twist_sup,
                              inradius_squared, j_twist, mu_slope,
                              reduced_coupled_delta, reduced_coupled_j,
                              semistable_verdict, twisted_ratio_profile)
from ckstab.toric import (TOTAL, ToricFanoModel, build_model, log_discrepancy,
                          theta_twist, total_s_sum)


# --- coupled Futaki -----------------------------------------------------------

def test_futaki_p1_splits(models):
    for name in ("p1_halves", "p1_skew", "p1_thirds"):
        fut = coupled_futaki(models[name])
        assert fut.total == (F(0),) and fut.vanishes


def test_futaki_bl1p2_halves(bl1p2):
    fut = coupled_futaki(bl1p2)
    assert fut.total == (F(1, 12), F(1, 12)) and not fut.vanishes


def test_futaki_bl1p2_hsplit(bl1p2_hsplit):
    fut = coupled_futaki(bl1p2_hsplit)
    assert fut.total == (F(1, 9), F(1, 9))


# --- J norms --------------------------------------------------------------------

def test_j_twist_values(p1):
    assert j_twist(p1, 0, (1,)) == F(1, 2)
    assert j_twist(p1, 0, (0,)) == 0
    assert j_twist(p1, TOTAL, (3,)) == 3


def test_j_twist_nonnegative(models):
    rng = random.Random(73)
    for model in models.values():
        for _ in range(20):
            xi = tuple(F(rng.randint(-6, 6), rng.choice([1, 2]))
                       for _ in range(model.rank))
            for i in list(range(model.num_summands)) + [TOTAL]:
                v = j_twist(model, i, xi)
                assert v >= 0
                if any(x != 0 for x in xi):
                    assert v > 0   # all fixture summands are full-dimensional


def test_reduced_j_cancellation(models):
    rng = random.Random(79)
    for model in models.values():
        xi0 = tuple(F(rng.randint(-4, 4), rng.choice([1, 2]))
                    for _ in range(model.rank))
        res = reduced_coupled_j(model, xi0)
        assert res.value == 0
        assert res.argmin == tuple(-x for x in xi0)


def test_reduced_j_trivial_subtorus(p1):
    res = reduced_coupled_j(p1, (F(1),), sub=SubtorusSpec.trivial())
    assert res.value == 1


def test_reduced_j_lower_bound(p1, p1xp1):
    # squared form of: value >= dist(barycenter, boundary) * dist(0, coset)
    for model, xi0 in ((p1, (F(1),)), (p1xp1, (F(2), F(-1)))):
        res = reduced_coupled_j(model, xi0, sub=SubtorusSpec.trivial())
        c1sq = inradius_squared(model.anticanonical,
                                model.barycenter(TOTAL))
        c2sq = dist2_to_affine(tuple(F(0) for _ in range(model.rank)), xi0)
        assert res.value * res.value >= c1sq * c2sq


def _subtori(rng, rank, dim, count):
    """Up to ``count`` distinct seeded saturated subtori of one dimension."""
    out = set()
    for _ in range(20 * count):
        basis = tuple(tuple(rng.randint(-2, 2) for _ in range(rank))
                      for _ in range(dim))
        try:
            out.add(SubtorusSpec(basis))
        except DegenerateSubtorus:
            continue
        if len(out) == count:
            break
    return sorted(out, key=lambda sub: sub.basis)


def test_reduced_j_agrees_with_the_vertex_pair_oracle(models):
    p3 = ExactPolytope.from_vertices([(-1, -1, -1), (3, -1, -1), (-1, 3, -1),
                                      (-1, -1, 3)])
    p3_split = build_model([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                           [p3.scale(F(1, 4)), p3.scale(F(3, 4))], name="p3_quarters")
    rng = random.Random(83)
    cases = 0
    for model in list(models.values()) + [p3_split]:
        for dim in range(model.rank + 1):
            for sub in _subtori(rng, model.rank, dim, 3):
                for _ in range(6):
                    xi0 = tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(model.rank))
                    res = reduced_coupled_j(model, xi0, sub=sub)
                    assert res.value == reduced_j_oracle(model, xi0, sub.basis)
                    assert matrix_rank([*sub.basis, res.argmin]) == sub.dim
                    at = tuple(x + y for x, y in zip(xi0, res.argmin))
                    assert sum(j_twist(model, i, at)
                               for i in range(model.num_summands)) == res.value
                    cases += 1
    assert cases == 324


# the benchmark's two-dimensional rank-3 subtori, and three lines
SUBTORI_3 = [((1, 0, 0),), ((1, 1, 1),), ((1, -1, 2),),
             ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1))]


def _positive_multiple(a, b) -> bool:
    j = next(i for i, x in enumerate(b) if x)
    r = F(a[j]) / b[j]
    return r > 0 and all(x == r * y for x, y in zip(a, b))


def test_slice_cells_match_the_cramer_oracle(models, rank3_models):
    # the same cones, the same vertex lists in the same order, and the same
    # facet normals up to a positive factor; the library takes the slice
    # over one denominator and gives each cell's vertices as integer
    # numerators over one denominator
    rng = random.Random(59)
    cases = 0
    rank2_bases = [(), *SUBTORI_2, SubtorusSpec.full(2).basis]
    pairs = [(m, rank2_bases) for m in models.values() if m.rank == 2]
    pairs += [(m, SUBTORI_3) for m in rank3_models.values()]
    for model, bases in pairs:
        for basis in bases:
            W = [tuple(F(x) for x in w) for w in basis]
            for _ in range(3):
                base = tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(model.rank))
                c = math.lcm(*(x.denominator for v in (base, *W) for x in v))
                b, *ws = [tuple(int(x * c) for x in v) for v in (base, *W)]
                got = list(_slice_cells(model, b, ws))
                want = slice_cells_oracle(model, base, W)
                assert ([(k, [tuple(F(x, den) for x in n) for n in nums])
                         for k, den, nums, _ in got]
                        == [(k, v) for k, v, _ in want])
                for (_, _, _, normals), (_, _, rows) in zip(got, want):
                    assert len(normals) == len(rows)
                    assert all(map(_positive_multiple, normals, rows))
                cases += 1
    assert cases == 5 * 8 * 3 + 3 * 6 * 3


def test_reduced_j_and_inner_sup_match_the_fraction_oracles(models, rank3_models):
    # every field, on seeded bases and on integer ones, which tie more
    # often: the least (value, s) of the reduced J norm, and the inner
    # supremum with the cone-order tie rule, attained or along a recession
    # direction
    rng = random.Random(61)
    ties = recession = cases = 0
    pairs = [(m, [*SUBTORI_2, SubtorusSpec.full(2).basis])
             for m in models.values() if m.rank == 2]
    pairs += [(m, SUBTORI_3) for m in rank3_models.values()]
    for model, bases in pairs:
        for basis in bases:
            for k in range(4):
                den = (1, 1, 2, 3)[k]
                xi0, eta = (tuple(F(rng.randint(-4, 4), den)
                                  for _ in range(model.rank)) for _ in range(2))
                sub = SubtorusSpec(basis)
                res = reduced_coupled_j(model, xi0, sub=sub)
                value, argmin, minimizers = reduced_j_slice_oracle(model, xi0, basis)
                assert (res.value, res.argmin) == (value, argmin), (model.name, xi0)
                ties += minimizers > 1
                if (sub.dim < model.rank
                        and matrix_rank([*basis, eta]) != sub.dim):
                    got = inner_twist_sup(model, sub, eta)
                    assert tuple(got) == inner_sup_oracle(model, basis, eta), (
                        model.name, basis, eta)
                    recession += not got.attained
                cases += 1
    assert cases == 4 * (5 * 7 + 3 * 6)
    assert (ties, recession) == (23, 17)


# five rank-3 planes, two of them not coordinate planes, and a line
PLANES_3 = [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)),
            ((1, 1, 0), (0, 0, 1)), ((1, -1, 2), (0, 1, 1))]
LINE_3 = ((1, -1, 2),)


def test_reduced_j_fast_branches_match_the_cells(rank3_models, monkeypatch):
    # each closed form against the cell routine, on value and argmin: the
    # slice through the origin, the point of the trivial subtorus and the
    # hyperplane of a corank-one subtorus solve no cell, and a rank-3 line
    # stays on the cells
    solved = []

    def counted(*args):
        solved.append(args)
        return _slice_cells(*args)

    monkeypatch.setattr("ckstab.stability._slice_cells", counted)
    every = _packaged_models()
    assert len(every) == 11
    primitive = [(a, b) for a, b in itertools.product(range(-2, 3), repeat=2)
                 if math.gcd(a, b) == 1]
    rng = random.Random(89)
    branches = collections.Counter()
    for model in every + list(rank3_models.values()):
        rank = model.rank
        bases = [SubtorusSpec.full(rank).basis, ()]
        bases += {2: [(v,) for v in primitive], 3: [*PLANES_3, LINE_3]}.get(rank, [])
        for basis in bases:
            sub = SubtorusSpec(basis)
            for k in range(5):
                den = rng.randint(1, 5)
                if k == 0:   # a fifth of the draws inside the subtorus
                    r = [F(rng.randint(-4, 4), den) for _ in basis]
                    xi0 = tuple(sum([x * w[i] for x, w in zip(r, basis)], F(0))
                                for i in range(rank))
                else:
                    xi0 = tuple(F(rng.randint(-4, 4), den) for _ in range(rank))
                del solved[:]
                res = reduced_coupled_j(model, xi0, sub=sub)
                fast = not solved
                d, (base, *W) = _int_directions(
                    [tuple(-x for x in xi0), *basis], rank)
                want = _reduced_j_cells(model, d, base, W)
                assert (res.value, res.argmin) == (want.value, want.argmin), (
                    model.name, basis, xi0)
                if matrix_rank([*basis, xi0]) == len(basis):
                    branch = "origin"
                    assert (res.value, res.argmin) == (0, tuple(-x for x in xi0))
                elif not basis:
                    branch = "point"
                else:
                    branch = {rank - 1: "hyperplane"}.get(len(basis), "cells")
                assert fast == (branch != "cells"), (model.name, basis, xi0)
                branches[branch] += 1
    assert branches == {"origin": 253, "point": 53, "hyperplane": 472, "cells": 12}


def test_reduced_j_tie_goes_to_the_greatest_twist(p2):
    # on the slice -xi0 + s (1, -1) the minimum is tied at s = -2 and s = 2
    xi0 = (F(-2), F(-2))
    res = reduced_coupled_j(p2, xi0, sub=SubtorusSpec(((1, -1),)))
    assert res.argmin == (2, -2)
    other = (F(-4), F(0))
    assert sum(j_twist(p2, i, other) for i in range(2)) == res.value


def test_reduced_j_wrong_rank_is_a_dimension_mismatch(p2):
    with pytest.raises(DimensionMismatch):
        reduced_coupled_j(p2, (F(1), F(0), F(0)))
    with pytest.raises(DimensionMismatch):
        reduced_coupled_j(p2, (F(1), F(0)), sub=SubtorusSpec(((1, 0, 0),)))


# --- mu and coupled Ding ---------------------------------------------------------

def test_mu_slope_values(p1):
    grid = family_degree_grid(p1, 4)
    basis = graded_basis(p1, TOTAL, m_max=4, step=grid[0])
    f = valuation_filtration(basis, (1,))
    assert mu_slope(f, 1).value == 1
    assert mu_slope(f, 2).value == F(1, 2)
    assert mu_slope(shift(f, F(5, 3)), 2).value == F(1, 2) + F(5, 3)


def test_mu_slope_below_one_gives_bounds(p1):
    basis = graded_basis(p1, TOTAL, m_max=4)
    f = valuation_filtration(basis, (1,))
    res = mu_slope(f, F(1, 2))
    assert res.value is None
    assert res.lo == 1 and res.hi == 2
    assert res.provenance == "certified-bounds"


def test_mu_slope_table_interval(p1):
    basis = graded_basis(p1, TOTAL, m_max=6)
    f = valuation_filtration(basis, (1,))
    tab = construct(basis, {m: dict(f.weights[m]) for m in basis.degrees})
    res = mu_slope(tab, 1)
    assert res.value is None
    assert res.lo <= 1 <= res.hi
    assert res.lo == 1    # the closed form sits on the lower end here


@pytest.mark.parametrize("name", ["p2_halves", "p2_steps", "p1xp1_symmetric",
                                  "bl1p2_halves", "bl1p2_hsplit"])
def test_mu_slope_bisection_matches_level_scan(models, name, monkeypatch):
    # on opaque tables the levels are bisected: the interval is the one the
    # scan of every level gives, from at most ceil(log2 levels) + 1 lc
    # thresholds per degree
    model = models[name]
    rng = random.Random(sum(map(ord, name)))
    step = family_degree_grid(model, 4)[0]
    calls = collections.Counter()

    def counted(model, seq, degree=None, _lct=ckstab.stability.monomial_lct):
        calls[degree] += 1
        return _lct(model, seq, degree=degree)

    monkeypatch.setattr(ckstab.stability, "monomial_lct", counted)
    for i in (0, TOTAL):
        basis = graded_basis(model, i, m_max=2, step=step)
        eta = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2), 2))
        val = valuation_filtration(basis, eta)
        tables = [{m: dict(val.weights[m]) for m in basis.degrees}]
        tables += [{m: {a: F(rng.randint(-m, 3 * m), rng.choice((1, 2)))
                        for a in basis.characters(m)} for m in basis.degrees}
                   for _ in range(2)]
        for table in tables:
            f = construct(basis, table)
            scans = mu_slope_scan(f, (F(1, 2), 1, 2))
            for delta, interval in scans.items():
                calls.clear()
                res = mu_slope(f, delta)
                assert (res.value, res.provenance) == (None, "finite-degree-estimate")
                assert (res.lo, res.hi) == interval
                for m in basis.degrees:
                    levels = len(set(table[m].values()))
                    assert 1 <= calls[m] <= math.ceil(math.log2(levels)) + 1


def test_mu_slope_lower_end_when_no_level_passes(p1):
    # a hand-built basis whose characters do not hull the summand: at the
    # lowest level the ideal's region is [0, 1/2] in [-1/2, 1/2], whose lc
    # threshold is 2, so at slope 3 no level passes and the lower end is
    # the least weight slope
    from ckstab.filtration import GradedBasis
    basis = GradedBasis(p1, 0, (2,), {2: ((0,), (1,))})
    f = construct(basis, {2: {(0,): 1, (1,): 3}})
    res = mu_slope(f, 3)
    assert res == (None, F(1, 2), F(3, 2), "finite-degree-estimate")
    assert (res.lo, res.hi) == mu_slope_scan(f, (3,))[3]


def test_coupled_ding_values(p1, bl1p2):
    fam = valuation_family(p1, (1,), m_max=4)
    res = coupled_ding(fam)
    assert res.value == 0 and res.mu == 1 and res.s_values == (F(1, 2), F(1, 2))
    assert coupled_ding(fam, delta=2).value == -F(1, 2)
    res_bl = coupled_ding(valuation_family(bl1p2, (1, 1), m_max=4))
    assert res_bl.value == -F(1, 6)


def test_coupled_ding_shift_invariance(p2_steps):
    fam = valuation_family(p2_steps, (1, -2), m_max=3)
    shifted = type(fam)(p2_steps, tuple(
        shift(f, c) for f, c in zip(fam.members, (F(1, 2), F(-3, 4)))))
    assert coupled_ding(shifted).value == coupled_ding(fam).value


def test_coupled_ding_rejects_mixed_directions(p2_steps):
    a = valuation_filtration(graded_basis(p2_steps, 0, m_max=2), (1, 0))
    b = valuation_filtration(graded_basis(p2_steps, 1, m_max=2), (0, 1))
    fam = type(valuation_family(p2_steps, (1, 0), m_max=2))(p2_steps, (a, b))
    with pytest.raises(UnsupportedDescriptor):
        coupled_ding(fam)


def test_ding_of_twist(bl1p2, p2):
    triv = trivial_family(bl1p2, m_max=4)
    assert ding_of_twist(bl1p2, triv, (1, 1)) == -F(1, 6)
    assert ding_of_twist(p2, trivial_family(p2, m_max=4), (3, -2)) == 0


def _outcome(ding, fam, delta):
    try:
        return ding(fam, delta)
    except CkstabError as exc:
        return type(exc), str(exc)


def test_coupled_ding_matches_the_sum_route(models):
    # every field of the result, or the class and message of the refusal,
    # against the route through sum tables: seeded directions, per-member
    # shifts, twisted families and members at distinct directions, and on
    # one degree, where the sum route's finite-degree lc tests stay cheap,
    # an opaque member built from a table or by rounding
    rng = random.Random(131)

    def rand_vec(rank):
        return tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))

    def check(fam, deltas):
        for delta in deltas:
            got = _outcome(coupled_ding, fam, delta)
            assert got == _outcome(ding_via_sums, fam, delta), (fam, delta)
            seen[got.provenance if isinstance(got, DingResult) else got[1]] += 1

    seen = collections.Counter()
    for model in [*models.values(), _split("p3_halves", _P3_RAYS, F(1, 2), F(1, 2))]:
        step = family_degree_grid(model, 12)[0]
        m_max = step if model.rank == 3 else 2 * step
        for _ in range(3):
            fam = valuation_family(model, rand_vec(model.rank), m_max=m_max)
            shifted = FiltrationFamily(model, tuple(
                shift(f, F(rng.randint(-6, 6), rng.randint(1, 4)))
                for f in fam.members))
            mixed = FiltrationFamily(model, tuple(
                valuation_filtration(f.basis, rand_vec(model.rank))
                for f in fam.members))
            for f in (fam, shifted, twist_family(shifted, rand_vec(model.rank)),
                      mixed):
                check(f, (F(1, 3), F(1, 2), F(1), F(2), F(3)))
        check(fam, (F(0), F(-1)))
        if model.rank == 3:
            continue
        # a shift by 1/5 leaves no weight of degree at most 4 an integer, so
        # rounding drops the descriptor
        small = valuation_family(model, rand_vec(model.rank), m_max=step)
        first = small.members[0]
        table = construct(first.basis, {
            step: {a: F(rng.randint(-3, 3), 2) for a in first.basis.characters(step)}})
        for g in (table, round_weights(shift(first, F(1, 5)))):
            check(FiltrationFamily(model, (g,) + small.members[1:]), (F(1, 2), F(1)))
    assert seen == {"closed-form": 243, "lower-bound": 162,
                    "no certified lc slope for sums of distinct valuation "
                    "directions": 135,
                    "coupled Ding needs a certified lc slope": 32,
                    "slope parameter must be positive": 18}


def test_ding_of_descriptors_matches_the_public_invariants():
    # every field against the Fraction oracle built from log_discrepancy,
    # s_invariant and theta_twist: seeded directions and per-member shifts
    # on the eleven packaged fixtures, at slopes below one (a lower bound),
    # one and above, and the same families read through twisted members,
    # whose descriptors are derived on first read
    rng = random.Random(137)

    def frac(span):
        return F(rng.randint(-span * 6, span * 6), rng.choice([1, 2, 3, 6]))

    seen = collections.Counter()
    for model in _packaged_models():
        rank, k = model.rank, model.num_summands
        ones = (F(1),) * rank
        m_max = family_degree_grid(model, 12)[0]
        for _ in range(4):
            eta = tuple(frac(2) for _ in range(rank))
            shifts = [frac(1) if rng.random() < 0.7 else F(0) for _ in range(k)]
            parts = [ValuationDescriptor(eta, c) for c in shifts]
            pairs = [(eta, c) for c in shifts]
            fam = FiltrationFamily(model, tuple(
                shift(f, c) for f, c in
                zip(valuation_family(model, eta, m_max=m_max).members, shifts)))
            xi = tuple(frac(1) for _ in range(rank))
            moved = [(tuple(a + b for a, b in zip(eta, xi)),
                      c - theta_twist(model, i, eta, xi))
                     for i, c in enumerate(shifts)]
            for delta in (F(1, 3), F(2, 3), F(1), F(3, 2), F(2)):
                for got, want in (
                        (ding_of_descriptors(model, parts, delta), pairs),
                        (coupled_ding(fam, delta), pairs),
                        (coupled_ding(twist_family(fam, xi), delta), moved)):
                    assert (got.value, got.mu, got.s_values, got.provenance,
                            got.probe_value) == ding_public_oracle(
                                model, want, delta), (model.name, eta, delta)
                    assert (got.delta, got.probe_xi) == (delta, ones)
                    fields = (got.value, got.mu, *got.s_values, got.delta,
                              *got.probe_xi, got.probe_value)
                    assert all(type(x) is F for x in fields)
                    seen[got.provenance] += 1
    assert seen == {"closed-form": 396, "lower-bound": 264}


def test_ding_of_descriptors_refuses_in_the_same_order(models):
    # a member without a descriptor is named before distinct directions,
    # and distinct directions before the slope is read
    one, two = ValuationDescriptor((1, 0)), ValuationDescriptor((0, 1))
    model = models["p2_steps"]
    cases = [([one, two], "no certified lc slope for sums of distinct "
                          "valuation directions"),
             ([None, two], "coupled Ding needs a certified lc slope"),
             ([one, None], "coupled Ding needs a certified lc slope"),
             ([two, SumDescriptor((one, two))],
              "coupled Ding needs a certified lc slope"),
             ([], "no certified lc slope for sums of distinct valuation "
                  "directions")]
    for parts, message in cases:
        for delta in (F(1, 2), F(1)):
            with pytest.raises(UnsupportedDescriptor, match=f"^{message}$"):
                ding_of_descriptors(model, parts, delta)
    with pytest.raises(StabilityError, match="^slope parameter must be positive$"):
        ding_of_descriptors(model, [None, two], F(0))


def test_ding_cross_check_catches_a_shifted_twist(models, monkeypatch):
    # a probe twist that moves one member's shift by 1/1000 breaks the
    # member slope rule on every model at slope one, compared on the
    # cross-multiplied ints, and goes unchecked at other slopes
    import ckstab.stability
    from ckstab.filtration import _twist_descriptor

    def off(model, i, d, den, xi_n):
        t = _twist_descriptor(model, i, d, den, xi_n)
        return ValuationDescriptor(t.eta, t.shift + F(1, 1000) * (i == 0))

    monkeypatch.setattr(ckstab.stability, "_twist_descriptor", off)
    for model in models.values():
        parts = [ValuationDescriptor((F(1, 2),) * model.rank)] * model.num_summands
        with pytest.raises(InternalInvariantError,
                           match="^twist identity cross-validation failed$"):
            ding_of_descriptors(model, parts, 1)
        assert ding_of_descriptors(model, parts, 2).provenance == "closed-form"


# --- thresholds -------------------------------------------------------------------

def test_delta_fixture_values(models):
    expected = {
        "p1_halves": (F(1), (-1,)),
        "p1_skew": (F(1), (-1,)),
        "p1_thirds": (F(1), (-1,)),
        "p2_halves": (F(1), (-1, -1)),
        "p2_steps": (F(1), (-1, -1)),
        "p1xp1_symmetric": (F(1), (-1, 0)),
        "bl1p2_halves": (F(6, 7), (1, 1)),
        "bl1p2_hsplit": (F(9, 11), (1, 1)),
    }
    for name, (value, witness) in expected.items():
        res = coupled_delta(models[name])
        assert (res.value, res.witness) == (value, witness), name


def _split(name, rays, *scales):
    # the reflexive polytope of the rays, split into scaled copies
    p = ExactPolytope.from_halfspaces([HalfSpace(tuple(r), F(-1)) for r in rays],
                                      len(rays[0]))
    return build_model(rays, [p.scale(F(t)) for t in scales], name=name)


_P3_RAYS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
_CUBE_RAYS = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
_DP7_RAYS = [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]]
_DP6_RAYS = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]


def _extra_models():
    # the rank-3 benchmark models, the two del Pezzo models beyond the
    # corpus in two splits each, and two weighted projective planes
    return [_split("p1cubed", _CUBE_RAYS, F(1, 2), F(1, 2)),
            _split("p3_halves", _P3_RAYS, F(1, 2), F(1, 2)),
            _split("p3_quarters", _P3_RAYS, F(1, 4), F(3, 4)),
            _split("dp7_halves", _DP7_RAYS, F(1, 2), F(1, 2)),
            _split("dp7_thirds", _DP7_RAYS, F(1, 3), F(2, 3)),
            _split("dp6_halves", _DP6_RAYS, F(1, 2), F(1, 2)),
            _split("dp6_thirds", _DP6_RAYS, F(1, 3), F(2, 3)),
            _split("p112", [[1, 0], [0, 1], [-1, -2]], F(1, 2), F(1, 2)),
            _split("p123", [[1, 0], [0, 1], [-2, -3]], F(1, 2), F(1, 2))]


def test_delta_ray_scan_matches_the_fan_cell_program(models):
    values = set()
    for model in list(models.values()) + _extra_models():
        res = coupled_delta(model)
        assert (res.value, res.witness) == fan_cell_delta(model), model.name
        values.add(res.value)
    assert values == {1, F(6, 7), F(9, 11), F(21, 25), F(3, 4), F(1, 2)}


def test_delta_is_global_infimum(bl1p2):
    rng = random.Random(83)
    res = coupled_delta(bl1p2)
    for _ in range(300):
        eta = tuple(F(rng.randint(-8, 8), rng.choice([1, 2, 3]))
                    for _ in range(2))
        if all(x == 0 for x in eta):
            continue
        ratio = log_discrepancy(bl1p2, eta) / total_s_sum(bl1p2, eta)
        assert ratio >= res.value


def test_verdicts(models):
    for name, model in models.items():
        rep = semistable_verdict(model)
        assert rep.semistable == name.startswith(("p1", "p2"))
        assert rep.futaki.vanishes == (rep.delta.value == 1)


def test_find_destabilizer(bl1p2, p2, p1xp1):
    res = find_destabilizer(bl1p2)
    assert res.eta == (1, 1) and res.ding.value == -F(1, 6)
    assert find_destabilizer(p2) is None
    assert find_destabilizer(p1xp1) is None


def test_sampled_families_nonnegative_on_vanishing_futaki(models):
    rng = random.Random(89)
    for name in ("p1_halves", "p2_steps", "p1xp1_symmetric"):
        model = models[name]
        for _ in range(20):
            eta = tuple(F(rng.randint(-3, 3), rng.choice([1, 2]))
                        for _ in range(model.rank))
            fam = valuation_family(model, eta, m_max=4)
            assert coupled_ding(fam).value >= 0


# --- reduced threshold ---------------------------------------------------------

def test_reduced_delta_full_torus(models):
    for model in models.values():
        res = reduced_coupled_delta(model, SubtorusSpec.full(model.rank))
        assert res.value is None


def test_reduced_delta_trivial_subtorus(models):
    for model in models.values():
        plain = coupled_delta(model)
        res = reduced_coupled_delta(model, SubtorusSpec.trivial())
        assert res.value == plain.value and res.witness == plain.witness


def test_reduced_delta_p1xp1_factor(p1xp1):
    res = reduced_coupled_delta(p1xp1, SubtorusSpec(((1, 0),)))
    assert res.value == 1
    res2 = reduced_coupled_delta(p1xp1, SubtorusSpec(((0, 1),)))
    assert res2.value == 1


def test_reduced_delta_bl1p2_subtorus(bl1p2):
    # a genuine inner supremum over one-parameter twists
    res = reduced_coupled_delta(bl1p2, SubtorusSpec(((1, 1),)))
    assert res.value is not None and F(6, 7) <= res.value
    inner = inner_twist_sup(bl1p2, SubtorusSpec(((1, 1),)), (1, 0))
    assert inner.value == res.value or inner.value >= res.value


def test_wrong_length_direction_is_a_dimension_mismatch(bl1p2):
    sub = SubtorusSpec(((1, 1),))
    for s in (sub, SubtorusSpec.trivial()):
        with pytest.raises(DimensionMismatch, match=r"^rank 2 vs 1$"):
            inner_twist_sup(bl1p2, s, (1,))
        with pytest.raises(DimensionMismatch, match=r"^rank 2 vs 3$"):
            inner_twist_sup(bl1p2, s, (1, 1, 0))
    # a basis of the wrong rank is caught where the slice is scaled
    with pytest.raises(DimensionMismatch,
                       match=r"^direction rank 3 vs polytope rank 2$"):
        inner_twist_sup(bl1p2, SubtorusSpec(((1, 1, 0),)), (1, 0))


def test_slice_direction_in_the_subtorus_is_refused(bl1p2):
    for basis, eta in ((((1, 1),), (2, 2)), (((1, 1),), (F(-1, 2), F(-1, 2))),
                       (((1, 0), (0, 1)), (1, 3)), ((), (0, 0))):
        with pytest.raises(StabilityError,
                           match=r"^slice direction lies in the subtorus$"):
            inner_twist_sup(bl1p2, SubtorusSpec(basis), eta)


def _ray_crossing_sup(model, w, eta):
    """(value, attained) of the sup of the ratio along eta + t w in rank 2:
    the ratio is linear-fractional in t on each fan cone, so the sup is at a
    crossing of the line with a fan ray r, where det(eta + t w, r) = 0 on
    r's positive side, or the limit as t -> +-infinity, the ratio at +-w."""
    def ratio(z):
        return log_discrepancy(model, z) / total_s_sum(model, z)

    def det(a, b):
        return a[0] * b[1] - a[1] * b[0]

    crossings = []
    for r in {g for cone in model.fan for g in cone.generators}:
        if det(w, r):
            t = F(-det(eta, r), det(w, r))
            z = tuple(e + t * x for e, x in zip(eta, w))
            if z[0] * r[0] + z[1] * r[1] > 0:
                crossings.append(ratio(z))
    limits = [ratio(w), ratio(tuple(-x for x in w))]
    value = max(crossings + limits)
    return value, value in crossings


def test_inner_twist_sup_against_ray_crossing_scan(models):
    checked = 0
    for model in models.values():
        if model.rank != 2:
            continue
        for w in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)):
            for eta in itertools.product(range(-2, 3), repeat=2):
                if eta[0] * w[1] == eta[1] * w[0]:
                    continue
                got = inner_twist_sup(model, SubtorusSpec((w,)), eta)
                assert (got.value, got.attained) == _ray_crossing_sup(model, w, eta)
                checked += 1
    # 20 slices each off (1, 0), (0, 1), (1, 1), (1, -1); 22 off (1, 2), (2, 1)
    assert checked == 5 * (4 * 20 + 2 * 22)


def test_inner_twist_sup_on_the_trivial_subtorus(models):
    # no twist is allowed, so the slice is eta itself: its ratio, attained
    # there
    rng = random.Random(5)
    for model in models.values():
        for _ in range(3):
            eta = tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(model.rank))
            if not any(eta):
                continue
            res = inner_twist_sup(model, SubtorusSpec.trivial(), eta)
            assert res == (ratio_oracle(model, eta), True, eta, None)


def test_rank_one_coupled_barycenter_vanishes(models):
    # each rank-1 summand is a segment or a point, whose barycenter is its
    # midpoint, and the midpoints add up to that of [-1, 1]: the suite's
    # Futaki-orthogonal direction is then any direction
    for model in models.values():
        if model.rank == 1:
            assert model.barycenter(TOTAL) == (0,), model.name


def test_inner_twist_sup_tie_goes_to_least_twist(p2):
    # the ratio is 1 on the whole segment from (0, 1) to (1, 0)
    got = inner_twist_sup(p2, SubtorusSpec(((1, -1),)), (0, 1))
    assert (got.value, got.attained, got.argument) == (1, True, (0, 1))


def _packaged_models():
    fixtures = resources.files("ckstab") / "fixtures"
    return [load_model(str(p)) for p in sorted(fixtures.iterdir(), key=str)
            if p.name.endswith(".json")]


def _fan_splits():
    """The 1/3 + 2/3 and 1/4 + 3/4 splits of the anticanonical polytopes of
    the hexagon fan (rays +-e1, +-e2, +-(e1 + e2)) and the pentagon fan."""
    hexagon = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    out = []
    for rays in (hexagon, hexagon[:5]):
        p = ExactPolytope.from_halfspaces([HalfSpace(r, F(-1)) for r in rays], 2)
        for a in (F(1, 3), F(1, 4)):
            out.append(build_model(rays, [p.scale(a), p.scale(1 - a)],
                                   name=f"{len(rays)}-gon {a}"))
    return out


def test_inner_sup_line_matches_the_cells():
    # the rank-2 line, read off the fan's rays, against the cell loop on the
    # whole InnerSup: the seven rank-2 packaged models and four splits of
    # the hexagon and pentagon fans, every primitive w with entries in -3..3
    # and eta with entries in -3..3 over denominators 1 and 2, taken once
    # per line, as eta and eta + k w give one line and one result
    every = [m for m in _packaged_models() if m.rank == 2] + _fan_splits()
    assert len(every) == 11
    primitive = [w for w in itertools.product(range(-3, 4), repeat=2)
                 if math.gcd(*w) == 1]
    etas = sorted({(F(a, d), F(b, d)) for d in (1, 2)
                   for a, b in itertools.product(range(-3, 4), repeat=2)})
    cases = recession = 0
    for model in every:
        for w in primitive:
            sub = SubtorusSpec((w,))
            lines = {}
            for eta in etas:
                lines.setdefault(eta[0] * w[1] - eta[1] * w[0], eta)
            del lines[0]
            for eta in lines.values():
                got = inner_twist_sup(model, sub, eta)
                d, (base, W) = _int_directions([eta, w], 2)
                assert got == _inner_sup_cells(model, d, base, [W], (w,)), (
                    model.name, w, eta)
                recession += not got.attained
                cases += 1
    assert (len(primitive), len(etas)) == (32, 89)
    assert (cases, recession) == (11 * 976, 1520)


def test_inner_sup_attained_vertex_replaces_an_equal_limit(bl1p2):
    # along w = (-1, 0) from eta = (-3, 1) the limit 12/13 along (1, 0)
    # leads after the first cell, the vertex (0, 1) of the next cell ties
    # it and replaces it, and the limit 24/23 along (-1, 0) wins at the end
    w, eta = (-1, 0), (-3, 1)
    best, replaced = None, []
    for value, attained, z in inner_sup_candidates(bl1p2, (w,), eta):
        if best is not None and attained and not best[1] and value == best[0]:
            replaced.append((value, z))
        if best is None or value > best[0] or (attained and value == best[0]
                                               and not best[1]):
            best = (value, attained)
    assert replaced == [(F(12, 13), (0, 1))]
    got = inner_twist_sup(bl1p2, SubtorusSpec((w,)), eta)
    assert tuple(got) == (F(24, 23), False, None, (-1, 0))
    d, (base, W) = _int_directions([eta, w], 2)
    assert got == _inner_sup_cells(bl1p2, d, base, [W], (w,))


def test_inner_sup_tied_ends_follow_the_cone_order():
    # a reflexive triangle whose barycenter b = (-2/3, 1/3) is orthogonal
    # to its ray (1, 2): along w = (1, 2) from eta = (-3, -3) both ends of
    # the line score 1, above every ray it crosses.  w lies on the ray the
    # first and last cones share, and only the last cone's cell, on the
    # side of eta, recedes along it; -w recedes in the middle cone, so it
    # comes first and names the recession
    rays = [(-2, -1), (0, -1), (1, 2)]
    p = ExactPolytope.from_halfspaces([HalfSpace(r, F(-1)) for r in rays], 2)
    model = build_model(rays, [p.scale(F(1, 2)), p.scale(F(1, 2))])
    w, eta = (1, 2), (-3, -3)
    got = inner_twist_sup(model, SubtorusSpec((w,)), eta)
    assert tuple(got) == (1, False, None, (-1, -2))
    assert tuple(got) == inner_sup_oracle(model, (w,), eta)
    d, (base, W) = _int_directions([eta, w], 2)
    assert got == _inner_sup_cells(model, d, base, [W], (w,))


def test_rank2_reduced_delta_solves_no_cell(models, monkeypatch):
    # the rank-2 threshold reads its candidates off the fan's rays: no slice
    # cell, vertex system or ray enumeration is solved, while the cell loop
    # on the same line does solve them
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for module in (ckstab.stability, ckstab.geometry):
        for name in ("_slice_cells", "_cramer_vertices", "_rays"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rank2 = [m for m in models.values() if m.rank == 2]
    for model in rank2:
        for basis in SUBTORI_2:
            reduced_coupled_delta(model, SubtorusSpec(basis))
    assert len(rank2) == 5 and calls == {}
    _inner_sup_cells(rank2[0], 1, (0, 1), [(1, 1)], ((1, 1),))
    assert set(calls) == {"_slice_cells", "_cramer_vertices", "_rays"}


def test_subtorus_validation():
    with pytest.raises(DegenerateSubtorus):
        SubtorusSpec(((2, 0),))          # not saturated
    with pytest.raises(DegenerateSubtorus):
        SubtorusSpec(((1, 0), (2, 0)))   # dependent


def test_reduced_delta_rank_guard(bl1p2):
    # rank <= 2 here, so exercise the guard through a rank-3 model
    cube = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    from ckstab.geometry import ExactPolytope
    p = ExactPolytope.from_vertices(cube)
    model = build_model(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        [p.scale(F(1, 2)), p.scale(F(1, 2))], name="p1cubed")
    with pytest.raises(RankTooHigh):
        reduced_coupled_delta(model, SubtorusSpec(((1, 0, 0),)))


# --- ratio profiles -------------------------------------------------------------

def test_twisted_ratio_profile_futaki_orthogonal(bl1p2):
    prof = twisted_ratio_profile(bl1p2, (1, 0), (1, -1), (1, 2, 4, 8, 16, 32))
    assert prof.limit == 1
    values = [r for _, r in prof.ratios]
    assert values == [F(48, 49), F(84, 85), F(156, 157),
                      F(300, 301), F(588, 589), F(1164, 1165)]
    diffs = [abs(r - 1) for r in values]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert all(d * e <= prof.kappa for (e, _), d in zip(prof.ratios, diffs))


def test_twisted_ratio_profile_generic_direction(bl1p2):
    prof = twisted_ratio_profile(bl1p2, (1, 0), (1, 1), (1, 2, 4, 8, 16, 32))
    assert prof.limit == F(6, 7)
    values = [r for _, r in prof.ratios]
    assert values == [F(8, 9), F(36, 41), F(20, 23),
                      F(108, 125), F(68, 79), F(396, 461)]
    diffs = [abs(r - prof.limit) for r in values]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_twisted_ratio_profile_matches_the_cone_loop(models):
    # random directions, and twists along each fan ray, with eta random or
    # on the ray's line, so that the whole line lies on a wall of the fan
    rng = random.Random(97)
    exps = (1, 2, 8, 64)

    def rand_vec(rank):
        return tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rank))

    cases = 0
    for model in list(models.values()) + [_split("p3_quarters", _P3_RAYS,
                                                  F(1, 4), F(3, 4))]:
        pairs = [(rand_vec(model.rank), rand_vec(model.rank)) for _ in range(8)]
        for rho in model.rays:
            pairs.append((rand_vec(model.rank), rho))
            q = F(2 * rng.randint(-4, 4) + 1, 2)
            pairs.append((tuple(q * c for c in rho), rho))
        for eta, xi in pairs:
            if not any(xi) or any(not any(h + e * x for h, x in zip(eta, xi))
                                  for e in exps):
                continue
            prof = twisted_ratio_profile(model, eta, xi, exps)
            assert (prof.entry, prof.limit, prof.kappa) == \
                twisted_profile_oracle(model, eta, xi), (model.name, eta, xi)
            cases += 1
        with pytest.raises(StabilityError, match="twist direction"):
            twisted_ratio_profile(model, rand_vec(model.rank),
                                  (F(0),) * model.rank, exps)
    assert cases == 126


# --- identity suite --------------------------------------------------------------

def test_identity_suite_passes(models):
    for name in ("p1_halves", "bl1p2_hsplit"):
        rep = identity_suite(models[name], samples=40, seed=11)
        assert rep.failed == 0 and rep.passed > 0


def test_identity_suite_deterministic(p2):
    a = identity_suite(p2, samples=30, seed=5).to_dict()
    b = identity_suite(p2, samples=30, seed=5).to_dict()
    assert a == b


def test_suite_grid_follows_the_family_step():
    # the multiples of the family step up to 4 on every packaged fixture, and
    # the step alone above 4
    fixtures = resources.files("ckstab") / "fixtures"
    names = sorted(f.name for f in fixtures.iterdir())
    assert len(names) == 11
    for name in names:
        model = load_model(str(fixtures / name))
        identity_suite(model, samples=1)
        assert set(model.totals) == {family_degree_grid(model, 4)}, name
    seg = ExactPolytope.from_vertices([(F(-1),), (F(1),)])
    fifths = build_model([[1], [-1]], [seg.scale(F(1, 5)), seg.scale(F(4, 5))],
                         name="fifths")
    assert identity_suite(fifths, samples=1).failed == 0
    assert set(fifths.totals) == {(5,)}


# the same counts per identity for both models at this budget
_SHARED_CASES = {
    "a-minus-s-twist": 20, "barycenter-cache-consistency": 2,
    "barycenter-sum-translation-invariance": 20,
    "base-change-twist-compatibility": 40, "degree-one-homogeneity": 40,
    "ding-twist": 20, "lct-closed-form": 1, "lct-oracle-agreement": 1,
    "lct-witness-upper-bound": 1, "log-discrepancy-twist": 20,
    "mu-shift-covariance": 1, "reduced-ding-threshold-consistency": 4,
    "reduced-j-twist-cancellation": 1, "reflexive-support-duality": 20,
    "s-invariant-twist": 40, "shift-composition": 20,
    "sum-approximation-compatibility": 20, "sum-base-change-compatibility": 20,
    "sum-shift-commutation": 20, "sum-twist-commutation": 20,
    "theta-additivity": 20, "twist-inversion": 20,
    "twist-of-valuation-table": 20, "twisted-ratio-limit": 1,
    "twisted-ratio-ray-value": 1,
}


@pytest.mark.parametrize("name, passed, own_cases", [
    # vanishing Futaki: the twist-growth bound runs, on a four-degree grid
    ("p2_steps", 801, {"base-change-slope-scaling": 160,
                       "rounding-mean-slope-stability": 8,
                       "sum-lambda-max-additivity": 160,
                       "twist-growth-lower-bound": 80}),
    # nonvanishing Futaki: threshold consistency twists against the barycenter
    ("bl1p2_halves", 557, {"base-change-slope-scaling": 80,
                           "rounding-mean-slope-stability": 4,
                           "sum-lambda-max-additivity": 80}),
])
def test_identity_suite_pinned_report(models, name, passed, own_cases):
    # every case count is pinned, so a check added, lost or moved shows here
    cases = dict(sorted({**_SHARED_CASES, **own_cases}.items()))
    assert identity_suite(models[name], samples=20, seed=3).to_dict() == {
        "model": name, "seed": 3, "samples": 20, "passed": passed,
        "failed": 0, "cases": cases}


def test_identity_suite_detects_corruption(p2):
    # hand-edit the barycenter cache; the suite runs on and counts every
    # failure: the cache check on summand 0, and each balanced translation
    bad = ToricFanoModel(
        name=p2.name, rank=p2.rank, rays=p2.rays, anticanonical=p2.anticanonical,
        summands=p2.summands, barycenters=((F(1, 7), F(0)), p2.barycenters[1]),
        fan=p2.fan)
    with pytest.raises(SuiteFailure) as info:
        identity_suite(bad, samples=5, seed=1)
    assert info.value.identity == "barycenter-cache-consistency"
    assert info.value.inputs == ("p2_halves", 0)
    rep = info.value.report
    assert (rep.failed, rep.passed) == (6, 141)
    assert str(info.value).endswith("(6 of 147 cases failed)")
    # the corrupt cache moves the coupled barycenter off zero, which skips
    # only the growth bound that holds on vanishing-Futaki models
    clean = identity_suite(p2, samples=5, seed=1).cases
    assert clean.pop("twist-growth-lower-bound") == 10
    assert rep.cases == clean


def _injected(*args, **kwargs):
    raise StabilityError("injected")


def test_identity_suite_error_after_failed_check(p2, monkeypatch):
    # a library error after a failed check still reports the counterexample
    monkeypatch.setattr("ckstab.stability.centroid",
                        lambda p: (F(1, 7),) * p.rank)
    monkeypatch.setattr("ckstab.stability._reduced_j_cells", _injected)
    with pytest.raises(SuiteFailure) as info:
        identity_suite(p2, samples=2, seed=0)
    assert info.value.identity == "barycenter-cache-consistency"
    assert isinstance(info.value.__cause__, StabilityError)
    assert info.value.report.failed > 0


def test_identity_suite_error_without_failed_check(p2, monkeypatch):
    # with every check passed so far, the library error is raised as is
    monkeypatch.setattr("ckstab.stability._reduced_j_cells", _injected)
    with pytest.raises(StabilityError, match="injected") as info:
        identity_suite(p2, samples=2, seed=0)
    assert not isinstance(info.value, SuiteFailure)


def test_table_failure_names_the_first_difference(p1, monkeypatch):
    # a shift that slips by one on an already shifted table breaks shift
    # composition only; the message names the first differing entry
    def slipping_shift(f, c):
        return shift(f, c + 1 if getattr(f.descriptor, "shift", 0) else c)

    monkeypatch.setattr("ckstab.stability.shift", slipping_shift)
    with pytest.raises(SuiteFailure) as info:
        identity_suite(p1, samples=1, seed=0)
    assert str(info.value) == (
        "identity 'shift-composition' failed on (0, -5/3, 1): "
        "{2: {(-1): 2/3}} != {2: {(-1): -4/3}} (1 of 41 cases failed)")
    assert info.value.lhs == {2: {(-1,): F(2, 3)}}
    assert info.value.rhs == {2: {(-1,): F(-4, 3)}}


def test_rank3_model_stability_stack():
    # the full stack works in rank 3: symmetric product model has
    # vanishing Futaki, threshold one, and no destabilizer
    from ckstab.geometry import ExactPolytope
    cube = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    p = ExactPolytope.from_vertices(cube)
    model = build_model(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        [p.scale(F(1, 2)), p.scale(F(1, 2))], name="p1cubed")
    assert coupled_futaki(model).vanishes
    res = coupled_delta(model)
    assert res.value == 1 and res.witness == (-1, 0, 0)
    assert find_destabilizer(model) is None
    fam = valuation_family(model, (1, -2, 3), m_max=2)
    assert coupled_ding(fam).value == 0


def test_extra_del_pezzo_models():
    # models beyond the shipped corpus, with asymmetric scale splits; the
    # two-point blowup has the known threshold 21/25 while the hexagon
    # model is semistable, and the invariants do not depend on the split
    from ckstab.geometry import ExactPolytope, HalfSpace
    from ckstab.stability import identity_suite
    cases = {
        "dp7": ([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]],
                (F(2, 21), F(2, 21)), F(21, 25), (1, 1)),
        "dp6": ([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
                (F(0), F(0)), F(1), (-1, -1)),
    }
    for name, (rays, fut_total, delta, witness) in cases.items():
        hs = [HalfSpace(tuple(r), F(-1)) for r in rays]
        p = ExactPolytope.from_halfspaces(hs, 2)
        for t in (F(1, 2), F(1, 3)):
            split = [p.scale(t), p.scale(1 - t)]
            model = build_model(rays, split, name=f"{name}_{t}")
            fut = coupled_futaki(model)
            assert fut.total == fut_total
            res = coupled_delta(model)
            assert (res.value, res.witness) == (delta, witness)
        # translated splits keep the coupled barycenter
        v = (F(1, 3), F(-1, 2))
        moved = build_model(rays, [p.scale(F(1, 2)).translate(v),
                                   p.scale(F(1, 2)).translate(tuple(-x for x in v))],
                            name=f"{name}_moved")
        assert coupled_futaki(moved).total == fut_total
        # thirds-of-integers translations push the integrality step to six
        rep = identity_suite(moved, samples=10, seed=3)
        assert rep.failed == 0


def test_weighted_projective_thresholds():
    # singular (but klt) toric models whose thresholds are known in closed
    # form: three times the smallest weight over the weight sum
    from ckstab.geometry import ExactPolytope, HalfSpace
    cases = {
        "p112": ([[1, 0], [0, 1], [-1, -2]], F(3, 4), (-1, -2),
                 (F(1, 3), F(-1, 3))),
        "p123": ([[1, 0], [0, 1], [-2, -3]], F(1, 2), (-2, -3),
                 (F(0), F(-1, 3))),
    }
    for name, (rays, delta, witness, fut_total) in cases.items():
        hs = [HalfSpace(tuple(r), F(-1)) for r in rays]
        p = ExactPolytope.from_halfspaces(hs, 2)
        model = build_model(rays, [p.scale(F(1, 2)), p.scale(F(1, 2))],
                            name=name)
        assert coupled_futaki(model).total == fut_total
        res = coupled_delta(model)
        assert (res.value, res.witness) == (delta, witness)
        rep = identity_suite(model, samples=10, seed=3)
        assert rep.failed == 0
