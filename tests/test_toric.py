"""Toric model tests: construction validation, the support-value invariants,
and the monomial threshold against its containment oracle."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F
from importlib import resources

import pytest

from ckstab import toric
from ckstab.errors import InternalInvariantError
from ckstab.geometry import (DimensionMismatch, ExactPolytope, GeometryError,
                             HalfSpace, minkowski_sum, normal_fan,
                             support_value, vneg)
from ckstab.optimize import minimize_pl_ratio
from ckstab.serialize import load_model
from ckstab.stability import SuiteFailure, _check_identities, identity_suite
from ckstab.toric import (TOTAL, DecompositionMismatch, LctResult,
                          MonomialIdealSeq, NonIntegralScaling, NotReflexive,
                          RankMismatch, ToricError, ZeroIdeal,
                          _containment_lct, _region_of_ideal, build_model,
                          integrality_step, log_discrepancy, monomial_lct,
                          s_invariant, section_basis, support_min,
                          t_invariant, theta_twist, total_s_sum)
from oracles import lct_via_cell_forms, support_oracle, volume_centroid_oracle


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


def test_decomposition_mismatch_message():
    u = ExactPolytope.from_vertices([(0,), (1,)])
    with pytest.raises(DecompositionMismatch) as exc:
        build_model([[1], [-1]], [u, u])
    assert str(exc.value) == ("support of the decomposition along ray (-1) "
                              "is -2, expected -1")


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


# --- the decomposition certificate against the brute-force sum -----------------
#
# build_model certifies the sum cone by cone; minkowski_sum hulls every vertex
# sum.  The model must be accepted exactly when the hull equals the
# anticanonical polytope.  A rejection names the first ray along which the
# summands' support values do not add up to -1, and words the hull's
# vertices only when there is none.

RAYS = {
    "p1": [[1], [-1]],
    "p2": [[1, 0], [0, 1], [-1, -1]],
    "p1xp1": [[1, 0], [-1, 0], [0, 1], [0, -1]],
    "bl1p2": [[1, 0], [0, 1], [-1, -1], [1, 1]],
    "dp6": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    "p3": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "p1cubed": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                [0, 0, -1]],
}


def anticanonical(rays) -> ExactPolytope:
    return ExactPolytope.from_halfspaces(
        [HalfSpace.make(r, -1) for r in rays], len(rays[0]))


def mismatch_message(rays, summands, total, antican) -> str:
    def show(v):
        return "(" + ", ".join(map(str, v)) + ")"
    for r in sorted(map(tuple, rays)):
        h = sum(support_value(p, r)[0] for p in summands)
        if h != -1:
            return (f"support of the decomposition along ray {show(r)} "
                    f"is {h}, expected -1")
    return ("Minkowski sum of the decomposition is "
            f"{' '.join(map(show, total.vertices))}, "
            f"expected {' '.join(map(show, antican.vertices))}")


def accepted_as_oracle_says(rays, summands) -> bool:
    """build_model accepts exactly when the brute-force sum is the polytope,
    and its rejection message is built from the summands' ray supports or
    from that sum; returns the verdict."""
    antican = anticanonical(rays)
    total = minkowski_sum(summands)
    if total == antican:
        assert build_model(rays, summands).anticanonical == antican
        return True
    with pytest.raises(DecompositionMismatch) as exc:
        build_model(rays, summands)
    assert str(exc.value) == mismatch_message(rays, summands, total, antican)
    return False


def rand_lambda(rng):
    d = rng.randint(2, 7)
    return F(rng.randint(1, d - 1), d)


def box_segments(rng, rank, shift):
    """The box [-1, 1]^rank as axis segments, the first split in two at a
    random ratio, shifted by +shift and -shift at the two ends."""
    segs = [ExactPolytope.from_vertices(
        [tuple(x if i == j else 0 for i in range(rank)) for x in (-1, 1)])
        for j in range(rank)]
    lam = rand_lambda(rng)
    return ([segs[0].scale(lam).translate(shift), segs[0].scale(1 - lam)]
            + segs[1:-1] + [segs[-1].translate(vneg(shift))])


def good_splits(rng, rays):
    """Exact decompositions: the dilates lambda P + t and (1 - lambda) P - t,
    a three-way dilate split, and for boxes a split into axis segments.  The
    cube takes only the segment split: hulling the sum of two generic cube
    dilates takes the brute-force oracle most of a minute."""
    p = anticanonical(rays)
    rank, t = p.rank, rand_dir(rng, p.rank, span=3)
    out = []
    if rays in (RAYS["p1xp1"], RAYS["p1cubed"]):
        out.append(box_segments(rng, rank, t))
    if rays != RAYS["p1cubed"]:
        lam, mu = rand_lambda(rng), rand_lambda(rng)
        out += [[p.scale(lam).translate(t), p.scale(1 - lam).translate(vneg(t))],
                [p.scale(lam * mu), p.scale(lam * (1 - mu)), p.scale(1 - lam)]]
    return out


def bad_splits(rng, rays):
    """Wrong decompositions of two kinds.  Support functions linear on the
    fan but sums off: (1/3) P + (1/3) P, and splits whose shifts do not
    cancel.  Linearity fails: a summand, here a random segment or triangle,
    whose normal fan the polytope's fan does not refine; the hull of the sum
    then has more vertices than the polytope, which shows the refinement
    fails.  Such summands also upset the minimizer sums; the next test but
    one has a summand that only the linearity check rejects.  In rank 1
    every fan is the same, so only the first kind exists."""
    p = anticanonical(rays)
    rank, t = p.rank, rand_dir(rng, p.rank, span=3)
    if rays == RAYS["p1cubed"]:
        base = box_segments(rng, rank, (0,) * rank)
        out = [base[:-1] + [base[-1].translate(t)]]
    else:
        base = [p.scale(rand_lambda(rng))]
        out = [[p.scale(F(1, 3)), p.scale(F(1, 3))],
               [base[0].translate(t), p.scale(1 - rand_lambda(rng))]]
    while rank > 1:
        # a segment in rank 3 keeps the oracle's hull small
        size = 2 if rank == 3 else rng.choice([2, 3])
        pts = [rand_dir(rng, rank, span=3) for _ in range(size)]
        parts = base + [ExactPolytope.from_vertices(pts)]
        if len(minkowski_sum(parts).vertices) > len(p.vertices):
            out.append(parts)
            break
    return out


def test_certificate_agrees_with_minkowski_oracle_on_fixtures():
    rng = random.Random(53)
    names = sorted(f.name for f in (resources.files("ckstab") / "fixtures").iterdir()
                   if f.name.endswith(".json"))
    assert len(names) >= 11
    for name in names:
        model = load_model(str(resources.files("ckstab") / "fixtures" / name))
        summands = list(model.summands)
        assert accepted_as_oracle_says(model.rays, summands)
        summands[0] = summands[0].translate(rand_dir(rng, model.rank, span=3))
        assert not accepted_as_oracle_says(model.rays, summands)


@pytest.mark.parametrize("base, rounds", [
    ("p1", 6), ("p2", 4), ("p1xp1", 3), ("bl1p2", 3), ("dp6", 1), ("p3", 1),
    ("p1cubed", 1)])
def test_certificate_agrees_with_minkowski_oracle_on_random_splits(base, rounds):
    rng = random.Random(f"split-{base}")
    rays = RAYS[base]
    for _ in range(rounds):
        for summands in good_splits(rng, rays):
            assert accepted_as_oracle_says(rays, summands)
        for summands in bad_splits(rng, rays):
            assert not accepted_as_oracle_says(rays, summands)


def test_certificate_checks_linearity_not_only_minimizer_sums():
    # conv(square, (2, 0)) is minimized at the square's vertices at all four
    # probes (ties break to them), yet bulges between two of the probes
    q = ExactPolytope.from_vertices([(-1, -1), (1, -1), (2, 0), (1, 1), (-1, 1)])
    assert not accepted_as_oracle_says(RAYS["p1xp1"], [q])


def test_failed_certificate_on_exact_sum_is_internal(p2, monkeypatch):
    # a certificate that rejects a decomposition the hull confirms is a bug;
    # the fan's cones in reverse order pair each cone with another cone's
    # vertex, while the ray supports, which read no cone, still add up
    monkeypatch.setattr("ckstab.toric.normal_fan",
                        lambda p: normal_fan(p)[::-1])
    with pytest.raises(InternalInvariantError):
        build_model(p2.rays, p2.summands)


def test_mismatch_reported_before_an_incomplete_fan(p2, monkeypatch):
    monkeypatch.setattr("ckstab.toric.check_complete_fan_rank2",
                        lambda cones: False)
    with pytest.raises(NotReflexive, match="normal fan is not complete"):
        build_model(p2.rays, p2.summands)
    with pytest.raises(DecompositionMismatch):
        build_model(p2.rays, [p2.summands[0], p2.summands[0].scale(2)])


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


# --- the integer pairing kernels against the vertex-scan oracles ---------------

def _direction(rng, rank, form):
    """A seeded direction written as ints, Fractions, a mix of both, or
    strings; zero entries and zero vectors included."""
    def frac():
        return F(rng.randint(-8, 8), rng.choice([1, 2, 3, 5]))
    if form == "int":
        return tuple(rng.randint(-4, 4) for _ in range(rank))
    if form == "fraction":
        return tuple(frac() for _ in range(rank))
    if form == "mixed":
        return tuple(rng.choice([rng.randint(-4, 4), frac()]) for _ in range(rank))
    return tuple(str(frac()) for _ in range(rank))


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


@pytest.mark.parametrize("form", ["int", "fraction", "mixed", "str"])
def test_integer_invariants_against_vertex_scans(models, form):
    rng = random.Random(53)
    for model in models.values():
        # the summand barycenters from the barycentric subdivision, and
        # the coupled one as their sum
        bary = [volume_centroid_oracle(p.vertices)[1] for p in model.summands]
        bary.append(tuple(map(sum, zip(*bary))))
        antican = model.anticanonical.vertices
        for _ in range(12):
            eta = _direction(rng, model.rank, form)
            xi = _direction(rng, model.rank, form)
            e, x = tuple(map(F, eta)), tuple(map(F, xi))
            ex = tuple(a + b for a, b in zip(e, x))
            got = log_discrepancy(model, eta)
            assert type(got) is F
            assert got == -support_oracle(antican, e, "min")[0]
            for i, b in zip(list(range(model.num_summands)) + [TOTAL], bary):
                verts = model.summand(i).vertices
                lo = support_oracle(verts, e, "min")[0]
                hi = support_oracle(verts, e, "max")[0]
                results = [
                    (support_min(model, i, eta), lo),
                    (t_invariant(model, i, eta), hi - lo),
                    (s_invariant(model, i, eta), _dot(b, e) - lo),
                    (theta_twist(model, i, eta, xi),
                     lo - support_oracle(verts, ex, "min")[0]),
                ]
                for value, expected in results:
                    assert type(value) is F and value == expected, (model.name, i)


def test_integer_invariants_reject_a_wrong_length(models):
    for model in models.values():
        long = (1,) * (model.rank + 1)
        for i in (0, TOTAL):
            for call in (lambda d: support_min(model, i, d),
                         lambda d: t_invariant(model, i, d),
                         lambda d: s_invariant(model, i, d),
                         lambda d: theta_twist(model, i, d, d),
                         lambda d: theta_twist(model, i, d, d[1:]),
                         lambda d: log_discrepancy(model, d)):
                with pytest.raises(DimensionMismatch):
                    call(long)


def test_valuation_levels_need_a_nonzero_direction():
    with pytest.raises(ToricError, match="must be nonzero"):
        MonomialIdealSeq.valuation_levels((0, F(0)), 1)
    with pytest.raises(ToricError, match="must be nonzero"):
        MonomialIdealSeq.valuation_levels(("0", "0/3"), 1)


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
    assert _containment_lct(p2, seq) == res.value


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


def _valuation_ideals(model, rng, directions):
    """Valuation ideals on the total ring and on each summand, at the levels
    A/4, A/2, 3A/4, A, (A + t)/2 and 9t/10 that the ring reaches, with A the
    log discrepancy and t the maximal slope."""
    for summand in (TOTAL, *range(model.num_summands)):
        for _ in range(directions):
            eta = rand_dir(rng, model.rank, span=2)
            a = log_discrepancy(model, eta)
            t = t_invariant(model, summand, eta)
            levels = {F(k, 4) * a for k in range(1, 5)} | {(a + t) / 2, F(9, 10) * t}
            for level in sorted(x for x in levels if x <= t):
                yield MonomialIdealSeq.valuation_levels(eta, level, summand=summand)


def _generated_ideals(model, rng, count):
    """One to four generators of random order at one degree of the total
    ring or of a summand, so point, segment and polygon regions, at levels
    0, 1/2 and 1."""
    for _ in range(count):
        summand = rng.choice((TOTAL, *range(model.num_summands)))
        m = integrality_step(model, summand) * rng.randint(1, 2)
        chars = section_basis(model, summand, m)
        gens = [(ch, F(rng.randint(0, 2 * m), 2))
                for ch in rng.sample(chars, rng.randint(1, min(4, len(chars))))]
        for level in (0, F(1, 2), 1):
            if any(order >= level * m for _, order in gens):
                yield MonomialIdealSeq.from_generators({m: gens}, level, summand)


def test_containment_oracle_agrees_with_the_fan(models):
    rng = random.Random(43)
    values = []
    for model in models.values():
        for seq in [*_valuation_ideals(model, rng, 2),
                    *_generated_ideals(model, rng, 6)]:
            # the threshold of s times the ideal is 1/s times its own
            scale = rng.choice((1, F(2, 3)))
            value = monomial_lct(model, seq, scale).value
            oracle = _containment_lct(model, seq)
            assert value == (oracle and oracle / scale), (model.name, seq)
            values.append(value)
    assert len(values) > 250 and None in values
    assert len(set(values)) > 20


def _lct_or_refusal(call):
    """The value and witness of an lc threshold, or the class and message
    of its refusal."""
    try:
        res = call()
    except ToricError as exc:
        return type(exc), str(exc)
    return (res.value, res.witness) if isinstance(res, LctResult) else res


def test_lct_ray_scan_matches_the_cell_forms(models, rank3_models):
    # seeded directions on the total ring and every summand, at levels
    # below A, from 0 (the unit ideal) to below the maximal slope t, and
    # past t (a refusal), each at one of the scales 1, 1/2 and 3
    rng = random.Random(61)
    outcomes = Counter()
    for model in [*models.values(), *rank3_models.values()]:
        for summand in (TOTAL, *range(model.num_summands)):
            for _ in range(2):
                eta = rand_dir(rng, model.rank, span=2)
                a = log_discrepancy(model, eta)
                t = t_invariant(model, summand, eta)
                for level in (F(rng.randint(1, 4), 4) * a,
                              F(rng.randint(0, 9), 10) * t,
                              t + F(1, rng.randint(1, 3))):
                    seq = MonomialIdealSeq.valuation_levels(eta, level, summand)
                    scale = rng.choice((1, F(1, 2), 3))
                    got = _lct_or_refusal(lambda: monomial_lct(model, seq, scale))
                    want = _lct_or_refusal(
                        lambda: lct_via_cell_forms(model, seq, scale))
                    assert got == want, (model.name, seq, scale)
                    # the unit ideal, a refusal, or a value at its scale
                    outcomes[got[0] if got[0] in (None, ZeroIdeal) else scale] += 1
    assert set(outcomes) == {None, ZeroIdeal, 1, F(1, 2), 3}, outcomes


def test_generator_ideals_agree_with_the_containment_oracle(models, rank3_models):
    # point, segment and larger regions from seeded generators at one or
    # two integrality steps, on the total ring and every summand of each
    # rank-2 fixture and of P^3 in halves
    rng = random.Random(67)
    dims = Counter()
    chosen = [m for m in models.values() if m.rank == 2] + [rank3_models["p3_halves"]]
    for model in chosen:
        for summand in (TOTAL, *range(model.num_summands)):
            for size in (1, 2, 4, 6):
                m = integrality_step(model, summand) * rng.randint(1, 2)
                chars = section_basis(model, summand, m)
                gens = [(ch, F(rng.randint(0, 2 * m), 2))
                        for ch in rng.sample(chars, min(size, len(chars)))]
                orders = [order for _, order in gens]
                # every generator reaches the least order
                level = (rng.choice(orders) if size == 4 else min(orders)) / m
                seq = MonomialIdealSeq.from_generators({m: gens}, level, summand)
                dims[_region_of_ideal(model, seq).dim] += 1
                assert (monomial_lct(model, seq).value
                        == _containment_lct(model, seq)), (model.name, seq)
    assert set(dims) == {0, 1, 2, 3}, dims


def _public_region(model, seq):
    """The Newton region through the public constructors: the summand's
    half-spaces and the cut through ``HalfSpace.make``, or the hull of the
    generators that reach the level."""
    p = model.summand(seq.summand)
    if seq.eta is not None:
        lam = support_min(model, seq.summand, seq.eta)
        cut = HalfSpace.make(seq.eta, seq.level + lam)
        return ExactPolytope.from_halfspaces(list(p.halfspaces) + [cut], p.rank)
    ((m, gens),) = seq.degrees.items()
    return ExactPolytope.from_vertices([tuple(F(c, m) for c in ch)
                                        for ch, order in gens if order >= seq.level * m])


def test_region_of_ideal_matches_the_public_constructors(models):
    rng = random.Random(53)
    regions, empty = 0, 0
    for model in models.values():
        seqs = [*_valuation_ideals(model, rng, 2), *_generated_ideals(model, rng, 6)]
        # at the maximal slope the region is a face; past it, empty
        for seq in seqs[:4]:
            t = t_invariant(model, seq.summand, seq.eta)
            seqs += [MonomialIdealSeq.valuation_levels(seq.eta, level, seq.summand)
                     for level in (t, t + F(1, 3))]
        for seq in seqs:
            try:
                want = _public_region(model, seq)
            except GeometryError:
                with pytest.raises(ZeroIdeal):
                    _region_of_ideal(model, seq)
                empty += 1
                continue
            got = _region_of_ideal(model, seq)
            assert (got.den, got.nums, got.facets, got.dim) == (
                want.den, want.nums, want.facets, want.dim)
            regions += 1
    assert regions == 388 and empty == 4 * len(models)


def test_lct_generator_outside_the_summand_is_named(p2):
    # (3/2, 3/2) lies past the edge x + y <= 1/2 of the first half of P^2
    seq = MonomialIdealSeq.from_generators({2: [((0, 0), F(2)), ((3, 3), F(2))]},
                                           level=0, summand=0)
    with pytest.raises(ToricError, match=r"^generator \(3/2, 3/2\) outside the "
                                         r"summand polytope$"):
        monomial_lct(p2, seq)


def test_containment_oracle_catches_a_dropped_ray(monkeypatch, p2):
    # (0, -1) is the only candidate ray along which this ideal vanishes, so
    # a ray scan that loses it finds no threshold
    seq = MonomialIdealSeq.valuation_levels((0, -1), 1)
    assert _containment_lct(p2, seq) == monomial_lct(p2, seq).value == 2
    monkeypatch.setattr(toric, "minimize_pl_ratio", lambda values:
                        minimize_pl_ratio([v for v in values if v[0] != (0, -1)]))
    assert monomial_lct(p2, seq).value is None
    assert _containment_lct(p2, seq) == 2
    failed = set()

    def check(name, inputs, lhs, rhs, ok=None):
        if not (lhs == rhs if ok is None else ok):
            failed.add(name)

    _check_identities(p2, random.Random(0), 20, 4, check)
    assert "lct-oracle-agreement" in failed
    with pytest.raises(SuiteFailure):
        identity_suite(p2, samples=20, seed=0)


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
