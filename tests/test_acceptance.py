"""Acceptance suite: one test per criterion, each ending with an explicit
PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Everything asserted here is an exact rational statement; no tolerances are
floating point, and the few decay bounds use constants computed from the
models themselves.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

from oracles import (hull_oracle, interval_oracle, mean_slope_decay_constant,
                     rand_point, shoelace_area, shoelace_centroid)

from ckstab.filtration import (construct, family_degree_grid, graded_basis,
                               numerics, round_weights, twist,
                               valuation_family, valuation_filtration)
from ckstab.geometry import ExactPolytope, centroid, volume
from ckstab.serialize import canonical_json
from ckstab.stability import (SubtorusSpec, coupled_delta, coupled_ding,
                              coupled_futaki, find_destabilizer,
                              identity_suite, reduced_coupled_delta,
                              semistable_verdict, twisted_ratio_profile)
from ckstab.toric import TOTAL

from conftest import CANONICAL

SEED = 20260810


def _canonical_models(models):
    return [(name, models[name]) for name in CANONICAL]


# -------------------------------------------------------------------------
# 1. polytope kernel against brute-force oracles


def test_acceptance_01_polytope_oracles(models):
    started = time.monotonic()
    checked = 0
    for model in models.values():
        for p in (model.anticanonical,) + model.summands:
            if p.rank == 1:
                verts, length, mid = interval_oracle(p.vertices)
                assert list(p.vertices) == verts
                assert volume(p) == length and centroid(p) == mid
            else:
                ccw = hull_oracle(list(p.vertices))
                assert set(p.vertices) == set(ccw)
                assert volume(p) == shoelace_area(ccw)
                assert centroid(p) == shoelace_centroid(ccw)
            back = ExactPolytope.from_halfspaces(list(p.halfspaces), p.rank)
            assert back.vertices == p.vertices
            checked += 1
    rng = random.Random(SEED)
    built = 0
    while built < 200:
        pts = [rand_point(rng) for _ in range(rng.randint(3, 8))]
        poly = ExactPolytope.from_vertices(pts)
        if poly.dim < 2:
            continue
        built += 1
        ccw = hull_oracle(pts)
        assert set(poly.vertices) == set(ccw)
        assert volume(poly) == shoelace_area(ccw)
        assert centroid(poly) == shoelace_centroid(ccw)
        back = ExactPolytope.from_halfspaces(list(poly.halfspaces), 2)
        assert back.vertices == poly.vertices
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: dual description, volume, centroid exact on "
          f"{checked} fixture polytopes and 200 random polygons "
          f"({elapsed:.2f}s)")


# -------------------------------------------------------------------------
# 2. twisted-trivial norms against support values and barycenters


def test_acceptance_02_twist_norm_reconciliation(models):
    from ckstab.geometry import support_value
    checked = 0
    for name, model in _canonical_models(models):
        basis = graded_basis(model, TOTAL, m_max=12, step=1)
        c_model = mean_slope_decay_constant(model)
        dirs = [tuple(1 if j == i else 0 for j in range(model.rank))
                for i in range(model.rank)]
        dirs.append(tuple(1 for _ in range(model.rank)))
        bary = model.barycenter(TOTAL)
        for d in dirs:
            for scalar in (1, -1, 2, -2, 3, -3):
                xi = tuple(scalar * x for x in d)
                f = twist(valuation_filtration(basis, (0,) * model.rank), xi)
                n = numerics(f)
                lam = support_value(model.anticanonical, xi, "max")[0]
                s_lim = sum(b * x for b, x in zip(bary, xi))
                c = c_model * sum(abs(F(x)) for x in xi)
                gaps = {}
                for m in basis.degrees:
                    assert abs(n.t_by_degree[m] - lam) <= F(2, m)
                    gaps[m] = abs(n.s_by_degree[m] - s_lim)
                    assert gaps[m] <= c / m
                assert gaps[12] <= gaps[6]
                checked += 1
    print(f"ACCEPTANCE 2 PASS: finite-degree norms track support data with "
          f"1/m decay and 12-vs-6 monotonicity on {checked} twists")


# -------------------------------------------------------------------------
# 3. the exact identity suite, 100 samples per identity per fixture


REQUIRED_IDENTITIES = [
    "twist-of-valuation-table",            # twisted valuations as shifts
    "s-invariant-twist",
    "log-discrepancy-twist",
    "barycenter-sum-translation-invariance",
    "theta-additivity",
    "a-minus-s-twist",
    "ding-twist",
    "sum-lambda-max-additivity",
    "sum-shift-commutation",
    "sum-twist-commutation",
    "sum-approximation-compatibility",
    "sum-base-change-compatibility",
    "base-change-twist-compatibility",     # base change against twists
    "base-change-slope-scaling",
]


def test_acceptance_03_identity_suite(models):
    total = 0
    for name, model in _canonical_models(models):
        rep = identity_suite(model, samples=100, seed=SEED)
        assert rep.failed == 0
        for key in REQUIRED_IDENTITIES:
            assert rep.cases.get(key, 0) >= 100, (name, key)
        if coupled_futaki(model).vanishes:
            assert rep.cases.get("twist-growth-lower-bound", 0) >= 100
        total += rep.passed
    print(f"ACCEPTANCE 3 PASS: identity suite exact on 4 fixtures, "
          f"{total} checks, 100+ samples per identity, zero failures")


# -------------------------------------------------------------------------
# 4. the toric dichotomy across splits


def test_acceptance_04_toric_dichotomy(models):
    ones = {
        "p1_halves": (F(0),), "p1_skew": (F(0),), "p1_thirds": (F(0),),
        "p2_halves": (F(0), F(0)), "p2_steps": (F(0), F(0)),
        "p1xp1_symmetric": (F(0), F(0)),
    }
    for name, total in ones.items():
        res = coupled_delta(models[name])
        fut = coupled_futaki(models[name])
        assert res.value == 1, name
        assert fut.total == total and fut.vanishes, name
    res = coupled_delta(models["bl1p2_halves"])
    fut = coupled_futaki(models["bl1p2_halves"])
    assert res.value == F(6, 7) and res.witness == (1, 1)
    assert fut.total == (F(1, 12), F(1, 12)) and not fut.vanishes
    print("ACCEPTANCE 4 PASS: threshold 1 on three products and both plane "
          "splits, 6/7 at witness (1,1) with Futaki (1/12,1/12) on the blowup")


# -------------------------------------------------------------------------
# 5. destabilizer soundness


def test_acceptance_05_destabilizer(models):
    res = find_destabilizer(models["bl1p2_halves"])
    assert res is not None
    assert res.eta == (1, 1)
    assert res.ding.value == -F(1, 6)
    # the family the value describes, built on its bases, gives it too
    family = valuation_family(models["bl1p2_halves"], res.eta, m_max=6)
    assert coupled_ding(family).value == -F(1, 6)
    assert coupled_ding(family) == res.ding
    rng = random.Random(SEED)
    sampled = 0
    for name in ("p1_halves", "p1_skew", "p1_thirds", "p2_halves",
                 "p2_steps", "p1xp1_symmetric"):
        model = models[name]
        assert find_destabilizer(model) is None
        for _ in range(20):
            eta = tuple(F(rng.randint(-3, 3), rng.choice([1, 2]))
                        for _ in range(model.rank))
            fam = valuation_family(model, eta, m_max=4)
            assert coupled_ding(fam).value >= 0
            sampled += 1
    print(f"ACCEPTANCE 5 PASS: blowup destabilized by the (1,1) family at "
          f"-1/6; none elsewhere and {sampled} sampled families nonnegative")


# -------------------------------------------------------------------------
# 6. reduced threshold behaviors


def test_acceptance_06_reduced_thresholds(models):
    for name, model in models.items():
        full = reduced_coupled_delta(model, SubtorusSpec.full(model.rank))
        assert full.value is None, name
        triv = reduced_coupled_delta(model, SubtorusSpec.trivial())
        plain = coupled_delta(model)
        assert triv.value == plain.value and triv.witness == plain.witness
    res = reduced_coupled_delta(models["p1xp1_symmetric"],
                                SubtorusSpec(((1, 0),)))
    assert res.value == 1
    print("ACCEPTANCE 6 PASS: reduced threshold +inf at the full torus, "
          "equal to delta at the trivial one, and 1 for the product factor")


# -------------------------------------------------------------------------
# 7. twisted-ray ratio limits


def test_acceptance_07_twisted_ratio_limit(models):
    model = models["bl1p2_halves"]
    exps = (1, 2, 4, 8, 16, 32)

    # The limit-one statement needs the twist direction to pair to zero
    # with the coupled barycenter; the difference of discrepancy and slope
    # sum is constant exactly along such directions.  On this fixture that
    # means xi proportional to (1, -1).
    prof = twisted_ratio_profile(model, (1, 0), (1, -1), exps)
    assert prof.limit == 1
    values = [r for _, r in prof.ratios]
    assert values == [F(48, 49), F(84, 85), F(156, 157),
                      F(300, 301), F(588, 589), F(1164, 1165)]
    diffs = [abs(r - 1) for r in values]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    for (e, _), d in zip(prof.ratios, diffs):
        assert d <= prof.kappa / e
    assert diffs[-1] <= F(1, 32)

    # Along (1, 1) the barycenter pairing grows, so the same ratios instead
    # converge at 1/e rate to the exact ray value 6/7; the table documents
    # why the orthogonality hypothesis above is needed.
    prof2 = twisted_ratio_profile(model, (1, 0), (1, 1), exps)
    assert prof2.limit == F(6, 7)
    values2 = [r for _, r in prof2.ratios]
    assert values2 == [F(8, 9), F(36, 41), F(20, 23),
                       F(108, 125), F(68, 79), F(396, 461)]
    diffs2 = [abs(r - prof2.limit) for r in values2]
    assert all(a > b for a, b in zip(diffs2, diffs2[1:]))
    for (e, _), d in zip(prof2.ratios, diffs2):
        assert d <= prof2.kappa / e
    table = ", ".join(f"e={e}: {r}" for e, r in prof2.ratios)
    print("ACCEPTANCE 7 PASS: ratios along the orthogonal twist rise to 1 "
          "within kappa/e (final gap 1/1165 <= 1/32); along (1,1) they "
          f"converge to the ray value 6/7 [{table}]")


# -------------------------------------------------------------------------
# 8. rounding stability of mean slopes


def test_acceptance_08_rounding_stability(models):
    rng = random.Random(SEED)
    names = sorted(models)
    done = 0
    while done < 50:
        model = models[names[done % len(names)]]
        grid = family_degree_grid(model, 6)
        i = rng.randrange(model.num_summands)
        basis = graded_basis(model, i, m_max=6, step=grid[0])
        table = {m: {a: F(rng.randint(-12, 12), rng.choice([1, 2, 3, 4]))
                     for a in basis.characters(m)} for m in basis.degrees}
        f = construct(basis, table)
        xi = tuple(F(rng.randint(-6, 6), rng.choice([1, 2]))
                   for _ in range(model.rank))
        s_plain = numerics(twist(f, xi)).s_by_degree
        s_round = numerics(twist(round_weights(f), xi)).s_by_degree
        for m in basis.degrees:
            assert abs(s_plain[m] - s_round[m]) <= F(1, m)
        done += 1
    print("ACCEPTANCE 8 PASS: rounding moves twisted mean slopes by at most "
          "1/m on 50 random weight tables, every stored degree")


# -------------------------------------------------------------------------
# 9. determinism and witness tie-breaking


def test_acceptance_09_determinism(models):
    def verify_bytes(model):
        verdict = semistable_verdict(model)
        suite = identity_suite(model, samples=20, seed=SEED)
        return canonical_json({
            "suite": suite.to_dict(),
            "delta": verdict.delta.value,
            "witness": list(verdict.delta.witness),
            "futaki": list(verdict.futaki.total),
        })

    for name in ("p2_steps", "bl1p2_halves"):
        a = verify_bytes(models[name])
        b = verify_bytes(models[name])
        assert a == b and isinstance(a, str)

    # on fixtures where every direction is optimal, the reported witness is
    # the lexicographically least primitive candidate ray
    assert coupled_delta(models["p1xp1_symmetric"]).witness == (-1, 0)
    assert coupled_delta(models["p2_halves"]).witness == (-1, -1)
    assert coupled_delta(models["p1_halves"]).witness == (-1,)
    print("ACCEPTANCE 9 PASS: byte-identical seeded verification reports; "
          "tied witnesses resolve to the lex-least primitive direction")
