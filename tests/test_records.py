"""The value records of the library behave as fixed, comparable values: one
instance of each record class is built twice and checked for equality,
hashing, immutability, its repr and its refusal by the report renderer."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from ckstab.cli import resolve_model_path
from ckstab.filtration import (FiltrationFamily, FiltrationNumerics,
                               GradedBasis, SumDescriptor, ValuationDescriptor,
                               graded_basis, sum_filtration, valuation_family)
from ckstab.geometry import Cone, HalfSpace
from ckstab.optimize import RatioResult
from ckstab.serialize import canonical_json, load_model
from ckstab.stability import (CoupledBarycenter, DeltaResult,
                              DestabilizerResult, DingResult, InnerSup,
                              MuResult, ReducedDeltaResult, ReducedJResult,
                              SubtorusSpec, SuiteReport, TwistRayLimit,
                              VerdictReport)
from ckstab.toric import (TORIC_SEARCH_ASSUMPTION, LctResult,
                          MonomialIdealSeq, ToricFanoModel)


def _model():
    return load_model(resolve_model_path("p1_halves.json"))


_MODEL = _model()
_MEMBERS = valuation_family(_MODEL, (1,), m_max=2).members

MODEL_REPR = (
    "ToricFanoModel(name='p1_halves', rank=1, rays=((-1,), (1,)), "
    "anticanonical=ExactPolytope(dim=1, rank=1, vertices=2), "
    "summands=(ExactPolytope(dim=1, rank=1, vertices=2), "
    "ExactPolytope(dim=1, rank=1, vertices=2)), "
    "barycenters=((Fraction(0, 1),), (Fraction(0, 1),)), "
    "fan=(Cone(generators=((1,),), facets=((1,),)), "
    "Cone(generators=((-1,),), facets=((-1,),))))")
ASSUMPTIONS = f"assumptions=({TORIC_SEARCH_ASSUMPTION!r},)"
DING = ("DingResult(value=Fraction(-1, 3), mu=Fraction(1, 1), "
        "s_values=(Fraction(2, 3), Fraction(2, 3)), delta=Fraction(1, 1), "
        "probe_xi=(Fraction(0, 1),), probe_value=Fraction(-1, 3), "
        "provenance='closed-form')")


def _ding():
    return DingResult(F(-1, 3), F(1), (F(2, 3), F(2, 3)), F(1), (F(0),), F(-1, 3))


# (name, construction, a field, repr, hashable, frozen); hashable is None
# where the class was never hashable, so hashing is not part of its contract,
# and False where its instance holds a dict, so hashing raises TypeError
CASES = [
    ("HalfSpace", lambda: HalfSpace.make((2, 0), 1), "offset",
     "HalfSpace(normal=(1, 0), offset=Fraction(1, 2))", True, True),
    ("Cone", lambda: Cone(((1, 0), (0, 1)), ((1, 0), (0, 1))), "facets",
     "Cone(generators=((1, 0), (0, 1)), facets=((1, 0), (0, 1)))", True, True),
    ("ToricFanoModel", _model, "name", MODEL_REPR, True, True),
    ("MonomialIdealSeq",
     lambda: MonomialIdealSeq.valuation_levels((1,), F(1, 2), summand=0), "level",
     "MonomialIdealSeq(summand=0, level=Fraction(1, 2), eta=(Fraction(1, 1),), "
     "degrees=None)", True, True),
    ("LctResult", lambda: LctResult(F(1, 2), (1,), "closed-form"), "value",
     f"LctResult(value=Fraction(1, 2), witness=(1,), provenance='closed-form', "
     f"{ASSUMPTIONS})", True, True),
    ("RatioResult", lambda: RatioResult(F(1, 2), (1,)), None,
     "RatioResult(value=Fraction(1, 2), witness=(1,))", None, False),
    ("GradedBasis", lambda: graded_basis(_MODEL, 0, m_max=2), "degrees",
     f"GradedBasis(model={MODEL_REPR}, index=0, degrees=(2,), "
     "chars={2: ((-1,), (0,), (1,))})", False, True),
    ("ValuationDescriptor", lambda: ValuationDescriptor((F(2, 4), 1), 3), "den",
     "ValuationDescriptor(eta=(Fraction(1, 2), Fraction(1, 1)), "
     "shift=Fraction(3, 1))", True, True),
    ("SumDescriptor",
     lambda: SumDescriptor((ValuationDescriptor((1,)), ValuationDescriptor((1,), 1))),
     "parts",
     "SumDescriptor(parts=(ValuationDescriptor(eta=(Fraction(1, 1),), "
     "shift=Fraction(0, 1)), ValuationDescriptor(eta=(Fraction(1, 1),), "
     "shift=Fraction(1, 1))))", True, True),
    ("FiltrationFamily", lambda: FiltrationFamily(_MODEL, _MEMBERS), "members",
     f"FiltrationFamily(model={MODEL_REPR}, members=("
     "Filtration(index=0, degrees=(2,), descriptor=ValuationDescriptor("
     "eta=(Fraction(1, 1),), shift=Fraction(0, 1))), "
     "Filtration(index=1, degrees=(2,), descriptor=ValuationDescriptor("
     "eta=(Fraction(1, 1),), shift=Fraction(0, 1)))))", True, True),
    ("FiltrationNumerics",
     lambda: FiltrationNumerics({2: F(1)}, {2: F(1, 2)}, F(1), F(1, 2), F(1, 2),
                                "closed-form"), "provenance",
     "FiltrationNumerics(t_by_degree={2: Fraction(1, 1)}, "
     "s_by_degree={2: Fraction(1, 2)}, lambda_max=Fraction(1, 1), "
     "s_value=Fraction(1, 2), j_value=Fraction(1, 2), provenance='closed-form')",
     False, True),
    ("CoupledBarycenter",
     lambda: CoupledBarycenter(((F(1, 2),), (F(-1, 2),)), (F(0),)), "total",
     "CoupledBarycenter(per_summand=((Fraction(1, 2),), (Fraction(-1, 2),)), "
     "total=(Fraction(0, 1),))", True, True),
    ("SubtorusSpec", lambda: SubtorusSpec.full(2), "basis",
     "SubtorusSpec(basis=((1, 0), (0, 1)))", True, True),
    ("ReducedJResult", lambda: ReducedJResult(F(0), (F(-1), F(0))), "argmin",
     "ReducedJResult(value=Fraction(0, 1), argmin=(Fraction(-1, 1), "
     "Fraction(0, 1)), provenance='optimized-with-certificate')", True, True),
    ("MuResult", lambda: MuResult(None, F(1), F(2), "certified-bounds"), "lo",
     "MuResult(value=None, lo=Fraction(1, 1), hi=Fraction(2, 1), "
     "provenance='certified-bounds')", True, True),
    ("DingResult", _ding, "mu", DING, True, True),
    ("DeltaResult", lambda: DeltaResult(F(3, 4), (1, 0)), "witness",
     "DeltaResult(value=Fraction(3, 4), witness=(1, 0), "
     f"provenance='optimized-with-certificate', {ASSUMPTIONS})", True, True),
    ("VerdictReport",
     lambda: VerdictReport("p1", True, DeltaResult(F(1), (1,)),
                           CoupledBarycenter(((F(0),),), (F(0),)),
                           (TORIC_SEARCH_ASSUMPTION,)), "semistable",
     "VerdictReport(model_name='p1', semistable=True, delta=DeltaResult("
     "value=Fraction(1, 1), witness=(1,), "
     f"provenance='optimized-with-certificate', {ASSUMPTIONS}), "
     "futaki=CoupledBarycenter(per_summand=((Fraction(0, 1),),), "
     f"total=(Fraction(0, 1),)), {ASSUMPTIONS})", True, True),
    ("DestabilizerResult", lambda: DestabilizerResult((1,), _ding()), "eta",
     f"DestabilizerResult(eta=(1,), ding={DING})", True, True),
    ("InnerSup", lambda: InnerSup(F(1), False, None, (F(1), F(0))), "attained",
     "InnerSup(value=Fraction(1, 1), attained=False, argument=None, "
     "recession=(Fraction(1, 1), Fraction(0, 1)))", True, True),
    ("ReducedDeltaResult",
     lambda: ReducedDeltaResult(None, None, None, "closed-form", note="empty"),
     "note",
     "ReducedDeltaResult(value=None, witness=None, inner=None, "
     f"provenance='closed-form', {ASSUMPTIONS}, note='empty')", True, True),
    ("TwistRayLimit", lambda: TwistRayLimit(((1, F(1, 2)),), F(1, 2), F(1), 1),
     "kappa",
     "TwistRayLimit(ratios=((1, Fraction(1, 2)),), limit=Fraction(1, 2), "
     "kappa=Fraction(1, 1), entry=1)", True, True),
    ("SuiteReport", lambda: SuiteReport("p1", 0, 1, 2, 0, {}), None,
     "SuiteReport(model_name='p1', seed=0, samples=1, passed=2, failed=0, "
     "cases={})", None, False),
]


def test_every_record_class_is_covered():
    classes = {HalfSpace, Cone, ToricFanoModel, MonomialIdealSeq, LctResult,
               RatioResult, GradedBasis, ValuationDescriptor, SumDescriptor,
               FiltrationFamily, FiltrationNumerics, CoupledBarycenter,
               SubtorusSpec, ReducedJResult, MuResult, DingResult,
               DeltaResult, VerdictReport, DestabilizerResult, InnerSup,
               ReducedDeltaResult, TwistRayLimit, SuiteReport}
    assert {type(make()) for _, make, *_ in CASES} == classes
    assert [c.__name__ for c in map(type, (m() for _, m, *_ in CASES))] == \
        [name for name, *_ in CASES]


@pytest.mark.parametrize("name,make,attr,text,hashable,frozen", CASES,
                         ids=[c[0] for c in CASES])
def test_record_contract(name, make, attr, text, hashable, frozen):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    # a value of another type is left to its own comparison
    other = (ValuationDescriptor((1,)) if name == "SubtorusSpec"
             else SubtorusSpec.trivial())
    for x in (object(), other):
        assert a.__eq__(x) is NotImplemented and a != x
    if hashable:
        assert hash(a) == hash(b)
    elif hashable is False:
        with pytest.raises(TypeError):
            hash(a)
    if frozen:
        before = getattr(a, attr)
        with pytest.raises(AttributeError):
            setattr(a, attr, before)
        with pytest.raises(AttributeError):
            delattr(a, attr)
        assert getattr(a, attr) is before and a == b
    assert repr(a) == text
    # a record is no report value: its fields are rendered one by one
    with pytest.raises(TypeError):
        canonical_json({"x": a})


def test_model_memos_are_not_compared():
    used = load_model(resolve_model_path("p2_halves.json"))
    sum_filtration(valuation_family(used, (1, 0), m_max=4))
    assert used.bases and used.plans
    fresh = load_model(resolve_model_path("p2_halves.json"))
    assert not fresh.bases and not fresh.plans
    assert used == fresh and hash(used) == hash(fresh)
