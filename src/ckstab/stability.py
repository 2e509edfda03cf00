"""Coupled stability invariants and verdicts for toric Fano models.

The quantities computed here are the coupled Futaki vector (sum of summand
barycenters), twisted and reduced coupled J norms, lc slopes of filtrations,
coupled Ding invariants, coupled stability thresholds and their reduced
(torus-twisted) versions, together with a seeded verification suite that
asserts the exact algebraic identities tying all of these together.

Every numeric output is an exact rational with a provenance marker; every
threshold certificate records that the search ran over torus-invariant
cocharacter valuations.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CkstabError, InputError, InternalInvariantError
from .geometry import (DimensionMismatch, ExactPolytope, Vec, _cramer_vertices,
                       _int_det, _int_directions, _pairings, as_vec, centroid,
                       extreme_rays, mat_rank, primitive_vector, vadd, vdot,
                       vneg, vsub)
from .toric import (TOTAL, TORIC_SEARCH_ASSUMPTION, MonomialIdealSeq,
                    SummandIndex, ToricFanoModel, _containment_lct, _show,
                    log_discrepancy, monomial_lct, s_invariant, support_min,
                    t_invariant, theta_twist, total_s_sum)
from .filtration import (Descriptor, Filtration, FiltrationFamily,
                         SumDescriptor, UnsupportedDescriptor,
                         ValuationDescriptor, _sum_descriptor,
                         _twist_descriptor, approximate,
                         base_change, construct, family_degree_grid,
                         graded_basis, round_weights, shift, sum_filtration,
                         trivial_family, twist, twist_family,
                         valuation_family, valuation_filtration)


class StabilityError(InputError):
    pass


class DegenerateSubtorus(StabilityError):
    pass


class RankTooHigh(StabilityError):
    pass


class SuiteFailure(InternalInvariantError):
    """The identity suite found counterexamples.  The message and the
    attributes name the first one; ``report`` counts every case run, with
    ``failed`` > 0."""

    def __init__(self, identity: str, inputs, lhs, rhs, report: SuiteReport):
        super().__init__(
            f"identity {identity!r} failed on {_show(inputs)}: "
            f"{_show(lhs)} != {_show(rhs)} "
            f"({report.failed} of {report.passed + report.failed} cases failed)")
        self.identity = identity
        self.inputs = inputs
        self.lhs = lhs
        self.rhs = rhs
        self.report = report


CLOSED_FORM = "closed-form"
OPTIMIZED = "optimized-with-certificate"
FINITE_DEGREE = "finite-degree-estimate"


# ---------------------------------------------------------------------------
# coupled Futaki data


@dataclass(frozen=True)
class CoupledBarycenter:
    per_summand: tuple[Vec, ...]
    total: Vec

    @property
    def vanishes(self) -> bool:
        return all(x == 0 for x in self.total)


def coupled_futaki(model: ToricFanoModel) -> CoupledBarycenter:
    """Summand barycenters and their sum; the verdict is ``vanishes``."""
    per = model.barycenters
    return CoupledBarycenter(per, model.barycenter(TOTAL))


# ---------------------------------------------------------------------------
# J norms


def j_twist(model: ToricFanoModel, i: SummandIndex, xi: Sequence) -> Fraction:
    """J norm of the xi-twist of the trivial configuration on one summand
    (or the total polarization): max pairing minus barycenter pairing,
    which is the expectation slope at -xi."""
    return s_invariant(model, i, vneg(as_vec(xi)))


@dataclass(frozen=True)
class SubtorusSpec:
    """A saturated sublattice of the cocharacter lattice, by a basis."""

    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for v in self.basis:
            if not all(isinstance(x, int) for x in v):
                raise DegenerateSubtorus("subtorus basis must be integral")
        if self.basis:
            g = math.gcd(*(_int_det([[v[c] for c in cols] for v in self.basis])
                           for cols in itertools.combinations(
                               range(len(self.basis[0])), len(self.basis))))
            if g == 0:
                raise DegenerateSubtorus("subtorus basis is linearly dependent")
            if g != 1:
                raise DegenerateSubtorus("subtorus basis does not span a "
                                         "saturated sublattice")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def full(rank: int) -> "SubtorusSpec":
        return SubtorusSpec(tuple(tuple(1 if j == i else 0 for j in range(rank))
                                  for i in range(rank)))

    @staticmethod
    def trivial() -> "SubtorusSpec":
        return SubtorusSpec(())

    def contains_direction(self, v: Sequence) -> bool:
        if self.basis and len(v) != len(self.basis[0]):
            raise DimensionMismatch(f"rank {len(self.basis[0])} vs {len(v)}")
        return mat_rank(list(self.basis) + [v]) == self.dim


@dataclass(frozen=True)
class ReducedJResult:
    value: Fraction
    argmin: Vec
    provenance: str = OPTIMIZED


def _slice_cells(model: ToricFanoModel, base: Vec, W: Sequence[Vec]):
    """The cells in which the fan cuts the slice base + span(W), cone by cone
    in fan order, in the twist coordinates t of base + sum t_j w_j.

    A cell is its cone's facet system in those coordinates, so every point
    of it lies in the cone: the facet n holds at base + sum t_j w_j when
    sum t_j <n, w_j> >= -<n, base>, an integer row once base and W are
    scaled to one denominator.  Each cell is given as the index of its cone
    in ``model.fan``, its vertices, in increasing lexicographic order, and
    the integer inner normals of its facets, whose ``extreme_rays`` are its
    recession directions.  Cones the slice misses are skipped.
    """
    _, (b, *ws) = _int_directions([base, *W], model.rank)
    for k, cone in enumerate(model.fan):
        rows = [(tuple(_pairings(ws, n)), -vdot(n, b)) for n in cone.facets]
        if any(c > 0 and not any(a) for a, c in rows):
            continue
        rows = [(a, c) for a, c in rows if any(a)]
        den, nums = _cramer_vertices(1, rows, len(W))
        yield (k, [tuple([Fraction(x, den) for x in n]) for n in nums],
               [a for a, _ in rows])


def _combine(t: Sequence, W: Sequence[Vec], rank: int) -> Vec:
    """sum t_j w_j."""
    return tuple(sum((tj * w[c] for tj, w in zip(t, W)), Fraction(0))
                 for c in range(rank))


def reduced_coupled_j(model: ToricFanoModel, xi0: Sequence,
                      sub: Optional[SubtorusSpec] = None) -> ReducedJResult:
    """Infimum over twists xi in the subtorus of the summed J norms of the
    twisted-trivial family at base xi0, and a twist attaining it.

    The summed J norm at x = xi0 + xi is max_P <., x> - <b, x>, the summed
    expectation slope at -x (P is the certified sum of the summands and b
    the coupled barycenter).  That function is linear on each fan cone and
    grows at least like a multiple of |x|, because b lies inside P, so its
    minimum over the slice -xi0 + span(W) is attained at a vertex of a
    cell in which the fan cuts the slice.  Writing -x = -xi0 + sum s_j w_j,
    a tied minimum goes to the lexicographically least s, that is to the
    greatest twist coordinates t = -s in xi = sum t_j w_j.  Over the full
    torus the infimum is zero, attained at minus the base twist.
    """
    xi0 = as_vec(xi0)
    if sub is None:
        sub = SubtorusSpec.full(model.rank)
    W = [as_vec(w) for w in sub.basis]
    base = vneg(xi0)
    verts = {s for _, cell, _ in _slice_cells(model, base, W) for s in cell}
    if not verts:
        raise InternalInvariantError("J slice met no fan cone; fan incomplete")
    value, s = min((total_s_sum(model, vadd(base, _combine(s, W, model.rank))), s)
                   for s in verts)
    return ReducedJResult(value, vneg(_combine(s, W, model.rank)))


# ---------------------------------------------------------------------------
# lc slopes and coupled Ding invariants


@dataclass(frozen=True)
class MuResult:
    value: Optional[Fraction]
    lo: Fraction
    hi: Fraction
    provenance: str


def _slope_parameter(delta) -> Fraction:
    delta = Fraction(delta)
    if delta <= 0:
        raise StabilityError("slope parameter must be positive")
    return delta


def _closed_form_mu(model: ToricFanoModel, d: Descriptor,
                    delta: Fraction) -> tuple[Fraction, bool]:
    """The delta-lc slope of a filtration with a valuation descriptor, and
    whether it is exact: ``A(eta)/delta + shift`` for delta >= 1, and for
    delta < 1 the certified lower bound ``A(eta) + shift`` (see
    :func:`mu_slope`).  A sum of distinct directions has no certified
    slope."""
    if isinstance(d, SumDescriptor):
        raise UnsupportedDescriptor(
            "no certified lc slope for sums of distinct valuation directions")
    a = log_discrepancy(model, d.eta)
    if delta >= 1:
        return a / delta + d.shift, True
    return a + d.shift, False


def mu_slope(f: Filtration, delta) -> MuResult:
    """The delta-lc slope of a filtration.

    For a shifted cocharacter-valuation filtration and slope delta >= 1
    this is exactly ``A(eta)/delta + shift``: the threshold of the level-t
    ideal family equals A(eta)/t for t up to A(eta), because the superlevel
    regions interpolate convexly between the whole polytope and the region
    through the origin, while above A(eta) the witness direction caps the
    threshold below delta.  For delta < 1 that closed form can overshoot,
    so only the certified interval [A + shift, maximal slope + shift] is
    returned.  For an opaque weight table the interval refers to the
    multiplicative closure of the stored degrees: the lower end comes from
    per-degree threshold tests, the upper end from the maximal stored
    slope.
    """
    delta = _slope_parameter(delta)
    d = f.descriptor
    model = f.basis.model
    if d is not None:
        mu, exact = _closed_form_mu(model, d, delta)
        if exact:
            return MuResult(mu, mu, mu, CLOSED_FORM)
        lam = t_invariant(model, f.basis.index, d.eta) + d.shift
        return MuResult(None, mu, lam, "certified-bounds")
    lo = None
    hi = None
    for m in f.basis.degrees:
        row = f.weights[m]
        t_m = max(row.values()) / m
        hi = t_m if hi is None else max(hi, t_m)
        levels = sorted({w / m for w in row.values()})
        best = None
        for t in levels:
            seq = MonomialIdealSeq.from_generators(
                {m: [(a, w) for a, w in row.items()]}, level=t,
                summand=f.basis.index)
            res = monomial_lct(model, seq, degree=m)
            if res.value is None or res.value >= delta:
                best = t
            else:
                break
        if best is not None:
            lo = best if lo is None else max(lo, best)
    if lo is None:
        lo = min(w / m for m, row in f.weights.items() for w in row.values())
    return MuResult(None, lo, hi, FINITE_DEGREE)


@dataclass(frozen=True)
class DingResult:
    value: Fraction
    mu: Fraction
    s_values: tuple[Fraction, ...]
    delta: Fraction
    probe_xi: Vec
    probe_value: Fraction
    provenance: str = CLOSED_FORM


def coupled_ding(fam: FiltrationFamily, delta=Fraction(1)) -> DingResult:
    """Coupled Ding invariant of a family of filtrations, read from its
    member descriptors by :func:`ding_of_descriptors`."""
    return ding_of_descriptors(fam.model, [f.descriptor for f in fam.members],
                               delta)


def ding_of_descriptors(model: ToricFanoModel, parts: Sequence[Descriptor],
                        delta) -> DingResult:
    """Coupled Ding invariant of a family whose member i carries the
    descriptor ``parts[i]``, at one direction eta: the lc slope of the sum
    filtration minus the summed expectation slopes of the members.  The lc
    slope is ``A(eta)/delta`` plus the summed shifts, and member i
    contributes ``S_i(eta)`` plus its shift; no basis, weight table or sum
    of tables is built.

    For slope >= 1 the value is exact.  For smaller slopes the lc slope is
    only bounded, and the returned value is the certified lower bound, with
    the provenance field saying so.  At slope one the twist identity is
    evaluated at a probe direction, from the twisted descriptors, and
    checked against the direct computation, so every exact value has
    passed one internal cross-validation.
    """
    delta = _slope_parameter(delta)

    def terms(parts):
        # the lc slope of the sum, whether it is exact, and the member slopes
        d = _sum_descriptor(parts)
        if d is None:
            raise UnsupportedDescriptor("coupled Ding needs a certified lc slope")
        mu, exact = _closed_form_mu(model, d, delta)
        return mu, exact, tuple(s_invariant(model, i, p.eta) + p.shift
                                for i, p in enumerate(parts))

    mu, exact, s_vals = terms(parts)
    value = mu - sum(s_vals, Fraction(0))
    probe = tuple(Fraction(1) for _ in range(model.rank))
    t_mu, _, t_s = terms([_twist_descriptor(model, i, d, probe)
                          for i, d in enumerate(parts)])
    probe_value = t_mu - sum(t_s, Fraction(0))
    if delta == 1:
        # the barycenter twist rule is a slope-one identity
        b = model.barycenter(TOTAL)
        if probe_value != value - vdot(b, probe):
            raise InternalInvariantError("twist identity cross-validation failed")
    return DingResult(value, mu, s_vals, delta, probe, probe_value,
                      provenance=CLOSED_FORM if exact else "lower-bound")


# ---------------------------------------------------------------------------
# thresholds


@dataclass(frozen=True)
class DeltaResult:
    value: Fraction
    witness: tuple[int, ...]
    provenance: str = OPTIMIZED
    assumptions: tuple[str, ...] = (TORIC_SEARCH_ASSUMPTION,)


def coupled_delta(model: ToricFanoModel) -> DeltaResult:
    """Coupled stability threshold: the infimum over nonzero cocharacter
    directions of log discrepancy over summed expectation slopes.

    Both functions are linear on each fan cone, so the infimum is attained
    on a ray of the fan.  There the log discrepancy is one, as
    ``build_model`` checks that every ray is a facet normal of the
    anticanonical polytope at level -1, and the summed slope is
    ``1 + <b, rho>`` for the coupled barycenter b.  So the threshold is the
    least ``1 / (1 + <b, rho>)``, at the least ray on a tie."""
    den = model.bary_den
    # bary_den times the summed slope along each ray, in sorted ray order
    slopes = [den + vdot(model.bary_nums[-1], rho) for rho in model.rays]
    if min(slopes) <= 0:
        raise InternalInvariantError("summed slope not positive on a fan ray")
    k = slopes.index(max(slopes))
    return DeltaResult(Fraction(den, slopes[k]), model.rays[k])


@dataclass(frozen=True)
class VerdictReport:
    model_name: str
    semistable: bool
    delta: DeltaResult
    futaki: CoupledBarycenter
    assumptions: tuple[str, ...]


def semistable_verdict(model: ToricFanoModel) -> VerdictReport:
    """Semistability verdict (threshold >= 1) plus the exact toric
    dichotomy: the threshold is one exactly when the coupled Futaki vector
    vanishes, and below one with a strictly pairing witness otherwise."""
    d = coupled_delta(model)
    fut = coupled_futaki(model)
    if fut.vanishes:
        if d.value != 1:
            raise InternalInvariantError(
                f"dichotomy violated: vanishing Futaki but threshold {d.value}")
    else:
        if not (d.value < 1 and vdot(fut.total, d.witness) > 0):
            raise InternalInvariantError(
                "dichotomy violated: nonvanishing Futaki but "
                f"threshold {d.value} at {d.witness}")
    return VerdictReport(model.name, d.value >= 1, d, fut, d.assumptions)


@dataclass(frozen=True)
class DestabilizerResult:
    eta: tuple[int, ...]
    ding: DingResult


def find_destabilizer(model: ToricFanoModel, m_max: int = 6) -> Optional[DestabilizerResult]:
    """If the threshold is below one, the witness direction, with the
    (strictly negative) coupled Ding value of its valuation family.  The
    degree cap is checked first, so a semistable model rejects the caps
    that an unstable one does.  The value reads only the descriptors of
    the family's members, so no member is built."""
    family_degree_grid(model, m_max)
    d = coupled_delta(model)
    if d.value >= 1:
        return None
    eta = as_vec(d.witness)
    ding = ding_of_descriptors(
        model, [ValuationDescriptor(eta)] * model.num_summands, Fraction(1))
    if ding.value >= 0:
        raise InternalInvariantError("witness family failed to destabilize")
    return DestabilizerResult(d.witness, ding)


# ---------------------------------------------------------------------------
# reduced threshold


@dataclass(frozen=True)
class InnerSup:
    value: Fraction
    attained: bool
    argument: Optional[Vec]          # eta + xi achieving the value
    recession: Optional[Vec]         # direction approaching it, if not attained


def _ratio_at(model: ToricFanoModel, z: Sequence) -> Fraction:
    a = log_discrepancy(model, z)
    s = total_s_sum(model, z)
    if s <= 0:
        raise StabilityError(f"nonpositive slope sum at {tuple(z)}")
    return a / s


def inner_twist_sup(model: ToricFanoModel, sub: SubtorusSpec,
                    eta: Sequence) -> InnerSup:
    """Exact sup over subtorus twists xi of the ratio at eta + xi.

    Per fan cone the ratio is linear-fractional in the twist parameters
    with positive denominator, so the supremum over each cell is attained
    at a vertex or approached along an extreme recession direction, whose
    limit value is the ratio at the direction itself.

    Candidates come cone by cone in fan order: first the cell's vertices,
    in increasing lexicographic order of their twist coordinates, then its
    recession directions.  A candidate replaces the best so far only with a
    larger value, or with an equal attained value against an unattained
    one, so on a tie inside a cone ``argument`` is at the least twist.
    """
    eta = as_vec(eta)
    if len(eta) != model.rank:
        raise DimensionMismatch(f"rank {model.rank} vs {len(eta)}")
    if sub.contains_direction(eta):
        raise StabilityError("slice direction lies in the subtorus")
    W = [as_vec(w) for w in sub.basis]
    s = len(W)
    if s == 0:
        return InnerSup(_ratio_at(model, eta), True, eta, None)
    best: Optional[InnerSup] = None

    def consider(cand: InnerSup):
        nonlocal best
        if best is None or cand.value > best.value or (
                cand.value == best.value and not best.attained and cand.attained):
            best = cand

    for _, verts, normals in _slice_cells(model, eta, W):
        for t in verts:
            z = vadd(eta, _combine(t, W, model.rank))
            consider(InnerSup(_ratio_at(model, z), True, z, None))
        # the cell has no lineality, because the facet normals span and the
        # subtorus basis is independent, so each recession direction maps
        # to a nonzero vector of the cone
        for d in extreme_rays(normals, s):
            zd = _combine(d, W, model.rank)
            consider(InnerSup(_ratio_at(model, zd), False, None, zd))
    if best is None:
        raise InternalInvariantError("twist slice met no fan cone; fan incomplete")
    return best


@dataclass(frozen=True)
class ReducedDeltaResult:
    value: Optional[Fraction]        # None encodes +infinity
    witness: Optional[tuple[int, ...]]
    inner: Optional[InnerSup]
    provenance: str
    assumptions: tuple[str, ...] = (TORIC_SEARCH_ASSUMPTION,)
    note: str = ""


def reduced_coupled_delta(model: ToricFanoModel, sub: SubtorusSpec) -> ReducedDeltaResult:
    """Reduced coupled stability threshold with respect to a subtorus.

    For the full torus every cocharacter valuation is a twist of the
    trivial one, the infimum runs over an empty set, and the value is plus
    infinity.  For the trivial subtorus no twisting is allowed and the
    value equals the plain threshold.  In rank two with a one-dimensional
    subtorus the quotient of slice directions is one-dimensional, so the
    two primitive coset representatives give the exact infimum.
    """
    rank = model.rank
    for v in sub.basis:
        if len(v) != rank:
            raise DegenerateSubtorus("subtorus basis rank mismatch")
    if sub.dim == rank:
        return ReducedDeltaResult(
            None, None, None, CLOSED_FORM,
            note="every invariant valuation is a twist of the trivial one; "
                 "the infimum runs over an empty set")
    if sub.dim == 0:
        d = coupled_delta(model)
        return ReducedDeltaResult(d.value, d.witness,
                                  InnerSup(d.value, True, as_vec(d.witness), None),
                                  d.provenance)
    if rank > 2:
        raise RankTooHigh("exact reduced threshold implemented for rank <= 2; "
                          "use sampled bounds instead")
    # rank 2, one-dimensional subtorus: complete the basis unimodularly
    w = sub.basis[0]
    g, x, y = _ext_gcd(w[0], w[1])
    if g not in (1, -1):
        raise DegenerateSubtorus("subtorus direction is not primitive")
    # det(w, (y, -x)) = -(w0 x + w1 y) = -g, so (y, -x) completes w to a
    # lattice basis and its two signs represent all slice cosets
    eta0 = (y, -x)
    best_val: Optional[Fraction] = None
    best_dir = None
    best_inner = None
    for cand in (eta0, tuple(-c for c in eta0)):
        inner = inner_twist_sup(model, sub, cand)
        if best_val is None or inner.value < best_val or (
                inner.value == best_val and cand < best_dir):
            best_val, best_dir, best_inner = inner.value, cand, inner
    note = "" if best_inner.attained else (
        "inner supremum approached along a recession twist direction")
    return ReducedDeltaResult(best_val, primitive_vector(best_dir), best_inner,
                              OPTIMIZED, note=note)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


# ---------------------------------------------------------------------------
# distances (squared, exact) for the growth bound


def inradius_squared(p: ExactPolytope, point: Sequence) -> Fraction:
    """Squared distance from an interior point to the polytope boundary."""
    point = as_vec(point)
    return min((vdot(point, a) - Fraction(c, p.den)) ** 2 / vdot(a, a)
               for a, c in p.facets)


# ---------------------------------------------------------------------------
# ratio limit along twisted rays


@dataclass(frozen=True)
class TwistRayLimit:
    ratios: tuple[tuple[int, Fraction], ...]
    limit: Fraction
    kappa: Fraction
    entry: int                       # exponent from which one cone holds


def twisted_ratio_profile(model: ToricFanoModel, eta: Sequence, xi: Sequence,
                          exponents: Sequence[int]) -> TwistRayLimit:
    """Exact ratios A/(sum of S) at eta + e*xi, their asymptotic value, and
    a certified 1/e rate constant.

    For large e the point lies in one fan cone, where both functions are
    linear, so the ratio is a Moebius function of e; the limit is the ratio
    at xi and the deviation is bounded by kappa/e from the cone entry on.
    """
    eta, xi = as_vec(eta), as_vec(xi)
    if not any(xi):
        raise StabilityError("the twist direction must be nonzero")
    ratios = tuple((e, _ratio_at(model, tuple(h + e * x for h, x in zip(eta, xi))))
                   for e in sorted(exponents))
    # on the line eta + t xi, a cell whose facet rows all grow with t holds
    # the ray from its one vertex t on
    for idx, verts, normals in _slice_cells(model, eta, [xi]):
        if all(a >= 0 for (a,) in normals):
            break
    else:
        raise InternalInvariantError("no fan cone absorbs the twisted ray")
    a_form = vneg(model.total_forms[idx])
    b = model.barycenter(TOTAL)
    s_form = vsub(b, model.total_forms[idx])
    a1, a2 = vdot(a_form, eta), vdot(a_form, xi)
    s1, s2 = vdot(s_form, eta), vdot(s_form, xi)
    if s2 <= 0:
        # the coupled barycenter is interior, so no nonzero xi gets here
        raise InternalInvariantError("slope sum does not grow along the twist")
    limit = a2 / s2
    cross = abs(a1 * s2 - a2 * s1)
    entry_int = max(1, math.ceil(verts[0][0]))
    if s1 >= 0:
        kappa = cross / (s2 * s2)
    else:
        entry_int = max(entry_int, -int(2 * s1 // s2) + 1)
        kappa = 2 * cross / (s2 * s2)
    for e, r in ratios:
        if e >= entry_int and abs(r - limit) * e > kappa:
            raise InternalInvariantError("rate certificate violated; internal bug")
    return TwistRayLimit(ratios, limit, kappa, entry_int)


# ---------------------------------------------------------------------------
# the identity suite


@dataclass
class SuiteReport:
    model_name: str
    seed: int
    samples: int
    passed: int
    failed: int
    cases: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "failed": self.failed,
            "cases": dict(sorted(self.cases.items())),
        }


def _rand_frac(rng: random.Random, span: int = 3) -> Fraction:
    den = rng.choice([1, 2, 3, 4])
    return Fraction(rng.randint(-span * den, span * den), den)


def _rand_vec(rng: random.Random, rank: int, span: int = 3) -> Vec:
    return tuple(_rand_frac(rng, span) for _ in range(rank))


def _rand_int_vec(rng: random.Random, rank: int, span: int = 3,
                  nonzero: bool = False) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-span, span) for _ in range(rank))
        if not nonzero or any(x != 0 for x in v):
            return v


def identity_suite(model: ToricFanoModel, samples: int = 100, seed: int = 0,
                   m_max: int = 4) -> SuiteReport:
    """Run every exact identity check on seeded samples.

    Each check is one exact rational equality or inequality, counted as one
    case of its identity.  Every check runs; a failed one is recorded, not
    raised.  If any failed, :class:`SuiteFailure` is raised at the end: its
    message gives the first counterexample (inputs and both sides; for a
    weight-table identity, the first entry where the tables differ) and the
    failure count, and its ``report`` holds every count.  A ckstab error
    raised by a library call after a failed check becomes that
    ``SuiteFailure``.  The report counts the checked cases per identity and
    is byte-stable for a fixed model, seed, and sample count.
    """
    if samples < 1:
        raise StabilityError(f"sample count must be at least 1, got {samples}")
    cases: dict[str, int] = {}
    failures: list[tuple] = []

    def check(name: str, inputs, lhs, rhs, ok: Optional[bool] = None):
        cases[name] = cases.get(name, 0) + 1
        if not (lhs == rhs if ok is None else ok):
            failures.append((name, inputs, lhs, rhs))

    error = None
    try:
        _check_identities(model, random.Random(seed), samples, m_max, check)
    except CkstabError as exc:
        if not failures:
            raise
        error = exc
    total = sum(cases.values())
    report = SuiteReport(model.name, seed, samples, passed=total - len(failures),
                         failed=len(failures), cases=cases)
    if failures:
        raise SuiteFailure(*failures[0], report) from error
    return report


def _check_identities(model: ToricFanoModel, rng: random.Random, samples: int,
                      m_max: int, check) -> None:
    """Run every identity on seeded samples, passing each case to ``check``."""
    rank = model.rank
    k = model.num_summands
    grid = family_degree_grid(model, m_max)
    bases = [graded_basis(model, i, m_max=m_max, step=grid[0]) for i in range(k)]
    b_total = model.barycenter(TOTAL)

    def check_tables(name: str, inputs, lhs: Filtration, rhs: Filtration):
        # a failure shows the first entry where the tables differ, or both
        # filtrations when they are on different summands
        ok = lhs.table_equal(rhs)
        diff = None if ok else lhs.first_difference(rhs)
        if diff is not None:
            m, alpha, x, y = diff
            lhs, rhs = {m: {alpha: x}}, {m: {alpha: y}}
        check(name, inputs, lhs, rhs, ok=ok)

    # cached-barycenter consistency; this is what fault injection trips
    for i in range(k):
        check("barycenter-cache-consistency", (model.name, i),
              centroid(model.summands[i]), model.barycenters[i])

    for case in range(samples):
        eta = _rand_vec(rng, rank)
        xi = _rand_vec(rng, rank)
        eta_xi = tuple(a + b for a, b in zip(eta, xi))
        a_eta = log_discrepancy(model, eta)
        a_eta_xi = log_discrepancy(model, eta_xi)
        s_eta = total_s_sum(model, eta)

        # twist correction additivity over the decomposition
        check("theta-additivity", (eta, xi),
              theta_twist(model, TOTAL, eta, xi),
              sum((theta_twist(model, i, eta, xi) for i in range(k)),
                  Fraction(0)))

        # expectation slope under twisting
        for i in range(k):
            check("s-invariant-twist", (i, eta, xi),
                  s_invariant(model, i, eta_xi),
                  s_invariant(model, i, eta) + vdot(model.barycenters[i], xi)
                  + theta_twist(model, i, eta, xi))

        # log discrepancy under twisting
        check("log-discrepancy-twist", (eta, xi),
              a_eta_xi - a_eta, theta_twist(model, TOTAL, eta, xi))

        # discrepancy minus slope sum is twist-equivariant via the barycenter
        check("a-minus-s-twist", (eta, xi),
              a_eta_xi - total_s_sum(model, eta_xi),
              a_eta - s_eta - vdot(b_total, xi))

        # homogeneity
        e = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
        scaled = tuple(e * x for x in eta)
        check("degree-one-homogeneity", (eta, e),
              log_discrepancy(model, scaled), e * a_eta)
        check("degree-one-homogeneity", (eta, e),
              total_s_sum(model, scaled), e * s_eta)

        # reflexive duality
        check("reflexive-support-duality", (eta,),
              support_min(model, TOTAL, eta), -a_eta)

        # barycenter sum is invariant under balanced retranslations
        shifts = [_rand_vec(rng, rank, span=2) for _ in range(k - 1)]
        shifts.append(tuple(-sum((s[j] for s in shifts), Fraction(0))
                            for j in range(rank)))
        moved = [centroid(model.summands[i].translate(shifts[i])) for i in range(k)]
        check("barycenter-sum-translation-invariance", tuple(shifts),
              tuple(sum(c[j] for c in moved) for j in range(rank)), b_total)

    # table identities on a smaller sample budget per case, same totals
    for case in range(samples):
        eta = _rand_vec(rng, rank, span=2)
        xi = _rand_vec(rng, rank, span=2)
        i = rng.randrange(k)
        f = valuation_filtration(bases[i], eta)

        th = theta_twist(model, i, eta, xi)
        lhs = twist(f, xi)
        rhs = shift(valuation_filtration(bases[i],
                                         tuple(a + b for a, b in zip(eta, xi))),
                    -th)
        check_tables("twist-of-valuation-table", (i, eta, xi), lhs, rhs)

        # shift composition and twist inversion
        c1, c2 = _rand_frac(rng), _rand_frac(rng)
        check_tables("shift-composition", (i, c1, c2),
                     shift(shift(f, c1), c2), shift(f, c1 + c2))
        check_tables("twist-inversion", (i, xi), twist(twist(f, xi), vneg(xi)), f)

    suite_etas = [_rand_vec(rng, rank, span=2) for _ in range(samples)]
    dres = coupled_delta(model)
    dprime = dres.value - min(Fraction(dres.value, 10), Fraction(1, 10))
    for sample_no, eta in enumerate(suite_etas):
        fam = FiltrationFamily(model, tuple(
            valuation_filtration(bases[i], eta) for i in range(k)))
        total = sum_filtration(fam)

        # maximal slope additivity, degree by degree
        for m in grid:
            check("sum-lambda-max-additivity", (eta, m), total.row_max(m),
                  sum((f.row_max(m) for f in fam.members), Fraction(0)))

        # mixed directions per summand keep the additivity
        etas = [_rand_vec(rng, rank, span=2) for _ in range(k)]
        fam_mixed = FiltrationFamily(model, tuple(
            valuation_filtration(bases[i], etas[i]) for i in range(k)))
        total_mixed = sum_filtration(fam_mixed)
        for m in grid:
            check("sum-lambda-max-additivity", (tuple(etas), m),
                  total_mixed.row_max(m),
                  sum((f.row_max(m) for f in fam_mixed.members), Fraction(0)))

        # shift and twist commute with the sum
        cs = [_rand_frac(rng) for _ in range(k)]
        xi = _rand_vec(rng, rank, span=2)
        lhs = sum_filtration(FiltrationFamily(model, tuple(
            shift(f, c) for f, c in zip(fam_mixed.members, cs))))
        rhs = shift(total_mixed, sum(cs, Fraction(0)))
        check_tables("sum-shift-commutation", (tuple(etas), tuple(cs)), lhs, rhs)
        lhs = sum_filtration(twist_family(fam_mixed, xi))
        rhs = twist(total_mixed, xi)
        check_tables("sum-twist-commutation", (tuple(etas), xi), lhs, rhs)

        # approximation commutes with the sum
        m0 = grid[0]
        lhs = sum_filtration(FiltrationFamily(model, tuple(
            approximate(f, m0) for f in fam_mixed.members)))
        rhs = approximate(total_mixed, m0)
        check_tables("sum-approximation-compatibility", (tuple(etas), m0),
                     lhs, rhs)

        # base change commutes with the sum, and with integral twists
        int_eta = _rand_int_vec(rng, rank, span=2)
        fam_int = FiltrationFamily(model, tuple(
            valuation_filtration(bases[i], int_eta) for i in range(k)))
        e = rng.choice([2, 3])
        lhs = sum_filtration(FiltrationFamily(model, tuple(
            base_change(f, e) for f in fam_int.members)))
        rhs = base_change(sum_filtration(fam_int), e)
        check_tables("sum-base-change-compatibility", (int_eta, e), lhs, rhs)
        int_xi = _rand_int_vec(rng, rank, span=2)
        for f in fam_int.members:
            f_e = base_change(f, e)
            check_tables("base-change-twist-compatibility",
                         (f.basis.index, int_eta, int_xi, e),
                         twist(f_e, tuple(e * x for x in int_xi)),
                         base_change(twist(f, int_xi), e))
            for m in grid:
                check("base-change-slope-scaling", (f.basis.index, e, m),
                      f_e.mean_slope(m), e * f.mean_slope(m))

        # coupled Ding twist rule, direct against formula; the values are
        # descriptor-driven, so a single-degree grid suffices for the tables
        xi2 = _rand_vec(rng, rank, span=2)
        fam_small = valuation_family(model, eta, m_max=grid[0])
        base_ding = coupled_ding(fam_small)
        twisted = coupled_ding(twist_family(fam_small, xi2))
        check("ding-twist", (eta, xi2),
              twisted.value, base_ding.value - vdot(b_total, xi2))

        # one-sided threshold consistency: slightly below the threshold a
        # twist restores nonnegativity of the coupled Ding invariant
        if sample_no % 5 == 0 and dprime > 0 and any(x != 0 for x in eta):
            if all(x == 0 for x in b_total):
                val = coupled_ding(fam_small, delta=dprime).value
                check("reduced-ding-threshold-consistency",
                      (eta, dprime), val, 0, ok=val >= 0)
            else:
                # twisting against the coupled barycenter restores the
                # (certified lower bound of the) Ding invariant to >= 0
                bb = vdot(b_total, b_total)
                t = max(Fraction(0), vdot(b_total, eta) / bb) + 1
                xi_fix = tuple(-t * x for x in b_total)
                val = coupled_ding(twist_family(fam_small, xi_fix),
                                   delta=dprime).value
                check("reduced-ding-threshold-consistency",
                      (eta, dprime, xi_fix), val, 0, ok=val >= 0)

    # growth lower bound for twisted sums on vanishing-Futaki models
    if all(x == 0 for x in b_total):
        c2 = inradius_squared(model.anticanonical,
                              tuple(Fraction(0) for _ in range(rank)))
        fam = trivial_family(model, m_max=m_max)
        for _ in range(samples):
            cshift = _rand_frac(rng)
            shifted = FiltrationFamily(model, tuple(
                shift(f, cshift) for f in fam.members))
            total = sum_filtration(shifted)
            e_minus = min(total.row_min(m) / m for m in total.basis.degrees)
            xi = _rand_vec(rng, rank, span=3)
            tw = twist(total, xi)
            for m in grid:
                t_m = tw.row_max(m) / m
                gap = t_m - e_minus
                check("twist-growth-lower-bound", (cshift, xi, m),
                      gap * gap, c2 * vdot(xi, xi),
                      ok=gap >= 0 and gap * gap >= c2 * vdot(xi, xi))

    # twisted-ray ratio limits
    exps = (1, 2, 4, 8, 16)

    def safe_base(xi_dir):
        # a base point that never cancels the twisted ray at a tested exponent
        while True:
            cand = _rand_vec(rng, rank, span=2)
            if all(any(h + e * x != 0 for h, x in zip(cand, xi_dir))
                   for e in exps):
                return cand

    for _ in range(max(1, samples // 20)):
        xi = _futaki_orthogonal_direction(model, rng)
        if xi is not None:
            eta = safe_base(xi)
            prof = twisted_ratio_profile(model, eta, xi, exps)
            vals = [r for e, r in prof.ratios if e >= prof.entry]
            diffs = [abs(r - 1) for r in vals]
            check("twisted-ratio-limit", (eta, xi),
                  (prof.limit, diffs), (Fraction(1), "monotone"),
                  ok=prof.limit == 1
                  and all(a >= b for a, b in zip(diffs, diffs[1:])))
        xi2 = _rand_int_vec(rng, rank, span=2, nonzero=True)
        prof = twisted_ratio_profile(model, safe_base(xi2), xi2, exps)
        check("twisted-ratio-ray-value", (xi2,),
              prof.limit, _ratio_at(model, xi2))

    # reduced J of a twisted-trivial family vanishes at the cancelling twist
    for _ in range(max(1, samples // 20)):
        xi0 = _rand_vec(rng, rank, span=3)
        res = reduced_coupled_j(model, xi0)
        check("reduced-j-twist-cancellation", (xi0,), res.value, Fraction(0))

    # rounding stability of the mean slopes under twisting
    for _ in range(max(1, samples // 10)):
        i = rng.randrange(k)
        table = {m: {a: _rand_frac(rng, span=2) for a in bases[i].characters(m)}
                 for m in grid}
        f = construct(bases[i], table)
        xi = _rand_vec(rng, rank, span=2)
        plain, rounded = twist(f, xi), twist(round_weights(f), xi)
        for m in grid:
            gap = abs(plain.mean_slope(m) - rounded.mean_slope(m))
            check("rounding-mean-slope-stability", (i, m),
                  gap, Fraction(1, m), ok=gap <= Fraction(1, m))

    # lc slope closed form against the containment oracle, and shift rule
    for _ in range(max(1, samples // 20)):
        eta_i = _rand_int_vec(rng, rank, span=2, nonzero=True)
        a_eta = log_discrepancy(model, eta_i)
        # up to level A(eta) the direction computes its own threshold
        level = Fraction(rng.randint(1, 4), 4) * a_eta
        if level > 0:
            seq = MonomialIdealSeq.valuation_levels(eta_i, level)
            res = monomial_lct(model, seq)
            check("lct-closed-form", (eta_i, level), res.value, a_eta / level)
            check("lct-oracle-agreement", (eta_i, level),
                  _containment_lct(model, seq), res.value)
        # above that level the direction still caps the threshold
        t_max = t_invariant(model, TOTAL, eta_i)
        if t_max > a_eta:
            high = (a_eta + t_max) / 2
            res_hi = monomial_lct(
                model, MonomialIdealSeq.valuation_levels(eta_i, high))
            check("lct-witness-upper-bound", (eta_i, high),
                  res_hi.value, a_eta / high,
                  ok=res_hi.value is not None and res_hi.value <= a_eta / high)
        f = valuation_filtration(bases[0], eta_i)
        c = _rand_frac(rng)
        delta = Fraction(rng.randint(1, 3))
        check("mu-shift-covariance", (eta_i, c, delta),
              mu_slope(shift(f, c), delta).value, mu_slope(f, delta).value + c)



# ---------------------------------------------------------------------------
# aggregated reports


@dataclass
class StabilityReport:
    """Everything a verification run certifies about one model.

    Every numeric entry in ``values`` carries a provenance marker.  The
    wall-clock duration is kept out of the serialized payload so identical
    model and seed give byte-identical reports; it rides along as a plain
    attribute for logging.
    """

    model_name: str
    values: dict
    witnesses: dict
    verdicts: dict
    assumptions: tuple[str, ...]
    suite: dict
    seed: int
    samples: int
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "assumptions": list(self.assumptions),
            "values": self.values,
            "witnesses": self.witnesses,
            "verdicts": self.verdicts,
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
        }


def build_stability_report(model: ToricFanoModel, samples: int = 100,
                           seed: int = 0) -> StabilityReport:
    """Run the verdicts and the identity suite and assemble one report."""
    import time as _time
    started = _time.monotonic()
    verdict = semistable_verdict(model)
    suite = identity_suite(model, samples=samples, seed=seed)
    fut = verdict.futaki
    values = {
        "delta": {"value": verdict.delta.value,
                  "provenance": verdict.delta.provenance},
        "futaki_total": {"value": list(fut.total), "provenance": CLOSED_FORM},
        "futaki_per_summand": {"value": [list(v) for v in fut.per_summand],
                               "provenance": CLOSED_FORM},
    }
    witnesses = {"delta_witness": list(verdict.delta.witness)}
    verdicts = {
        "semistable": verdict.semistable,
        "futaki_vanishes": fut.vanishes,
        "delta_at_least_one": verdict.delta.value >= 1,
    }
    return StabilityReport(
        model_name=model.name,
        values=values,
        witnesses=witnesses,
        verdicts=verdicts,
        assumptions=verdict.assumptions,
        suite=suite.to_dict(),
        seed=seed,
        samples=samples,
        elapsed_seconds=_time.monotonic() - started,
    )


def _futaki_orthogonal_direction(model: ToricFanoModel,
                                 rng: random.Random) -> Optional[tuple[int, ...]]:
    """A nonzero integer direction pairing to zero with the coupled
    barycenter, when one exists."""
    b = model.barycenter(TOTAL)
    rank = model.rank
    if all(x == 0 for x in b):
        return _rand_int_vec(rng, rank, span=2, nonzero=True)
    if rank == 1:
        return None
    # the reduced-echelon basis of the plane orthogonal to b: one vector per
    # column fc other than the pivot p, with v[fc] = 1 and v[p] = -b[fc]/b[p]
    p = next(i for i, x in enumerate(b) if x != 0)
    perp = []
    for fc in range(rank):
        if fc != p:
            v = [Fraction(0)] * rank
            v[fc], v[p] = Fraction(1), -b[fc] / b[p]
            perp.append(v)
    coeffs = [rng.randint(-2, 2) for _ in perp]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    cand = tuple(sum(c * v[i] for c, v in zip(coeffs, perp))
                 for i in range(rank))
    return primitive_vector(cand)
