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
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ._record import Record
from .errors import CkstabError, InputError, InternalInvariantError
from .geometry import (DimensionMismatch, ExactPolytope, IntVec, Vec,
                       _cramer_vertices, _int_det, _int_directions,
                       _minor_normal, _pairings, _rank, _rays, as_vec,
                       centroid, primitive_vector, vdot, vneg, vsub)
from .toric import (TOTAL, TORIC_SEARCH_ASSUMPTION, MonomialIdealSeq, Ratio,
                    SummandIndex, ToricFanoModel, _containment_lct,
                    _log_discrepancy, _plus, _s_invariant, _show,
                    _t_invariant, _total_s_sum, log_discrepancy,
                    monomial_lct, s_invariant, support_min, t_invariant,
                    theta_twist, total_s_sum)
from .filtration import (Descriptor, Filtration, FiltrationFamily,
                         GridMismatch, SumDescriptor, UnsupportedDescriptor,
                         ValuationDescriptor,
                         _twist_descriptor, approximate,
                         base_change, construct, family_degree_grid,
                         family_step, graded_basis, round_weights, shift,
                         sum_filtration, trivial_family, twist, twist_family,
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


class CoupledBarycenter(NamedTuple):
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


class SubtorusSpec(Record):
    """A saturated sublattice of the cocharacter lattice, by a basis."""

    _fields = ("basis",)

    def __init__(self, basis: tuple[tuple[int, ...], ...]):
        for v in basis:
            if not all(isinstance(x, int) for x in v):
                raise DegenerateSubtorus("subtorus basis must be integral")
        if basis:
            g = math.gcd(*(_int_det([[v[c] for c in cols] for v in basis])
                           for cols in itertools.combinations(
                               range(len(basis[0])), len(basis))))
            if g == 0:
                raise DegenerateSubtorus("subtorus basis is linearly dependent")
            if g != 1:
                raise DegenerateSubtorus("subtorus basis does not span a "
                                         "saturated sublattice")
        vars(self).update(basis=basis)

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


class ReducedJResult(NamedTuple):
    value: Fraction
    argmin: Vec
    provenance: str = OPTIMIZED


def _slice_cells(model: ToricFanoModel, base: IntVec, W: Sequence[IntVec]):
    """The cells in which the fan cuts the slice of the points
    (base + sum t_j w_j) / c, c > 0, cone by cone in fan order, in the
    twist coordinates t; base and the w_j are integer vectors, so any
    rational slice is scaled to one denominator c first.

    A cell is its cone's facet system in those coordinates, so every point
    of it lies in the cone: the facet n holds at the point when
    sum t_j <n, w_j> >= -<n, base>, an integer row.  Each cell is given as
    the index of its cone in ``model.fan``, its vertices as integer
    numerators over one positive denominator, in increasing lexicographic
    order, and the integer inner normals of its facets, whose ``_rays`` are
    its recession directions.  Only a cone with a violated constant row is
    skipped: a facet n with <n, w_j> = 0 for every j and <n, base> < 0.  A
    cone whose facet system has no solution is still yielded, with no
    vertex.
    """
    for k, cone in enumerate(model.fan):
        rows = [(tuple(_pairings(W, n)), -vdot(n, base)) for n in cone.facets]
        if any(c > 0 and not any(a) for a, c in rows):
            continue
        rows = [(a, c) for a, c in rows if any(a)]
        den, nums, _ = _cramer_vertices(1, rows, len(W))
        yield k, den, nums, [a for a, _ in rows]


def _point(c: int, base: IntVec, t: IntVec, W: Sequence[IntVec]) -> IntVec:
    """c base + sum t_j w_j, for integer vectors."""
    return tuple([c * x + sum([tj * w[i] for tj, w in zip(t, W)])
                  for i, x in enumerate(base)])


def reduced_coupled_j(model: ToricFanoModel, xi0: Sequence,
                      sub: Optional[SubtorusSpec] = None) -> ReducedJResult:
    """Infimum over twists xi in the subtorus of the summed J norms of the
    twisted-trivial family at base xi0, and a twist attaining it.

    The summed J norm at x = xi0 + xi is max_P <., x> - <b, x>, the summed
    expectation slope at -x (P is the certified sum of the summands and b
    the coupled barycenter).  That function is linear on each fan cone,
    positively homogeneous of degree one, and grows at least like a
    multiple of |x|, because b lies inside P; so it vanishes only at x = 0,
    and its minimum over the slice -xi0 + span(W) is attained at a vertex
    of a cell in which the fan cuts the slice.  Writing
    -x = -xi0 + sum s_j w_j, a tied minimum goes to the lexicographically
    least s, that is to the greatest twist coordinates t = -s in
    xi = sum t_j w_j.  Four cases, after the slice is scaled to integers:

    - the slice holds the origin (the full torus, or xi0 in the subtorus):
      the infimum is zero, at the one point where the norm vanishes, the
      twist -xi0;
    - the trivial subtorus: the slice is the point -xi0, so the value is
      the summed slope there and the twist is zero;
    - a subtorus of corank one whose slice misses the origin: the slice is
      a hyperplane <n, .> = c != 0, and a cell, a pointed cone cut by it,
      has a vertex exactly where one of its rays meets it, so the vertices
      of all cells are the points (c / <n, rho>) rho over the fan's rays
      rho with <n, rho> of the sign of c (``_reduced_j_hyperplane``);
    - any other subtorus: the cells themselves (``_reduced_j_cells``).
    """
    xi0 = as_vec(xi0)
    if sub is None:
        sub = SubtorusSpec.full(model.rank)
    den, (base, *W) = _int_directions([vneg(xi0), *sub.basis], model.rank)
    if len(W) == model.rank or _rank([*W, base]) == len(W):
        return ReducedJResult(Fraction(0), tuple([Fraction(x, den) for x in base]))
    if not W:
        return ReducedJResult(Fraction(*_total_s_sum(model, den, base)),
                              (Fraction(0),) * model.rank)
    if len(W) == model.rank - 1:
        return _reduced_j_hyperplane(model, den, base, W)
    return _reduced_j_cells(model, den, base, W)


def _reduced_j_hyperplane(model: ToricFanoModel, den: int, base: IntVec,
                          W: Sequence[IntVec]) -> ReducedJResult:
    """:func:`reduced_coupled_j` on a slice (base + sum t_j w_j) / den of
    corank one that misses the origin: the hyperplane <n, y> = c / den, n
    the minor normal of W and c = <n, base> != 0.  A fan ray rho with
    <n, rho> = q of the sign of c meets it at (c / q) rho / den; over the
    lcm L of those q that is f rho / (L den), f = c L / q > 0, so its
    summed slope is f times the slope at rho / (L den), over one
    denominator for every ray.  Its twist coordinates solve
    sum t_j w_j = (f rho - L base) / L, by Cramer's rule on the columns of
    a maximal minor of W that is not zero; with the sign of that minor
    taken into the numerators, the least (value, t) is the least pair of
    integer numerators."""
    rank = model.rank
    n = _minor_normal(W, rank)
    c = vdot(n, base)
    qs = [(q, r) for q, r in zip(_pairings(model.rays, n), model.rays) if q * c > 0]
    lcm = math.lcm(*[q for q, _ in qs])
    j = next(i for i, x in enumerate(n) if x)
    cols = [i for i in range(rank) if i != j]
    M = [[w[i] for i in cols] for w in W]
    sign = 1 if _int_det(M) > 0 else -1

    def candidate(q, r):
        f = c * (lcm // q)
        rhs = [f * r[i] - lcm * base[i] for i in cols]
        t = [sign * _int_det(M[:k] + [rhs] + M[k + 1:]) for k in range(len(M))]
        num, sden = _total_s_sum(model, lcm * den, r)
        return f * num, t, sden, f, r

    num, _, sden, f, r = min([candidate(q, r) for q, r in qs])
    return ReducedJResult(Fraction(num, sden),
                          tuple([Fraction(lcm * b - f * x, lcm * den)
                                 for b, x in zip(base, r)]))


def _reduced_j_cells(model: ToricFanoModel, den: int, base: IntVec,
                     W: Sequence[IntVec]) -> ReducedJResult:
    """:func:`reduced_coupled_j` on the slice (base + sum t_j w_j) / den,
    from the cells in which the fan cuts it.  The vertices of all cells
    are brought to one denominator L: then every slope sum is an integer
    numerator over one denominator, and the least (numerator, s) pair wins
    on ints.  ``Fraction``s are built for the value and the argmin only.
    """
    cells = [(d, nums) for _, d, nums, _ in _slice_cells(model, base, W) if nums]
    if not cells:
        raise InternalInvariantError("J slice met no fan cone; fan incomplete")
    lcm = math.lcm(*[d for d, _ in cells])
    verts = {tuple([x * (lcm // d) for x in n]) for d, nums in cells for n in nums}
    # -x = (L base + sum s_j w_j) / (L den): a slope-sum numerator over one
    # denominator for every s
    (num, sden), s = min((_total_s_sum(model, lcm * den, _point(lcm, base, s, W)), s)
                         for s in verts)
    argmin = tuple([Fraction(-x, lcm * den) for x in _point(0, base, s, W)])
    return ReducedJResult(Fraction(num, sden), argmin)


# ---------------------------------------------------------------------------
# lc slopes and coupled Ding invariants


class MuResult(NamedTuple):
    value: Optional[Fraction]
    lo: Fraction
    hi: Fraction
    provenance: str


def _slope_parameter(delta) -> Fraction:
    delta = Fraction(delta)
    if delta <= 0:
        raise StabilityError("slope parameter must be positive")
    return delta


def _less_sum(r: Ratio, terms: Sequence[Ratio]) -> Ratio:
    """The ratio r less the sum of the terms, as an int ratio over the lcm
    of their denominators."""
    den = math.lcm(r[1], *[d for _, d in terms])
    return (r[0] * (den // r[1]) - sum([n * (den // d) for n, d in terms]),
            den)


# a sum of distinct directions has no certified lc slope
_NO_SUM_SLOPE = "no certified lc slope for sums of distinct valuation directions"


def _closed_form_mu(model: ToricFanoModel, den: int, e: IntVec,
                    shifts: Sequence[Fraction],
                    delta: Fraction) -> tuple[Ratio, bool]:
    """The delta-lc slope of a valuation table at eta = e / den shifted by
    the sum of the shifts, as an int ratio, and whether it is exact:
    ``A(eta)/delta + shift`` for delta >= 1, and for delta < 1 the
    certified lower bound ``A(eta) + shift`` (see :func:`mu_slope`)."""
    a, a_den = _log_discrepancy(model, den, e)
    exact = delta >= 1
    mu = (a * delta.denominator, a_den * delta.numerator) if exact else (a, a_den)
    for c in shifts:
        mu = _plus(mu, c)
    return mu, exact


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
        if isinstance(d, SumDescriptor):
            raise UnsupportedDescriptor(_NO_SUM_SLOPE)
        mu, exact = _closed_form_mu(model, d.den, d.nums, (d.shift,), delta)
        mu = Fraction(*mu)
        if exact:
            return MuResult(mu, mu, mu, CLOSED_FORM)
        lam = Fraction(*_plus(_t_invariant(model, f.basis.index, d.den,
                                           d.nums), d.shift))
        return MuResult(None, mu, lam, "certified-bounds")
    if not f.basis.degrees:
        raise GridMismatch("the table stores no degree")
    lo = None
    hi = None
    for m in f.basis.degrees:
        row = f.weights[m]
        t_m = max(row.values()) / m
        hi = t_m if hi is None else max(hi, t_m)
        levels = sorted({w / m for w in row.values()})
        gens = {m: list(row.items())}
        # a higher level gives a smaller ideal and a lower threshold (None
        # is the unit ideal's), so the levels that pass come first: bisect
        # for the last of them
        lo_k, hi_k = 0, len(levels)
        while lo_k < hi_k:
            mid = (lo_k + hi_k) // 2
            seq = MonomialIdealSeq.from_generators(gens, level=levels[mid],
                                                   summand=f.basis.index)
            res = monomial_lct(model, seq, degree=m)
            if res.value is None or res.value >= delta:
                lo_k = mid + 1
            else:
                hi_k = mid
        if lo_k:
            best = levels[lo_k - 1]
            lo = best if lo is None else max(lo, best)
    if lo is None:
        lo = min(w / m for m, row in f.weights.items() for w in row.values())
    return MuResult(None, lo, hi, FINITE_DEGREE)


class DingResult(NamedTuple):
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
    the provenance field saying so.  At slope one every member is twisted by
    a probe direction and two twist rules are checked against the direct
    computation: the lc slope of the sum is unchanged, and member i's slope
    moves by ``<b_i, probe>``, b_i its barycenter.  Together they give the
    probe value ``value - <b, probe>``, so every exact value has passed one
    internal cross-validation.  A summand with b_i = 0, as in the halves
    models, moves neither side, so a wrong twist of it goes unseen.

    Every slope is an int ratio until the result is built: only the fields
    of the returned value become ``Fraction``s, and the cross-validation
    compares cross-multiplied ints.
    """
    delta = _slope_parameter(delta)

    def terms(parts):
        # the lc slope of the sum, whether it is exact, and the member
        # slopes; the sum of valuation tables on one direction is the
        # valuation table with the summed shift
        if not all(isinstance(p, ValuationDescriptor) for p in parts):
            raise UnsupportedDescriptor("coupled Ding needs a certified lc slope")
        # in lowest terms, two directions agree exactly when their den and
        # nums do
        if len({(p.den, p.nums) for p in parts}) != 1:
            raise UnsupportedDescriptor(_NO_SUM_SLOPE)
        d = parts[0]
        mu, exact = _closed_form_mu(model, d.den, d.nums,
                                    [p.shift for p in parts], delta)
        return mu, exact, [_plus(_s_invariant(model, i, p.den, p.nums), p.shift)
                           for i, p in enumerate(parts)]

    mu, exact, s_vals = terms(parts)
    ones = (1,) * model.rank
    t_mu, _, t_s = terms([_twist_descriptor(model, i, d, 1, ones)
                          for i, d in enumerate(parts)])
    if delta == 1:
        # the barycenter twist rules are slope-one identities; <b_i, probe>
        # is the sum of the coordinates of summand i's barycenter, so
        # t = s + sum(b) / den reads t_n * s_d * den = (s_n * den +
        # sum(b) * s_d) * t_d
        den = model.bary_den
        if (t_mu[0] * mu[1] != mu[0] * t_mu[1]
                or any(tn * sd * den != (sn * den + sum(b) * sd) * td
                       for (tn, td), (sn, sd), b
                       in zip(t_s, s_vals, model.bary_nums))):
            raise InternalInvariantError("twist identity cross-validation failed")
    return DingResult(Fraction(*_less_sum(mu, s_vals)), Fraction(*mu),
                      tuple([Fraction(*r) for r in s_vals]), delta,
                      (Fraction(1),) * model.rank,
                      Fraction(*_less_sum(t_mu, t_s)),
                      provenance=CLOSED_FORM if exact else "lower-bound")


# ---------------------------------------------------------------------------
# thresholds


class DeltaResult(NamedTuple):
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
    slopes = _ray_slopes(model)
    if min(slopes) <= 0:
        raise InternalInvariantError("summed slope not positive on a fan ray")
    k = slopes.index(max(slopes))
    return DeltaResult(Fraction(model.bary_den, slopes[k]), model.rays[k])


def _ray_slopes(model: ToricFanoModel) -> list[int]:
    """``bary_den`` times the summed slope ``1 + <b, rho>`` at each fan ray
    rho, in sorted ray order; the log discrepancy is one there, so the
    ratio at rho is ``bary_den`` over it."""
    den, b = model.bary_den, model.bary_nums[-1]
    return [den + vdot(b, rho) for rho in model.rays]


class VerdictReport(NamedTuple):
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


class DestabilizerResult(NamedTuple):
    eta: tuple[int, ...]
    ding: DingResult


def find_destabilizer(model: ToricFanoModel) -> Optional[DestabilizerResult]:
    """If the threshold is below one, the witness direction, with the
    (strictly negative) coupled Ding value of its valuation family.  The
    value reads only the descriptors of the family's members, so no member
    is built and no degree grid is read."""
    d = coupled_delta(model)
    if d.value >= 1:
        return None
    ding = ding_of_descriptors(
        model, [ValuationDescriptor(d.witness)] * model.num_summands,
        Fraction(1))
    if ding.value >= 0:
        raise InternalInvariantError("witness family failed to destabilize")
    return DestabilizerResult(d.witness, ding)


# ---------------------------------------------------------------------------
# reduced threshold


class InnerSup(NamedTuple):
    value: Fraction
    attained: bool
    argument: Optional[Vec]          # eta + xi achieving the value
    recession: Optional[Vec]         # direction approaching it, if not attained


def _ratio_at(model: ToricFanoModel, z: Sequence) -> Fraction:
    """A(z) over the summed slopes at z, from the integer cores, as one
    ``Fraction``."""
    _, (e,) = _int_directions((z,), model.rank)
    return Fraction(*_int_ratio(model, e, lambda: z))


def _int_ratio(model: ToricFanoModel, e: IntVec, point) -> Ratio:
    """A over the summed slopes at the integer vector e, or at any positive
    multiple of it, the ratio being of degree zero: an int numerator over a
    positive int denominator.  ``point()`` gives the point to name when the
    slope sum is not positive."""
    a, ad = _log_discrepancy(model, 1, e)
    s, sd = _total_s_sum(model, 1, e)
    if s <= 0:
        raise StabilityError(f"nonpositive slope sum at {tuple(point())}")
    return a * sd, ad * s


def inner_twist_sup(model: ToricFanoModel, sub: SubtorusSpec,
                    eta: Sequence) -> InnerSup:
    """Exact sup over subtorus twists xi of the ratio at eta + xi.

    Per fan cone the ratio is linear-fractional in the twist parameters
    with positive denominator, so the supremum over each cell in which the
    fan cuts the slice is attained at a vertex or approached along an
    extreme recession direction, whose limit value is the ratio at the
    direction itself.

    Candidates come cone by cone in fan order: first the cell's vertices,
    in increasing lexicographic order of their twist coordinates, then its
    recession directions.  A candidate replaces the best so far only with a
    larger value, or with an equal attained value against an unattained
    one.  So the value is the greatest, and an attained one is preferred
    to an equal limit wherever it comes; the order still names the point:
    on a tie the first attained vertex in that order is ``argument`` (in
    a cone, the least twist), and with no attained one the first recession
    direction is ``recession``.

    The slice is scaled to integers once, and each candidate is scored as
    a pair of ints compared by cross-multiplication; ``Fraction``s are
    built for the winner only.  In rank 2 the slice is a line and its
    candidates are read off the fan (``_inner_sup_line``); above, off the
    cells (``_inner_sup_cells``).
    """
    eta = as_vec(eta)
    if len(eta) != model.rank:
        raise DimensionMismatch(f"rank {model.rank} vs {len(eta)}")
    den, (base, *W) = _int_directions([eta, *sub.basis], model.rank)
    if _rank([*W, base]) == len(W):
        raise StabilityError("slice direction lies in the subtorus")
    if not W:
        return InnerSup(_ratio_at(model, eta), True, eta, None)
    if model.rank == 2:
        return _inner_sup_line(model, den, base, W[0], sub.basis[0])
    return _inner_sup_cells(model, den, base, W, sub.basis)


def _beats(best: Optional[tuple], num: int, nd: int, attained: bool) -> bool:
    """Whether a candidate of value num / nd replaces the best so far: with
    a larger value, or as an attained vertex with a value equal to that of
    an unattained best."""
    if best is None:
        return True
    lhs, rhs = num * best[1], best[0] * nd
    return lhs > rhs or (lhs == rhs and attained and not best[2])


def _inner_sup(best: Optional[tuple]) -> InnerSup:
    """The ``InnerSup`` of the best candidate (numerator, denominator,
    attained, point numerators, point denominator)."""
    if best is None:
        raise InternalInvariantError("twist slice met no fan cone; fan incomplete")
    num, nd, attained, z, zden = best
    point = tuple([Fraction(x, zden) for x in z])
    return InnerSup(Fraction(num, nd), attained, point if attained else None,
                    None if attained else point)


def _inner_sup_line(model: ToricFanoModel, den: int, base: IntVec, w: IntVec,
                    v: IntVec) -> InnerSup:
    """:func:`inner_twist_sup` in rank 2 on the line (base + t w) / den,
    which misses the origin, w = c v for the subtorus generator v and
    c > 0: the candidates of ``_inner_sup_cells``, in the same order, with
    no cell solved.

    With D = det(base, w), the line meets the ray rho exactly where
    base + t w = (D / det(rho, w)) rho, when det(rho, w) has the sign of D;
    in rank 2 the boundary of a cone is its two generators, so the
    vertices of a cone's cell are the generators the line meets.  On the
    line t grows from the generator rho to rho' when det(rho, rho') has the
    sign of D as well.  A vertex is a positive multiple of its ray, and the
    ratio is of degree zero, so it scores as the ray: ``bary_den`` over
    ``_ray_slopes``.  The cell recedes along w when every facet n of the
    cone has <n, w> > 0, or <n, w> = 0 and <n, base> >= 0 (the facet rows
    of ``_slice_cells``), and along -w likewise; each of v and -v is
    scored once.
    """
    D = base[0] * w[1] - base[1] * w[0]
    sign = 1 if D > 0 else -1
    # det(rho, w) with the sign of D taken in: positive where the line
    # meets rho, at the point (|D| rho) / (meets[rho] den)
    meets = {r: (r[0] * w[1] - r[1] * w[0]) * sign for r in model.rays}
    slopes = dict(zip(model.rays, _ray_slopes(model)))
    bden = model.bary_den
    ends = [(s, d, _int_ratio(model, d, lambda: as_vec(d)))
            for s, d in ((1, v), (-1, vneg(v)))]
    best = None
    for cone in model.fan:
        verts = [r for r in cone.generators if meets[r] > 0]
        if len(verts) == 2 and (verts[0][0] * verts[1][1]
                                - verts[0][1] * verts[1][0]) * sign < 0:
            verts.reverse()
        for r in verts:
            if _beats(best, bden, slopes[r], True):
                best = (bden, slopes[r], True, tuple([abs(D) * x for x in r]),
                        meets[r] * den)
        pairs = [(n[0] * w[0] + n[1] * w[1], n[0] * base[0] + n[1] * base[1])
                 for n in cone.facets]
        for s, d, (num, nd) in ends:
            if all((s * a, b) >= (0, 0) for a, b in pairs) and _beats(
                    best, num, nd, False):
                best = (num, nd, False, d, 1)
    return _inner_sup(best)


def _inner_sup_cells(model: ToricFanoModel, den: int, base: IntVec,
                     W: Sequence[IntVec], basis: Sequence[IntVec]) -> InnerSup:
    """:func:`inner_twist_sup` on the slice (base + sum t_j w_j) / den, w_j
    the subtorus basis scaled by den, from the cells in which the fan cuts
    it: each vertex is scored on its integer point, the ratio being of
    degree zero, and each recession direction on its point in the
    subtorus basis."""
    s = len(W)
    # the best (numerator, denominator), whether attained, and the
    # candidate's point as integer numerators over a positive denominator
    best = None
    for _, vden, nums, normals in _slice_cells(model, base, W):
        # eta + sum t_j w_j at t = n / vden is this point over vden den
        for n in nums:
            z = _point(vden, base, n, W)
            num, nd = _int_ratio(model, z,
                                 lambda: [Fraction(x, vden * den) for x in z])
            if _beats(best, num, nd, True):
                best = (num, nd, True, z, vden * den)
        # the cell has no lineality, because the facet normals span and the
        # subtorus basis is independent, so each recession direction maps
        # to a nonzero vector of the cone; it is named scaled so that the
        # last nonzero entry of its twist coordinates is 1 or -1
        for g in _rays(normals, s):
            z = _point(0, base, g, basis)
            last = abs(next(x for x in reversed(g) if x))
            num, nd = _int_ratio(model, z, lambda: [Fraction(x, last) for x in z])
            if _beats(best, num, nd, False):
                best = (num, nd, False, z, last)
    return _inner_sup(best)


class ReducedDeltaResult(NamedTuple):
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
    two primitive coset representatives give the exact infimum.  Each of
    their inner suprema runs along a line, and is read off the fan's rays
    where the line crosses them and the two ends of the line
    (``_inner_sup_line``), so no cell is solved.
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
    _, x, y = _ext_gcd(w[0], w[1])
    # SubtorusSpec admits only a primitive w, so g = 1, and
    # det(w, (y, -x)) = -(w0 x + w1 y) = -1, so (y, -x) completes w to a
    # lattice basis and its two signs represent all slice cosets
    eta0 = (y, -x)
    best_val: Optional[Fraction] = None
    best_dir = None
    best_inner = None
    for cand in (eta0, tuple(-c for c in eta0)):
        # what inner_twist_sup(model, sub, cand) returns: cand is integral
        # and off the line of w, so it is its own integer slice base
        inner = _inner_sup_line(model, 1, cand, w, w)
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


class TwistRayLimit(NamedTuple):
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
    # the ray from its one vertex t = n / den on
    _, (h, x) = _int_directions((eta, xi), model.rank)
    for idx, den, nums, normals in _slice_cells(model, h, [x]):
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
    entry_int = max(1, -(-nums[0][0] // den))
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


class SuiteReport(NamedTuple):
    model_name: str
    seed: int
    samples: int
    passed: int
    failed: int
    cases: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "failed": self.failed,
            "cases": dict(sorted(self.cases.items())),
        }


_RAND_DENS = (1, 2, 3, 4)


def _rand_frac(rng: random.Random, span: int = 3) -> Fraction:
    den = rng.choice(_RAND_DENS)
    return Fraction(rng.randint(-span * den, span * den), den)


def _rand_vec(rng: random.Random, rank: int, span: int = 3) -> Vec:
    return tuple(_rand_frac(rng, span) for _ in range(rank))


def _rand_int_vec(rng: random.Random, rank: int, span: int = 3,
                  nonzero: bool = False) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-span, span) for _ in range(rank))
        if not nonzero or any(x != 0 for x in v):
            return v


def identity_suite(model: ToricFanoModel, samples: int = 100,
                   seed: int = 0) -> SuiteReport:
    """Run every exact identity check on seeded samples.

    The degree grid is the multiples of the family step up to degree 4, or
    the step alone when it is above 4, so every model that loads can be
    verified.

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
        _check_identities(model, random.Random(seed), samples, check)
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
                      check) -> None:
    """Run every identity on seeded samples, passing each case to ``check``."""
    rank = model.rank
    k = model.num_summands
    grid = family_degree_grid(model, max(4, family_step(model)))
    bases = [graded_basis(model, i, m_max=grid[-1], step=grid[0])
             for i in range(k)]
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
        fam = trivial_family(model, m_max=grid[-1])
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

    # reduced J of a twisted-trivial family vanishes at the cancelling twist:
    # found on the cells, where reduced_coupled_j reads it off in closed form
    full = SubtorusSpec.full(rank).basis
    for _ in range(max(1, samples // 20)):
        xi0 = _rand_vec(rng, rank, span=3)
        den, (base, *W) = _int_directions([vneg(xi0), *full], rank)
        res = _reduced_j_cells(model, den, base, W)
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


def _futaki_orthogonal_direction(model: ToricFanoModel,
                                 rng: random.Random) -> tuple[int, ...]:
    """A nonzero integer direction pairing to zero with the coupled
    barycenter.  In rank 1 the barycenter is 0: each summand is a segment
    or a point, with its midpoint as barycenter, and the midpoints add up
    to that of [-1, 1]."""
    b = model.barycenter(TOTAL)
    rank = model.rank
    if all(x == 0 for x in b):
        return _rand_int_vec(rng, rank, span=2, nonzero=True)
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
