"""Toric log Fano models with a polytope decomposition of the anticanonical
class, and the exact invariants of their one-parameter (cocharacter)
valuations.

A model is a reflexive anticanonical polytope together with rational
polytopes whose Minkowski sum reproduces it exactly.  All invariants reduce
to support values and centroids of these polytopes:

* log discrepancy of the valuation attached to eta: the piecewise-linear
  function equal to one on each primitive fan ray, which agrees with minus
  the support minimum over the anticanonical polytope;
* expected and maximal vanishing slopes of a summand along eta:
  ``<barycenter, eta> - min`` and ``max - min`` of the support pairing;
* the twist correction: a difference of support minima.

Each invariant has an integer core that takes its direction as integer
numerators over one positive denominator, ``(den, e)``, pairs them with
the integer vertex table of the polytope, the integer facets of the fan
cones and the barycenter numerators ``bary_nums`` of the model, and
returns its value as a ``Ratio``, an int numerator over a positive int
denominator.  The public function scales its direction to integers once
(one lcm over eta and xi together for the twist), calls its core and
builds one ``Fraction``.  The valuation descriptors of
:mod:`ckstab.filtration` already hold their direction as integers: they
call the cores directly and build one ``Fraction`` per value they report,
adding each shift to a core's ratio with ``_plus``.

Log canonical thresholds of equivariant monomial ideal data are a scan over
candidate rays: the log discrepancy and the ideal's vanishing order are
both linear on each cell in which the ideal's region subdivides a fan
cone, so their ratio takes its infimum at a ray of those cells, where
both are evaluated directly.  The reduction of the search to cocharacter
valuations is recorded as an assumption in every certificate.
A second route to the same threshold, through a polytope containment and
without the fan, is the identity suite's oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from operator import add
from typing import NamedTuple, Optional, Sequence, Union

from ._record import Record
from .errors import InputError, InternalInvariantError
from .geometry import (Cone, DimensionMismatch, ExactPolytope, GeometryError,
                       IntVec, Vec, _clip, _cramer_vertices, _from_tight,
                       _int_directions, _pairings, _rank, _scaled, as_vec,
                       centroid, is_primitive, lattice_points, minkowski_sum,
                       normal_cones, restrict_min_support, vdot)
from .optimize import minimize_pl_ratio

TOTAL = "total"
SummandIndex = Union[int, str]
# a rational as an int numerator over a positive int denominator, not
# necessarily in lowest terms: the value of an integer core
Ratio = tuple[int, int]


def _plus(r: Ratio, c: Fraction) -> Ratio:
    """The ratio n / d plus c, as an int ratio over ``d`` times c's
    denominator."""
    n, d = r
    q = c.denominator
    return n * q + c.numerator * d, d * q


class ToricError(InputError):
    pass


class NotReflexive(ToricError):
    pass


class DecompositionMismatch(ToricError):
    pass


class RankMismatch(ToricError):
    pass


class IndexOutOfRange(ToricError):
    pass


class NonIntegralScaling(ToricError):
    pass


class ZeroIdeal(ToricError):
    pass


def _show(v) -> str:
    """A value for messages, rationals as "p/q" at any depth: a sequence as
    "(a, b, ...)", a mapping as "{k: v, ...}"."""
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(map(_show, v)) + ")"
    if isinstance(v, Mapping):
        return "{" + ", ".join(f"{_show(k)}: {_show(x)}"
                               for k, x in v.items()) + "}"
    return str(v)


TORIC_SEARCH_ASSUMPTION = (
    "search space restricted to torus-invariant cocharacter valuations; "
    "exactness on toric models relies on equivariant reduction"
)


class ToricFanoModel(Record):
    """Immutable toric Fano model: fan rays, anticanonical polytope, and a
    Minkowski decomposition into summand polytopes, with cached barycenters.

    ``fan[k]`` is the inner normal cone of ``anticanonical.vertices[k]``,
    so that vertex (``total_forms[k]``, with numerators
    ``anticanonical.nums[k]``) is the form of the support function on it.
    ``bary_nums`` holds the barycenters, and their sum last, as integer
    numerators over the positive integer ``bary_den``; both are set from
    ``barycenters``.  Two models are equal, and hash alike, when the seven
    constructor fields in ``_fields`` are; the memos and the integer
    barycenters are not compared.
    """

    _fields = ("name", "rank", "rays", "anticanonical", "summands",
               "barycenters", "fan")

    def __init__(self, name: str, rank: int, rays: tuple[tuple[int, ...], ...],
                 anticanonical: ExactPolytope,
                 summands: tuple[ExactPolytope, ...],
                 barycenters: tuple[Vec, ...], fan: tuple[Cone, ...]):
        den, nums = _scaled(barycenters)
        vars(self).update(
            name=name, rank=rank, rays=rays, anticanonical=anticanonical,
            summands=summands, barycenters=barycenters, fan=fan,
            # the character tuple of each (summand, degree) and its integer
            # coordinate columns; see filtration.graded_basis.  Weight rows
            # are int tuples aligned with them.  No memo refers back to the
            # model.
            bases={},
            # max-plus gather plans, each kept with the (left, right,
            # target) character tuples it was built from, under a
            # fingerprint of them; see filtration._plan
            plans={},
            # the characters and columns of the total ring on each degree
            # grid a sum filtration has seen; see filtration.sum_filtration
            totals={},
            bary_den=den, bary_nums=nums + (tuple(map(sum, zip(*nums))),))

    @property
    def total_forms(self) -> tuple[Vec, ...]:
        return self.anticanonical.vertices

    @property
    def num_summands(self) -> int:
        return len(self.summands)

    def summand(self, i: SummandIndex) -> ExactPolytope:
        if i == TOTAL:
            return self.anticanonical
        if not isinstance(i, int) or not 0 <= i < len(self.summands):
            raise IndexOutOfRange(f"summand index {i!r}")
        return self.summands[i]

    def barycenter(self, i: SummandIndex) -> Vec:
        if i == TOTAL:
            return tuple(Fraction(n, self.bary_den) for n in self.bary_nums[-1])
        if not isinstance(i, int) or not 0 <= i < len(self.summands):
            raise IndexOutOfRange(f"summand index {i!r}")
        return self.barycenters[i]


def build_model(rays: Sequence[Sequence[int]],
                decomposition: Sequence[ExactPolytope],
                name: str = "") -> ToricFanoModel:
    """Validate and assemble a model.

    Checks, in order: rays are primitive and span; the ray half-spaces cut
    out a reflexive (lattice, canonically faceted) polytope; the summands
    have its rank; the decomposition sums to it exactly.  Caches the normal
    fan, which ``normal_cones`` reads off the polytope's edge table and which
    is complete by construction.  Each summand is taken as its point table,
    its vertex numerators over its denominator, as the loader takes the
    points it parses (``_build_model``).

    The sum is certified on each cone of that fan: each summand's minimizing
    point at an interior probe must attain the summand's support value at
    every generator (so that support function is linear on the cone), and
    the minimizers must add up to the polytope's own.  As h(P + Q) =
    h(P) + h(Q) and the fan is complete, this holds exactly when the sum is
    the polytope.  On a failure the summands' support values along each ray
    must still add up to -1, the polytope's, or the mismatch is reported
    at the first ray where they do not; only then is each table hulled and
    the sum taken with ``minkowski_sum``, to tell a wrong decomposition from
    a failed certificate and to list the sum's vertices.  The probe is the
    sum of the cone's generators, which are rays, so every pairing is an
    integer sum of each summand's point pairings with the rays.  Equal
    tables are certified once, weighted by their number, and share one
    polytope, whose centroid is taken once.

    A certified summand Q is read off the certificate, not hulled (Cox,
    Little and Schenck, *Toric Varieties*, 2011, ch. 6).  Its support
    function is linear on every cone of the fan of P, so that fan refines
    the normal fan of Q: each cone lies in the normal cone of the point it
    picked, which is therefore a vertex, and each vertex's full-dimensional
    normal cone holds a cone that picks it.  Every ray of the fan of Q is a
    ray of the fan of P, so Q is { x : <x, rho> >= h_Q(rho) } over the rays
    rho.  Its vertices are the picked points, and each ray's face is the
    picked points on which it is least; ``_from_tight`` takes the facets and
    the incidence from those sets, or, for a Q of lower dimension, on which
    some ray is constant, hulls the picked points.  Each cone's generators,
    tight at the picked point, solve back to it: the cross-check of
    ``_hull``, made by the fan in place of a subset loop.
    """
    return _build_model(rays, [(p.den, p.nums) for p in decomposition], name)


def _build_model(rays: Sequence[Sequence[int]],
                 tables: Sequence[tuple[int, tuple[IntVec, ...]]],
                 name: str) -> ToricFanoModel:
    """:func:`build_model` on point tables: each summand as a denominator
    and its distinct points, in increasing order, of one rank, which hold
    its vertices and may hold other points of it."""
    ray_list = []
    rank = None
    for r in rays:
        t = tuple(int(x) for x in r)
        if rank is None:
            rank = len(t)
        elif len(t) != rank:
            raise RankMismatch("rays of mixed rank")
        if not is_primitive(t):
            raise NotReflexive(f"ray {t} is not primitive")
        ray_list.append(t)
    ray_tuple = tuple(sorted(set(ray_list)))
    if rank is None:
        raise RankMismatch("rays do not span the cocharacter space")

    # _from_rows takes the rank of the normals first, so rays that do not
    # span fail there, and only then is it taken again, to say so
    try:
        antican = ExactPolytope._from_rows(1, [(r, -1) for r in ray_tuple], rank)
    except GeometryError as exc:
        if _rank(ray_tuple) < rank:
            raise RankMismatch("rays do not span the cocharacter space") from None
        raise NotReflexive(f"ray half-spaces do not bound a polytope: {exc}") from exc
    # the origin lies strictly inside every row, so the polytope is
    # full-dimensional; once its vertices are integral and its facets are
    # the rays, each facet's offset is a pairing with a vertex on it, -1
    den = antican.den
    if den != 1:
        v = next(v for n, v in zip(antican.nums, antican.vertices)
                 if any(x % den for x in n))
        raise NotReflexive(f"anticanonical polytope has non-lattice vertex {_show(v)}")
    if {a for a, _ in antican.facets} != set(ray_tuple):
        raise NotReflexive("rays do not match the facets of the anticanonical polytope")

    if not tables:
        raise DecompositionMismatch("empty decomposition")
    for _, pts in tables:
        if len(pts[0]) != rank:
            raise RankMismatch("summand rank differs from the model rank")
    cones = tuple(normal_cones(antican))
    # each distinct table once, with its multiplicity: its point pairings
    # with each ray and the least of them, the factor that brings it to one
    # denominator and counts its copies, and the points the certificate picks
    distinct = Counter(tables)
    pairs = [{r: _pairings(pts, r) for r in ray_tuple} for _, pts in distinct]
    lows = [{r: min(vals) for r, vals in by_ray.items()} for by_ray in pairs]
    lcm = math.lcm(*(d for d, _ in distinct))
    factors = [lcm // d * n for (d, _), n in distinct.items()]
    picked: list[set[int]] = [set() for _ in distinct]
    certified = True
    for cone, form in zip(cones, antican.nums):
        summed = [0] * rank
        for (_, pts), by_ray, low, f, ks in zip(distinct, pairs, lows, factors,
                                               picked):
            vals = [by_ray[g] for g in cone.generators]
            probe = list(map(sum, zip(*vals)))
            k = probe.index(min(probe))
            certified = certified and all(v[k] == low[g]
                                          for g, v in zip(cone.generators, vals))
            summed = [t + x * f for t, x in zip(summed, pts[k])]
            ks.add(k)
        certified = certified and summed == [x * lcm for x in form]
    if not certified:
        for r in ray_tuple:
            h = Fraction(sum(low[r] * f for low, f in zip(lows, factors)), lcm)
            if h != -1:
                raise DecompositionMismatch(
                    f"support of the decomposition along ray {_show(r)} "
                    f"is {h}, expected -1")
        hulls = {t: ExactPolytope._from_points(*t) for t in distinct}
        total = minkowski_sum([hulls[t] for t in tables])
        if total != antican:
            raise DecompositionMismatch(
                "Minkowski sum of the decomposition is "
                f"{' '.join(map(_show, total.vertices))}, "
                f"expected {' '.join(map(_show, antican.vertices))}")
        raise InternalInvariantError(
            "fan certificate rejected an exact Minkowski decomposition")

    # each table's polytope: its vertices are the points picked, and each
    # ray's face is the picked points on which the ray is least
    polys = {}
    for (d, pts), by_ray, low, ks in zip(distinct, pairs, lows, picked):
        ks = sorted(ks)
        on = [frozenset([j for j, k in enumerate(ks) if vals[k] == low[r]])
              for r, vals in by_ray.items()]
        polys[d, pts] = _from_tight(d, [pts[k] for k in ks], ray_tuple, on, rank)
    summands = tuple(polys[t] for t in tables)
    centroids = {p: centroid(p) for p in set(polys.values())}
    return ToricFanoModel(
        name=name,
        rank=rank,
        rays=ray_tuple,
        anticanonical=antican,
        summands=summands,
        barycenters=tuple(centroids[p] for p in summands),
        fan=cones,
    )


# ---------------------------------------------------------------------------
# support minima and the basic invariants


def support_min(model: ToricFanoModel, i: SummandIndex, eta: Sequence) -> Fraction:
    """min over the chosen polytope of <alpha, eta>; linear on each fan cone."""
    den, (e,) = _int_directions((eta,), model.summand(i).rank)
    return Fraction(*_support_min(model, i, den, e))


def _support_min(model: ToricFanoModel, i: SummandIndex, den: int,
                 e: IntVec) -> Ratio:
    """:func:`support_min` at eta = e / den."""
    p = model.summand(i)
    return min(_pairings(p.nums, e)), p.den * den


def log_discrepancy(model: ToricFanoModel, eta: Sequence) -> Fraction:
    """Log discrepancy of the cocharacter valuation at eta.

    Evaluated through the fan (value one on each primitive ray, linear on
    cones): the first cone holding eta gives minus the pairing with its
    vertex.  This equals minus the support minimum over the anticanonical
    polytope, which tests cross-check.
    """
    den, (e,) = _int_directions((eta,), model.rank)
    return Fraction(*_log_discrepancy(model, den, e))


def _log_discrepancy(model: ToricFanoModel, den: int, e: IntVec) -> Ratio:
    """:func:`log_discrepancy` at eta = e / den."""
    p = model.anticanonical
    for cone, form in zip(model.fan, p.nums):
        if cone.contains(e):
            return -vdot(form, e), p.den * den
    raise InternalInvariantError("fan lookup failed; fan incomplete")


def s_invariant(model: ToricFanoModel, i: SummandIndex, eta: Sequence) -> Fraction:
    """Expected vanishing slope of the summand along eta:
    <barycenter, eta> - min <., eta>."""
    den, (e,) = _int_directions((eta,), model.summand(i).rank)
    return Fraction(*_s_invariant(model, i, den, e))


def _s_invariant(model: ToricFanoModel, i: SummandIndex, den: int,
                 e: IntVec) -> Ratio:
    """:func:`s_invariant` at eta = e / den."""
    p = model.summand(i)
    b = model.bary_nums[-1 if i == TOTAL else i]
    bden = model.bary_den
    return (vdot(b, e) * p.den - min(_pairings(p.nums, e)) * bden,
            bden * p.den * den)


def t_invariant(model: ToricFanoModel, i: SummandIndex, eta: Sequence) -> Fraction:
    """Maximal vanishing slope: max <., eta> - min <., eta> over the summand."""
    den, (e,) = _int_directions((eta,), model.summand(i).rank)
    return Fraction(*_t_invariant(model, i, den, e))


def _t_invariant(model: ToricFanoModel, i: SummandIndex, den: int,
                 e: IntVec) -> Ratio:
    """:func:`t_invariant` at eta = e / den."""
    p = model.summand(i)
    vals = _pairings(p.nums, e)
    return max(vals) - min(vals), p.den * den


def theta_twist(model: ToricFanoModel, i: SummandIndex, eta: Sequence,
                xi: Sequence) -> Fraction:
    """Twist correction term: min<., eta> - min<., eta + xi> on the summand."""
    eta, xi = tuple(eta), tuple(xi)
    if len(eta) != len(xi):
        raise DimensionMismatch("eta and xi rank mismatch")
    den, (e, x) = _int_directions((eta, xi), model.summand(i).rank)
    return Fraction(*_twist_terms(model, i, den, e, x)[0])


def _twist_terms(model: ToricFanoModel, i: SummandIndex, den: int, e: IntVec,
                 x: IntVec) -> tuple[Ratio, IntVec]:
    """The twist correction at eta = e / den and xi = x / den, and the
    numerators of eta + xi over den."""
    p = model.summand(i)
    shifted = tuple(map(add, e, x))
    theta = (min(_pairings(p.nums, e)) - min(_pairings(p.nums, shifted)),
             p.den * den)
    return theta, shifted


def total_s_sum(model: ToricFanoModel, eta: Sequence) -> Fraction:
    """The sum of :func:`s_invariant` over the summands."""
    den, (e,) = _int_directions((eta,), model.rank)
    return Fraction(*_total_s_sum(model, den, e))


def _total_s_sum(model: ToricFanoModel, den: int, e: IntVec) -> Ratio:
    """:func:`total_s_sum` at eta = e / den: the pairing with the summed
    barycenters less the summed support minima, over one denominator."""
    pden = math.lcm(*(p.den for p in model.summands))
    mins = sum([min(_pairings(p.nums, e)) * (pden // p.den)
                for p in model.summands])
    bden = model.bary_den
    return (vdot(model.bary_nums[-1], e) * pden - mins * bden,
            bden * pden * den)


def integrality_step(model: ToricFanoModel, i: SummandIndex) -> int:
    """Least m such that m times the summand polytope is a lattice polytope."""
    return model.summand(i).den


def section_basis(model: ToricFanoModel, i: SummandIndex, m: int) -> list[tuple[int, ...]]:
    """Characters of the degree-m sections of the summand: the lattice
    points of the m-fold dilate, in canonical order."""
    if m < 1:
        raise ToricError("degree must be positive")
    p = model.summand(i)
    scaled = p.scale(m)
    if scaled.den != 1:
        raise NonIntegralScaling(
            f"degree {m} does not clear the denominators of summand {i!r}")
    return lattice_points(scaled)


# ---------------------------------------------------------------------------
# monomial ideal data and log canonical thresholds


class MonomialIdealSeq(Record):
    """Equivariant monomial ideal data on a model.

    Either a closed-form family (sections whose vanishing slope along
    ``eta`` is at least ``level``), or explicit per-degree generators
    ``(character, order)``; the usable ideal at degree m is generated by the
    characters whose order reaches ``level * m``.
    """

    _fields = ("summand", "level", "eta", "degrees")

    def __init__(self, summand: SummandIndex, level: Fraction,
                 eta: Optional[Vec] = None,
                 degrees: Optional[dict[int, tuple[tuple[tuple[int, ...],
                                                         Fraction], ...]]] = None):
        if (eta is None) == (degrees is None):
            raise ToricError("ideal data needs exactly one of eta or degrees")
        if eta is not None and not any(eta):
            raise ToricError("the valuation direction must be nonzero")
        if degrees is not None and any(m < 1 for m in degrees):
            raise ToricError("degree must be positive")
        vars(self).update(summand=summand, level=level, eta=eta, degrees=degrees)

    @staticmethod
    def valuation_levels(eta: Sequence, level, summand: SummandIndex = TOTAL) -> "MonomialIdealSeq":
        return MonomialIdealSeq(summand=summand, level=Fraction(level),
                                eta=as_vec(eta))

    @staticmethod
    def from_generators(degrees: dict[int, Sequence[tuple[Sequence[int], Fraction]]],
                        level, summand: SummandIndex = TOTAL) -> "MonomialIdealSeq":
        table = {}
        for m, gens in degrees.items():
            table[int(m)] = tuple(sorted(
                (tuple(int(c) for c in ch), Fraction(o)) for ch, o in gens))
        return MonomialIdealSeq(summand=summand, level=Fraction(level),
                                degrees=table)


class LctResult(NamedTuple):
    value: Optional[Fraction]          # None means +infinity (unit ideal)
    witness: Optional[tuple[int, ...]]
    provenance: str
    assumptions: tuple[str, ...] = (TORIC_SEARCH_ASSUMPTION,)


def _region_of_ideal(model: ToricFanoModel, ideal: MonomialIdealSeq,
                     degree: Optional[int] = None) -> ExactPolytope:
    """Normalized Newton region of the ideal data inside the summand polytope.

    For a valuation family the region is the summand P_i cut by
    ``<x, eta> >= level + min over P_i of <., eta>``, clipped from the
    vertices, edges and incidence P_i already holds (``geometry._clip``);
    an empty cut is a zero ideal.  For explicit generators it is the hull
    of the usable characters over the degree."""
    p = model.summand(ideal.summand)
    if ideal.eta is not None:
        # with eta = e / eden and level = lp / lq, the cut is
        # <x, e> >= (lp eden p.den + lq min_p <., e>) / (lq p.den)
        eden, (e,) = _int_directions((ideal.eta,), p.rank)
        lp, lq = ideal.level.numerator, ideal.level.denominator
        try:
            return _clip(p, e, lp * eden * p.den + lq * min(_pairings(p.nums, e)),
                         lq * p.den)
        except GeometryError as exc:
            raise ZeroIdeal(
                f"no sections reach slope {ideal.level} along {_show(ideal.eta)}"
            ) from exc
    if degree is None:
        degree = min(ideal.degrees)
    gens = [ch for ch, order in ideal.degrees.get(degree, ())
            if order >= ideal.level * degree]
    if not gens:
        raise ZeroIdeal(f"no generators at degree {degree} reach the level")
    for ch in gens:
        pt = tuple(Fraction(c, degree) for c in ch)
        if not p.contains(pt):
            raise ToricError(f"generator {_show(pt)} outside the summand polytope")
    return ExactPolytope._from_points(degree, gens)


def monomial_lct(model: ToricFanoModel, ideal: MonomialIdealSeq,
                 scale: Fraction = Fraction(1),
                 degree: Optional[int] = None) -> LctResult:
    """Log canonical threshold of the (scaled) monomial ideal data.

    Computed as the infimum over cocharacter valuations of
    ``A(eta) / (scale * ord(eta))``, with ``ord`` the vanishing order of
    the ideal, ``min over the region of <., eta>`` minus ``min over the
    summand of <., eta>``.  The summand's support is linear on every fan
    cone, and ``restrict_min_support`` cuts every cone into the cells on
    which the region's is too, which covers degenerate (point or segment)
    regions; A is linear on every cone.  So the infimum is taken at a ray
    of those cells, where both are evaluated directly, on integers: each
    ray goes to ``minimize_pl_ratio`` as one (numerator, denominator) pair
    of ints, and only the value is built as a ``Fraction``.  The region's
    edge table is built once per call, and each cone's cells are found by
    a walk that solves only the cells that exist.  Returns +infinity
    (value None) when no direction constrains, which is the unit-ideal
    case.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ToricError("ideal scale must be positive")
    region = _region_of_ideal(model, ideal, degree)
    p = model.summand(ideal.summand)
    rays = sorted({g for cells in restrict_min_support(model.fan, region)
                   for cell in cells for g in cell})
    # at a ray g, A = a / ad and scale ord = sp (mr p.den - mp r.den)
    # / (sq r.den p.den), with mr and mp the least pairings of the region's
    # and the summand's numerators with g: the ratio is one pair of ints
    sp, sq = scale.numerator, scale.denominator
    k = sq * region.den * p.den
    values = []
    for g in rays:
        a, ad = _log_discrepancy(model, 1, g)
        order = (min(_pairings(region.nums, g)) * p.den
                 - min(_pairings(p.nums, g)) * region.den)
        values.append((g, a * k, ad * sp * order))
    res = minimize_pl_ratio(values)
    return LctResult(res.value, res.witness, "optimized-with-certificate")


def _containment_lct(model: ToricFanoModel,
                     ideal: MonomialIdealSeq) -> Optional[Fraction]:
    """The value of :func:`monomial_lct` at scale 1, found without the fan.

    With P the anticanonical polytope, P_i the summand and R the ideal's
    region, ``A(eta) >= c * ord(eta)`` for every eta says that ``c * P_i``
    lies in ``P + c * R``.  So the threshold is ``1 / g``, with g the
    largest over the vertices v of P_i of the least gauge of P at ``v - r``
    for r in R, and +infinity (None) when g is 0.  The gauge of P at x is
    ``max over rays rho of -<x, rho>``, which is never negative as the
    rays of a complete fan positively span.  Each least gauge is the least
    z over the pointed polyhedron
    ``{(r, z) : r in R, z >= <r - v, rho> for every ray rho}``, taken at a
    vertex, and 0 when v is in R.
    """
    region = _region_of_ideal(model, ideal)
    p = model.summand(ideal.summand)
    # the rows over den: r in R, and z >= <r, rho> - <n, rho> / p.den
    den = math.lcm(region.den, p.den)
    lifted = [(a + (0,), c * (den // region.den)) for a, c in region.facets]
    g = Fraction(0)
    for n, v in zip(p.nums, p.vertices):
        if region.contains(v):
            continue
        rows = lifted + [(tuple(-x for x in rho) + (1,),
                          -vdot(n, rho) * (den // p.den))
                         for rho in model.rays]
        vden, verts, _ = _cramer_vertices(den, rows, model.rank + 1)
        g = max(g, Fraction(min(w[-1] for w in verts), vden))
    return None if g == 0 else 1 / g
