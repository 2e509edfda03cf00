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

Each invariant scales its direction to integers once (one lcm over eta
and xi together for the twist), pairs it with the integer vertex table of
the polytope, the integer facets of the fan cones and the barycenter
numerators ``bary_nums`` of the model, and builds one ``Fraction`` for
its result.

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
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Optional, Sequence, Union

from .errors import InputError, InternalInvariantError
from .geometry import (Cone, DimensionMismatch, ExactPolytope, GeometryError,
                       IntVec, Vec, _cramer_vertices, _int_directions,
                       _pairings, _rank, _scaled, as_vec, centroid,
                       check_complete_fan_rank2, is_primitive, lattice_points,
                       minkowski_sum, normal_fan, restrict_min_support, vdot)
from .optimize import minimize_pl_ratio

TOTAL = "total"
SummandIndex = Union[int, str]


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


@dataclass(frozen=True)
class ToricFanoModel:
    """Immutable toric Fano model: fan rays, anticanonical polytope, and a
    Minkowski decomposition into summand polytopes, with cached barycenters.

    ``fan[k]`` is the inner normal cone of ``anticanonical.vertices[k]``,
    so that vertex (``total_forms[k]``, with numerators
    ``anticanonical.nums[k]``) is the form of the support function on it.
    ``bary_nums`` holds the barycenters, and their sum last, as integer
    numerators over the positive integer ``bary_den``; both are set from
    ``barycenters``.
    """

    name: str
    rank: int
    rays: tuple[tuple[int, ...], ...]
    anticanonical: ExactPolytope
    summands: tuple[ExactPolytope, ...]
    barycenters: tuple[Vec, ...]
    fan: tuple[Cone, ...]
    # the character tuple of each (summand, degree); see
    # filtration.graded_basis.  Weight rows are int tuples aligned with
    # them.  Neither memo refers back to the model.
    bases: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    # max-plus gather plans by their exact (left, right, target) character
    # tuples; see filtration._plan
    plans: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    bary_den: int = field(init=False, repr=False, compare=False)
    bary_nums: tuple[IntVec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        den, nums = _scaled(self.barycenters)
        object.__setattr__(self, "bary_den", den)
        object.__setattr__(self, "bary_nums", nums + (tuple(map(sum, zip(*nums))),))

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
    have its rank; the decomposition sums to it exactly; in rank 2 its
    normal fan is complete.  Caches the normal fan.

    The sum is certified on each cone of that fan: each summand's minimizer
    at an interior probe must attain the summand's support value at every
    generator (so that support function is linear on the cone), and the
    minimizers must add up to the polytope's own.  As h(P + Q) = h(P) + h(Q)
    and the fan is complete, this holds exactly when the sum is the
    polytope.  On a failure the summands' support values along each ray
    must still add up to -1, the polytope's, or the mismatch is reported
    at the first ray where they do not; only then is the sum hulled with
    ``minkowski_sum``, to tell a wrong decomposition from a failed
    certificate and to list the sum's vertices.  The
    probe is the sum of the cone's generators, which are rays, so every
    pairing is an integer sum of each summand's vertex pairings with the
    rays.
    """
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
    if rank is None or _rank(ray_tuple) < rank:
        raise RankMismatch("rays do not span the cocharacter space")

    try:
        antican = ExactPolytope._from_rows(1, [(r, -1) for r in ray_tuple], rank)
    except GeometryError as exc:
        raise NotReflexive(f"ray half-spaces do not bound a polytope: {exc}") from exc
    if antican.dim != rank:
        raise NotReflexive("anticanonical polytope is not full-dimensional")
    den = antican.den
    if den != 1:
        v = next(v for n, v in zip(antican.nums, antican.vertices)
                 if any(x % den for x in n))
        raise NotReflexive(f"anticanonical polytope has non-lattice vertex {_show(v)}")
    if {a for a, _ in antican.facets} != set(ray_tuple):
        raise NotReflexive("rays do not match the facets of the anticanonical polytope")
    if any(c != -1 for _, c in antican.facets):
        raise NotReflexive("anticanonical facets not at level -1")

    summands = tuple(decomposition)
    if not summands:
        raise DecompositionMismatch("empty decomposition")
    for p in summands:
        if p.rank != rank:
            raise RankMismatch("summand rank differs from the model rank")
    cones = tuple(c for c, _ in normal_fan(antican))
    # the summand vertex pairings with each ray, and the factors that bring
    # the summands to one denominator
    pairs = [{r: _pairings(p.nums, r) for r in ray_tuple} for p in summands]
    lcm = math.lcm(*(p.den for p in summands))
    factors = [lcm // p.den for p in summands]
    certified = True
    for cone, form in zip(cones, antican.nums):
        summed = [0] * rank
        for p, by_ray, f in zip(summands, pairs, factors):
            vals = [by_ray[g] for g in cone.generators]
            probe = list(map(sum, zip(*vals)))
            k = probe.index(min(probe))
            certified = certified and all(v[k] == min(v) for v in vals)
            summed = [t + x * f for t, x in zip(summed, p.nums[k])]
        certified = certified and summed == [x * lcm for x in form]
    if not certified or (rank == 2 and not check_complete_fan_rank2(cones)):
        for r in ray_tuple:
            h = Fraction(sum(min(by_ray[r]) * f
                             for by_ray, f in zip(pairs, factors)), lcm)
            if h != -1:
                raise DecompositionMismatch(
                    f"support of the decomposition along ray {_show(r)} "
                    f"is {h}, expected -1")
        total = minkowski_sum(list(summands))
        if total != antican:
            raise DecompositionMismatch(
                "Minkowski sum of the decomposition is "
                f"{' '.join(map(_show, total.vertices))}, "
                f"expected {' '.join(map(_show, antican.vertices))}")
        if not certified:
            raise InternalInvariantError(
                "fan certificate rejected an exact Minkowski decomposition")
        raise NotReflexive("normal fan is not complete")

    return ToricFanoModel(
        name=name,
        rank=rank,
        rays=ray_tuple,
        anticanonical=antican,
        summands=summands,
        barycenters=tuple(centroid(p) for p in summands),
        fan=cones,
    )


# ---------------------------------------------------------------------------
# support minima and the basic invariants


def support_min(model: ToricFanoModel, i: SummandIndex, eta: Sequence) -> Fraction:
    """min over the chosen polytope of <alpha, eta>; linear on each fan cone."""
    p = model.summand(i)
    den, (e,) = _int_directions((eta,), p.rank)
    return Fraction(min(_pairings(p.nums, e)), p.den * den)


def log_discrepancy(model: ToricFanoModel, eta: Sequence) -> Fraction:
    """Log discrepancy of the cocharacter valuation at eta.

    Evaluated through the fan (value one on each primitive ray, linear on
    cones): the first cone holding eta gives minus the pairing with its
    vertex.  This equals minus the support minimum over the anticanonical
    polytope, which tests cross-check.
    """
    p = model.anticanonical
    den, (e,) = _int_directions((eta,), model.rank)
    for cone, form in zip(model.fan, p.nums):
        if cone.contains(e):
            return Fraction(-vdot(form, e), p.den * den)
    raise InternalInvariantError("fan lookup failed; fan incomplete")


def s_invariant(model: ToricFanoModel, i: SummandIndex, eta: Sequence) -> Fraction:
    """Expected vanishing slope of the summand along eta:
    <barycenter, eta> - min <., eta>."""
    p = model.summand(i)
    den, (e,) = _int_directions((eta,), p.rank)
    b = model.bary_nums[-1 if i == TOTAL else i]
    bden = model.bary_den
    return Fraction(vdot(b, e) * p.den - min(_pairings(p.nums, e)) * bden,
                    bden * p.den * den)


def t_invariant(model: ToricFanoModel, i: SummandIndex, eta: Sequence) -> Fraction:
    """Maximal vanishing slope: max <., eta> - min <., eta> over the summand."""
    p = model.summand(i)
    den, (e,) = _int_directions((eta,), p.rank)
    vals = _pairings(p.nums, e)
    return Fraction(max(vals) - min(vals), p.den * den)


def theta_twist(model: ToricFanoModel, i: SummandIndex, eta: Sequence,
                xi: Sequence) -> Fraction:
    """Twist correction term: min<., eta> - min<., eta + xi> on the summand."""
    return _twist_terms(model, i, eta, xi)[0]


def _twist_terms(model: ToricFanoModel, i: SummandIndex, eta: Sequence,
                 xi: Sequence) -> tuple[Fraction, int, IntVec]:
    """The twist correction, and eta + xi as integer numerators over one
    positive denominator, from one integer scaling of eta and xi."""
    eta, xi = tuple(eta), tuple(xi)
    if len(eta) != len(xi):
        raise DimensionMismatch("eta and xi rank mismatch")
    p = model.summand(i)
    den, (e, x) = _int_directions((eta, xi), p.rank)
    shifted = tuple(map(add, e, x))
    theta = Fraction(min(_pairings(p.nums, e)) - min(_pairings(p.nums, shifted)),
                     p.den * den)
    return theta, den, shifted


def total_s_sum(model: ToricFanoModel, eta: Sequence) -> Fraction:
    return sum((s_invariant(model, i, eta) for i in range(model.num_summands)),
               Fraction(0))


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


@dataclass(frozen=True)
class MonomialIdealSeq:
    """Equivariant monomial ideal data on a model.

    Either a closed-form family (sections whose vanishing slope along
    ``eta`` is at least ``level``), or explicit per-degree generators
    ``(character, order)``; the usable ideal at degree m is generated by the
    characters whose order reaches ``level * m``.
    """

    summand: SummandIndex
    level: Fraction
    eta: Optional[Vec] = None
    degrees: Optional[dict[int, tuple[tuple[tuple[int, ...], Fraction], ...]]] = None

    def __post_init__(self):
        if (self.eta is None) == (self.degrees is None):
            raise ToricError("ideal data needs exactly one of eta or degrees")
        if self.eta is not None and not any(self.eta):
            raise ToricError("the valuation direction must be nonzero")
        if self.degrees is not None and any(m < 1 for m in self.degrees):
            raise ToricError("degree must be positive")

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


@dataclass(frozen=True)
class LctResult:
    value: Optional[Fraction]          # None means +infinity (unit ideal)
    witness: Optional[tuple[int, ...]]
    provenance: str
    assumptions: tuple[str, ...] = (TORIC_SEARCH_ASSUMPTION,)


def _region_of_ideal(model: ToricFanoModel, ideal: MonomialIdealSeq,
                     degree: Optional[int] = None) -> ExactPolytope:
    """Normalized Newton region of the ideal data inside the summand polytope."""
    p = model.summand(ideal.summand)
    if ideal.eta is not None:
        # with eta = e / eden, the cut <x, eta> >= level + min_p <., eta> is
        # <x, e> >= level eden + min_p <., e>
        eden, (e,) = _int_directions((ideal.eta,), p.rank)
        cut = ideal.level * eden + Fraction(min(_pairings(p.nums, e)), p.den)
        den = math.lcm(p.den, cut.denominator)
        rows = [(a, c * (den // p.den)) for a, c in p.facets]
        rows.append((e, cut.numerator * (den // cut.denominator)))
        try:
            return ExactPolytope._from_rows(den, rows, p.rank)
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
    of those cells, where both are evaluated directly.  The region's edge
    table is built once per call, and each cone's cells are found by a
    walk that solves only the cells that exist.  Returns +infinity (value
    None) when no direction constrains, which is the unit-ideal case.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ToricError("ideal scale must be positive")
    region = _region_of_ideal(model, ideal, degree)
    p = model.summand(ideal.summand)
    rays = sorted({g for cells in restrict_min_support(model.fan, region)
                   for cell in cells for g in cell})
    unit = scale / (region.den * p.den)
    res = minimize_pl_ratio(
        (g, log_discrepancy(model, g),
         unit * (min(_pairings(region.nums, g)) * p.den
                 - min(_pairings(p.nums, g)) * region.den))
        for g in rays)
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
        vden, verts = _cramer_vertices(den, rows, model.rank + 1)
        g = max(g, Fraction(min(w[-1] for w in verts), vden))
    return None if g == 0 else 1 / g
