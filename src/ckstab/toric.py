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

Log canonical thresholds of equivariant monomial ideal data are computed by
exact fractional programming over the fan; the reduction of the search to
cocharacter valuations is recorded as an assumption in every certificate.
A second route to the same threshold, through a polytope containment and
without the fan, is the identity suite's oracle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Optional, Sequence, Union

from .errors import InputError, InternalInvariantError
from .geometry import (Cone, DimensionMismatch, ExactPolytope, GeometryError,
                       HalfSpace, IntVec, Vec, _int_directions, _pairings,
                       _scaled, _vertices_from_halfspaces, as_vec, centroid,
                       check_complete_fan_rank2, is_primitive, lattice_points,
                       mat_rank, minkowski_sum, normal_fan,
                       restrict_min_support, support_value, vdot, vneg)
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
    Minkowski decomposition into summand polytopes, with cached barycenters
    and per-cone support forms.

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
    support_forms: tuple[tuple[Vec, ...], ...]   # [cone][summand] argmin vertex
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
    normal fan is complete.  Caches the normal fan and the per-cone support
    minimizers of every summand.

    The sum is certified on each cone of that fan: each summand's minimizer
    at an interior probe must attain the summand's support value at every
    generator (so that support function is linear on the cone), and the
    minimizers must add up to the polytope's own.  As h(P + Q) = h(P) + h(Q)
    and the fan is complete, this holds exactly when the sum is the
    polytope; only a failure hulls the sum with ``minkowski_sum``.
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
    if rank is None or mat_rank([list(r) for r in ray_tuple]) < rank:
        raise RankMismatch("rays do not span the cocharacter space")

    halfspaces = [HalfSpace(r, Fraction(-1)) for r in ray_tuple]
    try:
        antican = ExactPolytope.from_halfspaces(halfspaces, rank)
    except GeometryError as exc:
        raise NotReflexive(f"ray half-spaces do not bound a polytope: {exc}") from exc
    if antican.dim != rank:
        raise NotReflexive("anticanonical polytope is not full-dimensional")
    for v in antican.vertices:
        if any(x.denominator != 1 for x in v):
            raise NotReflexive(f"anticanonical polytope has non-lattice vertex {_show(v)}")
    facet_normals = {h.normal for h in antican.halfspaces}
    if facet_normals != set(ray_tuple):
        raise NotReflexive("rays do not match the facets of the anticanonical polytope")
    if any(h.offset != -1 for h in antican.halfspaces):
        raise NotReflexive("anticanonical facets not at level -1")

    summands = tuple(decomposition)
    if not summands:
        raise DecompositionMismatch("empty decomposition")
    for p in summands:
        if p.rank != rank:
            raise RankMismatch("summand rank differs from the model rank")
    fan_pieces = normal_fan(antican)
    cones = tuple(c for c, _ in fan_pieces)
    support_forms = []
    certified = True
    for cone, form in fan_pieces:
        probe = cone.interior_point()
        row = tuple(support_value(p, probe, "min")[1] for p in summands)
        certified = (certified and tuple(map(sum, zip(*row))) == form
                     and all(vdot(a, g) == support_value(p, g, "min")[0]
                             for p, a in zip(summands, row)
                             for g in cone.generators))
        support_forms.append(row)
    if not certified or (rank == 2 and not check_complete_fan_rank2(cones)):
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
        support_forms=tuple(support_forms),
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
    eta, xi = tuple(eta), tuple(xi)
    if len(eta) != len(xi):
        raise DimensionMismatch("eta and xi rank mismatch")
    p = model.summand(i)
    den, (e, x) = _int_directions((eta, xi), p.rank)
    shifted = tuple(map(add, e, x))
    return Fraction(min(_pairings(p.nums, e)) - min(_pairings(p.nums, shifted)),
                    p.den * den)


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
        lam = support_min(model, ideal.summand, ideal.eta)
        cut = HalfSpace.make(ideal.eta, ideal.level + lam)
        try:
            return ExactPolytope.from_halfspaces(list(p.halfspaces) + [cut], p.rank)
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
    pts = [tuple(Fraction(c, degree) for c in ch) for ch in gens]
    for pt in pts:
        if not p.contains(pt):
            raise ToricError(f"generator {_show(pt)} outside the summand polytope")
    return ExactPolytope.from_vertices(pts)


def monomial_lct(model: ToricFanoModel, ideal: MonomialIdealSeq,
                 scale: Fraction = Fraction(1),
                 degree: Optional[int] = None) -> LctResult:
    """Log canonical threshold of the (scaled) monomial ideal data.

    Computed as the infimum over cocharacter valuations of
    ``A(eta) / (scale * vanishing order of the ideal along eta)`` by exact
    per-cone fractional programming.  Returns +infinity (value None) when
    no direction constrains, which is the unit-ideal case.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ToricError("ideal scale must be positive")
    region = _region_of_ideal(model, ideal, degree)

    # The vanishing order of the ideal along eta is
    #   min over the region of <., eta>  -  min over the summand of <., eta>.
    # The summand support is linear on every fan cone already; only the
    # region support needs a subdivision, which also covers degenerate
    # (point or segment) Newton regions.
    if ideal.summand == TOTAL:
        summand_forms = list(model.total_forms)
    else:
        idx = ideal.summand
        summand_forms = [row[idx] for row in model.support_forms]
    cells = []
    for cone, a_form, p_form in zip(model.fan,
                                    (vneg(f) for f in model.total_forms),
                                    summand_forms):
        for rays, v in restrict_min_support(cone, region):
            den_form = tuple(scale * (a - b) for a, b in zip(v, p_form))
            cells.append((rays, a_form, den_form))
    res = minimize_pl_ratio(cells)
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
    rank = model.rank
    region = _region_of_ideal(model, ideal)
    lifted = [HalfSpace(h.normal + (0,), h.offset) for h in region.halfspaces]
    g = Fraction(0)
    for v in model.summand(ideal.summand).vertices:
        if region.contains(v):
            continue
        rows = lifted + [HalfSpace(tuple(-x for x in rho) + (1,), -vdot(v, rho))
                         for rho in model.rays]
        g = max(g, min(w[-1] for w in _vertices_from_halfspaces(rows, rank + 1)))
    return None if g == 0 else 1 / g
