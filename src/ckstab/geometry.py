"""Exact rational polytope kernel.

Everything in this module is computed over ``fractions.Fraction``; there is
no floating point anywhere.  Polytopes carry both a vertex description and a
half-space description, cross-validated on construction.  The kernel also
provides rational cones and piecewise-linear functions on complete fans,
which the optimization and toric layers build on.

Intended for small ambient ranks (p <= 4); enumeration is done by exact
brute force over subsets, which is entirely adequate at these sizes and
keeps every certificate exact.  Every cone is enumerated by one routine,
``extreme_rays``: the rays of a cone from its inner normals, the facets of
a cone from its generators (the rays of the dual cone), the recession
directions of a half-space system, and its feasibility through the
homogenised system.  The only other subset enumerations are the two affine
hull loops, ``_facets_from_points`` and ``_vertices_from_halfspaces``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalInvariantError

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


class GeometryError(InputError):
    """Invalid input to the polytope kernel."""


class UnboundedRegion(GeometryError):
    pass


class EmptyRegion(GeometryError):
    pass


class DimensionMismatch(GeometryError):
    pass


class DegenerateInput(GeometryError):
    pass


# ---------------------------------------------------------------------------
# vector helpers


def vec(*coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


def as_vec(coords: Iterable) -> Vec:
    return tuple(Fraction(c) for c in coords)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


_ZERO = Fraction(0)


def vdot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"rank {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), _ZERO)


def is_zero_vec(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def primitive_vector(a: Sequence) -> IntVec:
    """Scale a nonzero rational vector to a primitive integer vector.

    Orientation is preserved: the result is a positive multiple of the input.
    """
    fr = [Fraction(x) for x in a]
    if all(x == 0 for x in fr):
        raise GeometryError("cannot primitivize the zero vector")
    den = math.lcm(*(x.denominator for x in fr))
    ints = [int(x * den) for x in fr]
    g = math.gcd(*(abs(v) for v in ints))
    return tuple(v // g for v in ints)


def is_primitive(a: Sequence[int]) -> bool:
    nz = [abs(int(x)) for x in a if x != 0]
    if not nz:
        return False
    return math.gcd(*nz) == 1


# ---------------------------------------------------------------------------
# exact linear algebra (Gaussian elimination over Fraction)


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce in place; return (reduced rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def mat_rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    _, pivots = _echelon([[Fraction(x) for x in row] for row in rows])
    return len(pivots)


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vec]:
    """Solve A x = b exactly.  Returns None if inconsistent.

    For underdetermined systems the free variables are set to zero, with a
    deterministic pivot order, so results are reproducible.
    """
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    mat, pivots = _echelon(aug)
    for row in mat:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = mat[r][-1]
    return tuple(x)


def nullspace(rows: Sequence[Sequence], n: Optional[int] = None) -> list[Vec]:
    """Basis of the right nullspace of the given row vectors."""
    if n is None:
        if not rows:
            raise GeometryError("nullspace needs the ambient rank for no rows")
        n = len(rows[0])
    if not rows:
        return [tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
                for i in range(n)]
    mat, pivots = _echelon([[Fraction(x) for x in row] for row in rows])
    basis = []
    free_cols = [c for c in range(n) if c not in pivots]
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -mat[r][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# half-spaces


@dataclass(frozen=True)
class HalfSpace:
    """The set { alpha : <alpha, normal> >= offset } with a primitive normal."""

    normal: IntVec
    offset: Fraction

    @staticmethod
    def make(normal: Sequence, offset) -> "HalfSpace":
        if all(x == 0 for x in normal):
            raise GeometryError("half-space normal must be nonzero")
        prim = primitive_vector(normal)
        j = next(i for i, x in enumerate(prim) if x != 0)
        return HalfSpace(prim, Fraction(offset) * prim[j] / Fraction(normal[j]))

    def satisfies(self, point: Sequence) -> bool:
        return vdot(point, self.normal) >= self.offset

    def on_boundary(self, point: Sequence) -> bool:
        return vdot(point, self.normal) == self.offset

    def translate(self, t: Sequence) -> "HalfSpace":
        return HalfSpace(self.normal, self.offset + vdot(t, self.normal))

    def scale(self, r: Fraction) -> "HalfSpace":
        return HalfSpace(self.normal, self.offset * Fraction(r))

    def sort_key(self):
        return (self.normal, self.offset)


# ---------------------------------------------------------------------------
# polytopes


class ExactPolytope:
    """A nonempty bounded rational polytope with dual descriptions.

    Vertices are stored in lexicographic order and half-spaces with
    primitive integer normals in a canonical order, so equal polytopes
    compare equal structurally.  Lower-dimensional polytopes are supported:
    their half-space list contains equality pairs cutting out the affine
    hull.
    """

    __slots__ = ("vertices", "halfspaces", "dim", "rank")

    def __init__(self, vertices: Sequence[Vec], halfspaces: Sequence[HalfSpace],
                 dim: int, rank: int):
        self.vertices: tuple[Vec, ...] = tuple(sorted(set(vertices)))
        self.halfspaces: tuple[HalfSpace, ...] = tuple(
            sorted(set(halfspaces), key=HalfSpace.sort_key))
        self.dim = dim
        self.rank = rank

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_vertices(points: Sequence[Sequence]) -> "ExactPolytope":
        pts = sorted({as_vec(p) for p in points})
        if not pts:
            raise EmptyRegion("no points given")
        ranks = {len(p) for p in pts}
        if len(ranks) != 1:
            raise DimensionMismatch("points of mixed rank")
        rank = ranks.pop()
        base = pts[0]
        diffs = [vsub(p, base) for p in pts[1:]]
        dim = mat_rank(diffs) if diffs else 0

        if dim == 0:
            hs = []
            for j in range(rank):
                e = tuple(1 if i == j else 0 for i in range(rank))
                hs.append(HalfSpace(e, base[j]))
                hs.append(HalfSpace(tuple(-x for x in e), -base[j]))
            return ExactPolytope([base], hs, 0, rank)

        if dim == rank:
            halfspaces = _facets_from_points(pts, rank)
            poly = ExactPolytope._from_halfspaces_trusted(halfspaces, rank)
            input_set = set(pts)
            for v in poly.vertices:
                if v not in input_set:
                    raise InternalInvariantError("hull cross-validation failed")
            return poly

        # lower-dimensional: work in affine-hull coordinates and lift back
        span = _independent_rows(diffs, dim)
        local_pts = []
        for p in pts:
            t = solve_linear([[span[j][i] for j in range(dim)] for i in range(rank)],
                             vsub(p, base))
            if t is None:
                raise InternalInvariantError("point outside its own affine hull")
            local_pts.append(t)
        local = ExactPolytope.from_vertices(local_pts)
        halfspaces = []
        for h in local.halfspaces:
            # lift a local facet <a, t> >= c to ambient <x, n> >= c + <base, n>
            # where n solves span^T n = a
            n = solve_linear([list(s) for s in span],
                             [Fraction(a) for a in h.normal])
            if n is None:
                raise InternalInvariantError("facet lift failed")
            halfspaces.append(HalfSpace.make(n, h.offset + vdot(base, n)))
        for q in nullspace([list(s) for s in span], rank):
            qn = primitive_vector(q)
            c = vdot(base, qn)
            halfspaces.append(HalfSpace(qn, c))
            halfspaces.append(HalfSpace(tuple(-x for x in qn), -c))
        lifted = [vadd(base, _combine(span, t)) for t in local.vertices]
        return ExactPolytope(lifted, halfspaces, dim, rank)

    @staticmethod
    def from_halfspaces(halfspaces: Sequence[HalfSpace], rank: int) -> "ExactPolytope":
        hs = sorted(set(halfspaces), key=HalfSpace.sort_key)
        if not hs:
            raise GeometryError("no half-spaces given")
        for h in hs:
            if len(h.normal) != rank:
                raise DimensionMismatch("half-space rank mismatch")
        normals = [h.normal for h in hs]
        if mat_rank(normals) < rank:
            raise UnboundedRegion("half-space normals do not span; lineality present")
        if extreme_rays(normals, rank):
            # a recession direction exists; the region is nonempty exactly when
            # the cone { (x, t) : <n, x> >= offset * t, t >= 0 }, pointed as
            # the normals span, has a ray with t > 0
            lifted = [h.normal + (-h.offset,) for h in hs] + [(0,) * rank + (1,)]
            if any(r[-1] > 0 for r in extreme_rays(lifted, rank + 1)):
                raise UnboundedRegion("feasible region is unbounded")
            raise EmptyRegion("contradictory constraints")
        verts = _vertices_from_halfspaces(hs, rank)
        if not verts:
            raise EmptyRegion("half-space intersection is empty")
        return ExactPolytope.from_vertices(verts)

    @staticmethod
    def _from_halfspaces_trusted(halfspaces: Sequence[HalfSpace], rank: int) -> "ExactPolytope":
        verts = _vertices_from_halfspaces(halfspaces, rank)
        if not verts:
            raise EmptyRegion("half-space intersection is empty")
        base = verts[0]
        dim = mat_rank([vsub(v, base) for v in verts[1:]]) if len(verts) > 1 else 0
        return ExactPolytope(verts, halfspaces, dim, rank)

    # -- queries ------------------------------------------------------------

    def contains(self, point: Sequence) -> bool:
        return all(h.satisfies(point) for h in self.halfspaces)

    def translate(self, t: Sequence) -> "ExactPolytope":
        tv = as_vec(t)
        return ExactPolytope([vadd(v, tv) for v in self.vertices],
                             [h.translate(tv) for h in self.halfspaces],
                             self.dim, self.rank)

    def scale(self, r) -> "ExactPolytope":
        r = Fraction(r)
        if r <= 0:
            raise GeometryError("scale factor must be positive")
        return ExactPolytope([vscale(r, v) for v in self.vertices],
                             [h.scale(r) for h in self.halfspaces],
                             self.dim, self.rank)

    def __eq__(self, other):
        return (isinstance(other, ExactPolytope)
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"ExactPolytope(dim={self.dim}, rank={self.rank}, vertices={len(self.vertices)})"


def _combine(basis: Sequence[Vec], coeffs: Vec) -> Vec:
    out = [Fraction(0)] * len(basis[0])
    for c, b in zip(coeffs, basis):
        for i, x in enumerate(b):
            out[i] += c * x
    return tuple(out)


def _independent_rows(rows: Sequence[Vec], want: int) -> list[Vec]:
    chosen: list[Vec] = []
    for r in rows:
        if mat_rank(chosen + [r]) > len(chosen):
            chosen.append(r)
            if len(chosen) == want:
                break
    if len(chosen) != want:
        raise InternalInvariantError("could not extract independent rows")
    return chosen


# The two affine hull loops below stay affine.  Lifted to height 1 they could
# run through ``extreme_rays`` with the same results, but the model builds
# whose time they dominate would then make 1.2 to 1.3 times the Python calls.
def _facets_from_points(pts: list[Vec], rank: int) -> list[HalfSpace]:
    facets: set[HalfSpace] = set()
    for subset in itertools.combinations(pts, rank):
        diffs = [vsub(p, subset[0]) for p in subset[1:]]
        if rank == 1:
            normals = [(Fraction(1),)]
        else:
            ns = nullspace(diffs, rank)
            if len(ns) != 1:
                continue
            normals = ns
        n = normals[0]
        c = vdot(subset[0], n)
        vals = [vdot(p, n) for p in pts]
        if all(v >= c for v in vals):
            facets.add(HalfSpace.make(n, c))
        if all(v <= c for v in vals):
            facets.add(HalfSpace.make(vneg(n), -c))
    if not facets:
        raise InternalInvariantError("facet enumeration found nothing")
    return sorted(facets, key=HalfSpace.sort_key)


def _vertices_from_halfspaces(halfspaces: Sequence[HalfSpace], rank: int) -> list[Vec]:
    hs = sorted(set(halfspaces), key=HalfSpace.sort_key)
    verts: set[Vec] = set()
    for subset in itertools.combinations(hs, rank):
        rows = [list(h.normal) for h in subset]
        if mat_rank(rows) < rank:
            continue
        x = solve_linear(rows, [h.offset for h in subset])
        if x is None:
            continue
        if all(h.satisfies(x) for h in hs):
            verts.add(x)
    return sorted(verts)


def extreme_rays(normals: Sequence[Sequence], rank: int) -> list[Vec]:
    """Extreme rays of the cone { y : <n, y> >= 0 for every normal }.

    Each (rank-1)-subset of the normals whose nullspace is a line spans g;
    g and then -g are kept when they satisfy every inequality, unnormalised,
    in subset order and with repeats.  The list is complete when the normals
    span (the cone is pointed).  In rank 1 the empty subset spans the whole
    line, so +1 and -1 are checked.
    """
    rays: list[Vec] = []
    for subset in itertools.combinations(normals, rank - 1):
        ns = nullspace(subset, rank)
        if len(ns) != 1:
            continue
        for cand in (ns[0], vneg(ns[0])):
            if all(vdot(n, cand) >= 0 for n in normals):
                rays.append(cand)
    return rays


# ---------------------------------------------------------------------------
# the operations of the public contract


def dual_description(vertices: Optional[Sequence[Sequence]] = None,
                     halfspaces: Optional[Sequence[HalfSpace]] = None,
                     rank: Optional[int] = None) -> ExactPolytope:
    """Build a polytope from either description, populating the other.

    Exactly one of ``vertices``/``halfspaces`` must be given.  Vertices are
    deduplicated and returned in canonical lexicographic order.
    """
    if (vertices is None) == (halfspaces is None):
        raise GeometryError("give exactly one of vertices or halfspaces")
    if vertices is not None:
        return ExactPolytope.from_vertices(vertices)
    if rank is None:
        if not halfspaces:
            raise GeometryError("empty half-space list")
        rank = len(halfspaces[0].normal)
    return ExactPolytope.from_halfspaces(halfspaces, rank)


def minkowski_sum(polys: Sequence[ExactPolytope]) -> ExactPolytope:
    """Minkowski sum; the result's vertices are among sums of vertex tuples."""
    if not polys:
        raise GeometryError("empty Minkowski sum")
    ranks = {p.rank for p in polys}
    if len(ranks) != 1:
        raise DimensionMismatch("Minkowski summands of mixed rank")
    acc = polys[0]
    for q in polys[1:]:
        sums = [vadd(a, b) for a in acc.vertices for b in q.vertices]
        acc = ExactPolytope.from_vertices(sums)
    return acc


def triangulate(p: ExactPolytope) -> list[tuple[Vec, ...]]:
    """Simplices (as vertex tuples) fanned from the lex-least vertex.

    The simplices partition the polytope up to measure zero; the list order
    is deterministic.
    """
    if p.dim == 0:
        return [(p.vertices[0],)]
    if p.dim == 1:
        return [(p.vertices[0], p.vertices[-1])]
    v0 = p.vertices[0]
    simplices: list[tuple[Vec, ...]] = []
    for h in p.halfspaces:
        if h.on_boundary(v0):
            continue
        face_pts = [v for v in p.vertices if h.on_boundary(v)]
        if len(face_pts) < p.dim:
            continue
        face = ExactPolytope.from_vertices(face_pts)
        if face.dim != p.dim - 1:
            continue
        for s in triangulate(face):
            simplices.append((v0,) + s)
    return simplices


def _simplex_measure(simplex: tuple[Vec, ...]) -> Fraction:
    d = len(simplex) - 1
    edges = [vsub(v, simplex[0]) for v in simplex[1:]]
    det = _det([list(e) for e in edges])
    return abs(det) / math.factorial(d)


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    mat = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if mat[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        pv = mat[c][c]
        for r in range(c + 1, n):
            if mat[r][c] != 0:
                f = mat[r][c] / pv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return det


def volume(p: ExactPolytope, ambient: bool = False) -> Fraction:
    """Exact Lebesgue volume within the affine hull.

    With ``ambient=True`` a lower-dimensional polytope is an error instead
    of zero.  Affine-hull volume of degenerate polytopes is normalized by
    the induced lattice; it is implemented for dim <= 1 (points, segments),
    which covers the degenerate inputs this library produces.
    """
    if ambient and p.dim < p.rank:
        raise DegenerateInput("ambient volume of a lower-dimensional polytope")
    if p.dim == 0:
        return Fraction(1)
    if p.dim == 1:
        a, b = p.vertices[0], p.vertices[-1]
        d = vsub(b, a)
        prim = primitive_vector(d)
        # lattice length: b - a = t * prim with t > 0
        j = next(i for i, x in enumerate(prim) if x != 0)
        return d[j] / prim[j]
    if p.dim < p.rank:
        raise DegenerateInput("affine-hull volume implemented only for dim <= 1")
    total = Fraction(0)
    for s in triangulate(p):
        total += _simplex_measure(s)
    return total


def centroid(p: ExactPolytope) -> Vec:
    """Volume-weighted barycenter; exact, independent of any normalization."""
    if p.dim == 0:
        return p.vertices[0]
    if p.dim == p.rank:
        total = Fraction(0)
        acc = [Fraction(0)] * p.rank
        for s in triangulate(p):
            m = _simplex_measure(s)
            total += m
            mean = vscale(Fraction(1, len(s)),
                          tuple(sum(v[i] for v in s) for i in range(p.rank)))
            for i in range(p.rank):
                acc[i] += m * mean[i]
        if total == 0:
            raise DegenerateInput("zero-volume polytope in centroid")
        return tuple(x / total for x in acc)
    # degenerate: compute in affine-hull coordinates, then map back
    base = p.vertices[0]
    span = _independent_rows([vsub(v, base) for v in p.vertices[1:]], p.dim)
    local = ExactPolytope.from_vertices(
        [solve_linear([[span[j][i] for j in range(p.dim)] for i in range(p.rank)],
                      vsub(v, base)) for v in p.vertices])
    c = centroid(local)
    return vadd(base, _combine(span, c))


def support_value(p: ExactPolytope, xi: Sequence, mode: str = "min") -> tuple[Fraction, Vec]:
    """Exact min or max of <alpha, xi> over p, with an attaining vertex.

    Ties are broken toward the lexicographically least vertex.
    """
    if len(xi) != p.rank:
        raise DimensionMismatch(f"direction rank {len(xi)} vs polytope rank {p.rank}")
    if mode not in ("min", "max"):
        raise GeometryError(f"unknown mode {mode!r}")
    best_val = None
    best_vtx = None
    for v in p.vertices:
        val = vdot(v, xi)
        if best_val is None or (val < best_val if mode == "min" else val > best_val):
            best_val, best_vtx = val, v
    return best_val, best_vtx


def lattice_points(p: ExactPolytope) -> list[IntVec]:
    """All integer points of p, in lexicographic order."""
    lo = [min(v[i] for v in p.vertices) for i in range(p.rank)]
    hi = [max(v[i] for v in p.vertices) for i in range(p.rank)]
    ranges = [range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)]
    out = []
    for cand in itertools.product(*ranges):
        if p.contains(cand):
            out.append(tuple(int(c) for c in cand))
    return out


# ---------------------------------------------------------------------------
# cones and piecewise-linear functions


@dataclass(frozen=True)
class Cone:
    """A full-dimensional pointed rational cone in N_R.

    ``generators`` are the primitive extreme rays; ``facets`` are primitive
    inner normals, so membership is ``<facet, x> >= 0`` for every facet.
    """

    generators: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]

    @staticmethod
    def from_generators(gens: Sequence[Sequence]) -> "Cone":
        prims = sorted({primitive_vector(g) for g in gens})
        rank = len(prims[0])
        if mat_rank([list(g) for g in prims]) < rank:
            raise GeometryError("cone generators do not span")
        if rank == 1:
            return Cone(tuple(prims), tuple(prims))
        # the facet normals are the extreme rays of the dual cone
        facets = {primitive_vector(n) for n in extreme_rays(prims, rank)}
        if not facets:
            raise InternalInvariantError("cone facet enumeration failed")
        # drop generators that are not extreme (conic combinations of others)
        extreme = []
        for g in prims:
            active = [f for f in facets if vdot(g, f) == 0]
            if mat_rank([list(a) for a in active]) >= rank - 1:
                extreme.append(g)
        return Cone(tuple(sorted(extreme)), tuple(sorted(facets)))

    @property
    def rank(self) -> int:
        return len(self.generators[0])

    def contains(self, x: Sequence) -> bool:
        return all(vdot(x, f) >= 0 for f in self.facets)

    def interior_point(self) -> Vec:
        s = [Fraction(0)] * self.rank
        for g in self.generators:
            for i, c in enumerate(g):
                s[i] += c
        return tuple(s)

    def intersect(self, other: "Cone") -> Optional["Cone"]:
        """Intersection cone if full-dimensional, else None."""
        return cone_from_facets(sorted(set(self.facets) | set(other.facets)),
                                self.rank)


def cone_from_facets(normals: Sequence[IntVec], rank: int) -> Optional[Cone]:
    """The cone { x : <n, x> >= 0 } from inner normals, provided it is
    full-dimensional and pointed; None otherwise."""
    rays = {primitive_vector(r) for r in extreme_rays(normals, rank)}
    if mat_rank(list(rays)) < rank:
        return None
    return Cone.from_generators(sorted(rays))


def restrict_min_support(cone: Cone, p: ExactPolytope) -> list[tuple[Cone, Vec]]:
    """Subdivide a pointed full-dimensional cone into the linearity cells of
    ``eta -> min over p of <a, eta>``, each with its minimizing vertex.

    Works for degenerate polytopes as well: the vertex v wins on
    ``cone ∩ { <w - v, eta> >= 0 for all vertices w }``, and only the
    full-dimensional pieces are returned.
    """
    out = []
    for v in p.vertices:
        normals = sorted({primitive_vector(vsub(w, v))
                          for w in p.vertices if w != v})
        sub = cone_from_facets(sorted(set(cone.facets) | set(normals)), cone.rank)
        if sub is not None:
            out.append((sub, v))
    return out


@dataclass(frozen=True)
class PLFunc:
    """A positively homogeneous piecewise-linear function on N_R.

    Stored as (cone, linear form) pieces over a complete fan.  Construction
    verifies that pieces agree on shared generators, so the function is
    well defined and continuous.
    """

    pieces: tuple[tuple[Cone, Vec], ...]

    def __post_init__(self):
        for (c1, f1), (c2, f2) in itertools.combinations(self.pieces, 2):
            for g in c1.generators:
                if c2.contains(g) and vdot(f1, g) != vdot(f2, g):
                    raise GeometryError("piecewise-linear pieces disagree on a shared ray")

    @property
    def rank(self) -> int:
        return self.pieces[0][0].rank

    def piece_at(self, x: Sequence) -> tuple[Cone, Vec]:
        for cone, form in self.pieces:
            if cone.contains(x):
                return cone, form
        raise InternalInvariantError(f"no cone contains {tuple(x)}; fan incomplete")

    def __call__(self, x: Sequence) -> Fraction:
        if is_zero_vec(x):
            return Fraction(0)
        _, form = self.piece_at(x)
        return vdot(form, x)

    def rays(self) -> list[IntVec]:
        out: set[IntVec] = set()
        for cone, _ in self.pieces:
            out.update(cone.generators)
        return sorted(out)


def normal_fan(p: ExactPolytope) -> list[tuple[Cone, Vec]]:
    """Maximal cones of the (inner) normal fan of a full-dimensional polytope.

    The cone attached to a vertex v consists of the directions minimized at
    v, so the pair (cone, v) makes ``min_{a in p} <a, .>`` linear per cone.
    """
    if p.dim != p.rank:
        raise DegenerateInput("normal fan needs a full-dimensional polytope")
    pieces = []
    for v in p.vertices:
        active = [h.normal for h in p.halfspaces if h.on_boundary(v)]
        cone = Cone.from_generators(active)
        pieces.append((cone, v))
    return pieces


def min_support_function(p: ExactPolytope) -> PLFunc:
    """The concave function eta -> min_{a in p} <a, eta> as a PLFunc."""
    return PLFunc(tuple(normal_fan(p)))


def check_complete_fan_rank2(cones: Sequence[Cone]) -> bool:
    """Exact completeness check for a rank-2 fan: boundary rays must chain
    around the full circle with consistent orientation."""
    edges = {}
    for c in cones:
        if len(c.generators) != 2:
            return False
        g1, g2 = c.generators
        cross = g1[0] * g2[1] - g1[1] * g2[0]
        if cross == 0:
            return False
        start, end = (g1, g2) if cross > 0 else (g2, g1)
        if start in edges:
            return False
        edges[start] = end
    if not edges:
        return False
    first = next(iter(edges))
    cur = first
    for _ in range(len(edges)):
        cur = edges.get(cur)
        if cur is None:
            return False
    return cur == first


def refine_pl(f: PLFunc, g: PLFunc) -> list[tuple[Cone, Vec, Vec]]:
    """Common refinement cells with the linear forms of both functions."""
    if f.rank != g.rank:
        raise DimensionMismatch("cannot refine functions of different rank")
    cells = []
    for cf, ff in f.pieces:
        for cg, fg in g.pieces:
            inter = cf.intersect(cg)
            if inter is not None:
                cells.append((inter, ff, fg))
    return cells
