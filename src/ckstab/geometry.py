"""Exact rational polytope kernel.

Everything in this module is exact: there is no floating point anywhere.
Polytopes carry both a vertex description and a half-space description,
cross-validated on construction.  The kernel also provides rational cones
and normal fans.  A piecewise-linear function has no type of its own: it is
a list of cells, each a cone with the linear form the function takes on it
(``normal_fan`` gives the cells of ``min_{a in p} <a, .>``,
``restrict_min_support`` subdivides one cone), and the toric and
optimization layers pass such lists along as they are.

Intended for small ambient ranks (p <= 4); enumeration is brute force over
subsets, which is entirely adequate at these sizes and keeps every
certificate exact.  The subset loops run on integers: every polytope keeps
its vertices as ``int`` numerators over one ``int`` denominator, rational
rows are scaled to integers before a loop starts, and each normal or vertex
solve is one vector of signed integer minors (``_minor_normal``, with the
fraction-free determinant ``_int_det``).  A direction is scaled to
integers once (``_int_directions``) and paired with ``nums``
(``_pairings``), which is all ``support_value`` and the toric invariants
do; ``centroid`` and ``volume`` add integer simplex determinants over
``nums`` and divide once; ``vdot`` of int vectors stays an ``int``.
Values leave the module as ``Fraction``.

Every cone is enumerated by one routine, ``extreme_rays``: the rays of a
cone from its inner normals, the facets of a cone from its generators
(the rays of the dual cone), the recession directions of a half-space
system, and its feasibility through the homogenised system.
The only other subset enumerations are the facet loop
``_facets_from_points`` and the vertex loop ``_vertices_from_halfspaces``,
which also gives the vertices of the cells in which the fan cuts a twist
slice (``stability._slice_cells``, behind both the reduced threshold and
the reduced J norm) and of the lct containment oracle's polyhedra.

Ranks and affine charts come from one division-free elimination,
``_int_echelon``.  A lower-dimensional polytope is hulled in the
projection of its points onto the pivot columns of their differences,
which is one to one on their affine hull; its facet normals are the
chart's padded with zeros.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

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


def vdot(a: Sequence, b: Sequence):
    """<a, b>: an ``int`` when both vectors hold ints, else a ``Fraction``."""
    if len(a) != len(b):
        raise DimensionMismatch(f"rank {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def primitive_vector(a: Sequence) -> IntVec:
    """Scale a nonzero rational vector to a primitive integer vector.

    Orientation is preserved: the result is a positive multiple of the input.
    """
    ints = _int_row(a)
    g = math.gcd(*ints)
    if g == 0:
        raise GeometryError("cannot primitivize the zero vector")
    return tuple(v // g for v in ints)


def is_primitive(a: Sequence[int]) -> bool:
    nz = [abs(int(x)) for x in a if x != 0]
    if not nz:
        return False
    return math.gcd(*nz) == 1


# ---------------------------------------------------------------------------
# integer kernels


def _scaled(vectors: Iterable[Sequence]) -> tuple[int, tuple[IntVec, ...]]:
    """One positive denominator for rational vectors (the lcm of theirs),
    and each vector's integer numerators over it."""
    rows = [[x.as_integer_ratio() for x in v] for v in vectors]
    den = math.lcm(*[d for row in rows for _, d in row])
    return den, tuple(tuple([n * (den // d) for n, d in row]) for row in rows)


def _int_directions(vectors: Iterable[Iterable], rank: int
                    ) -> tuple[int, tuple[IntVec, ...]]:
    """Directions of the given rank as integer numerators over one positive
    denominator.  An entry that is neither ``int`` nor ``Fraction`` is read
    by ``Fraction``, as ``as_vec`` reads it."""
    vectors = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
               for v in vectors]
    for v in vectors:
        if len(v) != rank:
            raise DimensionMismatch(f"direction rank {len(v)} vs polytope rank {rank}")
    return _scaled(vectors)


def _pairings(nums: Sequence[IntVec], xs: IntVec) -> list[int]:
    """<n, xs> for each integer vector n, in order."""
    return [sum(map(mul, n, xs)) for n in nums]


def _int_row(row: Sequence) -> IntVec:
    """A positive integer multiple of a rational vector."""
    return _scaled((row,))[1][0]


def _int_echelon(rows: Sequence[Sequence]) -> tuple[list[int], list[list[int]]]:
    """Row echelon form without division: each row is scaled to integers and
    eliminated by integer row operations.  Returns the pivot columns and the
    nonzero echelon rows, which span the row space of ``rows``."""
    mat = [list(_int_row(row)) for row in rows]
    pivots: list[int] = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            if f:
                mat[i] = [x * p[c] - f * y for x, y in zip(mat[i], p)]
        pivots.append(c)
    return pivots, mat[:len(pivots)]


def mat_rank(rows: Sequence[Sequence]) -> int:
    return len(_int_echelon(rows)[0])


def _on_boundary(den: int, nums: Sequence[IntVec], h: "HalfSpace") -> list[bool]:
    """Which of the points nums / den lie on the boundary of h."""
    c = h.offset * den
    if c.denominator != 1:
        return [False] * len(nums)
    return [sum(map(mul, n, h.normal)) == c.numerator for n in nums]


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): every division is exact, so no value leaves the ints."""
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pk, rk = mat[k][k], mat[k]
        for i in range(k + 1, n):
            ri = mat[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
        prev = pk
    return sign * mat[n - 1][n - 1]


def _minor_normal(rows: Sequence[Sequence[int]], n: int) -> IntVec:
    """The generalized cross product of n - 1 integer rows of length n: its
    j-th entry is (-1)^j times the minor without column j.  It is
    orthogonal to every row, and it is zero exactly when the rows are
    dependent; otherwise it spans the line orthogonal to them."""
    return tuple(-d if j % 2 else d
                 for j, d in enumerate(_int_det([r[:j] + r[j + 1:] for r in rows])
                                       for j in range(n)))


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
    hull.  ``nums`` holds the vertices as integer numerators over the
    positive integer ``den``, in the order of ``vertices``.
    """

    __slots__ = ("vertices", "halfspaces", "dim", "rank", "den", "nums")

    def __init__(self, vertices: Sequence[Vec], halfspaces: Sequence[HalfSpace],
                 dim: int, rank: int):
        self.vertices: tuple[Vec, ...] = tuple(sorted(set(vertices)))
        self.halfspaces: tuple[HalfSpace, ...] = tuple(
            sorted(set(halfspaces), key=HalfSpace.sort_key))
        self.dim = dim
        self.rank = rank
        self.den, self.nums = _scaled(self.vertices)

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
        pivots, echelon = _int_echelon([vsub(p, base) for p in pts[1:]])
        dim = len(pivots)

        if dim == 0:
            hs = []
            for j in range(rank):
                e = tuple(1 if i == j else 0 for i in range(rank))
                hs.append(HalfSpace(e, base[j]))
                hs.append(HalfSpace(tuple(-x for x in e), -base[j]))
            return ExactPolytope([base], hs, 0, rank)

        if dim == rank:
            halfspaces = _facets_from_points(pts, rank)
            verts = _vertices_from_halfspaces(halfspaces, rank)
            if not verts or not set(verts) <= set(pts):
                raise InternalInvariantError("hull cross-validation failed")
            return ExactPolytope(verts, halfspaces, rank, rank)

        # lower-dimensional: the projection onto the pivot columns is one to
        # one on the affine hull, so hull the projected points, map the
        # vertices back, and pad each facet normal with zeros
        lift = _chart(pts, pivots)
        local = ExactPolytope.from_vertices(list(lift))
        halfspaces = []
        for h in local.halfspaces:
            n = [0] * rank
            for c, a in zip(pivots, h.normal):
                n[c] = a
            halfspaces.append(HalfSpace(tuple(n), h.offset))
        # the affine hull: for each free column, the line orthogonal to the
        # echelon rows on the pivot columns plus that column
        for free in (c for c in range(rank) if c not in pivots):
            cols = sorted(pivots + [free])
            minors = _minor_normal([[r[c] for c in cols] for r in echelon], dim + 1)
            q = [0] * rank
            for c, x in zip(cols, minors):
                q[c] = x
            qn = primitive_vector(q)
            c = vdot(base, qn)
            halfspaces.append(HalfSpace(qn, c))
            halfspaces.append(HalfSpace(vneg(qn), -c))
        return ExactPolytope([lift[v] for v in local.vertices], halfspaces, dim, rank)

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
        den, nums = _scaled(verts)
        if mat_rank([vsub(v, nums[0]) for v in nums[1:]]) < rank:
            return ExactPolytope.from_vertices(verts)
        # full-dimensional: the facets are the inputs tight on a face of
        # affine rank - 1; the rest are redundant
        facets = []
        tight_count = [0] * len(nums)
        for h in {HalfSpace.make(h.normal, h.offset) for h in hs}:
            tight = _on_boundary(den, nums, h)
            face = [v for v, on in zip(nums, tight) if on]
            if len(face) >= rank and mat_rank(
                    [vsub(v, face[0]) for v in face[1:]]) == rank - 1:
                facets.append(h)
                tight_count = [k + on for k, on in zip(tight_count, tight)]
        if min(tight_count) < rank:
            raise InternalInvariantError("a vertex lies on fewer facets than the rank")
        return ExactPolytope(verts, facets, rank, rank)

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


def _chart(pts: Sequence[Vec], pivots: Sequence[int]) -> dict[Vec, Vec]:
    """Each point keyed by its projection onto ``pivots``, the pivot columns
    of the differences of the points; the projection is one to one on their
    affine hull."""
    return {tuple(p[c] for c in pivots): p for p in pts}


def _facets_from_points(pts: list[Vec], rank: int) -> list[HalfSpace]:
    den, ints = _scaled(pts)
    facets: set[HalfSpace] = set()
    for subset in itertools.combinations(ints, rank):
        p0 = subset[0]
        n = _minor_normal([vsub(p, p0) for p in subset[1:]], rank)
        if not any(n):
            continue
        c = sum(map(mul, p0, n))
        vals = [sum(map(mul, p, n)) for p in ints]
        if min(vals) == c:
            facets.add(HalfSpace.make(n, Fraction(c, den)))
        if max(vals) == c:
            facets.add(HalfSpace.make(vneg(n), Fraction(-c, den)))
    if not facets:
        raise InternalInvariantError("facet enumeration found nothing")
    return sorted(facets, key=HalfSpace.sort_key)


def _vertices_from_halfspaces(halfspaces: Sequence[HalfSpace], rank: int) -> list[Vec]:
    """Vertices by Cramer's rule: with the offsets scaled to integers b by
    one lcm, the minor vector of the rows (normal, -b) of a rank-subset is
    (x, t) with normal . x = b t, so t = 0 marks a singular subset."""
    hs = sorted(set(halfspaces), key=HalfSpace.sort_key)
    den, (offsets,) = _scaled([[h.offset for h in hs]])
    rows = [h.normal + (-b,) for h, b in zip(hs, offsets)]
    verts: set[Vec] = set()
    for subset in itertools.combinations(rows, rank):
        w = _minor_normal(subset, rank + 1)
        t = w[-1]
        if t == 0:
            continue
        if t < 0:
            w, t = vneg(w), -t
        if all(sum(map(mul, r, w)) >= 0 for r in rows):
            verts.add(tuple(Fraction(x, t * den) for x in w[:-1]))
    return sorted(verts)


def extreme_rays(normals: Sequence[Sequence], rank: int) -> list[Vec]:
    """Extreme rays of the cone { y : <n, y> >= 0 for every normal }.

    Each (rank-1)-subset of the normals orthogonal to exactly a line spans g,
    scaled so that its last nonzero entry is 1; g and then -g are kept when
    they satisfy every inequality, in subset order and with repeats.  The list is complete when the normals
    span (the cone is pointed).  In rank 1 the empty subset spans the whole
    line, so +1 and -1 are checked.
    """
    rows = [_int_row(n) for n in normals]
    rays: list[Vec] = []
    for subset in itertools.combinations(rows, rank - 1):
        g = _minor_normal(subset, rank)
        if not any(g):
            continue
        last = next(x for x in reversed(g) if x)
        if last < 0:
            g, last = vneg(g), -last
        for sign in (1, -1):
            if all(sign * sum(map(mul, n, g)) >= 0 for n in rows):
                rays.append(tuple(Fraction(sign * x, last) for x in g))
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
        tight = _on_boundary(p.den, p.nums, h)
        if tight[0]:
            continue
        face_pts = [v for v, on in zip(p.vertices, tight) if on]
        if len(face_pts) < p.dim:
            continue
        if len(face_pts) == p.dim and mat_rank(
                [vsub(v, face_pts[0]) for v in face_pts[1:]]) == p.dim - 1:
            # a simplex facet is its own triangulation
            simplices.append((v0,) + tuple(face_pts))
            continue
        face = ExactPolytope.from_vertices(face_pts)
        if face.dim != p.dim - 1:
            continue
        for s in triangulate(face):
            simplices.append((v0,) + s)
    return simplices


def _simplex_dets(p: ExactPolytope) -> Iterator[tuple[int, list[int]]]:
    """Each simplex of ``triangulate(p)`` as (w, the indices of its vertices
    in ``p.vertices``), with w = |det| of its integer edge rows over
    ``p.den``: its measure times ``dim! * den^dim``."""
    where = {v: k for k, v in enumerate(p.vertices)}
    for s in triangulate(p):
        ks = [where[v] for v in s]
        base = p.nums[ks[0]]
        yield abs(_int_det([vsub(p.nums[k], base) for k in ks[1:]])), ks


def volume(p: ExactPolytope) -> Fraction:
    """Exact Lebesgue volume within the affine hull.

    Affine-hull volume of degenerate polytopes is normalized by the induced
    lattice; it is implemented for dim <= 1 (points, segments), which covers
    the degenerate inputs this library produces.
    """
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
    return Fraction(sum(w for w, _ in _simplex_dets(p)),
                    p.den ** p.dim * math.factorial(p.dim))


def centroid(p: ExactPolytope) -> Vec:
    """Volume-weighted barycenter; exact, independent of any normalization.

    The simplex weights are the integer determinants of ``_simplex_dets``
    and the vertex sums are taken over ``p.nums``, so the one division is
    the last step.  A lower-dimensional polytope is triangulated in the
    chart of ``from_vertices``, its projection onto the pivot columns of
    its vertex differences, and each simplex's vertices are lifted back.
    The projection is affine and one to one on the affine hull, so it
    scales every simplex measure by one constant and leaves the weights
    unchanged.
    """
    if p.dim == 0:
        return p.vertices[0]
    chart, lift = p, p.nums
    if p.dim < p.rank:
        pivots, _ = _int_echelon([vsub(v, p.vertices[0]) for v in p.vertices[1:]])
        lift = _chart(p.vertices, pivots)
        chart = ExactPolytope.from_vertices(list(lift))
        nums = dict(zip(p.vertices, p.nums))
        lift = [nums[lift[v]] for v in chart.vertices]
    total, acc = 0, [0] * p.rank
    for w, ks in _simplex_dets(chart):
        total += w
        # the simplex's barycenter is this vertex sum over dim + 1
        for i, x in enumerate(map(sum, zip(*(lift[k] for k in ks)))):
            acc[i] += w * x
    if total == 0:
        raise DegenerateInput("zero-volume polytope in centroid")
    den = total * (p.dim + 1) * p.den
    return tuple(Fraction(x, den) for x in acc)


def support_value(p: ExactPolytope, xi: Sequence, mode: str = "min") -> tuple[Fraction, Vec]:
    """Exact min or max of <alpha, xi> over p, with an attaining vertex.

    Ties are broken toward the lexicographically least vertex.
    """
    xden, (xs,) = _int_directions((xi,), p.rank)
    if mode not in ("min", "max"):
        raise GeometryError(f"unknown mode {mode!r}")
    vals = _pairings(p.nums, xs)
    best = min(vals) if mode == "min" else max(vals)
    return Fraction(best, p.den * xden), p.vertices[vals.index(best)]


def lattice_points(p: ExactPolytope) -> list[IntVec]:
    """All integer points of p, in lexicographic order."""
    # an integer point meets <x, n> >= c exactly when it meets >= ceil(c)
    checks = [(h.normal, math.ceil(h.offset)) for h in p.halfspaces]
    ranges = [range(-(-min(col) // p.den), max(col) // p.den + 1)
              for col in zip(*p.nums)]
    return [cand for cand in itertools.product(*ranges)
            if all(sum(map(mul, cand, n)) >= c for n, c in checks)]


# ---------------------------------------------------------------------------
# cones and fans


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
            active = [f for f in facets if sum(map(mul, g, f)) == 0]
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


def normal_fan(p: ExactPolytope) -> list[tuple[Cone, Vec]]:
    """Maximal cones of the (inner) normal fan of a full-dimensional polytope.

    The cone attached to a vertex v consists of the directions minimized at
    v, so the pair (cone, v) makes ``min_{a in p} <a, .>`` linear per cone.
    """
    if p.dim != p.rank:
        raise DegenerateInput("normal fan needs a full-dimensional polytope")
    pieces = []
    tight = [_on_boundary(p.den, p.nums, h) for h in p.halfspaces]
    for i, v in enumerate(p.vertices):
        active = [h.normal for h, on in zip(p.halfspaces, tight) if on[i]]
        cone = Cone.from_generators(active)
        pieces.append((cone, v))
    return pieces


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
