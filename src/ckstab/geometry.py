"""Exact rational polytope kernel.

Everything in this module is exact: there is no floating point anywhere.
Polytopes carry both a vertex description and a half-space description,
cross-validated on construction.  The kernel also provides rational cones
and normal fans.  A piecewise-linear function has no type of its own and
no linear forms are carried: a cell is its sorted primitive extreme rays.
The face structure of a polytope is read one way, off its vertex-facet
incidence (``ExactPolytope.incidence``: the facets tight at each vertex),
with no hull and no rank.  ``_rays`` finds it with the vertices, and
every face query compares its sets: a face is the set of vertices tight on
some facets, and the facets common to two vertices cut out the least face
that holds both.  The edge table (``_edge_table``) takes the vertex pairs
whose least face holds no third vertex; a polytope builds it on first use
and keeps it (``ExactPolytope.edges``), so the normal fan of the
anticanonical polytope and every clip of it share one.  ``normal_cones``
reads from it the cones on which ``min_{a in p} <a, .>`` is linear, one
per minimizing vertex (``normal_fan`` pairs each with its vertex): a
cone's generators are the vertex's tight facet normals, read off the
incidence alone (``_tight_normals``), and its facets are the vertex's
edge directions, so no ray is solved for.
``restrict_min_support`` subdivides cones into the cells of such a
minimum.  A cone that lies in the normal cone of the one vertex that
minimizes at its probe is its own cell, its generators, with no solve.
Any other cone is walked from the vertices that minimize at its probe,
crossing only walls of full dimension inside the cone, so each
full-dimensional cell is solved once, by one ``_rays`` call over the
cone's facets and that vertex's edge directions.  The lc threshold scans
the union of those rays.  The triangulation behind ``centroid`` and
``volume`` (``_triangulation``) pulls each face's least vertex over the
greatest of the faces cut from it by the facets of the polytope, as sets
of vertex indices.  An incidence is read the other way, facets to
vertices or back, in one pass (``_transpose``).

Intended for small ambient ranks (p <= 4).  One loop, ``_rays``,
enumerates subsets of rows by brute force, which is entirely adequate at
these sizes and keeps every certificate exact.  It gives each extreme ray
of a cone { y : <n, y> >= 0 } over integer rows n once, with the rows
tight at it, and every other enumeration is a homogenised cone (Ziegler,
*Lectures on Polytopes*, sections 1.5 and 2.6): the facets <x, a> >= c of
a hull are the rays (a, c) over the rows (p, -1) of its points p; the
vertices y / t of a system <x, a> >= c are the rays (y, t) with t > 0 over
the rows (a, -c) (``_cramer_vertices``), and with the row t >= 0 added
the rays with t = 0 are its recession directions; the cells of
``restrict_min_support`` are the rays of cones.  A polytope cut by one
half-space is clipped (``_clip``): its vertices are read off the old ones
and the edges that cross the cut, with no subset loop.

There is one path, and it runs on integers.  A polytope is an integer
table: its vertices as ``int`` numerators ``nums`` over one positive
``int`` denominator ``den``, and its ``facets`` as ``Facet`` pairs
(primitive normal, ``int`` offset numerator over the same ``den``).  The
hull (``_hull``), the half-space constructor (``_from_rows``), the
triangulation, the normal fan, ``contains`` and the cones all read and
write such tables, and each ray candidate is one vector of signed integer
minors (``_minor_normal``, with the determinant ``_int_det``).  Only
``_from_points`` (behind ``from_vertices`` and ``minkowski_sum``),
``_from_rows`` (behind ``from_halfspaces``) and, for a polytope of lower
dimension, ``_from_tight`` (behind ``_clip`` too) hull.  The public
constructors scale their input to integers once at entry.  The loader checks each parsed point
table with ``_point_table``, the check ``_from_points`` makes first, and
hands each half-space table to ``_from_rows``.  A certified model's
summands are read off the anticanonical fan, not hulled:
``toric.build_model`` hands the points its certificate picked, with the
rays and the picked points on which each is least, to ``_from_tight``.
``ExactPolytope`` reduces ``den`` to the least common denominator and
builds the public ``Fraction`` ``vertices`` from the table on first read;
``halfspaces``, the facets as ``HalfSpace``s, is a view built on access.
A direction is scaled to integers once (``_int_directions``) and paired
with ``nums`` (``_pairings``), which is all ``support_value`` and the
toric invariants do; ``vdot`` of int vectors stays an ``int``.  Values
leave the module as ``Fraction``.

The tight rows of each vertex give a full-dimensional hull (from the
cross-check that solves its vertices back from its facets) and
``_from_rows`` their incidence.  ``_from_tight`` takes the facets of
``_from_rows`` and of a summand read off the fan by one rule: the rows
whose sets of tight vertices no other row's set strictly contains.  Only
a hull of lower dimension scans its vertices against its facets
(``_incidence``).  ``stability`` and ``toric`` solve the row systems of
their cells and polyhedra with ``_cramer_vertices`` too.

Ranks come from one division-free elimination, ``_int_echelon``.  Its
pivot columns give the chart of a lower-dimensional polytope: the
projection of its points onto them is one to one on their affine hull.
``_hull`` hulls such a polytope there once and pads its facet normals with
zeros; the triangulation takes its simplex weights there.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul, neg, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InputError, InternalInvariantError

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
# a half-space <x, normal> >= offset / den over an integer table's den, as
# (normal, offset numerator); a polytope's facets have primitive normals
Facet = tuple[IntVec, int]


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
    """The coordinates as ``Fraction``s; a ``Fraction`` entry is kept as it
    is."""
    return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coords)


def _exact_entries(coords: Iterable) -> tuple:
    """The coordinates with ``int`` and ``Fraction`` entries as they are; any
    other entry is read by ``Fraction``, as ``as_vec`` reads it."""
    return tuple(x if isinstance(x, (int, Fraction)) else Fraction(x)
                 for x in coords)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(map(sub, a, b))


def vneg(a: Vec) -> Vec:
    return tuple(map(neg, a))


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
    if not any(ints):
        raise GeometryError("cannot primitivize the zero vector")
    return _primitive(ints)


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
    denominator, read by ``_exact_entries``."""
    vectors = [_exact_entries(v) for v in vectors]
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


def _primitive(v: IntVec) -> IntVec:
    """A nonzero integer vector over the gcd of its entries."""
    g = math.gcd(*v)
    return tuple([x // g for x in v])


def _int_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Row echelon form of integer rows without division, by integer row
    operations.  Returns the pivot columns and the nonzero echelon rows,
    which span the row space of ``rows``."""
    mat = [list(row) for row in rows]
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


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of integer rows."""
    return len(_int_echelon(rows)[0])


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: written out up to 3 x 3, by
    fraction-free elimination (Bareiss 1968) above, where every division
    is exact, so no value leaves the ints."""
    n = len(rows)
    if n <= 3:
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        if n == 2:
            (a, b), (c, d) = rows
            return a * d - b * c
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
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
    dependent; otherwise it spans the line orthogonal to them.  Written out
    for n <= 5, for n >= 4 by expanding each minor along the first row over
    the minors of the rows below, down to the 2 x 2 minors of the last two."""
    if n == 2:
        ((a, b),) = rows
        return (b, -a)
    if n == 3:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        return (a1 * m23 - a2 * m13 + a3 * m12,
                a2 * m03 - a0 * m23 - a3 * m02,
                a0 * m13 - a1 * m03 + a3 * m01,
                a1 * m02 - a0 * m12 - a2 * m01)
    if n == 5:
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), \
            (d0, d1, d2, d3, d4) = rows
        m01, m02, m03, m04 = (c0 * d1 - c1 * d0, c0 * d2 - c2 * d0,
                              c0 * d3 - c3 * d0, c0 * d4 - c4 * d0)
        m12, m13, m14 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c1 * d4 - c4 * d1
        m23, m24, m34 = c2 * d3 - c3 * d2, c2 * d4 - c4 * d2, c3 * d4 - c4 * d3
        t012 = b0 * m12 - b1 * m02 + b2 * m01
        t013 = b0 * m13 - b1 * m03 + b3 * m01
        t014 = b0 * m14 - b1 * m04 + b4 * m01
        t023 = b0 * m23 - b2 * m03 + b3 * m02
        t024 = b0 * m24 - b2 * m04 + b4 * m02
        t034 = b0 * m34 - b3 * m04 + b4 * m03
        t123 = b1 * m23 - b2 * m13 + b3 * m12
        t124 = b1 * m24 - b2 * m14 + b4 * m12
        t134 = b1 * m34 - b3 * m14 + b4 * m13
        t234 = b2 * m34 - b3 * m24 + b4 * m23
        return (a1 * t234 - a2 * t134 + a3 * t124 - a4 * t123,
                a2 * t034 - a0 * t234 - a3 * t024 + a4 * t023,
                a0 * t134 - a1 * t034 + a3 * t014 - a4 * t013,
                a1 * t024 - a0 * t124 - a2 * t014 + a4 * t012,
                a0 * t123 - a1 * t023 + a2 * t013 - a3 * t012)
    return tuple(-d if j % 2 else d
                 for j, d in enumerate(_int_det([r[:j] + r[j + 1:] for r in rows])
                                       for j in range(n)))


# ---------------------------------------------------------------------------
# half-spaces


class HalfSpace(NamedTuple):
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


# ---------------------------------------------------------------------------
# polytopes


class ExactPolytope:
    """A nonempty bounded rational polytope with dual descriptions.

    A polytope is its integer table: ``nums``, the vertices as integer
    numerators over the positive integer ``den`` (the least common
    denominator of their coordinates), in lexicographic order, and
    ``facets``, the half-spaces ``<x, a> >= c / den`` as pairs (primitive
    normal a, offset numerator c), in increasing order, so equal polytopes
    compare equal structurally.  Lower-dimensional polytopes are supported:
    their facets contain equality pairs cutting out the affine hull.
    ``incidence`` holds, for each vertex in the order of ``nums``, the
    frozenset of the indices in ``facets`` of the facets tight at it,
    equality pairs included.  It is the one vertex-facet incidence of the
    polytope, which every face query reads.

    The constructor takes such a table, already sorted, and reduces
    ``den`` (which keeps both orders).  The ``Fraction`` ``vertices`` are
    built from the table on first read and kept; most polytopes, such as
    the summands of a model behind most verbs, are never asked for them.
    So is the edge table ``edges`` (``_edge_table``), which the normal fan
    and every clip of the polytope read.  ``halfspaces`` is a read-only
    view of ``facets`` as ``HalfSpace``s, built on each access.  A polytope
    is never changed after construction, so equal summands of a model may
    share one.
    """

    __slots__ = ("_vertices", "_edges", "facets", "dim", "rank", "den", "nums",
                 "incidence")

    def __init__(self, den: int, nums: Sequence[IntVec], facets: Sequence[Facet],
                 incidence: Sequence[frozenset[int]], dim: int, rank: int):
        # every facet offset is a pairing with a vertex, so it divides too
        g = math.gcd(den, *itertools.chain.from_iterable(nums))
        if g > 1:
            den //= g
            nums = [tuple([x // g for x in n]) for n in nums]
            facets = [(a, c // g) for a, c in facets]
        self.den = den
        self.nums: tuple[IntVec, ...] = tuple(nums)
        self.facets: tuple[Facet, ...] = tuple(facets)
        self.incidence: tuple[frozenset[int], ...] = tuple(incidence)
        self._vertices: Optional[tuple[Vec, ...]] = None
        self._edges: Optional[list[list[tuple[IntVec, int]]]] = None
        self.dim = dim
        self.rank = rank

    @property
    def vertices(self) -> tuple[Vec, ...]:
        if self._vertices is None:
            den = self.den
            self._vertices = tuple(tuple([Fraction(x, den) for x in n])
                                   for n in self.nums)
        return self._vertices

    @property
    def edges(self) -> list[list[tuple[IntVec, int]]]:
        if self._edges is None:
            self._edges = _edge_table(self)
        return self._edges

    @property
    def halfspaces(self) -> tuple[HalfSpace, ...]:
        return tuple(HalfSpace(a, Fraction(c, self.den)) for a, c in self.facets)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_vertices(points: Sequence[Sequence]) -> "ExactPolytope":
        return ExactPolytope._from_points(*_scaled(_exact_entries(p) for p in points))

    @staticmethod
    def _from_points(den: int, nums: Sequence[IntVec]) -> "ExactPolytope":
        """The hull of the points nums / den."""
        den, pts = _point_table(den, nums)
        rank = len(pts[0])
        return ExactPolytope(den, *_hull(list(pts), rank), rank)

    @staticmethod
    def from_halfspaces(halfspaces: Sequence[HalfSpace], rank: int) -> "ExactPolytope":
        den, (offsets,) = _scaled([[h.offset for h in halfspaces]])
        return ExactPolytope._from_rows(
            den, [(h.normal, c) for h, c in zip(halfspaces, offsets)], rank)

    @staticmethod
    def _from_rows(den: int, rows: Sequence[Facet], rank: int) -> "ExactPolytope":
        """The polytope { x : <x, a> >= c / den for every row (a, c) }; the
        normals a are nonzero integer vectors, not necessarily primitive.
        One ``_rays`` call over the rows (a, -c) and t >= 0, a pointed cone
        once the normals span, gives the recession directions (t = 0),
        which make the region unbounded or, with no vertex, empty, and the
        vertices (t > 0) with their tight rows, off which the dimension,
        the facets and the incidence are read with no other rank."""
        rows = sorted(set(rows))
        if not rows:
            raise GeometryError("no half-spaces given")
        for a, _ in rows:
            if len(a) != rank:
                raise DimensionMismatch("half-space rank mismatch")
        normals = [a for a, _ in rows]
        if _rank(normals) < rank:
            raise UnboundedRegion("half-space normals do not span; lineality present")
        rays = _rays([a + (-c,) for a, c in rows] + [(0,) * rank + (1,)], rank + 1)
        vden, nums, tight = _vertex_table(den, rays)
        if any(g[-1] == 0 for g in rays):
            if nums:
                raise UnboundedRegion("feasible region is unbounded")
            raise EmptyRegion("contradictory constraints")
        if not nums:
            raise EmptyRegion("half-space intersection is empty")
        return _from_tight(vden, nums, normals, _transpose(tight, len(rows)), rank)

    # -- queries ------------------------------------------------------------

    def contains(self, point: Sequence) -> bool:
        pden, (xs,) = _int_directions((point,), self.rank)
        return all(sum(map(mul, xs, a)) * self.den >= c * pden
                   for a, c in self.facets)

    def translate(self, t: Sequence) -> "ExactPolytope":
        tden, (tn,) = _scaled([_exact_entries(t)])
        den = math.lcm(self.den, tden)
        k, kt = den // self.den, den // tden
        # a translation keeps the order of the vertices, and that of the
        # facets, whose normals are distinct, so the incidence carries over
        return ExactPolytope(den,
                             [tuple([x * k + y * kt for x, y in zip(n, tn)])
                              for n in self.nums],
                             [(a, c * k + vdot(tn, a) * kt) for a, c in self.facets],
                             self.incidence, self.dim, self.rank)

    def scale(self, r) -> "ExactPolytope":
        r = Fraction(r)
        if r <= 0:
            raise GeometryError("scale factor must be positive")
        p, q = r.numerator, r.denominator
        return ExactPolytope(self.den * q,
                             [tuple([x * p for x in n]) for n in self.nums],
                             [(a, c * p) for a, c in self.facets],
                             self.incidence, self.dim, self.rank)

    def __eq__(self, other):
        return (isinstance(other, ExactPolytope)
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        return f"ExactPolytope(dim={self.dim}, rank={self.rank}, vertices={len(self.nums)})"


def _point_table(den: int, nums: Iterable[IntVec]
                 ) -> tuple[int, tuple[IntVec, ...]]:
    """The points nums / den as a table: den and the distinct points in
    increasing order, all of one rank."""
    pts = sorted(set(nums))
    if not pts:
        raise EmptyRegion("no points given")
    if len({len(p) for p in pts}) != 1:
        raise DimensionMismatch("points of mixed rank")
    return den, tuple(pts)


def _from_tight(den: int, nums: list[IntVec], normals: Sequence[IntVec],
                on: Sequence[frozenset[int]], rank: int) -> ExactPolytope:
    """The polytope whose vertices are nums / den, distinct and in increasing
    order, and nonzero integer normals among which are all its facet
    normals, each with the indices of the vertices tight on it (``on``):
    those on which it is least, or none where it cuts out no face.  A normal
    tight at every vertex puts the polytope in its hyperplane, and ``_hull``
    hulls it.  Otherwise it is full-dimensional: every facet is cut out by a
    normal, and every other normal's face lies in a facet, so the facets are
    the normals whose vertex sets are nonempty and maximal, each at its
    pairing with a vertex on it; the rest are redundant, and the incidence
    is read off the same sets."""
    if any(len(face) == len(nums) for face in on):
        return ExactPolytope(den, *_hull(nums, rank), rank)
    top = set(_maximal(on))
    faces = {}
    for a, face in zip(normals, on):
        if face in top:
            if math.gcd(*a) != 1:
                a = _primitive(a)
            faces[a, sum(map(mul, nums[min(face)], a))] = face
    facets = sorted(faces)
    incidence = _transpose([faces[f] for f in facets], len(nums))
    if min(map(len, incidence)) < rank:
        raise InternalInvariantError("a vertex lies on fewer facets than the rank")
    return ExactPolytope(den, nums, facets, incidence, rank, rank)


def _clip(p: ExactPolytope, a: IntVec, c: int, d: int) -> ExactPolytope:
    """The polytope p cut by { x : <x, a> >= c / d }, for a nonzero integer
    vector a and d > 0, clipped with no subset loop (Ziegler, *Lectures on
    Polytopes*, section 3.1).  Its vertices are the vertices of p on the
    cut's side and, on each edge of p whose ends lie strictly on opposite
    sides, the point where it crosses the cut.  A kept vertex is tight on
    the facets of p it lies on (``p.incidence``), a crossing point on those
    common to its edge's ends, and each on the cut where they meet it.  The
    sets go to ``_from_tight`` with the facet normals of p and a, as those
    of ``_from_rows`` do, so the result is the one ``_from_rows`` gives on
    the same rows."""
    # the signed distance to the cut of each vertex, in units of 1/(d den)
    slack = [x * d - c * p.den for x in _pairings(p.nums, a)]
    cut = frozenset([len(p.facets)])
    points = [(n, 1, p.incidence[i] | cut if s == 0 else p.incidence[i])
              for i, (n, s) in enumerate(zip(p.nums, slack)) if s >= 0]
    if not points:
        raise EmptyRegion("half-space intersection is empty")
    edges = p.edges
    for i, si in enumerate(slack):
        if si > 0:
            ni = p.nums[i]
            for _, j in edges[i]:
                sj = slack[j]
                if sj < 0:
                    # (si nj - sj ni) / (si - sj), over the den of p
                    q = [si * y - sj * x for x, y in zip(ni, p.nums[j])]
                    g = math.gcd(si - sj, *q)
                    points.append((tuple([y // g for y in q]), (si - sj) // g,
                                   p.incidence[i] & p.incidence[j] | cut))
    lcm = math.lcm(*[t for _, t, _ in points])
    table = sorted((tuple([y * (lcm // t) for y in n]), tight)
                   for n, t, tight in points)
    normals = [f for f, _ in p.facets] + [a]
    on = _transpose([tight for _, tight in table], len(normals))
    return _from_tight(p.den * lcm, [n for n, _ in table], normals, on, p.rank)


def _hull(pts: list[IntVec], rank: int
          ) -> tuple[list[IntVec], list[Facet], list[frozenset[int]], int]:
    """The vertices, facets, incidence and dimension of the hull of sorted
    distinct integer points, each list sorted; a facet (a, c) is
    <x, a> >= c in the units of the points.  A full-dimensional hull takes
    its facets from the rays (a, c) over the rows (p, -1), a primitive as
    (a, c) is since c = <p, a>, and its incidence from the cross-check
    that solves its vertices back from them; any other hull takes it from
    one ``_incidence`` scan."""
    base = pts[0]
    pivots, echelon = _int_echelon([vsub(p, base) for p in pts[1:]])
    dim = len(pivots)

    if dim == 0:
        facets = []
        for j in range(rank):
            e = tuple(int(i == j) for i in range(rank))
            facets += [(e, base[j]), (vneg(e), -base[j])]
        facets.sort()
        return [base], facets, _incidence([base], facets), 0

    if dim == rank:
        facets = sorted((g[:-1], g[-1])
                        for g in _rays([p + (-1,) for p in pts], rank + 1))
        vden, verts, tight = _cramer_vertices(1, facets, rank)
        if not verts or vden != 1 or not set(verts) <= set(pts):
            raise InternalInvariantError("hull cross-validation failed")
        return verts, facets, tight, rank

    # lower-dimensional: hull the points projected onto the pivot columns,
    # which is one to one on their affine hull, map the vertices back, and
    # pad each facet normal with zeros
    lift = {tuple([p[c] for c in pivots]): p for p in pts}
    local, local_facets, _, _ = _hull(sorted(lift), dim)
    facets = []
    for a, c in local_facets:
        n = [0] * rank
        for col, x in zip(pivots, a):
            n[col] = x
        facets.append((tuple(n), c))
    # the affine hull: for each free column, the line orthogonal to the
    # echelon rows on the pivot columns plus that column
    for free in (c for c in range(rank) if c not in pivots):
        cols = sorted(pivots + [free])
        minors = _minor_normal([[r[c] for c in cols] for r in echelon], dim + 1)
        q = [0] * rank
        for col, x in zip(cols, minors):
            q[col] = x
        qn = _primitive(q)
        c = sum(map(mul, base, qn))
        facets += [(qn, c), (vneg(qn), -c)]
    verts = sorted(lift[v] for v in local)
    facets.sort()
    return verts, facets, _incidence(verts, facets), dim


def _cramer_vertices(den: int, rows: Sequence[Facet], rank: int
                     ) -> tuple[int, list[IntVec], list[frozenset[int]]]:
    """The vertices of { x : <x, a> >= c / den for every row (a, c) }, the
    normals a nonzero but not necessarily primitive: the ``_vertex_table``
    of the rays over the homogenised rows (a, -c)."""
    return _vertex_table(den, _rays([a + (-c,) for a, c in rows], rank + 1))


def _vertex_table(den: int, rays: dict[IntVec, frozenset[int]]
                  ) -> tuple[int, list[IntVec], list[frozenset[int]]]:
    """The rays (y, t) with t > 0 of a system over ``den`` as the vertices
    y / (t den): integer numerators over one positive denominator, in
    increasing lexicographic order, and beside them the rows tight at each."""
    found = [(w, t) for w, t in rays.items() if w[-1] > 0]
    lcm_t = math.lcm(*(w[-1] for w, _ in found))
    table = {tuple([x * (lcm_t // w[-1]) for x in w[:-1]]): t for w, t in found}
    nums = sorted(table)
    return den * lcm_t, nums, [table[n] for n in nums]


def _rays(rows: Sequence[IntVec], rank: int) -> dict[IntVec, frozenset[int]]:
    """The extreme rays of { y : <n, y> >= 0 for every integer row n }, each
    once, primitive and in the order first found, mapped to the frozenset
    of the indices of the rows tight at it.  Each (rank-1)-subset of the
    rows orthogonal to exactly a line spans g, its minor vector; g and then
    -g are rays when every row pairs nonnegatively with them, and only then
    is a candidate made primitive.  One pass pairs the rows with g, stops
    at the first row of the sign opposite to an earlier one, and collects
    the tight rows on the way.  Every ray is found when the rows span (the
    cone is pointed).  In rank 1 the empty subset spans the whole line, so
    +1 and -1 are checked."""
    found: dict[IntVec, frozenset[int]] = {}
    for subset in itertools.combinations(rows, rank - 1):
        g = _minor_normal(subset, rank)
        if not any(g):
            continue
        pos = neg = False
        tight = []
        for k, n in enumerate(rows):
            v = sum(map(mul, n, g))
            if v > 0:
                if neg:
                    break
                pos = True
            elif v:
                if pos:
                    break
                neg = True
            else:
                tight.append(k)
        else:
            # neither sign when every row is tight on the line of g (there
            # are no rows, or a lineality): then g and -g are both rays
            for h in (vneg(g),) if neg else (g,) if pos else (g, vneg(g)):
                h = _primitive(h)
                if h not in found:
                    found[h] = frozenset(tight)
    return found


# ---------------------------------------------------------------------------
# the operations of the public contract


def minkowski_sum(polys: Sequence[ExactPolytope]) -> ExactPolytope:
    """Minkowski sum; the result's vertices are among sums of vertex tuples."""
    if not polys:
        raise GeometryError("empty Minkowski sum")
    ranks = {p.rank for p in polys}
    if len(ranks) != 1:
        raise DimensionMismatch("Minkowski summands of mixed rank")
    acc = polys[0]
    for q in polys[1:]:
        den = math.lcm(acc.den, q.den)
        ka, kq = den // acc.den, den // q.den
        acc = ExactPolytope._from_points(
            den, [tuple([x * ka + y * kq for x, y in zip(a, b)])
                  for a in acc.nums for b in q.nums])
    return acc


def _incidence(nums: Sequence[IntVec], facets: Sequence[Facet]
               ) -> list[frozenset[int]]:
    """For each vertex, in order, the indices of the facets tight at it,
    equality pairs included: the scan that gives a hull which is not
    full-dimensional its incidence."""
    return [frozenset([k for k, (a, c) in enumerate(facets)
                       if sum(map(mul, n, a)) == c]) for n in nums]


def _maximal(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The nonempty sets that no other set strictly contains, each once.
    The sets are taken largest first, and each is compared only with the
    maximal ones already taken: a larger set that holds it lies in one."""
    out: list[frozenset[int]] = []
    for s in sorted(set(sets), key=len, reverse=True):
        if s and not any(s < t for t in out):
            out.append(s)
    return out


def _transpose(sets: Sequence[Iterable[int]], n: int) -> list[frozenset[int]]:
    """An incidence read the other way, in one pass: for each k < n, the
    frozenset of the indices i with k in ``sets[i]``."""
    out: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(sets):
        for k in s:
            out[k].append(i)
    return [frozenset(x) for x in out]


def _triangulation(p: ExactPolytope) -> Iterator[tuple[int, list[IntVec]]]:
    """The pulling triangulation of p, of dimension at least one (De Loera,
    Rambau and Santos, *Triangulations*, 2010): a face is coned from its
    least vertex over its facets that miss that vertex, each triangulated in
    turn.  Each simplex is (w, its vertices in ``p.nums``), w the |det| of
    its integer edge rows on the pivot columns of p's affine hull: its
    measure times ``dim!`` in the units of ``nums``, up to one factor for
    all simplices when p is lower-dimensional.

    A face is a set of vertex indices, read off ``p.incidence`` with no
    hull and no rank.  Every face of p is an intersection of facets of p,
    so the facets of a face F are the greatest of the sets F & T other than
    F, T a facet of p; several T cut the same one, so they are taken once.
    At the top every facet that misses vertex 0 is such a set (an equality
    pair contains all of p), and a face with dim F + 1 vertices is a
    simplex.
    """
    nums = p.nums
    # the vertices on each facet
    on = _transpose(p.incidence, len(p.facets))

    def pull(v0: int, d: int, ridges: Iterable[tuple[int, ...]]
             ) -> list[tuple[int, ...]]:
        # the simplices of a face of dimension d with least vertex v0, coned
        # from v0 over its ridges, the facets of the face that miss v0
        out = []
        for g in ridges:
            if len(g) == d:
                out.append((v0,) + g)
                continue
            face = frozenset(g)
            out += [(v0,) + s for s in pull(g[0], d - 1, [
                tuple(sorted(c)) for c in _maximal([face & t for t in on
                                                    if not face <= t])
                if g[0] not in c])]
        return out

    rows = nums
    if p.dim < p.rank:
        pivots, _ = _int_echelon([vsub(n, nums[0]) for n in nums[1:]])
        rows = [tuple([n[c] for c in pivots]) for n in nums]
    for s in pull(0, p.dim, {tuple(sorted(t)) for t in on if 0 not in t}):
        base = rows[s[0]]
        yield (abs(_int_det([vsub(rows[i], base) for i in s[1:]])),
               [nums[i] for i in s])


def volume(p: ExactPolytope) -> Fraction:
    """Exact Lebesgue volume within the affine hull.

    Affine-hull volume of degenerate polytopes is normalized by the induced
    lattice; it is implemented for dim <= 1 (points, segments), which covers
    the degenerate inputs this library produces.  Above that, the volume is
    the weight sum of ``_triangulation``.
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
    return Fraction(sum(w for w, _ in _triangulation(p)),
                    p.den ** p.dim * math.factorial(p.dim))


def centroid(p: ExactPolytope) -> Vec:
    """Volume-weighted barycenter; exact, independent of any normalization.

    The simplex weights are the integer determinants of ``_triangulation``
    and the vertex sums are taken over ``p.nums``, so the one division is
    the last step.  On a lower-dimensional polytope the weights are taken
    on the pivot columns of its affine hull; that projection is one to one
    on the hull and scales every simplex measure by one factor, so the
    barycenter is unchanged.
    """
    if p.dim == 0:
        return p.vertices[0]
    total, acc = 0, [0] * p.rank
    for w, s in _triangulation(p):
        total += w
        # the simplex's barycenter is this vertex sum over dim + 1
        for i, x in enumerate(map(sum, zip(*s))):
            acc[i] += w * x
    if total == 0:
        # a polytope of dimension >= 1 has a simplex of positive weight
        raise InternalInvariantError("zero-volume polytope in centroid")
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
    # an integer point meets <x, n> >= c / den exactly when it meets
    # >= ceil(c / den)
    checks = [(a, -(-c // p.den)) for a, c in p.facets]
    ranges = [range(-(-min(col) // p.den), max(col) // p.den + 1)
              for col in zip(*p.nums)]
    return [cand for cand in itertools.product(*ranges)
            if all(sum(map(mul, cand, n)) >= c for n, c in checks)]


# ---------------------------------------------------------------------------
# cones and fans


class Cone(NamedTuple):
    """A full-dimensional pointed rational cone in N_R.

    ``generators`` are the primitive extreme rays; ``facets`` are primitive
    inner normals, so membership is ``<facet, x> >= 0`` for every facet.
    A normal cone is read off the incidence and the edge table
    (``normal_cones``).
    """

    generators: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]

    @property
    def rank(self) -> int:
        return len(self.generators[0])

    def contains(self, x: Sequence) -> bool:
        return all(vdot(x, f) >= 0 for f in self.facets)


def _edge_table(p: ExactPolytope) -> list[list[tuple[IntVec, int]]]:
    """Each vertex of p, in the order of ``nums``, as the list of its edges:
    the primitive direction from it to the other end, and that end's index.

    The facets tight at both of two vertices v and w (``p.incidence``) cut
    out the least face that holds both, and that face is an edge exactly
    when it has no third vertex, that is when no other vertex is tight on
    all of them.  The normal cone ``{ y : <w - v, y> >= 0 for every vertex
    w }`` of v is cut out by its edge directions alone, and when p is
    full-dimensional it is spanned by its tight facet normals.
    """
    tight = p.incidence
    edges: list[list[tuple[IntVec, int]]] = [[] for _ in p.nums]
    for i, j in itertools.combinations(range(len(p.nums)), 2):
        common = tight[i] & tight[j]
        # the search stops at the first third vertex tight on all of them
        if not any(common <= t for k, t in enumerate(tight) if k != i and k != j):
            d = _primitive(vsub(p.nums[j], p.nums[i]))
            edges[i].append((d, j))
            edges[j].append((vneg(d), i))
    return edges


def restrict_min_support(cones: Sequence[Cone], p: ExactPolytope
                         ) -> list[list[list[IntVec]]]:
    """Subdivide each pointed full-dimensional cone into the linearity cells
    of ``eta -> min over p of <a, eta>``, each cell as its sorted primitive
    extreme rays, in the order of the minimizing vertices in ``p.nums``;
    one list of cells per cone.

    Works for degenerate polytopes as well.  The vertex v wins on the cone
    intersected with its normal cone, which the edge directions at v cut
    out, so a cell is one ``_rays`` solve over the cone's facets and v's
    edges; the edge table is read once for all the cones (``p.edges``).
    A cone that lies in one normal cone is not split: when one vertex v
    alone minimizes at the cone's probe (the sum of its generators, an
    interior point) and every edge direction at v pairs nonnegatively with
    every generator, the cone is its own one cell, its sorted generators,
    with no solve.  Otherwise only the full-dimensional cells are solved,
    by a walk: the vertices that minimize at the probe have one, and from
    the cell of v the walk crosses the edge to w where the cell's rays on
    ``<w - v, .> = 0`` span a wall of rank ``rank - 1`` that is not on a
    facet of the cone.  Such a wall meets the cone's interior, so w has a
    full-dimensional cell there too; and as the cells subdivide the convex
    cone, the walk reaches each of them.
    """
    edges = p.edges
    out = []
    for cone in cones:
        rank, facets = cone.rank, set(cone.facets)
        vals = _pairings(p.nums, list(map(sum, zip(*cone.generators))))
        low = min(vals)
        todo = [i for i, x in enumerate(vals) if x == low]
        if len(todo) == 1 and all(sum(map(mul, d, g)) >= 0 for d, _ in edges[todo[0]]
                                  for g in cone.generators):
            out.append([sorted(cone.generators)])
            continue
        cells: dict[int, list[IntVec]] = {}
        while todo:
            i = todo.pop()
            if i in cells:
                continue
            rays = sorted(_rays(sorted(facets.union(d for d, _ in edges[i])), rank))
            cells[i] = rays
            for d, j in edges[i]:
                # the wall spans the hyperplane orthogonal to d, so it lies
                # on a facet of the cone exactly when d is that facet's
                # normal (or its negative)
                if (j not in cells and d not in facets and vneg(d) not in facets
                        and _rank([r for r in rays if sum(map(mul, d, r)) == 0])
                        == rank - 1):
                    todo.append(j)
        out.append([cells[i] for i in sorted(cells)])
    return out


def _tight_normals(p: ExactPolytope) -> list[tuple[IntVec, ...]]:
    """For each vertex of p, in the order of ``nums``, the sorted normals of
    the facets tight at it (``p.incidence``): when p is full-dimensional,
    the generators of its normal cone, each extreme."""
    return [tuple(sorted([p.facets[k][0] for k in t])) for t in p.incidence]


def normal_cones(p: ExactPolytope) -> list[Cone]:
    """Maximal cones of the (inner) normal fan of a full-dimensional polytope,
    one per vertex, in the order of ``nums``.

    The cone attached to a vertex v consists of the directions minimized at
    v.  Its generators are the normals of the facets tight at v
    (``_tight_normals``), each extreme as p is full-dimensional, and its
    inner facet normals are the primitive edge directions at v, read off
    the edge table.  No ray is solved for, no ``Fraction`` vertex is
    built, and the fan is complete.
    """
    if p.dim != p.rank:
        raise DegenerateInput("normal fan needs a full-dimensional polytope")
    return [Cone(g, tuple(sorted(d for d, _ in e)))
            for g, e in zip(_tight_normals(p), p.edges)]


def normal_fan(p: ExactPolytope) -> list[tuple[Cone, Vec]]:
    """The cones of :func:`normal_cones`, each paired with its vertex v, so
    the pair (cone, v) makes ``min_{a in p} <a, .>`` linear per cone."""
    return list(zip(normal_cones(p), p.vertices))
