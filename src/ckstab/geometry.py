"""Exact rational polytope kernel.

Everything in this module is exact: there is no floating point anywhere.
Polytopes carry both a vertex description and a half-space description,
cross-validated on construction.  The kernel also provides rational cones
and normal fans.  A piecewise-linear function has no type of its own and
no linear forms are carried: a cell is its sorted primitive extreme rays.
``normal_fan`` gives the cones on which ``min_{a in p} <a, .>`` is linear,
each with its minimizing vertex, and ``restrict_min_support`` subdivides
cones into the cells of such a minimum.  It builds the polytope's edge
table once (``_edge_table``: vertex pairs whose common tight facets have
rank ``rank - 1``, O(V^2) rank tests) and walks the cells of each cone
from the vertices that minimize at its probe, crossing only walls of full
dimension inside the cone, so it solves each full-dimensional cell once,
by one ``_rays`` call over the cone's facets and that vertex's edge
directions, and no other.  The lc threshold scans the union of those
rays and evaluates its functions there directly.

Intended for small ambient ranks (p <= 4).  The facet loop, the vertex
loop and ``_rays`` enumerate subsets of rows by brute force, which is
entirely adequate at these sizes and keeps every certificate exact.

There is one path, and it runs on integers.  A polytope is an integer
table: its vertices as ``int`` numerators ``nums`` over one positive
``int`` denominator ``den``, and its ``facets`` as ``Facet`` pairs
(primitive normal, ``int`` offset numerator over the same ``den``).  The
hull (``_hull``, with the facet loop ``_facets_from_points`` and the vertex
loop ``_cramer_vertices``), the half-space constructor (``_from_rows``),
the triangulation behind ``centroid`` and ``volume`` (``_simplices``), the
normal fan, ``contains`` and the cones all read and write such tables, and
each normal or vertex solve is one vector of signed integer minors
(``_minor_normal``, with the determinant ``_int_det``).  The public
constructors (``from_vertices``, ``from_halfspaces``, ``translate``,
``scale``) scale their input to integers once at entry; the loader hands
its parsed tables straight to ``_from_points`` and ``_from_rows``.
``ExactPolytope`` reduces ``den`` to the least common denominator and
builds the public ``Fraction`` ``vertices`` once, from the table;
``halfspaces``, the facets as ``HalfSpace``s, is a view built on access.
A direction is scaled to integers once (``_int_directions``) and paired
with ``nums`` (``_pairings``), which is all ``support_value`` and the
toric invariants do; ``vdot`` of int vectors stays an ``int``.  Values
leave the module as ``Fraction``.

Every cone is enumerated by one routine, ``_rays`` (public as
``extreme_rays``): the rays of a cone from its inner normals, the facets
of a cone from its generators (the rays of the dual cone), the recession
directions of a half-space system, and its feasibility through the
homogenised system.  The only other subset enumerations are the facet
loop and the vertex loop.  The vertex loop takes ``Facet`` rows over a
``den`` and returns a vertex table over one denominator; besides the hull
and ``_from_rows`` it gives the vertices of the cells in which the fan
cuts a twist slice (``stability._slice_cells``, behind both the reduced
threshold and the reduced J norm) and of the lct containment oracle's
polyhedra, whose rows those callers build as integers.

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


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


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


def mat_rank(rows: Sequence[Sequence]) -> int:
    return _rank([_int_row(row) for row in rows])


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
    for n <= 3."""
    if n == 2:
        ((a, b),) = rows
        return (b, -a)
    if n == 3:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)
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


# ---------------------------------------------------------------------------
# polytopes


class ExactPolytope:
    """A nonempty bounded rational polytope with dual descriptions.

    A polytope is its integer table: ``nums``, the vertices as integer
    numerators over the positive integer ``den`` (the least common
    denominator of their coordinates), in lexicographic order, and
    ``facets``, the half-spaces ``<x, a> >= c / den`` as pairs (primitive
    normal a, offset numerator c), in a canonical order, so equal polytopes
    compare equal structurally.  Lower-dimensional polytopes are supported:
    their facets contain equality pairs cutting out the affine hull.

    The constructor takes such a table, sorts it, reduces ``den`` and builds
    the ``Fraction`` ``vertices`` once.  ``halfspaces`` is a read-only view
    of ``facets`` as ``HalfSpace``s, built on each access.
    """

    __slots__ = ("vertices", "facets", "dim", "rank", "den", "nums")

    def __init__(self, den: int, nums: Iterable[IntVec], facets: Iterable[Facet],
                 dim: int, rank: int):
        nums = sorted(set(nums))
        facets = sorted(set(facets))
        # every facet offset is a pairing with a vertex, so it divides too
        g = math.gcd(den, *(x for n in nums for x in n))
        if g > 1:
            den //= g
            nums = [tuple([x // g for x in n]) for n in nums]
            facets = [(a, c // g) for a, c in facets]
        self.den = den
        self.nums: tuple[IntVec, ...] = tuple(nums)
        self.facets: tuple[Facet, ...] = tuple(facets)
        self.vertices: tuple[Vec, ...] = tuple(
            tuple([Fraction(x, den) for x in n]) for n in nums)
        self.dim = dim
        self.rank = rank

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
        pts = sorted(set(nums))
        if not pts:
            raise EmptyRegion("no points given")
        ranks = {len(p) for p in pts}
        if len(ranks) != 1:
            raise DimensionMismatch("points of mixed rank")
        rank = ranks.pop()
        return ExactPolytope(den, *_hull(pts, rank), rank)

    @staticmethod
    def from_halfspaces(halfspaces: Sequence[HalfSpace], rank: int) -> "ExactPolytope":
        den, (offsets,) = _scaled([[h.offset for h in halfspaces]])
        return ExactPolytope._from_rows(
            den, [(h.normal, c) for h, c in zip(halfspaces, offsets)], rank)

    @staticmethod
    def _from_rows(den: int, rows: Sequence[Facet], rank: int) -> "ExactPolytope":
        """The polytope { x : <x, a> >= c / den for every row (a, c) }; the
        normals a are nonzero integer vectors, not necessarily primitive."""
        rows = sorted(set(rows))
        if not rows:
            raise GeometryError("no half-spaces given")
        for a, _ in rows:
            if len(a) != rank:
                raise DimensionMismatch("half-space rank mismatch")
        normals = [a for a, _ in rows]
        if _rank(normals) < rank:
            raise UnboundedRegion("half-space normals do not span; lineality present")
        if next(_rays(normals, rank), None) is not None:
            # a recession direction exists; the region is nonempty exactly when
            # the cone { (x, t) : <n, x> >= c t, t >= 0 }, pointed as the
            # normals span, has a ray with t > 0
            lifted = [a + (-c,) for a, c in rows] + [(0,) * rank + (1,)]
            if any(g[-1] > 0 for g in _rays(lifted, rank + 1)):
                raise UnboundedRegion("feasible region is unbounded")
            raise EmptyRegion("contradictory constraints")
        vden, nums = _cramer_vertices(den, rows, rank)
        if not nums:
            raise EmptyRegion("half-space intersection is empty")
        if _rank([vsub(n, nums[0]) for n in nums[1:]]) < rank:
            return ExactPolytope(vden, *_hull(nums, rank), rank)
        # full-dimensional: the facets are the rows tight on a face of affine
        # rank - 1; the rest are redundant
        k = vden // den
        facets: dict[Facet, list[bool]] = {}
        for a, c in rows:
            tight = [p == c * k for p in _pairings(nums, a)]
            face = [n for n, on in zip(nums, tight) if on]
            if len(face) >= rank and _rank(
                    [vsub(v, face[0]) for v in face[1:]]) == rank - 1:
                prim = _primitive(a)
                facets[prim, sum(map(mul, face[0], prim))] = tight
        if not facets or min(map(sum, zip(*facets.values()))) < rank:
            raise InternalInvariantError("a vertex lies on fewer facets than the rank")
        return ExactPolytope(vden, nums, facets, rank, rank)

    # -- queries ------------------------------------------------------------

    def contains(self, point: Sequence) -> bool:
        pden, (xs,) = _int_directions((point,), self.rank)
        return all(sum(map(mul, xs, a)) * self.den >= c * pden
                   for a, c in self.facets)

    def translate(self, t: Sequence) -> "ExactPolytope":
        tden, (tn,) = _scaled([_exact_entries(t)])
        den = math.lcm(self.den, tden)
        k, kt = den // self.den, den // tden
        return ExactPolytope(den,
                             [tuple([x * k + y * kt for x, y in zip(n, tn)])
                              for n in self.nums],
                             [(a, c * k + vdot(tn, a) * kt) for a, c in self.facets],
                             self.dim, self.rank)

    def scale(self, r) -> "ExactPolytope":
        r = Fraction(r)
        if r <= 0:
            raise GeometryError("scale factor must be positive")
        p, q = r.numerator, r.denominator
        return ExactPolytope(self.den * q,
                             [tuple([x * p for x in n]) for n in self.nums],
                             [(a, c * p) for a, c in self.facets],
                             self.dim, self.rank)

    def __eq__(self, other):
        return (isinstance(other, ExactPolytope)
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        return f"ExactPolytope(dim={self.dim}, rank={self.rank}, vertices={len(self.vertices)})"


def _chart(pts: Sequence[IntVec], pivots: Sequence[int]) -> dict[IntVec, IntVec]:
    """Each point keyed by its projection onto ``pivots``, the pivot columns
    of the differences of the points; the projection is one to one on their
    affine hull."""
    return {tuple([p[c] for c in pivots]): p for p in pts}


def _hull(pts: list[IntVec], rank: int) -> tuple[list[IntVec], list[Facet], int]:
    """The vertices, facets and dimension of the hull of sorted distinct
    integer points; a facet (a, c) is <x, a> >= c in the units of the
    points."""
    base = pts[0]
    pivots, echelon = _int_echelon([vsub(p, base) for p in pts[1:]])
    dim = len(pivots)

    if dim == 0:
        facets = []
        for j in range(rank):
            e = tuple(int(i == j) for i in range(rank))
            facets += [(e, base[j]), (vneg(e), -base[j])]
        return [base], sorted(facets), 0

    if dim == rank:
        facets = _facets_from_points(pts, rank)
        vden, verts = _cramer_vertices(1, facets, rank)
        if not verts or vden != 1 or not set(verts) <= set(pts):
            raise InternalInvariantError("hull cross-validation failed")
        return verts, facets, rank

    # lower-dimensional: hull the projected points, map the vertices back,
    # and pad each facet normal with zeros
    lift = _chart(pts, pivots)
    local, local_facets, _ = _hull(sorted(lift), dim)
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
    return sorted(lift[v] for v in local), sorted(facets), dim


def _facets_from_points(pts: list[IntVec], rank: int) -> list[Facet]:
    facets: set[Facet] = set()
    for subset in itertools.combinations(pts, rank):
        p0 = subset[0]
        n = _minor_normal([vsub(p, p0) for p in subset[1:]], rank)
        if not any(n):
            continue
        c = sum(map(mul, p0, n))
        vals = _pairings(pts, n)
        low, high = min(vals) == c, max(vals) == c
        if low or high:
            g = math.gcd(*n)
            n, c = tuple([x // g for x in n]), c // g
            if low:
                facets.add((n, c))
            if high:
                facets.add((vneg(n), -c))
    if not facets:
        raise InternalInvariantError("facet enumeration found nothing")
    return sorted(facets)


def _cramer_vertices(den: int, rows: Sequence[Facet], rank: int
                     ) -> tuple[int, list[IntVec]]:
    """The vertices of { x : <x, a> >= c / den for every row (a, c) }, the
    normals a nonzero but not necessarily primitive, as integer numerators
    over one positive denominator, in increasing lexicographic order.

    By Cramer's rule on the homogenised rows (a, -c): the minor vector of a
    rank-subset of them is (y, t) with <a, y> = c t on each, and t = 0 marks
    a singular subset; a feasible (y, t) with t > 0 is the vertex
    y / (t den)."""
    lifted = [a + (-c,) for a, c in rows]
    sols: set[IntVec] = set()
    for subset in itertools.combinations(lifted, rank):
        w = _minor_normal(subset, rank + 1)
        if w[-1] == 0:
            continue
        if w[-1] < 0:
            w = vneg(w)
        if all(sum(map(mul, r, w)) >= 0 for r in lifted):
            sols.add(_primitive(w))
    lcm_t = math.lcm(*(w[-1] for w in sols))
    return den * lcm_t, sorted(tuple([x * (lcm_t // w[-1]) for x in w[:-1]])
                               for w in sols)


def _rays(rows: Sequence[IntVec], rank: int) -> Iterator[IntVec]:
    """The extreme rays of { y : <n, y> >= 0 for every integer row }, as
    integer vectors: each (rank-1)-subset of the rows orthogonal to exactly
    a line spans g, oriented so that its last nonzero entry is positive; g
    and then -g are yielded when they satisfy every inequality, in subset
    order and with repeats.  The list is complete when the rows span (the
    cone is pointed).  In rank 1 the empty subset spans the whole line, so
    +1 and -1 are checked."""
    for subset in itertools.combinations(rows, rank - 1):
        g = _minor_normal(subset, rank)
        if not any(g):
            continue
        if next(x for x in reversed(g) if x) < 0:
            g = vneg(g)
        vals = _pairings(rows, g)
        if all(v >= 0 for v in vals):
            yield g
        if all(v <= 0 for v in vals):
            yield vneg(g)


def extreme_rays(normals: Sequence[Sequence], rank: int) -> list[Vec]:
    """Extreme rays of the cone { y : <n, y> >= 0 for every normal }, in the
    order of ``_rays``, each scaled so that its last nonzero entry is 1 or
    -1."""
    rays = []
    for g in _rays([_int_row(n) for n in normals], rank):
        last = abs(next(x for x in reversed(g) if x))
        rays.append(tuple(Fraction(x, last) for x in g))
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
        den = math.lcm(acc.den, q.den)
        ka, kq = den // acc.den, den // q.den
        acc = ExactPolytope._from_points(
            den, [tuple([x * ka + y * kq for x, y in zip(a, b)])
                  for a in acc.nums for b in q.nums])
    return acc


def _simplices(nums: Sequence[IntVec], facets: Sequence[Facet],
               dim: int) -> list[tuple[IntVec, ...]]:
    """Simplices (as vertex tuples) fanned from the lex-least vertex of the
    polytope with these sorted vertices and facets, in the units of the
    vertices.

    The simplices partition the polytope up to measure zero; the list order
    is deterministic.
    """
    if dim == 0:
        return [(nums[0],)]
    if dim == 1:
        return [(nums[0], nums[-1])]
    v0 = nums[0]
    simplices: list[tuple[IntVec, ...]] = []
    for a, c in facets:
        face = [n for n, p in zip(nums, _pairings(nums, a)) if p == c]
        if len(face) < dim or face[0] == v0:
            continue
        if len(face) == dim and _rank(
                [vsub(v, face[0]) for v in face[1:]]) == dim - 1:
            # a simplex facet is its own triangulation
            simplices.append((v0,) + tuple(face))
            continue
        verts, face_facets, face_dim = _hull(face, len(v0))
        if face_dim != dim - 1:
            continue
        for s in _simplices(verts, face_facets, face_dim):
            simplices.append((v0,) + s)
    return simplices


def _simplex_dets(nums: Sequence[IntVec], facets: Sequence[Facet],
                  dim: int) -> Iterator[tuple[int, tuple[IntVec, ...]]]:
    """Each simplex of ``_simplices`` as (w, its vertices), with w = |det| of
    its integer edge rows: its measure times ``dim!`` in the units of the
    vertices."""
    for s in _simplices(nums, facets, dim):
        yield abs(_int_det([vsub(v, s[0]) for v in s[1:]])), s


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
    return Fraction(sum(w for w, _ in _simplex_dets(p.nums, p.facets, p.dim)),
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
    nums, facets, lift = p.nums, p.facets, None
    if p.dim < p.rank:
        pivots, _ = _int_echelon([vsub(n, p.nums[0]) for n in p.nums[1:]])
        lift = _chart(p.nums, pivots)
        nums, facets, _ = _hull(sorted(lift), p.dim)
    total, acc = 0, [0] * p.rank
    for w, s in _simplex_dets(nums, facets, p.dim):
        if lift is not None:
            s = [lift[v] for v in s]
        total += w
        # the simplex's barycenter is this vertex sum over dim + 1
        for i, x in enumerate(map(sum, zip(*s))):
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
    # an integer point meets <x, n> >= c / den exactly when it meets
    # >= ceil(c / den)
    checks = [(a, -(-c // p.den)) for a, c in p.facets]
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
        return Cone._spanned(sorted({primitive_vector(g) for g in gens}))

    @staticmethod
    def _spanned(prims: list[IntVec]) -> "Cone":
        """The cone spanned by sorted distinct primitive integer vectors."""
        rank = len(prims[0])
        if _rank(prims) < rank:
            raise GeometryError("cone generators do not span")
        if rank == 1:
            return Cone(tuple(prims), tuple(prims))
        # the facet normals are the extreme rays of the dual cone
        facets = {_primitive(n) for n in _rays(prims, rank)}
        if not facets:
            raise InternalInvariantError("cone facet enumeration failed")
        # drop generators that are not extreme (conic combinations of others)
        extreme = [g for g in prims
                   if _rank([f for f in facets if sum(map(mul, g, f)) == 0])
                   >= rank - 1]
        return Cone(tuple(extreme), tuple(sorted(facets)))

    @property
    def rank(self) -> int:
        return len(self.generators[0])

    def contains(self, x: Sequence) -> bool:
        return all(vdot(x, f) >= 0 for f in self.facets)


def _edge_table(p: ExactPolytope) -> list[list[tuple[IntVec, int]]]:
    """Each vertex of p, in the order of ``nums``, as the list of its edges:
    the primitive direction from it to the other end, and that end's index.

    Vertices v and w span an edge when the facets tight at both (equality
    pairs included) have rank ``rank - 1``: their face is then one
    dimensional, and v and w are its two ends.  The normal cone
    ``{ y : <w - v, y> >= 0 for every vertex w }`` of v is cut out by its
    edge directions alone.
    """
    tight = [{a for a, c in p.facets if sum(map(mul, n, a)) == c} for n in p.nums]
    edges: list[list[tuple[IntVec, int]]] = [[] for _ in p.nums]
    for i, j in itertools.combinations(range(len(p.nums)), 2):
        if _rank(list(tight[i] & tight[j])) == p.rank - 1:
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
    edges; the edge table is built once for all the cones.  Only the
    full-dimensional cells are solved, by a walk: the vertices that
    minimize at the cone's probe (the sum of its generators, an interior
    point) have one, and from the cell of v the walk crosses the edge to w
    where the cell's rays on ``<w - v, .> = 0`` span a wall of rank
    ``rank - 1`` that is not on a facet of the cone.  Such a wall meets the
    cone's interior, so w has a full-dimensional cell there too; and as the
    cells subdivide the convex cone, the walk reaches each of them.
    """
    edges = _edge_table(p)
    out = []
    for cone in cones:
        rank, facets = cone.rank, set(cone.facets)
        vals = _pairings(p.nums, list(map(sum, zip(*cone.generators))))
        low = min(vals)
        todo = [i for i, x in enumerate(vals) if x == low]
        cells: dict[int, list[IntVec]] = {}
        while todo:
            i = todo.pop()
            if i in cells:
                continue
            rays = sorted({_primitive(r) for r in _rays(
                sorted(facets.union(d for d, _ in edges[i])), rank)})
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


def normal_fan(p: ExactPolytope) -> list[tuple[Cone, Vec]]:
    """Maximal cones of the (inner) normal fan of a full-dimensional polytope.

    The cone attached to a vertex v consists of the directions minimized at
    v, so the pair (cone, v) makes ``min_{a in p} <a, .>`` linear per cone.
    """
    if p.dim != p.rank:
        raise DegenerateInput("normal fan needs a full-dimensional polytope")
    return [(Cone._spanned([a for a, c in p.facets if sum(map(mul, n, a)) == c]), v)
            for n, v in zip(p.nums, p.vertices)]


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
