"""Independent brute-force oracles used by the geometry, filtration, stability
and acceptance tests.  These deliberately use different algorithms from the
library (monotone-chain hull, shoelace formulas, interval arithmetic, the
rays of a cone from the cofactor vectors of its row subsets, weight
tables of plain Fractions with every decomposition enumerated at once,
Cramer's rule with cofactor determinants on vertex-pair hyperplanes in
place of the fan and on the facet rows of each twist-slice cell, the
reduced J norm and the inner twist supremum scored in plain Fractions over
those cells, and the routes the library replaced: the ratio programs of
the coupled and the lc thresholds over the linear forms of their cells,
the facet loop that found
the cone absorbing a twisted ray, the all-vertex loop behind the cells of
a support minimum, the normal fan's cones with their facets solved from
their generators, the coupled Ding invariant through sum tables and from the public
invariants, a rank by Gaussian elimination in Fractions, the
scan of every level behind the finite-degree lc slope, the
closed-form descriptor steps in plain Fractions over the vertices, and the
report renderer that canonicalized a record and then dumped it with
``json``).
The helpers after them are checks, constants and model writers that only
the tests use; the last two hold each summand a model reads off its fan
certificate to the subset-loop hull of its point table."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from fractions import Fraction as F
from operator import mul
from typing import Optional, Sequence

from ckstab.errors import InternalInvariantError
from ckstab.filtration import (EmptyDecomposition, Filtration,
                               FiltrationError, FiltrationFamily,
                               SumDescriptor, UnsupportedDescriptor,
                               ValuationDescriptor, numerics, sum_filtration,
                               twist_family)
from ckstab.geometry import (Cone, ExactPolytope, HalfSpace, as_vec,
                             lattice_points, primitive_vector, vdot, vneg,
                             vsub)
from ckstab.optimize import minimize_pl_ratio
from ckstab.serialize import ValidationError, format_rational
from ckstab.stability import (CLOSED_FORM, DingResult, StabilityError,
                              coupled_ding, mu_slope)
from ckstab.toric import (TOTAL, MonomialIdealSeq, ToricFanoModel,
                          _region_of_ideal, log_discrepancy, monomial_lct,
                          s_invariant, theta_twist)


def hull_oracle(points):
    """Andrew's monotone chain over exact rationals; returns ccw hull."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def shoelace_area(ccw):
    s = F(0)
    for a, b in zip(ccw, ccw[1:] + ccw[:1]):
        s += a[0] * b[1] - b[0] * a[1]
    return s / 2


def shoelace_centroid(ccw):
    a = shoelace_area(ccw)
    cx = cy = F(0)
    for p, q in zip(ccw, ccw[1:] + ccw[:1]):
        w = p[0] * q[1] - q[0] * p[1]
        cx += (p[0] + q[0]) * w
        cy += (p[1] + q[1]) * w
    return (cx / (6 * a), cy / (6 * a))


def rand_point(rng, span=4):
    return (F(rng.randint(-span, span), rng.choice([1, 2, 3])),
            F(rng.randint(-span, span), rng.choice([1, 2, 3])))


def interval_oracle(points):
    """Vertex set, length, and midpoint of a rank-1 point list."""
    xs = sorted({p[0] for p in points})
    lo, hi = xs[0], xs[-1]
    return [(lo,), (hi,)], hi - lo, ((lo + hi) / 2,)


# ---------------------------------------------------------------------------
# polytopes in ranks 1 to 4: plain Fraction scans and cofactor expansions


def cofactor_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return sum((-1) ** j * a * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def matrix_rank(rows) -> int:
    """The rank of rational rows, by Gaussian elimination in Fractions."""
    mat = [[F(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][c] / top[c]
            if f:
                mat[r] = [x - f * y for x, y in zip(mat[r], top)]
        rank += 1
    return rank


def affine_rank(points):
    """Dimension of the affine hull: the size of the largest nonzero minor of
    the differences to the first point."""
    diffs = [tuple(F(a) - F(b) for a, b in zip(p, points[0])) for p in points[1:]]
    n = len(points[0])
    for k in range(min(len(diffs), n), 0, -1):
        for rows in itertools.combinations(diffs, k):
            for cols in itertools.combinations(range(n), k):
                if cofactor_det([tuple(r[c] for c in cols) for r in rows]):
                    return k
    return 0


def _pair(a, b):
    return sum((F(x) * F(y) for x, y in zip(a, b)), F(0))


def hull_oracle_any(points):
    """(vertices, facets) of a full-dimensional hull.  The points are scaled
    to integers once; every rank-subset of them spans a candidate hyperplane
    through its cofactor normal, paired with all points once for both
    orientations, and the supporting ones are the facets, as (primitive
    normal, offset) pairs.  A point is a vertex when the facets through it
    meet only there."""
    pts = sorted({tuple(F(x) for x in p) for p in points})
    n = len(pts[0])
    den = math.lcm(*(x.denominator for p in pts for x in p))
    ints = [tuple(int(x * den) for x in p) for p in pts]
    facets = set()
    for sub in itertools.combinations(ints, n):
        diffs = [tuple(a - b for a, b in zip(p, sub[0])) for p in sub[1:]]
        normal = [(-1) ** j * cofactor_det([d[:j] + d[j + 1:] for d in diffs])
                  for j in range(n)]
        if not any(normal):
            continue
        g = math.gcd(*normal)
        normal = tuple(x // g for x in normal)
        vals = [sum(x * y for x, y in zip(p, normal)) for p in ints]
        c = sum(x * y for x, y in zip(sub[0], normal))
        if min(vals) == c:
            facets.add((normal, F(c, den)))
        if max(vals) == c:
            facets.add((tuple(-x for x in normal), F(-c, den)))
    on = {f: {p for p in pts if _pair(p, f[0]) == f[1]} for f in facets}
    verts = []
    for p in pts:
        meet = set(pts)
        for f in facets:
            if p in on[f]:
                meet &= on[f]
        if meet == {p}:
            verts.append(p)
    return verts, sorted(facets)


def incidence_oracle(vertices, halfspaces):
    """For each vertex, the frozenset of the indices of the (normal, offset)
    half-spaces it meets with equality, in Fractions."""
    return [frozenset(k for k, (a, c) in enumerate(halfspaces) if _pair(v, a) == c)
            for v in vertices]


def minor_normal_oracle(rows):
    """The cofactor vector of n - 1 rows of length n: its j-th entry is
    (-1)^j times the determinant of the rows without column j."""
    n = len(rows) + 1
    return tuple((-1) ** j * cofactor_det([r[:j] + r[j + 1:] for r in map(tuple, rows)])
                 for j in range(n))


def cone_rays_oracle(rows, rank) -> dict[tuple[int, ...], frozenset[int]]:
    """The extreme rays of the pointed cone { y : <n, y> >= 0 for every
    row n }, each primitive and once, in the order in which the
    (rank - 1)-subsets of the rows, taken in order, first find them, mapped
    to the frozenset of the indices of the rows they meet with equality.
    Each row is scaled to integers; a subset's nonzero cofactor vector, and
    then its negative, is kept when every row pairs nonnegatively with it."""
    ints = []
    for r in rows:
        den = math.lcm(*(x.denominator for x in r))
        ints.append(tuple(x.numerator * (den // x.denominator) for x in r))
    return _int_cone_rays(ints, rank)


def _int_cone_rays(ints, rank) -> dict[tuple[int, ...], frozenset[int]]:
    """``cone_rays_oracle`` on integer rows."""
    found = {}
    for sub in itertools.combinations(ints, rank - 1):
        g = minor_normal_oracle(sub)
        if not any(g):
            continue
        d = math.gcd(*g)
        g = tuple(x // d for x in g)
        vals = [sum(map(mul, r, g)) for r in ints]
        for h, ok in ((g, min(vals) >= 0), (tuple(-x for x in g), max(vals) <= 0)):
            if ok and h not in found:
                found[h] = frozenset(k for k, v in enumerate(vals) if v == 0)
    return found


def volume_centroid_oracle(points):
    """Volume and centroid of a full-dimensional hull from its barycentric
    subdivision: one simplex per flag of faces, spanned by the vertex means
    of the faces in the flag."""
    verts, facets = hull_oracle_any(points)
    n = len(verts[0])
    facet_sets = [frozenset(v for v in verts if _pair(v, f[0]) == f[1])
                  for f in facets]

    def mean(face):
        return tuple(sum(c, F(0)) / len(face) for c in zip(*face))

    def chains(face, k):
        if k == 0:
            return [[mean(face)]]
        subs = {face & g for g in facet_sets}
        out = []
        for s in subs:
            if s and affine_rank(sorted(s)) == k - 1:
                out += [[mean(face)] + c for c in chains(s, k - 1)]
        return out

    vol, acc = F(0), [F(0)] * n
    for chain in chains(frozenset(verts), n):
        edges = [tuple(a - b for a, b in zip(p, chain[0])) for p in chain[1:]]
        m = abs(cofactor_det(edges)) / math.factorial(n)
        vol += m
        acc = [a + m * c for a, c in zip(acc, mean(chain))]
    return vol, tuple(a / vol for a in acc)


def support_oracle(points, xi, mode):
    """min or max of <p, xi> over the points, and the lexicographically
    least point attaining it (a vertex of their hull)."""
    vals = {tuple(F(x) for x in p): _pair(p, xi) for p in points}
    best = min(vals.values()) if mode == "min" else max(vals.values())
    return best, min(p for p, v in vals.items() if v == best)


def lattice_oracle(vertices, halfspaces):
    """Integer points of the bounding box of the vertices meeting every
    (normal, offset) inequality, in lexicographic order."""
    ranges = [range(math.ceil(min(F(v[i]) for v in vertices)),
                    math.floor(max(F(v[i]) for v in vertices)) + 1)
              for i in range(len(vertices[0]))]
    return [x for x in itertools.product(*ranges)
            if all(_pair(x, n) >= c for n, c in halfspaces)]


def rand_rational_points(rng, rank, count, dim=None, span=9):
    """Seeded points with negative coordinates and denominators up to 9,
    spanning an affine subspace of dimension ``dim`` (default: the rank);
    ``span`` bounds the numerators."""
    def coord():
        return F(rng.randint(-span, span), rng.randint(1, 9))
    dim = rank if dim is None else dim
    base = [coord() for _ in range(rank)]
    dirs = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(dim)]
    return [tuple(b + sum((t * d[i] for t, d in zip(ts, dirs)), F(0))
                  for i, b in enumerate(base))
            for ts in ([coord() for _ in range(dim)] for _ in range(count))]


def reduced_j_oracle(model: ToricFanoModel, xi0, basis) -> Fraction:
    """Minimum over x in xi0 + span(basis) of max over the vertices v of the
    anticanonical polytope of <v, x>, minus <b, x> for the coupled
    barycenter b, without the fan.  The function is linear off the
    hyperplanes <v - v', x> = 0 over vertex pairs, so its minimum on the
    slice is at a point where s = len(basis) of them meet it: every
    s-subset is solved for the twist coordinates by Cramer's rule.  The
    origin is a candidate when xi0 lies in the span."""
    xi0 = [F(x) for x in xi0]
    W = [[F(x) for x in w] for w in basis]
    verts = model.anticanonical.vertices
    normals = sorted({tuple(a - c for a, c in zip(v, u))
                      for v, u in itertools.combinations(verts, 2)})
    points = []
    if affine_rank([[F(0)] * len(xi0)] + W + [xi0]) == len(W):
        points.append([F(0)] * len(xi0))
    for rows in itertools.combinations(normals, len(W)):
        m = [[_pair(n, w) for w in W] for n in rows]
        rhs = [-_pair(n, xi0) for n in rows]
        d = cofactor_det(m)
        if d == 0:
            continue
        t = [cofactor_det([r[:j] + [c] + r[j + 1:] for r, c in zip(m, rhs)]) / d
             for j in range(len(W))]
        points.append([x + sum((tj * w[k] for tj, w in zip(t, W)), F(0))
                       for k, x in enumerate(xi0)])
    b = model.barycenter(TOTAL)
    return min(max(_pair(v, x) for v in verts) - _pair(b, x) for x in points)


def _slope_sum(model: ToricFanoModel, z) -> Fraction:
    """The summed expectation slopes at z over the vertices: each summand's
    barycenter pairing less its least vertex pairing."""
    return sum((_pair(b, z) - min(_pair(v, z) for v in model.summand(i).vertices)
                for i, b in enumerate(model.barycenters)), F(0))


def ratio_oracle(model: ToricFanoModel, z) -> Fraction:
    """The ratio ``inner_twist_sup`` scores at z: minus the least pairing of
    the anticanonical vertices with z over ``_slope_sum``."""
    s = _slope_sum(model, z)
    assert s > 0, z
    return -min(_pair(v, z) for v in model.anticanonical.vertices) / s


def _on_slice(base, t, W) -> tuple:
    """base + sum t_j w_j."""
    return tuple(x + sum((tj * w[k] for tj, w in zip(t, W)), F(0))
                 for k, x in enumerate(base))


def reduced_j_slice_oracle(model: ToricFanoModel, xi0, basis
                           ) -> tuple[Fraction, tuple, int]:
    """(value, argmin, minimizers) of ``reduced_coupled_j`` in plain
    Fractions: the summed slope at -x = -xi0 + sum s_j w_j at every vertex s
    of the cells of ``slice_cells_oracle``, the least (value, s) winning,
    with argmin -sum s_j w_j; minimizers counts the distinct vertices that
    attain the value."""
    base = [-F(x) for x in xi0]
    W = [[F(x) for x in w] for w in basis]
    values = {s: _slope_sum(model, _on_slice(base, s, W))
              for _, verts, _ in slice_cells_oracle(model, base, W) for s in verts}
    value, s = min((v, s) for s, v in values.items())
    argmin = tuple(-x for x in _on_slice([F(0)] * len(base), s, W))
    return value, argmin, sum(v == value for v in values.values())


def inner_sup_candidates(model: ToricFanoModel, basis, eta) -> list[tuple]:
    """(value, attained, point) of every candidate of ``inner_twist_sup``
    over a nonempty basis, in its scan order and in plain Fractions, each
    scored by ``ratio_oracle``.  The cells of ``slice_cells_oracle`` are
    scanned in fan order: each vertex t scores eta + sum t_j w_j, and then
    each ray of its recession cone, from ``cone_rays_oracle`` on its
    normals and scaled so that its last nonzero entry is 1 or -1, scores
    sum d_j w_j."""
    eta = [F(x) for x in eta]
    W = [[F(x) for x in w] for w in basis]
    out = []
    for _, verts, normals in slice_cells_oracle(model, eta, W):
        for t in verts:
            z = _on_slice(eta, t, W)
            out.append((ratio_oracle(model, z), True, z))
        for g in cone_rays_oracle(normals, len(W)):
            last = abs(next(x for x in reversed(g) if x))
            z = _on_slice([F(0)] * len(eta), [F(x, last) for x in g], W)
            out.append((ratio_oracle(model, z), False, z))
    return out


def inner_sup_oracle(model: ToricFanoModel, basis, eta) -> tuple:
    """(value, attained, argument, recession) of ``inner_twist_sup`` over a
    nonempty basis, from ``inner_sup_candidates``: a vertex replaces the
    best so far with a larger value, or an equal one against a recession
    direction; a recession direction only with a larger value."""
    best = None
    for r, attained, z in inner_sup_candidates(model, basis, eta):
        if best is None or r > best[0] or (attained and r == best[0]
                                            and not best[1]):
            best = (r, True, z, None) if attained else (r, False, None, z)
    return best


# the one-dimensional subtori of the benchmark's rank-2 argument pool
SUBTORI_2 = [((1, 0),), ((0, 1),), ((1, 1),), ((1, -1),), ((1, 2),), ((2, 1),)]


def slice_cells_oracle(model: ToricFanoModel, base, W) -> list:
    """(cone index, vertices, normals) of the cells in which the fan cuts
    the slice base + span(W), in fan order and in plain Fractions.  The
    facet n of a cone gives the row sum t_j <n, w_j> >= -<n, base>; a zero
    row that fails skips the cone and one that holds is dropped.  Every
    s-subset of the other rows is solved for t by Cramer's rule with
    cofactor determinants, and the solutions that meet every row are the
    vertices, sorted."""
    base = [F(x) for x in base]
    W = [[F(x) for x in w] for w in W]
    cells = []
    for k, cone in enumerate(model.fan):
        rows = [([_pair(n, w) for w in W], -_pair(n, base)) for n in cone.facets]
        if any(c > 0 and not any(a) for a, c in rows):
            continue
        rows = [(a, c) for a, c in rows if any(a)]
        verts = set()
        for sub in itertools.combinations(rows, len(W)):
            m = [a for a, _ in sub]
            d = cofactor_det(m)
            if d == 0:
                continue
            t = tuple(F(cofactor_det([r[:j] + [c] + r[j + 1:]
                                      for r, (_, c) in zip(m, sub)])) / d
                      for j in range(len(W)))
            if all(_pair(a, t) >= c for a, c in rows):
                verts.add(t)
        cells.append((k, sorted(verts), [a for a, _ in rows]))
    return cells


def _cell_ray_values(cells) -> list[tuple[tuple[int, ...], Fraction, Fraction]]:
    """(ray, numerator, denominator) at every ray of the cells, sorted by
    ray, each cell given as its rays with the linear forms of the numerator
    and the denominator on it.  The cells must agree on every ray they
    share, or they do not describe one pair of functions."""
    values = {}
    for rays, num, den in cells:
        for g in rays:
            pair = (vdot(num, g), vdot(den, g))
            if values.setdefault(g, pair) != pair:
                raise AssertionError(f"cells disagree on the ray {g}")
    return [(g, *pair) for g, pair in sorted(values.items())]


def fan_cell_delta(model: ToricFanoModel) -> tuple[Fraction, tuple[int, ...]]:
    """The coupled threshold and its witness from the ratio program over
    the anticanonical normal fan: on the cone minimized at the vertex f the
    log discrepancy is -<f, .> and the summed slope <b - f, .>, with b the
    coupled barycenter."""
    b = model.barycenter(TOTAL)
    res = minimize_pl_ratio(_cell_ray_values(
        (cone.generators, vneg(f), vsub(b, f))
        for cone, f in zip(model.fan, model.total_forms)))
    return res.value, res.witness


def min_support_cells(cone, p) -> list[tuple[tuple, list[tuple[int, ...]]]]:
    """The cells of ``eta -> min over p of <a, eta>`` in the cone, by the loop
    that ``geometry.restrict_min_support`` replaced with a walk over p's
    edges: for every vertex v of p, in order, the extreme rays of the cone
    cut by ``<w - v, .> >= 0`` for every other vertex w, kept when some
    rank of them have a nonzero cofactor determinant.  The vertices are
    scaled to integers once, and the differences taken on those.  Returns
    (v, its sorted primitive rays) for each kept cell."""
    rank = len(cone.facets[0])
    den = math.lcm(*(x.denominator for v in p.vertices for x in v))
    ints = [tuple(x.numerator * (den // x.denominator) for x in v)
            for v in p.vertices]
    cells = []
    for v, n in zip(p.vertices, ints):
        normals = [tuple(a - b for a, b in zip(w, n)) for w in ints if w != n]
        rays = sorted(_int_cone_rays(list(cone.facets) + normals, rank))
        if any(cofactor_det(list(sub)) for sub in itertools.combinations(rays, rank)):
            cells.append((v, rays))
    return cells


def cone_from_generators(gens: Sequence[Sequence]) -> Cone:
    """The pointed full-dimensional cone spanned by the generators: the
    primitive ones that are extreme, and its facets solved for as the
    extreme rays of the dual cone by ``cone_rays_oracle``."""
    prims = sorted({primitive_vector(g) for g in gens})
    rank = len(prims[0])
    if matrix_rank(prims) < rank:
        raise ValueError("cone generators do not span")
    if rank == 1:
        return Cone(tuple(prims), tuple(prims))
    facets = sorted(cone_rays_oracle(prims, rank))
    # drop generators that are not extreme (conic combinations of others)
    extreme = [g for g in prims
               if matrix_rank([f for f in facets if vdot(g, f) == 0]) >= rank - 1]
    return Cone(tuple(extreme), tuple(facets))


def normal_fan_oracle(p) -> list[tuple[Cone, tuple]]:
    """The normal fan of a full-dimensional polytope by the route that
    ``geometry.normal_fan`` replaced with a read of the edge table: for every
    vertex v, in order, the cone spanned by the normals of the half-spaces
    tight at v, with its facets solved for as the rays of the dual cone by
    ``cone_from_generators``, paired with v."""
    return [(cone_from_generators([h.normal for h in p.halfspaces
                                   if vdot(v, h.normal) == h.offset]), v)
            for v in p.vertices]


def lct_via_cell_forms(model: ToricFanoModel, ideal: MonomialIdealSeq,
                       scale=Fraction(1), degree: Optional[int] = None
                       ) -> tuple[Optional[Fraction], Optional[tuple[int, ...]]]:
    """The lc threshold and its witness by the per-cell linear forms that
    ``monomial_lct`` replaced with a ray scan.  On the fan cone of the
    anticanonical vertex f, A is -<f, .>, and the summand's support is
    <q, .> with q its minimizer at the cone's probe, the sum of the cone's
    generators.  Each cone is cut into the full-dimensional cells on which
    one vertex v of the ideal's region minimizes, and there the scaled
    order is scale <v - q, .>.  Every cell ray is scored by every cell that
    holds it, the cells must agree, and the least ratio with a positive
    denominator wins, at the least ray on a tie.  None is +infinity."""
    region = _region_of_ideal(model, ideal, degree)
    summand = model.summand(ideal.summand)
    cells = []
    for cone, f in zip(model.fan, model.total_forms):
        probe = [sum(x) for x in zip(*cone.generators)]
        q = min(summand.vertices, key=lambda w: vdot(w, probe))
        for v, rays in min_support_cells(cone, region):
            cells.append((rays, vneg(f), tuple(scale * x for x in vsub(v, q))))
    best = (None, None)
    for g, num, den in _cell_ray_values(cells):
        if den < 0:
            raise AssertionError(f"order negative along the ray {g}")
        if den > 0 and (best[0] is None or num / den < best[0]):
            best = (num / den, g)
    return best


def ding_via_sums(fam: FiltrationFamily, delta=Fraction(1)) -> DingResult:
    """The coupled Ding invariant through the sum tables, the route that
    ``coupled_ding`` replaced: it builds the sum filtration of the family
    and of its twist by the all-ones probe, reads the lc slope from each
    sum's descriptor and the expectation slopes from ``numerics`` of each
    member.  The closed form of the lc slope is written out here, apart
    from the library's: A(eta)/delta + shift for delta >= 1, and the lower
    bound A(eta) + shift below one.  An opaque sum first runs the
    finite-degree lc tests of ``mu_slope``, which certify no value."""
    delta = Fraction(delta)
    model = fam.model

    def lc_slope(total: Filtration) -> tuple[Fraction, str]:
        if delta <= 0:
            raise StabilityError("slope parameter must be positive")
        d = total.descriptor
        if isinstance(d, ValuationDescriptor):
            a = log_discrepancy(model, d.eta)
            if delta >= 1:
                return a / delta + d.shift, CLOSED_FORM
            return a + d.shift, "lower-bound"
        if isinstance(d, SumDescriptor):
            raise UnsupportedDescriptor(
                "no certified lc slope for sums of distinct valuation directions")
        assert mu_slope(total, delta).value is None
        raise UnsupportedDescriptor("coupled Ding needs a certified lc slope")

    def expectation_slopes(f: FiltrationFamily) -> tuple[Fraction, ...]:
        slopes = tuple(numerics(g).s_value for g in f.members)
        if None in slopes:
            raise UnsupportedDescriptor(
                "coupled Ding needs certified expectation slopes")
        return slopes

    mu, prov = lc_slope(sum_filtration(fam))
    s_vals = expectation_slopes(fam)
    value = mu - sum(s_vals, Fraction(0))
    probe = tuple(Fraction(1) for _ in range(model.rank))
    twisted = twist_family(fam, probe)
    t_mu, _ = lc_slope(sum_filtration(twisted))
    probe_value = t_mu - sum(expectation_slopes(twisted), Fraction(0))
    if delta == 1 and probe_value != value - vdot(model.barycenter(TOTAL), probe):
        raise InternalInvariantError("twist identity cross-validation failed")
    return DingResult(value, mu, s_vals, delta, probe, probe_value,
                      provenance=prov)


def _min_pairing(vertices, eta) -> Fraction:
    return min(vdot(v, eta) for v in vertices)


def valuation_oracle(eta) -> tuple[tuple[Fraction, ...], Fraction]:
    """The descriptor (eta, shift) of ``valuation_filtration`` at eta."""
    return as_vec(eta), F(0)


def descriptor_shift_oracle(desc, c) -> tuple[tuple[Fraction, ...], Fraction]:
    """The shift of a valuation descriptor (eta, shift) by c, in Fractions."""
    eta, s = desc
    return eta, s + F(c)


def descriptor_twist_oracle(model: ToricFanoModel, i, desc, xi
                            ) -> tuple[tuple[Fraction, ...], Fraction]:
    """The twist by xi of a valuation descriptor (eta, shift) on summand i,
    in Fractions: (eta + xi, shift - theta), with theta the least pairing
    of the summand's vertices with eta less their least pairing with
    eta + xi."""
    eta, s = desc
    moved = tuple(a + b for a, b in zip(eta, as_vec(xi)))
    verts = model.summand(i).vertices
    theta = _min_pairing(verts, eta) - _min_pairing(verts, moved)
    return moved, s - theta


def descriptor_base_change_oracle(desc, e) -> tuple[tuple[Fraction, ...], Fraction]:
    """The e-fold base change of a valuation descriptor (eta, shift)."""
    eta, s = desc
    return tuple(e * x for x in eta), e * s


def descriptor_sum_oracle(parts):
    """The descriptor of a sum whose members carry the valuation descriptors
    ``parts``, as (eta, shift) pairs: one pair with the summed shift when
    every eta is the same rational vector, else the parts as a tuple."""
    if all(eta == parts[0][0] for eta, _ in parts):
        return parts[0][0], sum((s for _, s in parts), F(0))
    return tuple(parts)


def ding_descriptor_oracle(model: ToricFanoModel, parts, delta
                           ) -> tuple[Fraction, Fraction, tuple, str, Fraction]:
    """(value, mu, summand slopes, provenance, probe value) of the coupled
    Ding invariant of a family whose members carry the valuation
    descriptors ``parts``, (eta, shift) pairs on one eta, in Fractions:
    the log discrepancy is minus the least pairing of the anticanonical
    vertices, a member's slope is its barycenter pairing less its least
    vertex pairing, plus its shift, and the probe is the all-ones twist of
    every member."""
    delta = F(delta)
    antican = model.anticanonical.vertices

    def terms(parts):
        eta, total_shift = descriptor_sum_oracle(parts)
        a = -_min_pairing(antican, eta)
        mu = (a / delta if delta >= 1 else a) + total_shift
        slopes = tuple(vdot(model.barycenters[i], e)
                       - _min_pairing(model.summand(i).vertices, e) + s
                       for i, (e, s) in enumerate(parts))
        return mu, slopes

    mu, slopes = terms(parts)
    ones = (F(1),) * model.rank
    t_mu, t_slopes = terms([descriptor_twist_oracle(model, i, p, ones)
                            for i, p in enumerate(parts)])
    return (mu - sum(slopes, F(0)), mu, slopes,
            CLOSED_FORM if delta >= 1 else "lower-bound",
            t_mu - sum(t_slopes, F(0)))


def ding_public_oracle(model: ToricFanoModel, parts, delta
                       ) -> tuple[Fraction, Fraction, tuple, str, Fraction]:
    """The same five fields as ``ding_descriptor_oracle``, from the public
    invariants alone, in Fractions: the lc slope is ``log_discrepancy``
    over delta (or alone, below slope one) plus the summed shifts, member
    i's slope is ``s_invariant`` plus its shift, and the probe twists
    every member by the all-ones direction, moving its shift by minus
    ``theta_twist``.  ``parts`` are (eta, shift) pairs on one eta."""
    delta = F(delta)
    ones = (F(1),) * model.rank

    def terms(parts):
        a = log_discrepancy(model, parts[0][0])
        mu = (a / delta if delta >= 1 else a) + sum((s for _, s in parts), F(0))
        return mu, tuple(s_invariant(model, i, e) + s
                         for i, (e, s) in enumerate(parts))

    mu, slopes = terms(parts)
    t_mu, t_slopes = terms([(tuple(x + 1 for x in e),
                             s - theta_twist(model, i, e, ones))
                            for i, (e, s) in enumerate(parts)])
    return (mu - sum(slopes, F(0)), mu, slopes,
            CLOSED_FORM if delta >= 1 else "lower-bound",
            t_mu - sum(t_slopes, F(0)))


def twisted_profile_oracle(model: ToricFanoModel, eta, xi
                           ) -> tuple[int, Fraction, Fraction]:
    """(entry, limit, kappa) of the ratio of the log discrepancy to the
    summed slope along eta + e xi.  The cone that absorbs the ray is the
    first in fan order that contains xi and whose facets the line crosses
    only inward, found by a loop over its facet pairings; the line enters
    it at the largest -<n, eta> / <n, xi>."""
    eta, xi = as_vec(eta), as_vec(xi)
    for k, cone in enumerate(model.fan):
        bounds = [Fraction(0)]
        for n in cone.facets:
            nx, nh = vdot(n, xi), vdot(n, eta)
            if nx < 0 or (nx == 0 and nh < 0):
                break
            if nx > 0 and nh < 0:
                bounds.append(-nh / nx)
        else:
            break
    else:
        raise InternalInvariantError("no fan cone absorbs the twisted ray")
    f = model.total_forms[k]
    s_form = vsub(model.barycenter(TOTAL), f)
    a1, a2 = -vdot(f, eta), -vdot(f, xi)
    s1, s2 = vdot(s_form, eta), vdot(s_form, xi)
    cross = abs(a1 * s2 - a2 * s1)
    entry = max(1, math.ceil(max(bounds)))
    if s1 >= 0:
        return entry, a2 / s2, cross / (s2 * s2)
    return max(entry, -int(2 * s1 // s2) + 1), a2 / s2, 2 * cross / (s2 * s2)


# ---------------------------------------------------------------------------
# weight tables as plain {m: {alpha: Fraction}} dicts, one entry at a time


def table_shift(table, c):
    return {m: {a: w + c * m for a, w in row.items()} for m, row in table.items()}


def valuation_table(basis, eta):
    """The weights of ``valuation_filtration`` one character at a time:
    <alpha, eta> less m times the least pairing of the summand's vertices
    with eta."""
    eta = as_vec(eta)
    least = _min_pairing(basis.model.summand(basis.index).vertices, eta)
    return {m: {a: sum((F(x) * y for x, y in zip(a, eta)), F(0)) - m * least
                for a in basis.chars[m]}
            for m in basis.degrees}


def table_twist(table, xi):
    return {m: {a: w + sum((F(x) * y for x, y in zip(a, xi)), F(0))
                for a, w in row.items()}
            for m, row in table.items()}


def table_round(table):
    return {m: {a: F(math.floor(w)) for a, w in row.items()}
            for m, row in table.items()}


def table_base_change(table, e):
    """The e-fold table, or None when some weight is not an integer."""
    if any(w != int(w) for row in table.values() for w in row.values()):
        return None
    return {m: {a: w * e for a, w in row.items()} for m, row in table.items()}


def _best_decompositions(rows):
    """Best weight of every character sum over one entry from each row,
    choosing all the entries at once."""
    best = {}
    for picks in itertools.product(*(row.items() for row in rows)):
        char = tuple(sum(coords) for coords in zip(*(a for a, _ in picks)))
        w = sum((x for _, x in picks), F(0))
        if char not in best or w > best[char]:
            best[char] = w
    return best


def table_sum(tables):
    """Max-plus sum of per-summand tables on one degree grid."""
    return {m: _best_decompositions([t[m] for t in tables]) for m in tables[0]}


def table_approximate(table, m0):
    """Weights at the multiples s*m0 of the stored degrees from s-fold
    products of the degree-m0 row."""
    return {m: _best_decompositions([table[m0]] * (m // m0))
            for m in table if m % m0 == 0}


def mu_slope_scan(f: Filtration, deltas) -> dict:
    """The interval (lo, hi) that ``mu_slope`` certifies for an opaque
    table at each slope parameter delta, by the scan its bisection
    replaced: at each degree, the levels of the table in rising order, up
    to the first whose lc threshold falls below delta.  Each level's
    threshold is computed once, for every delta."""
    model = f.basis.model
    thresholds = {}

    def passes(m, row, t, delta):
        if (m, t) not in thresholds:
            seq = MonomialIdealSeq.from_generators(
                {m: list(row.items())}, level=t, summand=f.basis.index)
            thresholds[m, t] = monomial_lct(model, seq, degree=m).value
        value = thresholds[m, t]
        return value is None or value >= delta

    out = {}
    for delta in deltas:
        delta = F(delta)
        lo = hi = None
        for m in f.basis.degrees:
            row = f.weights[m]
            t_m = max(row.values()) / m
            hi = t_m if hi is None else max(hi, t_m)
            best = None
            for t in sorted({w / m for w in row.values()}):
                if not passes(m, row, t, delta):
                    break
                best = t
            if best is not None:
                lo = best if lo is None else max(lo, best)
        if lo is None:
            lo = min(w / m for m, row in f.weights.items() for w in row.values())
        out[delta] = lo, hi
    return out


def table_slopes(table):
    """Per-degree maximal and mean slopes."""
    t_by = {m: max(row.values()) / m for m, row in table.items()}
    s_by = {m: sum(row.values(), F(0)) / len(row) / m for m, row in table.items()}
    return t_by, s_by


# ---------------------------------------------------------------------------
# test-only checks and constants


def is_shifted_trivial(f: Filtration) -> tuple[bool, Optional[Fraction]]:
    """True iff the weights are C*m for one constant C; returns C."""
    c: Optional[Fraction] = None
    for m, row in f.weights.items():
        for w in row.values():
            slope = w / m
            if c is None:
                c = slope
            elif slope != c:
                return False, None
    return True, c


def check_multiplicative(f: Filtration, samples: int, rng) -> int:
    """Sampled superadditivity check
    w_{m+m'}(a+a') >= w_m(a) + w_{m'}(a'); returns the number of triples
    actually tested (triples leaving the stored grid are skipped)."""
    degrees = f.basis.degrees
    tested = 0
    for _ in range(samples):
        m1 = rng.choice(degrees)
        m2 = rng.choice(degrees)
        if m1 + m2 not in f.weights:
            continue
        a1 = rng.choice(f.basis.characters(m1))
        a2 = rng.choice(f.basis.characters(m2))
        s = tuple(x + y for x, y in zip(a1, a2))
        if s not in f.weights[m1 + m2]:
            raise EmptyDecomposition(
                f"character sum {s} missing at degree {m1 + m2}")
        if f.weights[m1 + m2][s] < f.weights[m1][a1] + f.weights[m2][a2]:
            raise FiltrationError(
                f"multiplicativity fails at {a1}+{a2}, degrees {m1}+{m2}")
        tested += 1
    return tested


def dist2_to_affine(point: Sequence, base: Sequence) -> Fraction:
    """Squared distance from a point to base."""
    diff = vsub(as_vec(point), as_vec(base))
    return vdot(diff, diff)


def mean_slope_decay_constant(model: ToricFanoModel) -> Fraction:
    """A computed constant c such that the lattice mean of the dilated
    anticanonical polytope approaches the centroid at rate c/m.

    Crude but certified for the tested range: the deviation is controlled
    by the boundary layer, whose share of lattice points decays like the
    boundary count over the total count, scaled by the diameter.
    """
    p = model.anticanonical
    pts = lattice_points(p)
    interior = [q for q in pts
                if all(vdot(q, h.normal) > h.offset for h in p.halfspaces)]
    boundary = len(pts) - len(interior)
    diam = max(max(v[i] for v in p.vertices) - min(v[i] for v in p.vertices)
               for i in range(p.rank))
    return 4 * Fraction(diam) * Fraction(boundary, max(len(pts), 1))


def ding_of_twist(model: ToricFanoModel, fam: FiltrationFamily,
                  xi: Sequence) -> Fraction:
    """Coupled Ding invariant of the twisted family through the barycenter
    pairing formula, cross-validated against the direct computation."""
    xi = as_vec(xi)
    base = coupled_ding(fam)
    value = base.value - vdot(model.barycenter(TOTAL), xi)
    direct = coupled_ding(twist_family(fam, xi)).value
    if direct != value:
        raise InternalInvariantError("twist formula disagrees with the direct value")
    return value


def canonical_json_oracle(obj) -> str:
    """The canonical report text in two walks: each ``Fraction`` to its
    "p/q" string, each key to its ``str()``, each tuple to a list and any
    float rejected, and then ``json.dumps`` with sorted keys."""
    def plain(x):
        if isinstance(x, Fraction):
            n, d = x.numerator, x.denominator
            return str(n) if d == 1 else f"{n}/{d}"
        if isinstance(x, float):
            raise ValidationError("floating point value reached the report layer")
        if isinstance(x, dict):
            return {str(k): plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x

    return json.dumps(plain(obj), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def assert_float_free(obj) -> None:
    """Reject any structure containing a float; used as the report lint."""
    if isinstance(obj, float):
        raise ValidationError(f"floating point literal in report: {obj!r}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_float_free(k)
            assert_float_free(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            assert_float_free(v)


def format_vec(v: Sequence) -> list[str]:
    return [format_rational(Fraction(x)) for x in v]


def polytope_to_json(p: ExactPolytope) -> dict:
    return {"vertices": [format_vec(v) for v in p.vertices]}


def model_to_json(model: ToricFanoModel) -> dict:
    """A model as a model file's JSON object, each summand by its
    vertices."""
    return {
        "name": model.name,
        "rank": model.rank,
        "rays": [list(r) for r in model.rays],
        "decomposition": [polytope_to_json(p) for p in model.summands],
    }


def fragment_hull(fragment: dict):
    """The hull, by the subset loop of ``_from_points``, of the point table
    of a model file's decomposition fragment: its points as listed, or the
    vertices its half-spaces cut out."""
    if "vertices" in fragment:
        points = [[F(x) for x in v] for v in fragment["vertices"]]
    else:
        rows = fragment["halfspaces"]
        points = ExactPolytope.from_halfspaces(
            [HalfSpace.make(h["normal"], F(h["offset"])) for h in rows],
            len(rows[0]["normal"])).vertices
    return ExactPolytope.from_vertices(points)


def assert_summands_are_hulls(model: ToricFanoModel, decomposition) -> None:
    """Each summand of a loaded model, read off its fan certificate, equals
    the hull of its fragment's point table structurally: the same ``den``,
    ``nums``, ``facets``, ``incidence``, ``dim`` and ``rank``."""
    assert len(model.summands) == len(decomposition)
    for i, (p, fragment) in enumerate(zip(model.summands, decomposition)):
        q = fragment_hull(fragment)
        assert ((p.den, p.nums, p.facets, p.incidence, p.dim, p.rank)
                == (q.den, q.nums, q.facets, q.incidence, q.dim, q.rank)), (
            model.name, i)
