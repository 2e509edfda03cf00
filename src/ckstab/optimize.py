"""Exact rational optimization kernels.

Three layers, all over ``Fraction``:

* a two-phase simplex with Bland's rule (no cycling, deterministic pivots),
* convex piecewise-linear minimization through the epigraph reformulation,
* piecewise-linear fractional programs given as cells, each a cone with
  the linear forms of the numerator and the denominator on it; the infimum
  is a scan over the cell rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, InternalInvariantError
from .geometry import Cone, DimensionMismatch, IntVec, Vec, vdot


class OptimizeError(InputError):
    pass


class Unbounded(OptimizeError):
    pass


# ---------------------------------------------------------------------------
# linear programming


@dataclass
class LinearProgram:
    """min/max of <objective, x> subject to rows (a, rel, b), x free.

    ``rel`` is one of "<=", ">=", "=".  All data rational.
    """

    objective: Sequence
    constraints: list[tuple[Sequence, str, Fraction]]
    nvars: int


@dataclass
class LPResult:
    status: str          # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[Vec] = None


def lp_solve(lp: LinearProgram, sense: str = "min") -> LPResult:
    """Exact simplex. Free variables are split into positive parts; Bland's
    rule is used throughout, so the pivot sequence is deterministic and
    cannot cycle."""
    if sense not in ("min", "max"):
        raise OptimizeError(f"unknown sense {sense!r}")
    n = lp.nvars
    obj = [Fraction(c) for c in lp.objective]
    if len(obj) != n:
        raise DimensionMismatch("objective length != nvars")
    if sense == "max":
        obj = [-c for c in obj]

    # columns: x+ (n), x- (n), then one slack/surplus per inequality
    rows = []
    rels = []
    for a, rel, b in sorted(lp.constraints,
                            key=lambda t: (tuple(Fraction(x) for x in t[0]), t[1],
                                           Fraction(t[2]))):
        if rel not in ("<=", ">=", "="):
            raise OptimizeError(f"unknown relation {rel!r}")
        row = [Fraction(x) for x in a]
        if len(row) != n:
            raise DimensionMismatch("constraint length != nvars")
        bb = Fraction(b)
        rows.append((row, bb))
        rels.append(rel)

    nslack = sum(1 for r in rels if r != "=")
    ncols = 2 * n + nslack
    tab: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_idx = 0
    for (row, bb), rel in zip(rows, rels):
        full = [Fraction(0)] * ncols
        for j, c in enumerate(row):
            full[j] = c
            full[n + j] = -c
        if rel != "=":
            s = Fraction(1) if rel == "<=" else Fraction(-1)
            full[2 * n + slack_idx] = s
            slack_idx += 1
        if bb < 0:
            full = [-x for x in full]
            bb = -bb
        tab.append(full)
        rhs.append(bb)

    m = len(tab)
    # artificial variables, one per row
    for i in range(m):
        tab[i] = tab[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
    basis = [ncols + i for i in range(m)]
    total = ncols + m

    def pivot(bi: int, col: int):
        pv = tab[bi][col]
        tab[bi] = [x / pv for x in tab[bi]]
        rhs[bi] /= pv
        for r in range(m):
            if r != bi and tab[r][col] != 0:
                f = tab[r][col]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[bi])]
                rhs[r] -= f * rhs[bi]
        basis[bi] = col

    def run_phase(cost: list[Fraction], allowed: int) -> Optional[str]:
        while True:
            # reduced costs under the current basis
            y = [cost[b] for b in basis]
            entering = None
            for j in range(allowed):
                if j in basis:
                    continue
                red = cost[j] - sum(y[r] * tab[r][j] for r in range(m))
                if red < 0:
                    entering = j
                    break
            if entering is None:
                return None
            leaving = None
            best = None
            for r in range(m):
                if tab[r][entering] > 0:
                    ratio = rhs[r] / tab[r][entering]
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                        best = ratio
                        leaving = r
            if leaving is None:
                return "unbounded"
            pivot(leaving, entering)

    phase1_cost = [Fraction(0)] * ncols + [Fraction(1)] * m
    run_phase(phase1_cost, total)
    if sum(rhs[r] for r in range(m) if basis[r] >= ncols) > 0:
        return LPResult("infeasible")
    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= ncols:
            for j in range(ncols):
                if tab[r][j] != 0:
                    pivot(r, j)
                    break

    phase2_cost = obj + [-c for c in obj] + [Fraction(0)] * (nslack + m)
    status = run_phase(phase2_cost, ncols)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            x[b] = rhs[r]
    point = tuple(x[j] - x[n + j] for j in range(n))
    value = vdot(lp.objective, point)
    return LPResult("optimal", value, point)


# ---------------------------------------------------------------------------
# convex piecewise-linear minimization (epigraph LP)


@dataclass
class PLTermSpec:
    """One summand  xi -> max_{v in vertices} <v, base + xi> - <offset, base + xi>."""

    vertices: tuple[Vec, ...]
    offset: Vec
    base: Vec


def minimize_convex_pl(terms: Sequence[PLTermSpec], rank: int,
                       subspace: Optional[Sequence[Vec]] = None) -> tuple[Fraction, Vec]:
    """Exact minimum of a sum of (max-of-linear minus linear) terms.

    ``subspace`` restricts xi to the span of the given vectors; None means
    the full space and an empty list pins xi = 0.  Raises Unbounded when
    the objective has no lower bound on the subspace.
    """
    if subspace is None:
        basis = [tuple(Fraction(1) if j == i else Fraction(0) for j in range(rank))
                 for i in range(rank)]
    else:
        basis = [tuple(Fraction(x) for x in w) for w in subspace]
    s = len(basis)
    J = len(terms)
    nvars = s + J

    constraints = []
    const_part = Fraction(0)
    objective = [Fraction(0)] * nvars
    for j, term in enumerate(terms):
        objective[s + j] = Fraction(1)
        const_part -= vdot(term.offset, term.base)
        for i, w in enumerate(basis):
            objective[i] -= vdot(term.offset, w)
        for v in term.vertices:
            # s_j >= <v, base + W t>
            row = [Fraction(0)] * nvars
            for i, w in enumerate(basis):
                row[i] = vdot(v, w)
            row[s + j] = Fraction(-1)
            constraints.append((row, "<=", -vdot(v, term.base)))
    res = lp_solve(LinearProgram(objective, constraints, nvars), "min")
    if res.status == "unbounded":
        raise Unbounded("piecewise-linear objective unbounded below on the subspace")
    if res.status != "optimal":
        raise InternalInvariantError(f"unexpected LP status {res.status}")
    t = res.point[:s]
    xi = tuple(sum(t[i] * basis[i][c] for i in range(s)) for c in range(rank))
    return res.value + const_part, xi


# ---------------------------------------------------------------------------
# piecewise-linear fractional programs


Cell = tuple[Cone, Vec, Vec]


@dataclass
class RatioResult:
    value: Optional[Fraction]      # None means +infinity (no constraining ray)
    witness: Optional[tuple[int, ...]]


def _ray_values(cells: Sequence[Cell], allow_zero_denominator: bool
                ) -> list[tuple[IntVec, Fraction, Fraction]]:
    """(ray, numerator, denominator) at every cell generator with a positive
    denominator, sorted by ray.

    A ray shared by several cells must get the same two values from each of
    them, or the cells do not describe one pair of functions.  A negative
    denominator is an error, and so is a zero one unless
    ``allow_zero_denominator`` is set, in which case the ray constrains
    nothing and is left out.
    """
    values: dict[IntVec, tuple[Fraction, Fraction]] = {}
    for cone, num, den in cells:
        for g in cone.generators:
            pair = (vdot(num, g), vdot(den, g))
            if values.setdefault(g, pair) != pair:
                raise InternalInvariantError(f"cells disagree on the ray {g}")
    rays = []
    for ray, (num, den) in sorted(values.items()):
        if den < 0 or (den == 0 and not allow_zero_denominator):
            raise InternalInvariantError(f"denominator vanishes along ray {ray}")
        if den > 0:
            rays.append((ray, num, den))
    return rays


def minimize_pl_ratio(cells: Sequence[Cell],
                      allow_zero_denominator: bool = False) -> RatioResult:
    """Exact infimum of a degree-zero homogeneous ratio of PL functions.

    Each cell is a cone with the linear forms of the numerator and the
    denominator on it, so the ratio is quasilinear there and its infimum
    over the cell is attained on an extreme ray.  The global value is the
    minimum over all cell rays with positive denominator, at the least such
    ray on a tie.
    """
    rays = _ray_values(cells, allow_zero_denominator)
    if not rays:
        return RatioResult(None, None)
    ray, num, den = min(rays, key=lambda r: r[1] / r[2])
    return RatioResult(num / den, ray)
