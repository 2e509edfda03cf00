"""Exact piecewise-linear fractional programs.

A program is a list of cells, each the primitive extreme rays of a cone with
the linear forms of the numerator and the denominator on it; its infimum,
over ``Fraction``, is a scan over those rays.  The lc thresholds are such
programs.  The coupled threshold needs no program: its numerator is one on
every fan ray, so ``stability`` scans the rays directly.  The reduced J
norm, a convex piecewise-linear minimum, needs no solver either:
``stability`` reads it off the vertices of the cells in which the fan cuts
the twist slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalInvariantError
from .geometry import IntVec, Vec, vdot


Cell = tuple[Sequence[IntVec], Vec, Vec]


@dataclass
class RatioResult:
    value: Optional[Fraction]      # None means +infinity (no constraining ray)
    witness: Optional[tuple[int, ...]]


def _ray_values(cells: Sequence[Cell]) -> list[tuple[IntVec, Fraction, Fraction]]:
    """(ray, numerator, denominator) at every cell ray with a positive
    denominator, sorted by ray.

    A ray shared by several cells must get the same two values from each of
    them, or the cells do not describe one pair of functions.  A negative
    denominator is an error; along a zero one the ray constrains nothing
    and is left out.
    """
    values: dict[IntVec, tuple[Fraction, Fraction]] = {}
    for rays, num, den in cells:
        for g in rays:
            pair = (vdot(num, g), vdot(den, g))
            if values.setdefault(g, pair) != pair:
                raise InternalInvariantError(f"cells disagree on the ray {g}")
    out = []
    for ray, (num, den) in sorted(values.items()):
        if den < 0:
            raise InternalInvariantError(f"denominator negative along ray {ray}")
        if den > 0:
            out.append((ray, num, den))
    return out


def minimize_pl_ratio(cells: Sequence[Cell]) -> RatioResult:
    """Exact infimum of a degree-zero homogeneous ratio of PL functions.

    Each cell is the rays of a cone with the linear forms of the numerator
    and the denominator on it, so the ratio is quasilinear there and its
    infimum over the cell is attained on an extreme ray.  The global value
    is the minimum over all cell rays with positive denominator, at the
    least such ray on a tie.
    """
    rays = _ray_values(cells)
    if not rays:
        return RatioResult(None, None)
    ray, num, den = min(rays, key=lambda r: r[1] / r[2])
    return RatioResult(num / den, ray)
