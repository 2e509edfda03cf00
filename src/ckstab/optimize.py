"""Exact piecewise-linear fractional programs.

A program is the numerator and the denominator of a degree-zero
homogeneous ratio evaluated at candidate rays; when both are linear on
every cell of a fan whose rays are the candidates, the exact infimum is
a scan over those values, compared by cross-multiplication.  The lc
thresholds are such programs, at the rays of the cells of their ideal's
region, each value a pair of ints.  The coupled threshold needs no
program: its numerator is one on every fan ray, so ``stability`` scans
the rays directly.  The reduced J norm, a convex
piecewise-linear minimum, needs no solver either: ``stability`` reads it
off the vertices of the cells in which the fan cuts the twist slice.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, NamedTuple, Optional

from .errors import InternalInvariantError
from .geometry import IntVec


class RatioResult(NamedTuple):
    value: Optional[Fraction]      # None means +infinity (no constraining ray)
    witness: Optional[tuple[int, ...]]


def minimize_pl_ratio(values: Iterable[tuple[IntVec, Rational, Rational]]
                      ) -> RatioResult:
    """Exact infimum of a degree-zero homogeneous ratio of PL functions,
    given as (ray, numerator, denominator) at each candidate ray, each an
    ``int`` or a ``Fraction``.

    The value is the least ratio over the rays with a positive denominator,
    at the least such ray on a tie; along a zero denominator a ray
    constrains nothing, and a negative one is an error.  Ratios are
    compared by cross-multiplication, and the value is the one ``Fraction``
    built, from the winning pair.
    """
    best = None
    for ray, num, den in values:
        if den < 0:
            raise InternalInvariantError(f"denominator negative along ray {ray}")
        if den > 0:
            if best is not None:
                lhs, rhs = num * best[2], best[1] * den
                if lhs > rhs or (lhs == rhs and ray >= best[0]):
                    continue
            best = (ray, num, den)
    if best is None:
        return RatioResult(None, None)
    return RatioResult(Fraction(best[1], best[2]), best[0])
