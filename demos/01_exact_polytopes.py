"""Tour of the exact polytope kernel.

Everything below is computed over arbitrary-precision rationals; there is
no floating point anywhere, so every printed value is exact.
"""

from fractions import Fraction as F

from ckstab import (ExactPolytope, HalfSpace, centroid, lattice_points,
                    minkowski_sum, support_value, volume)

# A polytope can be built from either description; the other is derived and
# the two are cross-validated on construction.
simplex = ExactPolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
print("standard simplex facets:")
for h in simplex.halfspaces:
    print("   <a,", h.normal, "> >=", h.offset)

quad = ExactPolytope.from_halfspaces(
    [HalfSpace.make((1, 0), -1), HalfSpace.make((0, 1), -1),
     HalfSpace.make((-1, -1), -1), HalfSpace.make((1, 1), -1)], 2)
print("\nquadrilateral vertices:", [tuple(map(str, v)) for v in quad.vertices])
print("volume:", volume(quad))
print("centroid:", tuple(map(str, centroid(quad))))
print("lattice points:", len(lattice_points(quad)))

# Support values come with an attaining vertex, which is what makes the
# downstream threshold certificates checkable.
val, vtx = support_value(quad, (1, 1), "min")
print("\nmin <a,(1,1)> =", val, "attained at", tuple(map(str, vtx)))

# Minkowski sums are exact as well; support minima add up.
tri = ExactPolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
trap = ExactPolytope.from_vertices([(1, 0), (2, 0), (0, 2), (0, 1)])
s = minkowski_sum([tri, trap])
print("\ntriangle + trapezoid =", [tuple(map(str, v)) for v in s.vertices])
for xi in [(1, 0), (0, 1), (1, 1), (-2, 3)]:
    lhs = support_value(s, xi, "min")[0]
    rhs = support_value(tri, xi, "min")[0] + support_value(trap, xi, "min")[0]
    assert lhs == rhs
print("support minima are additive under the sum (checked on 4 directions)")

# Rational scaling works too; this is how half-anticanonical summands arise.
half = quad.scale(F(1, 2))
print("\nhalf-scaled centroid:", tuple(map(str, centroid(half))))
