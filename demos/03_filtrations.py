"""Filtrations on truncated section rings: construction, the four basic
operations, sums, and the finite-degree numerics.

On a toric model every graded piece is a direct sum of one-dimensional
character spaces, so a filtration is just a rational weight table on
lattice points, and all the ring-theoretic operations become exact
combinatorics.
"""

from fractions import Fraction as F

from ckstab import (ExactPolytope, TOTAL, base_change, build_model,
                    graded_basis, numerics, round_weights, shift,
                    sum_filtration, twist, trivial_family, valuation_family,
                    valuation_filtration)

seg = ExactPolytope.from_vertices([(0,), (1,)])
neg = ExactPolytope.from_vertices([(-1,), (0,)])
model = build_model([[1], [-1]], [seg, neg], name="p1_skew")

basis = graded_basis(model, 0, m_max=4)
f = valuation_filtration(basis, (1,))
print("valuation weights on the unit interval, degree 2:", {
    a[0]: str(w) for a, w in sorted(f.weights[2].items())})

# Shifts add a linear ramp, twists pair each character against a direction,
# and the two commute.
g = twist(shift(f, F(1, 2)), (-1,))
h = shift(twist(f, (-1,)), F(1, 2))
assert g.table_equal(h)
print("shift and twist commute (exact table equality)")

# Rounding drops weights to integers and is idempotent; integer tables can
# be base-changed, which scales every slope exactly.
r = round_weights(shift(f, F(1, 3)))
assert round_weights(r).table_equal(r)
b = base_change(r, 3)
n_r, n_b = numerics(r), numerics(b)
assert all(n_b.s_by_degree[m] == 3 * n_r.s_by_degree[m] for m in r.weights)
print("base change by 3 scales every mean slope by 3")

# The sum filtration lives on the total ring; for a family sharing one
# valuation direction it is exactly the total-ring valuation filtration.
fam = valuation_family(model, (1,), m_max=4)
total = sum_filtration(fam)
expected = valuation_filtration(
    graded_basis(model, TOTAL, m_max=4), (1,))
assert total.table_equal(expected)
print("sum of the two interval filtrations = total valuation filtration")

# Sums of shifted trivial filtrations are shifted trivial, with the shifts
# adding up; that is the degenerate case every detector must recognize.
fam0 = trivial_family(model, m_max=4)
shifted = type(fam0)(model, tuple(
    shift(member, c) for member, c in zip(fam0.members, (F(3, 2), F(-1)))))
summed = sum_filtration(shifted)
# one weight-to-degree ratio c throughout: the weights are c * m
(c,) = {w / m for m, row in summed.weights.items() for w in row.values()}
print("sum of shifted trivials detected with total shift:", c)

# Certified asymptotics ride along with descriptor-backed filtrations.
n = numerics(total)
print("mean slopes by degree:", {m: str(v) for m, v in n.s_by_degree.items()})
print("certified limit:", n.s_value, " maximal slope:", n.lambda_max,
      " J:", n.j_value)
