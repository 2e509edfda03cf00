"""Finite exact engine for equivariant filtrations on truncated graded
section rings of a toric model.

On a toric model every graded piece decomposes into one-dimensional
character spaces, so a filtration is a rational weight table on the lattice
points of the dilated summand polytopes, and span sums become maxima over
character decompositions.  That monomial reduction is the load-bearing
simplification of this module and is enforced by construction: bases only
come from :func:`ckstab.toric.section_basis`.

A weight table stores, per degree, one tuple of ``int`` numerators aligned
with the basis characters of that degree, over one positive ``int``
denominator (``Filtration.nums`` and ``Filtration.den``); each character is
stored once, in the basis.  Shifts, twists, rounding and the max-plus sums
add and compare Python ints; the ``Fraction`` weights are a read-only view
(``Filtration.weights``), and every public output is a ``Fraction``.

A max-plus sum runs on a gather plan: for a pair of character lists, the
index pairs whose characters add up to each output character.  Plans are
memoized on the model, keyed by the exact character tuples they were built
from, so every later table on the same bases only adds and compares ints.

All tables live on degrees up to a cap; operations never extrapolate beyond
stored degrees except through closed-form descriptors (trivial, cocharacter
valuation with shift, and sums of those), which carry certified asymptotic
invariants.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from operator import add, itemgetter, mul
from typing import Optional, Sequence, Union

from .errors import InputError
from .geometry import Vec, _exact_entries, as_vec
from .toric import (TOTAL, RankMismatch, SummandIndex, ToricFanoModel,
                    _twist_terms, integrality_step, s_invariant,
                    section_basis, support_min, t_invariant)

Char = tuple[int, ...]
IntTable = dict[int, tuple[int, ...]]


class FiltrationError(InputError):
    pass


class UnboundedWeights(FiltrationError):
    pass


class MissingCharacter(FiltrationError):
    pass


class GridMismatch(FiltrationError):
    pass


class EmptyDecomposition(FiltrationError):
    pass


class NotIntegerValued(FiltrationError):
    pass


class UnsupportedDescriptor(FiltrationError):
    pass


# ---------------------------------------------------------------------------
# graded bases


@dataclass(frozen=True)
class GradedBasis:
    """Characters of the stored degrees of one summand (or the total ring).

    ``chars[m]`` fixes the order of the degree-m characters: every weight
    row on this basis is a tuple aligned with it."""

    model: ToricFanoModel
    index: SummandIndex
    degrees: tuple[int, ...]
    chars: dict[int, tuple[Char, ...]]

    def characters(self, m: int) -> tuple[Char, ...]:
        if m not in self.chars:
            raise GridMismatch(f"degree {m} not stored")
        return self.chars[m]

    def restrict(self, degrees: Sequence[int]) -> "GradedBasis":
        degs = tuple(sorted(degrees))
        if any(d not in self.chars for d in degs):
            raise GridMismatch("restriction outside the stored grid")
        return GradedBasis(self.model, self.index, degs,
                           {d: self.chars[d] for d in degs})


def graded_basis(model: ToricFanoModel, i: SummandIndex, m_max: int = 12,
                 step: Optional[int] = None) -> GradedBasis:
    """Basis on all degrees that are multiples of the summand's integrality
    step, up to m_max.  The characters of each degree are memoized on the
    model instance by (summand, degree), so every basis that stores a
    degree shares one tuple for it; lattice-point enumeration dominates
    otherwise.  The memo holds no reference back to the model, so a model
    that is no longer used is freed at once rather than by the cycle
    collector."""
    if step is None:
        step = integrality_step(model, i)
    degrees = tuple(range(step, m_max + 1, step))
    if not degrees:
        raise GridMismatch(f"degree cap {m_max} below the integrality step {step}")
    chars = {}
    for m in degrees:
        row = model.bases.get((i, m))
        if row is None:
            row = model.bases[i, m] = tuple(section_basis(model, i, m))
        chars[m] = row
    return GradedBasis(model, i, degrees, chars)


# ---------------------------------------------------------------------------
# descriptors: the closed forms behind certified asymptotics


@dataclass(frozen=True)
class ValuationDescriptor:
    """Weights <alpha, eta> - m * min(eta) + shift * m on the carrying basis.

    eta = 0 with zero shift is the trivial filtration; shifts and twists of
    cocharacter-valuation filtrations stay in this class.
    """

    eta: Vec
    shift: Fraction = Fraction(0)


@dataclass(frozen=True)
class SumDescriptor:
    parts: tuple[ValuationDescriptor, ...]


Descriptor = Union[ValuationDescriptor, SumDescriptor, None]


# ---------------------------------------------------------------------------
# filtrations


class _WeightView(Mapping):
    """The ``Fraction`` weights of an integer table, read-only; each
    ``[m]`` builds the degree-m row afresh, keyed by character."""

    __slots__ = ("_chars", "_nums", "_den")

    def __init__(self, chars: dict[int, tuple[Char, ...]], nums: IntTable,
                 den: int):
        self._chars = chars
        self._nums = nums
        self._den = den

    def __getitem__(self, m: int) -> dict[Char, Fraction]:
        den = self._den
        return {a: Fraction(n, den)
                for a, n in zip(self._chars[m], self._nums[m])}

    def __iter__(self):
        return iter(self._nums)

    def __len__(self):
        return len(self._nums)


class Filtration:
    """An immutable per-degree weight table on a graded basis.

    The weight of the degree-m section of character ``basis.chars[m][k]``,
    the largest level at which it survives, is ``nums[m][k] / den``: one
    tuple of ``int`` numerators per degree, aligned with the basis
    characters, over one positive ``int`` denominator for the whole table,
    not necessarily in lowest terms.  ``weights[m][alpha]`` reads the same
    weight as a ``Fraction``, built on demand.  Every constructor builds its
    table from the basis, so the table covers exactly the basis characters.
    """

    __slots__ = ("basis", "nums", "den", "descriptor")

    def __init__(self, basis: GradedBasis, nums: IntTable, den: int,
                 descriptor: Descriptor = None):
        self.basis = basis
        self.nums = nums
        self.den = den
        self.descriptor = descriptor

    @property
    def weights(self) -> Mapping[int, dict[Char, Fraction]]:
        return _WeightView(self.basis.chars, self.nums, self.den)

    def row_max(self, m: int) -> Fraction:
        """The largest weight at degree m."""
        return Fraction(max(self.nums[m]), self.den)

    def row_min(self, m: int) -> Fraction:
        """The least weight at degree m."""
        return Fraction(min(self.nums[m]), self.den)

    def mean_slope(self, m: int) -> Fraction:
        """The mean weight at degree m, over m."""
        row = self.nums[m]
        return Fraction(sum(row), self.den * m * len(row))

    def table_equal(self, other: "Filtration") -> bool:
        return (self.basis.index == other.basis.index
                and self.basis.degrees == other.basis.degrees
                and all(self._row_equal(other, m) for m in self.basis.degrees))

    def _row_equal(self, other: "Filtration", m: int) -> bool:
        chars, other_chars = self.basis.chars[m], other.basis.chars[m]
        if chars is not other_chars and chars != other_chars:
            # the characters differ, or come in another order
            return self.weights[m] == other.weights[m]
        row, other_row = self.nums[m], other.nums[m]
        p, q = self.den, other.den
        if p == q:
            return row == other_row
        # n / p == n' / q exactly when n * q == n' * p
        return all(n * q == o * p for n, o in zip(row, other_row))

    def first_difference(self, other: "Filtration") -> Optional[tuple]:
        """The first entry where the weight tables differ, as (degree,
        character, weight, other weight), with ``Fraction`` weights and
        None where a table lacks the entry; None when they agree."""
        for m in sorted(self.nums.keys() | other.nums.keys()):
            row = self.weights[m] if m in self.nums else {}
            other_row = other.weights[m] if m in other.nums else {}
            for alpha in {**row, **other_row}:
                x, y = row.get(alpha), other_row.get(alpha)
                if x != y:
                    return m, alpha, x, y
        return None

    def __repr__(self):
        return (f"Filtration(index={self.basis.index!r}, "
                f"degrees={self.basis.degrees}, descriptor={self.descriptor!r})")


def _numerators(values: Sequence[Fraction], den: int) -> tuple[int, ...]:
    """The numerators of the values over den, a multiple of their
    denominators."""
    return tuple(x.numerator * (den // x.denominator) for x in values)


def construct(basis: GradedBasis, spec) -> Filtration:
    """Build a filtration from a weight table {m: {alpha: weight}}."""
    if isinstance(spec, dict):
        weights: dict[int, list[Fraction]] = {}
        for m in basis.degrees:
            if m not in spec:
                raise MissingCharacter(f"table lacks degree {m}")
            row = []
            for alpha in basis.characters(m):
                if alpha not in spec[m]:
                    raise MissingCharacter(f"table lacks {alpha} at degree {m}")
                w = spec[m][alpha]
                if w is None or (isinstance(w, float) and math.isinf(w)):
                    raise UnboundedWeights(f"infinite weight at {alpha}")
                if isinstance(w, float):
                    raise FiltrationError(
                        f"floating point weight at {alpha}; weights must be rational")
                row.append(Fraction(w))
            weights[m] = row
        den = math.lcm(*(w.denominator for row in weights.values()
                         for w in row))
        nums = {m: _numerators(row, den) for m, row in weights.items()}
        return Filtration(basis, nums, den, descriptor=None)
    raise FiltrationError(f"unrecognized filtration spec {spec!r}")


def trivial_filtration(basis: GradedBasis) -> Filtration:
    nums = {m: (0,) * len(basis.characters(m)) for m in basis.degrees}
    eta0 = tuple(Fraction(0) for _ in range(basis.model.rank))
    return Filtration(basis, nums, 1, ValuationDescriptor(eta0))


def valuation_filtration(basis: GradedBasis, eta: Sequence) -> Filtration:
    """Weights <alpha, eta> - m * min over the summand of <., eta>.

    This normalization makes every weight nonnegative with minimum zero,
    i.e. the section through the support minimizer is the last to vanish.
    """
    eta = as_vec(eta)
    lam = support_min(basis.model, basis.index, eta)
    den = math.lcm(lam.denominator, *(x.denominator for x in eta))
    eta_n = _numerators(eta, den)
    (lam_n,) = _numerators((lam,), den)
    nums = {m: tuple([sum(map(mul, a, eta_n)) - m * lam_n
                      for a in basis.characters(m)])
            for m in basis.degrees}
    return Filtration(basis, nums, den, ValuationDescriptor(eta))


# ---------------------------------------------------------------------------
# the operations


def shift(f: Filtration, c) -> Filtration:
    c = Fraction(c)
    den = math.lcm(f.den, c.denominator)
    k = den // f.den
    (c_n,) = _numerators((c,), den)
    nums = {m: tuple([n * k + c_n * m for n in row])
            for m, row in f.nums.items()}
    return Filtration(f.basis, nums, den, _shift_descriptor(f.descriptor, c))


def _shift_descriptor(d: Descriptor, c: Fraction) -> Descriptor:
    if isinstance(d, ValuationDescriptor):
        return replace(d, shift=d.shift + c)
    if isinstance(d, SumDescriptor):
        first = replace(d.parts[0], shift=d.parts[0].shift + c)
        return SumDescriptor((first,) + d.parts[1:])
    return None


def twist(f: Filtration, xi: Sequence) -> Filtration:
    """Add <alpha, xi> to every weight.  For a valuation descriptor this is
    again a shifted valuation descriptor at eta + xi."""
    xi = _exact_entries(xi)
    if len(xi) != f.basis.model.rank:
        raise RankMismatch("twist rank differs from the torus rank")
    den = math.lcm(f.den, *(x.denominator for x in xi))
    k = den // f.den
    xi_n = _numerators(xi, den)
    chars = f.basis.chars
    nums = {m: tuple([n * k + sum(map(mul, a, xi_n))
                      for a, n in zip(chars[m], row)])
            for m, row in f.nums.items()}
    return Filtration(f.basis, nums, den,
                      _twist_descriptor(f.basis.model, f.basis.index,
                                        f.descriptor, xi))


def _twist_descriptor(model: ToricFanoModel, i: SummandIndex, d: Descriptor,
                      xi: Sequence) -> Descriptor:
    """The descriptor of the twist by xi of a table on summand i carrying
    d: a valuation descriptor moves to eta + xi, its shift less the twist
    correction; both come from one integer scaling of eta and xi."""
    if isinstance(d, ValuationDescriptor):
        theta, den, shifted = _twist_terms(model, i, d.eta, xi)
        return ValuationDescriptor(tuple([Fraction(n, den) for n in shifted]),
                                   d.shift - theta)
    return None


def _integer_valued(f: Filtration) -> bool:
    den = f.den
    return all(n % den == 0 for row in f.nums.values() for n in row)


def round_weights(f: Filtration) -> Filtration:
    """Round every weight down to an integer, the largest integer level at
    which each section persists.  Idempotent."""
    den = f.den
    nums = {m: tuple([n // den for n in row]) for m, row in f.nums.items()}
    d = f.descriptor
    keep = d if isinstance(d, ValuationDescriptor) and _integer_valued(f) else None
    return Filtration(f.basis, nums, 1, keep)


def base_change(f: Filtration, e: int) -> Filtration:
    """Multiply integer weights by e (the weight table of the e-fold base
    change); expectation and maximal slopes scale by e exactly."""
    if e < 1:
        raise FiltrationError("base change exponent must be a positive integer")
    if not _integer_valued(f):
        raise NotIntegerValued("round the filtration before base change")
    nums = {m: tuple([n * e for n in row]) for m, row in f.nums.items()}
    d = f.descriptor
    if isinstance(d, ValuationDescriptor):
        keep: Descriptor = ValuationDescriptor(tuple(x * e for x in d.eta),
                                               d.shift * e)
    else:
        keep = None
    return Filtration(f.basis, nums, f.den, keep)


# ---------------------------------------------------------------------------
# families and the sum filtration


@dataclass(frozen=True)
class FiltrationFamily:
    """One filtration per summand, on aligned degree grids."""

    model: ToricFanoModel
    members: tuple[Filtration, ...]

    def __post_init__(self):
        if len(self.members) != self.model.num_summands:
            raise GridMismatch("family size differs from the number of summands")
        degrees = {f.basis.degrees for f in self.members}
        if len(degrees) != 1:
            raise GridMismatch("family members on different degree grids")
        for i, f in enumerate(self.members):
            if f.basis.index != i or f.basis.model is not self.model:
                raise GridMismatch("family member bound to the wrong summand")

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.members[0].basis.degrees


def family_degree_grid(model: ToricFanoModel, m_max: int) -> tuple[int, ...]:
    step = math.lcm(*(integrality_step(model, i)
                      for i in range(model.num_summands)))
    grid = tuple(range(step, m_max + 1, step))
    if not grid:
        raise GridMismatch(f"degree cap {m_max} below the family step {step}")
    return grid


def valuation_family(model: ToricFanoModel, eta: Sequence,
                     m_max: int = 6) -> FiltrationFamily:
    grid = family_degree_grid(model, m_max)
    return FiltrationFamily(model, tuple(
        valuation_filtration(graded_basis(model, i, m_max=m_max, step=grid[0]),
                             eta)
        for i in range(model.num_summands)))


def trivial_family(model: ToricFanoModel, m_max: int = 6) -> FiltrationFamily:
    zero = tuple(Fraction(0) for _ in range(model.rank))
    return valuation_family(model, zero, m_max=m_max)


def twist_family(fam: FiltrationFamily, xi: Sequence) -> FiltrationFamily:
    return FiltrationFamily(fam.model, tuple(twist(f, xi) for f in fam.members))


def _plan(model: ToricFanoModel, left: tuple[Char, ...],
          right: tuple[Char, ...], target: tuple[Char, ...], m: int,
          what: str) -> tuple[tuple, tuple[Char, ...]]:
    """The gather plan of one max-plus stage, memoized on the model by the
    exact character tuples: (gathers, output characters).

    The outputs are the target characters in order, then every other sum
    in first-seen order.  A gather is the flat index ``i * len(right) + j``
    of the one pair (left[i], right[j]) adding up to its output, or an
    ``itemgetter`` of all such indices.  A target character that is no sum
    raises EmptyDecomposition, naming ``what`` it lacks."""
    key = (left, right, target)
    plan = model.plans.get(key)
    if plan is None:
        groups: dict[Char, list[int]] = {alpha: [] for alpha in target}
        for k, (a, b) in enumerate(product(left, right)):
            groups.setdefault(tuple(map(add, a, b)), []).append(k)
        for alpha in target:
            if not groups[alpha]:
                raise EmptyDecomposition(
                    f"character {alpha} at degree {m} admits no {what}")
        gathers = tuple(ks[0] if len(ks) == 1 else itemgetter(*ks)
                        for ks in groups.values())
        out = target if len(groups) == len(target) else tuple(groups)
        plan = model.plans[key] = (gathers, out)
    return plan


def _maxplus(gathers: tuple, wa: tuple[int, ...],
             wb: tuple[int, ...]) -> tuple[int, ...]:
    """The max-plus product of two weight rows, laid out by a plan."""
    sums = [x + y for x in wa for y in wb]
    return tuple([sums[g] if g.__class__ is int else max(g(sums))
                  for g in gathers])


def sum_filtration(fam: FiltrationFamily) -> Filtration:
    """The induced filtration on the total ring: the weight of a character
    is the best total weight over its decompositions into summand
    characters.  Every total character must decompose (the summand bases
    generate the total basis); a gap raises EmptyDecomposition."""
    model = fam.model
    grid = fam.degrees
    total_basis = graded_basis(model, TOTAL, m_max=grid[-1], step=grid[0])
    total_basis = total_basis.restrict(grid)
    den = math.lcm(*(f.den for f in fam.members))
    rows = [f.nums if f.den == den else
            {m: tuple([n * (den // f.den) for n in row])
             for m, row in f.nums.items()}
            for f in fam.members]
    chars = [f.basis.chars for f in fam.members]
    if len(rows) == 1:
        # the one summand is the polytope: adding the zero character lays
        # its rows out on the total basis
        rows.append({m: (0,) for m in grid})
        chars.append({m: ((0,) * model.rank,) for m in grid})
    last = len(rows) - 1
    nums: IntTable = {}
    for m in grid:
        target = total_basis.chars[m]
        out, row = chars[0][m], rows[0][m]
        for k in range(1, last + 1):
            gathers, out = _plan(model, out, chars[k][m],
                                 target if k == last else (), m, "decomposition")
            row = _maxplus(gathers, row, rows[k][m])
        nums[m] = row[:len(target)]
    return Filtration(total_basis, nums, den,
                      _sum_descriptor([f.descriptor for f in fam.members]))


def _sum_descriptor(parts: Sequence[Descriptor]) -> Descriptor:
    """The descriptor of the sum of a family whose members carry ``parts``:
    one valuation descriptor with the summed shift when they share a
    direction, the parts as a sum descriptor when they do not, and None
    when a member is opaque."""
    if not all(isinstance(p, ValuationDescriptor) for p in parts):
        return None
    etas = {p.eta for p in parts}
    if len(etas) == 1:
        total_shift = sum((p.shift for p in parts), Fraction(0))
        return ValuationDescriptor(parts[0].eta, total_shift)
    return SumDescriptor(tuple(parts))


def approximate(f: Filtration, m0: int) -> Filtration:
    """The degree-m0 approximation: weights generated by s-fold products of
    the degree-m0 piece.  Only multiples of m0 are materialized; other
    degrees are deliberately left undefined."""
    if m0 not in f.basis.degrees:
        raise GridMismatch(f"degree {m0} not stored")
    target = [m for m in f.basis.degrees if m % m0 == 0]
    basis = f.basis.restrict(target)
    model = basis.model
    base_chars, base_row = basis.chars[m0], f.nums[m0]
    nums: IntTable = {m0: base_row}
    # each power keeps every s-fold sum, in or out of the target basis, so
    # the next power sees all of them
    out, row = base_chars, base_row
    for m in range(2 * m0, basis.degrees[-1] + 1, m0):
        chars = basis.chars.get(m, ())
        gathers, out = _plan(model, out, base_chars, chars, m,
                             "s-fold decomposition")
        row = _maxplus(gathers, row, base_row)
        if m in basis.chars:
            nums[m] = row[:len(chars)]
    # keep the closed form only when degree-m0 products really regenerate
    # the original table (true for valuation filtrations on these bases,
    # but checked rather than assumed)
    descriptor = None
    if isinstance(f.descriptor, ValuationDescriptor):
        if all(nums[m] == f.nums[m] for m in target):
            descriptor = f.descriptor
    return Filtration(basis, nums, f.den, descriptor)


# ---------------------------------------------------------------------------
# numerics


@dataclass(frozen=True)
class FiltrationNumerics:
    t_by_degree: dict[int, Fraction]
    s_by_degree: dict[int, Fraction]
    lambda_max: Optional[Fraction]
    s_value: Optional[Fraction]
    j_value: Optional[Fraction]
    provenance: str


def numerics(f: Filtration) -> FiltrationNumerics:
    """Per-degree maximal and mean slopes, with certified asymptotics when
    the descriptor provides closed forms.

    For an opaque table only the finite-degree sequences are returned; no
    limit is claimed.
    """
    t_by, s_by = {}, {}
    den = f.den
    for m, row in f.nums.items():
        t_by[m] = Fraction(max(row), den * m)
        s_by[m] = f.mean_slope(m)
    model = f.basis.model
    i = f.basis.index
    d = f.descriptor
    if isinstance(d, ValuationDescriptor):
        lam = t_invariant(model, i, d.eta) + d.shift
        s_val = s_invariant(model, i, d.eta) + d.shift
        prov = "closed-form"
        j_val = lam - s_val
    elif isinstance(d, SumDescriptor):
        lam = sum((t_invariant(model, k, p.eta) + p.shift
                   for k, p in enumerate(d.parts)), Fraction(0))
        s_val = None
        j_val = None
        prov = "closed-form-lambda-only"
    else:
        lam = s_val = j_val = None
        prov = "finite-degree-estimate"
    return FiltrationNumerics(t_by, s_by, lam, s_val, j_val, prov)

