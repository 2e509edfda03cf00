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

A basis also holds each degree's characters as integer coordinate columns,
built once per (summand, degree) beside the character tuple.  A valuation
table and a twist add ``<alpha, v>`` to a whole row through one pairing
kernel, one pass over two columns for each two nonzero coordinates of
``v``.

A max-plus sum runs on a gather plan: for a pair of character lists, the
index pairs whose characters add up to each output character.  Plans are
memoized on the model by a fingerprint of the character tuples and
confirmed on the tuples themselves, so every later table on the same bases
only adds and compares ints.

All tables live on degrees up to a cap; operations never extrapolate beyond
stored degrees except through closed-form descriptors (trivial, cocharacter
valuation with shift, and sums of those), which carry certified asymptotic
invariants.  A valuation descriptor is integer too: its direction eta is
``int`` numerators over one positive ``int`` denominator in lowest terms,
beside one ``Fraction`` shift.  Its shifts, twists, base changes and sums
add ints, its closed forms call the integer cores of :mod:`ckstab.toric`
on those numerators, and each value reported is built as one ``Fraction``.

A table's descriptor is derived on first read.  A shift, twist, base
change, rounding, approximation or sum builds its table at once and stores
only the pending descriptor step: the parent's descriptor slot (a
descriptor or another pending step) and the step's own arguments, never a
table.  Reading ``Filtration.descriptor`` runs the pending steps once and
keeps the result, so a table whose closed forms nobody reads never pays
for them.  A step on a table whose slot already chains ``_MAX_PENDING``
unread steps reads it first, so an unread chain stays bounded.  Every
input check still raises at the step itself.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import product
from operator import add, itemgetter
from typing import NamedTuple, Optional, Sequence, Union

from ._record import Record
from .errors import InputError
from .geometry import IntVec, Vec, _exact_entries, _int_directions, _scaled
from .toric import (TOTAL, RankMismatch, SummandIndex, ToricFanoModel, _plus,
                    _s_invariant, _support_min, _t_invariant, _twist_terms,
                    integrality_step, section_basis)

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


class GradedBasis(Record):
    """Characters of the stored degrees of one summand (or the total ring).

    ``chars[m]`` fixes the order of the degree-m characters: every weight
    row on this basis is a tuple aligned with it.  ``cols[m]`` holds the
    same characters as integer coordinate columns, ``tuple(zip(*chars[m]))``,
    so ``cols[m][j][k]`` is coordinate j of ``chars[m][k]``.  A basis built
    by hand derives its columns from its own ``chars``.  Two bases are equal
    when their model, index, degrees and characters are; as ``chars`` is a
    dict, a basis is not hashable."""

    _fields = ("model", "index", "degrees", "chars")

    def __init__(self, model: ToricFanoModel, index: SummandIndex,
                 degrees: tuple[int, ...], chars: dict[int, tuple[Char, ...]],
                 cols: Optional[dict[int, tuple[IntVec, ...]]] = None):
        if cols is None:
            cols = {m: tuple(zip(*row)) for m, row in chars.items()}
        vars(self).update(model=model, index=index, degrees=degrees,
                          chars=chars, cols=cols)

    __hash__ = None

    def characters(self, m: int) -> tuple[Char, ...]:
        if m not in self.chars:
            raise GridMismatch(f"degree {m} not stored")
        return self.chars[m]

    def restrict(self, degrees: Sequence[int]) -> "GradedBasis":
        degs = tuple(sorted(degrees))
        if any(d not in self.chars for d in degs):
            raise GridMismatch("restriction outside the stored grid")
        return GradedBasis(self.model, self.index, degs,
                           {d: self.chars[d] for d in degs},
                           {d: self.cols[d] for d in degs})


def _stored(model: ToricFanoModel, i: SummandIndex, degrees: Sequence[int]
            ) -> tuple[dict[int, tuple[Char, ...]], dict[int, tuple[IntVec, ...]]]:
    """The characters and columns of the degrees of summand i, from the
    model's memo, enumerating each missing degree once."""
    chars, cols = {}, {}
    for m in degrees:
        entry = model.bases.get((i, m))
        if entry is None:
            row = tuple(section_basis(model, i, m))
            entry = model.bases[i, m] = (row, tuple(zip(*row)))
        chars[m], cols[m] = entry
    return chars, cols


def graded_basis(model: ToricFanoModel, i: SummandIndex, m_max: int = 12,
                 step: Optional[int] = None) -> GradedBasis:
    """Basis on all degrees that are multiples of the summand's integrality
    step, up to m_max.  The characters of each degree and their columns are
    memoized on the model instance by (summand, degree), so every basis
    that stores a degree shares one tuple of each for it; lattice-point
    enumeration dominates otherwise.  The memo holds no reference back to
    the model, so a model that is no longer used is freed at once rather
    than by the cycle collector."""
    if step is None:
        step = integrality_step(model, i)
    degrees = tuple(range(step, m_max + 1, step))
    if not degrees:
        raise GridMismatch(f"degree cap {m_max} below the integrality step {step}")
    return GradedBasis(model, i, degrees, *_stored(model, i, degrees))


# ---------------------------------------------------------------------------
# descriptors: the closed forms behind certified asymptotics


class ValuationDescriptor(Record):
    """Weights <alpha, eta> - m * min(eta) + shift * m on the carrying basis.

    eta = 0 with zero shift is the trivial filtration; shifts and twists of
    cocharacter-valuation filtrations stay in this class.

    eta is held as ``int`` numerators ``nums`` over one positive ``int``
    denominator ``den``, in lowest terms, so two descriptors are equal (and
    hash alike) exactly when their eta and shift are equal as rationals.
    ``eta`` reads the direction as ``Fraction``s, built on demand; the
    descriptor steps and the closed forms use only ``den`` and ``nums``.
    """

    _fields = ("eta", "shift")

    def __init__(self, eta: Sequence, shift=Fraction(0)):
        # one lcm of the entries' own denominators is already lowest terms
        den, (nums,) = _scaled((_exact_entries(eta),))
        vars(self).update(den=den, nums=nums, shift=Fraction(shift))

    @property
    def eta(self) -> Vec:
        den = self.den
        return tuple([Fraction(n, den) for n in self.nums])

    def _key(self) -> tuple:
        return (self.den, self.nums, self.shift)


def _valuation(den: int, nums: IntVec, shift: Fraction) -> ValuationDescriptor:
    """The valuation descriptor at eta = nums / den, reduced to lowest terms."""
    g = math.gcd(den, *nums)
    if g != 1:
        den, nums = den // g, tuple([n // g for n in nums])
    d = object.__new__(ValuationDescriptor)
    vars(d).update(den=den, nums=nums, shift=shift)
    return d


class SumDescriptor(NamedTuple):
    parts: tuple[ValuationDescriptor, ...]


Descriptor = Union[ValuationDescriptor, SumDescriptor, None]


class _Pending:
    """A descriptor step not yet taken: ``step(model, i, d, *args)`` gives
    the descriptor of a table on summand i from its parent's descriptor d.
    ``parent`` is the parent's descriptor slot, a descriptor or another
    pending step (for a sum, a tuple of the members' slots), and ``args``
    the step's own arguments; no table is held."""

    __slots__ = ("step", "parent", "args")

    def __init__(self, step, parent, args: tuple = ()):
        self.step = step
        self.parent = parent
        self.args = args


# the most steps a descriptor slot chains unread: a step on a table whose
# slot chains this many reads it first, so an unread chain of steps holds
# a bounded number of them
_MAX_PENDING = 8


def _then(step, f: "Filtration", *args):
    """The descriptor slot of a step on f: None when f has no descriptor,
    as no step makes one, else the step, pending on f's slot."""
    slot = f._descriptor
    depth, p = 0, slot
    while p.__class__ is _Pending:
        depth += 1
        p = p.parent
    if depth >= _MAX_PENDING:
        slot = f.descriptor
    return None if slot is None else _Pending(step, slot, args)


def _resolve(slot, model: ToricFanoModel, i: SummandIndex) -> Descriptor:
    """The descriptor in a slot of a table on summand i: the pending steps
    run innermost first, without recursion however long the chain."""
    steps = []
    while slot.__class__ is _Pending:
        steps.append(slot)
        slot = slot.parent
    for p in reversed(steps):
        slot = p.step(model, i, slot, *p.args)
    return slot


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

    ``descriptor`` is read-only and derived on first read: the operations
    store a pending step in its place, which the first read runs and
    replaces by its result, so later reads return the same object.
    """

    __slots__ = ("basis", "nums", "den", "_descriptor")

    def __init__(self, basis: GradedBasis, nums: IntTable, den: int,
                 descriptor: Descriptor = None):
        self.basis = basis
        self.nums = nums
        self.den = den
        self._descriptor = descriptor

    @property
    def descriptor(self) -> Descriptor:
        d = self._descriptor
        if d.__class__ is _Pending:
            d = self._descriptor = _resolve(d, self.basis.model,
                                            self.basis.index)
        return d

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


def valuation_filtration(basis: GradedBasis, eta: Sequence) -> Filtration:
    """Weights <alpha, eta> - m * min over the summand of <., eta>.

    This normalization makes every weight nonnegative with minimum zero,
    i.e. the section through the support minimizer is the last to vanish.
    """
    model = basis.model
    eden, (e,) = _int_directions((eta,), model.rank)
    d = _valuation(eden, e, Fraction(0))
    # lam = lam_n / lam_den in lowest terms, and the table over the lcm of
    # its denominator and eta's
    lam_n, lam_den = _support_min(model, basis.index, d.den, d.nums)
    g = math.gcd(lam_n, lam_den)
    lam_n, lam_den = lam_n // g, lam_den // g
    den = math.lcm(lam_den, d.den)
    k = den // d.den
    eta_n = d.nums if k == 1 else tuple([n * k for n in d.nums])
    lam_n *= den // lam_den
    nums = {}
    for m in basis.degrees:
        row = (-m * lam_n,) * len(basis.characters(m))
        nums[m] = _pairing(basis.cols[m], eta_n, row)
    return Filtration(basis, nums, den, d)


def _pairing(cols: tuple[IntVec, ...], v: IntVec, row: Sequence[int],
             k: int = 1) -> tuple[int, ...]:
    """``n * k + <alpha, v>`` for each entry n of a row and its character
    alpha, read off the characters' coordinate columns: one pass for each
    two nonzero coordinates of v, and one for a last odd one, the first
    also scaling the row by k."""
    terms = [(x, col) for x, col in zip(v, cols) if x]
    for j in range(1, len(terms), 2):
        (x, p), (y, q) = terms[j - 1], terms[j]
        row = [n * k + x * a + y * b for n, a, b in zip(row, p, q)]
        k = 1
    if len(terms) % 2:
        x, p = terms[-1]
        row = [n * k + x * a for n, a in zip(row, p)]
        k = 1
    return tuple(row) if k == 1 else tuple([n * k for n in row])


# ---------------------------------------------------------------------------
# the operations


def shift(f: Filtration, c) -> Filtration:
    c = Fraction(c)
    den = math.lcm(f.den, c.denominator)
    k = den // f.den
    (c_n,) = _numerators((c,), den)
    nums = {m: tuple([n * k + c_n * m for n in row])
            for m, row in f.nums.items()}
    return Filtration(f.basis, nums, den,
                      _then(_shift_descriptor, f, c))


def _shift_descriptor(model: ToricFanoModel, i: SummandIndex, d: Descriptor,
                      c: Fraction) -> Descriptor:
    """The descriptor of the shift by c of a table carrying d; the first
    part of a sum carries the shift."""
    if isinstance(d, ValuationDescriptor):
        return _valuation(d.den, d.nums, d.shift + c)
    if isinstance(d, SumDescriptor):
        first = d.parts[0]
        first = _valuation(first.den, first.nums, first.shift + c)
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
    cols = f.basis.cols
    nums = {m: _pairing(cols[m], xi_n, row, k) for m, row in f.nums.items()}
    return Filtration(f.basis, nums, den,
                      _then(_twist_descriptor, f, den, xi_n))


def _twist_descriptor(model: ToricFanoModel, i: SummandIndex, d: Descriptor,
                      den: int, xi_n: IntVec) -> Descriptor:
    """The descriptor of the twist by xi = xi_n / den of a table on summand
    i carrying d: a valuation descriptor moves to eta + xi, its shift less
    the twist correction; both come from eta and xi over one denominator."""
    if isinstance(d, ValuationDescriptor):
        common = math.lcm(d.den, den)
        k, kx = common // d.den, common // den
        e = d.nums if k == 1 else tuple([n * k for n in d.nums])
        x = xi_n if kx == 1 else tuple([n * kx for n in xi_n])
        (theta, theta_den), shifted = _twist_terms(model, i, common, e, x)
        return _valuation(common, shifted,
                          Fraction(*_plus((-theta, theta_den), d.shift)))
    return None


def _integer_valued(f: Filtration) -> bool:
    den = f.den
    if den == 1:
        return True
    return all(n % den == 0 for row in f.nums.values() for n in row)


def round_weights(f: Filtration) -> Filtration:
    """Round every weight down to an integer, the largest integer level at
    which each section persists.  Idempotent."""
    den = f.den
    nums = {m: tuple([n // den for n in row]) for m, row in f.nums.items()}
    keep = f._descriptor is not None and _integer_valued(f)
    return Filtration(f.basis, nums, 1,
                      _then(_valuation_only, f) if keep else None)


def _valuation_only(model: ToricFanoModel, i: SummandIndex,
                    d: Descriptor) -> Descriptor:
    """d when it is a valuation descriptor, else None: the closed form an
    unchanged table keeps."""
    return d if isinstance(d, ValuationDescriptor) else None


def base_change(f: Filtration, e: int) -> Filtration:
    """Multiply integer weights by e (the weight table of the e-fold base
    change); expectation and maximal slopes scale by e exactly."""
    if e < 1:
        raise FiltrationError("base change exponent must be a positive integer")
    if not _integer_valued(f):
        raise NotIntegerValued("round the filtration before base change")
    nums = {m: tuple([n * e for n in row]) for m, row in f.nums.items()}
    return Filtration(f.basis, nums, f.den,
                      _then(_base_change_descriptor, f, e))


def _base_change_descriptor(model: ToricFanoModel, i: SummandIndex,
                            d: Descriptor, e: int) -> Descriptor:
    """The descriptor of the e-fold base change of a table carrying d."""
    if isinstance(d, ValuationDescriptor):
        return _valuation(d.den, tuple([n * e for n in d.nums]), d.shift * e)
    return None


# ---------------------------------------------------------------------------
# families and the sum filtration


class FiltrationFamily(Record):
    """One filtration per summand, on aligned degree grids."""

    _fields = ("model", "members")

    def __init__(self, model: ToricFanoModel, members: tuple[Filtration, ...]):
        if len(members) != model.num_summands:
            raise GridMismatch("family size differs from the number of summands")
        degrees = {f.basis.degrees for f in members}
        if len(degrees) != 1:
            raise GridMismatch("family members on different degree grids")
        for i, f in enumerate(members):
            if f.basis.index != i or f.basis.model is not model:
                raise GridMismatch("family member bound to the wrong summand")
        vars(self).update(model=model, members=members)

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.members[0].basis.degrees


def family_step(model: ToricFanoModel) -> int:
    """The least degree that clears the denominators of every summand."""
    return math.lcm(*(integrality_step(model, i)
                      for i in range(model.num_summands)))


def family_degree_grid(model: ToricFanoModel, m_max: int) -> tuple[int, ...]:
    step = family_step(model)
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
    """The gather plan of one max-plus stage, memoized on the model:
    (gathers, output characters).

    The outputs are the target characters in order, then every other sum
    in first-seen order.  A gather is the flat index ``i * len(right) + j``
    of the one pair (left[i], right[j]) adding up to its output, or an
    ``itemgetter`` of all such indices.  A target character that is no sum
    raises EmptyDecomposition, naming ``what`` it lacks.

    The memo is keyed by a fingerprint, the lengths and first characters of
    the three tuples, so a lookup hashes no whole tuple; each entry under a
    fingerprint keeps its tuples, and a hit is confirmed on them, by
    identity first (the bases and earlier plans hand out the same tuples)
    and by equality otherwise.  So the memo holds one entry per distinct
    plan."""
    key = (len(left), len(right), len(target), left[:1], right[:1],
           target[:1])
    entries = model.plans.get(key, ())
    for l, r, t, plan in entries:
        if ((l is left or l == left) and (r is right or r == right)
                and (t is target or t == target)):
            return plan
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
    plan = (gathers, out)
    model.plans.setdefault(key, []).append((left, right, target, plan))
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
    total_basis = _total_basis(model, grid)
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
    slots = tuple([f._descriptor for f in fam.members])
    return Filtration(total_basis, nums, den,
                      None if None in slots else _Pending(_sum_step, slots))


def _total_basis(model: ToricFanoModel, grid: tuple[int, ...]) -> GradedBasis:
    """The total basis on a family's grid: its multiples of the first
    degree, up to the last.  The degrees, characters and columns of each
    grid are kept on the model, so a grid seen before costs no lookup per
    degree; the basis object itself is not kept, as it refers back to the
    model."""
    entry = model.totals.get(grid)
    if entry is None:
        step, top = grid[0], grid[-1]
        if any(m % step or not step <= m <= top for m in grid):
            raise GridMismatch("restriction outside the stored grid")
        degrees = tuple(sorted(grid))
        entry = model.totals[grid] = (degrees, *_stored(model, TOTAL, degrees))
    return GradedBasis(model, TOTAL, *entry)


def _sum_step(model: ToricFanoModel, i: SummandIndex,
              slots: tuple) -> Descriptor:
    """The descriptor of a sum, from the descriptor slots of its members,
    member k on summand k."""
    return _sum_descriptor([_resolve(d, model, k) for k, d in enumerate(slots)])


def _sum_descriptor(parts: Sequence[Descriptor]) -> Descriptor:
    """The descriptor of the sum of a family whose members carry ``parts``:
    one valuation descriptor with the summed shift when they share a
    direction, the parts as a sum descriptor when they do not, and None
    when a member is opaque."""
    if not all(isinstance(p, ValuationDescriptor) for p in parts):
        return None
    # in lowest terms, two directions agree exactly when their den and nums do
    if len({(p.den, p.nums) for p in parts}) == 1:
        first = parts[0]
        return _valuation(first.den, first.nums,
                          sum([p.shift for p in parts], Fraction(0)))
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
    keep = f._descriptor is not None and all(nums[m] == f.nums[m]
                                             for m in target)
    return Filtration(basis, nums, f.den,
                      _then(_valuation_only, f) if keep else None)


# ---------------------------------------------------------------------------
# numerics


class FiltrationNumerics(NamedTuple):
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
        lam = Fraction(*_plus(_t_invariant(model, i, d.den, d.nums), d.shift))
        s_val = Fraction(*_plus(_s_invariant(model, i, d.den, d.nums), d.shift))
        prov = "closed-form"
        j_val = lam - s_val
    elif isinstance(d, SumDescriptor):
        lam = sum([Fraction(*_plus(_t_invariant(model, k, p.den, p.nums),
                                   p.shift)) for k, p in enumerate(d.parts)],
                  Fraction(0))
        s_val = None
        j_val = None
        prov = "closed-form-lambda-only"
    else:
        lam = s_val = j_val = None
        prov = "finite-degree-estimate"
    return FiltrationNumerics(t_by, s_by, lam, s_val, j_val, prov)

