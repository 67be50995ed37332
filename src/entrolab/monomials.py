"""Exact arithmetic on exponent vectors and monomial ideals.

A monomial in k[X_1, ..., X_d] is represented by its exponent vector, a
tuple of d nonnegative ints.  A MonomialIdeal stores the unique minimal
generating set in lexicographic order, so two representations of the same
ideal compare equal.  All lengths are exact Python integers.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right

from .errors import DimensionMismatchError, NotFiniteLengthError

Vec = tuple[int, ...]


def _check_vec(v, ambient_dim: int | None = None) -> Vec:
    vec = tuple(map(int, v))
    if min(vec, default=0) < 0:
        raise ValueError(f"exponent vector {vec} has a negative entry")
    if ambient_dim is not None and len(vec) != ambient_dim:
        raise DimensionMismatchError(
            f"exponent vector {vec} has length {len(vec)}, expected {ambient_dim}"
        )
    return vec


def _divisor_tables(vectors) -> tuple:
    """Tables answering "which of ``vectors`` divide X^v" for any v.

    Bit k of a mask stands for vectors[k]; Python ints are the bitsets, so
    any number of vectors fits.  Axis i keeps the sorted distinct i-th
    coordinates and, for each, the mask of the vectors whose i-th
    coordinate is at most that value.
    """
    axes = []
    for column in zip(*vectors):
        bits: dict[int, int] = {}
        for k, c in enumerate(column):
            bits[c] = bits.get(c, 0) | 1 << k
        coords = sorted(bits)
        prefix = itertools.accumulate(map(bits.get, coords), operator.or_)
        axes.append((coords, list(prefix)))
    return (1 << len(vectors)) - 1, axes


def _divisor_mask(tables, v) -> int:
    """Mask of the vectors of ``tables`` that divide X^v: bit k is set iff
    vectors[k] <= v componentwise.  One bisection per axis."""
    mask, axes = tables
    for (coords, masks), x in zip(axes, v):
        t = bisect_right(coords, x)
        if not t:
            return 0
        mask &= masks[t - 1]
    return mask


def _minimal_sweep(gens: list[Vec]) -> tuple[Vec, ...]:
    """The minimal elements of ``gens``, distinct vectors of one length
    sorted lexicographically, in that order.

    A vector that another divides comes after it in that order, so a
    vector is minimal iff no earlier one lies at or below it on every
    axis.  Every earlier vector does so on axis 0, which needs no pass.
    Vector k holds bit n - 1 - k of a mask, so the earlier vectors hold
    the higher bits.  The pass over each other axis builds one dict from
    each distinct coordinate to the mask of the vectors at or below it,
    and ANDs it into the masks over the column; a vector is minimal iff
    its own bit is the highest left in its mask.
    """
    n = len(gens)
    if n < 2:
        return tuple(gens)
    masks = None
    for column in itertools.islice(zip(*gens), 1, None):
        bits: dict[int, int] = {}
        bit = 1 << n
        for c in column:
            bit >>= 1
            bits[c] = bits.get(c, 0) | bit
        coords = sorted(bits)
        prefix = itertools.accumulate(map(bits.get, coords), operator.or_)
        prefix = dict(zip(coords, prefix))
        column_masks = map(prefix.__getitem__, column)
        masks = list(column_masks if masks is None
                     else map(operator.and_, masks, column_masks))
    if masks is None:  # one variable: the least vector divides the others
        return tuple(gens[:1])
    return tuple([
        g for g, mask, top in zip(gens, masks, range(n, 0, -1))
        if mask.bit_length() == top
    ])


class _Value:
    """Base of the validated value types.  A subclass names its fields in
    ``_fields`` and its ``__init__`` stores them with object.__setattr__
    once its checks pass; the instance is immutable from then on, and
    compares, hashes, prints and pickles by its fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = zip(self._fields, self._values())
        fields = ", ".join(f"{f}={v!r}" for f, v in pairs)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MonomialIdeal(_Value):
    """A monomial ideal, held as its minimal generating set.

    Construction minimalizes and sorts the generators, so the stored form
    is canonical.  The vectors are converted and checked in bulk; only
    when a check fails are they checked again one by one, in input order,
    so the first bad vector names the error.  The distinct vectors, sorted
    lexicographically, are minimalized by ``_minimal_sweep``: one pass of
    prefix masks per axis but the first.  The empty generating set is the
    zero ideal.
    """

    __slots__ = _fields = ("generators", "ambient_dim")

    def __init__(self, generators: tuple[Vec, ...], ambient_dim: int):
        vectors = tuple(generators)  # a one-shot iterable is read once
        try:
            gens = sorted({tuple(map(int, g)) for g in vectors})
            valid = not gens or (
                {*map(len, gens)} == {ambient_dim}
                and min(itertools.chain.from_iterable(gens)) >= 0
            )
        except (TypeError, ValueError):
            valid = False
        if not valid:
            # the first bad vector in input order raises, as it is checked
            gens = sorted({_check_vec(g, ambient_dim) for g in vectors})
        object.__setattr__(self, "generators", _minimal_sweep(gens))
        object.__setattr__(self, "ambient_dim", ambient_dim)

    @property
    def is_zero(self) -> bool:
        return not self.generators


def minimalize(gens, ambient_dim: int | None = None) -> MonomialIdeal:
    """The unique minimal generating set of the ideal generated by ``gens``.

    Idempotent and independent of input order.  ``ambient_dim`` is required
    only when ``gens`` is empty.
    """
    gens = [tuple(g) for g in gens]
    if ambient_dim is None:
        if not gens:
            raise ValueError("ambient_dim is required for an empty generating set")
        ambient_dim = len(gens[0])
    return MonomialIdeal(tuple(gens), ambient_dim)


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The ideal generated by both generating sets, minimalized.

    When one operand is the zero ideal the other is returned as it is:
    ideals are frozen and already minimal."""
    _check_same_dim(a.ambient_dim, b.ambient_dim)
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    return MonomialIdeal(a.generators + b.generators, a.ambient_dim)


def _check_same_dim(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatchError(f"cannot add ideals in {a} and {b} variables")


def _pure_powers(gens, dim: int) -> tuple[int, ...] | None:
    """For each variable i, the least a with X_i^a among ``gens``.

    Returns None when some variable has no pure power, that is, exactly
    when the ideal they generate is not primary to the maximal ideal.  The
    zero vector is X_i^0 for every i.  One pass over the generators.
    """
    least = [None] * dim
    for g in gens:
        zeros = g.count(0)
        if zeros == dim:
            return (0,) * dim
        if zeros == dim - 1:
            a = max(g)
            i = g.index(a)
            if least[i] is None or a < least[i]:
                least[i] = a
    if None in least:
        return None
    return tuple(least)


def _faces(quotient, d: int) -> list[int]:
    """Bitmasks, bit i for X_i, of the sets of the d variables that hold
    the support of no generator in ``quotient``."""
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in quotient]
    return [face for face in range(1 << d) if all(s & face != s for s in supports)]


def krull_dimension(ideal: MonomialIdeal, ambient_dim: int) -> int:
    """Krull dimension of k[X_1..X_d]/ideal.

    Equals the largest size of a face, a variable subset holding the
    support of no generator; the zero ideal gives the full dimension d.
    """
    if ideal.ambient_dim != ambient_dim:
        raise DimensionMismatchError(
            f"ideal lives in {ideal.ambient_dim} variables, expected {ambient_dim}"
        )
    if not all(map(any, ideal.generators)):
        raise ValueError("unit ideal has no Krull dimension")
    return max(face.bit_count() for face in _faces(ideal.generators, ambient_dim))


# Deterministic Miller-Rabin: the prime bases up to 41 decide primality
# exactly for every n below _PRIME_TEST_LIMIT.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_characteristic(p: int) -> None:
    """Raise ValueError unless p is 0 or a prime that can be certified."""
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(
            f"characteristic {p} is too large: primality is decided exactly "
            f"only below {_PRIME_TEST_LIMIT}"
        )
    if p != 0 and not _is_prime(p):
        raise ValueError(f"characteristic must be 0 or prime, got {p}")


class RingSpec(_Value):
    """A quotient k[X_1..X_d]/J of a polynomial ring by a monomial ideal,
    viewed as a local ring at the ideal of the variables.

    ``characteristic`` is 0 or a prime; ``quotient`` may be the zero ideal
    (the ring is then regular).  Every quotient generator must involve at
    least one variable, so the ring really is local with maximal ideal
    (X_1, ..., X_d).
    """

    __slots__ = _fields = ("characteristic", "dim_ambient", "quotient")

    def __init__(
        self, characteristic: int, dim_ambient: int, quotient: MonomialIdeal
    ):
        check_characteristic(characteristic)
        if dim_ambient < 1:
            raise ValueError("need at least one variable")
        if quotient.ambient_dim != dim_ambient:
            raise DimensionMismatchError(
                "quotient ideal does not match the ambient variable count"
            )
        for g in quotient.generators:
            if sum(g) == 0:
                raise ValueError(
                    "quotient generator 1 found; the quotient must sit inside "
                    "the ideal of the variables"
                )
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "dim_ambient", dim_ambient)
        object.__setattr__(self, "quotient", quotient)

    @property
    def regular(self) -> bool:
        return self.quotient.is_zero

    @classmethod
    def polynomial(cls, characteristic: int, dim: int) -> "RingSpec":
        """The polynomial ring itself (zero quotient)."""
        return cls(characteristic, dim, MonomialIdeal((), dim))

    def maximal_ideal(self) -> MonomialIdeal:
        """(X_1, ..., X_d), built afresh on each call and written down: the
        unit vectors of X_d, ..., X_1 are minimal and in lexicographic
        order, so none of ``MonomialIdeal``'s checks or its sweep runs."""
        d = self.dim_ambient
        ideal = object.__new__(MonomialIdeal)
        units = [(0,) * (d - 1 - i) + (1,) + (0,) * i for i in range(d)]
        object.__setattr__(ideal, "generators", tuple(units))
        object.__setattr__(ideal, "ambient_dim", d)
        return ideal


def _cell_volumes(tables) -> dict:
    """Summed volume of the bounded cells of the grid cut by the vectors of
    the ``_divisor_tables`` result ``tables``, keyed by cell mask.

    An axis is cut at its coordinates; a cell's mask is the AND of its
    axes' prefix masks, so the walk goes axis by axis, merging cells whose
    partial masks agree (later axes treat them alike), and each distinct
    final mask appears once.  The caller guarantees that the bounded cells
    are all that count: the vectors include the zero vector, so every axis
    starts at 0 and every bounded mask is nonzero, and the caller's weight
    vanishes on every cell past an axis's last coordinate.
    """
    full, axes = tables
    volumes = {full: 1}
    for coords, masks in axes:
        cells = list(zip(masks, map(operator.sub, coords[1:], coords)))
        merged: dict = {}
        for partial, volume in volumes.items():
            for mask, width in cells:
                key = partial & mask
                merged[key] = merged.get(key, 0) + volume * width
        volumes = merged
    return volumes


def _standard_count(vectors, ring: RingSpec) -> tuple[int, list, tuple]:
    """Number of standard monomials of the ideal that ``vectors`` and the
    quotient generate, with the generators in the order counted and their
    feet table.  That ideal must hold a pure power of every variable.

    Above a point of the first d - 1 axes the standard monomials form an
    initial segment of the last axis, whose length is the least last
    coordinate among the generators whose first d - 1 coordinates (their
    feet) divide the point.  That column height depends only on the divisor
    mask over the feet, so the count sums volume times height over the
    cell volumes of the grid the feet cut in d - 1 axes.  The generators,
    minimal or not (a generator divisible by another never sets a height),
    are sorted colexicographically, last coordinate first, so a mask's
    height is read off its lowest set bit, and a generator divisible by
    another generator (or equal to an earlier one) is exactly one whose
    feet mask has a bit below its own.
    The pure power of X_d has the zero foot, and past the last coordinate
    of an axis i < d the pure power of X_i divides with height 0, so the
    precondition of ``_cell_volumes`` holds.
    """
    gens = sorted([*vectors, *ring.quotient.generators], key=lambda g: g[::-1])
    heights = [g[-1] for g in gens]
    feet = _divisor_tables([g[:-1] for g in gens])
    count = sum(
        volume * heights[(mask & -mask).bit_length() - 1]
        for mask, volume in _cell_volumes(feet).items()
    )
    return count, gens, feet


def colength(ideal: MonomialIdeal, ring: RingSpec) -> int:
    """Number of standard monomials of ideal + quotient, i.e. the k-dimension
    of the ring modulo the ideal: one feet table and one cell sum over it
    (see ``_standard_count``).  Raises NotFiniteLengthError, before any
    table is built, when some variable has no pure power in ideal +
    quotient, i.e. when that dimension is infinite.
    """
    _check_same_dim(ideal.ambient_dim, ring.dim_ambient)
    gens = ideal.generators + ring.quotient.generators
    if _pure_powers(gens, ring.dim_ambient) is None:
        raise NotFiniteLengthError(
            "not of finite length: some variable has no pure power in the "
            "ideal plus the quotient"
        )
    return _standard_count(ideal.generators, ring)[0]


def colength_bruteforce(ideal: MonomialIdeal, ring: RingSpec) -> int:
    """Independent oracle for colength: column-by-column box enumeration.

    The box is cut out by the pure powers among the generators of ideal
    and quotient.  Every point of the axes other than the longest is
    enumerated; above it the standard monomials form an initial segment of
    the longest axis, whose length is the least longest-axis exponent of a
    generator dividing the point in the other coordinates, or the box side
    if none does.  The generators are used as given, not minimalized, so
    nothing here shares code with ``colength``.
    """
    if ideal.ambient_dim != ring.dim_ambient:
        raise DimensionMismatchError(
            f"ideal lives in {ideal.ambient_dim} variables, expected "
            f"{ring.dim_ambient}"
        )
    gens = ideal.generators + ring.quotient.generators
    bounds = _pure_powers(gens, ring.dim_ambient)
    if bounds is None:
        raise NotFiniteLengthError(
            "quotient by the ideal is not finite dimensional: some variable "
            "has no pure power in the ideal"
        )
    axis = max(range(ring.dim_ambient), key=bounds.__getitem__)
    others = [i for i in range(ring.dim_ambient) if i != axis]
    # lowest first, so the first generator dividing a point sets its column
    columns = sorted((g[axis], [g[i] for i in others]) for g in gens)
    count = 0
    for point in itertools.product(*(range(bounds[i]) for i in others)):
        for height, rest in columns:
            if all(a <= x for a, x in zip(rest, point)):
                count += height
                break
    return count


def _pivot_count(gens, dim: int) -> int:
    """Number of monomials that none of ``gens`` divides, by pivot splits
    (Bigatti, "Computation of Hilbert-Poincare series", J. Pure Appl.
    Algebra 119, 1997).  ``gens`` must hold a pure power of every variable.

    A branch holds a generating set.  Its pure powers cut out a box b, and
    of the rest only the minimal generators strictly inside b divide a
    point of it.  With none left the branch counts prod(b); with one, g, it
    counts prod(b) - prod(b - g).  Otherwise take the variable X_i that most
    of them involve and k, the median of their nonzero i-th exponents.  The
    points with u_i < k are those of the box with b_i = k; a point with
    u_i >= k is k e_i plus a point of b - k e_i that no generator of the
    colon ideal (g - k e_i, clamped at 0 on axis i) divides.  Both boxes
    are smaller, and the number of branches follows the generators, not
    the size of their exponents.  Nothing here shares code with
    ``colength`` or its cell sum.
    """
    total = 0
    stack = [list(gens)]
    while stack:
        gens = stack.pop()
        box = _pure_powers(gens, dim)
        if box is None:
            raise NotFiniteLengthError("some variable has no pure power")
        if not all(box):  # the zero vector: no point is outside the ideal
            continue
        inside = [g for g in gens if all(map(operator.lt, g, box))]
        minimal = []
        for g in sorted(inside, key=sum):  # a divisor comes before
            if not any(all(map(operator.le, h, g)) for h in minimal):
                minimal.append(g)
        volume = math.prod(box)
        if len(minimal) < 2:
            total += volume - sum(
                math.prod(map(operator.sub, box, g)) for g in minimal
            )
            continue
        # no pure power lies strictly inside the box: every minimal
        # generator involves two variables or more
        columns = list(zip(*minimal))
        i = min(range(dim), key=lambda j: columns[j].count(0))
        exponents = sorted(filter(None, columns[i]))
        k = exponents[len(exponents) // 2]
        sides = [tuple(b if j == axis else 0 for j in range(dim))
                 for axis, b in enumerate(box)]
        low = list(sides)
        low[i] = tuple(k if j == i else 0 for j in range(dim))
        stack.append(minimal + low)
        stack.append([
            g[:i] + (max(g[i] - k, 0),) + g[i + 1:] for g in minimal + sides
        ])
    return total
