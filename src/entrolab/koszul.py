"""Koszul complexes with signed monomial differentials and exact
multigraded cohomology lengths.

The complex on monomials x_1, ..., x_m sits in cohomological degrees
-m .. 0 with the free module in degree -j spanned by the j-element
subsets of {1..m}, each held as its bitmask s in [0, 2^m).  The
differential drops one element at a time with the sign (-1)^(number of
elements below it); it depends on m alone, so there is one table per m,
checked to square to zero once, when it is first built.  Each
multidegree v carries a finite complex of vector spaces over the prime
field (or the rationals in characteristic 0) whose matrices have entries
0 and +-1.

An entry that a quotient generator, another entry or an earlier copy of
itself divides is a free factor: the change e_i -> e_i - (x_i/x_j) e_j
is invertible and keeps multidegrees, so K(x) = K(x') (x) K(0)^k for the
m' = m - k kept entries x' (Bruns-Herzog, Cohen-Macaulay Rings, 1.6).
When a complex is first ranked, its entries are reduced so, and every
table below is built over the kept entries alone; the lengths of K(x)
are those of K(x') convolved with (1 + s)^k.  On a regular ring with as
many kept entries as variables, x' is one pure power of each variable, a
regular sequence, and its lengths are a closed form; no table below is
built for it.  Otherwise subset S of the kept entries is active at v iff
X^(v - shift_S) is a standard monomial, so a slice depends only on which
cuts shift_S + g divide X^v, for g = 0 and each quotient generator.  One
divisor table over these cuts gives the cells, and the cohomology
lengths are summed over them, each distinct active set counted once.  A
slice is Morse-matched first, by unit pivots on its bitmask; exact ranks
(one sparse integer elimination for every characteristic, never floating
point) run only where critical cells sit in adjacent degrees.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cache, cached_property
from math import gcd, prod

from .errors import NotFiniteLengthError
from .monomials import (
    MonomialIdeal,
    RingSpec,
    Vec,
    _cell_volumes,
    _check_vec,
    _divisor_mask,
    _divisor_tables,
    _pure_powers,
    colength,
)
from .endos import MonomialMap, _matpow, _matvec


def exact_rank(rows: list[dict[int, int]], characteristic: int) -> int:
    """Rank over the prime field of the given characteristic (the
    rationals when it is 0) of the integer matrix whose rows are given
    sparse, as dicts {column: entry}.

    Each row is reduced against the pivot rows kept so far, keyed by their
    highest column, as a*row - b*pivot, and is then taken mod p, or divided
    by the gcd of its entries in characteristic 0, so every step is exact
    integer arithmetic; a row left nonzero becomes a new pivot.  Entries
    may be zero, and the given rows are not modified."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _normalized(row, characteristic)
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            combo = {c: a * x for c, x in row.items()}
            for c, y in pivot.items():
                combo[c] = combo.get(c, 0) - b * y
            row = _normalized(combo, characteristic)
    return len(pivots)


def _normalized(row: dict[int, int], p: int) -> dict[int, int]:
    # the nonzero entries, mod p, or divided by their gcd when p is 0
    if p:
        return {c: x % p for c, x in row.items() if x % p}
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items() if x}


class HomologyLengths(namedtuple("HomologyLengths", "lengths region")):
    """Length of each cohomology module, keyed by cohomological degree.

    ``region`` is, on each axis, the sum of the entries' coordinates plus
    the largest quotient generator coordinate (or 0), the largest cut
    shift_S + g of the full sequence: every multidegree outside the box of
    these sides has acyclic slices."""

    __slots__ = ()

    def length(self, degree: int) -> int:
        return self.lengths.get(degree, 0)


class GeneratorProfile(namedtuple("GeneratorProfile", "peak width")):
    """Shape constants of a generator: ``peak`` is the largest cohomology
    length, ``width`` the largest |degree| with nonzero cohomology."""

    __slots__ = ()


@cache
def _differential(m: int) -> tuple:
    """The signed differential of every Koszul complex on m entries: entry
    s lists (s with bit i cleared, sign) for each bit i of s, the sign
    being (-1)^(number of bits of s below i).  Checked once per m."""
    table = tuple(
        tuple(
            (s ^ 1 << i, -1 if (s & ((1 << i) - 1)).bit_count() % 2 else 1)
            for i in range(m)
            if s >> i & 1
        )
        for s in range(1 << m)
    )
    return _checked(table)


def _checked(table) -> tuple:
    # the two paths from s to s less {a, b} carry the same monomial weight,
    # the shift of {a, b}, so d^2 = 0 is a condition on the signs alone
    for entries in table:
        acc: dict[int, int] = {}
        for mid, s1 in entries:
            for target, s2 in table[mid]:
                acc[target] = acc.get(target, 0) + s1 * s2
        if any(acc.values()):
            raise AssertionError("differential does not square to zero")
    return table


@cache
def _subset_masks(m: int) -> tuple:
    """Bitmasks over the subsets s in [0, 2^m): lacking[v] holds the s
    without element v, levels[j] the s with j elements."""
    def mask(keep) -> int:
        return int("".join("01"[keep(s)] for s in reversed(range(1 << m))), 2)

    lacking = tuple(mask(lambda s: not s >> v & 1) for v in range(m))
    return lacking, tuple(mask(lambda s: s.bit_count() == j) for j in range(m + 1))


def _subset_shifts(entries, d: int) -> list[Vec]:
    # shifts[s] = shifts[s less its lowest bit] + that bit's entry
    shifts = [(0,) * d]
    for s in range(1, 1 << len(entries)):
        entry = entries[(s & -s).bit_length() - 1]
        shifts.append(tuple(map(operator.add, shifts[s & s - 1], entry)))
    return shifts


class KoszulComplex:
    """The Koszul complex on monomials in the maximal ideal that generate,
    with the quotient, an ideal of finite colength.  ``m`` is the length
    of the whole sequence.  Construction only validates it; the kept
    entries, their shifts and the divisor table are found the first time a
    slice is ranked, and ``shifts`` are those of the kept entries.  The
    differential is checked to square to zero."""

    def __init__(self, ring: RingSpec, sequence):
        d = ring.dim_ambient
        seq = tuple(_check_vec(w, d) for w in sequence)
        if any(sum(w) == 0 for w in seq):
            raise NotFiniteLengthError(
                "sequence entries must lie in the maximal ideal"
            )
        if _pure_powers(seq + ring.quotient.generators, d) is None:
            raise NotFiniteLengthError(
                "sequence does not generate an ideal of finite colength"
            )
        self.ring = ring
        self.sequence = seq
        self.m = len(seq)
        self._slices: dict[int, dict[int, int]] = {}

    @cached_property
    def _kept(self) -> tuple[Vec, ...]:
        # the first copy of each entry that no quotient generator and no
        # other entry divides; at the few entries a ranked complex can have,
        # this scan costs less than building a divisor table
        quotient = self.ring.quotient.generators
        vectors = quotient + self.sequence
        kept: list[Vec] = []
        for w in self.sequence:
            if w in kept or w in quotient:
                continue
            if all(u == w for u in vectors if all(map(operator.le, u, w))):
                kept.append(w)
        return tuple(kept)

    @cached_property
    def shifts(self) -> list[Vec]:
        return _subset_shifts(self._kept, self.ring.dim_ambient)

    @cached_property
    def _cuts(self) -> tuple:
        # bit b 2^m' + s stands for the cut shift_s + g_b, where g_0 = 0 and
        # g_1, ... are the quotient generators: it divides X^v iff
        # shift_s <= v - g_b
        offsets = [(0,) * self.ring.dim_ambient, *self.ring.quotient.generators]
        return _divisor_tables(
            [tuple(map(operator.add, s, g)) for g in offsets for s in self.shifts]
        )

    def slice_dims(self, v: Vec) -> dict[int, int]:
        """Cohomology dimensions of the multidegree-v slice of the whole
        complex, keyed by cohomological degree, in a fresh dict; independent
        of any other slice.  The slice of K(x') (x) K(0)^k at v is the sum,
        over the subsets T of the dropped entries, of the kept slice at
        v - shift_T moved down |T| degrees, each read from the divisor mask
        of the cuts at v - shift_T.  The mask is 0 (not even shift_T divides
        X^v) exactly when v - shift_T has a negative coordinate, and that T
        is skipped."""
        dims = dict.fromkeys(range(-self.m, 1), 0)
        dropped = list(self.sequence)
        for w in self._kept:
            dropped.remove(w)
        for t, shift in enumerate(_subset_shifts(dropped, self.ring.dim_ambient)):
            mask = _divisor_mask(self._cuts, map(operator.sub, v, shift))
            if mask:
                for degree, dim in self._cut_dims(mask).items():
                    dims[degree - t.bit_count()] += dim
        return dims

    def _cut_dims(self, mask: int) -> dict[int, int]:
        # the active set is block 0 of the mask less the later blocks; each
        # is counted once and cached
        m = len(self._kept)
        n, killed = 1 << m, 0
        for block in range(n, mask.bit_length(), n):
            killed |= mask >> block
        active = mask & ~killed & (1 << n) - 1
        dims = self._slices.get(active)
        if dims is None:
            dims = self._slices[active] = _active_dims(
                m, self.ring.characteristic, active
            )
        return dims


def _active_dims(m: int, characteristic: int, active: int) -> dict[int, int]:
    """Cohomology dimensions, keyed by degree, of the slice of a Koszul
    complex on m entries whose active subsets are the set bits of
    ``active``.  It is a relative complex (present less killed) with
    entries +-1.  For v = 0..m-1 in turn, each critical S without v is
    matched with S + {v} if that is critical: element matchings in
    sequence are acyclic with unit pivots, a Morse matching in every
    characteristic (Skoldberg, Trans. AMS 2006; Jonsson, LNM 1928).  With
    c_j critical and a_j active j-subsets, M_j = a_j - c_j - M_(j+1) pairs
    join degrees j and j-1 and rank d_j = M_j + r_j; the Morse rank r_j is
    0 unless both degrees hold critical cells, and only then is d_j
    ranked, in full.  H^(-j) = c_j - r_j - r_(j+1)."""
    diff, (lacking, levels) = _differential(m), _subset_masks(m)
    crit = active
    for v, without in enumerate(lacking):
        pairs = crit & without & crit >> (1 << v)
        crit &= ~(pairs | pairs << (1 << v))
    crits = [(crit & level).bit_count() for level in levels]
    ranks = [0] * (m + 2)
    matched = 0
    for j in range(m, 0, -1):
        sources = active & levels[j]
        matched = sources.bit_count() - crits[j] - matched
        if crits[j] and crits[j - 1]:
            # the transposed differential: one sparse row per active source
            rows = [{t: sign for t, sign in diff[s] if active >> t & 1}
                    for s, bit in enumerate(bin(sources)[:1:-1]) if bit == "1"]
            ranks[j] = exact_rank(rows, characteristic) - matched
    return {-j: crits[j] - ranks[j] - ranks[j + 1] for j in range(m + 1)}


def _pullback(complex_: KoszulComplex, ring: RingSpec, matrix) -> KoszulComplex:
    # the Koszul complex on the images A.w of the entries under the map with
    # exponent matrix A on ``ring``
    if ring != complex_.ring:
        raise ValueError("map acts on a different ring than the complex")
    images = [_matvec(matrix, w) for w in complex_.sequence]
    # x + J contains a power m^k, so phi(x) + J contains (phi(m) + J)^k, and
    # phi(x) lies in phi(m): phi(x) + J is m-primary iff phi is of finite
    # length.  No image is a unit, since the columns of a map are nonzero.
    try:
        return KoszulComplex(ring, images)
    except NotFiniteLengthError as exc:
        raise NotFiniteLengthError(
            "pullback requires an endomorphism of finite length"
        ) from exc


def pullback(complex_: KoszulComplex, phi: MonomialMap) -> KoszulComplex:
    """Inverse image of the complex along phi: the Koszul complex on the
    image monomials.  For a strictly perfect complex this plain base change
    already represents the derived pullback."""
    return _pullback(complex_, phi.ring, phi.matrix)


def homology_lengths(complex_: KoszulComplex) -> HomologyLengths:
    """Exact length of every cohomology module: of the kept entries either
    in closed form or as a cell sum of slices, convolved with the k
    dropped ones.

    On a regular ring with as many kept entries as variables the kept
    entries are pure powers X_1^(a_1), ..., X_d^(a_d), and their lengths
    are prod a_i in degree 0 and 0 below.  Proof: the sequence generates an
    m-primary ideal of k[X], so each variable X_i has a pure power among
    the entries.  The least one is divisible by no other entry, since a
    divisor would be a smaller power of X_i or a copy, and only the first
    copy is kept; so it is kept, and with d kept entries those are all of
    them.  Pure powers of distinct variables form a regular sequence, so
    their complex resolves k[X]/(X_i^(a_i)), of length prod a_i
    (Bruns-Herzog, Cohen-Macaulay Rings, 1.6.14).  No table is built then.

    Otherwise subset S of the kept entries is active at v iff X^(v -
    shift_S) is a standard monomial of the ring, so a slice is a function
    of the divisor mask of the cuts shift_S + g at v, and the kept lengths
    sum volume times slice dimensions over the cell volumes of the grid the
    cuts cut, each distinct mask weighed once.  The cut shift_S + 0 for the
    empty S is 0, and the generated ideal is m-primary and kills the
    cohomology, so every unbounded cell is acyclic: the bounded cells hold
    all of it.

    Each factor K(0) multiplies the series sum_j l(H^(-j)) s^j by 1 + s,
    so for k dropped entries l(H^(-j) K(x)) = sum_i C(k, i) l(H^(-j+i)
    K(x')).  The region is computed from the whole sequence and the
    quotient.
    """
    kept = complex_._kept
    d = complex_.ring.dim_ambient
    if complex_.ring.regular and len(kept) == d:
        sums = {0: prod(map(sum, kept))}
    else:
        sums = {}
        for mask, volume in _cell_volumes(complex_._cuts).items():
            for degree, dim in complex_._cut_dims(mask).items():
                sums[degree] = sums.get(degree, 0) + volume * dim
    series = [sums.get(-j, 0) for j in range(complex_.m + 1)]
    for _ in range(complex_.m - len(kept)):
        series = [a + b for a, b in zip(series, [0, *series])]
    lengths = {-j: length for j, length in enumerate(series)}
    tops = zip((0,) * d, *complex_.ring.quotient.generators)
    region = tuple(map(sum, zip(map(max, tops), *complex_.sequence)))
    return HomologyLengths(lengths, region)


def h0_length(complex_: KoszulComplex) -> int:
    """Length of the degree-0 cohomology: the colength of the generated
    ideal.  Agrees with ``homology_lengths`` at degree 0."""
    ideal = MonomialIdeal(complex_.sequence, complex_.ring.dim_ambient)
    return colength(ideal, complex_.ring)


def generator_profile(lengths: HomologyLengths) -> GeneratorProfile:
    """Peak cohomology length and cohomological width of a complex, read
    from its cohomology lengths."""
    peak = max(lengths.lengths.values(), default=0)
    if peak == 0:
        raise ValueError("zero complex has no generator profile")
    width = max(-k for k, v in lengths.lengths.items() if v > 0)
    return GeneratorProfile(peak=peak, width=width)


def pullback_homology(
    ring: RingSpec, sequence, phi: MonomialMap, n: int
) -> tuple[KoszulComplex, HomologyLengths, GeneratorProfile]:
    """The Koszul complex on the sequence pulled back along the n-th
    iterate of phi (the complex itself when n is 0), with its cohomology
    lengths and generator profile.  The sequence is validated once, and
    each entry is mapped by the one matrix power A^n; no map is built for
    the iterate."""
    complex_ = KoszulComplex(ring, sequence)
    if n:
        complex_ = _pullback(complex_, phi.ring, _matpow(phi.matrix, n))
    lengths = homology_lengths(complex_)
    return complex_, lengths, generator_profile(lengths)
