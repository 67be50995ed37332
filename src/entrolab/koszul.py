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
``_koszul_lengths`` is the one count, a pass over plain values: it
validates the sequence, maps it by a matrix power, reduces it to x', and
sums the lengths of K(x') in closed form or cell by cell.  A slice is
Morse-matched first, by unit pivots on its bitmask; exact ranks (one
sparse integer elimination for every characteristic, never floating
point) run only where critical cells sit in adjacent degrees.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cache
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


def _validated(ring: RingSpec, sequence) -> tuple[Vec, ...]:
    # the sequence as vectors, checked to lie in the maximal ideal and to
    # generate, with the quotient, an ideal of finite colength
    d = ring.dim_ambient
    seq = tuple(_check_vec(w, d) for w in sequence)
    if any(sum(w) == 0 for w in seq):
        raise NotFiniteLengthError("sequence entries must lie in the maximal ideal")
    if _pure_powers(seq + ring.quotient.generators, d) is None:
        raise NotFiniteLengthError(
            "sequence does not generate an ideal of finite colength"
        )
    return seq


def _mapped(ring: RingSpec, seq, matrix) -> tuple[Vec, ...]:
    # the images A.w of the entries under the map with exponent matrix A.
    # x + J contains a power m^k, so phi(x) + J contains (phi(m) + J)^k, and
    # phi(x) lies in phi(m): phi(x) + J is m-primary iff phi is of finite
    # length.  No image is a unit, since the columns of a map are nonzero.
    images = tuple(_matvec(matrix, w) for w in seq)
    if _pure_powers(images + ring.quotient.generators, ring.dim_ambient) is None:
        raise NotFiniteLengthError(
            "pullback requires an endomorphism of finite length"
        )
    return images


def _kept(quotient, seq) -> tuple[Vec, ...]:
    # the first copy of each entry that no quotient generator and no other
    # entry divides; at the few entries a ranked complex can have, this
    # scan costs less than building a divisor table
    vectors = quotient + seq
    kept: list[Vec] = []
    for w in seq:
        if w in kept or w in quotient:
            continue
        if all(u == w for u in vectors if all(map(operator.le, u, w))):
            kept.append(w)
    return tuple(kept)


def _cut_table(ring: RingSpec, kept) -> tuple:
    # bit b 2^m' + s stands for the cut shift_s + g_b, where g_0 = 0 and
    # g_1, ... are the quotient generators: it divides X^v iff
    # shift_s <= v - g_b
    offsets = [(0,) * ring.dim_ambient, *ring.quotient.generators]
    shifts = _subset_shifts(kept, ring.dim_ambient)
    cuts = [tuple(map(operator.add, s, g)) for g in offsets for s in shifts]
    return _divisor_tables(cuts)


def _active(mask: int, m: int) -> int:
    # the active set of a cut mask: block 0 less the later blocks
    n, killed = 1 << m, 0
    for block in range(n, mask.bit_length(), n):
        killed |= mask >> block
    return mask & ~killed & (1 << n) - 1


class KoszulComplex:
    """The Koszul complex on monomials in the maximal ideal that generate,
    with the quotient, an ideal of finite colength; ``m`` is their number.
    Construction only validates them, and no count is kept."""

    def __init__(self, ring: RingSpec, sequence):
        self.ring = ring
        self.sequence = _validated(ring, sequence)
        self.m = len(self.sequence)

    def slice_dims(self, v: Vec) -> dict[int, int]:
        """Cohomology dimensions of the multidegree-v slice of the whole
        complex, keyed by cohomological degree, in a fresh dict; independent
        of any other slice.  The slice of K(x') (x) K(0)^k at v is the sum,
        over the subsets T of the dropped entries, of the kept slice at
        v - shift_T moved down |T| degrees, each read from the divisor mask
        of the cuts at v - shift_T.  The mask is 0 (not even shift_T divides
        X^v) exactly when v - shift_T has a negative coordinate, and that T
        is skipped."""
        ring, dims = self.ring, dict.fromkeys(range(-self.m, 1), 0)
        kept = _kept(ring.quotient.generators, self.sequence)
        cuts, m = _cut_table(ring, kept), len(kept)
        dropped = list(self.sequence)
        for w in kept:
            dropped.remove(w)
        for t, shift in enumerate(_subset_shifts(dropped, ring.dim_ambient)):
            mask = _divisor_mask(cuts, map(operator.sub, v, shift))
            if mask:
                slice_ = _active_dims(m, ring.characteristic, _active(mask, m))
                for degree, dim in slice_.items():
                    dims[degree - t.bit_count()] += dim
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


def pullback(complex_: KoszulComplex, phi: MonomialMap) -> KoszulComplex:
    """Inverse image of the complex along phi: the Koszul complex on the
    image monomials.  For a strictly perfect complex this plain base change
    already represents the derived pullback."""
    if phi.ring != complex_.ring:
        raise ValueError("map acts on a different ring than the complex")
    return KoszulComplex(phi.ring, _mapped(phi.ring, complex_.sequence, phi.matrix))


def homology_lengths(complex_: KoszulComplex) -> HomologyLengths:
    """Exact length of every cohomology module, by ``_koszul_lengths``."""
    return _koszul_lengths(complex_.ring, complex_.sequence)[1]


def _koszul_lengths(
    ring: RingSpec, sequence, phi: MonomialMap | None = None, n: int = 0
) -> tuple[tuple[Vec, ...], HomologyLengths]:
    """The sequence, validated and then, for n >= 1, mapped by the one
    matrix power A^n of phi and checked again, with the exact length of
    every cohomology module of its Koszul complex: of the kept entries
    either in closed form or as a cell sum of slices, convolved with the k
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
    of the divisor mask of the cuts shift_S + g at v.  The cell volumes of
    the grid the cuts cut are summed per active set, and each distinct
    active set is weighed by its slice dimensions once; the sums live for
    this call only.  The cut shift_S + 0 for the empty S is 0, and the
    generated ideal is m-primary and kills the cohomology, so every
    unbounded cell is acyclic: the bounded cells hold all of it.

    Each factor K(0) multiplies the series sum_j l(H^(-j)) s^j by 1 + s,
    so for k dropped entries l(H^(-j) K(x)) = sum_i C(k, i) l(H^(-j+i)
    K(x')).  The region is computed from the whole sequence and the
    quotient.
    """
    seq = _validated(ring, sequence)
    if n:
        if phi.ring != ring:
            raise ValueError("map acts on a different ring than the complex")
        seq = _mapped(ring, seq, _matpow(phi.matrix, n))
    quotient, d = ring.quotient.generators, ring.dim_ambient
    kept = _kept(quotient, seq)
    m = len(kept)
    if ring.regular and m == d:
        sums = {0: prod(map(sum, kept))}
    else:
        volumes: dict[int, int] = {}
        for mask, volume in _cell_volumes(_cut_table(ring, kept)).items():
            active = _active(mask, m)
            volumes[active] = volumes.get(active, 0) + volume
        sums = {}
        for active, volume in volumes.items():
            for degree, dim in _active_dims(m, ring.characteristic, active).items():
                sums[degree] = sums.get(degree, 0) + volume * dim
    series = [sums.get(-j, 0) for j in range(len(seq) + 1)]
    for _ in range(len(seq) - m):
        series = [a + b for a, b in zip(series, [0, *series])]
    lengths = {-j: length for j, length in enumerate(series)}
    tops = zip((0,) * d, *quotient)
    region = tuple(map(sum, zip(map(max, tops), *seq)))
    return seq, HomologyLengths(lengths, region)


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
) -> tuple[tuple[Vec, ...], HomologyLengths, GeneratorProfile]:
    """The sequence pulled back along phi^n (itself when n is 0), with the
    cohomology lengths and generator profile of its Koszul complex, in one
    ``_koszul_lengths`` pass: no map and no complex is built for it."""
    seq, lengths = _koszul_lengths(ring, sequence, phi, n)
    return seq, lengths, generator_profile(lengths)
