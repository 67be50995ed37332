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
0 and +-1.  Its cohomology comes from exact ranks, never floating point:
one sparse integer elimination, fed rows straight from the differential
table, serves every characteristic.  A slice depends only on how v
compares with the basis shifts and the shifted quotient generators, so
the cohomology lengths are summed over the cells that these breakpoints
cut, one slice per cell.  A slice's active basis is a divisor bitmask
over the subset bitmasks, and each complex ranks every distinct active
set once, so rank work grows with the distinct active sets, not with
the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, gcd

from .errors import NotFiniteLengthError
from .monomials import (
    MonomialIdeal,
    RingSpec,
    Vec,
    _cell_sum,
    _divisor_mask,
    _divisor_tables,
    colength,
    ideal_sum,
    is_m_primary,
)
from .endos import MonomialMap, apply_to_monomial, is_finite_length, iterate


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


@dataclass
class HomologyLengths:
    """Length of each cohomology module, keyed by cohomological degree.

    ``region`` is the last breakpoint on each axis: every multidegree
    outside the box of these sides has acyclic slices."""

    lengths: dict[int, int]
    region: tuple[int, ...]

    def length(self, degree: int) -> int:
        return self.lengths.get(degree, 0)


@dataclass(frozen=True)
class GeneratorProfile:
    """Shape constants of a generator: ``peak`` is the largest cohomology
    length, ``width`` the largest |degree| with nonzero cohomology."""

    peak: int
    width: int


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


class KoszulComplex:
    """Strictly perfect complex built from a monomial sequence; see
    ``build_koszul``."""

    def __init__(self, ring: RingSpec, sequence):
        seq = tuple(tuple(int(e) for e in w) for w in sequence)
        # building the ideal checks every entry's length and sign
        generated = ideal_sum(MonomialIdeal(seq, ring.dim_ambient), ring.quotient)
        if any(sum(w) == 0 for w in seq):
            raise NotFiniteLengthError(
                "sequence entries must lie in the maximal ideal"
            )
        if not is_m_primary(generated):
            raise NotFiniteLengthError(
                "sequence does not generate an ideal of finite colength"
            )
        self.ring = ring
        self.sequence = seq
        self.m = len(seq)
        self.diff = _differential(self.m)
        # shifts[s] is the exponent of the product of the entries in s
        self.shifts = [(0,) * ring.dim_ambient]
        for s in range(1, 1 << self.m):
            low = s & -s
            entry = seq[low.bit_length() - 1]
            self.shifts.append(tuple(map(sum, zip(self.shifts[s ^ low], entry))))
        # subset s is active at v iff v >= shifts[s] and no quotient
        # generator g has v >= shifts[s] + g
        self._present = _divisor_tables(self.shifts)
        self._killed = [
            _divisor_tables([tuple(map(sum, zip(s, g))) for s in self.shifts])
            for g in ring.quotient.generators
        ]
        self._slices: dict[int, dict[int, int]] = {}

    def module_rank(self, degree: int) -> int:
        """Rank of the free module in the given cohomological degree."""
        if -self.m <= degree <= 0:
            return comb(self.m, -degree)
        return 0

    def slice_dims(self, v: Vec) -> dict[int, int]:
        """Cohomology dimensions of the multidegree-v slice, keyed by
        cohomological degree, in a fresh dict; independent of any other
        slice.  The active basis is the divisor mask of the shifts less those
        of the shifted quotient generators, ranked once per mask and cached."""
        active = _divisor_mask(self._present, v)
        for killed in self._killed:
            active &= ~_divisor_mask(killed, v)
        dims = self._slices.get(active)
        if dims is None:
            dims = self._slices[active] = self._active_dims(active)
        return dict(dims)

    def _active_dims(self, active: int) -> dict[int, int]:
        m = self.m
        acts: list[list[int]] = [[] for _ in range(m + 1)]
        for s in range(1 << m):
            if active >> s & 1:
                acts[s.bit_count()].append(s)
        ranks = [0] * (m + 2)
        for j in range(1, m + 1):
            if not acts[j] or not acts[j - 1]:
                continue
            # the transposed differential: one sparse row per active source
            rows = [
                {t: sign for t, sign in self.diff[s] if active >> t & 1}
                for s in acts[j]
            ]
            ranks[j] = exact_rank(rows, self.ring.characteristic)
        return {-j: len(acts[j]) - ranks[j] - ranks[j + 1] for j in range(m + 1)}


def build_koszul(ring: RingSpec, sequence) -> KoszulComplex:
    """Build the Koszul complex on a sequence of monomials in the maximal
    ideal that generates, together with the quotient, an ideal of finite
    colength.  The differential is checked to square to zero."""
    return KoszulComplex(ring, sequence)


def pullback(complex_: KoszulComplex, phi: MonomialMap) -> KoszulComplex:
    """Inverse image of the complex along phi: the Koszul complex on the
    image monomials.  For a strictly perfect complex this plain base change
    already represents the derived pullback."""
    if phi.ring != complex_.ring:
        raise ValueError("map acts on a different ring than the complex")
    if not is_finite_length(phi):
        raise NotFiniteLengthError(
            "pullback requires an endomorphism of finite length"
        )
    images = tuple(apply_to_monomial(phi, w) for w in complex_.sequence)
    return KoszulComplex(complex_.ring, images)


def homology_lengths(complex_: KoszulComplex) -> HomologyLengths:
    """Exact length of every cohomology module, as a cell sum of slices.

    Basis subset S is active in multidegree v exactly when v >= shift_S
    and no quotient generator g has v >= shift_S + g, so the slice
    cohomology is constant on the cells cut by these coordinates.  The
    sequence and the quotient generate an ideal primary to the maximal
    ideal, which kills the cohomology; every unbounded cell is therefore
    acyclic, and a nonzero one is an internal fault (AssertionError).
    """
    d = complex_.ring.dim_ambient
    offsets = [(0,) * d, *complex_.ring.quotient.generators]
    cuts = [
        tuple(map(sum, zip(shift, g))) for shift in complex_.shifts for g in offsets
    ]
    breakpoints = [sorted({c[i] for c in cuts}) for i in range(d)]
    try:
        sums = _cell_sum(breakpoints, complex_.slice_dims)
    except NotFiniteLengthError as exc:
        raise AssertionError(
            f"cohomology of an m-primary Koszul complex is {exc}"
        ) from None
    lengths = {-j: sums.get(-j, 0) for j in range(complex_.m + 1)}
    return HomologyLengths(lengths, tuple(axis[-1] for axis in breakpoints))


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
    lengths and generator profile."""
    complex_ = build_koszul(ring, sequence)
    if n:
        complex_ = pullback(complex_, iterate(phi, n))
    lengths = homology_lengths(complex_)
    return complex_, lengths, generator_profile(lengths)
