"""Shared test utilities: random input generators and independent oracles.

The oracles here deliberately avoid the package's internal tables and
elimination routines: subsets are enumerated from scratch, membership is
recomputed, and ranks come from a plain row-echelon pass over Fractions
(characteristic 0) or over residues mod p.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from fractions import Fraction

from entrolab.endos import _matpow
from entrolab.koszul import _differential, _kept, _subset_shifts
from entrolab.monomials import _pivot_count


def random_m_primary_ideal(rng, dim, max_exp=6, max_extra=3):
    """Pure powers of every variable plus a few extra monomials."""
    gens = []
    for i in range(dim):
        vec = [0] * dim
        vec[i] = rng.randint(1, max_exp)
        gens.append(tuple(vec))
    for _ in range(rng.randint(0, max_extra)):
        vec = tuple(rng.randint(0, max_exp) for _ in range(dim))
        if sum(vec) > 0:
            gens.append(vec)
    return gens


def random_monomial_sequence(rng, dim, length, max_exp=3):
    """A monomial sequence generating an ideal of finite colength: pure
    powers of every variable first, then random extras up to ``length``."""
    assert length >= dim
    seq = []
    for i in range(dim):
        vec = [0] * dim
        vec[i] = rng.randint(1, max_exp)
        seq.append(tuple(vec))
    while len(seq) < length:
        vec = tuple(rng.randint(0, max_exp) for _ in range(dim))
        if sum(vec) > 0:
            seq.append(vec)
    return seq


def divides(u, v) -> bool:
    """True iff X^u divides X^v: u <= v componentwise."""
    return all(a <= b for a, b in zip(u, v))


def pure_powers_pointwise(gens, dim):
    """For each variable i, the least i-th exponent among the generators
    that are 0 off axis i, scanning every generator once per variable; None
    when some variable has none."""
    bounds = []
    for i in range(dim):
        powers = [
            g[i] for g in gens if all(e == 0 for j, e in enumerate(g) if j != i)
        ]
        if not powers:
            return None
        bounds.append(min(powers))
    return tuple(bounds)


def standard_count_pointwise(gens, dim):
    """Number of monomials divisible by none of ``gens``: every point of
    the box cut out by the least pure powers is tested against every
    generator."""
    bounds = pure_powers_pointwise(gens, dim)
    assert bounds is not None, "some variable has no pure power"
    return sum(
        not any(divides(g, v) for g in gens)
        for v in itertools.product(*(range(b) for b in bounds))
    )


def cell_sum_pointwise(tables, weigh):
    """Sum of volume * weigh(mask) over the cells of the grid that a divisor
    table ``(full mask, [(sorted coordinates, prefix masks) per axis])``
    cuts, cell by cell: the breakpoints of an axis are 0 and its
    coordinates, and the mask of a cell is found by bisecting its lower
    corner on every axis.  None when an unbounded cell has nonzero weight
    (the sum is infinite)."""
    full, axes = tables
    breakpoints = [sorted({0, *coords}) for coords, _ in axes]
    totals = {}
    for corner in itertools.product(*breakpoints):
        mask = full
        for (coords, masks), x in zip(axes, corner):
            t = bisect_right(coords, x)
            mask &= masks[t - 1] if t else 0
        sides = [
            axis[axis.index(x) + 1] - x if x != axis[-1] else None
            for axis, x in zip(breakpoints, corner)
        ]
        weights = weigh(mask)
        if None in sides:
            if any(weights.values()):
                return None
            continue
        for key, w in weights.items():
            totals[key] = totals.get(key, 0) + math.prod(sides) * w
    return totals


def rank_over_fractions(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def rank_over_gfp(rows, p):
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def oracle_rank(rows, characteristic):
    if not rows or not rows[0]:
        return 0
    if characteristic:
        return rank_over_gfp(rows, characteristic)
    return rank_over_fractions(rows)


def boundary_terms(subset):
    """The Koszul boundary of a sorted subset: (the subset less its pos-th
    element, (-1)^pos) for each position pos."""
    return [
        (subset[:pos] + subset[pos + 1:], (-1) ** pos) for pos in range(len(subset))
    ]


def koszul_slice_oracle(characteristic, quotient_gens, sequence, v):
    """Cohomology dimensions of the multidegree-v slice, recomputed from
    first principles."""
    m = len(sequence)
    d = len(v)

    def standard(u):
        if any(x < 0 for x in u):
            return False
        return not any(
            all(g[i] <= u[i] for i in range(d)) for g in quotient_gens
        )

    def shift(subset):
        return tuple(sum(sequence[i][c] for i in subset) for c in range(d))

    active = []
    for j in range(m + 1):
        level = []
        for subset in itertools.combinations(range(m), j):
            u = tuple(a - b for a, b in zip(v, shift(subset)))
            if standard(u):
                level.append(subset)
        active.append(level)
    return subset_complex_dims(characteristic, active)


def subset_complex_dims(characteristic, levels):
    """Cohomology dimensions, keyed by cohomological degree, of the
    complex spanned by a family of subsets (a down-set less a down-set, so
    d^2 = 0), a face outside the family reading as zero: ``levels[j]``
    lists its sorted j-element subsets.  Every differential is ranked in
    full."""
    m = len(levels) - 1
    ranks = [0] * (m + 2)
    for j in range(1, m + 1):
        sources = levels[j]
        targets = {s: i for i, s in enumerate(levels[j - 1])}
        if not sources or not targets:
            continue
        mat = [[0] * len(sources) for _ in targets]
        for c, subset in enumerate(sources):
            for reduced, sign in boundary_terms(subset):
                r = targets.get(reduced)
                if r is not None:
                    mat[r][c] = sign
        ranks[j] = oracle_rank(mat, characteristic)
    return {
        -j: len(levels[j]) - ranks[j] - ranks[j + 1] for j in range(m + 1)
    }


def koszul_homology_oracle(characteristic, quotient_gens, sequence, box):
    """Total cohomology lengths summed over every multidegree in ``box``."""
    m = len(sequence)
    totals = {-j: 0 for j in range(m + 1)}
    for v in itertools.product(*(range(b) for b in box)):
        dims = koszul_slice_oracle(characteristic, quotient_gens, sequence, v)
        for k, val in dims.items():
            totals[k] += val
    return totals


def dd_product_terms(complex_):
    """Symbolic double-differential terms of the package's differential on
    a complex's kept entries: map from (source subset, target subset,
    exponent vector) to the accumulated coefficient, subsets as bitmasks.  The two dropped entries multiply to
    the shift of the subset source ^ target.  All values must be zero."""
    kept = _kept(complex_.ring.quotient.generators, complex_.sequence)
    shifts = _subset_shifts(kept, complex_.ring.dim_ambient)
    diff = _differential(len(kept))
    acc = {}
    for src, entries in enumerate(diff):
        for mid, s1 in entries:
            for tgt, s2 in diff[mid]:
                key = (src, tgt, shifts[src ^ tgt])
                acc[key] = acc.get(key, 0) + s1 * s2
    return acc


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` through every ``entrolab``
    module-level name that binds it, the way ``from .x import y`` copies
    it; returns the list of argument tuples, one per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("entrolab")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


def pivot_lengths(phi, ns):
    """length(R/phi^n(m)) for each n in ``ns`` by the pivot count on the
    columns of A^n and the quotient: no cell walk and no image-by-image
    iteration."""
    d = phi.ring.dim_ambient
    quotient = list(phi.ring.quotient.generators)
    lengths = []
    for n in ns:
        power = _matpow(phi.matrix, n)
        columns = [tuple(row[j] for row in power) for j in range(d)]
        lengths.append(_pivot_count(columns + quotient, d))
    return tuple(lengths)
