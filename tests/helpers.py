"""Shared test utilities: random input generators and independent oracles.

The oracles here deliberately avoid the package's internal tables and
elimination routines: subsets are enumerated from scratch, membership is
recomputed, and ranks come from a plain row-echelon pass over Fractions
(characteristic 0) or over residues mod p.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


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


def standard_count_pointwise(gens, dim):
    """Number of monomials divisible by none of ``gens``: every point of
    the box cut out by the least pure powers is tested against every
    generator."""
    bounds = []
    for i in range(dim):
        powers = [
            g[i] for g in gens if all(e == 0 for j, e in enumerate(g) if j != i)
        ]
        assert powers, f"variable {i} has no pure power"
        bounds.append(min(powers))
    return sum(
        not any(divides(g, v) for g in gens)
        for v in itertools.product(*(range(b) for b in bounds))
    )


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

    ranks = [0] * (m + 2)
    for j in range(1, m + 1):
        sources = active[j]
        targets = {s: i for i, s in enumerate(active[j - 1])}
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
        -j: len(active[j]) - ranks[j] - ranks[j + 1] for j in range(m + 1)
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
    """Symbolic double-differential terms of a complex: map from
    (source subset, target subset, exponent vector) to the accumulated
    coefficient, subsets as bitmasks.  The two dropped entries multiply to
    the shift of the subset source ^ target.  All values must be zero."""
    acc = {}
    for src, entries in enumerate(complex_.diff):
        for mid, s1 in entries:
            for tgt, s2 in complex_.diff[mid]:
                key = (src, tgt, complex_.shifts[src ^ tgt])
                acc[key] = acc.get(key, 0) + s1 * s2
    return acc
