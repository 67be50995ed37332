"""Koszul complex construction, pullback, and exact cohomology lengths."""

import itertools
import math
import random
from pathlib import Path

import pytest

import entrolab.endos as endos
import entrolab.koszul as koszul
import entrolab.monomials as monomials
from entrolab import (
    DimensionMismatchError,
    KoszulComplex,
    MonomialMap,
    NotFiniteLengthError,
    RingSpec,
    colength,
    exact_rank,
    generator_profile,
    h0_length,
    homology_lengths,
    iterate,
    minimalize,
    pullback,
)
from entrolab.cli import main
from entrolab.koszul import pullback_homology
from entrolab.specfile import parse_spec

from helpers import (
    boundary_terms,
    cell_sum_pointwise,
    count_calls,
    dd_product_terms,
    koszul_homology_oracle,
    koszul_slice_oracle,
    oracle_rank,
    random_monomial_sequence,
    subset_complex_dims,
)

R2 = RingSpec.polynomial(0, 2)
CROSS = RingSpec(0, 2, minimalize({(1, 1)}))  # k[X,Y]/(XY)


def test_exact_rank_depends_on_characteristic():
    # rows are sparse, {column: entry}; the dense matrix [[1, 1], [1, -1]]
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert exact_rank(rows, 0) == 2
    assert exact_rank(rows, 3) == 2
    assert exact_rank(rows, 2) == 1
    assert exact_rank([{0: 0, 1: 0}, {}], 0) == 0
    assert exact_rank([], 5) == 0


def test_exact_rank_matches_dense_oracles_random():
    rng = random.Random(6060)
    for trial in range(400):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        rows = []
        for _ in range(nrows):
            pick = rng.random()
            if pick < 0.1 or not ncols:
                rows.append({})
            elif pick < 0.2 and rows:
                rows.append(dict(rng.choice(rows)))
            else:
                cols = rng.sample(range(ncols), rng.randint(1, ncols))
                rows.append({c: rng.randint(-3, 5) for c in cols})
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        snapshot = [dict(row) for row in rows]
        for char in (0, 2, 3, 5, 7):
            expected = oracle_rank(dense, char)
            assert exact_rank(rows, char) == expected, (trial, rows, char)
            assert rows == snapshot


def test_build_requires_finite_colength():
    with pytest.raises(NotFiniteLengthError):
        KoszulComplex(R2, [(1, 0)])
    with pytest.raises(NotFiniteLengthError):
        KoszulComplex(R2, [(1, 0), (0, 0)])
    with pytest.raises(DimensionMismatchError):
        KoszulComplex(R2, [(1, 0), (0, 1, 0)])
    # (X, Y) + (XY) generates the maximal ideal, so this is accepted
    KoszulComplex(CROSS, [(1, 0), (0, 1)])


def _random_ring(rng, dim):
    char = rng.choice((0, 2, 3))
    if rng.random() < 0.5:
        return RingSpec.polynomial(char, dim)
    jgen = tuple(rng.randint(0, 1) for _ in range(dim))
    if sum(jgen) == 0:
        jgen = (1,) * dim
    return RingSpec(char, dim, minimalize([jgen], dim))


def test_dd_zero_random():
    rng = random.Random(77)
    for _ in range(40):
        dim = rng.randint(1, 3)
        ring = _random_ring(rng, dim)
        length = rng.randint(dim, 4)
        seq = random_monomial_sequence(rng, dim, length)
        complex_ = KoszulComplex(ring, seq)
        assert not any(dd_product_terms(complex_).values())


def test_regular_sequence_concentration():
    rng = random.Random(101)
    for _ in range(25):
        dim = rng.randint(1, 3)
        ring = RingSpec.polynomial(rng.choice((0, 2, 5)), dim)
        perm = list(range(dim))
        rng.shuffle(perm)
        seq = []
        for i in range(dim):
            vec = [0] * dim
            vec[perm[i]] = rng.randint(1, 4)
            seq.append(tuple(vec))
        complex_ = KoszulComplex(ring, seq)
        lengths = homology_lengths(complex_)
        expected = colength(minimalize(seq, dim), ring)
        assert lengths.length(0) == expected
        assert all(lengths.length(-j) == 0 for j in range(1, dim + 1))
        profile = generator_profile(lengths)
        assert profile.width == 0 and profile.peak == expected


def test_cross_ring_homology():
    complex_ = KoszulComplex(CROSS, [(1, 0), (0, 1)])
    lengths = homology_lengths(complex_)
    assert lengths.lengths == {0: 1, -1: 1, -2: 0}
    profile = generator_profile(lengths)
    assert (profile.peak, profile.width) == (1, 1)
    assert h0_length(complex_) == 1


def test_cross_ring_pullback_by_frobenius_square():
    field_ring = RingSpec(2, 2, minimalize({(1, 1)}))
    base = KoszulComplex(field_ring, [(1, 0), (0, 1)])
    frob = MonomialMap.frobenius(field_ring)
    pulled = pullback(base, iterate(frob, 2))
    assert pulled.sequence == ((4, 0), (0, 4))
    lengths = homology_lengths(pulled)
    assert lengths.lengths == {0: 7, -1: 7, -2: 0}
    assert h0_length(pulled) == 7


def test_pullback_requires_finite_length(monkeypatch):
    base = KoszulComplex(R2, [(1, 0), (0, 1)])
    collapse = MonomialMap.from_columns([(1, 1), (1, 1)], R2)
    # the pulled-back complex's own validation is the finiteness test
    checks = count_calls(monkeypatch, endos, "is_finite_length")
    message = "^pullback requires an endomorphism of finite length$"
    with pytest.raises(NotFiniteLengthError, match=message):
        pullback(base, collapse)
    with pytest.raises(NotFiniteLengthError, match=message):
        pullback_homology(R2, base.sequence, collapse, 2)
    assert checks == []


def test_pullback_functorial():
    rng = random.Random(55)
    base = KoszulComplex(R2, [(2, 0), (1, 1), (0, 3)])
    for _ in range(10):
        exps_a = tuple(rng.randint(1, 3) for _ in range(2))
        exps_b = tuple(rng.randint(1, 3) for _ in range(2))
        phi = MonomialMap.diagonal(exps_a, R2)
        psi = MonomialMap.diagonal(exps_b, R2)
        once = pullback(base, MonomialMap(endos._matmul(phi.matrix, psi.matrix), R2))
        twice = pullback(pullback(base, psi), phi)
        assert once.sequence == twice.sequence
        assert once.ring == twice.ring


def test_h0_matches_homology_degree_zero():
    rng = random.Random(202)
    for _ in range(15):
        dim = rng.randint(1, 2)
        char = rng.choice((0, 2, 3))
        if rng.random() < 0.5 and dim == 2:
            ring = RingSpec(char, 2, minimalize({(1, 1)}))
        else:
            ring = RingSpec.polynomial(char, dim)
        seq = random_monomial_sequence(rng, dim, rng.randint(dim, 3))
        complex_ = KoszulComplex(ring, seq)
        lengths = homology_lengths(complex_)
        assert lengths.length(0) == h0_length(complex_)


def test_homology_matches_bruteforce_oracle():
    cases = [
        (RingSpec(2, 2, minimalize({(1, 1)})), [(1, 0), (0, 1)]),
        (RingSpec(3, 2, minimalize({(2, 1)})), [(1, 0), (0, 2)]),
        (RingSpec.polynomial(0, 2), [(2, 0), (1, 1), (0, 2)]),
        (CROSS, [(2, 0), (0, 3)]),
    ]
    for ring, seq in cases:
        complex_ = KoszulComplex(ring, seq)
        lengths = homology_lengths(complex_)
        box = tuple(2 * s for s in lengths.region)
        oracle = koszul_homology_oracle(
            ring.characteristic, ring.quotient.generators, complex_.sequence, box
        )
        assert lengths.lengths == oracle


def test_cell_sum_matches_oracle_on_twice_the_region_random():
    rng = random.Random(4242)
    for _ in range(60):
        dim = rng.randint(1, 3)
        char = rng.choice((0, 2, 3, 5))
        ring = RingSpec.polynomial(char, dim)
        if rng.random() < 0.5:
            jgens = [
                tuple(rng.randint(0, 2) for _ in range(dim))
                for _ in range(rng.randint(1, 2))
            ]
            jgens = [g for g in jgens if sum(g)] or [(1,) * dim]
            ring = RingSpec(char, dim, minimalize(jgens, dim))
        seq = random_monomial_sequence(
            rng, dim, rng.randint(dim, dim + 2), max_exp=2
        )
        complex_ = KoszulComplex(ring, seq)
        lengths = homology_lengths(complex_)
        box = tuple(2 * s for s in lengths.region)
        oracle = koszul_homology_oracle(
            char, ring.quotient.generators, complex_.sequence, box
        )
        assert lengths.lengths == oracle


def test_unbounded_cells_of_m_primary_complexes_are_acyclic():
    # homology_lengths sums the bounded cells only; summing every cell, the
    # unbounded ones included, and convolving with the k dropped entries
    # must give the same finite lengths
    rng = random.Random(4343)
    for d, char, quotiented, _ in itertools.product(
        (1, 2, 3), (0, 2, 3), (False, True), range(4)
    ):
        powers = [
            tuple(rng.randint(1, 3) if j == i else 0 for j in range(d))
            for i in range(d)
        ]
        quotient = []
        if quotiented:
            # some pure powers, and a mixed generator, only in the quotient
            quotient = [p for p in powers if rng.random() < 0.4]
            mixed = tuple(rng.randint(0, 2) for _ in range(d))
            quotient += [mixed] if sum(mixed) else []
        seq = [p for p in powers if p not in quotient]
        m = rng.randint(max(1, len(seq)), 4)
        while len(seq) < m:
            g = tuple(rng.randint(0, 2) for _ in range(d))
            if sum(g):
                seq.append(g)
        ring = RingSpec(char, d, minimalize(quotient, d))
        complex_ = KoszulComplex(ring, seq)
        lengths = homology_lengths(complex_).lengths
        kept = koszul._kept(ring.quotient.generators, complex_.sequence)
        total = cell_sum_pointwise(
            koszul._cut_table(ring, kept),
            lambda mask: koszul._active_dims(
                len(kept), char, koszul._active(mask, len(kept))
            ),
        )
        assert total is not None, (ring, seq)
        k = len(seq) - len(kept)
        convolved = {
            -j: sum(math.comb(k, i) * total.get(i - j, 0) for i in range(k + 1))
            for j in range(len(seq) + 1)
        }
        assert convolved == lengths, (ring, seq)


def _benchmark_shaped_case(rng, d, char, q):
    """A ring, sequence and map shaped like the koszul-pullback jobs: q
    quotient generators in at least two variables, pure powers and small
    extras in the sequence, and Frobenius, a diagonal map or (on a regular
    ring) a permuted diagonal map."""
    while True:
        gens = []
        for _ in range(q):
            v = [0] * d
            for i in rng.sample(range(d), rng.randint(2, d)):
                v[i] = rng.randint(1, 3)
            gens.append(tuple(v))
        ring = RingSpec(char, d, minimalize(gens, d))
        if len(ring.quotient.generators) == q:
            break
    pure, extra = (3, 2) if d == 2 else (2, 1)
    seq = [tuple(rng.randint(1, pure) if j == i else 0 for j in range(d))
           for i in range(d)]
    while len(seq) < d + rng.randint(0, 2 if d == 2 else 1):
        v = tuple(rng.randint(0, extra) for _ in range(d))
        if sum(v) and v not in seq:
            seq.append(v)
    rng.shuffle(seq)
    if char and rng.random() < 0.4:
        exps, perm = [char] * d, list(range(d))
    else:
        exps = [rng.randint(1, 3) for _ in range(d)]
        if all(e == 1 for e in exps):
            exps[rng.randrange(d)] = 2
        perm = list(range(d))
        if not q and rng.random() < 0.3:
            while perm == sorted(perm):
                rng.shuffle(perm)
    columns = [tuple(exps[j] if i == perm[j] else 0 for i in range(d))
               for j in range(d)]
    return ring, seq, MonomialMap.from_columns(columns, ring)


def _apply_power(columns, w, n):
    # the n-th image of X^w, recomputed from the columns
    for _ in range(n):
        w = tuple(sum(w[j] * col[i] for j, col in enumerate(columns))
                  for i in range(len(w)))
    return w


def test_every_degree_matches_oracle_on_benchmark_shaped_pullbacks():
    # every degree of pullback_homology, not only H^0 and the alternating
    # sum, over twice the region; cases too large for the oracle are drawn
    # again
    rng = random.Random(1717)
    cases = list(itertools.product((2, 3), (0, 2, 3, 5), range(4)))
    for k, (d, char, q) in enumerate(cases):
        n = k % 3
        while True:
            ring, seq, phi = _benchmark_shaped_case(rng, d, char, q)
            images, lengths, _ = pullback_homology(ring, seq, phi, n)
            box = tuple(2 * side for side in lengths.region)
            if math.prod(box) << len(seq) <= 12000:
                break
        pulled = [_apply_power(phi.columns, w, n) for w in seq]
        assert list(images) == pulled
        oracle = koszul_homology_oracle(char, ring.quotient.generators, pulled, box)
        assert lengths.lengths == oracle, (ring, seq, phi.columns, n)


def test_flatness_identity_on_regular_rings_random():
    # a monomial matrix phi(X_j) = X_pi(j)^e_j is flat on k[X], so pulling
    # back along phi^n multiplies every cohomology length by |det A|^n; the
    # base lengths come from the oracle, the pulled-back ones from the engine
    rng = random.Random(6061)
    permuted = higher = 0
    for k, (d, char, n) in enumerate(
        itertools.product((1, 2, 3), (0, 2, 3), (1, 2, 1, 2))
    ):
        ring = RingSpec.polynomial(char, d)
        seq = random_monomial_sequence(rng, d, d + k % 2 + (d < 3), 2)
        perm = rng.sample(range(d), d)
        exps = [rng.randint(1, 3) for _ in range(d)]
        columns = [tuple(exps[j] if i == perm[j] else 0 for i in range(d))
                   for j in range(d)]
        phi = MonomialMap.from_columns(columns, ring)
        # every multidegree past the entries' coordinate sum on some axis
        # lies in an unbounded, hence acyclic, cell
        box = tuple(map(sum, zip(*seq)))
        base = koszul_homology_oracle(char, (), seq, box)
        _, lengths, _ = pullback_homology(ring, seq, phi, n)
        det = math.prod(exps)
        assert lengths.lengths == {
            degree: det**n * length for degree, length in base.items()
        }, (ring, seq, columns, n)
        permuted += perm != sorted(perm)
        higher += any(length for degree, length in base.items() if degree)
    assert permuted >= 12 and higher >= 24


def test_regular_systems_of_parameters_match_oracle_random(monkeypatch):
    # a pure power of each variable plus copies and multiples of entries,
    # pulled back along a random monomial matrix, some permuting the
    # variables: the kept entries are d pure powers, counted in closed form
    # with no cell walk and no table, and every degree must match the
    # oracle; cases too large for the oracle are drawn again
    rng = random.Random(2121)
    cell_walks = count_calls(monkeypatch, monomials, "_cell_volumes")
    tables = count_calls(monkeypatch, monomials, "_divisor_tables")
    permuted = 0
    for d, char, n in itertools.product((2, 3, 4), (0, 2, 3), (0, 1, 2)):
        ring = RingSpec.polynomial(char, d)
        while True:
            seq = [tuple(rng.randint(1, 2) if j == i else 0 for j in range(d))
                   for i in range(d)]
            for _ in range(rng.randint(1, 3)):
                seq.append(tuple(a + rng.randint(0, 1) for a in rng.choice(seq)))
            rng.shuffle(seq)
            perm = rng.sample(range(d), d)
            exps = [rng.randint(1, 2) for _ in range(d)]
            columns = [tuple(exps[j] if i == perm[j] else 0 for i in range(d))
                       for j in range(d)]
            phi = MonomialMap.from_columns(columns, ring)
            cell_walks.clear()
            tables.clear()
            images, lengths, _ = pullback_homology(ring, seq, phi, n)
            if math.prod(lengths.region) << len(seq) <= 40000:
                break
        assert (cell_walks, tables) == ([], []), (seq, columns, n)
        assert len(koszul._kept((), images)) == d
        oracle = koszul_homology_oracle(char, (), images, lengths.region)
        assert lengths.lengths == oracle, (d, char, seq, columns, n)
        permuted += n > 0 and perm != sorted(perm)
    assert permuted >= 8, permuted


def test_only_a_system_of_parameters_skips_the_cell_sum(monkeypatch):
    # on k[X,Y], (X^2, Y^3, X^2 Y) keeps 2 entries, one per variable, and is
    # counted in closed form; (X^2, XY, Y^2) keeps 3, which outnumber the
    # variables, so the cell walk runs once over one table
    cell_walks = count_calls(monkeypatch, monomials, "_cell_volumes")
    tables = count_calls(monkeypatch, monomials, "_divisor_tables")
    lengths = homology_lengths(KoszulComplex(R2, [(2, 0), (0, 3), (2, 1)]))
    assert lengths.lengths == {0: 6, -1: 6, -2: 0, -3: 0}
    assert (len(cell_walks), len(tables)) == (0, 0)
    lengths = homology_lengths(KoszulComplex(R2, [(2, 0), (1, 1), (0, 2)]))
    assert lengths.lengths == {0: 3, -1: 3, -2: 0, -3: 0}
    assert (len(cell_walks), len(tables)) == (1, 1)


def test_long_sequences_match_oracle():
    # m = 7..9 in 2 and 3 variables, char 0 and primes, with and without a
    # quotient
    rng = random.Random(7979)
    cases = [
        (2, 0, False, 7),
        (2, 0, True, 8),
        (2, 3, False, 9),
        (2, 3, True, 8),
        (3, 0, False, 7),
        (3, 0, True, 7),
        (3, 2, False, 8),
        (3, 5, True, 9),
    ]
    for dim, char, quotient, m in cases:
        ring = RingSpec.polynomial(char, dim)
        if quotient:
            ring = RingSpec(char, dim, minimalize([(1,) * dim]))
        seq = random_monomial_sequence(rng, dim, m, max_exp=1)
        complex_ = KoszulComplex(ring, seq)
        lengths = homology_lengths(complex_)
        oracle = koszul_homology_oracle(
            char, ring.quotient.generators, complex_.sequence, lengths.region
        )
        assert lengths.lengths == oracle, (dim, char, quotient, seq)


def _redundant_case(rng, kind):
    """A ring and a sequence of finite colength carrying redundant entries
    of the given kind: copies of an entry ("equal"), multiples of an entry
    ("divisible"), multiples of a quotient generator ("in J"), or only
    multiples of quotient generators that hold a pure power of every
    variable ("all in J")."""
    d = rng.choice((1, 2, 2, 3, 3))

    def times(u):
        return tuple(a + rng.randint(0, 1) for a in u)

    def nonzero():
        while True:
            g = tuple(rng.randint(0, 2) for _ in range(d))
            if sum(g):
                return g

    if kind == "all in J":
        gens = [tuple(rng.randint(1, 2) if j == i else 0 for j in range(d))
                for i in range(d)]
        gens += [nonzero() for _ in range(rng.randint(0, 3 - d))]
    else:
        gens = [nonzero() for _ in range(rng.randint(kind == "in J", 3))]
    ring = RingSpec(rng.choice((0, 2, 3)), d, minimalize(gens, d))
    quotient = ring.quotient.generators
    if kind == "all in J":
        seq = [times(rng.choice(quotient)) for _ in range(rng.randint(1, 3))]
    else:
        seq = random_monomial_sequence(rng, d, rng.randint(d, d + 1), max_exp=2)
        for _ in range(rng.randint(1, 2)):
            source = {"equal": seq, "divisible": seq, "in J": quotient}[kind]
            w = rng.choice(source)
            seq.append(w if kind == "equal" else times(w))
    rng.shuffle(seq)
    return ring, seq


def test_redundant_entries_match_oracles_random():
    # every degree against the slice oracle on the whole sequence, slices
    # pointwise (some multidegrees below a dropped entry's shift), and the
    # region from the sequence and the quotient; cases too large for the
    # oracle are drawn again
    rng = random.Random(1723)
    kinds = ["equal", "divisible", "in J", "all in J"] * 75
    for kind in kinds:
        while True:
            ring, seq = _redundant_case(rng, kind)
            complex_ = KoszulComplex(ring, seq)
            lengths = homology_lengths(complex_)
            box = tuple(side + 1 for side in lengths.region)
            if math.prod(box) << len(seq) <= 4000:
                break
        quotient = ring.quotient.generators
        tops = [max([0] + [g[i] for g in quotient]) for i in range(ring.dim_ambient)]
        assert lengths.region == tuple(
            sum(w[i] for w in seq) + tops[i] for i in range(ring.dim_ambient)
        ), (ring, seq)
        char = ring.characteristic
        oracle = koszul_homology_oracle(char, quotient, seq, box)
        assert lengths.lengths == oracle, (kind, ring, seq)
        assert koszul._kept(quotient, complex_.sequence) == () or kind != "all in J"
        for _ in range(4):
            v = tuple(rng.randint(0, side) for side in box)
            assert complex_.slice_dims(v) == koszul_slice_oracle(
                char, quotient, seq, v
            ), (kind, ring, seq, v)


def test_redundant_entries_leave_the_tables_when_ranked(monkeypatch):
    # this m = 10 sequence reduces to (X, Y^2), and constructing it builds
    # no table at all.  Over k[X,Y] the kept entries are a system of
    # parameters, counted in closed form, so ranking builds no table either;
    # over k[X,Y]/(X^2 Y^2) ranking builds one, the cut table over the 4
    # subsets of the 2 kept entries, each shifted by 0 and by X^2 Y^2
    seq = [(1, 0), (0, 3), (0, 2), (0, 3), (3, 3), (3, 1), (0, 3), (0, 3),
           (3, 0), (3, 2)]
    regular = RingSpec.polynomial(0, 2)
    quotient = RingSpec(0, 2, minimalize([(2, 2)], 2))
    tables = count_calls(monkeypatch, monomials, "_divisor_tables")
    complex_ = KoszulComplex(regular, seq)
    lengths = homology_lengths(complex_)
    assert koszul._kept((), complex_.sequence) == ((1, 0), (0, 2))
    assert tables == []
    assert lengths.lengths == {-j: 2 * math.comb(8, j) for j in range(11)}
    assert lengths.region == (13, 20)
    complex_ = KoszulComplex(quotient, seq)
    assert tables == []
    lengths = homology_lengths(complex_)
    assert koszul._kept(((2, 2),), complex_.sequence) == ((1, 0), (0, 2))
    cuts = [(0, 0), (1, 0), (0, 2), (1, 2), (2, 2), (3, 2), (2, 4), (3, 4)]
    assert tables == [(cuts,)]
    assert lengths.lengths[0] == 2 and lengths.region == (15, 22)


# the 6-vertex real projective plane, and five orders of its vertices such
# that every vertex outside a triangle lies above the whole triangle in one
RP2_TRIANGLES = [
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
]
RP2_ORDERS = [
    (2, 1, 4, 5, 3, 0),
    (4, 3, 0, 5, 2, 1),
    (1, 0, 3, 2, 5, 4),
    (4, 0, 5, 1, 2, 3),
    (3, 2, 0, 4, 1, 5),
]


def test_torsion_slice_depends_on_characteristic(monkeypatch):
    # entry i weighs 2^(rank of i) in each order, so at v = the sum of all
    # entries every subset is present and the sets killed by the quotient
    # generators v - (sum over a triangle) are exactly the faces of RP^2;
    # the pure powers beyond v make the ideal m-primary and kill nothing at
    # v.  The slice is the reduced homology of RP^2 shifted by one: zero
    # over Q and F_3, one dimension in degrees -3 and -4 over F_2
    seq = [tuple(2 ** order.index(i) for order in RP2_ORDERS) for i in range(6)]
    v = tuple(map(sum, zip(*seq)))
    killers = [
        tuple(map(sum, zip(*(w for i, w in enumerate(seq) if i not in tri))))
        for tri in RP2_TRIANGLES
    ]
    powers = [
        tuple(v[c] + 1 if k == c else 0 for k in range(5)) for c in range(5)
    ]
    expected = {char: {-j: 0 for j in range(7)} for char in (0, 2, 3)}
    expected[2].update({-3: 1, -4: 1})
    ranks = count_calls(monkeypatch, koszul, "exact_rank")
    slices = count_calls(monkeypatch, koszul, "_active_dims")
    for char, dims in expected.items():
        ring = RingSpec(char, 5, minimalize(killers + powers))
        complex_ = KoszulComplex(ring, seq)
        ranks.clear()
        slices.clear()
        assert complex_.slice_dims(v) == dims
        assert dims == koszul_slice_oracle(char, ring.quotient.generators, seq, v)
        # the matching leaves one critical cell in each of degrees -3 and -4,
        # so d_4 is ranked; over Q and F_3 the Morse rank is 1 and there are
        # more critical cells than the total length
        ((_, _, active),) = slices
        criticals = _critical_count(active, 6)
        assert criticals == 2 and len(ranks) == 1
        assert criticals > sum(dims.values()) or char == 2


def _critical_count(active, m):
    # cells left unmatched when, for v = 0..m-1 in turn, each remaining S
    # without v is paired with S + {v} if that remains too
    cells = {s for s in range(1 << m) if active >> s & 1}
    for v in range(m):
        for s in sorted(cells):
            if not s >> v & 1 and s | 1 << v in cells:
                cells -= {s, s | 1 << v}
    return len(cells)


def _down_sets(m):
    # every family of subsets of {0..m-1} closed under taking subsets, as
    # frozensets of sorted tuples; each subset comes after its faces
    families = [frozenset()]
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            families += [
                family | {subset}
                for family in families
                if all(face in family for face, _ in boundary_terms(subset))
            ]
    return families


def test_morse_count_matches_full_ranks_on_relative_complexes():
    # every slice is a down-set K less a down-set L inside it; for m <= 4
    # check every such pair against ranks of the full differentials
    counts = []
    for m in range(5):
        downs = _down_sets(m)
        counts.append(len(downs))
        families = {k - low for k in downs for low in downs if low <= k}
        for char in (0, 2, 3):
            # a slice is a function of m, the characteristic and its mask
            for family in families:
                active = sum(1 << sum(1 << i for i in s) for s in family)
                levels = [sorted(s for s in family if len(s) == j)
                          for j in range(m + 1)]
                assert koszul._active_dims(m, char, active) == subset_complex_dims(
                    char, levels
                ), (m, char, sorted(family))
    assert counts == [2, 3, 6, 20, 168]  # the Dedekind numbers


def test_frobenius_cross_pullback_closed_form():
    # F_3[X,Y]/(XY): H^0 = H^-1 = k[X,Y]/(XY, X^q, Y^q) of length 2q - 1
    ring = RingSpec(3, 2, minimalize({(1, 1)}))
    base = KoszulComplex(ring, [(1, 0), (0, 1)])
    frob = MonomialMap.frobenius(ring)
    for n in range(1, 13):
        lengths = homology_lengths(pullback(base, iterate(frob, n)))
        q = 3**n
        assert lengths.lengths == {0: 2 * q - 1, -1: 2 * q - 1, -2: 0}
        assert lengths.region == (q + 1, q + 1)


def test_slice_dims_independent_of_order():
    complex_ = KoszulComplex(CROSS, [(1, 0), (0, 1)])
    lengths = homology_lengths(complex_)
    cells = [
        (a, b) for a in range(lengths.region[0]) for b in range(lengths.region[1])
    ]
    rng = random.Random(8)
    totals = {k: 0 for k in lengths.lengths}
    rng.shuffle(cells)
    for v in cells:
        for k, val in complex_.slice_dims(v).items():
            totals[k] += val
    assert totals == lengths.lengths


def test_slice_dims_match_oracle_pointwise():
    rng = random.Random(303)
    ring = RingSpec(5, 2, minimalize({(1, 2)}))
    complex_ = KoszulComplex(ring, [(1, 0), (0, 1), (1, 1)])
    for _ in range(60):
        v = (rng.randint(0, 6), rng.randint(0, 6))
        assert complex_.slice_dims(v) == koszul_slice_oracle(
            5, ring.quotient.generators, complex_.sequence, v
        )


def test_slice_dims_match_oracle_random_with_repeats():
    rng = random.Random(9090)
    for _ in range(40):
        dim = rng.randint(1, 3)
        char = rng.choice((0, 2, 3, 5))
        jgens = [
            tuple(rng.randint(0, 2) for _ in range(dim))
            for _ in range(rng.randint(0, 3))
        ]
        ring = RingSpec(char, dim, minimalize([g for g in jgens if sum(g)], dim))
        seq = random_monomial_sequence(
            rng, dim, rng.randint(dim, dim + 4), max_exp=2
        )
        complex_ = KoszulComplex(ring, seq)
        fresh = KoszulComplex(ring, seq)  # ranked through slice_dims alone
        region = homology_lengths(complex_).region
        points = [
            tuple(rng.randint(0, 2 * side + 1) for side in region)
            for _ in range(25)
        ]
        for v in points + rng.sample(points, 10):
            expected = koszul_slice_oracle(
                char, ring.quotient.generators, complex_.sequence, v
            )
            dims = complex_.slice_dims(v)
            assert dims == expected
            assert fresh.slice_dims(v) == expected
            dims[0] += 1  # the caller owns the returned dict
            assert complex_.slice_dims(v) == expected


def _count_tables(monkeypatch):
    # koszul's own binding only: ideal construction builds tables too
    calls, original = [], koszul._divisor_tables

    def counted(vectors):
        calls.append(vectors)
        return original(vectors)

    monkeypatch.setattr(koszul, "_divisor_tables", counted)
    return calls


def test_divisor_table_built_once_per_count(monkeypatch):
    # with 0 to 3 quotient generators a complex builds no table until it is
    # ranked, and each count builds one table over the 2^m' (q + 1) cuts
    # shift_S + g, for g = 0 and each quotient generator, in blocks of
    # 2^m', where m' counts the entries no quotient generator divides: (1, 1)
    # lies in the second quotient, (1, 1) and (0, 3) in the last.  Nothing
    # is kept from one count to the next, so a second count builds the
    # same table again and gives the same lengths
    quotients = [(), ((1, 1),), ((2, 1), (1, 2)), ((3, 0), (1, 1), (0, 3))]
    kept = [3, 2, 3, 1]
    tables = _count_tables(monkeypatch)
    for jgens, m_kept in zip(quotients, kept):
        ring = RingSpec(3, 2, minimalize(jgens, 2))
        assert len(ring.quotient.generators) == len(jgens)
        complex_ = KoszulComplex(ring, [(2, 0), (1, 1), (0, 3)])
        assert tables == [] and vars(complex_).keys() == {"ring", "sequence", "m"}
        lengths = homology_lengths(complex_)
        shifts = koszul._subset_shifts(
            koszul._kept(ring.quotient.generators, complex_.sequence), 2
        )
        cuts = [
            (s[0] + g[0], s[1] + g[1])
            for g in [(0, 0), *ring.quotient.generators]
            for s in shifts
        ]
        assert tables == [cuts] and len(cuts) == 2 ** m_kept * (len(jgens) + 1)
        assert homology_lengths(complex_) == lengths
        assert tables == [cuts, cuts]
        tables.clear()


def test_pullback_homology_builds_one_divisor_table(monkeypatch):
    # the base complex is only validated; the third pullback is ranked.  Its
    # entries are mapped by one matrix power, with no map built for it
    spec = parse_spec(
        str(Path(__file__).parent.parent / "specs" / "frobenius_cross.ring")
    )
    tables = _count_tables(monkeypatch)
    powers = count_calls(monkeypatch, endos, "_matpow")
    maps = count_calls(monkeypatch, endos, "MonomialMap")
    images, lengths, _ = pullback_homology(
        spec.ring, spec.sequence, spec.map, 3
    )
    assert images == ((27, 0), (0, 27))
    assert lengths.lengths == {0: 53, -1: 53, -2: 0}
    assert len(tables) == 1
    assert powers == [(spec.map.matrix, 3)] and maps == []


def test_pullback_homology_is_one_pass_on_random_towers(monkeypatch):
    # d = 2-3, with and without a quotient, n = 0-3: pullback_homology
    # builds no KoszulComplex, every degree agrees with the complex pulled
    # back through the public names and with the slice oracle, and each
    # distinct active set is counted by _active_dims exactly once; cases
    # too large for the oracle are drawn again
    rng = random.Random(3535)
    built, init = [], KoszulComplex.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(KoszulComplex, "__init__", counted_init)
    slices = count_calls(monkeypatch, koszul, "_active_dims")
    walked = 0
    for d, quotiented, n in itertools.product((2, 3), (False, True), range(4)):
        for _ in range(3):
            while True:
                char = rng.choice((0, 2, 3, 5))
                jgens = [tuple(rng.randint(0, 2) for _ in range(d))
                         for _ in range(rng.randint(1, 2) * quotiented)]
                ring = RingSpec(char, d, minimalize([g for g in jgens if sum(g)], d))
                seq = random_monomial_sequence(
                    rng, d, rng.randint(d, d + 2), max_exp=2
                )
                exps = [rng.randint(1, 2) for _ in range(d)]
                phi = MonomialMap.diagonal(exps, ring)
                built.clear()
                slices.clear()
                images, lengths, _ = pullback_homology(ring, seq, phi, n)
                if math.prod(lengths.region) << len(seq) <= 40000:
                    break
            assert built == [], (ring, seq, exps, n)
            actives = [active for _, _, active in slices]
            kept = koszul._kept(ring.quotient.generators, images)
            if actives:
                walked += 1
                masks = monomials._cell_volumes(koszul._cut_table(ring, kept))
                distinct = {koszul._active(mask, len(kept)) for mask in masks}
                assert sorted(actives) == sorted(distinct), (ring, seq, exps, n)
            base = KoszulComplex(ring, seq)
            pulled = pullback(base, iterate(phi, n)) if n else base
            assert pulled.sequence == images
            assert homology_lengths(pulled) == lengths, (ring, seq, exps, n)
            oracle = koszul_homology_oracle(
                char, ring.quotient.generators, images, lengths.region
            )
            assert lengths.lengths == oracle, (ring, seq, exps, n)
    assert walked >= 24, walked


def test_dd_zero_check_runs_once_per_m(monkeypatch, capsys):
    table = [list(entries) for entries in koszul._differential(3)]
    target, sign = table[0b011][0]
    table[0b011][0] = (target, -sign)
    with pytest.raises(AssertionError, match="square to zero"):
        koszul._checked(table)
    # a pullback sweep on one spec builds and checks one table, for its m
    checked, original = [], koszul._checked

    def counted(table):
        checked.append(len(table))
        return original(table)

    monkeypatch.setattr(koszul, "_checked", counted)
    koszul._differential.cache_clear()
    path = str(Path(__file__).parent.parent / "specs" / "frobenius_cross.ring")
    for n in range(1, 13):
        assert main(["koszul", "--spec", path, "--pullback-iter", str(n)]) == 0
    capsys.readouterr()
    assert koszul._differential.cache_info().misses == 1
    assert checked == [2 ** 2]


def test_differential_signs_match_oracle():
    # entry s drops each bit i of s with (-1)^(its position in the sorted
    # subset), the convention of the slice oracle
    for m in range(7):
        table = koszul._differential(m)
        assert len(table) == 2 ** m
        for s, entries in enumerate(table):
            subset = tuple(i for i in range(m) if s >> i & 1)
            expected = [
                (sum(1 << i for i in reduced), sign)
                for reduced, sign in boundary_terms(subset)
            ]
            assert list(entries) == expected


def test_pullback_rank_work_independent_of_n(monkeypatch):
    # north-star cost model: the exponents grow like 3^n, the work must not.
    # Every slice is matched perfectly, so no rank is needed at any n, and
    # the distinct active sets stay the same seven, each counted once.
    spec = parse_spec(
        str(Path(__file__).parent.parent / "specs" / "frobenius_cross.ring")
    )
    base = KoszulComplex(spec.ring, spec.sequence)
    calls = count_calls(monkeypatch, koszul, "exact_rank")
    slices = count_calls(monkeypatch, koszul, "_active_dims")
    for n in range(1, 13):
        complex_ = pullback(base, iterate(spec.map, n))
        slices.clear()
        homology_lengths(complex_)
        actives = {active for _, _, active in slices}
        assert (len(calls), len(actives), len(slices)) == (0, 7, 7), n


def test_morse_matching_leaves_little_rank_work(monkeypatch):
    # the 10 degree-3 monomials of k[X,Y,Z], an antichain, so every entry is
    # kept: across its 751 distinct slices the matching leaves critical
    # cells in adjacent degrees only 56 times.  X^3, Y^3, Z^3 are a regular
    # sequence, so K(x) has the cohomology of the Koszul complex on the 7
    # mixed entries over k[X,Y,Z]/(X^3, Y^3, Z^3), which the oracle counts
    # slice by slice over that complex's region far faster than K(x) itself
    seq = [w for w in itertools.product(range(4), repeat=3) if sum(w) == 3]
    pure = [w for w in seq if max(w) == 3]
    mixed = [w for w in seq if max(w) < 3]
    expected = {0: 10, -1: 81, -2: 252, -3: 441, -4: 441, -5: 252, -6: 81,
                -7: 10, -8: 0, -9: 0, -10: 0}
    box = tuple(side + 3 for side in map(sum, zip(*mixed)))
    calls = count_calls(monkeypatch, koszul, "exact_rank")
    for char in (0, 2, 3):
        calls.clear()
        lengths = homology_lengths(KoszulComplex(RingSpec.polynomial(char, 3), seq))
        assert lengths.lengths == expected, char
        assert len(calls) <= 56, (char, len(calls))
        oracle = koszul_homology_oracle(char, pure, mixed, box)
        assert oracle == {k: v for k, v in expected.items() if k >= -7}, char


def test_generator_profile_examples():
    k = KoszulComplex(R2, [(1, 0), (0, 1)])
    profile = generator_profile(homology_lengths(k))
    assert (profile.peak, profile.width) == (1, 0)
    k2 = KoszulComplex(R2, [(2, 0), (0, 3)])
    profile2 = generator_profile(homology_lengths(k2))
    assert (profile2.peak, profile2.width) == (6, 0)
