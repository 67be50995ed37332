"""Koszul complex construction, pullback, and exact cohomology lengths."""

import random
from pathlib import Path

import pytest

import entrolab.koszul as koszul
from entrolab import (
    DimensionMismatchError,
    MonomialMap,
    NotFiniteLengthError,
    RingSpec,
    build_koszul,
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
from entrolab.specfile import parse_spec

from helpers import (
    boundary_terms,
    dd_product_terms,
    koszul_homology_oracle,
    koszul_slice_oracle,
    oracle_rank,
    random_monomial_sequence,
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


def test_build_ranks():
    k = build_koszul(R2, [(1, 0), (0, 1)])
    assert [k.module_rank(d) for d in (-2, -1, 0)] == [1, 2, 1]
    assert k.module_rank(1) == 0 and k.module_rank(-3) == 0
    r3 = RingSpec.polynomial(0, 3)
    k3 = build_koszul(r3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert [k3.module_rank(-j) for j in range(4)] == [1, 3, 3, 1]


def test_build_requires_finite_colength():
    with pytest.raises(NotFiniteLengthError):
        build_koszul(R2, [(1, 0)])
    with pytest.raises(NotFiniteLengthError):
        build_koszul(R2, [(1, 0), (0, 0)])
    with pytest.raises(DimensionMismatchError):
        build_koszul(R2, [(1, 0), (0, 1, 0)])
    # (X, Y) + (XY) generates the maximal ideal, so this is accepted
    build_koszul(CROSS, [(1, 0), (0, 1)])


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
        complex_ = build_koszul(ring, seq)
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
        complex_ = build_koszul(ring, seq)
        lengths = homology_lengths(complex_)
        expected = colength(minimalize(seq, dim), ring)
        assert lengths.length(0) == expected
        assert all(lengths.length(-j) == 0 for j in range(1, dim + 1))
        profile = generator_profile(lengths)
        assert profile.width == 0 and profile.peak == expected


def test_cross_ring_homology():
    complex_ = build_koszul(CROSS, [(1, 0), (0, 1)])
    lengths = homology_lengths(complex_)
    assert lengths.lengths == {0: 1, -1: 1, -2: 0}
    profile = generator_profile(lengths)
    assert (profile.peak, profile.width) == (1, 1)
    assert h0_length(complex_) == 1


def test_cross_ring_pullback_by_frobenius_square():
    field_ring = RingSpec(2, 2, minimalize({(1, 1)}))
    base = build_koszul(field_ring, [(1, 0), (0, 1)])
    frob = MonomialMap.frobenius(field_ring)
    pulled = pullback(base, iterate(frob, 2))
    assert pulled.sequence == ((4, 0), (0, 4))
    lengths = homology_lengths(pulled)
    assert lengths.lengths == {0: 7, -1: 7, -2: 0}
    assert h0_length(pulled) == 7


def test_pullback_requires_finite_length():
    base = build_koszul(R2, [(1, 0), (0, 1)])
    collapse = MonomialMap.from_columns([(1, 1), (1, 1)], R2)
    with pytest.raises(NotFiniteLengthError):
        pullback(base, collapse)


def test_pullback_functorial():
    rng = random.Random(55)
    base = build_koszul(R2, [(2, 0), (1, 1), (0, 3)])
    for _ in range(10):
        exps_a = tuple(rng.randint(1, 3) for _ in range(2))
        exps_b = tuple(rng.randint(1, 3) for _ in range(2))
        phi = MonomialMap.diagonal(exps_a, R2)
        psi = MonomialMap.diagonal(exps_b, R2)
        from entrolab import compose

        once = pullback(base, compose(phi, psi))
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
        complex_ = build_koszul(ring, seq)
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
        complex_ = build_koszul(ring, seq)
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
        complex_ = build_koszul(ring, seq)
        lengths = homology_lengths(complex_)
        box = tuple(2 * s for s in lengths.region)
        oracle = koszul_homology_oracle(
            char, ring.quotient.generators, complex_.sequence, box
        )
        assert lengths.lengths == oracle


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
        complex_ = build_koszul(ring, seq)
        lengths = homology_lengths(complex_)
        oracle = koszul_homology_oracle(
            char, ring.quotient.generators, complex_.sequence, lengths.region
        )
        assert lengths.lengths == oracle, (dim, char, quotient, seq)


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


def test_torsion_slice_depends_on_characteristic():
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
    for char, dims in expected.items():
        ring = RingSpec(char, 5, minimalize(killers + powers))
        complex_ = build_koszul(ring, seq)
        assert complex_.slice_dims(v) == dims
        assert dims == koszul_slice_oracle(char, ring.quotient.generators, seq, v)


def test_frobenius_cross_pullback_closed_form():
    # F_3[X,Y]/(XY): H^0 = H^-1 = k[X,Y]/(XY, X^q, Y^q) of length 2q - 1
    ring = RingSpec(3, 2, minimalize({(1, 1)}))
    base = build_koszul(ring, [(1, 0), (0, 1)])
    frob = MonomialMap.frobenius(ring)
    for n in range(1, 13):
        lengths = homology_lengths(pullback(base, iterate(frob, n)))
        q = 3**n
        assert lengths.lengths == {0: 2 * q - 1, -1: 2 * q - 1, -2: 0}
        assert lengths.region == (q + 1, q + 1)


def test_slice_dims_independent_of_order():
    complex_ = build_koszul(CROSS, [(1, 0), (0, 1)])
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
    complex_ = build_koszul(ring, [(1, 0), (0, 1), (1, 1)])
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
        complex_ = build_koszul(ring, seq)
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
            dims[0] += 1  # the caller owns the returned dict
            assert complex_.slice_dims(v) == expected


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
    # north-star cost model: the exponents grow like 3^n, the rank work must not
    spec = parse_spec(
        str(Path(__file__).parent.parent / "specs" / "frobenius_cross.ring")
    )
    base = build_koszul(spec.ring, spec.sequence)
    calls = []

    def counted(rows, characteristic):
        calls.append(rows)
        return exact_rank(rows, characteristic)

    monkeypatch.setattr(koszul, "exact_rank", counted)
    counts = []
    for n in range(1, 13):
        calls.clear()
        homology_lengths(pullback(base, iterate(spec.map, n)))
        counts.append(len(calls))
    assert counts == [counts[0]] * 12


def test_generator_profile_examples():
    k = build_koszul(R2, [(1, 0), (0, 1)])
    profile = generator_profile(homology_lengths(k))
    assert (profile.peak, profile.width) == (1, 0)
    k2 = build_koszul(R2, [(2, 0), (0, 3)])
    profile2 = generator_profile(homology_lengths(k2))
    assert (profile2.peak, profile2.width) == (6, 0)
