"""Exponent-vector and monomial-ideal arithmetic."""

import collections
import itertools
import random

import pytest

from entrolab import (
    DimensionMismatchError,
    MonomialIdeal,
    MonomialMap,
    NotFiniteLengthError,
    RingSpec,
    colength,
    colength_bruteforce,
    ideal_sum,
    image_ideal,
    krull_dimension,
    minimalize,
)

import entrolab.monomials as monomials
from entrolab.monomials import _pure_powers
from helpers import (
    cell_sum_pointwise,
    count_calls,
    divides,
    random_m_primary_ideal,
    standard_count_pointwise,
)


def test_minimalize_drops_redundant():
    ideal = minimalize({(2, 0), (0, 2), (2, 2)})
    assert ideal.generators == ((0, 2), (2, 0))
    assert minimalize({(1, 0)}).generators == ((1, 0),)
    ideal = minimalize({(2, 0), (1, 1), (0, 2), (3, 1)})
    assert ideal.generators == ((0, 2), (1, 1), (2, 0))


def test_minimalize_idempotent_and_order_independent():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 6))
        ]
        gens = [g for g in gens if sum(g)] or [(1,) * dim]
        first = minimalize(gens, dim)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert minimalize(shuffled, dim) == first
        assert minimalize(first.generators, dim) == first


def test_minimal_generators_match_quadratic_definition():
    # a generator stays iff no other distinct generator divides it
    rng = random.Random(2024)
    for _ in range(300):
        dim = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(0, 5) for _ in range(dim))
            for _ in range(rng.randint(0, 40))
        ]
        gens += rng.sample(gens, min(len(gens), rng.randint(0, 5)))
        distinct = set(gens)
        expected = sorted(
            g
            for g in distinct
            if not any(h != g and divides(h, g) for h in distinct)
        )
        assert MonomialIdeal(tuple(gens), dim).generators == tuple(expected)


def test_contains_unchanged_by_minimalization():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randint(1, 3)
        raw = [
            tuple(rng.randint(0, 3) for _ in range(dim))
            for _ in range(rng.randint(1, 5))
        ]
        raw = [g for g in raw if sum(g)] or [(1,) * dim]
        point = tuple(rng.randint(0, 5) for _ in range(dim))
        direct = any(divides(g, point) for g in raw)
        minimal = minimalize(raw, dim).generators
        assert any(divides(g, point) for g in minimal) == direct


def test_ideal_sum():
    a = minimalize({(2, 0)})
    b = minimalize({(0, 2)})
    assert ideal_sum(a, b).generators == ((0, 2), (2, 0))
    c = minimalize({(2, 0), (0, 2)})
    x = minimalize({(1, 0)})
    assert ideal_sum(c, x).generators == ((0, 2), (1, 0))
    assert ideal_sum(
        minimalize({(1, 1)}), minimalize({(3, 0), (0, 3)})
    ).generators == ((0, 3), (1, 1), (3, 0))


def test_ideal_sum_with_zero_returns_the_other_operand():
    a = minimalize({(2, 0), (1, 1), (0, 3)})
    zero = MonomialIdeal((), 2)
    assert ideal_sum(a, zero) is a
    assert ideal_sum(zero, a) is a
    assert ideal_sum(zero, zero).is_zero
    b = minimalize({(0, 1)})
    assert ideal_sum(a, b).generators == ((0, 1), (2, 0))
    assert ideal_sum(b, a).generators == ((0, 1), (2, 0))
    with pytest.raises(DimensionMismatchError):
        ideal_sum(a, MonomialIdeal((), 3))


def test_exponent_vector_validation():
    # every generator of an ideal, and every ring quotient a map checks
    # well-definedness against, passes the same entry and length checks
    for bad in ((1, -1), (-2, 0), (0, -1, 4)):
        with pytest.raises(ValueError) as info:
            MonomialIdeal(((2, 0), bad), 2)
        assert str(info.value) == f"exponent vector {bad} has a negative entry"
        assert not isinstance(info.value, DimensionMismatchError)
        with pytest.raises(ValueError, match="has a negative entry"):
            RingSpec(0, 2, MonomialIdeal((bad,), 2))
    for bad in ((1,), (1, 2, 3), ()):
        with pytest.raises(DimensionMismatchError) as info:
            MonomialIdeal(((2, 0), bad), 2)
        assert str(info.value) == (
            f"exponent vector {bad} has length {len(bad)}, expected 2"
        )
    # entries go through int(), so the stored generators are exact ints
    ideal = MonomialIdeal(((True, 2.0), ("3", 0), (0, 5)), 2)
    assert ideal.generators == ((0, 5), (1, 2), (3, 0))
    assert all(type(e) is int for g in ideal.generators for e in g)
    with pytest.raises(ValueError):
        MonomialIdeal((("x", 1),), 2)
    ring = RingSpec(0, 2, MonomialIdeal(((1.0, "1"),), 2))
    phi = MonomialMap.diagonal((2, 3), ring)
    image = image_ideal(phi, ideal)
    assert image.generators == ((0, 15), (2, 6), (6, 0))
    assert all(type(e) is int for g in image.generators for e in g)
    assert ring.quotient.generators == ((1, 1),)


def test_pure_power_bounds():
    assert _pure_powers([(2, 0), (0, 3)], 2) == (2, 3)
    assert _pure_powers([(2, 0), (1, 1)], 2) is None
    # the least of several pure powers of a variable
    assert _pure_powers([(2, 0), (1, 1), (0, 4), (0, 2)], 2) == (2, 2)
    # the zero ideal
    assert _pure_powers((), 2) is None


def test_is_m_primary():
    assert _pure_powers([(2, 0), (0, 2)], 2) is not None
    assert _pure_powers([(1, 1)], 2) is None
    assert _pure_powers([(3, 0), (1, 1), (0, 2)], 2) is not None


def test_krull_dimension():
    assert krull_dimension(MonomialIdeal((), 3), 3) == 3
    assert krull_dimension(minimalize({(1, 1)}), 2) == 1
    assert krull_dimension(minimalize({(1, 0)}), 2) == 1
    assert krull_dimension(minimalize({(1, 0), (0, 1)}), 2) == 0
    assert krull_dimension(minimalize({(1, 1, 0)}), 3) == 2


def test_colength_basic():
    ring = RingSpec.polynomial(0, 2)
    assert colength(minimalize({(2, 0), (0, 2)}), ring) == 4
    line = RingSpec.polynomial(0, 1)
    assert colength(minimalize({(81,)}), line) == 81
    quotient = RingSpec(0, 2, minimalize({(1, 1)}))
    for q in (2, 3, 5, 8):
        ideal = minimalize({(q, 0), (0, q)})
        assert colength(ideal, quotient) == 2 * q - 1


def test_colength_staircase_of_22_generators():
    ring = RingSpec.polynomial(0, 2)
    staircase = minimalize({(i, 21 - i) for i in range(22)})
    assert len(staircase.generators) == 22
    # standard monomials are the lattice points with a + b <= 20
    assert colength(staircase, ring) == 231
    assert colength_bruteforce(staircase, ring) == 231


def test_colength_requires_finite_length():
    ring = RingSpec.polynomial(0, 2)
    with pytest.raises(NotFiniteLengthError, match="no pure power"):
        colength(minimalize({(1, 1)}), ring)
    with pytest.raises(NotFiniteLengthError, match="no pure power"):
        colength(MonomialIdeal((), 2), ring)


def test_colength_matches_bruteforce_random():
    rng = random.Random(2024)
    ring_cache = {}
    for _ in range(60):
        dim = rng.randint(1, 4)
        ring = ring_cache.setdefault(dim, RingSpec.polynomial(0, dim))
        ideal = minimalize(random_m_primary_ideal(rng, dim), dim)
        assert colength(ideal, ring) == colength_bruteforce(ideal, ring)


def test_colength_matches_bruteforce_many_generators():
    # minimal generators drawn from two consecutive degrees, 21 to 30 of them
    rng = random.Random(2130)
    checked = 0
    while checked < 24:
        dim = rng.randint(2, 3)
        s = 29 if dim == 2 else 7
        pool = [
            v
            for v in itertools.product(range(s + 2), repeat=dim)
            if sum(v) in (s, s + 1)
        ]
        pure = [tuple(s if j == i else 0 for j in range(dim)) for i in range(dim)]
        ideal = minimalize(pure + rng.sample(pool, rng.randint(21, 40)), dim)
        if not 21 <= len(ideal.generators) <= 30:
            continue
        ring = RingSpec.polynomial(0, dim)
        if checked % 2:
            jgen = tuple(rng.randint(0, s) for _ in range(dim))
            ring = RingSpec(0, dim, minimalize([jgen if sum(jgen) else pure[0]], dim))
        assert colength(ideal, ring) == colength_bruteforce(ideal, ring)
        checked += 1


def _random_quotient(rng, dim):
    gens = [tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(3)]
    return [g for g in gens if sum(g)]


def test_colength_three_counts_agree():
    # cell sum, column-by-column box enumeration and the point-by-point box
    rng = random.Random(4404)
    cases = []
    for k in range(80):
        dim = 1 + k % 4
        gens = random_m_primary_ideal(rng, dim, 6 if dim < 4 else 4, 5)
        cases.append((dim, gens, _random_quotient(rng, dim) if k % 8 >= 4 else []))
    ties = [
        (2, [(5, 0), (0, 5), (2, 3)], []),
        (3, [(4, 0, 0), (0, 4, 0), (0, 0, 2), (1, 2, 1)], [(3, 1, 0)]),
        (4, [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)], [(1, 1, 1, 1)]),
    ]
    past_box = [
        (2, [(3, 0), (0, 6), (2, 2)], [(5, 5), (1, 9)]),
        (2, [(4, 0), (0, 3), (3, 1)], [(2, 0)]),
        (3, [(2, 0, 0), (0, 7, 0), (0, 0, 3), (0, 8, 1)], [(6, 6, 6)]),
    ]
    units = [(1, [(0,)], []), (2, [(0, 0)], [(1, 1)]), (3, [(0, 0, 0)], [])]
    for dim, gens, quotient in ties:
        sides = _pure_powers(gens + quotient, dim)
        assert sorted(sides)[-1] == sorted(sides)[-2]
    for dim, gens, quotient in past_box:
        sides = _pure_powers(gens + quotient, dim)
        assert any(g[i] >= sides[i] for g in gens + quotient for i in range(dim)
                   if sum(g) > g[i])
    for dim, gens, quotient in cases + ties + past_box + units:
        ring = RingSpec(0, dim, minimalize(quotient, dim))
        ideal = minimalize(gens, dim)
        expected = standard_count_pointwise(gens + quotient, dim)
        assert colength(ideal, ring) == expected, (gens, quotient)
        assert colength_bruteforce(ideal, ring) == expected, (gens, quotient)
    for dim, gens, quotient in units:
        assert standard_count_pointwise(gens + quotient, dim) == 0


def test_colength_bruteforce_is_independent_of_the_cell_sum(monkeypatch):
    rng = random.Random(31)
    cases = []
    for k in range(40):
        dim = 1 + k % 4
        ring = RingSpec(0, dim, minimalize(_random_quotient(rng, dim) if k % 2 else [], dim))
        ideal = minimalize(random_m_primary_ideal(rng, dim, 5, 4), dim)
        cases.append((ideal, ring, colength(ideal, ring)))

    def engine(*args):
        raise AssertionError("the oracle called the cell-sum engine")

    for name in ("_cell_sum", "_divisor_tables", "_divisor_mask"):
        monkeypatch.setattr(monomials, name, engine)
    for ideal, ring, expected in cases:
        assert colength_bruteforce(ideal, ring) == expected


def _antichain(rng, dim, count, side):
    """``count`` generators with distinct coordinates on every axis, below
    the pure powers of exponent ``side``: ascending on the first axis and
    descending on the last, so no generator divides another."""
    axes = [rng.sample(range(1, side), count) for _ in range(dim)]
    axes[0].sort()
    axes[-1].sort(reverse=True)
    pure = [tuple(side if j == i else 0 for j in range(dim)) for i in range(dim)]
    return MonomialIdeal(tuple(zip(*axes)) + tuple(pure), dim)


# (dim, count, side, quotient generators); the oracle's box is side^dim
ANTICHAINS = [
    (2, 1000, 1050, 0),
    (3, 120, 126, 2),
    (4, 30, 32, 1),
]


def test_colength_matches_bruteforce_on_wide_antichains():
    for dim, count, side, extra in ANTICHAINS:
        rng = random.Random(dim)
        ideal = _antichain(rng, dim, count, side)
        assert len(ideal.generators) == count + dim
        quotient = [tuple(rng.randrange(1, side) for _ in range(dim)) for _ in range(extra)]
        ring = RingSpec(0, dim, minimalize(quotient, dim))
        assert colength(ideal, ring) == colength_bruteforce(ideal, ring), dim


def test_colength_work_is_one_mask_per_column(monkeypatch):
    # one divisor table over the feet, no corner bisected, and one weighed
    # mask per distinct column; a walk over all d axes would need about g^d
    cases = [
        (ideal, RingSpec.polynomial(0, ideal.ambient_dim))
        for ideal in [_antichain(random.Random(dim), dim, count, side)
                      for dim, count, side, _ in ANTICHAINS]
        + [minimalize({(7,), (9,)}), minimalize({(3, 0), (0, 4), (1, 1)})]
    ]
    tables, weighed = [], []
    divisor_tables, cell_sum = monomials._divisor_tables, monomials._cell_sum

    def counted_tables(vectors):
        tables.append(vectors)
        return divisor_tables(vectors)

    def bisected(tables, v):
        raise AssertionError("colength bisected a corner")

    def counted_sum(tables, weigh):
        return cell_sum(tables, lambda mask: weighed.append(mask) or weigh(mask))

    monkeypatch.setattr(monomials, "_divisor_tables", counted_tables)
    monkeypatch.setattr(monomials, "_divisor_mask", bisected)
    monkeypatch.setattr(monomials, "_cell_sum", counted_sum)
    for ideal, ring in cases:
        tables.clear()
        weighed.clear()
        colength(ideal, ring)
        g, d = len(ideal.generators), ideal.ambient_dim
        assert len(tables) == 1
        assert 0 < len(weighed) <= (g + 1) ** (d - 1), (d, g, len(weighed))


def test_colength_checks_the_dimension():
    with pytest.raises(DimensionMismatchError, match="cannot add ideals in 2 and 3"):
        colength(minimalize({(1, 0), (0, 1)}), RingSpec.polynomial(0, 3))


def _nonzero(totals):
    return {key: w for key, w in totals.items() if w}


def test_cell_sum_matches_pointwise_sum_random():
    # random tables on 1-4 axes that meet the cell sum's precondition: the
    # zero vector, so every axis starts at 0, and a cap vector on every
    # axis, so each unbounded cell weighs 0.  Some of the other vectors
    # have no coordinate at 0
    rng = random.Random(1313)
    for k in range(240):
        dim = 1 + k % 4
        low = rng.choice((0, 0, 1, 2))
        vectors = [
            tuple(rng.randint(low, 6) for _ in range(dim))
            for _ in range(rng.randint(0, 5))
        ]
        vectors += [(0,) * dim] + [
            tuple(7 if j == i else 0 for j in range(dim)) for i in range(dim)
        ]
        rng.shuffle(vectors)
        caps = sum(1 << i for i, v in enumerate(vectors) if 7 in v)
        tables = monomials._divisor_tables(vectors)

        def weigh(mask):
            if mask & caps:
                return {"a": 0, "b": 0}
            return {"a": (mask * 0x9E3779B1 >> 5) % 4 - 1, "b": mask.bit_count() % 3}

        expected = cell_sum_pointwise(tables, weigh)
        assert expected is not None, vectors
        calls = collections.Counter()

        def counted(mask):
            calls[mask] += 1
            return weigh(mask)

        assert _nonzero(monomials._cell_sum(tables, counted)) == _nonzero(expected)
        assert max(calls.values()) == 1, vectors


def _lacking_pure_power(rng, dim, count):
    """``count`` random nonzero vectors, none a pure power of the first
    variable (in one variable: none at all)."""
    gens = []
    for _ in range(count if dim > 1 else 0):
        g = [rng.randint(0, 4) for _ in range(dim)]
        g[rng.randrange(1, dim)] += 1
        gens.append(tuple(g))
    return gens


def test_colength_decides_finite_length_before_any_table(monkeypatch):
    # ideal + quotient without a pure power of X_1 in d = 1..4: colength
    # raises from the pure-power test, having built no divisor table
    rng = random.Random(1515)
    cases = []
    for k in range(40):
        dim = 1 + k % 4
        ideal = minimalize(_lacking_pure_power(rng, dim, rng.randint(0, 4)), dim)
        quotient = _lacking_pure_power(rng, dim, 2 if k % 2 else 0)
        cases.append((ideal, RingSpec(0, dim, minimalize(quotient, dim))))
    tables = count_calls(monkeypatch, monomials, "_divisor_tables")
    for ideal, ring in cases:
        with pytest.raises(NotFiniteLengthError, match="no pure power"):
            colength(ideal, ring)
    assert tables == []


def test_colength_primary_only_with_the_quotient():
    # the pure powers of X_1, and of some other variables, lie only in the
    # quotient
    rng = random.Random(1616)
    for k in range(60):
        dim = 1 + k % 4
        ideal, quotient = [], []
        for i in range(dim):
            power = tuple(rng.randint(1, 5) if j == i else 0 for j in range(dim))
            (quotient if i == 0 or rng.random() < 0.3 else ideal).append(power)
        ideal += _lacking_pure_power(rng, dim, rng.randint(0, 3))
        ideal = minimalize(ideal, dim)
        ring = RingSpec(0, dim, minimalize(quotient + _random_quotient(rng, dim), dim))
        assert _pure_powers(ideal.generators, dim) is None
        expected = colength_bruteforce(ideal, ring)
        assert colength(ideal, ring) == expected, (ideal, ring)


def test_colength_edge_cases():
    line = RingSpec.polynomial(0, 1)
    assert colength(minimalize({(5,), (7,)}), line) == 5
    assert colength(minimalize({(5,)}), RingSpec(0, 1, minimalize({(3,)}))) == 3
    with pytest.raises(NotFiniteLengthError, match="no pure power"):
        colength(MonomialIdeal((), 1), line)
    # an ideal containing 1 leaves no standard monomial
    assert colength(minimalize({(0, 0, 0), (2, 0, 1)}), RingSpec.polynomial(0, 3)) == 0
    assert colength(minimalize({(0, 0)}), RingSpec(0, 2, minimalize({(1, 1)}))) == 0
    plane = RingSpec.polynomial(0, 2)
    with pytest.raises(NotFiniteLengthError, match="no pure power"):
        colength(MonomialIdeal((), 2), RingSpec(0, 2, minimalize({(1, 1)})))
    # no pure power of the last variable: the column above X^0 has no top
    with pytest.raises(NotFiniteLengthError, match="no pure power"):
        colength(minimalize({(2, 0), (1, 3)}), plane)
    # no pure power of the first variable: columns past X^3 have height 1
    with pytest.raises(NotFiniteLengthError, match="no pure power"):
        colength(minimalize({(0, 2), (3, 1)}), plane)
    with pytest.raises(NotFiniteLengthError, match="no pure power"):
        colength(minimalize({(0, 0, 2), (0, 4, 0), (1, 1, 1)}), RingSpec.polynomial(0, 3))
    # ideal + quotient is not minimal as given: the quotient's (1, 0)
    # divides (3, 0) and (1, 1), and then appears on both sides
    ring = RingSpec(0, 2, minimalize({(1, 0)}))
    ideal = minimalize({(3, 0), (0, 4), (2, 2), (1, 1)})
    assert colength(ideal, ring) == 4
    assert colength(ideal, ring) == colength_bruteforce(ideal, ring)
    assert colength(minimalize({(1, 0), (0, 3)}), ring) == 3


def test_colength_on_quotient_reduces_to_ambient_sum():
    rng = random.Random(5)
    for _ in range(30):
        dim = rng.randint(1, 3)
        ring = RingSpec.polynomial(0, dim)
        ideal = minimalize(random_m_primary_ideal(rng, dim, max_exp=4), dim)
        jgens = [
            tuple(rng.randint(0, 3) for _ in range(dim))
            for _ in range(rng.randint(1, 2))
        ]
        jgens = [g for g in jgens if sum(g)]
        if not jgens:
            continue
        quotient = RingSpec(0, dim, minimalize(jgens, dim))
        combined = ideal_sum(ideal, quotient.quotient)
        assert colength(ideal, quotient) == colength(combined, ring)


def test_colength_antitone():
    rng = random.Random(17)
    ring = RingSpec.polynomial(0, 3)
    for _ in range(30):
        small = minimalize(random_m_primary_ideal(rng, 3, max_exp=4), 3)
        extra = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(2)]
        extra = [g for g in extra if sum(g)]
        big = minimalize(small.generators + tuple(extra), 3)
        assert colength(small, ring) >= colength(big, ring)


def test_ringspec_validation():
    with pytest.raises(ValueError):
        RingSpec(4, 2, MonomialIdeal((), 2))
    with pytest.raises(ValueError):
        RingSpec(0, 2, MonomialIdeal(((0, 0),), 2))
    ring = RingSpec(7, 2, MonomialIdeal((), 2))
    assert ring.regular
    assert RingSpec(0, 2, minimalize({(1, 1)})).regular is False


def test_maximal_ideal():
    ring = RingSpec.polynomial(0, 3)
    assert ring.maximal_ideal().generators == (
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    )
    assert colength(ring.maximal_ideal(), ring) == 1
