"""Entropy sequences, limit extrapolation, bounds, and the transfer check."""

import math
import random
from pathlib import Path

import pytest

from entrolab import (
    DimensionMismatchError,
    EntropyRow,
    EntropySequence,
    HypothesisError,
    MonomialIdeal,
    MonomialMap,
    NotFiniteLengthError,
    NotRegularError,
    RingSpec,
    SquareCommutationError,
    TransferSquare,
    colength,
    colength_bruteforce,
    complexity_upper_bound,
    estimate_limit,
    exact_rate,
    ideal_sum,
    image_ideal,
    int_log,
    is_finite_length,
    iterate,
    krull_dimension,
    local_entropy_sequence,
    minimalize,
    sandwich,
    sandwich_violations,
    transfer_check,
)
import entrolab.endos as endos_module
import entrolab.entropy as entropy_module
from entrolab.entropy import _rate_bracket_violations, log_rate
import entrolab.monomials as monomials_module
from entrolab.monomials import _pivot_count, _pure_powers
from entrolab.cli import _suites
from entrolab.koszul import (
    KoszulComplex,
    generator_profile,
    h0_length,
    homology_lengths,
    pullback,
)
from entrolab.specfile import parse_spec
from helpers import count_calls, pivot_lengths, random_m_primary_ideal

R2 = RingSpec.polynomial(0, 2)
R3 = RingSpec.polynomial(0, 3)


def _fake_sequence(lengths):
    rows = tuple(
        EntropyRow(n, val, int_log(val) / n, int_log(val))
        for n, val in enumerate(lengths, start=1)
    )
    ring = RingSpec.polynomial(0, 1)
    return EntropySequence(rows, ring.maximal_ideal().generators,
                           MonomialMap.diagonal((2,), ring))


def test_int_log_accuracy():
    assert int_log(1) == 0.0
    for n in (6, 30**8, 2**200 + 12345, 7**300):
        exact = math.log(n) if n < 10**300 else None
        approx = int_log(n)
        if exact is not None:
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))
    # huge value stays finite and close to its bit length times log 2
    big = 1 << 100_000
    assert abs(int_log(big) - 100_000 * math.log(2)) < 1e-6
    with pytest.raises(ValueError):
        int_log(0)


def test_sequence_diagonal():
    phi = MonomialMap.diagonal((2, 3, 5), R3)
    seq = local_entropy_sequence(R3, phi, None, 4)
    assert [r.length for r in seq.rows] == [30, 900, 27000, 810000]
    assert all(abs(r.log_average - math.log(30)) < 1e-12 for r in seq.rows)


def test_sequence_with_reference_ideal():
    phi = MonomialMap.diagonal((2, 3), R2)
    q = minimalize({(2, 0), (0, 3)})
    seq = local_entropy_sequence(R2, phi, q, 5)
    for row in seq.rows:
        assert row.length == 6 * 6 ** row.n
        expected = math.log(6) + math.log(6) / row.n
        assert abs(row.log_average - expected) < 1e-12


def test_sequence_rejections():
    phi = MonomialMap.from_columns([(1, 1), (1, 1)], R2)
    with pytest.raises(NotFiniteLengthError):
        local_entropy_sequence(R2, phi, None, 3)
    good = MonomialMap.diagonal((2, 3), R2)
    with pytest.raises(NotFiniteLengthError):
        local_entropy_sequence(R2, good, minimalize({(1, 1)}), 3)
    with pytest.raises(ValueError):
        local_entropy_sequence(R2, good, None, 0)


def test_sequence_nonnegative_random():
    rng = random.Random(13)
    for _ in range(20):
        dim = rng.randint(1, 3)
        ring = RingSpec.polynomial(0, dim)
        exps = tuple(rng.randint(1, 4) for _ in range(dim))
        seq = local_entropy_sequence(
            ring, MonomialMap.diagonal(exps, ring), None, 5
        )
        assert all(r.log_average >= 0 for r in seq.rows)


def _random_sequence_case(rng, dim, with_quotient, twin_columns):
    """A random finite-length map and a non-maximal reference ideal.

    The map starts as a monomial matrix on permuted axes.  With a quotient
    some columns gain an entry off their axis, ``twin_columns`` makes two
    columns equal (a non-injective map), and the quotient holds a pure
    power of every axis that no column image is a pure power of, plus
    random extras."""
    while True:
        perm = rng.sample(range(dim), dim)
        cols = [
            [rng.randint(1, 3) if t == perm[k] else 0 for t in range(dim)]
            for k in range(dim)
        ]
        if with_quotient:
            for col in cols:
                if rng.random() < 0.4:
                    col[rng.randrange(dim)] += rng.randint(1, 2)
            if twin_columns:
                i, j = rng.sample(range(dim), 2)
                cols[j] = cols[i]
        cols = [tuple(col) for col in cols]
        pure = {t for c in cols for t in range(dim) if c[t] == sum(c)}
        quotient = [
            tuple(rng.randint(2, 3) if s == t else 0 for s in range(dim))
            for t in range(dim) if t not in pure
        ]
        if with_quotient:
            extras = [tuple(rng.randint(0, 3) for _ in range(dim))
                      for _ in range(rng.randint(1, 2))]
            quotient += [g for g in extras if sum(g)]
        ring = RingSpec(rng.choice((0, 2, 3)), dim, minimalize(quotient, dim))
        try:
            phi = MonomialMap.from_columns(cols, ring)
        except ValueError:  # not well defined on the quotient
            continue
        if not is_finite_length(phi):
            continue
        ideal = minimalize(random_m_primary_ideal(rng, dim, 3, 2), dim)
        if ideal != ring.maximal_ideal():
            return ring, phi, ideal


def test_sequence_matches_the_definition_random():
    # row n is the colength of the image of the reference ideal under the
    # n-th composed power, the pivot count agrees at every n, and box
    # enumeration where the box holds at most 200,000 monomials, on regular
    # rings (rows from the determinant) as well as on quotients
    rng = random.Random(8128)
    brute = regular = twins = diagonal = 0
    for k in range(48):
        dim = 1 + k % 4
        twin_columns = dim > 1 and k % 3 == 0
        ring, phi, ideal = _random_sequence_case(
            rng, dim, k // 4 % 2 == 1 or twin_columns, twin_columns
        )
        seq = local_entropy_sequence(ring, phi, ideal, 8)
        assert [r.n for r in seq.rows] == list(range(1, 9))
        for row in seq.rows:
            image = image_ideal(iterate(phi, row.n), ideal)
            assert row.length == colength(image, ring), (phi, ideal, row.n)
            gens = ideal_sum(image, ring.quotient).generators
            assert row.length == _pivot_count(gens, dim), (phi, ideal, row.n)
            if math.prod(_pure_powers(gens, dim)) <= 200_000:
                assert row.length == colength_bruteforce(image, ring)
                brute += 1
                regular += ring.regular
        twins += twin_columns
        diagonal += "diagonal" in _suites(phi)[1]
    assert brute > 100 and regular > 100 and twins == 12 and diagonal < 24


def test_regular_sequence_of_a_permuted_map_matches_box_enumeration():
    # X -> Y^3, Y -> X^2 swaps the axes, and (X^2, XY, Y^3) has colength 4
    phi = MonomialMap.from_columns([(0, 3), (2, 0)], R2)
    ideal = minimalize({(2, 0), (1, 1), (0, 3)})
    seq = local_entropy_sequence(R2, phi, ideal, 8)
    assert [r.length for r in seq.rows] == [4 * 6**n for n in range(1, 9)]
    for row in seq.rows:
        image = image_ideal(iterate(phi, row.n), ideal)
        assert row.length == colength_bruteforce(image, R2), row.n


def test_regular_image_count_is_det_times_the_reference_count_random():
    # the identity a regular-ring sequence rests on, checked with the
    # engine it replaces: the images of a random m-primary I under a
    # monomial matrix A, permuted or not, count |det A| times I, and box
    # enumeration agrees where the box holds at most 200,000 monomials
    rng = random.Random(6007)
    brute = permuted = 0
    for k in range(96):
        d = 1 + k % 4
        ring = RingSpec.polynomial((0, 2, 3)[k // 4 % 3], d)
        perm = rng.sample(range(d), d)
        exps = [rng.randint(1, 4) for _ in range(d)]
        phi = MonomialMap.from_columns(
            [tuple(exps[j] if i == perm[j] else 0 for i in range(d))
             for j in range(d)],
            ring,
        )
        gens = random_m_primary_ideal(rng, d, 5, 4)
        images = [endos_module._matvec(phi.matrix, g) for g in gens]
        count = monomials_module._standard_count(gens, ring)[0]
        expected = math.prod(exps) * count
        assert monomials_module._standard_count(images, ring)[0] == expected, (
            gens, phi.matrix)
        if math.prod(_pure_powers(images, d)) <= 200_000:
            image = image_ideal(phi, minimalize(gens, d))
            assert colength_bruteforce(image, ring) == expected, (gens, phi.matrix)
            brute += 1
        permuted += perm != sorted(perm)
    assert brute >= 60 and permuted >= 40, (brute, permuted)


def _count_row_work(monkeypatch):
    """Lists of the matrices the sequence maps by and of the argument
    tuples of its row counts."""
    matrices = []

    def counted_matvec(matrix, v):
        matrices.append(matrix)
        return endos_module._matvec(matrix, v)

    monkeypatch.setattr(entropy_module, "_matvec", counted_matvec)
    return matrices, count_calls(monkeypatch, monomials_module, "_standard_count")


def test_sequence_builds_no_map_power(monkeypatch):
    ring = RingSpec(3, 2, minimalize({(1, 1)}))
    phi = MonomialMap.from_columns([(0, 2), (3, 0)], ring)  # X -> Y^2, Y -> X^3
    ideal = minimalize({(3, 0), (1, 1), (0, 2)})
    built = []
    init = MonomialMap.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(MonomialMap, "__init__", counted_init)
    matrices, counts = _count_row_work(monkeypatch)
    for n_max in (1, 6, 12):
        built.clear()
        matrices.clear()
        counts.clear()
        seq = local_entropy_sequence(ring, phi, ideal, n_max)
        assert built == []
        assert len(counts) == n_max
        # each row maps the vectors it counts by phi's own matrix, starting
        # from the reference ideal
        assert all(matrix is phi.matrix for matrix in matrices)
        assert len(matrices) == sum(len(vectors) for vectors, _ in counts)
        first = [endos_module._matvec(phi.matrix, g) for g in ideal.generators]
        assert counts[0][0] == first
        assert len(seq.rows) == n_max


def test_sequence_maps_each_ideal_once(monkeypatch):
    # on a regular ring the finiteness test reads phi's columns, the one
    # count is of the reference ideal itself, and no vector is mapped
    path = Path(__file__).parent.parent / "specs" / "diagonal235.ring"
    spec = parse_spec(str(path))
    image_ideals = count_calls(monkeypatch, endos_module, "image_ideal")
    matrices, counts = _count_row_work(monkeypatch)
    seq = local_entropy_sequence(spec.ring, spec.map, None, 6)
    assert [row.length for row in seq.rows] == [30**n for n in range(1, 7)]
    assert image_ideals == []
    assert [list(vectors) for vectors, _ in counts] == [
        list(spec.ring.maximal_ideal().generators)
    ]
    assert len(matrices) == 0


def test_sequence_drops_divisible_images_on_quotients(monkeypatch):
    # on a quotient by J the images that another image or J divides are
    # dropped before the next row; the lengths still match the definition
    ring = RingSpec(0, 2, minimalize({(2, 0)}))
    phi = MonomialMap.from_columns([(1, 1), (0, 2)], ring)  # X -> XY, Y -> Y^2
    seq = local_entropy_sequence(ring, phi, None, 8)
    assert [r.length for r in seq.rows] == [2 ** (n + 1) - 1 for n in range(1, 9)]
    _, counts = _count_row_work(monkeypatch)
    rng = random.Random(2718)
    cases = [(ring, phi, minimalize({(2, 0), (1, 1), (0, 2)}))]
    cases += [
        _random_sequence_case(rng, 2 + k % 3, True, k % 4 == 0)
        for k in range(36)
    ]
    dropped = 0
    for ring, phi, ideal in cases:
        counts.clear()
        seq = local_entropy_sequence(ring, phi, ideal, 6)
        carried = [len(vectors) for vectors, _ in counts]
        assert carried == sorted(carried, reverse=True)
        dropped += carried[-1] < carried[0]
        for row in seq.rows:
            image = image_ideal(iterate(phi, row.n), ideal)
            assert row.length == colength(image, ring), (phi, ideal, row.n)
    assert dropped >= 20


def test_regular_finite_length_maps_keep_images_minimal():
    # on a regular ring a finite-length map is a monomial matrix, so the
    # images of minimal generators under any iterate are minimal and
    # distinct, and each iterate multiplies the colength by |det|
    rng = random.Random(4099)
    finite = 0
    for k in range(240):
        dim = 1 + k % 4
        ring = RingSpec.polynomial(0, dim)
        cols = []
        for _ in range(dim):
            col = [0] * dim
            if rng.random() < 0.8:
                col[rng.randrange(dim)] = rng.randint(1, 3)
            else:
                col = [rng.randint(0, 2) for _ in range(dim)]
                col[rng.randrange(dim)] += 1
            cols.append(col)
        phi = MonomialMap.from_columns(cols, ring)
        if not is_finite_length(phi):
            continue
        assert "monomial-matrix" in _suites(phi)[1]
        finite += 1
        ideal = minimalize(random_m_primary_ideal(rng, dim, 4, 3), dim)
        det = math.prod(e for row in phi.matrix for e in row if e)
        for n in (1, 2, 3):
            power = iterate(phi, n)
            images = {endos_module._matvec(power.matrix, g)
                      for g in ideal.generators}
            assert len(images) == len(ideal.generators)
            image = minimalize(images, dim)
            assert set(image.generators) == images
            assert colength(image, ring) == det**n * colength(ideal, ring)
    assert finite >= 60


def test_sequence_row_work_is_one_table(monkeypatch):
    # one feet table per row on a quotient and one per sequence on a regular
    # ring, and no other: building an ideal builds no table.  The maximal
    # ideal is never asked for: a call that gives no reference counts the
    # unit vectors, so no call reaches MonomialIdeal.__init__; never more
    # carried vectors than reference generators
    tables = count_calls(monkeypatch, monomials_module, "_divisor_tables")
    ideals, maximal = [], []
    init = monomials_module.MonomialIdeal.__init__
    write_down = RingSpec.maximal_ideal

    def counted_init(self, *args):
        ideals.append(self)
        init(self, *args)

    def counted_maximal(ring):
        maximal.append(ring)
        return write_down(ring)

    monkeypatch.setattr(monomials_module.MonomialIdeal, "__init__", counted_init)
    monkeypatch.setattr(RingSpec, "maximal_ideal", counted_maximal)
    _, counts = _count_row_work(monkeypatch)
    rng = random.Random(31)
    for k in range(16):
        ring, phi, ideal = _random_sequence_case(
            rng, 1 + k % 4, k % 2 == 1, False
        )
        for reference in (ideal, None):
            gens = len(reference.generators) if reference else ring.dim_ambient
            asked = []
            for n_max in (1, 4, 8):
                tables.clear()
                ideals.clear()
                maximal.clear()
                counts.clear()
                local_entropy_sequence(ring, phi, reference, n_max)
                assert ideals == []
                asked.append(len(maximal))
                rows_counted = 1 if ring.regular else n_max
                assert len(tables) == rows_counted
                assert len(counts) == rows_counted
                assert all(len(vectors) <= gens for vectors, _ in counts)
            assert asked == [0, 0, 0]


def test_pass_on_the_maximal_ideal_skips_only_checks_it_meets():
    # with no reference the pass writes m down and skips the checks m meets
    # by construction, and gives exactly the rows of the checked path on
    # the ideal the unit vectors generate; a map not of finite length
    # still raises the same error
    rng = random.Random(37)
    seen = set()
    for k in range(48):
        ring, phi, _ = _random_sequence_case(
            rng, 1 + k % 4, k % 2 == 1, k % 4 == 3
        )
        d = ring.dim_ambient
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        for n_max in (1, 5):
            seq = entropy_module._entropy_pass(ring, phi, None, n_max)
            expected = local_entropy_sequence(
                ring, phi, MonomialIdeal(units, d), n_max
            )
            assert seq.rows == expected.rows
            assert seq.ideal_used == expected.ideal_used
        seen.add((ring.regular, ring.characteristic,
                  "monomial-matrix" in _suites(phi)[1]))
    assert {(regular, p) for regular, p, _ in seen} == {
        (regular, p) for regular in (True, False) for p in (0, 2, 3)
    }
    assert {(False, False), (True, True)} <= {(r, m) for r, _, m in seen}
    for ring in (R2, RingSpec(3, 2, minimalize({(1, 1)}))):
        collapse = MonomialMap.from_columns([(1, 1), (1, 1)], ring)
        messages = []
        for call in (
            lambda: entropy_module._entropy_pass(ring, collapse, None, 3),
            lambda: local_entropy_sequence(
                ring, collapse, MonomialIdeal([(1, 0), (0, 1)], 2), 3
            ),
        ):
            with pytest.raises(NotFiniteLengthError) as info:
                call()
            messages.append(str(info.value))
        assert messages == ["endomorphism is not of finite length"] * 2


def test_pass_counts_written_vectors_as_their_minimal_generators():
    # the one row loop, on reference vectors as a spec may write them
    # (shuffled, with copies and multiples of generators), gives exactly
    # the rows that the public function gives on the ideal they generate
    rng = random.Random(36)
    seen = set()
    for k in range(48):
        ring, phi, ideal = _random_sequence_case(
            rng, 1 + k % 4, k % 2 == 1, k % 4 == 3
        )
        gens = list(ideal.generators)
        written = gens + rng.choices(gens, k=2) + [
            tuple(e + rng.randint(0, 2) for e in g) for g in rng.choices(gens, k=2)
        ]
        rng.shuffle(written)
        written = tuple(written)
        d = ring.dim_ambient
        assert MonomialIdeal(written, d) == ideal
        for n_max in (1, 5):
            seq = entropy_module._entropy_pass(ring, phi, written, n_max)
            assert seq.ideal_used == written
            expected = local_entropy_sequence(
                ring, phi, MonomialIdeal(written, d), n_max
            )
            assert seq.rows == expected.rows
        seen.add((ring.regular, ring.characteristic))
    assert seen == {(regular, p) for regular in (True, False) for p in (0, 2, 3)}


def test_sequence_checks_a_given_ideal_in_order():
    # n_max, the map's ring, properness, then the ideal's dimension (the
    # zero ideal's too), then primality: each case also has the faults
    # checked after its own, and its own message wins
    good = MonomialMap.diagonal((2, 3), R2)
    other = MonomialMap.diagonal((2, 2, 2), R3)
    wide, zero = minimalize({(1, 0, 0), (0, 1, 0)}), MonomialIdeal((), 3)
    cases = [
        (good, wide, 0, ValueError, "n_max must be >= 1"),
        (other, wide, 3, ValueError, "map does not act on the given ring"),
        (good, minimalize({(0, 0, 0)}), 3, ValueError,
         "reference ideal must be proper"),
        (good, wide, 3, DimensionMismatchError,
         "cannot add ideals in 3 and 2 variables"),
        (good, zero, 3, DimensionMismatchError,
         "cannot add ideals in 3 and 2 variables"),
        (good, MonomialIdeal((), 2), 3, NotFiniteLengthError,
         "reference ideal is not primary to the maximal ideal"),
    ]
    for phi, ideal, n_max, error, message in cases:
        with pytest.raises(error) as info:
            local_entropy_sequence(R2, phi, ideal, n_max)
        assert str(info.value) == message


def test_sequence_unit_ideal_is_rejected_before_finiteness():
    # the reference ideal is checked first: a unit ideal is malformed input
    # even when the map is not of finite length
    collapse = MonomialMap.from_columns([(1, 1), (1, 1)], R2)
    with pytest.raises(ValueError, match="reference ideal must be proper") as info:
        local_entropy_sequence(R2, collapse, minimalize({(0, 0)}), 3)
    assert not isinstance(info.value, NotFiniteLengthError)
    with pytest.raises(NotFiniteLengthError, match="not of finite length"):
        local_entropy_sequence(R2, collapse, minimalize({(2, 0), (0, 1)}), 3)


def test_estimate_limit_exact_geometric():
    seq = _fake_sequence([30**n for n in range(1, 7)])
    assert abs(estimate_limit(seq) - math.log(30)) < 1e-9


def test_estimate_limit_affine_log():
    seq = _fake_sequence([6 * 6**n for n in range(1, 9)])
    assert abs(estimate_limit(seq) - math.log(6)) < 1e-12


def test_estimate_limit_geometric_correction():
    # the slope over rows 6..10 of 2*3^n - 1 is no certified rate: it lies
    # above log 3, by the slope of log(1 - 1/(2*3^n)), which is below 2e-4
    seq = _fake_sequence([2 * 3**n - 1 for n in range(1, 11)])
    assert 0 < estimate_limit(seq) - math.log(3) < 2e-4


def test_estimate_limit_needs_rows():
    with pytest.raises(ValueError):
        estimate_limit(_fake_sequence([2, 4]))


def test_complexity_upper_bound():
    phi = MonomialMap.diagonal((2, 3), R2)
    assert complexity_upper_bound(R2, phi, 2) == 36
    frob = MonomialMap.frobenius(RingSpec.polynomial(2, 2))
    assert complexity_upper_bound(RingSpec.polynomial(2, 2), frob, 1) == 4
    ident = MonomialMap.diagonal((1, 1), R2)
    for n in (1, 3, 6):
        assert complexity_upper_bound(R2, ident, n) == 1
    quotient = RingSpec(3, 2, minimalize({(1, 1)}))
    with pytest.raises(NotRegularError):
        complexity_upper_bound(quotient, MonomialMap.frobenius(quotient), 1)
    # X -> X^2, Y -> Y^3 on F_3[X,Y], or on Q[X,Y]/(XY), does not act on
    # Q[X,Y]: the bound refuses it, as the sequence and the sandwich do,
    # rather than give a regular-ring count for a map on another ring
    f3 = RingSpec.polynomial(3, 2)
    assert complexity_upper_bound(f3, MonomialMap.diagonal((2, 3), f3), 2) == 36
    for ring in (f3, RingSpec(0, 2, minimalize({(1, 1)}))):
        other = MonomialMap.diagonal((2, 3), ring)
        for call in (
            lambda: complexity_upper_bound(R2, other, 2),
            lambda: local_entropy_sequence(R2, other, None, 2),
            lambda: sandwich(R2, other, None, [0.0], 2),
        ):
            with pytest.raises(ValueError, match="^map does not act on the given"):
                call()


def test_sandwich_identity_map():
    ident = MonomialMap.diagonal((1, 1), R2)
    report = sandwich(R2, ident, [(1, 0), (0, 1)], [0.0, 2.0], 4)
    assert not sandwich_violations(report)
    assert [(row.t, row.n) for row in report.rows] == [
        (t, n) for t in (0.0, 2.0) for n in (1, 2, 3, 4)
    ]
    for row in report.rows:
        assert abs(row.lower_logavg) < 1e-12
        assert abs(row.upper_logavg) < 1e-12
        assert abs(row.gap_bound) < 1e-12
    # no sequence stands for the variables, and the lower sequence records
    # the vectors in the order it counted them: as written, or the unit
    # vectors of m
    assert report.lower_sequence.ideal_used == ((1, 0), (0, 1))
    units = report.lower_sequence._replace(ideal_used=((0, 1), (1, 0)))
    assert sandwich(R2, ident, None, [0.0, 2.0], 4) == report._replace(
        lower_sequence=units
    )


def test_sandwich_requires_regular():
    # the upper bound requires a regular ring: elsewhere the rows are
    # lower-only, and the lower bound is still log(h0 of the n-th
    # pullback) less the profile shift, over n
    quotient = RingSpec(3, 2, minimalize({(1, 1)}))
    frob = MonomialMap.frobenius(quotient)
    x = [(1, 0), (0, 2)]
    report = sandwich(quotient, frob, x, [-1.0, 0.5], 4)
    base = KoszulComplex(quotient, x)
    profile = generator_profile(homology_lengths(base))
    assert report.upper_sequence is None
    assert not sandwich_violations(report)
    assert [(row.t, row.n) for row in report.rows] == [
        (t, n) for t in (-1.0, 0.5) for n in (1, 2, 3, 4)
    ]
    for row in report.rows:
        h0 = h0_length(pullback(base, iterate(frob, row.n)))
        shift = int_log(profile.peak) + profile.width * abs(row.t)
        assert row.upper_logavg is None
        assert row.lower_logavg == (int_log(h0) - shift) / row.n
        assert row.gap_bound == shift / row.n
    # k[X,Y]/(XY, X^(3^n), Y^(2*3^n)) has length 3^(n+1) - 1
    assert [r.length for r in report.lower_sequence.rows] == [8, 26, 80, 242]


def test_sandwich_monotone_chain_random():
    rng = random.Random(99)
    for _ in range(10):
        exps = tuple(rng.randint(1, 4) for _ in range(2))
        phi = MonomialMap.diagonal(exps, R2)
        seq = [(rng.randint(1, 2), 0), (0, rng.randint(1, 2))]
        ts = [rng.uniform(-2, 2) for _ in range(3)]
        report = sandwich(R2, phi, seq, ts, 6)
        assert not sandwich_violations(report)
        assert len(report.rows) == 3 * 6
        for row in report.rows:
            upper = complexity_upper_bound(R2, phi, row.n)
            assert row.upper_logavg == int_log(upper) / row.n


def test_sandwich_upper_counts_come_from_the_closed_form(monkeypatch):
    # the engine counts the lower sequence once; the upper counts
    # length(R/phi^n m) = |det A|^n are read off the matrix, not from the
    # engine: a count one too high moves the lower counts only.  No float
    # extrapolation is made
    count = entropy_module._standard_count

    def one_over(vectors, ring):
        length, *rest = count(vectors, ring)
        return (length + 1, *rest)

    rng = random.Random(2024)
    engine = count_calls(monkeypatch, entropy_module, "_entropy_pass")
    limits = count_calls(monkeypatch, entropy_module, "estimate_limit")
    for _ in range(40):
        d = rng.randint(1, 3)
        ring = RingSpec.polynomial(rng.choice([0, 2, 3]), d)
        perm = rng.sample(range(d), d)
        cols = [
            tuple(rng.randint(1, 5) if i == perm[j] else 0 for i in range(d))
            for j in range(d)
        ]
        phi = MonomialMap.from_columns(cols, ring)
        det = math.prod(max(c) for c in cols)
        sequence = rng.choice([None, random_m_primary_ideal(rng, d, 3)])
        n_max = rng.randint(1, 6)
        del engine[:]
        report = sandwich(ring, phi, sequence, [0.0, 1.0], n_max)
        assert len(engine) == 1
        assert not sandwich_violations(report)
        upper = [row.length for row in report.upper_sequence.rows]
        assert upper == [det**n for n in range(1, n_max + 1)]
        assert report.upper_sequence.ideal_used == (
            ring.maximal_ideal().generators
        )
        with monkeypatch.context() as patch:
            patch.setattr(entropy_module, "_standard_count", one_over)
            faulty = sandwich(ring, phi, sequence, [0.0], n_max)
        assert [row.length for row in faulty.upper_sequence.rows] == upper
        assert [row.length for row in faulty.lower_sequence.rows] != [
            row.length for row in report.lower_sequence.rows
        ]
    assert limits == []


def test_sandwich_counts_the_validated_sequence(monkeypatch):
    # the lower counts are taken on the sequence as _koszul_lengths
    # validated it, as written and unswept, and the upper ones record the
    # unit vectors of m: no ideal is built and m is never asked for
    built, asked = [], []
    init, maximal = MonomialIdeal.__init__, RingSpec.maximal_ideal

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_maximal(ring):
        asked.append(ring)
        return maximal(ring)

    quotient = RingSpec(3, 2, minimalize({(1, 1)}))
    cases = [
        (R2, MonomialMap.diagonal((2, 3), R2), None),
        (R2, MonomialMap.diagonal((2, 3), R2), [(2, 0), [0, 1], (2, 0), (3, 1)]),
        (quotient, MonomialMap.frobenius(quotient), None),
        (quotient, MonomialMap.frobenius(quotient), [(1, 0), (0, 2), (1, 1)]),
    ]
    units = ((0, 1), (1, 0))
    for ring, phi, sequence in cases:
        validated = units if sequence is None else tuple(map(tuple, sequence))
        expected = local_entropy_sequence(ring, phi, minimalize(validated), 3)
        del built[:], asked[:]
        with monkeypatch.context() as patch:
            patch.setattr(MonomialIdeal, "__init__", counted_init)
            patch.setattr(RingSpec, "maximal_ideal", counted_maximal)
            report = sandwich(ring, phi, sequence, [0.0, 1.0], 3)
        assert (built, asked) == ([], []), (ring, sequence)
        assert report.lower_sequence.ideal_used == validated
        assert report.lower_sequence.rows == expected.rows
        if ring.regular:
            assert report.upper_sequence.ideal_used == units


def test_sandwich_rejects_a_map_not_of_finite_length_first():
    # the lower counts come first: a map that is not of finite length is a
    # failed hypothesis, not "not a monomial matrix" from the matrix reader
    collapse = MonomialMap.from_columns([(1, 1), (1, 1)], R2)
    for sequence in (None, [(2, 0), (0, 1)]):
        with pytest.raises(NotFiniteLengthError):
            sandwich(R2, collapse, sequence, [0.0], 3)


def test_sandwich_violations_compare_tower_counts():
    # U_n <= L_n <= peak * U_n on the integers, at every n; a count moved
    # by one past either side is named with its n
    phi = MonomialMap.diagonal((2, 3), R2)
    report = sandwich(R2, phi, [(2, 0), (0, 3)], [-1.0, 0.0], 4)
    assert report.profile.peak == 6
    assert not sandwich_violations(report)

    def with_lower(lengths):
        rows = tuple(_fake_sequence(lengths).rows)
        return report._replace(
            lower_sequence=report.lower_sequence._replace(rows=rows)
        )

    upper = [row.length for row in report.upper_sequence.rows]
    assert [row.length for row in report.lower_sequence.rows] == [
        6 * u for u in upper
    ]
    # at the top of the bracket, L_n = peak * U_n
    high = [6 * u for u in upper]
    high[2] += 1
    assert sandwich_violations(with_lower(high)) == [
        f"n=3: lower tower count {high[2]} lies outside "
        f"[{upper[2]}, {6 * upper[2]}]"
    ]
    low = [6 * u for u in upper]
    low[1] = upper[1] - 1
    assert sandwich_violations(with_lower(low)) == [
        f"n=2: lower tower count {low[1]} lies outside "
        f"[{upper[1]}, {6 * upper[1]}]"
    ]


def _bracket(seq, rate):
    """The rate bracket of ``seq`` at ``rate``, with the matrix and the
    faces read as the verify suites read them."""
    matrix = entropy_module._monomial_matrix(seq.map)
    faces = entropy_module._maximal_faces(seq.map.ring)
    return _rate_bracket_violations(seq, rate, matrix, faces)


def _lengths(phi, n_max=8):
    seq = local_entropy_sequence(phi.ring, phi, None, n_max)
    assert not _bracket(seq, exact_rate(phi)), phi
    lengths = tuple(row.length for row in seq.rows)
    assert lengths == pivot_lengths(phi, range(1, n_max + 1))
    return lengths


def test_diagonal_closed_form():
    ring = RingSpec.polynomial(0, 3)
    diag = MonomialMap.diagonal((2, 3, 5), ring)
    assert _lengths(diag, 6) == tuple(30**n for n in range(1, 7))
    assert exact_rate(diag) == (30, 1)
    identity = MonomialMap.diagonal((1, 1, 1), ring)
    assert _lengths(identity, 3) == (1, 1, 1)
    assert log_rate(exact_rate(identity)) == 0.0
    square = MonomialMap.diagonal((4, 4), R2)
    assert exact_rate(square) == (16, 1)
    assert abs(log_rate(exact_rate(square)) - 4 * math.log(2)) < 1e-12
    # k[X,Y]/(XY) with (2, 3): 2^n + 3^n - 1; with Z -> Z^5 the face {X, Z}
    # wins, and (XY, YZ) leaves the faces {X, Z} and {Y}
    cross = RingSpec(0, 2, minimalize({(1, 1)}))
    phi = MonomialMap.diagonal((2, 3), cross)
    lengths = _lengths(phi)
    assert lengths == tuple(2 ** n + 3 ** n - 1 for n in range(1, 9))
    assert exact_rate(phi) == (3, 1)
    for quotient, expected in (({(1, 1, 0)}, 15), ({(1, 1, 0), (0, 1, 1)}, 10)):
        ring = RingSpec(0, 3, minimalize(quotient))
        assert exact_rate(MonomialMap.diagonal((2, 3, 5), ring)) == (expected, 1)
    # a permutation of period 2 takes half the log of the cycle's product
    swap = MonomialMap.from_columns([(0, 2), (3, 0)], R2)
    assert _lengths(swap, 4) == (6, 36, 216, 1296)
    assert exact_rate(swap) == (36, 2)
    assert abs(log_rate(exact_rate(swap)) - math.log(6)) < 1e-12
    with pytest.raises(ValueError, match="not a monomial matrix"):
        exact_rate(MonomialMap(((1, 0), (1, 1)), R2))
    # the lengths start at n = 1, on a polynomial ring and on a quotient
    for psi, n_max in ((swap, 0), (square, -1), (phi, 0)):
        with pytest.raises(ValueError, match="n_max"):
            local_entropy_sequence(psi.ring, psi, None, n_max)


def test_rate_bracket_catches_a_wrong_face_or_rate(monkeypatch):
    # X -> Y, Y -> X^2 on k[X,Y]/(X^3 Y^2): C = 11 corners of [0,3] x [0,2]
    # are standard, and the faces {X}, {Y} give low_n = 2, 2, 4, 4, ...
    spec = parse_spec(Path(__file__).parent.parent / "specs" / "transfer_swap.ring")
    seq = local_entropy_sequence(spec.ring, spec.map, None, 8)
    assert [row.length for row in seq.rows] == [2, 4, 8, 14, 22, 34, 50, 74]
    assert exact_rate(spec.map) == (2, 2)
    assert not _bracket(seq, (2, 2))
    # with every subset a face, in exact_rate too, low_4 = 16 exceeds l_4 = 14
    monkeypatch.setattr(entropy_module, "_faces", lambda q, d: list(range(1 << d)))
    assert (_bracket(seq, exact_rate(spec.map))[0]
            == "n=4: length 14 lies outside [16, 11 * 16]")
    monkeypatch.undo()
    # a wrong rate breaks the second check alone, at every even n
    assert _bracket(seq, (3, 2)) == [
        f"n={n}: the largest face product {2 ** (n // 2)} is not 3^{n // 2}"
        for n in (2, 4, 6, 8)
    ]
    # a length one past C * low_n, or one below low_n, is named with its n
    rows = list(seq.rows)
    rows[0] = rows[0]._replace(length=11 * 2 + 1)
    rows[3] = rows[3]._replace(length=3)
    assert _bracket(seq._replace(rows=tuple(rows)), (2, 2)) == [
        "n=1: length 23 lies outside [2, 11 * 2]",
        "n=4: length 3 lies outside [4, 11 * 4]",
    ]


def test_regular_closed_form_rate_is_the_face_table_maximum():
    # on a polynomial ring every set of variables is a face; the rate must
    # equal, to the bit, the largest face product of a table built here
    rng = random.Random(4099)
    for _ in range(200):
        dim = rng.randint(1, 4)
        perm = rng.sample(range(dim), dim)
        exps = [rng.randint(1, 5) for _ in range(dim)]
        cols = [tuple(exps[j] if t == perm[j] else 0 for t in range(dim))
                for j in range(dim)]
        phi = MonomialMap.from_columns(cols, RingSpec.polynomial(0, dim))
        cycles = []
        for i in range(dim):
            orbit, j = [i], perm[i]
            while j != i:
                orbit, j = orbit + [j], perm[j]
            cycles.append((len(orbit), math.prod(exps[j] for j in orbit)))
        period = math.lcm(*(k for k, _ in cycles))
        table = [
            math.prod(product ** (period // k)
                      for i, (k, product) in enumerate(cycles) if face >> i & 1)
            for face in range(1 << dim)
        ]
        assert exact_rate(phi) == (max(table), period)


def test_frobenius_prediction():
    def frobenius_rate(ring):
        return log_rate(exact_rate(MonomialMap.frobenius(ring)))

    assert abs(frobenius_rate(RingSpec.polynomial(2, 2)) - 2 * math.log(2)) < 1e-12
    cross = RingSpec(3, 2, minimalize({(1, 1)}))
    assert abs(frobenius_rate(cross) - math.log(3)) < 1e-12
    # zero-dimensional quotient: the rate degenerates to 0
    assert frobenius_rate(RingSpec(5, 1, minimalize({(1,)}))) == 0.0
    # the paper's d log p, on random quotients
    rng = random.Random(1729)
    for _ in range(60):
        dim, p = rng.randint(1, 4), rng.choice((2, 3, 5))
        quotient = [tuple(rng.randint(0, 2) for _ in range(dim))
                    for _ in range(rng.randint(0, 3))]
        ring = RingSpec(p, dim, minimalize([g for g in quotient if any(g)], dim))
        expected = krull_dimension(ring.quotient, dim) * math.log(p)
        assert abs(frobenius_rate(ring) - expected) < 1e-12


def _monomial_matrix_case(rng):
    """A random monomial-matrix map on a random quotient.  Half the drawn
    quotient generators come with their images under the permutation; a
    draw on which the map is not well defined is drawn again."""
    dim, char = rng.randint(1, 3), rng.choice((0, 2, 3))
    perm = rng.sample(range(dim), dim)
    exps = [rng.randint(1, 3) for _ in range(dim)]
    if char and rng.random() < 0.3:
        perm, exps = list(range(dim)), [char] * dim
    quotient = set()
    for _ in range(rng.randint(0, 3)):
        g = [rng.randint(0, 2) for _ in range(dim)]
        for _ in range(dim if rng.random() < 0.5 else 1):
            quotient.add(tuple(g))
            g = [g[perm.index(i)] for i in range(dim)]
    ring = RingSpec(char, dim, minimalize([g for g in quotient if any(g)], dim))
    columns = [tuple(exps[j] if i == perm[j] else 0 for i in range(dim))
               for j in range(dim)]
    try:
        return MonomialMap.from_columns(columns, ring), perm != sorted(perm)
    except ValueError:
        return _monomial_matrix_case(rng)


def test_monomial_matrix_lengths_meet_the_bracket_and_the_pivot_count_random():
    rng = random.Random(6174)
    permuted = 0
    for _ in range(320):
        phi, is_permuted = _monomial_matrix_case(rng)
        n_max = rng.randint(1, 8)
        # the engine's lengths equal the pivot count and meet the bracket
        _lengths(phi, n_max)
        # every cycle length of a permutation of at most 3 variables
        # divides 6, so far out the lengths grow by e^(6 rate) every 6 steps
        far, farther = pivot_lengths(phi, (120, 126))
        rate = log_rate(exact_rate(phi))
        assert abs(int_log(farther) - int_log(far) - 6 * rate) < 1e-6
        permuted += is_permuted
    assert permuted >= 100


def test_ideal_independence_envelope():
    phi = MonomialMap.diagonal((2, 3), R2)
    q = minimalize({(2, 0), (0, 3)})
    seq_q = local_entropy_sequence(R2, phi, q, 8)
    seq_m = local_entropy_sequence(R2, phi, None, 8)
    assert abs(estimate_limit(seq_q) - estimate_limit(seq_m)) < 1e-9
    for row_q, row_m in zip(seq_q.rows, seq_m.rows):
        assert row_q.length == 6 * row_m.length
        gap = row_q.log_average - row_m.log_average
        assert abs(gap - math.log(6) / row_q.n) < 1e-9


def test_transfer_check_frobenius_square():
    ring = RingSpec.polynomial(2, 2)
    frob = MonomialMap.frobenius(ring)
    square = TransferSquare(ring, ring, ((1, 0), (0, 1)), frob, frob)
    report = transfer_check(square)
    assert report.agree
    # |det| = 4 on both sides: the rate is log(4)/1 = 2 log 2
    assert report.source_rate == report.target_rate == (4, 1)
    assert report.conclusion == (
        "pullback entropy of the target map is constant in t and equal to "
        f"{2 * math.log(2):.12g}"
    )


def test_transfer_check_rejects_broken_square():
    ring = RingSpec.polynomial(2, 2)
    frob = MonomialMap.frobenius(ring)
    broken = TransferSquare(
        ring, ring, ((1, 0), (0, 1)), frob, MonomialMap.diagonal((2, 3), ring)
    )
    with pytest.raises(SquareCommutationError):
        transfer_check(broken)


def test_transfer_check_disagreement_reports_chain():
    source = RingSpec.polynomial(3, 2)
    target = RingSpec(3, 2, minimalize({(1, 1)}))
    psi = MonomialMap.diagonal((2, 3), source)
    phi = MonomialMap.diagonal((2, 3), target)
    square = TransferSquare(source, target, ((1, 0), (0, 1)), psi, phi)
    report = transfer_check(square)
    assert not report.agree
    # the faces of XY are {X} and {Y}: the target rate is log 3, not log 6
    assert (report.source_rate, report.target_rate) == ((6, 1), (3, 1))
    assert report.conclusion == (
        "rates differ; only the one-sided chain holds: "
        f"{math.log(3):.12g} <= functor entropy <= {math.log(6):.12g}"
    )


def test_monomial_matrix_helper_raises_a_hypothesis_error():
    # one reader of the matrix: the exact rate, the transfer check and the
    # suites all refuse the same maps the same way, and the rate bracket
    # takes the matrix that the suites read
    shear = MonomialMap(((1, 0), (1, 1)), R2)
    for call in (entropy_module._monomial_matrix, exact_rate):
        with pytest.raises(HypothesisError) as info:
            call(shear)
        assert type(info.value) is HypothesisError
        assert str(info.value) == "map is not a monomial matrix"
    assert _suites(shear) == (None, [])
    swap = MonomialMap.from_columns([(0, 2), (3, 0)], R2)
    assert entropy_module._monomial_matrix(swap) == ([1, 0], [3, 2])
    assert _suites(swap) == (([1, 0], [3, 2]), ["monomial-matrix"])
    assert exact_rate(swap) == (36, 2)


def test_transfer_check_needs_a_monomial_matrix_target():
    # X -> XY, Y -> Y^2 on k[X,Y]/(X^2) has rate log 2 but is not a monomial
    # matrix; its square is refused rather than given a float verdict
    target = RingSpec(0, 2, minimalize({(2, 0)}))
    source = RingSpec.polynomial(0, 1)
    phi = MonomialMap.from_columns([(1, 1), (0, 2)], target)
    psi = MonomialMap.diagonal((2,), source)
    square = TransferSquare(source, target, ((0, 1),), psi, phi)
    with pytest.raises(HypothesisError, match="^map is not a monomial matrix$"):
        transfer_check(square)


def test_transfer_agreement_matches_the_closed_form_rates():
    # psi and phi share a monomial matrix, phi on a random quotient: the
    # integer verdict agrees exactly when the float rates do
    rng = random.Random(8128)
    outcomes = set()
    with_quotient = 0
    for _ in range(240):
        phi, _ = _monomial_matrix_case(rng)
        ring = phi.ring
        source = RingSpec.polynomial(ring.characteristic, ring.dim_ambient)
        psi = MonomialMap(phi.matrix, source)
        identity = tuple(
            tuple(int(i == j) for i in range(ring.dim_ambient))
            for j in range(ring.dim_ambient)
        )
        report = transfer_check(TransferSquare(source, ring, identity, psi, phi))
        rates = [log_rate(exact_rate(f)) for f in (psi, phi)]
        assert report.agree == (abs(rates[0] - rates[1]) < 1e-12), phi
        outcomes.add(report.agree)
        with_quotient += bool(ring.quotient.generators)
    assert outcomes == {True, False}
    assert 40 <= with_quotient <= 200
