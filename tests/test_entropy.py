"""Entropy sequences, limit extrapolation, bounds, and the transfer check."""

import math
import random
from pathlib import Path

import pytest

from entrolab import (
    EntropyRow,
    EntropySequence,
    MonomialMap,
    NotFiniteLengthError,
    NotRegularError,
    RingSpec,
    SandwichReport,
    SandwichRow,
    SquareCommutationError,
    TransferSquare,
    apply_to_monomial,
    colength,
    colength_bruteforce,
    complexity_upper_bound,
    estimate_limit,
    ideal_sum,
    image_ideal,
    int_log,
    is_finite_length,
    iterate,
    krull_dimension,
    local_entropy_sequence,
    minimalize,
    monomial_matrix_closed_form,
    sandwich,
    sandwich_violations,
    transfer_check,
)
import entrolab.endos as endos_module
import entrolab.entropy as entropy_module
import entrolab.monomials as monomials_module
from entrolab.monomials import _pure_powers
from entrolab.cli import BRUTE_BOX_CAP
from entrolab.koszul import (
    GeneratorProfile,
    KoszulComplex,
    generator_profile,
    h0_length,
    homology_lengths,
    pullback,
)
from entrolab.specfile import parse_spec
from helpers import count_calls, random_m_primary_ideal

R2 = RingSpec.polynomial(0, 2)
R3 = RingSpec.polynomial(0, 3)


def _fake_sequence(lengths):
    rows = tuple(
        EntropyRow(n, val, int_log(val) / n)
        for n, val in enumerate(lengths, start=1)
    )
    ring = RingSpec.polynomial(0, 1)
    return EntropySequence(rows, ring.maximal_ideal(),
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
    # n-th composed power, and box enumeration agrees where the box is small
    rng = random.Random(8128)
    brute = twins = diagonal = 0
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
            bounds = _pure_powers(ideal_sum(image, ring.quotient).generators, dim)
            if math.prod(bounds) <= BRUTE_BOX_CAP:
                assert row.length == colength_bruteforce(image, ring)
                brute += 1
        twins += twin_columns
        diagonal += phi.is_diagonal()
    assert brute > 100 and twins == 12 and diagonal < 24


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
    post_init = MonomialMap.__post_init__

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MonomialMap, "__post_init__", counted_post_init)
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
        first = [apply_to_monomial(phi, g) for g in ideal.generators]
        assert counts[0][0] == first
        assert len(seq.rows) == n_max


def test_sequence_maps_each_ideal_once(monkeypatch):
    # the finiteness test reads the first images instead of mapping the
    # maximal ideal once more
    path = Path(__file__).parent.parent / "specs" / "diagonal235.ring"
    spec = parse_spec(str(path))
    image_ideals = count_calls(monkeypatch, endos_module, "image_ideal")
    matrices, counts = _count_row_work(monkeypatch)
    seq = local_entropy_sequence(spec.ring, spec.map, None, 6)
    assert [row.length for row in seq.rows] == [30**n for n in range(1, 7)]
    assert image_ideals == []
    assert len(counts) == 6
    assert len({tuple(vectors) for vectors, _ in counts}) == 6
    assert len(matrices) == 3 * 6


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
    # on a regular ring the sequence drops nothing: a finite-length map is
    # a monomial matrix, so the images of minimal generators under any
    # iterate are minimal and distinct
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
        assert phi.is_monomial_matrix()
        finite += 1
        ideal = minimalize(random_m_primary_ideal(rng, dim, 4, 3), dim)
        for n in (1, 2, 3):
            power = iterate(phi, n)
            images = {apply_to_monomial(power, g) for g in ideal.generators}
            assert len(images) == len(ideal.generators)
            assert set(minimalize(images, dim).generators) == images
    assert finite >= 60


def test_sequence_row_work_is_one_table(monkeypatch):
    # one feet table per row, the same number of ideals built whatever
    # n_max, and never more carried vectors than reference generators
    tables = count_calls(monkeypatch, monomials_module, "_divisor_tables")
    ideals = []
    post_init = monomials_module.MonomialIdeal.__post_init__

    def counted_post_init(self):
        ideals.append(self)
        post_init(self)

    monkeypatch.setattr(
        monomials_module.MonomialIdeal, "__post_init__", counted_post_init
    )
    _, counts = _count_row_work(monkeypatch)
    rng = random.Random(31)
    for k in range(16):
        ring, phi, ideal = _random_sequence_case(
            rng, 1 + k % 4, k % 2 == 1, False
        )
        for reference in (ideal, None):
            gens = len((reference or ring.maximal_ideal()).generators)
            built = set()
            for n_max in (1, 4, 8):
                tables.clear()
                ideals.clear()
                counts.clear()
                local_entropy_sequence(ring, phi, reference, n_max)
                built.add(len(ideals))
                assert len(tables) == n_max + len(ideals)
                assert all(len(vectors) <= gens for vectors, _ in counts)
            assert built == {0 if reference else 1}


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
    est = estimate_limit(seq)
    assert abs(est.estimate - math.log(30)) < 1e-9
    assert abs(est.least_squares_slope - math.log(30)) < 1e-9
    assert abs(est.difference) < 1e-9


def test_estimate_limit_affine_log():
    seq = _fake_sequence([6 * 6**n for n in range(1, 9)])
    est = estimate_limit(seq)
    assert abs(est.least_squares_slope - math.log(6)) < 1e-12
    assert abs(est.estimate - math.log(6)) < 1e-12
    assert abs(est.last_log_average - (math.log(6) + math.log(6) / 8)) < 1e-12


def test_estimate_limit_geometric_correction():
    seq = _fake_sequence([2 * 3**n - 1 for n in range(1, 11)])
    est = estimate_limit(seq)
    assert est.method == "accelerated-difference"
    assert abs(est.estimate - math.log(3)) < 1e-6


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


def test_sandwich_identity_map():
    ident = MonomialMap.diagonal((1, 1), R2)
    reports = sandwich(R2, ident, [(1, 0), (0, 1)], [0.0, 2.0], 4)
    for rep in reports:
        assert not sandwich_violations(rep)
        for row in rep.rows:
            assert abs(row.lower_logavg) < 1e-12
            assert abs(row.upper_logavg) < 1e-12
            assert abs(row.gap_bound) < 1e-12


def test_sandwich_requires_regular():
    # the upper bound requires a regular ring: elsewhere the rows are
    # lower-only, and the lower bound is still log(h0 of the n-th
    # pullback) less the profile shift, over n
    quotient = RingSpec(3, 2, minimalize({(1, 1)}))
    frob = MonomialMap.frobenius(quotient)
    x = [(1, 0), (0, 2)]
    reports = sandwich(quotient, frob, x, [-1.0, 0.5], 4)
    base = KoszulComplex(quotient, x)
    profile = generator_profile(homology_lengths(base))
    for rep in reports:
        assert rep.h_loc_reference is None
        assert not sandwich_violations(rep)
        assert [row.n for row in rep.rows] == [1, 2, 3, 4]
        for row in rep.rows:
            h0 = h0_length(pullback(base, iterate(frob, row.n)))
            shift = int_log(profile.peak) + profile.width * abs(rep.t)
            assert row.upper_logavg is None
            assert row.lower_logavg == (int_log(h0) - shift) / row.n
            assert row.gap_bound == shift / row.n
    # k[X,Y]/(XY, X^(3^n), Y^(2*3^n)) has length 3^(n+1) - 1
    assert [r.length for r in reports[0].lower_sequence.rows] == [8, 26, 80, 242]


def test_sandwich_monotone_chain_random():
    rng = random.Random(99)
    for _ in range(10):
        exps = tuple(rng.randint(1, 4) for _ in range(2))
        phi = MonomialMap.diagonal(exps, R2)
        seq = [(rng.randint(1, 2), 0), (0, rng.randint(1, 2))]
        ts = [rng.uniform(-2, 2) for _ in range(3)]
        for rep in sandwich(R2, phi, seq, ts, 6):
            assert not sandwich_violations(rep)
            for row in rep.rows:
                upper = complexity_upper_bound(R2, phi, row.n)
                assert row.upper_logavg == int_log(upper) / row.n


def test_sandwich_violations_flag_nan_rows():
    nan = float("nan")
    profile = GeneratorProfile(peak=1, width=0)
    for row in (
        SandwichRow(1, nan, 0.0, 0.0),
        SandwichRow(1, 0.0, nan, 0.0),
        SandwichRow(1, 0.0, 0.0, nan),
    ):
        report = SandwichReport(nan, (row,), profile, 0.0, _fake_sequence([1]))
        assert sandwich_violations(report)


def test_diagonal_closed_form():
    ring = RingSpec.polynomial(0, 3)
    lengths, rate = monomial_matrix_closed_form(
        MonomialMap.diagonal((2, 3, 5), ring), 6
    )
    assert lengths == tuple(30 ** n for n in range(1, 7))
    assert abs(rate - math.log(30)) < 1e-12
    identity = MonomialMap.diagonal((1, 1, 1), ring)
    assert monomial_matrix_closed_form(identity, 3) == ((1, 1, 1), 0.0)
    square = MonomialMap.diagonal((4, 4), R2)
    assert abs(monomial_matrix_closed_form(square)[1] - 4 * math.log(2)) < 1e-12
    # k[X,Y]/(XY) with (2, 3): 2^n + 3^n - 1; with Z -> Z^5 the face {X, Z}
    # wins, and (XY, YZ) leaves the faces {X, Z} and {Y}
    cross = RingSpec(0, 2, minimalize({(1, 1)}))
    lengths, rate = monomial_matrix_closed_form(MonomialMap.diagonal((2, 3), cross))
    assert lengths == tuple(2 ** n + 3 ** n - 1 for n in range(1, 9))
    assert abs(rate - math.log(3)) < 1e-12
    for quotient, expected in (({(1, 1, 0)}, 15), ({(1, 1, 0), (0, 1, 1)}, 10)):
        ring = RingSpec(0, 3, minimalize(quotient))
        rate = monomial_matrix_closed_form(MonomialMap.diagonal((2, 3, 5), ring))[1]
        assert abs(rate - math.log(expected)) < 1e-12
    # a permutation of period 2 takes half the log of the cycle's product
    swap = MonomialMap.from_columns([(0, 2), (3, 0)], R2)
    lengths, rate = monomial_matrix_closed_form(swap, 4)
    assert lengths == (6, 36, 216, 1296) and abs(rate - math.log(6)) < 1e-12
    with pytest.raises(ValueError, match="not a monomial matrix"):
        monomial_matrix_closed_form(MonomialMap(((1, 0), (1, 1)), R2))
    assert monomial_matrix_closed_form(swap, 0) == ((), rate)
    with pytest.raises(ValueError, match="n_max"):
        monomial_matrix_closed_form(square, -1)


def test_frobenius_prediction():
    def frobenius_rate(ring):
        return monomial_matrix_closed_form(MonomialMap.frobenius(ring), 0)[1]

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


def _closed_form_case(rng):
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
        return _closed_form_case(rng)


def test_monomial_matrix_closed_form_matches_the_engine_random():
    rng = random.Random(6174)
    permuted = 0
    for _ in range(320):
        phi, is_permuted = _closed_form_case(rng)
        n_max = rng.randint(1, 8)
        lengths, _ = monomial_matrix_closed_form(phi, n_max)
        seq = local_entropy_sequence(phi.ring, phi, None, n_max)
        assert lengths == tuple(row.length for row in seq.rows), phi
        # every cycle length of a permutation of at most 3 variables
        # divides 6, so far out the lengths grow by e^(6 rate) every 6 steps
        lengths, rate = monomial_matrix_closed_form(phi, 126)
        assert abs(int_log(lengths[125]) - int_log(lengths[119]) - 6 * rate) < 1e-6
        permuted += is_permuted
    assert permuted >= 100


def test_ideal_independence_envelope():
    phi = MonomialMap.diagonal((2, 3), R2)
    q = minimalize({(2, 0), (0, 3)})
    seq_q = local_entropy_sequence(R2, phi, q, 8)
    seq_m = local_entropy_sequence(R2, phi, None, 8)
    est_q = estimate_limit(seq_q).estimate
    est_m = estimate_limit(seq_m).estimate
    assert abs(est_q - est_m) < 1e-9
    for row_q, row_m in zip(seq_q.rows, seq_m.rows):
        gap = row_q.log_average - row_m.log_average
        assert abs(gap - math.log(6) / row_q.n) < 1e-9


def test_transfer_check_frobenius_square():
    ring = RingSpec.polynomial(2, 2)
    frob = MonomialMap.frobenius(ring)
    square = TransferSquare(ring, ring, ((1, 0), (0, 1)), frob, frob)
    report = transfer_check(square, 8)
    assert report.agree
    assert abs(report.shared_value - 2 * math.log(2)) < 1e-9
    assert "constant in t" in report.conclusion


def test_transfer_check_rejects_broken_square():
    ring = RingSpec.polynomial(2, 2)
    frob = MonomialMap.frobenius(ring)
    broken = TransferSquare(
        ring, ring, ((1, 0), (0, 1)), frob, MonomialMap.diagonal((2, 3), ring)
    )
    with pytest.raises(SquareCommutationError):
        transfer_check(broken, 8)


def test_transfer_check_disagreement_reports_chain():
    source = RingSpec.polynomial(3, 2)
    target = RingSpec(3, 2, minimalize({(1, 1)}))
    psi = MonomialMap.diagonal((2, 3), source)
    phi = MonomialMap.diagonal((2, 3), target)
    square = TransferSquare(source, target, ((1, 0), (0, 1)), psi, phi)
    report = transfer_check(square, 8)
    assert not report.agree
    assert report.shared_value is None
    assert report.target_estimate < report.source_estimate
    assert "one-sided chain" in report.conclusion
