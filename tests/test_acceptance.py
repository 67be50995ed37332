"""Acceptance checks: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

from entrolab import (
    KoszulComplex,
    MonomialMap,
    RingSpec,
    SquareCommutationError,
    TransferSquare,
    check_square,
    colength,
    colength_bruteforce,
    estimate_limit,
    homology_lengths,
    image_ideal,
    is_finite_length,
    iterate,
    local_entropy_sequence,
    minimalize,
    monomial_matrix_closed_form,
    sandwich,
    sandwich_violations,
    transfer_check,
)

from helpers import (
    dd_product_terms,
    koszul_homology_oracle,
    random_m_primary_ideal,
    random_monomial_sequence,
)

LOG2, LOG3, LOG6, LOG30 = (math.log(v) for v in (2, 3, 6, 30))


def test_criterion_1_diagonal_closed_form():
    started = time.perf_counter()
    ring = RingSpec.polynomial(0, 3)
    phi = MonomialMap.diagonal((2, 3, 5), ring)
    seq = local_entropy_sequence(ring, phi, None, 8)
    for row in seq.rows:
        assert row.length == 30 ** row.n
        assert abs(row.log_average - LOG30) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 (diagonal closed form, 30^n): PASS ({elapsed:.3f}s)")


def test_criterion_2_monomial_matrix_determinant():
    ring = RingSpec.polynomial(0, 2)
    phi = MonomialMap.from_columns([(0, 2), (3, 0)], ring)  # rows [[0,3],[2,0]]
    assert phi.matrix == ((0, 3), (2, 0))
    m = ring.maximal_ideal()
    for n in range(1, 7):
        length = colength(image_ideal(iterate(phi, n), m), ring)
        assert length == 6 ** n
    seq = local_entropy_sequence(ring, phi, None, 6)
    assert [row.length for row in seq.rows] == [6 ** n for n in range(1, 7)]
    est = estimate_limit(seq).estimate
    assert abs(est - LOG6) < 1e-9
    print("criterion 2 (monomial matrix, |det|^n = 6^n): PASS")


def test_criterion_3_frobenius_regular():
    ring = RingSpec.polynomial(2, 2)
    frob = MonomialMap.frobenius(ring)
    seq = local_entropy_sequence(ring, frob, None, 8)
    for row in seq.rows:
        assert row.length == 4 ** row.n
        assert abs(row.log_average - 2 * LOG2) < 1e-9
    lengths, rate = monomial_matrix_closed_form(frob, 8)
    assert lengths == tuple(row.length for row in seq.rows)
    assert abs(rate - 2 * LOG2) < 1e-12
    print("criterion 3 (regular Frobenius, 4^n and 2 log 2): PASS")


def test_criterion_4_frobenius_on_quotient():
    started = time.perf_counter()
    ring = RingSpec(3, 2, minimalize({(1, 1)}))
    frob = MonomialMap.frobenius(ring)
    seq = local_entropy_sequence(ring, frob, None, 8)
    m = ring.maximal_ideal()
    for row in seq.rows:
        assert row.length == 2 * 3 ** row.n - 1
        assert abs(row.log_average - LOG3) <= LOG2 / row.n + 1e-9
        if row.n <= 5:
            image = image_ideal(iterate(frob, row.n), m)
            assert colength_bruteforce(image, ring) == row.length
    lengths, rate = monomial_matrix_closed_form(frob, 8)
    assert lengths == tuple(row.length for row in seq.rows)
    assert abs(rate - LOG3) < 1e-12
    est = estimate_limit(seq).estimate
    assert abs(est - LOG3) < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 4 (quotient Frobenius, 2*3^n - 1): PASS ({elapsed:.3f}s)")


def test_criterion_5_complexity_sandwich():
    ring = RingSpec.polynomial(0, 2)
    phi = MonomialMap.diagonal((2, 3), ring)
    ts = [-1.0, 0.0, 1.0]

    reports = sandwich(ring, phi, [(1, 0), (0, 1)], ts, 8)
    for rep in reports:
        assert (rep.profile.peak, rep.profile.width) == (1, 0)
        assert not sandwich_violations(rep)
        for row in rep.rows:
            assert abs(row.lower_logavg - LOG6) < 1e-9
            assert abs(row.upper_logavg - LOG6) < 1e-9

    reports = sandwich(ring, phi, [(2, 0), (0, 3)], ts, 8)
    for rep in reports:
        assert (rep.profile.peak, rep.profile.width) == (6, 0)
        assert not sandwich_violations(rep)
        for row in rep.rows:
            gap = row.upper_logavg - row.lower_logavg
            assert abs(gap) <= LOG6 / row.n + 1e-12
            assert row.gap_bound <= LOG6 / row.n + 1e-12
            assert abs(row.lower_logavg - LOG6) <= LOG6 / row.n + 1e-9
            assert abs(row.upper_logavg - LOG6) <= LOG6 / row.n + 1e-9
    print("criterion 5 (lower/upper bounds collapse to log 6): PASS")


def test_criterion_6_reference_ideal_independence():
    ring = RingSpec.polynomial(0, 2)
    phi = MonomialMap.diagonal((2, 3), ring)
    q = minimalize({(2, 0), (0, 3)})
    seq_q = local_entropy_sequence(ring, phi, q, 8)
    seq_m = local_entropy_sequence(ring, phi, None, 8)
    assert abs(estimate_limit(seq_q).estimate - LOG6) < 1e-9
    assert abs(estimate_limit(seq_m).estimate - LOG6) < 1e-9
    for row_q, row_m in zip(seq_q.rows, seq_m.rows):
        diff = row_q.log_average - row_m.log_average
        assert abs(diff - LOG6 / row_q.n) < 1e-9
    print("criterion 6 (reference ideal independence): PASS")


def test_criterion_7_koszul_engine():
    rng = random.Random(424242)

    # differentials square to zero on 100 random complexes with m <= 4
    for _ in range(100):
        dim = rng.randint(1, 3)
        char = rng.choice((0, 2, 3, 5))
        if rng.random() < 0.4:
            jgen = tuple(rng.randint(0, 1) for _ in range(dim))
            if sum(jgen) == 0:
                jgen = (1,) * dim
            ring = RingSpec(char, dim, minimalize([jgen], dim))
        else:
            ring = RingSpec.polynomial(char, dim)
        seq = random_monomial_sequence(rng, dim, rng.randint(dim, 4))
        complex_ = KoszulComplex(ring, seq)
        assert not any(dd_product_terms(complex_).values())

    # concentration in degree zero for 50 random regular sequences
    for _ in range(50):
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
        assert lengths.length(0) == colength(minimalize(seq, dim), ring)
        assert all(lengths.length(-j) == 0 for j in range(1, dim + 1))

    # exact lengths against the per-multidegree rank oracle on a 2x region
    field_ring = RingSpec(2, 2, minimalize({(1, 1)}))
    complex_ = KoszulComplex(field_ring, [(1, 0), (0, 1)])
    lengths = homology_lengths(complex_)
    box = tuple(2 * s for s in lengths.region)
    oracle = koszul_homology_oracle(2, ((1, 1),), complex_.sequence, box)
    assert lengths.lengths == oracle == {0: 1, -1: 1, -2: 0}
    print("criterion 7 (Koszul engine: d.d = 0, concentration, rank oracle): PASS")


def test_criterion_8_colength_oracle_equivalence():
    rng = random.Random(31337)
    rings = {d: RingSpec.polynomial(0, d) for d in range(1, 5)}
    for _ in range(200):
        dim = rng.randint(1, 4)
        ideal = minimalize(random_m_primary_ideal(rng, dim, max_exp=6), dim)
        ring = rings[dim]
        assert colength(ideal, ring) == colength_bruteforce(ideal, ring)
    print("criterion 8 (cell sum == box enumeration, 200 ideals): PASS")


def test_criterion_9_transfer_square():
    ring = RingSpec.polynomial(2, 2)
    frob = MonomialMap.frobenius(ring)
    square = TransferSquare(ring, ring, ((1, 0), (0, 1)), frob, frob)
    assert check_square(square)
    assert is_finite_length(frob)
    report = transfer_check(square, 8)
    assert report.agree
    assert abs(report.shared_value - 2 * LOG2) < 1e-9

    broken = TransferSquare(
        ring, ring, ((1, 0), (0, 1)), frob,
        MonomialMap.diagonal((2, 3), ring),
    )
    assert not check_square(broken)
    try:
        transfer_check(broken, 8)
    except SquareCommutationError:
        pass
    else:
        raise AssertionError("broken square was not rejected")
    print("criterion 9 (transfer square: shared value 2 log 2): PASS")
