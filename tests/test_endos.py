"""Monomial endomorphisms, iteration, image ideals, transfer squares."""

import random
import re

import pytest

from entrolab import (
    MonomialMap,
    NotFiniteLengthError,
    RingSpec,
    TransferSquare,
    check_square,
    colength,
    colength_bruteforce,
    image_ideal,
    is_finite_length,
    ideal_sum,
    iterate,
    minimalize,
)

from entrolab.cli import _suites
from entrolab.endos import _matmul, _matpow, _matvec
from entrolab.errors import DimensionMismatchError
from entrolab.monomials import _pure_powers
from helpers import divides

R2 = RingSpec.polynomial(0, 2)
SWAP = MonomialMap.from_columns([(0, 2), (3, 0)], R2)  # X -> Y^2, Y -> X^3


def _random_map(rng, ring, max_entry=3):
    d = ring.dim_ambient
    while True:
        cols = [
            tuple(rng.randint(0, max_entry) for _ in range(d)) for _ in range(d)
        ]
        if all(sum(c) > 0 for c in cols):
            try:
                return MonomialMap.from_columns(cols, ring)
            except ValueError:
                continue


def test_matvec_maps_a_monomial():
    diag = MonomialMap.diagonal((2, 3), R2)
    assert _matvec(diag.matrix, (1, 1)) == (2, 3)
    ident = MonomialMap.diagonal((1, 1), R2)
    assert _matvec(ident.matrix, (4, 7)) == (4, 7)
    assert _matvec(SWAP.matrix, (1, 0)) == (0, 2)
    assert _matvec(SWAP.matrix, (0, 1)) == (3, 0)


def test_matmul_and_iterate():
    diag = MonomialMap.diagonal((2, 3), R2)
    assert _matmul(diag.matrix, diag.matrix) == ((4, 0), (0, 9))
    ident = MonomialMap.diagonal((1, 1), R2)
    assert _matmul(diag.matrix, ident.matrix) == diag.matrix
    assert _matmul(SWAP.matrix, SWAP.matrix) == ((6, 0), (0, 6))
    assert iterate(diag, 5).matrix == ((32, 0), (0, 243))
    frob = MonomialMap.frobenius(RingSpec.polynomial(2, 2))
    assert iterate(frob, 3).matrix == ((8, 0), (0, 8))
    assert iterate(SWAP, 2).matrix == ((6, 0), (0, 6))
    with pytest.raises(ValueError):
        iterate(diag, 0)


def test_matmul_matches_matvec():
    # the product of two maps' matrices maps a monomial as the maps in turn
    rng = random.Random(3)
    for _ in range(30):
        a = _random_map(rng, R2).matrix
        b = _random_map(rng, R2).matrix
        v = tuple(rng.randint(0, 4) for _ in range(2))
        assert _matvec(_matmul(a, b), v) == _matvec(a, _matvec(b, v))


def test_matmul_associative_and_iterate_consistent():
    rng = random.Random(9)
    ring = RingSpec.polynomial(0, 3)
    for _ in range(15):
        a, b, c = (_random_map(rng, ring).matrix for _ in range(3))
        assert _matmul(_matmul(a, b), c) == _matmul(a, _matmul(b, c))
    phi = _random_map(rng, ring)
    power = phi.matrix
    for n in range(2, 7):
        power = _matmul(phi.matrix, power)
        assert iterate(phi, n).matrix == power


def test_image_ideal():
    m = R2.maximal_ideal()
    diag = MonomialMap.diagonal((2, 3), R2)
    assert image_ideal(diag, m).generators == ((0, 3), (2, 0))
    ident = MonomialMap.diagonal((1, 1), R2)
    q = minimalize({(2, 1), (0, 3)})
    assert image_ideal(ident, q) == q
    assert image_ideal(SWAP, m).generators == ((0, 2), (3, 0))


def test_image_ideal_iterate_recursion():
    rng = random.Random(21)
    ring = RingSpec.polynomial(0, 3)
    m = ring.maximal_ideal()
    for _ in range(10):
        phi = _random_map(rng, ring)
        for n in range(2, 5):
            lhs = image_ideal(iterate(phi, n), m)
            rhs = image_ideal(phi, image_ideal(iterate(phi, n - 1), m))
            assert lhs == rhs


def test_is_finite_length():
    collapse = MonomialMap.from_columns([(1, 1), (1, 1)], R2)
    assert not is_finite_length(collapse)
    assert is_finite_length(MonomialMap.diagonal((2, 3), R2))
    quotient = RingSpec(5, 2, minimalize({(1, 1)}))
    assert is_finite_length(MonomialMap.frobenius(quotient))


def test_finite_length_iff_monomial_matrix_on_regular_rings():
    rng = random.Random(33)
    for _ in range(120):
        dim = rng.randint(1, 4)
        ring = RingSpec.polynomial(0, dim)
        phi = _random_map(rng, ring, max_entry=2)
        assert is_finite_length(phi) == ("monomial-matrix" in _suites(phi)[1])


def test_monomial_matrix_determinant_growth():
    rng = random.Random(41)
    for _ in range(20):
        dim = rng.randint(1, 3)
        ring = RingSpec.polynomial(0, dim)
        perm = list(range(dim))
        rng.shuffle(perm)
        cols = []
        for j in range(dim):
            col = [0] * dim
            col[perm[j]] = rng.randint(1, 3)
            cols.append(tuple(col))
        phi = MonomialMap.from_columns(cols, ring)
        det = 1
        for c in cols:
            det *= max(c)
        m = ring.maximal_ideal()
        for n in range(1, 5):
            ideal = image_ideal(iterate(phi, n), m)
            assert colength(ideal, ring) == det ** n
            if det ** n <= 4096:
                assert colength_bruteforce(ideal, ring) == det ** n


def test_map_validation():
    with pytest.raises(ValueError, match="column 2 is zero"):
        MonomialMap.from_columns([(2, 0), (0, 0)], R2)
    quotient = RingSpec(0, 2, minimalize({(1, 1)}))
    # X -> X^2, Y -> X^3 sends XY to X^5, which leaves (XY)
    with pytest.raises(ValueError, match="not well defined"):
        MonomialMap.from_columns([(2, 0), (3, 0)], quotient)
    # the Frobenius keeps XY inside (XY)
    MonomialMap.diagonal((3, 3), quotient)


def _naive_product(a, b):
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(len(b)))
              for j in range(len(b[0])))
        for i in range(len(a))
    )


def test_kernels_match_a_triple_loop():
    # square matrices, and the rectangular Xi . A_psi and A_phi . Xi of
    # check_square: Xi is dt x ds, A_psi ds x ds and A_phi dt x dt
    rng = random.Random(2023)

    def rand(rows, cols):
        return tuple(
            tuple(rng.randint(0, 9) for _ in range(cols)) for _ in range(rows)
        )

    for _ in range(200):
        d = rng.randint(1, 4)
        a, b = rand(d, d), rand(d, d)
        assert _matmul(a, b) == _naive_product(a, b)
        v = tuple(rng.randint(0, 9) for _ in range(d))
        assert _matvec(a, v) == tuple(
            row[0] for row in _naive_product(a, tuple((e,) for e in v))
        )
        power = a
        for n in range(1, 6):
            assert _matpow(a, n) == power
            power = _naive_product(power, a)
        ds, dt = rng.randint(1, 4), rng.randint(1, 4)
        xi = rand(dt, ds)
        psi, phi = rand(ds, ds), rand(dt, dt)
        assert _matmul(xi, psi) == _naive_product(xi, psi)
        assert _matmul(phi, xi) == _naive_product(phi, xi)
        ring = RingSpec.polynomial(0, d)
        cols = tuple(
            tuple(rng.randint(0, 3) for _ in range(d - 1)) + (rng.randint(1, 3),)
            for _ in range(d)
        )
        assert MonomialMap.from_columns(cols, ring).columns == cols


def test_map_error_messages():
    # the checks run in this order: size, sign, zero column, quotient
    def fails(error, message, matrix, ring=R2):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            MonomialMap(matrix, ring)

    fails(DimensionMismatchError, "matrix must be 2x2", ((1, 0, 0), (0, 1, 0)))
    fails(DimensionMismatchError, "matrix must be 2x2", ((-1, 0, 0), (0, 0)))
    fails(ValueError, "matrix entries must be nonnegative", ((1, 0), (0, -1)))
    fails(ValueError, "matrix entries must be nonnegative", ((0, 0), (0, -1)))
    fails(ValueError, "map column 1 is zero (not a local endomorphism)",
          ((0, 0), (0, 2)))
    fails(ValueError, "map column 2 is zero (not a local endomorphism)",
          ((1, 0), (2, 0)))
    quotient = RingSpec(0, 2, minimalize({(1, 1)}))
    fails(ValueError, "map is not well defined on the quotient: the image of "
          "generator (1, 1) leaves the quotient ideal", ((2, 3), (0, 0)),
          quotient)
    with pytest.raises(DimensionMismatchError,
                       match="^expected 2 columns of length 2$"):
        MonomialMap.from_columns([(1, 0), (0, 1, 0)], R2)


def test_well_definedness_matches_quadratic_definition():
    # accepted iff every quotient generator's image is divided by some
    # quotient generator
    rng = random.Random(808)
    accepted = rejected = 0
    for _ in range(300):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if sum(g)] or [(1,) * d]
        ring = RingSpec(0, d, minimalize(gens, d))
        cols = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(d)]
        if not all(sum(c) for c in cols):
            continue
        images = [
            tuple(sum(cols[j][i] * g[j] for j in range(d)) for i in range(d))
            for g in ring.quotient.generators
        ]
        expected = all(
            any(divides(h, image) for h in ring.quotient.generators)
            for image in images
        )
        if expected:
            MonomialMap.from_columns(cols, ring)
            accepted += 1
        else:
            with pytest.raises(ValueError, match="not well defined"):
                MonomialMap.from_columns(cols, ring)
            rejected += 1
    assert accepted > 30 and rejected > 30


def test_transfer_square_checks():
    ring = RingSpec.polynomial(2, 2)
    frob = MonomialMap.frobenius(ring)
    square = TransferSquare(ring, ring, ((1, 0), (0, 1)), frob, frob)
    assert check_square(square)

    # variable inclusion k[U] -> k[X1,X2]: U -> X2, psi(U) = U^3, phi = diag(2,3)
    line = RingSpec.polynomial(0, 1)
    psi = MonomialMap.diagonal((3,), line)
    phi = MonomialMap.diagonal((2, 3), R2)
    with pytest.raises(NotFiniteLengthError):
        TransferSquare(line, R2, ((0, 1),), psi, phi)
    # the quotient may hold the pure powers the joining map lacks
    target = RingSpec(0, 2, minimalize({(0, 2)}))
    TransferSquare(line, target, ((1, 0),), psi, MonomialMap.diagonal((3, 1), target))
    with pytest.raises(ValueError, match=r"\(-1, 2\) has a negative entry"):
        TransferSquare(line, R2, ((-1, 2),), psi, phi)

    broken = TransferSquare(
        ring, ring, ((1, 0), (0, 1)), frob, MonomialMap.diagonal((2, 3), ring)
    )
    assert not check_square(broken)

    with pytest.raises(ValueError, match="regular"):
        TransferSquare(
            RingSpec(2, 2, minimalize({(1, 1)})),
            ring,
            ((1, 0), (0, 1)),
            MonomialMap.frobenius(RingSpec(2, 2, minimalize({(1, 1)}))),
            frob,
        )


def test_transfer_square_checks_entries_before_the_maximal_ideal():
    # each xi vector is checked in turn: its length, then its entries, then
    # that it is not the unit; so a negative entry is named even when the
    # entries sum to 0
    plane = RingSpec.polynomial(2, 2)
    frob = MonomialMap.frobenius(plane)
    cases = [
        ([(-1, 1), (0, 1)], ValueError,
         r"exponent vector \(-1, 1\) has a negative entry"),
        ([(-1, 1, 0), (0, 1)], DimensionMismatchError,
         "image vectors must live in the target ring"),
        ([(0, 0), (-1, 1)], ValueError,
         "joining map must send variables into the maximal ideal"),
    ]
    for xi, error, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            TransferSquare(plane, plane, xi, frob, frob)
        assert type(info.value) is error, xi


def test_square_commutation_via_variable_inclusion():
    # k[U] -> k[X1,X2] with U -> X2 commutes with psi(U)=U^3, phi=diag(2,3)
    # at the matrix level even though the inclusion is not finite length;
    # check the raw identity on a finite-length square instead.
    quotient = RingSpec(3, 2, minimalize({(1, 1)}))
    source = RingSpec.polynomial(3, 2)
    psi = MonomialMap.diagonal((2, 3), source)
    phi = MonomialMap.diagonal((2, 3), quotient)
    square = TransferSquare(source, quotient, ((1, 0), (0, 1)), psi, phi)
    assert check_square(square)
    bad = TransferSquare(
        source, quotient, ((1, 0), (0, 1)), MonomialMap.diagonal((2, 4), source), phi
    )
    assert not check_square(bad)


def test_finite_length_extension_survives_image_sum():
    quotient = RingSpec(3, 2, minimalize({(1, 1)}))
    frob = MonomialMap.frobenius(quotient)
    m = quotient.maximal_ideal()
    extension = ideal_sum(quotient.quotient, image_ideal(frob, m))
    assert _pure_powers(extension.generators, 2) is not None
