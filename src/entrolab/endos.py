"""Monomial endomorphisms of quotient rings and transfer squares.

An endomorphism sending each variable to a monomial is captured by the
d x d nonnegative integer matrix A whose column j is the exponent vector
of the image of X_j; on monomials it acts as v -> A.v and composition is
matrix multiplication.  Entries are Python ints, so iterates stay exact
no matter how fast the exponents grow.
"""

from __future__ import annotations

import operator

from .errors import DimensionMismatchError, NotFiniteLengthError
from .monomials import (
    MonomialIdeal,
    RingSpec,
    Vec,
    _Value,
    _check_vec,
    _divisor_mask,
    _divisor_tables,
    _pure_powers,
)

Matrix = tuple[tuple[int, ...], ...]


def _matmul(a, b) -> Matrix:
    # b may be rectangular: its columns are read once
    cols = list(zip(*b))
    return tuple([
        tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a
    ])


def _matvec(a, v: Vec) -> Vec:
    return tuple([sum(map(operator.mul, row, v)) for row in a])


class MonomialMap(_Value):
    """A monomial endomorphism of ``ring``.

    ``matrix`` is stored row-major; column j is the exponent vector of the
    image of X_j.  Columns must be nonzero (the map is local) and on a
    proper quotient the map must send every quotient generator into the
    quotient ideal, so that it is well defined on the ring.
    """

    __slots__ = _fields = ("matrix", "ring")

    def __init__(self, matrix: Matrix, ring: RingSpec):
        d = ring.dim_ambient
        rows = tuple([tuple(map(int, row)) for row in matrix])
        if len(rows) != d or {*map(len, rows)} != {d}:
            raise DimensionMismatchError(f"matrix must be {d}x{d}")
        if min(map(min, rows)) < 0:
            raise ValueError("matrix entries must be nonnegative")
        if not all(map(any, zip(*rows))):
            j = [*map(any, zip(*rows))].index(False)
            raise ValueError(
                f"map column {j + 1} is zero (not a local endomorphism)"
            )
        quotient = ring.quotient.generators
        tables = quotient and _divisor_tables(quotient)  # none if regular
        for g in quotient:
            if not _divisor_mask(tables, _matvec(rows, g)):
                raise ValueError(
                    f"map is not well defined on the quotient: the image of "
                    f"generator {g} leaves the quotient ideal"
                )
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "ring", ring)

    @property
    def columns(self) -> tuple[Vec, ...]:
        return tuple(zip(*self.matrix))

    @classmethod
    def from_columns(cls, cols, ring: RingSpec) -> "MonomialMap":
        cols = [tuple(c) for c in cols]
        d = ring.dim_ambient
        if len(cols) != d or {*map(len, cols)} != {d}:
            raise DimensionMismatchError(f"expected {d} columns of length {d}")
        return cls(tuple(zip(*cols)), ring)

    @classmethod
    def diagonal(cls, exponents, ring: RingSpec) -> "MonomialMap":
        exps = tuple(int(e) for e in exponents)
        d = ring.dim_ambient
        if len(exps) != d:
            raise DimensionMismatchError(f"expected {d} diagonal exponents")
        rows = tuple(
            tuple(exps[i] if i == j else 0 for j in range(d)) for i in range(d)
        )
        return cls(rows, ring)

    @classmethod
    def frobenius(cls, ring: RingSpec) -> "MonomialMap":
        if ring.characteristic == 0:
            raise ValueError("Frobenius requires positive characteristic")
        return cls.diagonal((ring.characteristic,) * ring.dim_ambient, ring)


def _matpow(a, n: int) -> Matrix:
    # a^n, n >= 1, by binary exponentiation
    result = None
    while n:
        if n & 1:
            result = a if result is None else _matmul(result, a)
        n >>= 1
        if n:
            a = _matmul(a, a)
    return result


def iterate(phi: MonomialMap, n: int) -> MonomialMap:
    """The n-th iterate, n >= 1, by binary exponentiation of the matrix."""
    if n < 1:
        raise ValueError("iterate requires n >= 1")
    return MonomialMap(_matpow(phi.matrix, n), phi.ring)


def image_ideal(phi: MonomialMap, ideal: MonomialIdeal) -> MonomialIdeal:
    """The extension of ``ideal`` along phi, generated by the images of its
    generators."""
    if ideal.ambient_dim != phi.ring.dim_ambient:
        raise DimensionMismatchError(
            "ideal and map live in different variable counts"
        )
    images = tuple(_matvec(phi.matrix, g) for g in ideal.generators)
    return MonomialIdeal(images, ideal.ambient_dim)


def is_finite_length(phi: MonomialMap) -> bool:
    """True iff the extension of the maximal ideal, generated by the
    columns of the matrix, is primary to it modulo the quotient, i.e. the
    closed fiber of phi is zero dimensional."""
    ring = phi.ring
    gens = ring.quotient.generators + phi.columns
    return _pure_powers(gens, ring.dim_ambient) is not None


class TransferSquare(_Value):
    """A commuting-square candidate: psi acting on a regular source ring,
    phi on the target ring, joined by a finite-length homomorphism that
    sends the j-th source variable to the monomial with exponent vector
    ``xi_columns[j]``.

    Construction checks the finite-length requirement on the joining map;
    commutation itself is queried through ``check_square``.
    """

    __slots__ = _fields = (
        "source_ring", "target_ring", "xi_columns", "psi", "phi"
    )

    def __init__(
        self,
        source_ring: RingSpec,
        target_ring: RingSpec,
        xi_columns: tuple[Vec, ...],
        psi: MonomialMap,
        phi: MonomialMap,
    ):
        cols = tuple(tuple(int(e) for e in c) for c in xi_columns)
        if not source_ring.regular:
            raise ValueError("source ring of a transfer square must be regular")
        if source_ring.characteristic != target_ring.characteristic:
            raise ValueError("transfer square rings must share a characteristic")
        if psi.ring != source_ring:
            raise ValueError("psi must act on the source ring")
        if phi.ring != target_ring:
            raise ValueError("phi must act on the target ring")
        if len(cols) != source_ring.dim_ambient:
            raise DimensionMismatchError(
                "need one image vector per source variable"
            )
        dt = target_ring.dim_ambient
        for c in cols:
            if len(c) != dt:
                raise DimensionMismatchError(
                    "image vectors must live in the target ring"
                )
            _check_vec(c)  # before the sum: (-1, 1) sums to 0
            if sum(c) == 0:
                raise ValueError("joining map must send variables into the "
                                 "maximal ideal")
        if _pure_powers(target_ring.quotient.generators + cols, dt) is None:
            raise NotFiniteLengthError(
                "joining map of the transfer square is not of finite length"
            )
        object.__setattr__(self, "source_ring", source_ring)
        object.__setattr__(self, "target_ring", target_ring)
        object.__setattr__(self, "xi_columns", cols)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)


def check_square(square: TransferSquare) -> bool:
    """True iff the square commutes on every source variable: the exponent
    matrices satisfy Xi . A_psi == A_phi . Xi."""
    xi = tuple(zip(*square.xi_columns))
    return _matmul(xi, square.psi.matrix) == _matmul(square.phi.matrix, xi)
