"""Monomial endomorphisms of quotient rings and transfer squares.

An endomorphism sending each variable to a monomial is captured by the
d x d nonnegative integer matrix A whose column j is the exponent vector
of the image of X_j; on monomials it acts as v -> A.v and composition is
matrix multiplication.  Entries are Python ints, so iterates stay exact
no matter how fast the exponents grow.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import DimensionMismatchError, NotFiniteLengthError
from .monomials import (
    MonomialIdeal,
    RingSpec,
    Vec,
    _check_vec,
    _divisor_mask,
    _divisor_tables,
    _pure_powers,
)

Matrix = tuple[tuple[int, ...], ...]


def _matmul(a, b) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(m))
        for i in range(n)
    )


def _matvec(a, v: Vec) -> Vec:
    return tuple(sum(map(operator.mul, row, v)) for row in a)


@dataclass(frozen=True)
class MonomialMap:
    """A monomial endomorphism of ``ring``.

    ``matrix`` is stored row-major; column j is the exponent vector of the
    image of X_j.  Columns must be nonzero (the map is local) and on a
    proper quotient the map must send every quotient generator into the
    quotient ideal, so that it is well defined on the ring.
    """

    matrix: Matrix
    ring: RingSpec

    def __post_init__(self):
        d = self.ring.dim_ambient
        rows = tuple(tuple(int(e) for e in row) for row in self.matrix)
        if len(rows) != d or any(len(row) != d for row in rows):
            raise DimensionMismatchError(f"matrix must be {d}x{d}")
        if any(e < 0 for row in rows for e in row):
            raise ValueError("matrix entries must be nonnegative")
        object.__setattr__(self, "matrix", rows)
        for j in range(d):
            if all(rows[i][j] == 0 for i in range(d)):
                raise ValueError(
                    f"map column {j + 1} is zero (not a local endomorphism)"
                )
        quotient = self.ring.quotient.generators
        tables = _divisor_tables(quotient)
        for g in quotient:
            if not _divisor_mask(tables, _matvec(rows, g)):
                raise ValueError(
                    f"map is not well defined on the quotient: the image of "
                    f"generator {g} leaves the quotient ideal"
                )

    @property
    def columns(self) -> tuple[Vec, ...]:
        d = self.ring.dim_ambient
        return tuple(
            tuple(self.matrix[i][j] for i in range(d)) for j in range(d)
        )

    @classmethod
    def from_columns(cls, cols, ring: RingSpec) -> "MonomialMap":
        cols = [tuple(c) for c in cols]
        d = ring.dim_ambient
        if len(cols) != d or any(len(c) != d for c in cols):
            raise DimensionMismatchError(f"expected {d} columns of length {d}")
        rows = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
        return cls(rows, ring)

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


def apply_to_monomial(phi: MonomialMap, v: Vec) -> Vec:
    """Exponent vector of the image monomial: the matrix-vector product A.v."""
    if len(v) != phi.ring.dim_ambient:
        raise DimensionMismatchError(
            f"vector of length {len(v)} fed to a map on {phi.ring.dim_ambient} variables"
        )
    return _matvec(phi.matrix, tuple(int(e) for e in v))


def compose(phi: MonomialMap, psi: MonomialMap) -> MonomialMap:
    """First apply psi, then phi; the matrix is the product A_phi . A_psi."""
    if phi.ring != psi.ring:
        raise ValueError("cannot compose maps on different rings")
    return MonomialMap(_matmul(phi.matrix, psi.matrix), phi.ring)


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


@dataclass(frozen=True)
class TransferSquare:
    """A commuting-square candidate: psi acting on a regular source ring,
    phi on the target ring, joined by a finite-length homomorphism that
    sends the j-th source variable to the monomial with exponent vector
    ``xi_columns[j]``.

    Construction checks the finite-length requirement on the joining map;
    commutation itself is queried through ``check_square``.
    """

    source_ring: RingSpec
    target_ring: RingSpec
    xi_columns: tuple[Vec, ...]
    psi: MonomialMap
    phi: MonomialMap

    def __post_init__(self):
        cols = tuple(tuple(int(e) for e in c) for c in self.xi_columns)
        object.__setattr__(self, "xi_columns", cols)
        if not self.source_ring.regular:
            raise ValueError("source ring of a transfer square must be regular")
        if self.source_ring.characteristic != self.target_ring.characteristic:
            raise ValueError("transfer square rings must share a characteristic")
        if self.psi.ring != self.source_ring:
            raise ValueError("psi must act on the source ring")
        if self.phi.ring != self.target_ring:
            raise ValueError("phi must act on the target ring")
        if len(cols) != self.source_ring.dim_ambient:
            raise DimensionMismatchError(
                "need one image vector per source variable"
            )
        dt = self.target_ring.dim_ambient
        for c in cols:
            if len(c) != dt:
                raise DimensionMismatchError(
                    "image vectors must live in the target ring"
                )
            if sum(c) == 0:
                raise ValueError("joining map must send variables into the "
                                 "maximal ideal")
        for c in cols:  # exponent vectors: no negative entry
            _check_vec(c)
        if _pure_powers(self.target_ring.quotient.generators + cols, dt) is None:
            raise NotFiniteLengthError(
                "joining map of the transfer square is not of finite length"
            )

    def _xi_matrix(self) -> Matrix:
        dt = self.target_ring.dim_ambient
        ds = self.source_ring.dim_ambient
        return tuple(
            tuple(self.xi_columns[j][i] for j in range(ds)) for i in range(dt)
        )


def check_square(square: TransferSquare) -> bool:
    """True iff the square commutes on every source variable: the exponent
    matrices satisfy Xi . A_psi == A_phi . Xi."""
    xi = square._xi_matrix()
    return _matmul(xi, square.psi.matrix) == _matmul(square.phi.matrix, xi)
