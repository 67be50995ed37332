"""Growth-rate estimators and certified complexity bounds for the derived
pullback along finite-length monomial endomorphisms.

Everything here reports finite-n data: length sequences, log averages, a
least-squares slope, and per-n lower/upper tower counts whose log averages
sandwich the functor entropy, besides the exact growth rate log(N)/L of a
monomial-matrix map, held as the integers (N, L), and the integer bracket
of the lengths that this rate stands on.  The bounds, the bracket and the
transfer verdict are checked on integers; only the slope is a float
estimate.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (
    HypothesisError,
    NotFiniteLengthError,
    NotRegularError,
    SquareCommutationError,
)
from .monomials import (
    MonomialIdeal,
    RingSpec,
    _check_same_dim,
    _divisor_mask,
    _faces,
    _pivot_count,
    _pure_powers,
    _standard_count,
    _units,
    colength,
)
from .endos import (
    MonomialMap,
    TransferSquare,
    _matvec,
    check_square,
    image_ideal,
    is_finite_length,
    iterate,
)
from .koszul import _koszul_lengths, generator_profile

_LN2 = math.log(2)


def int_log(n: int) -> float:
    """Natural log of a positive integer of any size.

    Splits off the high 64 bits so the float conversion never overflows;
    the relative error stays below 1e-12.
    """
    if n <= 0:
        raise ValueError("int_log requires a positive integer")
    shift = max(n.bit_length() - 64, 0)
    return math.log(n >> shift) + shift * _LN2


class EntropyRow(namedtuple("EntropyRow", "n length log_average log_length")):
    """One entry of a sequence: ``log_average`` is log(length) / n, and
    ``log_length`` is log(length), taken once for every reader."""

    __slots__ = ()


class EntropySequence(namedtuple("EntropySequence", "rows ideal_used map")):
    """Colength growth data for the iterates of a map against a fixed
    reference ideal; ``ideal_used`` holds the vectors counted: an ideal's
    generators, vectors as written, or the unit vectors of m."""

    __slots__ = ()


class SandwichRow(
    namedtuple("SandwichRow", "t n lower_logavg upper_logavg gap_bound")
):
    """One (t, n) row of a sandwich; ``upper_logavg`` is None when the
    upper bound is not certified, on a non-regular ring."""

    __slots__ = ()


class SandwichReport(
    namedtuple("SandwichReport", "rows profile lower_sequence upper_sequence")
):
    """Lower/upper complexity bounds in log-average form, a row per t and n.

    Row invariants: lower_logavg <= upper_logavg, and their gap is at most
    (log(peak) + width*|t|)/n.  ``lower_sequence`` holds the lower tower
    counts: the colengths of the iterate images of the validated Koszul
    sequence.  ``upper_sequence`` holds the upper ones, the lengths of
    R/phi^n(m) of the unit vectors, or None on a non-regular ring, whose
    rows carry the lower bound only.
    """

    __slots__ = ()


class TransferReport(
    namedtuple("TransferReport", "source_rate target_rate agree conclusion")
):
    """The verdict of a transfer square: each rate is held as (N, L), the
    rate being log(N)/L."""

    __slots__ = ()


def local_entropy_sequence(
    ring: RingSpec,
    phi: MonomialMap,
    ideal: MonomialIdeal | None = None,
    n_max: int = 8,
) -> EntropySequence:
    """lengths of ring/(n-th iterate image of the reference ideal) for
    n = 1..n_max, with their log averages.

    The reference ideal defaults to the maximal ideal; any ideal primary
    to it yields the same growth rate.  No power of phi and no ideal is
    built.  As I is primary to the maximal ideal m modulo the quotient J,
    phi(I) + J and phi(m) + J have the same radical, so phi is of finite
    length, read off its d columns, iff the images of I with J are primary
    to m.

    On a regular ring no image is counted: the length of row n is
    length(R/I) * |det A|^n, where |det A| is the product of the positive
    entries of phi's matrix A.  Finite length shows that A is a monomial
    matrix, phi(X_j) = X_pi(j)^e_j: d monomials, none of them 1, generate
    an m-primary ideal only as pure powers of distinct variables.  For any
    m-primary monomial ideal I', write u_pi(j) = e_j * q_j + r_j with
    0 <= r_j < e_j.  Then X^u lies in phi(I') iff e_j * g_j <= u_pi(j),
    that is g_j <= q_j, for all j and some generator g of I', iff X^q lies
    in I'.  So the standard monomials of phi(I') are the pairs of a
    standard monomial X^q of I' and a remainder r, and length(R/phi(I')) =
    prod(e_j) * length(R/I').  Taking I' = phi^(n-1)(I), down to I' = I,
    gives the rows.

    On a quotient by J each row maps the carried vectors by A, starting
    from the generators of I as given, and counts them with the quotient.
    The images that another image or a quotient generator divides are
    dropped before the next row, read off the row's feet table: phi(J)
    lies in J, so phi(I) + J = phi(I') + J whenever I + J = I' + J.
    """
    dim = ideal and ideal.ambient_dim
    return _entropy_pass(ring, phi, ideal and ideal.generators, n_max, dim)


def _entropy_pass(ring, phi, vectors, n_max, dim=None) -> EntropySequence:
    """``local_entropy_sequence`` on vectors of the ring's length, counted
    as written and kept as ``ideal_used``; ``dim`` is the dimension of the
    ideal they come from.  None means the unit vectors of m."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if phi.ring != ring:
        raise ValueError("map does not act on the given ring")
    quotient = ring.quotient.generators
    if vectors is None:
        vectors = _units(ring.dim_ambient)
    elif any(sum(g) == 0 for g in vectors):
        raise ValueError("reference ideal must be proper")
    else:
        if dim is not None:
            _check_same_dim(dim, ring.dim_ambient)
        if _pure_powers((*vectors, *quotient), ring.dim_ambient) is None:
            raise NotFiniteLengthError(
                "reference ideal is not primary to the maximal ideal"
            )
    if not is_finite_length(phi):
        raise NotFiniteLengthError("endomorphism is not of finite length")
    matrix, rows, used = phi.matrix, [], vectors
    if not quotient:
        length = _standard_count(vectors, ring)[0]
        det = math.prod(e for row in matrix for e in row if e)
        rows = [_row(n, length * det**n) for n in range(1, n_max + 1)]
        return EntropySequence(tuple(rows), used, phi)
    for n in range(1, n_max + 1):
        vectors = [_matvec(matrix, v) for v in vectors]
        length, gens, feet = _standard_count(vectors, ring)
        rows.append(_row(n, length))
        if n < n_max:
            # _divisor_mask stops at the d - 1 axes of the feet
            vectors = [
                g for k, g in enumerate(gens)
                if not _divisor_mask(feet, g) & ((1 << k) - 1)
                and g not in quotient
            ]
    return EntropySequence(tuple(rows), used, phi)


def _row(n: int, length: int) -> EntropyRow:
    log = int_log(length)
    return EntropyRow(n, length, log / n, log)


def estimate_limit(seq: EntropySequence) -> float:
    """The least-squares slope of log(length) against n over the final
    half of the rows of a sequence of at least 3 rows: a finite-n reading
    of the growth rate, not a certified one."""
    rows = seq.rows
    if len(rows) < 3:
        raise ValueError("estimate_limit needs at least 3 rows")
    points = [(r.n, r.log_length) for r in rows[len(rows) // 2:]]
    k = len(points)
    mean_x = sum(x for x, _ in points) / k
    mean_y = sum(y for _, y in points) / k
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


def complexity_upper_bound(ring: RingSpec, phi: MonomialMap, n: int) -> int:
    """Tower count bounding the complexity of the n-th pullback from above
    on a regular ring: the length of ring/(n-th iterate image of the
    maximal ideal).  Independent of t, since every tower step carries
    shift zero."""
    if phi.ring != ring:
        raise ValueError("map does not act on the given ring")
    if not ring.regular:
        raise NotRegularError(
            "the upper complexity bound is only certified over a regular ring"
        )
    if not is_finite_length(phi):
        raise NotFiniteLengthError("endomorphism is not of finite length")
    if n < 1:
        raise ValueError("n must be >= 1")
    return colength(image_ideal(iterate(phi, n), ring.maximal_ideal()), ring)


def sandwich(
    ring: RingSpec,
    phi: MonomialMap,
    sequence,
    t_values,
    n_max: int = 8,
) -> SandwichReport:
    """Rows sandwiching the pullback functor entropy at every t: the log
    averages of the certified lower and upper tower counts.

    The sequence (None for the variables) must generate, with the
    quotient, an ideal of finite colength; the generator profile comes
    from the Koszul complex on it.
    H^0 of its n-th pullback is the ring modulo the n-th iterate image of
    that ideal, so the lower tower count at n is that colength, counted on
    the validated sequence.  The upper count, the length of R/phi^n(m), is
    certified only over a regular ring.  There a finite-length map is a
    monomial matrix, so the upper count is |det A|^n, read off its matrix
    A and not from the colength engine behind the lower counts.  On any
    other ring the rows carry the lower bound only.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    units = _units(ring.dim_ambient)
    sequence, lengths = _koszul_lengths(
        ring, units if sequence is None else sequence
    )
    profile = generator_profile(lengths)
    # first, so that a map not of finite length raises NotFiniteLengthError
    # before _monomial_matrix can call it no monomial matrix
    lower_seq = _entropy_pass(ring, phi, sequence, n_max)
    upper_seq, upper = None, [None] * n_max
    if ring.regular:
        det = math.prod(_monomial_matrix(phi)[1])
        upper_rows = tuple(_row(n, det**n) for n in range(1, n_max + 1))
        upper_seq = EntropySequence(upper_rows, units, phi)
        upper = [row.log_average for row in upper_rows]
    rows = []
    for t in t_values:
        shift = int_log(profile.peak) + profile.width * abs(t)
        rows += [
            SandwichRow(
                t=float(t),
                n=row.n,
                lower_logavg=(row.log_length - shift) / row.n,
                upper_logavg=upper[row.n - 1],
                gap_bound=shift / row.n,
            )
            for row in lower_seq.rows
        ]
    return SandwichReport(tuple(rows), profile, lower_seq, upper_seq)


def sandwich_violations(report: SandwichReport) -> list[str]:
    """A message for every n at which the lower and upper tower counts
    break U_n <= L_n <= peak * U_n; none on a non-regular ring.

    As width * |t| >= 0, these integer checks give both row invariants at
    every t.  They hold on a regular ring, where phi is flat: for the
    Koszul complex K, L_n = U_n * length(H^0 K) and H^0 K has length
    between 1 and peak.
    """
    upper, peak = report.upper_sequence, report.profile.peak
    if upper is None:
        return []
    return [
        f"n={low.n}: lower tower count {low.length} lies outside "
        f"[{up.length}, {peak * up.length}]"
        for low, up in zip(report.lower_sequence.rows, upper.rows)
        if not up.length <= low.length <= peak * up.length
    ]


def _rate_bracket_violations(
    seq: EntropySequence, rate: tuple[int, int], matrix, faces
) -> list[str]:
    """A message for every n at which the lengths l_n of R/phi^n(m), the
    rows of ``seq`` for a monomial-matrix phi, break the bracket proved in
    ``exact_rate``: low_n <= l_n <= C * low_n, and low_n = N^k at every
    n = kL for the (N, L) of ``rate``, ``exact_rate(phi)``.  ``matrix`` is
    ``_monomial_matrix(phi)`` and ``faces`` is ``_maximal_faces(R)``, both
    read once by the caller.  low_n comes from the cycle recursion, not
    from ``exact_rate``, so the second check tests it; C is a pivot
    count."""
    source, power = matrix
    quotient = list(seq.map.ring.quotient.generators)
    d = len(source)
    box = [max((g[i] for g in quotient), default=0) + 1 for i in range(d)]
    walls = [tuple(b * (i == j) for j in range(d)) for i, b in enumerate(box)]
    corners = _pivot_count(quotient + walls, d)
    (rate_n, period), sides, problems = rate, [1] * d, []
    for row in seq.rows:
        sides = [e * sides[j] for e, j in zip(power, source)]
        low = max(math.prod(sides[i] for i in face) for face in faces)
        if not low <= row.length <= corners * low:
            problems.append(f"n={row.n}: length {row.length} lies outside "
                            f"[{low}, {corners} * {low}]")
        if row.n % period == 0 and low != rate_n ** (row.n // period):
            problems.append(f"n={row.n}: the largest face product {low} "
                            f"is not {rate_n}^{row.n // period}")
    return problems


def _monomial_matrix(phi: MonomialMap) -> tuple[list[int], list[int]]:
    """(source, power) of a monomial-matrix map phi(X_j) = X_pi(j)^e_j:
    row i of its matrix holds its one positive entry, power[i] = e_j, at
    column source[i] = j.  Any other map raises HypothesisError."""
    positive = [[j for j, e in enumerate(row) if e] for row in phi.matrix]
    if sorted(positive) != [[j] for j in range(len(positive))]:
        raise HypothesisError("map is not a monomial matrix")
    source = [j for j, in positive]
    return source, [row[j] for row, j in zip(phi.matrix, source)]


def exact_rate(phi: MonomialMap) -> tuple[int, int]:
    """The growth rate log(N)/L, as the integers (N, L), of the lengths l_n
    of R/phi^n(m) for a monomial-matrix map phi(X_j) = X_pi(j)^e_j on
    R = k[X]/J, J monomial; other maps raise HypothesisError.

    phi^n(m) = (X_i^N_i(n)), where N_pi(j)(n) = e_j * N_j(n - 1), N(0) = 1,
    and N_i(n + k) = P * N_i(n) on a pi-cycle of length k and product P, so
    l_n counts the J-standard points of the box prod [0, N_i(n)).  Let
    low_n = max_F prod_F N_i(n) over the faces F, the sets of variables
    holding no generator's support, and C the number of J-standard points
    of the box prod [0, c_i], c_i the largest i-th exponent of J.  Then
    low_n <= l_n <= C * low_n.  Below: a point supported in a face is
    standard.  Above: membership in J depends only on the corner
    a = min(u, c), and for a standard corner the axes T = {i : a_i = c_i}
    form a face, since a generator supported in T would divide a.  A point
    with corner a agrees with a off T, so at most prod_T N_i(n) <= low_n
    such points lie in the box.  So the rate is max_F sum_F log(P)/k =
    log(N)/L, with L the lcm of the k's and N = max_F prod_F P^(L/k), and
    low_kL = N^k.
    """
    return _cycle_rate(_monomial_matrix(phi), _maximal_faces(phi.ring))


def _maximal_faces(ring: RingSpec) -> list[list[int]]:
    """The maximal faces of the quotient of ``ring``, each as the indices
    of its variables; on a regular ring, all the variables.  Every N_i(n)
    of ``exact_rate`` and every cycle factor is >= 1, so the largest face
    product is over a maximal face."""
    d, quotient = ring.dim_ambient, ring.quotient.generators
    if not quotient:
        return [list(range(d))]
    faces = _faces(quotient, d)
    return [[i for i in range(d) if f >> i & 1] for f in faces
            if not any(f != g and f & g == f for g in faces)]


def _cycle_rate(matrix, faces) -> tuple[int, int]:
    """``exact_rate`` of the map whose ``_monomial_matrix`` is ``matrix``,
    on a ring whose ``_maximal_faces`` are ``faces``."""
    source, power = matrix
    cycles = []
    for i in range(len(source)):
        k, product, j = 1, power[i], source[i]
        while j != i:
            k, product, j = k + 1, product * power[j], source[j]
        cycles.append((k, product))
    period = math.lcm(*(k for k, _ in cycles))
    factors = [product ** (period // k) for k, product in cycles]
    return max(math.prod(factors[i] for i in face) for face in faces), period


def log_rate(rate: tuple[int, int]) -> float:
    """The growth rate log(N)/L that the exact rate (N, L) stands for."""
    return int_log(rate[0]) / rate[1]


def transfer_check(square: TransferSquare) -> TransferReport:
    """Compare the exact rates log(N)/L of the two maps of a commuting
    square: they agree iff N_s^L_t = N_t^L_s.  Then the pullback entropy of
    the target map is constant in t and equals the shared rate; otherwise
    only the one-sided chain
    local rate(target) <= functor entropy(target) <= local rate(source)
    holds.  On the regular source ring a finite-length map is a monomial
    matrix; a target map that is not one raises HypothesisError.  No
    length is counted.
    """
    if not check_square(square):
        raise SquareCommutationError("transfer square does not commute")
    # first, so that a map not of finite length raises NotFiniteLengthError
    # before exact_rate can call it no monomial matrix
    for phi in (square.psi, square.phi):
        if not is_finite_length(phi):
            raise NotFiniteLengthError("endomorphism is not of finite length")
    source, target = exact_rate(square.psi), exact_rate(square.phi)
    (n_s, l_s), (n_t, l_t) = source, target
    agree = n_s**l_t == n_t**l_s
    if agree:
        conclusion = (
            "pullback entropy of the target map is constant in t and equal "
            f"to {log_rate(source):.12g}"
        )
    else:
        conclusion = (
            "rates differ; only the one-sided chain holds: "
            f"{log_rate(target):.12g} <= functor entropy <= {log_rate(source):.12g}"
        )
    return TransferReport(source, target, agree, conclusion)
