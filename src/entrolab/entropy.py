"""Growth-rate estimators and certified complexity bounds for the derived
pullback along finite-length monomial endomorphisms.

Everything here reports finite-n data: length sequences, log averages, a
slope extrapolation, and per-n lower/upper tower-count bounds whose log
averages sandwich the functor entropy.  No limit is ever claimed beyond
the printed error envelopes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import (
    NotFiniteLengthError,
    NotRegularError,
    SquareCommutationError,
)
from .monomials import (
    MonomialIdeal,
    RingSpec,
    _check_same_dim,
    _divisor_mask,
    _pure_powers,
    _standard_count,
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
from .koszul import GeneratorProfile, KoszulComplex, generator_profile, homology_lengths

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


@dataclass(frozen=True)
class EntropyRow:
    n: int
    length: int
    log_average: float  # log(length) / n


@dataclass(frozen=True)
class EntropySequence:
    """Colength growth data for the iterates of a map against a fixed
    reference ideal."""

    rows: tuple[EntropyRow, ...]
    ideal_used: MonomialIdeal
    map: MonomialMap


@dataclass(frozen=True)
class LimitEstimate:
    """Finite-n surrogate for the growth rate.

    ``estimate`` is the headline number: the difference-accelerated slope
    when the log-length differences still move geometrically, otherwise
    the least-squares slope over the final half of the rows.  The
    diagnostics keep both raw readings and their gap.
    """

    estimate: float
    least_squares_slope: float
    last_log_average: float
    difference: float
    method: str


@dataclass(frozen=True)
class SandwichRow:
    n: int
    lower_logavg: float
    upper_logavg: float | None  # None: not certified on a non-regular ring
    gap_bound: float


@dataclass(frozen=True)
class SandwichReport:
    """Per-t table of lower/upper complexity bounds in log-average form.

    Row invariants: lower_logavg <= upper_logavg, and their gap is at most
    (log(peak) + width*|t|)/n.  On a non-regular ring the rows carry the
    lower bound only, and ``h_loc_reference`` is None too.
    ``lower_sequence`` holds the lower tower counts: the colengths of the
    iterate images of the ideal the Koszul sequence generates.
    """

    t: float
    rows: tuple[SandwichRow, ...]
    profile: GeneratorProfile
    h_loc_reference: float | None
    lower_sequence: EntropySequence


@dataclass(frozen=True)
class TransferReport:
    target_estimate: float
    source_estimate: float
    agree: bool
    shared_value: float | None
    conclusion: str
    source_sequence: EntropySequence
    target_sequence: EntropySequence


def local_entropy_sequence(
    ring: RingSpec,
    phi: MonomialMap,
    ideal: MonomialIdeal | None = None,
    n_max: int = 8,
) -> EntropySequence:
    """lengths of ring/(n-th iterate image of the reference ideal) for
    n = 1..n_max, with their log averages.

    The reference ideal defaults to the maximal ideal; any ideal primary
    to it yields the same growth rate.  Each row maps the carried exponent
    vectors by phi's matrix and counts the images with the quotient, so no
    power of phi and no ideal is built.  The carried vectors start as the
    minimal generators of the reference ideal.  On a quotient by J the
    images that another image or a quotient generator divides are dropped
    before the next row, read off the row's feet table: phi(J) lies in J,
    so phi(I) + J = phi(I') + J whenever I + J = I' + J.  On a regular ring
    nothing is dropped: there a finite-length phi is a monomial matrix (d
    monomials generate an m-primary ideal only as pure powers of distinct
    variables), which preserves and reflects divisibility, so the images
    stay minimal and distinct.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if phi.ring != ring:
        raise ValueError("map does not act on the given ring")
    if ideal is None:
        ideal = ring.maximal_ideal()
    if any(sum(g) == 0 for g in ideal.generators):
        raise ValueError("reference ideal must be proper")
    _check_same_dim(ideal.ambient_dim, ring.dim_ambient)
    quotient = ring.quotient.generators
    d = ring.dim_ambient
    if _pure_powers(ideal.generators + quotient, d) is None:
        raise NotFiniteLengthError(
            "reference ideal is not primary to the maximal ideal"
        )
    # the ideal lies in and is primary to the maximal ideal m modulo the
    # quotient J, so phi(ideal) + J and phi(m) + J have the same radical:
    # phi is of finite length iff the first images with J are primary to m
    matrix = phi.matrix
    vectors = [_matvec(matrix, g) for g in ideal.generators]
    if _pure_powers([*vectors, *quotient], d) is None:
        raise NotFiniteLengthError("endomorphism is not of finite length")
    rows = []
    for n in range(1, n_max + 1):
        if n > 1:
            vectors = [_matvec(matrix, v) for v in vectors]
        length, gens, feet = _standard_count(vectors, ring)
        rows.append(EntropyRow(n, length, int_log(length) / n))
        if quotient and n < n_max:
            # _divisor_mask stops at the d - 1 axes of the feet
            vectors = [
                g for k, g in enumerate(gens)
                if not _divisor_mask(feet, g) & ((1 << k) - 1)
                and g not in quotient
            ]
    return EntropySequence(tuple(rows), ideal, phi)


def _least_squares_slope(points: list[tuple[int, float]]) -> float:
    k = len(points)
    mean_x = sum(x for x, _ in points) / k
    mean_y = sum(y for _, y in points) / k
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


def estimate_limit(seq: EntropySequence) -> LimitEstimate:
    """Extrapolate the growth rate from a finite sequence (>= 3 rows).

    The least-squares slope of log(length) against n over the final half
    of the rows is always computed.  When at least three consecutive
    log-length differences are available and still vary, one step of
    difference acceleration removes the leading geometric correction and
    becomes the headline estimate; for already-flat sequences the
    least-squares slope is the headline.
    """
    rows = seq.rows
    if len(rows) < 3:
        raise ValueError("estimate_limit needs at least 3 rows")
    logs = [int_log(r.length) for r in rows]
    points = list(zip((r.n for r in rows), logs))
    slope = _least_squares_slope(points[len(points) // 2:])
    last = rows[-1].log_average
    estimate, method = slope, "least-squares"
    if len(rows) >= 4:
        diffs = [b - a for a, b in zip(logs, logs[1:])]
        d1, d2, d3 = diffs[-3:]
        denom = d3 - 2 * d2 + d1
        if abs(denom) > 1e-9 * max(1.0, abs(d3)):
            estimate = d3 - (d3 - d2) ** 2 / denom
            method = "accelerated-difference"
    return LimitEstimate(
        estimate=estimate,
        least_squares_slope=slope,
        last_log_average=last,
        difference=slope - last,
        method=method,
    )


def complexity_upper_bound(ring: RingSpec, phi: MonomialMap, n: int) -> int:
    """Tower count bounding the complexity of the n-th pullback from above
    on a regular ring: the length of ring/(n-th iterate image of the
    maximal ideal).  Independent of t, since every tower step carries
    shift zero."""
    if not ring.regular:
        raise NotRegularError(
            "the upper complexity bound is only certified over a regular ring"
        )
    if not is_finite_length(phi):
        raise NotFiniteLengthError("endomorphism is not of finite length")
    if n < 1:
        raise ValueError("n must be >= 1")
    return colength(image_ideal(iterate(phi, n), ring.maximal_ideal()), ring)


def _lower_bound_log(profile: GeneratorProfile, h0_len: int, t: float) -> float:
    return int_log(h0_len) - (int_log(profile.peak) + profile.width * abs(t))


def sandwich(
    ring: RingSpec,
    phi: MonomialMap,
    sequence,
    t_values,
    n_max: int = 8,
) -> list[SandwichReport]:
    """Per-t tables sandwiching the pullback functor entropy between the
    log averages of the certified lower and upper tower counts.

    The sequence must generate, with the quotient, an ideal of finite
    colength; the generator profile comes from the Koszul complex on it.
    H^0 of its n-th pullback is the ring modulo the n-th iterate image of
    that ideal, so the lower tower count at n is that colength.  The upper
    bound, the colength of the n-th iterate image of the maximal ideal, is
    certified only over a regular ring; on any other ring the rows carry
    the lower bound only.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base = KoszulComplex(ring, sequence)
    profile = generator_profile(homology_lengths(base))
    lower_seq = local_entropy_sequence(
        ring, phi, MonomialIdeal(base.sequence, ring.dim_ambient), n_max
    )
    upper = [None] * n_max
    h_ref = None
    if ring.regular:
        if lower_seq.ideal_used == ring.maximal_ideal():
            reference_seq = lower_seq
        else:
            reference_seq = local_entropy_sequence(ring, phi, None, n_max)
        if n_max >= 3:
            h_ref = estimate_limit(reference_seq).estimate
        else:
            h_ref = reference_seq.rows[-1].log_average
        upper = [row.log_average for row in reference_seq.rows]
    reports = []
    for t in t_values:
        shift = int_log(profile.peak) + profile.width * abs(t)
        rows = tuple(
            SandwichRow(
                n=row.n,
                lower_logavg=_lower_bound_log(profile, row.length, t) / row.n,
                upper_logavg=upper[row.n - 1],
                gap_bound=shift / row.n,
            )
            for row in lower_seq.rows
        )
        reports.append(
            SandwichReport(
                t=float(t),
                rows=rows,
                profile=profile,
                h_loc_reference=h_ref,
                lower_sequence=lower_seq,
            )
        )
    return reports


def sandwich_violations(
    report: SandwichReport, tol: float = 1e-9
) -> list[str]:
    """Messages for any row breaking the sandwich invariants; empty when
    the report is consistent.  A NaN anywhere in a row breaks both.  Rows
    without an upper bound have nothing to check."""
    problems = []
    for row in report.rows:
        if row.upper_logavg is None:
            continue
        if not row.lower_logavg <= row.upper_logavg + tol:
            problems.append(
                f"t={report.t} n={row.n}: lower bound {row.lower_logavg!r} "
                f"exceeds upper bound {row.upper_logavg!r}"
            )
        if not row.upper_logavg - row.lower_logavg <= row.gap_bound + tol:
            problems.append(
                f"t={report.t} n={row.n}: bound gap exceeds "
                f"{row.gap_bound!r}"
            )
    return problems


def monomial_matrix_closed_form(
    phi: MonomialMap, n_max: int = 8
) -> tuple[tuple[int, ...], float]:
    """Exact lengths of R/phi^n(m), n = 1..n_max (none for n_max = 0), and
    the growth rate of a monomial-matrix map phi(X_j) = X_pi(j)^e_j on
    R = k[X]/J for any monomial J, sharing no code with the colength
    engine.

    phi^n(m) = (X_i^N_i) with N_pi(j)(n) = e_j * N_j(n - 1) and N(0) = 1.
    Whether a point lies in J changes along axis i only at the i-th
    exponents of J's generators, so each such cut a stands for the
    interval up to the next cut (the last to infinity), weighing its
    overlap with [0, N_i); the length sums the products of the weights
    over the J-standard points of the box of cuts.  On the pi-cycle of
    length k through i, N_i grows like the k-th root of the product of
    its e's.  The rate is the largest sum of those logs over a face (a
    set of variables holding the support of no generator of J), found on
    integers as log(max prod e^(L/k)) / L with L the lcm of the k's.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    d = phi.ring.dim_ambient
    quotient = phi.ring.quotient.generators
    # row i holds its one positive entry e_j at column j = source[i]
    positive = [[j for j, e in enumerate(row) if e] for row in phi.matrix]
    if sorted(positive) != [[j] for j in range(d)]:
        raise ValueError("map is not a monomial matrix")
    source = [j for j, in positive]
    power = [row[j] for row, j in zip(phi.matrix, source)]
    cycles = []
    for i in range(d):
        k, product, j = 1, power[i], source[i]
        while j != i:
            k, product, j = k + 1, product * power[j], source[j]
        cycles.append((k, product))
    period = math.lcm(*(k for k, _ in cycles))
    # products[face] over the bitmasks of variable sets, bit i for X_i
    products = [1]
    for k, product in cycles:
        products += [p * product ** (period // k) for p in products]
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in quotient]
    rate = int_log(max(
        p for face, p in enumerate(products)
        if all(s & face != s for s in supports)
    )) / period
    if not n_max:
        return (), rate
    cuts = [sorted({0, *(g[i] for g in quotient)}) for i in range(d)]
    # each standard point of the box of cuts, as its index on every axis
    standard = [
        tuple(map(list.index, cuts, a)) for a in itertools.product(*cuts)
        if not any(all(map(operator.le, g, a)) for g in quotient)
    ]
    sides, lengths = [1] * d, []
    for _ in range(n_max):
        sides = [e * sides[j] for e, j in zip(power, source)]
        weights = [
            [max(min(b, side) - a, 0) for a, b in zip(c, c[1:] + [side])]
            for c, side in zip(cuts, sides)
        ]
        lengths.append(sum(
            math.prod(map(list.__getitem__, weights, point)) for point in standard
        ))
    return tuple(lengths), rate


def transfer_check(
    square: TransferSquare,
    n_max: int = 8,
    tolerance: float = 1e-6,
) -> TransferReport:
    """Compare the growth rates of the two maps of a commuting square.

    When the estimates agree within the tolerance, the pullback entropy of
    the target map is constant in t and equals the shared value; otherwise
    only the one-sided chain
    local rate(target) <= functor entropy(target) <= local rate(source)
    is reported.
    """
    if n_max < 3:
        raise ValueError("transfer_check needs n_max >= 3 to extrapolate")
    if not check_square(square):
        raise SquareCommutationError("transfer square does not commute")
    source_seq = local_entropy_sequence(
        square.source_ring, square.psi, None, n_max
    )
    target_seq = local_entropy_sequence(
        square.target_ring, square.phi, None, n_max
    )
    source_est = estimate_limit(source_seq).estimate
    target_est = estimate_limit(target_seq).estimate
    agree = abs(source_est - target_est) <= tolerance
    if agree:
        shared = source_est
        conclusion = (
            "pullback entropy of the target map is constant in t and equal "
            f"to {shared:.12g}"
        )
    else:
        shared = None
        conclusion = (
            "estimates disagree; only the one-sided chain holds: "
            f"{target_est:.12g} <= functor entropy <= {source_est:.12g}"
        )
    return TransferReport(
        target_estimate=target_est,
        source_estimate=source_est,
        agree=agree,
        shared_value=shared,
        conclusion=conclusion,
        source_sequence=source_seq,
        target_sequence=target_seq,
    )
