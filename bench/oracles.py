"""Independent oracles for the benchmark's output checks.

Nothing here imports ``entrolab``: every expected value is recomputed from
the job's own parameters with plain integer arithmetic, so a wrong integer
in the program cannot also be a wrong integer in its check.

Exponent vectors are tuples of ints.  A map is held as its list of
columns: column j is the exponent vector of the image of X_j, so a
monomial v goes to sum_j v_j * column_j.
"""

from __future__ import annotations

import itertools
import math

# Column counts cost prod(box sides) / (largest side) * generators steps;
# above this budget the check is skipped rather than slowing the run.
COLUMN_COUNT_BUDGET = 400_000


def apply_map(columns, v):
    """Exponent vector of the image of X^v under the map with these
    columns."""
    d = len(v)
    return tuple(sum(v[j] * columns[j][i] for j in range(d)) for i in range(d))


def map_power(columns, n):
    """Columns of the n-th iterate (n >= 0) of the map."""
    d = len(columns)
    result = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    for _ in range(n):
        result = [apply_map(columns, c) for c in result]
    return result


def monomial_det(columns):
    """Product of the positive entries of a monomial matrix (exactly one
    positive entry per row and column): the index of the image of the
    maximal ideal, so the colength grows by this factor per iterate."""
    det = 1
    for col in columns:
        positive = [e for e in col if e]
        if len(positive) != 1:
            raise ValueError(f"column {col} is not a scaled unit vector")
        det *= positive[0]
    return det


def pure_powers(gens, d):
    """Least pure power of each variable among the generators, or None
    when some variable has none."""
    bounds = []
    for i in range(d):
        powers = [
            g[i] for g in gens if g[i] and all(e == 0 for j, e in enumerate(g) if j != i)
        ]
        if not powers:
            return None
        bounds.append(min(powers))
    return bounds


def standard_count(gens, d):
    """Number of monomials divisible by no generator, by box enumeration.

    The box is cut out by the pure powers.  Every axis but the longest is
    enumerated point by point; along the longest axis the standard
    monomials above a point form an initial segment whose length is the
    least exponent, on that axis, of a generator dividing the point.
    """
    gens = [tuple(g) for g in gens]
    bounds = pure_powers(gens, d)
    if bounds is None:
        raise ValueError("ideal is not primary to the maximal ideal")
    axis = max(range(d), key=lambda i: bounds[i])
    others = [i for i in range(d) if i != axis]
    total = 0
    for point in itertools.product(*(range(bounds[i]) for i in others)):
        height = bounds[axis]
        for g in gens:
            if g[axis] < height and all(g[i] <= x for i, x in zip(others, point)):
                height = g[axis]
        total += height
    return total


def affordable(gens, d):
    """True when ``standard_count`` of these generators is within budget."""
    bounds = pure_powers(gens, d)
    return (bounds is not None
            and math.prod(bounds) // max(bounds) * len(gens) <= COLUMN_COUNT_BUDGET)


def euler_characteristic(sequence, quotient, d):
    """Alternating sum of the Koszul cohomology lengths, sum_j (-1)^j
    len H^{-j}, for a sequence generating (with the quotient) an ideal of
    finite colength.

    Over k[X_1..X_d]/J it is 0 when the sequence is longer than the Krull
    dimension (Serre); a nonzero monomial J already forces dim < d <= m.
    With J = 0 and m = d the entries are pure powers and the alternating
    sum is the multiplicity, the product of the exponents."""
    if quotient or len(sequence) > d:
        return 0
    return math.prod(max(w) for w in sequence)


def int_log(n):
    """Natural log of a positive integer of any size."""
    shift = max(n.bit_length() - 64, 0)
    return math.log(n >> shift) + shift * math.log(2)
