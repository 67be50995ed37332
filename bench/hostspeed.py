"""A fixed reference workload that tracks how fast the host runs Python.

On a shared host the speed of one core drifts by up to a factor of two
within minutes, far more than a run of the benchmark can average out.
``reference()`` times a fixed piece of interpreter work much like the
program's own and calls nothing of ``entrolab``: command-line parsing,
fractions and formatting (the plumbing of every job), and exact rank mod p,
monomial divisibility and a recursive inclusion-exclusion over lcms of
small exponent tuples (the kernels).  The
benchmark times it around its passes and scales the program's times by
``REFERENCE_S`` over the time it measured, which takes them to the speed
of the machine the benchmark was defined on.  A change of the program
moves the scaled times as much as the raw ones; a change of host speed
moves the reference too and cancels.
"""

from __future__ import annotations

import argparse
import fractions
import itertools
import random
import time

# Seconds one ``reference()`` call took on the machine the benchmark was
# defined on (2 vCPUs of a shared x86-64 host, CPython 3.11); it only fixes
# the scale of the reported times.
REFERENCE_S = 0.015

_rng = random.Random(3)
_MATRIX = [[_rng.randint(0, 6) for _ in range(14)] for _ in range(12)]
_GENERATORS = [(3, 0, 1), (0, 4, 0), (1, 1, 2), (5, 0, 0), (0, 0, 4), (2, 2, 0)]
_BOX = (60, 55, 50)
_WIDE = [tuple(_rng.randint(0, 40) for _ in range(3)) for _ in range(9)] + [
    (60, 0, 0), (0, 55, 0), (0, 0, 50)]


def _rank_mod(rows, p):
    rows = [row[:] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c] * inverse % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _inclusion_exclusion():
    total = 0

    def visit(start, lcm, sign):
        nonlocal total
        count = 1
        for a, l in zip(_BOX, lcm):
            if l >= a:
                return
            count *= a - l
        total += sign * count
        for j in range(start, len(_WIDE)):
            visit(j + 1, tuple(map(max, lcm, _WIDE[j])), -sign)

    visit(0, (0,) * len(_BOX), 1)
    return total


def _work():
    for i in range(25):
        parser = argparse.ArgumentParser(prog="reference")
        parser.add_argument("--max-iter", type=int)
        parser.add_argument("--t")
        args = parser.parse_args(["--max-iter", str(i), "--t=-1,0,1"])
        total = sum(fractions.Fraction(k, k + args.max_iter + 1) for k in range(1, 30))
        f"{float(total):.6f} {total!r} {_GENERATORS!r}"
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        _rank_mod(_MATRIX, p)
    for v in itertools.product(range(7), repeat=3):
        if not any(all(g <= x for g, x in zip(gen, v)) for gen in _GENERATORS):
            sum(v[i] * (i + 1) for i in range(3))
    _inclusion_exclusion()


def reference():
    """Seconds one run of the reference work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(before, after):
    """Factor taking a time measured between two reference samples to the
    speed of the machine the benchmark was defined on."""
    return 2 * REFERENCE_S / (before + after)
