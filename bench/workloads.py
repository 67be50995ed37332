"""Seeded job generators for the three benchmark workloads.

A job is one ``entrolab`` command line plus the ring specification it
reads.  Everything is drawn from ``random.Random(f"{workload}/{seed}")``,
so one seed gives byte-identical job lists and spec files.

Job sizes come from properties of the input, never from timing.  Jobs
fall into fixed classes (number of variables, sequence length,
characteristic, quotient or not, ideal shape), and each class has the same
ladder of target costs for every seed.  A drawn input is kept only when a
cost model (the (multidegree, subset) pairs of the Koszul sweep,
inclusion-exclusion nodes, cells of the brute-force box) puts it within
``WINDOW`` of its target.  So the cost distribution of a pass, and with it
the latency percentiles, varies little from seed to seed while the inputs
themselves differ.

Workloads and why they were chosen:

- ``koszul-pullback``: ``koszul --pullback-iter N`` on random 2- and
  3-variable rings.  The multidegree sweep of ``homology_lengths`` (its
  ``slice_dims`` and ``exact_rank`` calls) does nearly all the work; its
  cost grows with the exponent box, about p^(n d) for Frobenius.
- ``colength-growth``: ``entropy --max-iter N`` on wide ideals (10 to 24
  generators, small exponents; above 20 generators ``colength`` falls back
  to box enumeration) and deep ideals (3 or 4 variables, at most 8
  generators, exponents up to p^12), a share with ``--oracle``.
  ``monomials.colength`` does nearly all the work and ``koszul`` none.
- ``bounds-mix``: many short ``delta``, ``transfer`` and ``verify`` jobs
  over all six suites, including the committed specs and a few maps that
  are not of finite length (exit 3).  No single kernel dominates: parsing,
  complex construction, iterates and rendering share the time.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass

import oracles

WORKLOADS = ("koszul-pullback", "colength-growth", "bounds-mix")

VARIABLES = ("X", "Y", "Z", "W")
SOURCE_VARIABLES = ("U", "V", "S", "T")

COMMITTED_SPECS = (
    "specs/diagonal235.ring",
    "specs/frobenius_cross.ring",
    "specs/frobenius_square.ring",
)

# A drawn input is accepted when its modelled cost is within this factor
# of the slot's target.
WINDOW = 1.15

# Cost model, in microseconds, fitted on the implementation this benchmark
# was defined against.  It only sizes inputs: a faster program gets the
# same inputs.
JOB_BASE_US = 1500.0
PAIR_US = 3.0
SCAN_US = 1.27
SCAN_US_PER_RELATION = 0.43
IE_NODE_US = 1.2
BRUTE_CELL_US_PER_GEN = 0.62
PER_ITERATE_US = 60.0
IDEAL_US_PER_GEN2 = 3.0

# Thresholds of the program under test that decide which path a job takes.
INCLUSION_EXCLUSION_CAP = 20
ORACLE_BOX_CAP = 200_000
MAX_SWEEP_SIDE = 400  # below the default side cap of 512


@dataclass(frozen=True)
class Spec:
    """A ring specification: k[X_1..X_d]/J, a monomial map given by its
    columns, and the optional ideal, sequence and transfer square."""

    characteristic: int
    dim: int
    map_columns: tuple
    quotient: tuple = ()
    ideal: tuple | None = None
    sequence: tuple | None = None
    source_map: tuple | None = None
    xi: tuple | None = None

    def text(self) -> str:
        def vecs(vs):
            return " ".join("[" + ",".join(str(e) for e in v) + "]" for v in vs)

        lines = [
            f"characteristic {self.characteristic}",
            "variables " + " ".join(VARIABLES[: self.dim]),
        ]
        if self.quotient:
            lines.append("quotient " + vecs(self.quotient))
        lines.append("map " + vecs(self.map_columns))
        if self.ideal is not None:
            lines.append("ideal " + vecs(self.ideal))
        if self.sequence is not None:
            lines.append("sequence " + vecs(self.sequence))
        if self.source_map is not None:
            lines.append(
                "source_variables " + " ".join(SOURCE_VARIABLES[: len(self.source_map)])
            )
            lines.append("source_map " + vecs(self.source_map))
            lines.append("xi " + vecs(self.xi))
        return "\n".join(lines) + "\n"


_VECTOR = re.compile(r"\[([^\]]*)\]")


def parse_spec_text(text: str) -> Spec:
    """Read the fields the checks need from a well-formed spec file."""
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, _, payload = line.partition(" ")
            fields[name] = payload
    vec = lambda name: tuple(  # noqa: E731
        tuple(int(e) for e in body.split(","))
        for body in _VECTOR.findall(fields[name])
    ) if name in fields else None
    return Spec(
        characteristic=int(fields["characteristic"]),
        dim=len(fields["variables"].split()),
        map_columns=vec("map"),
        quotient=vec("quotient") or (),
        ideal=vec("ideal"),
        sequence=vec("sequence"),
        source_map=vec("source_map"),
        xi=vec("xi"),
    )


@dataclass(frozen=True)
class Job:
    """One command line.  ``spec_file`` is the generated file the job
    reads, or None when it reads a committed spec."""

    name: str
    shape: str
    command: str
    suite: str | None
    n: int
    oracle: bool
    argv: tuple
    spec: Spec
    spec_file: str | None
    expect_exit: int
    est_ms: float

    def line(self) -> str:
        """Stable one-line description, used to compare job lists."""
        return "\t".join(
            [self.name, self.shape, " ".join(self.argv), str(self.expect_exit),
             f"{self.est_ms:.3f}"]
        )


# ---------------------------------------------------------------- helpers


def unit(d, i, a=1):
    return tuple(a if j == i else 0 for j in range(d))


def diagonal(exps):
    return tuple(unit(len(exps), i, e) for i, e in enumerate(exps))


def minimal(gens):
    gens = set(tuple(g) for g in gens)
    return sorted(
        g for g in gens
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in gens)
    )


def box_volume(gens, d):
    bounds = oracles.pure_powers(gens, d)
    return None if bounds is None else math.prod(bounds)


def ie_nodes(gens, d, cap):
    """Nodes the pruned inclusion-exclusion of ``colength`` visits on these
    minimal generators, or None past ``cap``.

    When every generator that is not a pure power lies strictly inside the
    pure-power box, every subset of those generators stays inside the box
    and the count has a closed form; otherwise the recursion is replayed."""
    gens = sorted(gens)
    bounds = oracles.pure_powers(gens, d)
    pure = [sum(1 for e in g if e) == 1 for g in gens]
    if all(p or all(e < b for e, b in zip(g, bounds)) for g, p in zip(gens, pure)):
        nodes, inner_before = 0, 0
        for k in [-1] + [i for i, p in enumerate(pure) if not p]:
            subsets = 1 if k < 0 else 2 ** inner_before
            nodes += subsets * (1 + sum(pure[k + 1:]))
            inner_before += k >= 0
        return nodes if nodes <= cap else None
    nodes = 0
    stack = [(0, (0,) * d)]
    while stack:
        start, lcm = stack.pop()
        nodes += 1
        if nodes > cap:
            return None
        if any(l >= b for l, b in zip(lcm, bounds)):
            continue
        for j in range(start, len(gens)):
            stack.append((j + 1, tuple(map(max, lcm, gens[j]))))
    return nodes


def colength_us(gens, d, cap_us):
    """Modelled cost of one ``colength`` call on minimal generators."""
    if len(gens) > INCLUSION_EXCLUSION_CAP:
        return box_volume(gens, d) * len(gens) * BRUTE_CELL_US_PER_GEN
    nodes = ie_nodes(gens, d, int(cap_us / IE_NODE_US) + 1)
    return math.inf if nodes is None else nodes * IE_NODE_US


def slot_targets(count, lo_ms, hi_ms):
    """``count`` targets at the midpoints of equal strata of a log-uniform
    range: every seed gets the same targets and differs only in inputs."""
    span = math.log(hi_ms / lo_ms)
    return [lo_ms * math.exp(span * (i + 0.5) / count) for i in range(count)]


def fit(rng, target_ms, draw, tries=400):
    """Draw candidates until one models within WINDOW of the target.

    ``draw(rng, target_ms)`` returns a list of (est_ms, payload) options,
    usually one per size parameter; the option closest to the target wins."""
    best = None
    for _ in range(tries):
        for est, payload in draw(rng, target_ms):
            miss = abs(math.log(est / target_ms)) if 0 < est < math.inf else math.inf
            if best is None or miss < best[0]:
                best = (miss, est, payload)
        if best is not None and best[0] <= math.log(WINDOW):
            break
    if best is None or best[0] == math.inf:
        raise RuntimeError(f"no input fits the target {target_ms:.1f} ms")
    return best[1], best[2]


def random_quotient(rng, d, count):
    """Monomial relations, each involving at least two variables."""
    gens = []
    while len(gens) < count:
        v = [0] * d
        for i in rng.sample(range(d), rng.randint(2, min(d, 3))):
            v[i] = rng.randint(1, 2)
        gens.append(tuple(v))
    return tuple(minimal(gens))


def random_diagonal(rng, d):
    """A diagonal map with exponents in 1..3, not the identity."""
    exps = [rng.randint(1, 3) for _ in range(d)]
    if all(e == 1 for e in exps):
        exps[rng.randrange(d)] = 2
    return diagonal(exps)


def random_map(rng, d, char, quotient, allow_permutation=True):
    """A finite-length monomial map: Frobenius, a diagonal map with
    exponents in 1..3, or (on a regular ring) a permuted diagonal map."""
    if char and rng.random() < 0.4:
        return diagonal([char] * d)
    exps = [col[j] for j, col in enumerate(random_diagonal(rng, d))]
    if not quotient and allow_permutation and rng.random() < 0.3:
        perm = list(range(d))
        while perm == sorted(perm):
            rng.shuffle(perm)
        return tuple(unit(d, perm[j], exps[j]) for j in range(d))
    return diagonal(exps)


def random_sequence(rng, d, m, max_pure=3, max_extra=2):
    seq = [unit(d, i, rng.randint(1, max_pure)) for i in range(d)]
    while len(seq) < m:
        v = tuple(rng.randint(0, max_extra) for _ in range(d))
        if sum(v) and v not in seq:
            seq.append(v)
    rng.shuffle(seq)
    return tuple(seq)


def spec_path(workdir, name):
    return f"{workdir}/{name}.ring"


# -------------------------------------------------------- koszul-pullback


def koszul_cost_ms(spec, n, cap_ms=math.inf):
    """Modelled cost of ``koszul --pullback-iter n`` and the largest side
    of the multidegree box its sweep covers.

    The sweep scans every subset S of the sequence in every multidegree v
    of the box, and works on the pairs where v - shift(S) is a standard
    monomial; both counts are exact here, the second by inclusion-exclusion
    over the quotient generators.  Past ``cap_ms`` the cost is infinite."""
    d = spec.dim
    power = oracles.map_power(spec.map_columns, n)
    seq = [oracles.apply_map(power, w) for w in spec.sequence]
    powers = oracles.pure_powers(list(seq) + list(spec.quotient), d)
    shift = [sum(w[i] for w in seq) for i in range(d)]
    height = [max((g[i] for g in spec.quotient), default=0) for i in range(d)]
    sides = [
        max(powers[i] + height[i] + shift[i], powers[i] + shift[i] + 2)
        for i in range(d)
    ]
    scans = math.prod(sides) * 2 ** len(seq)
    us = JOB_BASE_US + scans * (SCAN_US + SCAN_US_PER_RELATION * len(spec.quotient))
    if us > cap_ms * 1000:
        return math.inf, max(sides)
    pairs = 0
    for size in range(len(seq) + 1):
        for subset in itertools.combinations(seq, size):
            box = [side - sum(w[i] for w in subset) for i, side in enumerate(sides)]
            if min(box) > 0:
                pairs += standard_in_box(box, spec.quotient)
    return (us + PAIR_US * pairs) / 1000, max(sides)


def standard_in_box(box, quotient):
    """Monomials below ``box`` divisible by no quotient generator."""
    total = 0
    for size in range(len(quotient) + 1):
        for subset in itertools.combinations(quotient, size):
            lcm = [max(g[i] for g in subset) if subset else 0 for i in range(len(box))]
            total += (-1) ** size * math.prod(max(0, b - l) for b, l in zip(box, lcm))
    return total


def sequence_exponents(d, extra):
    """Largest pure power and largest other entry of a sequence: smaller in
    three variables, so that one pullback stays within the target range."""
    if d == 2:
        return 3, 2
    return (2, 1) if extra == 0 else (1, 1)


def _draw_koszul(rng, target_ms, d, extra, prime, quotient):
    char = rng.choice((2, 3, 5)) if prime else 0
    quotient = random_quotient(rng, d, rng.randint(1, 2)) if quotient else ()
    spec = Spec(
        characteristic=char,
        dim=d,
        map_columns=random_map(rng, d, char, quotient),
        quotient=quotient,
        sequence=random_sequence(rng, d, d + extra, *sequence_exponents(d, extra)),
    )
    options = []
    for n in range(1, 9):
        ms, side = koszul_cost_ms(spec, n, WINDOW * target_ms)
        if side > MAX_SWEEP_SIDE or ms == math.inf:
            break
        options.append((ms, (spec, n)))
    return options


# (variables, sequence entries beyond them, positive characteristic,
# quotient ring): every class gets the same ladder of target costs
KOSZUL_CLASSES = tuple(itertools.product((2, 3), (0, 1, 2), (False, True), (False, True)))
KOSZUL_SLOTS_PER_CLASS = 5
# target cost range in ms by (variables, extra entries): the smallest
# complexes of each size bound it from below
KOSZUL_TARGET_MS = {
    (2, 0): (3.0, 80.0), (2, 1): (5.0, 80.0), (2, 2): (8.0, 80.0),
    (3, 0): (10.0, 80.0), (3, 1): (15.0, 80.0), (3, 2): (35.0, 120.0),
}


def koszul_pullback_jobs(rng, workdir):
    jobs = []
    cross = read_committed("specs/frobenius_cross.ring")
    for n in (2, 3):
        name = f"j{len(jobs):04d}"
        argv = ("koszul", "--spec", "specs/frobenius_cross.ring", "--pullback-iter", str(n))
        jobs.append(Job(name, "committed", "koszul", None, n, False, argv, cross,
                        None, 0, koszul_cost_ms(cross, n)[0]))
    slots = [
        (cls, target)
        for cls in KOSZUL_CLASSES
        for target in slot_targets(KOSZUL_SLOTS_PER_CLASS, *KOSZUL_TARGET_MS[cls[:2]])
    ]
    rng.shuffle(slots)
    for cls, target in slots:
        est, (spec, n) = fit(rng, target, lambda r, t: _draw_koszul(r, t, *cls))
        name = f"j{len(jobs):04d}"
        path = spec_path(workdir, name)
        argv = ("koszul", "--spec", path, "--pullback-iter", str(n))
        jobs.append(Job(name, "quotient" if spec.quotient else "regular", "koszul",
                        None, n, False, argv, spec, path, 0, est))
    return jobs


# -------------------------------------------------------- colength-growth


def entropy_costs_ms(spec, n_max, oracle, cap_ms):
    """Modelled cost of ``entropy --max-iter N [--oracle]`` for N = 1, 2,
    ... n_max, as (N, ms) pairs, stopping once the cost passes ``cap_ms``."""
    d = spec.dim
    image = list(spec.ideal or (unit(d, i) for i in range(d)))
    total_us, cap_us = JOB_BASE_US, cap_ms * 1000
    checking = oracle
    costs = []
    for n in range(1, n_max + 1):
        image = [oracles.apply_map(spec.map_columns, g) for g in image]
        # a diagonal map keeps a minimal generating set minimal
        gens = minimal(image + list(spec.quotient)) if spec.quotient else image
        us = colength_us(gens, d, cap_us) + PER_ITERATE_US + IDEAL_US_PER_GEN2 * len(gens) ** 2
        total_us += us
        if checking:
            # --oracle re-counts each n by box enumeration until the box
            # first exceeds the cap
            volume = box_volume(gens, d)
            checking = volume <= ORACLE_BOX_CAP
            if checking:
                total_us += us + volume * len(gens) * BRUTE_CELL_US_PER_GEN
        if total_us > cap_us:
            break
        costs.append((n, total_us / 1000))
    return costs


def wide_ideal(rng, d, g):
    """An antichain of g generators: pure powers plus interior monomials
    strictly inside the pure-power box, so no generator is redundant."""
    if d == 2:
        k = (g + rng.randint(0, 3), g + rng.randint(0, 3))
        xs = sorted(rng.sample(range(1, k[0]), g - 2))
        ys = sorted(rng.sample(range(1, k[1]), g - 2), reverse=True)
        return tuple(sorted([unit(2, 0, k[0]), unit(2, 1, k[1])] + list(zip(xs, ys))))
    k = 5 if g <= 13 else 6 if g <= 21 else 7
    interior = [
        v for v in itertools.product(range(k), repeat=d)
        if sum(v) == k and sum(1 for e in v if e) >= 2
    ]
    gens = rng.sample(interior, g - d) + [unit(d, i, k + rng.randint(0, 1)) for i in range(d)]
    return tuple(sorted(gens))


def deep_ideal(rng, d):
    gens = [unit(d, i, rng.randint(1, 4)) for i in range(d)]
    size = rng.randint(d + 1, 8)
    while len(gens) < size:
        v = tuple(rng.randint(0, 3) for _ in range(d))
        if sum(v):
            gens.append(v)
    return tuple(minimal(gens))


def _draw_wide(rng, target_ms, d, lo_g, hi_g, n_max):
    char = rng.choice((0, 2, 3))
    spec = Spec(
        characteristic=char,
        dim=d,
        map_columns=random_map(rng, d, char, (), allow_permutation=False),
        ideal=wide_ideal(rng, d, rng.randint(lo_g, hi_g)),
    )
    return [(ms, (spec, n, False))
            for n, ms in entropy_costs_ms(spec, n_max, False, WINDOW * target_ms)]


def _draw_deep(rng, target_ms, d, quotient, oracle):
    char = rng.choice((0, 2, 3, 5))
    quotient = random_quotient(rng, d, rng.randint(1, 2)) if quotient else ()
    spec = Spec(
        characteristic=char,
        dim=d,
        map_columns=random_map(rng, d, char, quotient, allow_permutation=False),
        quotient=quotient,
        ideal=deep_ideal(rng, d),
    )
    lowest = 3 if oracle else 6
    return [(ms, (spec, n, oracle))
            for n, ms in entropy_costs_ms(spec, 12, oracle, WINDOW * target_ms) if n >= lowest]


# shape, draw(rng, target, variables, quotient ring), classes of
# (variables, quotient ring), slots per class, target range in ms
COLENGTH_SHAPES = (
    ("wide-ie", lambda r, t, d, q: _draw_wide(r, t, d, 10, 20, 8),
     ((2, False), (3, False)), 25, (5.0, 120.0)),
    ("wide-fallback", lambda r, t, d, q: _draw_wide(r, t, d, 21, 24, 4),
     ((2, False), (3, False)), 13, (15.0, 150.0)),
    ("deep", lambda r, t, d, q: _draw_deep(r, t, d, q, False),
     tuple(itertools.product((3, 4), (False, True))), 8, (2.2, 4.0)),
    ("deep-oracle", lambda r, t, d, q: _draw_deep(r, t, d, q, True),
     tuple(itertools.product((3, 4), (False, True))), 3, (6.0, 60.0)),
)


def colength_growth_jobs(rng, workdir):
    jobs = []
    slots = [
        (shape, draw, cls, target)
        for shape, draw, classes, count, (lo, hi) in COLENGTH_SHAPES
        for cls in classes
        for target in slot_targets(count, lo, hi)
    ]
    rng.shuffle(slots)
    for shape, draw, cls, target in slots:
        est, (spec, n, oracle) = fit(rng, target, lambda r, t: draw(r, t, *cls))
        name = f"j{len(jobs):04d}"
        path = spec_path(workdir, name)
        argv = ("entropy", "--spec", path, "--max-iter", str(n)) + (
            ("--oracle",) if oracle else ()
        )
        jobs.append(Job(name, shape, "entropy", None, n, oracle, argv, spec, path, 0, est))
    return jobs


# -------------------------------------------------------------- bounds-mix


def non_finite_map(d):
    """X_1 and X_2 both go to X_1 X_2: the image of the maximal ideal has
    no pure power of X_1, so the map is not of finite length."""
    both = tuple(1 if i < 2 else 0 for i in range(d))
    return tuple(both if j < 2 else unit(d, j) for j in range(d))


def _bounds_spec(rng, kind, d, char, with_sequence):
    if kind == "verify frobenius":
        p = char or 3
        return Spec(p, d, diagonal([p] * d))
    if kind == "verify monomial-matrix":
        return Spec(char, d, random_map(rng, d, 0, ()))
    if kind == "verify diagonal":
        return Spec(char, d, random_diagonal(rng, d))
    if kind == "verify ideal-independence":
        ideal = random_sequence(rng, d, d + rng.randint(0, 2))
        return Spec(char, d, random_diagonal(rng, d), ideal=ideal)
    quotient = random_quotient(rng, d, rng.randint(1, 2)) if kind.endswith("quotient") else ()
    if kind.startswith("transfer"):
        # diagonal maps commute with the diagonal joining map
        phi = random_diagonal(rng, d)
        xi = diagonal([rng.randint(1, 2) for _ in range(d)])
        return Spec(char, d, phi, quotient, source_map=phi, xi=xi)
    seq = random_sequence(rng, d, d + rng.randint(0, 1), 2, 1) if with_sequence else None
    return Spec(char, d, random_map(rng, d, char, quotient), quotient, sequence=seq)


BOUNDS_KINDS = (
    # command, suite, spec kind, slots, expected exit code
    ("delta", None, "delta-regular", 36, 0),
    ("delta", None, "delta-quotient", 24, 0),
    ("transfer", None, "transfer-regular", 12, 0),
    ("transfer", None, "transfer-quotient", 12, 0),
    ("verify", "diagonal", "verify diagonal", 16, 0),
    ("verify", "monomial-matrix", "verify monomial-matrix", 16, 0),
    ("verify", "frobenius", "verify frobenius", 16, 0),
    ("verify", "ideal-independence", "verify ideal-independence", 16, 0),
    ("verify", "sandwich", "verify sandwich", 20, 0),
    ("verify", "transfer", "transfer-regular", 16, 0),
    # maps that are not of finite length
    ("delta", None, "delta-regular", 4, 3),
    ("delta", None, "delta-quotient", 3, 3),
    ("verify", "sandwich", "verify sandwich", 2, 3),
    ("verify", "ideal-independence", "verify ideal-independence", 2, 3),
)

COMMITTED_JOBS = (
    ("verify", "diagonal", "specs/diagonal235.ring"),
    ("verify", "sandwich", "specs/diagonal235.ring"),
    ("delta", None, "specs/diagonal235.ring"),
    ("verify", "frobenius", "specs/frobenius_cross.ring"),
    ("verify", "ideal-independence", "specs/frobenius_cross.ring"),
    ("delta", None, "specs/frobenius_cross.ring"),
    ("transfer", None, "specs/frobenius_square.ring"),
    ("verify", "transfer", "specs/frobenius_square.ring"),
)

# Every kind walks the same grid of (variables, characteristic, iterates),
# so seeds differ in exponents and relations but not in job sizes.
BOUNDS_GRID = tuple(itertools.product((2, 3), (0, 2, 3, 5), (3, 4, 5, 6, 7, 8)))
T_LISTS = ("-1,0,1", "0", "-2,-0.5,0.5,2", "0,1")


def _bounds_argv(command, suite, path, n, t_list):
    argv = [command] + ([suite] if suite else []) + ["--spec", path, "--max-iter", str(n)]
    if command == "delta" or suite == "sandwich":
        argv.append("--t=" + t_list)
    return tuple(argv)


def bounds_mix_jobs(rng, workdir):
    slots = [
        (command, suite, kind, expect, BOUNDS_GRID[(7 * i) % len(BOUNDS_GRID)],
         T_LISTS[i % len(T_LISTS)], i % 3 != 0)
        for command, suite, kind, count, expect in BOUNDS_KINDS
        for i in range(count)
    ]
    # the committed specs run at the default depth: the Frobenius slope on
    # F_3[X,Y]/(XY) needs 8 iterates to meet its 1e-6 tolerance
    slots += [(c, s, path, 0, (None, None, 8), T_LISTS[0], False)
              for c, s, path in COMMITTED_JOBS]
    rng.shuffle(slots)
    jobs = []
    for command, suite, kind, expect, (d, char, n), t_list, with_sequence in slots:
        name = f"j{len(jobs):04d}"
        if kind in COMMITTED_SPECS:
            spec, path, spec_file, shape = read_committed(kind), kind, None, "committed"
        else:
            spec = _bounds_spec(rng, kind, d, char, with_sequence)
            if expect:
                spec = Spec(spec.characteristic, d, non_finite_map(d), spec.quotient,
                            spec.ideal, spec.sequence)
            path = spec_file = spec_path(workdir, name)
            shape = "non-finite" if expect else kind
        argv = _bounds_argv(command, suite, path, n, t_list)
        jobs.append(Job(name, shape, command, suite, n, False, argv, spec,
                        spec_file, expect, 0.0))
    return jobs


# ------------------------------------------------------------------ entry


def read_committed(path):
    with open(path, encoding="utf-8") as handle:
        return parse_spec_text(handle.read())


GENERATORS = {
    "koszul-pullback": koszul_pullback_jobs,
    "colength-growth": colength_growth_jobs,
    "bounds-mix": bounds_mix_jobs,
}


def generate(workload, seed, workdir):
    """The job list of one workload for one seed; spec paths lie under
    ``workdir``."""
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](rng, workdir)


def write_specs(jobs):
    """Write every generated spec file; committed specs are read in place."""
    for job in jobs:
        if job.spec_file is not None:
            with open(job.spec_file, "w", encoding="utf-8") as handle:
                handle.write(job.spec.text())
