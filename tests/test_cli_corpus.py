"""Replay of the random-spec stdout table ``corpus_digest.tsv``.

Unlike the fuzz generator in ``test_cli.py``, which mostly exercises the
parser, every spec built here is valid: characteristic 0, 2, 3 or 5,
monomial-matrix maps (permutations among them) on quotients they preserve,
finite-length maps that are no monomial matrix on quotients, sequences of
up to 6 entries that are primary to the maximal ideal with the quotient,
and commuting squares.  The seeds of ``SEEDS`` (1 to 3 variables) and of
``WIDE_SEEDS`` (4 variables) draw a few argvs from the commands and flags
that the spec can answer, so most runs compute.  The seeds of
``FAILING_SEEDS`` draw argvs whose command needs a hypothesis that the
spec fails, so every run exits 3.  New seeds are appended, so that a seed
keeps its rows.

Each row holds a spec seed, an argv, its exit code and the sha256 of its
stdout, or of its stderr (the one error line) for a failing seed.  The
spec is written to the fixed relative name ``corpus.ring`` in a scratch
working directory, because stdout echoes the argv.  Regenerate the table
(only when stdout or an error message changes on purpose) from the
repository root with

    PYTHONPATH=src python3 tests/test_cli_corpus.py > tests/corpus_digest.tsv
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import tempfile
from collections import Counter
from pathlib import Path

from entrolab.cli import main
from helpers import divides, pure_powers_pointwise

TABLE = Path(__file__).resolve().parent / "corpus_digest.tsv"
SPEC = "corpus.ring"
SEEDS = range(600)  # valid specs in 1 to 3 variables
WIDE_SEEDS = range(600, 680)  # valid specs in 4 variables
FAILING_SEEDS = range(680, 760)  # specs that fail the hypothesis of each argv
CHARACTERISTICS = (0, 2, 3, 5)
SUITES = ("monomial-matrix", "diagonal", "frobenius")


def _vecs(vectors) -> str:
    return " ".join("[" + ",".join(map(str, v)) + "]" for v in vectors)


def _spec_text(p, columns, quotient, ideal=None, sequence=None, square=None) -> str:
    """A spec file; ``square`` is None or the source map's columns and xi."""
    lines = [f"characteristic {p}", "variables " + " ".join("XYZW"[:len(columns)])]
    if quotient:
        lines.append("quotient " + _vecs(quotient))
    lines.append("map " + _vecs(columns))
    if ideal is not None:
        lines.append("ideal " + _vecs(ideal))
    if sequence is not None:
        lines.append("sequence " + _vecs(sequence))
    if square is not None:
        source_map, xi = square
        lines.append("source_variables " + " ".join("UVWS"[:len(xi)]))
        lines.append("source_map " + _vecs(source_map))
        lines.append("xi " + _vecs(xi))
    return "\n".join(lines) + "\n"


def _unit(i: int, e: int, d: int) -> tuple:
    return tuple(e if k == i else 0 for k in range(d))


def _image(columns, g) -> tuple:
    """Exponent vector of the image of X^g under the map with these columns."""
    d = len(g)
    return tuple(sum(c[i] * e for c, e in zip(columns, g)) for i in range(d))


def _preserves(columns, quotient) -> bool:
    """True iff the map sends every quotient generator into the quotient."""
    return all(
        any(divides(h, _image(columns, g)) for h in quotient) for g in quotient
    )


def _is_monomial_matrix(columns) -> bool:
    d = len(columns)
    rows = [sorted(j for j, c in enumerate(columns) if c[i]) for i in range(d)]
    return sorted(rows) == [[j] for j in range(d)]


def _suites(columns, p) -> list[str]:
    """The verify suites of SUITES whose map this is, in that order."""
    if not _is_monomial_matrix(columns):
        return []
    if not all(c[j] for j, c in enumerate(columns)):
        return ["monomial-matrix"]
    frobenius = p and all(c[j] == p for j, c in enumerate(columns))
    return list(SUITES[:3 if frobenius else 2])


def _random_monomial(rng, d, top=2) -> tuple:
    while True:
        v = tuple(rng.randint(0, top) for _ in range(d))
        if any(v):
            return v


def _orbit_quotient(rng, perm, d) -> list:
    """A few monomials closed under the permutation of coordinates: a
    monomial-matrix map along perm sends each into a multiple of another."""
    gens = set()
    for _ in range(rng.randint(1, 2)):
        g = _random_monomial(rng, d, 3)
        for _ in range(d):
            gens.add(g)
            g = tuple(g[perm.index(i)] for i in range(d))
    return sorted(gens)


def _sequence(rng, quotient, d) -> list:
    """Up to 6 entries, primary to the maximal ideal with the quotient: a
    pure power of every variable that the quotient holds none of, the
    others now and then, and random extras."""
    held = {i for g in quotient for i in range(d)
            if g[i] and not any(g[:i] + g[i + 1:])}
    seq = [_unit(i, rng.randint(1, 3), d) for i in range(d)
           if i not in held or rng.random() < 0.5]
    target = rng.randint(max(len(seq), 1), 6)
    while len(seq) < target:
        seq.append(_random_monomial(rng, d))
    rng.shuffle(seq)
    return seq


def _monomial_matrix_spec(rng, d, p):
    """A monomial-matrix map: a permutation with exponents, the p-th power
    map now and then, on a quotient closed under the permutation."""
    perm = list(range(d))
    if rng.random() < 0.5:
        rng.shuffle(perm)
    if p and rng.random() < 0.3:
        powers = [p] * d
    else:
        powers = [rng.randint(1, 3) for _ in range(d)]
    columns = [_unit(perm[j], powers[j], d) for j in range(d)]
    quotient = _orbit_quotient(rng, perm, d) if rng.random() < 0.6 else []
    assert _preserves(columns, quotient)
    return columns, quotient


def _general_spec(rng, d):
    """A finite-length map that is no monomial matrix, on a quotient that
    holds a pure power of some variables; None if none turned up."""
    for _ in range(200):
        held = rng.sample(range(d), rng.randint(1, d))
        quotient = [_unit(i, rng.randint(1, 3), d) for i in held]
        if rng.random() < 0.4:
            quotient.append(_random_monomial(rng, d))
        columns = [_random_monomial(rng, d) for _ in range(d)]
        if (not _is_monomial_matrix(columns)
                and pure_powers_pointwise(quotient + columns, d) is not None
                and _preserves(columns, quotient)):
            return columns, quotient
    return None


def corpus_spec(seed: int) -> tuple[str, list[list[str]]]:
    """The spec text of a seed and the argvs it is run with."""
    rng = random.Random(seed)
    p = rng.choice(CHARACTERISTICS)
    d = rng.randint(1, 3) if seed in SEEDS else 4
    kind = rng.choice(["matrix", "matrix", "general", "square"])
    # every map of one variable is a monomial matrix
    drawn = _general_spec(rng, d) if kind == "general" and d > 1 else None
    if drawn is None:
        kind = "matrix" if kind == "general" else kind
        drawn = _monomial_matrix_spec(rng, d, p)
    columns, quotient = drawn
    ideal = sequence = square = None
    if kind != "square" and rng.random() < 0.5:
        ideal = [_unit(i, rng.randint(1, 3), d) for i in range(d)]
        ideal += [_random_monomial(rng, d) for _ in range(rng.randint(0, 2))]
    if kind != "square" and rng.random() < 0.7:
        sequence = _sequence(rng, quotient, d)
    if kind == "square":
        # psi = phi on the regular source ring, joined by the identity, or
        # by a diagonal map when phi is diagonal
        diagonal = all(c[j] for j, c in enumerate(columns))
        xi = [_unit(j, rng.randint(1, 2) if diagonal else 1, d) for j in range(d)]
        square = (columns, xi)
    text = _spec_text(p, columns, quotient, ideal, sequence, square)

    regular = not quotient
    commands = ["entropy", "delta"]
    if sequence is not None:
        commands.append("koszul")
    if kind == "square":
        commands += ["transfer", "verify transfer"]
    commands += ["verify " + suite for suite in _suites(columns, p)]
    if ideal is not None:
        commands.append("verify ideal-independence")
    if regular:
        commands.append("verify sandwich")
    picked = rng.sample(commands, min(3, len(commands)))
    return text, [_argv(rng, command) for command in picked]


def _draw(rng, make, accept):
    """The first ``make()`` that ``accept`` takes."""
    while True:
        drawn = make()
        if accept(drawn):
            return drawn


def failing_spec(seed: int) -> tuple[str, list[list[str]]]:
    """The spec text of a seed whose every argv fails a hypothesis of its
    command (exit 3), and those argvs.  The spec is valid, but its map is
    not the one a suite needs or is not of finite length, its sequence is
    not primary to the maximal ideal with the quotient, its ring is no
    regular ring for ``verify sandwich``, or its transfer square has a
    target map that is no monomial matrix or does not commute."""
    rng = random.Random(seed)
    p = rng.choice(CHARACTERISTICS)
    d = rng.randint(2, 4)
    kind = rng.choice(["suite", "infinite", "sequence", "sandwich", "target",
                       "commute"])
    ideal = sequence = square = None
    if kind == "infinite":
        columns, quotient = _draw(
            rng,
            lambda: ([_random_monomial(rng, d) for _ in range(d)],
                     [_random_monomial(rng, d, 3)] if rng.random() < 0.5 else []),
            lambda drawn: pure_powers_pointwise(drawn[1] + drawn[0], d) is None
            and _preserves(*drawn),
        )
        if rng.random() < 0.5:
            ideal = [_unit(i, rng.randint(1, 3), d) for i in range(d)]
        commands = ["entropy", "delta", "verify monomial-matrix", "verify sandwich"]
        commands += ["verify ideal-independence"] * (ideal is not None)
    elif kind in ("target", "commute"):
        # psi is a diagonal map on s variables, and xi sends them to pure
        # powers of the first s target variables, where phi agrees with
        # psi.  For target, phi sends the other variables into the
        # quotient's pure powers of them by no monomial matrix; for commute,
        # s = d and psi takes one power more somewhere
        s = rng.randint(1, d - 1) if kind == "target" else d
        powers = [rng.randint(1, 3) for _ in range(s)]
        xi = [_unit(j, rng.randint(1, 2), d) for j in range(s)]
        quotient = [_unit(i, rng.randint(1, 3), d) for i in range(s, d)]
        columns = [_unit(j, powers[j], d) for j in range(s)]
        source_map = [_unit(j, powers[j], s) for j in range(s)]
        if kind == "target":
            columns += _draw(
                rng,
                lambda: [_random_monomial(rng, d) for _ in range(s, d)],
                lambda rest: not _is_monomial_matrix(columns + rest)
                and _preserves(columns + rest, quotient),
            )
        else:
            j = rng.randrange(s)
            source_map[j] = _unit(j, powers[j] + 1, s)
        square = (source_map, xi)
        commands = ["transfer", "verify transfer"]
    else:
        # a map that some suite refuses, a quotient, or a quotient that
        # leaves some variable without a pure power
        accept = {
            "suite": lambda drawn: len(_suites(drawn[0], p)) < 3,
            "sandwich": lambda drawn: bool(drawn[1]),
            "sequence": lambda drawn: pure_powers_pointwise(drawn[1], d) is None,
        }[kind]
        columns, quotient = _draw(
            rng,
            lambda: (rng.random() < 0.4 and _general_spec(rng, d))
            or _monomial_matrix_spec(rng, d, p),
            accept,
        )
        if kind == "suite":
            met = _suites(columns, p)
            commands = ["verify " + suite for suite in SUITES if suite not in met]
        elif kind == "sandwich":
            commands = ["verify sandwich"]
        else:
            sequence = _draw(
                rng,
                lambda: [_random_monomial(rng, d) for _ in range(rng.randint(1, 4))],
                lambda seq: pure_powers_pointwise(quotient + seq, d) is None,
            )
            commands = ["koszul"]
    text = _spec_text(p, columns, quotient, ideal, sequence, square)
    picked = rng.sample(commands, min(2, len(commands)))
    return text, [_argv(rng, command) for command in picked]


def _argv(rng, command: str) -> list[str]:
    """``command`` on the spec with a random pick of the flags it reads."""
    argv = command.split() + ["--spec", SPEC]
    if command == "koszul":
        argv += ["--pullback-iter", rng.choice(["0", "1", "2"])]
    elif rng.random() < 0.7:
        argv += ["--max-iter", rng.choice(["1", "2", "3", "4", "6"])]
    if command in ("delta", "verify sandwich") and rng.random() < 0.5:
        argv.append("--t=" + rng.choice(["0", "-1,0,1", "0.5,2", "-2"]))
    if command in ("entropy", "delta", "koszul") and rng.random() < 0.5:
        argv.append("--oracle")
    if rng.random() < 0.2:
        argv += ["--format", "report"]
    if rng.random() < 0.2:
        argv += ["--log-base", rng.choice(["2", "10"])]
    return argv


def corpus_runs():
    """(seed, spec text, argv) for every row of the table, in order."""
    for seed in (*SEEDS, *WIDE_SEEDS, *FAILING_SEEDS):
        spec = failing_spec if seed in FAILING_SEEDS else corpus_spec
        text, argvs = spec(seed)
        for argv in argvs:
            yield seed, text, argv


def replay(seed: int, text: str, argv: list[str]) -> tuple[int, str, str]:
    """Write the spec to ``corpus.ring`` in the working directory; the exit
    code of ``main(argv)``, its stdout, and the sha256 that the table pins:
    of stdout, or of stderr for a failing seed, whose stdout is empty."""
    Path(SPEC).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    pinned = err if seed in FAILING_SEEDS else out
    return code, out.getvalue(), hashlib.sha256(pinned.getvalue().encode()).hexdigest()


def _verdicts(stdout: str) -> list[tuple[str, str]]:
    if stdout.startswith("{"):
        return [(v["name"], v["status"]) for v in json.loads(stdout)["verdicts"]]
    return [tuple(line.split("\t")[1:3]) for line in stdout.splitlines()
            if line.startswith("# verdict\t")]


def _command(argv: list[str]) -> str:
    return " ".join(argv[:2] if argv[0] == "verify" else argv[:1])


def test_corpus_digest_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = [line.split("\t") for line in TABLE.read_text().splitlines()]
    runs = list(corpus_runs())
    assert [(int(row[0]), shlex.split(row[1])) for row in rows] == [
        (seed, argv) for seed, _, argv in runs
    ]
    computed, total, failed = Counter(), Counter(), Counter()
    for (_, command, code, digest), (seed, text, argv) in zip(rows, runs):
        got, stdout, sha = replay(seed, text, argv)
        assert (got, sha) == (int(code), digest), (seed, command)
        if seed in FAILING_SEEDS:
            # a failed hypothesis prints its one-line error and no report
            assert got == 3 and stdout == "", (seed, command)
            failed[_command(argv)] += 1
            continue
        # every oracle agrees, and the sandwich holds wherever it is checked
        for name, status in _verdicts(stdout):
            if name.startswith("oracle-") or name == "sandwich":
                assert status == "PASS", (seed, command, name)
        total[_command(argv)] += 1
        computed[_command(argv)] += got in (0, 4)
    for command, count in total.items():
        assert computed[command] >= 0.8 * count, command
    # every command computes on the valid specs and fails on some other
    assert set(failed) == set(total)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for seed, text, argv in corpus_runs():
            code, _, sha = replay(seed, text, argv)
            print(seed, shlex.join(argv), code, sha, sep="\t")
