"""Replay of the random-spec stdout table ``corpus_digest.tsv``.

Unlike the fuzz generator in ``test_cli.py``, which mostly exercises the
parser, every spec built here is valid: characteristic 0, 2, 3 or 5,
monomial-matrix maps (permutations among them) on quotients they preserve,
finite-length maps that are no monomial matrix on quotients, sequences of
up to 6 entries that are primary to the maximal ideal with the quotient,
and commuting squares.  Each spec seed draws a few argvs from the commands
and flags that the spec can answer, so most runs compute.

Each row holds a spec seed, an argv, its exit code and the sha256 of its
stdout.  The spec is written to the fixed relative name ``corpus.ring`` in
a scratch working directory, because stdout echoes the argv.  Regenerate
the table (only when stdout changes on purpose) from the repository root
with

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
SEEDS = range(600)
CHARACTERISTICS = (0, 2, 3, 5)


def _vecs(vectors) -> str:
    return " ".join("[" + ",".join(map(str, v)) + "]" for v in vectors)


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
    d = rng.randint(1, 3)
    kind = rng.choice(["matrix", "matrix", "general", "square"])
    # every map of one variable is a monomial matrix
    drawn = _general_spec(rng, d) if kind == "general" and d > 1 else None
    if drawn is None:
        kind = "matrix" if kind == "general" else kind
        drawn = _monomial_matrix_spec(rng, d, p)
    columns, quotient = drawn
    names = "XYZ"[:d]
    lines = [f"characteristic {p}", "variables " + " ".join(names)]
    if quotient:
        lines.append("quotient " + _vecs(quotient))
    lines.append("map " + _vecs(columns))
    ideal = sequence = None
    if kind != "square" and rng.random() < 0.5:
        ideal = [_unit(i, rng.randint(1, 3), d) for i in range(d)]
        ideal += [_random_monomial(rng, d) for _ in range(rng.randint(0, 2))]
        lines.append("ideal " + _vecs(ideal))
    if kind != "square" and rng.random() < 0.7:
        sequence = _sequence(rng, quotient, d)
        lines.append("sequence " + _vecs(sequence))
    if kind == "square":
        # psi = phi on the regular source ring, joined by the identity, or
        # by a diagonal map when phi is diagonal
        diagonal = all(c[j] for j, c in enumerate(columns))
        xi = [_unit(j, rng.randint(1, 2) if diagonal else 1, d) for j in range(d)]
        lines.append("source_variables " + " ".join("UVW"[:d]))
        lines.append("source_map " + _vecs(columns))
        lines.append("xi " + _vecs(xi))
    text = "\n".join(lines) + "\n"

    regular = not quotient
    commands = ["entropy", "delta"]
    if sequence is not None:
        commands.append("koszul")
    if kind == "square":
        commands += ["transfer", "verify transfer"]
    if kind != "general":
        commands.append("verify monomial-matrix")
        if all(c[j] for j, c in enumerate(columns)):
            commands.append("verify diagonal")
            if p and all(c[j] == p for j, c in enumerate(columns)):
                commands.append("verify frobenius")
    if ideal is not None:
        commands.append("verify ideal-independence")
    if regular:
        commands.append("verify sandwich")
    picked = rng.sample(commands, min(3, len(commands)))
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
    for seed in SEEDS:
        text, argvs = corpus_spec(seed)
        for argv in argvs:
            yield seed, text, argv


def replay(text: str, argv: list[str]) -> tuple[int, str]:
    """Write the spec to ``corpus.ring`` in the working directory; the exit
    code of ``main(argv)`` and its stdout."""
    Path(SPEC).write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


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
    computed, total = Counter(), Counter()
    for (seed, command, code, digest), (_, text, argv) in zip(rows, runs):
        got, stdout = replay(text, argv)
        sha = hashlib.sha256(stdout.encode()).hexdigest()
        assert (got, sha) == (int(code), digest), (seed, command)
        # every oracle agrees, and the sandwich holds wherever it is checked
        for name, status in _verdicts(stdout):
            if name.startswith("oracle-") or name == "sandwich":
                assert status == "PASS", (seed, command, name)
        total[_command(argv)] += 1
        computed[_command(argv)] += got in (0, 4)
    for command, count in total.items():
        assert computed[command] >= 0.8 * count, command


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for seed, text, argv in corpus_runs():
            code, stdout = replay(text, argv)
            sha = hashlib.sha256(stdout.encode()).hexdigest()
            print(seed, shlex.join(argv), code, sha, sep="\t")
