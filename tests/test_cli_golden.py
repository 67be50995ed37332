"""Replay of the pinned stdout table ``cli_golden.tsv``.

Each row holds an argv, its exit code and the sha256 of its stdout, for
every subcommand and verify suite on the committed specs: plain, with
``--oracle`` where the subcommand takes it, with ``--format report`` and
with ``--log-base 2``.  Regenerate the table (only when stdout changes on
purpose) from the repository root with

    PYTHONPATH=src python3 tests/test_cli_golden.py > tests/cli_golden.tsv
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path

from entrolab.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "cli_golden.tsv"
SPECS = ["specs/diagonal235.ring", "specs/frobenius_cross.ring",
         "specs/frobenius_square.ring", "specs/koszul_redundant.ring",
         "specs/koszul_regular.ring", "specs/transfer_swap.ring"]
SUITES = ["diagonal", "monomial-matrix", "frobenius", "ideal-independence",
          "sandwich", "transfer"]


def golden_argvs() -> list[list[str]]:
    commands = [["entropy"], ["delta"], ["koszul"], ["transfer"]]
    commands += [["verify", suite] for suite in SUITES]
    argvs = []
    for spec in SPECS:
        for command in commands:
            base = command + ["--spec", spec]
            variants = [[], ["--format", "report"], ["--log-base", "2"]]
            if command[0] in ("entropy", "delta", "koszul"):
                variants.insert(1, ["--oracle"])
            argvs += [base + extra for extra in variants]
    return argvs


def replay(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``main(argv)`` and the sha256 of its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_cli_golden_table(monkeypatch):
    monkeypatch.chdir(ROOT)
    rows = [line.split("\t") for line in TABLE.read_text().splitlines()]
    assert [shlex.split(row[0]) for row in rows] == golden_argvs()
    for command, code, digest in rows:
        assert replay(shlex.split(command)) == (int(code), digest), command


if __name__ == "__main__":
    for argv in golden_argvs():
        print(shlex.join(argv), *replay(argv), sep="\t")
