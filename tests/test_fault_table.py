"""Fault table: engine faults injected in-process, and what catches each.

Each row names a fault, the private name it patches, a wrapper that breaks
that name's result, an argv, and the expected outcome: a verdict name,
meaning exit 4 with that verdict failing, or an open ROADMAP item, meaning
exit 0 with a changed stdout: the fault fires and no verdict sees it, a
gap that the item will close.  Every argv exits 0 without the fault.  A
change that closes a gap flips its row from an item to a verdict; a change
that opens one cannot pass without changing the table.
"""

import contextlib
import io
from pathlib import Path

import pytest

import entrolab.cli as cli
import entrolab.entropy as entropy
import entrolab.koszul as koszul

ROOT = Path(__file__).resolve().parent.parent


def _every_subset(original):
    return lambda quotient, d: list(range(1 << d))


def _count_one_over(original):
    def count(vectors, ring):
        length, *rest = original(vectors, ring)
        return (length + 1, *rest)
    return count


def _plus_one(original):
    return lambda *args: original(*args) + 1


def _h1_plus_one(original):
    # one more dimension in degree -1 of every nonempty slice
    def dims(m, characteristic, active):
        result = dict(original(m, characteristic, active))
        if active:
            result[-1] += 1
        return result
    return dims


FAULTS = [
    ("every variable set a face", entropy, "_faces", _every_subset,
     "verify monomial-matrix --spec specs/transfer_swap.ring", "rate-bracket"),
    ("standard count + 1 on a quotient", entropy, "_standard_count",
     _count_one_over, "verify frobenius --spec specs/frobenius_cross.ring",
     "exact-lengths"),
    ("standard count + 1 on a regular ring", entropy, "_standard_count",
     _count_one_over, "verify diagonal --spec specs/diagonal235.ring",
     "exact-lengths"),
    ("pivot count + 1 under a suite", cli, "_pivot_count", _plus_one,
     "verify frobenius --spec specs/frobenius_cross.ring", "exact-lengths"),
    ("pivot count + 1 under --oracle", cli, "_pivot_count", _plus_one,
     "entropy --spec specs/frobenius_cross.ring --oracle", "oracle-colength"),
    ("H^-1 + 1 in every slice", koszul, "_active_dims", _h1_plus_one,
     "koszul --spec specs/frobenius_cross.ring --pullback-iter 2 --oracle",
     "item 14"),
    ("H^-1 + 1 in every slice", koszul, "_active_dims", _h1_plus_one,
     "koszul --spec specs/koszul_redundant.ring --pullback-iter 1 --oracle",
     "item 14"),
]


def _row_id(row):
    words = row[4].split()
    return f"{row[2]}/{words[0]}/{Path(words[words.index('--spec') + 1]).stem}"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "fault, module, name, wrapper, command, expected", FAULTS,
    ids=[_row_id(row) for row in FAULTS],
)
def test_fault_table(monkeypatch, fault, module, name, wrapper, command, expected):
    monkeypatch.chdir(ROOT)
    argv = command.split()
    clean_code, clean = _run(argv)
    assert clean_code == 0
    monkeypatch.setattr(module, name, wrapper(getattr(module, name)))
    code, out = _run(argv)
    if expected.startswith("item "):
        # the gap: the fault changes the output, and no verdict sees it
        assert code == 0 and out != clean, fault
    else:
        assert code == 4, fault
        assert f"# verdict\t{expected}\tFAIL\t" in out, fault
