"""Fault table: engine faults injected in-process, and what catches each.

Each row names a fault, the private name it patches, a wrapper that breaks
that name's result, an argv, and the expected outcome: a verdict name,
meaning exit 4 with that verdict failing, an open ROADMAP item, meaning
exit 0 with a changed stdout: the fault fires and no verdict sees it, a
gap that the item will close, or "unchanged", meaning exit 0 with the same
stdout: the fault costs work but changes no length.  Every argv exits 0
without the fault and reaches the patched name with it.  A change that
closes a gap flips its row from an item to a verdict; a change that opens
one cannot pass without changing the table.
"""

import contextlib
import io
from pathlib import Path

import pytest

import entrolab.cli as cli
import entrolab.entropy as entropy
import entrolab.koszul as koszul
import entrolab.monomials as monomials

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


def _top_mask_one_over(original):
    # one more unit of volume on the cell whose mask has the most cuts
    def volumes(tables):
        result = dict(original(tables))
        result[max(result)] += 1
        return result
    return volumes


def _minus_one(original):
    return lambda *args: original(*args) - 1


def _keep_one_divisible(original):
    # the first entry that the kept ones leave out is kept too: it lies in
    # the ideal of the others, so K(x, y) has the homology of K(x) (x) K(0)
    def kept(quotient, seq):
        kept = original(quotient, seq)
        dropped = [w for w in seq if w not in kept]
        return kept + (dropped[0],)
    return kept


def _keep_one_dropped(original):
    # the first vector the sweep drops is kept too: a generator that
    # another divides never sets a column height, so no length changes
    def minimal(gens):
        kept = original(gens)
        dropped = [g for g in gens if g not in kept]
        return tuple(sorted((*kept, *dropped[:1])))
    return minimal


def _drop_one_in_every_variable(original):
    # the first minimal generator that involves every variable is dropped:
    # the ideal stays m-primary and its colength grows.  A quotient such
    # as (X^2, XY) loses XY, and the oracles count the quotient as the
    # spec writes it
    def minimal(gens):
        kept = original(gens)
        inner = [g for g in kept if all(g)]
        return tuple(g for g in kept if g not in inner[:1])
    return minimal


def _first_coordinate_plus_one(original):
    def matvec(a, v):
        first, *rest = original(a, v)
        return (first + 1, *rest)
    return matvec


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
    ("one unit of volume on the top mask", koszul, "_cell_volumes",
     _top_mask_one_over,
     "koszul --spec specs/koszul_cubics.ring --pullback-iter 1 --oracle",
     "oracle-koszul"),
    # every slice of the pullback is a slice of the base, so a wrong rank
    # scales with flatness, and no rank the cubics need reaches H^0
    ("exact rank one short", koszul, "exact_rank", _minus_one,
     "koszul --spec specs/koszul_cubics.ring --pullback-iter 1 --oracle",
     "item 14"),
    ("a divisible entry kept", koszul, "_kept",
     _keep_one_divisible,
     "koszul --spec specs/koszul_regular.ring --pullback-iter 1 --oracle",
     "unchanged"),
    # the quotient is written with X^2 Y, which X^2 and XY divide; the
    # engine counts the swept quotient, and a divisible generator kept
    # there never sets a column height
    ("a divisible generator kept", monomials, "_minimal_sweep",
     _keep_one_dropped,
     "entropy --spec specs/quotient_divisible.ring --max-iter 3 --oracle",
     "unchanged"),
    # the swept quotient (X^2, XY) loses XY under the lower counts of
    # delta, while the oracle counts the quotient the spec writes; the
    # sequence, like the reference ideal, is counted as written and never
    # swept
    ("a minimal generator dropped", monomials, "_minimal_sweep",
     _drop_one_in_every_variable,
     "delta --spec specs/koszul_redundant.ring --max-iter 2 --oracle",
     "oracle-colength"),
    # the quotient (X^2, XY) loses XY, and the engine counts the swept
    # quotient while the oracle counts the one the spec writes
    ("a minimal quotient generator dropped", monomials, "_minimal_sweep",
     _drop_one_in_every_variable,
     "entropy --spec specs/koszul_redundant.ring --max-iter 3 --oracle",
     "oracle-colength"),
    ("matvec + 1 in the first coordinate", entropy, "_matvec",
     _first_coordinate_plus_one,
     "verify frobenius --spec specs/frobenius_cross.ring", "exact-lengths"),
]


def _counted(faulty, calls):
    """``faulty``, counting its calls in ``calls``."""
    def counted(*args):
        calls.append(args)
        return faulty(*args)
    return counted


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
    calls = []
    monkeypatch.setattr(module, name, _counted(wrapper(getattr(module, name)), calls))
    code, out = _run(argv)
    assert calls, f"{' '.join(argv)} does not reach {name}"
    if expected == "unchanged":
        assert code == 0 and out == clean, fault
    elif expected.startswith("item "):
        # the gap: the fault changes the output, and no verdict sees it
        assert code == 0 and out != clean, fault
    else:
        assert code == 4, fault
        assert f"# verdict\t{expected}\tFAIL\t" in out, fault
