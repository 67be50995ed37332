"""Command-line behavior: golden outputs, determinism, exit codes."""

import hashlib
import importlib
import importlib.util
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import entrolab
import entrolab.cli
import entrolab.entropy
import entrolab.monomials
from entrolab import (
    DimensionMismatchError,
    HypothesisError,
    MonomialMap,
    NotFiniteLengthError,
    NotRegularError,
    RingSpec,
    SpecError,
    SquareCommutationError,
    colength_bruteforce,
    image_ideal,
    iterate,
    minimalize,
)
from entrolab.cli import main
from helpers import count_calls, pure_powers_pointwise, random_m_primary_ideal

DIAG = "characteristic 0\nvariables X Y\nmap [2,0] [0,3]\n"
CROSS_FROB2 = (
    "characteristic 2\nvariables X Y\nquotient [1,1]\nmap [2,0] [0,2]\n"
    "sequence [1,0] [0,1]\n"
)
CUBE3_SIX = (
    "characteristic 3\nvariables X Y Z\nquotient [1,1,0]\n"
    "map [3,0,0] [0,3,0] [0,0,3]\n"
    "sequence [2,0,0] [0,2,0] [0,0,3] [1,1,1] [1,1,1] [2,0,2]\n"
)
SQUARE_OK = (
    "characteristic 2\nvariables X Y\nmap [2,0] [0,2]\n"
    "source_variables U V\nsource_map [2,0] [0,2]\nxi [1,0] [0,1]\n"
)
SQUARE_DISAGREE = (
    "characteristic 3\nvariables X Y\nquotient [1,1]\nmap [2,0] [0,3]\n"
    "source_variables U V\nsource_map [2,0] [0,3]\nxi [1,0] [0,1]\n"
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def _digest_line(text: str) -> str:
    return "# input\tsha256:" + hashlib.sha256(text.encode()).hexdigest()


def test_entropy_golden(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG)
    code, out = _run(capsys, ["entropy", "--spec", "diag23.spec", "--max-iter", "4"])
    assert code == 0
    expected = "\n".join(
        [
            "# command\tentropy --spec diag23.spec --max-iter 4",
            _digest_line(DIAG),
            "n\tlength\tlog_length\ta_n",
            "1\t6\t1.79175946923\t1.79175946923",
            "2\t36\t3.58351893846\t1.79175946923",
            "3\t216\t5.37527840768\t1.79175946923",
            "4\t1296\t7.16703787691\t1.79175946923",
            "# slope\t1.79175946923",
            "# last_a_n\t1.79175946923",
            "# prediction\tdiagonal\t1.79175946923",
            "",
        ]
    )
    assert out == expected


def test_output_is_byte_identical_across_runs(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG)
    argv = ["entropy", "--spec", "diag23.spec", "--max-iter", "5", "--oracle"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_koszul_golden(workdir, capsys):
    (workdir / "cross2.spec").write_text(CROSS_FROB2)
    code, out = _run(
        capsys, ["koszul", "--spec", "cross2.spec", "--pullback-iter", "2"]
    )
    assert code == 0
    expected = "\n".join(
        [
            "# command\tkoszul --spec cross2.spec --pullback-iter 2",
            _digest_line(CROSS_FROB2),
            "degree\tlength\tlog_length",
            "-2\t0\t",
            "-1\t7\t1.94591014906",
            "0\t7\t1.94591014906",
            "# profile\tmax_length=7\twidth=1",
            "# region\t5,5",
            "",
        ]
    )
    assert out == expected


def test_koszul_rows_every_degree_of_a_redundant_sequence(capsys):
    # X twice, Y^3 (which Y^2 divides) and XY (in the quotient) are free
    # factors; every degree -5..0 is still a row, the top one nonzero
    spec = Path(__file__).parent.parent / "specs" / "koszul_redundant.ring"
    argv = ["koszul", "--spec", str(spec), "--pullback-iter", "1"]
    code, out = _run(capsys, argv)
    assert code == 0
    expected = "\n".join(
        [
            f"# command\tkoszul --spec {spec} --pullback-iter 1",
            _digest_line(spec.read_text()),
            "degree\tlength\tlog_length",
            "-5\t1\t0",
            "-4\t9\t2.19722457734",
            "-3\t26\t3.25809653802",
            "-2\t34\t3.52636052462",
            "-1\t21\t3.04452243772",
            "0\t5\t1.60943791243",
            "# profile\tmax_length=34\twidth=5",
            "# region\t8,13",
            "",
        ]
    )
    assert out == expected


def test_koszul_oracle_and_errors(workdir, capsys):
    (workdir / "cross2.spec").write_text(CROSS_FROB2)
    code, out = _run(capsys, ["koszul", "--spec", "cross2.spec", "--oracle"])
    assert code == 0
    # the ring is not regular, so only H^0 is checked
    assert out.endswith(
        "# verdict\toracle-koszul\tPASS\tpivot count agrees at H^0\n"
    )

    # (X) alone in two variables is rejected as a sequence
    (workdir / "thin.spec").write_text(
        "characteristic 0\nvariables X Y\nmap [2,0] [0,3]\nsequence [1,0]\n"
    )
    code, _ = _run(capsys, ["koszul", "--spec", "thin.spec"])
    assert code == 3

    # missing sequence field is an input defect
    (workdir / "noseq.spec").write_text(DIAG)
    code, _ = _run(capsys, ["koszul", "--spec", "noseq.spec"])
    assert code == 2


def test_koszul_oracle_on_a_six_entry_sequence(workdir, capsys):
    # with its quotient the ring is not regular and only H^0 is checked;
    # without it every degree is also checked by flatness, at
    # 3^(3 * 2) = 729 times its length at n = 0
    (workdir / "six.spec").write_text(CUBE3_SIX)
    (workdir / "plain.spec").write_text(CUBE3_SIX.replace("quotient [1,1,0]\n", ""))
    argv = ["koszul", "--pullback-iter", "2", "--oracle", "--spec"]
    code, out = _run(capsys, argv + ["six.spec"])
    assert code == 0
    assert "\n0\t945\t" in out and "# region\t55,37,63\n" in out
    assert out.endswith(
        "# verdict\toracle-koszul\tPASS\tpivot count agrees at H^0\n"
    )
    code, out = _run(capsys, argv + ["plain.spec"])
    assert code == 0
    assert "\n0\t7290\t" in out and "# region\t54,36,63\n" in out
    assert out.endswith(
        "# verdict\toracle-koszul\tPASS\tpivot count agrees at H^0; "
        "every degree is 729 times its length at n = 0 (flatness)\n"
    )


def test_koszul_oracle_checks_h0_past_any_box_size(workdir, capsys):
    # the pivot count checks H^0 at any depth, here on boxes of 2^10 * 3^10
    # and 729^2 monomials, and flatness every degree of the regular ring
    (workdir / "diag23.spec").write_text(DIAG + "sequence [1,0] [0,1] [1,1]\n")
    (workdir / "cross3.spec").write_text(
        CROSS_FROB2.replace("characteristic 2", "characteristic 3")
        .replace("map [2,0] [0,2]", "map [3,0] [0,3]")
    )
    checked = "pivot count agrees at H^0"
    for spec, n, detail in (
        ("diag23.spec", "10", f"{checked}; every degree is 60466176 times "
         "its length at n = 0 (flatness)"),
        ("cross3.spec", "6", checked),
    ):
        code, out = _run(
            capsys, ["koszul", "--spec", spec, "--pullback-iter", n, "--oracle"]
        )
        assert code == 0
        assert out.endswith(f"# verdict\toracle-koszul\tPASS\t{detail}\n")


def test_koszul_oracle_catches_a_wrong_slice_count(capsys, monkeypatch):
    # one more dimension in H^0 of every nonempty slice: the cell sum then
    # overcounts H^0, and the pivot count shares no slice count with it
    spec = str(Path(__file__).parent.parent / "specs" / "frobenius_cross.ring")
    argv = ["koszul", "--spec", spec, "--oracle"]
    original = entrolab.koszul._active_dims

    def wrong(m, characteristic, active):
        dims = original(m, characteristic, active)
        dims[0] += active != 0
        return dims

    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(entrolab.koszul, "_active_dims", wrong)
    code, out = _run(capsys, argv)
    assert code == 4
    assert "\n0\t5\t" in out  # the 4 multidegrees with an active subset
    assert out.endswith(
        "# verdict\toracle-koszul\tFAIL\tpivot count gives H^0 = 1\n"
    )


def test_koszul_oracle_catches_a_cell_sum_off_flatness(workdir, capsys, monkeypatch):
    # one more unit of volume on the cell where X^2 and XY divide but Y^2
    # does not, whose slice has H^0 = 0 and H^-1 = 1, leaves H^0 right but
    # breaks length(H^-1) = 6 * length at n = 0 on k[X,Y] with X^2, Y^3:
    # 6 * (3 + 1) = 24 against 18 + 1.  A fault that scaled with the map,
    # per mask or per slice, would pass.  The three kept entries X^2, XY,
    # Y^2 outnumber the variables, so the cell walk runs (a system of
    # parameters is counted in closed form)
    (workdir / "diag23.spec").write_text(DIAG + "sequence [2,0] [1,1] [0,2]\n")
    argv = ["koszul", "--spec", "diag23.spec", "--pullback-iter", "1", "--oracle"]
    original = entrolab.koszul._cell_volumes

    def wrong(tables):
        volumes = original(tables)
        volumes[0b111] = volumes.get(0b111, 0) + 1
        return volumes

    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(entrolab.koszul, "_cell_volumes", wrong)
    code, out = _run(capsys, argv)
    assert code == 4
    assert out.endswith(
        "# verdict\toracle-koszul\tFAIL\tflatness gives 24 at degree -1\n"
    )


def test_repeated_main_calls_match_fresh_processes(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG)
    (workdir / "cross2.spec").write_text(CROSS_FROB2)
    commands = [
        ["delta", "--spec", "diag23.spec", "--max-iter", "3"],
        ["entropy", "--spec", "diag23.spec", "--max-iter", "0"],
        ["koszul", "--spec", "cross2.spec", "--pullback-iter", "1"],
        ["delta", "--spec", "diag23.spec", "--max-iter", "3", "--t=2"],
        ["delta", "--spec", "diag23.spec", "--max-iter", "3"],
    ]
    package_root = str(Path(entrolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    codes = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "entrolab.cli", *argv],
            capture_output=True, env=env, timeout=60,
        )
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0, 0]


def test_importing_the_cli_loads_no_module_outside_entrolab():
    # with the standard-library modules entrolab imports itself already
    # loaded, importing the CLI adds only entrolab's own modules: nothing
    # such as dataclasses, inspect or typing is paid for at start-up; -B,
    # as -I ignores PYTHONDONTWRITEBYTECODE, leaves no bytecode behind
    stdlib = (
        "__future__ argparse bisect collections functools hashlib itertools "
        "json math operator shlex sys time"
    ).split()
    package_root = str(Path(entrolab.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {package_root!r}); "
        f"import {', '.join(stdlib)}; before = set(sys.modules); "
        "import entrolab.cli; print(*sorted(set(sys.modules) - before))"
    )
    fresh = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert fresh.returncode == 0, fresh.stderr
    loaded = fresh.stdout.split()
    assert "entrolab.cli" in loaded
    assert [m for m in loaded if m.partition(".")[0] != "entrolab"] == []


def test_entropy_log_base_rescales_display(workdir, capsys):
    (workdir / "cross2.spec").write_text(CROSS_FROB2)
    code, out = _run(
        capsys,
        ["entropy", "--spec", "cross2.spec", "--max-iter", "4", "--log-base", "2"],
    )
    assert code == 0
    lines = out.splitlines()
    assert "1\t3\t1.58496250072\t1.58496250072" in lines
    assert "# prediction\tfrobenius\t1" in lines


def test_entropy_oracle_verdict(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG)
    code, out = _run(
        capsys, ["entropy", "--spec", "diag23.spec", "--max-iter", "8", "--oracle"]
    )
    assert code == 0
    # every row, however large its box: 6^8 monomials at n = 8
    assert (
        "# verdict\toracle-colength\tPASS\tpivot count agrees for n <= 8"
        in out.splitlines()
    )


def test_entropy_oracle_catches_a_count_fault_past_any_box(workdir, capsys,
                                                          monkeypatch):
    # a count one too high wherever the length exceeds 200,000: on
    # k[X,Y]/(X^100 Y^100) every row is counted, and the first hit is
    # n = 7, with 6^7 - 28 * 2087 = 221500 standard monomials in a box of
    # 128 * 2187 = 279936
    count = entrolab.entropy._standard_count

    def one_over_when_long(vectors, ring):
        length, *rest = count(vectors, ring)
        return (length + (length > 200_000), *rest)

    (workdir / "diag23q.spec").write_text(DIAG + "quotient [100,100]\n")
    argv = ["entropy", "--spec", "diag23q.spec", "--max-iter", "8", "--oracle"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(entrolab.entropy, "_standard_count", one_over_when_long)
    code, out = _run(capsys, argv)
    assert code == 4
    assert "7\t221501\t" in out
    assert out.splitlines()[-1] == (
        "# verdict\toracle-colength\tFAIL\tpivot count gives 221500 at n = 7"
    )


def test_report_format_is_json(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG)
    code, out = _run(
        capsys,
        ["entropy", "--spec", "diag23.spec", "--max-iter", "3", "--format", "report"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["n", "length", "log_length", "a_n"]
    assert payload["rows"][0] == ["1", "6", "1.79175946923", "1.79175946923"]
    assert payload["footer"][-1] == ["prediction", "diagonal", "1.79175946923"]
    assert payload["verdicts"] == []


def test_delta_regular_sandwich(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG)
    code, out = _run(
        capsys,
        ["delta", "--spec", "diag23.spec", "--max-iter", "4", "--t=-1,0,1",
         "--oracle"],
    )
    assert code == 0
    lines = out.splitlines()
    assert "t\tn\tlower_logavg\tupper_logavg\tgap_bound" in lines
    assert "-1\t1\t1.79175946923\t1.79175946923\t0" in lines
    assert "# verdict\tsandwich\tPASS\tlower <= upper and gap within bound at every n" in lines
    assert "# verdict\toracle-colength\tPASS" in out


def test_delta_non_regular_is_lower_only(workdir, capsys):
    (workdir / "cross2.spec").write_text(CROSS_FROB2)
    code, out = _run(
        capsys,
        ["delta", "--spec", "cross2.spec", "--max-iter", "3", "--t=-1,0,1",
         "--oracle"],
    )
    assert code == 0
    expected = "\n".join(
        [
            "# command\tdelta --spec cross2.spec --max-iter 3 --t=-1,0,1 --oracle",
            _digest_line(CROSS_FROB2),
            "# notice\tring is not regular: the upper tower-count bound is not "
            "certified; reporting the lower bound only",
            "t\tn\tlower_logavg",
            "-1\t1\t0.0986122886681",
            "-1\t2\t0.472955074528",
            "-1\t3\t0.569350067034",
            "0\t1\t1.09861228867",
            "0\t2\t0.972955074528",
            "0\t3\t0.902683400367",
            "1\t1\t0.0986122886681",
            "1\t2\t0.472955074528",
            "1\t3\t0.569350067034",
            "# profile\tmax_length=1\twidth=1",
            "# verdict\toracle-colength\tPASS\tpivot count agrees for n <= 3",
            "",
        ]
    )
    assert out == expected


def test_empty_sequence_line_is_the_empty_sequence(workdir, capsys):
    # an empty sequence line is the empty sequence, as for koszul, and not
    # the variables, which stand in only when the line is absent
    (workdir / "cube.spec").write_text(
        "characteristic 2\nvariables X\nquotient [3]\nmap [2]\nsequence\n"
    )
    code, out = _run(capsys, ["delta", "--spec", "cube.spec", "--max-iter", "2"])
    assert code == 0
    lines = out.splitlines()
    assert "# profile\tmax_length=3\twidth=0" in lines
    rows = lines[lines.index("t\tn\tlower_logavg") + 1:-1]
    assert len(rows) == 6 and all(row.endswith("\t0") for row in rows)

    (workdir / "plane.spec").write_text(DIAG + "sequence\n")
    for argv in (["delta"], ["verify", "sandwich"], ["koszul"]):
        assert main(argv + ["--spec", "plane.spec"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sequence does not generate an ideal of finite colength" in (
            captured.err
        )


def test_tower_counts_are_computed_once(capsys, monkeypatch):
    spec = str(Path(__file__).parent.parent / "specs" / "diagonal235.ring")
    koszul_counts = count_calls(monkeypatch, entrolab.koszul, "_koszul_lengths")
    assert main(["delta", "--spec", spec, "--max-iter", "8"]) == 0
    # the base complex only: the lower counts come from colengths
    assert len(koszul_counts) == 1

    counts = count_calls(monkeypatch, entrolab.monomials, "_standard_count")
    assert main(["entropy", "--spec", spec, "--max-iter", "6", "--oracle"]) == 0
    # one count for the whole sequence on a regular ring: the oracle checks
    # the lengths the sequence holds
    assert len(counts) == 1
    assert "# verdict\toracle-colength\tPASS" in capsys.readouterr().out


def test_traced_layers_resolve():
    # bench/run.py --trace 1 wraps these names; each must still exist
    path = Path(__file__).parent.parent / "bench" / "tracing.py"
    loader = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracing)
    for _, module, attribute in tracing.TRACED:
        target = importlib.import_module(f"entrolab.{module}")
        for part in attribute.split("."):
            target = getattr(target, part)
        assert callable(target), (module, attribute)


def _parse_outcome(capsys, parse, argv):
    """vars() of the namespace ``parse(argv)`` returns, or the code it
    exits with, and what it printed to stdout and stderr."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


# argvs that end in usage, help or an error: no command, a flag before the
# command, an unknown word, and words a command's own parser leaves over
ARGV_EDGES = [
    [], ["-h"], ["--help"], ["--"], ["bogus"], ["--spec", "x", "entropy"],
    ["-h", "entropy"], ["entropy"], ["entropy", "-h"], ["entropy", "--spec"],
    ["verify"], ["verify", "bogus"], ["verify", "frobenius", "--help"],
    ["entropy", "--spec", "x", "--bogus"], ["entropy", "--spec", "x", "y"],
    ["entropy", "--spec", "x", "--", "y"], ["entropy", "--", "--spec", "x"],
    ["entropy", "entropy", "--spec", "x"], ["entropy", "--sp", "x"],
    ["entropy", "--log-base", "3", "--spec", "x"],
    ["verify", "frobenius", "--spec", "x", "--t=1"],
    ["verify", "frobenius", "--spec", "x", "extra"],
    ["verify", "frobenius", "--", "--spec", "x"],
    ["verify", "--spec", "x", "frobenius"],
    ["verify", "diagonal", "--spec", "x", "--tolerance", "1"],
    ["verify", "-h"],
]


def test_benchmark_argvs_parse(monkeypatch, capsys):
    # main sends an argv that names a command, or a command and a verify
    # suite, straight to that leaf's parser; every argv the benchmark (which
    # passes --t only to the commands that read it) or the
    # golden table runs gives the namespace of the full parser, and every
    # edge argv its exit and output
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    monkeypatch.syspath_prepend(str(root / "bench"))
    workloads = importlib.import_module("workloads")
    argvs = [
        job.argv for workload in workloads.GENERATORS for seed in (0, 1)
        for job in workloads.generate(workload, seed, "unused")
    ]
    golden = (root / "tests" / "cli_golden.tsv").read_text().splitlines()
    argvs += [shlex.split(line.split("\t")[0]) for line in golden]
    argvs.append(["verify", "sandwich", "--spec", "x", "--t=-1,0,1"])
    full = entrolab.cli._parser().parse_args
    for argv in argvs:
        args, out, err = _parse_outcome(capsys, entrolab.cli._parse_args, argv)
        assert (args, out, err) == _parse_outcome(capsys, full, argv), argv
        assert isinstance(args, dict) and not out and not err, argv
        assert {"command", "suite"} <= args.keys(), argv
    for argv in ARGV_EDGES:
        exit_code, out, err = _parse_outcome(capsys, main, argv)
        assert (exit_code, out, err) == _parse_outcome(capsys, full, argv), argv
        # help goes to stdout with exit 0, a usage error to stderr with 2
        assert exit_code in (0, 2), argv
        assert (bool(out), bool(err)) == (exit_code == 0, exit_code == 2), argv


# values each flag accepts, and values for any flag: valid for some, a
# type or choice error for others, negative numbers, an embedded space, a
# flag or a dash as a value
FUZZ_VALID = {
    "--spec": ["x.ring", "a b.ring", "x=y"], "--format": ["tsv", "report"],
    "--log-base": ["e", "2", "10"], "--max-iter": ["1", "3", "12"],
    "--pullback-iter": ["0", "2"], "--t": ["0", "-1,0,1", "0.5,2", "-2,-0.5"],
}
FUZZ_VALUES = [
    "x.ring", "0", "1", "3", "12", "-1", "-2", "1.5", "two", "", " 2",
    "-1,0,1", "0.5,2", "nan", "1,inf", ",", "report", "tsv", "e", "2", "10",
    "--spec", "--oracle", "-h", "-", "- 1", "-1 ", "a=b", "--",
]
# words that are no flag value: help, the end of flags, unknown words and
# flags, abbreviations, a value given to a switch
FUZZ_WORDS = [
    "-h", "--help", "--", "extra", "--bogus", "--sp", "--max", "-x",
    "--oracle=", "--oracle=x", "--tolerance", "--t", "--pullback-iter",
    "--max-iter", "verify", "entropy",
]


def _fuzz_flag_argv(rng):
    """A leaf's words and a random pick of its flags, with repeats, in the
    space or the = form, valid or not, now and then with a stray word, a
    missing value or a broken command."""
    key = rng.choice(list(entrolab.cli._LEAVES))
    flags = list(entrolab.cli._LEAVES[key][1])
    argv = [word for word in key if word]
    if rng.random() < 0.05:
        argv = rng.choice([[], ["verify"], ["verify", "bogus"], ["-h"], ["bogus"],
                           ["--spec", "x", *argv], [argv[0], *argv]])
    picks = ([] if rng.random() < 0.1 else ["--spec"]) + [
        rng.choice(flags) for _ in range(rng.randint(0, 5))
    ]
    rng.shuffle(picks)
    for option in picks:
        if option == "--oracle" and rng.random() < 0.9:
            argv.append(option)
            continue
        value = rng.choice(
            FUZZ_VALID.get(option, FUZZ_VALUES) if rng.random() < 0.7 else FUZZ_VALUES
        )
        argv += [f"{option}={value}"] if rng.random() < 0.4 else [option, value]
    if rng.random() < 0.15:
        argv.insert(rng.randint(0, len(argv)), rng.choice(FUZZ_WORDS))
    if rng.random() < 0.1:
        argv.append(rng.choice(flags))  # a flag with its value missing
    return argv


# argvs the reader must read: both forms, the last of repeated flags, a
# negative list after =, a value holding =, string defaults converted
READ_ARGVS = [
    ["delta", "--spec=a", "--max-iter", "2", "--spec", "b"],
    ["verify", "sandwich", "--spec", "a", "--t=-0.5,2", "--t=-1"],
    ["entropy", "--spec", "x=y", "--oracle", "--oracle", "--log-base=10"],
    ["koszul", "--format=report", "--pullback-iter=0", "--spec", "a"],
]


def test_flag_reader_agrees_with_argparse_or_declines(capsys):
    # whenever the reader accepts an argv, argparse gives the same namespace
    # and prints nothing; whenever argparse exits, the reader has declined
    rng = random.Random(3232)
    full = entrolab.cli._parser().parse_args
    read = declined_parsed = exited = 0
    for argv in READ_ARGVS:
        assert entrolab.cli._read_flags(list(argv)) is not None, argv
    for argv in READ_ARGVS + [_fuzz_flag_argv(rng) for _ in range(1500)]:
        args = entrolab.cli._read_flags(list(argv))
        outcome = _parse_outcome(capsys, full, argv)
        if args is not None:
            assert outcome == (vars(args), "", ""), argv
            read += 1
        elif isinstance(outcome[0], dict):
            declined_parsed += 1
        else:
            exited += 1
    # each branch is taken: what the reader reads, the rare valid forms it
    # leaves to argparse (--spec -1, --spec "- 1", --spec=--), and the errors
    assert min(read, declined_parsed, exited) >= 20, (read, declined_parsed, exited)


def test_the_reader_accepts_every_benchmark_and_golden_argv(monkeypatch):
    # the seeds test_benchmark_argvs_parse leaves out; that test checks the
    # namespaces against argparse
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    monkeypatch.syspath_prepend(str(root / "bench"))
    workloads = importlib.import_module("workloads")
    argvs = [
        job.argv for workload in workloads.GENERATORS for seed in (31, 4242)
        for job in workloads.generate(workload, seed, "unused")
    ]
    golden = (root / "tests" / "cli_golden.tsv").read_text().splitlines()
    argvs += [shlex.split(line.split("\t")[0]) for line in golden]
    declined = [argv for argv in argvs if entrolab.cli._read_flags(list(argv)) is None]
    assert not declined


def test_a_valid_call_builds_no_argparse_parser(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG)
    entrolab.cli._parser.cache_clear()
    argv = ["delta", "--spec=diag23.spec", "--max-iter", "2", "--t=-1,0,1"]
    assert main(argv) == 0
    assert entrolab.cli._parser.cache_info().currsize == 0
    # a declined argv builds the tree, which parses it
    assert main(["delta", "--spec", "diag23.spec", "--max-iter", "2", "--t", "-1"]) == 0
    assert entrolab.cli._parser.cache_info().currsize == 1
    capsys.readouterr()


def test_exit_code_2_on_malformed_input(workdir, capsys):
    (workdir / "bad.spec").write_text("characteristic 0\nvariables X Y\nmap [2,0] [0,0]\n")
    assert main(["entropy", "--spec", "bad.spec"]) == 2
    assert main(["entropy", "--spec", "does-not-exist.spec"]) == 2
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int <-> str digit limit")
def test_lengths_beyond_the_int_str_digit_limit(workdir, capsys):
    # H^0 of the Koszul complex on (X, Y) pulled back along the Frobenius
    # of F_3[X,Y] 4600 times is 3^9200, 4390 digits; main lifts the limit
    # for its own call and gives the caller's back on every exit
    (workdir / "frob3.spec").write_text(
        "characteristic 3\nvariables X Y\nmap [3,0] [0,3]\n"
        "sequence [1,0] [0,1]\n"
    )
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = _run(capsys, ["koszul", "--spec", "frob3.spec",
                                  "--pullback-iter", "4600"])
        assert code == 0 and sys.get_int_max_str_digits() == 640
        assert main(["koszul", "--spec", "missing.spec"]) == 2
        assert sys.get_int_max_str_digits() == 640
        capsys.readouterr()
        sys.set_int_max_str_digits(0)
        h0 = [row for row in out.splitlines() if row.startswith("0\t")]
        assert [row.split("\t")[1] for row in h0] == [str(3 ** 9200)]
    finally:
        sys.set_int_max_str_digits(caller)


def test_spec_file_is_opened_once_per_run(workdir, capsys, monkeypatch):
    # the `# input` digest hashes the very bytes that are parsed
    text = CROSS_FROB2 + "# trailing comment\n"
    (workdir / "cross.spec").write_text(text)
    digest = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    opened = []
    real_open = open

    def counted_open(file, *args, **kwargs):
        if str(file).endswith("cross.spec"):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    for argv in (
        ["entropy", "--max-iter", "4", "--oracle"],
        ["delta", "--max-iter", "3"],
        ["koszul", "--pullback-iter", "1", "--format", "report"],
    ):
        opened.clear()
        code, out = _run(capsys, argv[:1] + ["--spec", "cross.spec"] + argv[1:])
        assert code == 0, argv
        assert len(opened) == 1, argv
        assert digest in out, argv


def test_non_utf8_spec_exits_2(workdir, capsys):
    (workdir / "latin1.spec").write_bytes(DIAG.encode() + b"# caf\xe9\n")
    assert main(["entropy", "--spec", "latin1.spec"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read spec file latin1.spec" in captured.err


def test_exit_code_3_on_hypothesis_failure(workdir, capsys):
    (workdir / "collapse.spec").write_text(
        "characteristic 0\nvariables X Y\nmap [1,1] [1,1]\n"
    )
    assert main(["entropy", "--spec", "collapse.spec"]) == 3
    (workdir / "diag23.spec").write_text(DIAG)
    # diag(2,3) is not the Frobenius of a characteristic-0 ring
    assert main(["verify", "frobenius", "--spec", "diag23.spec"]) == 3
    (workdir / "swap.spec").write_text(
        "characteristic 0\nvariables X Y\nmap [0,2] [3,0]\n"
    )
    assert main(["verify", "diagonal", "--spec", "swap.spec"]) == 3
    capsys.readouterr()


EMPTY_IDEAL = (
    "characteristic 2\nvariables X Y\nquotient [2,0] [0,2]\nmap [2,0] [0,2]\n"
    "ideal\n"
)


def test_empty_ideal_line_is_the_zero_ideal(workdir, capsys):
    # an ideal line with no vectors writes the zero ideal, primary to m
    # with the quotient (X^2, Y^2), so every length is 4; the oracle counts
    # those no vectors with the quotient, not the ideal used
    (workdir / "empty.spec").write_text(EMPTY_IDEAL)
    code, out = _run(
        capsys, ["entropy", "--spec", "empty.spec", "--max-iter", "3", "--oracle"]
    )
    assert code == 0
    assert out == "\n".join([
        "# command\tentropy --spec empty.spec --max-iter 3 --oracle",
        _digest_line(EMPTY_IDEAL),
        "n\tlength\tlog_length\ta_n",
        "1\t4\t1.38629436112\t1.38629436112",
        "2\t4\t1.38629436112\t0.69314718056",
        "3\t4\t1.38629436112\t0.462098120373",
        "# slope\t0",
        "# last_a_n\t0.462098120373",
        "# prediction\tfrobenius\t0",
        "# verdict\toracle-colength\tPASS\tpivot count agrees for n <= 3",
        "",
    ])
    argv = ["verify", "ideal-independence", "--spec", "empty.spec", "--max-iter", "3"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == "\n".join([
        "# command\tverify ideal-independence --spec empty.spec --max-iter 3",
        _digest_line(EMPTY_IDEAL),
        "n\tlength_q\ta_n_q\tlength_m\ta_n_m",
        "1\t4\t1.38629436112\t4\t1.38629436112",
        "2\t4\t0.69314718056\t4\t0.69314718056",
        "3\t4\t0.462098120373\t4\t0.462098120373",
        "# verdict\tlength-bracket\tPASS\t"
        "length_m <= length_q <= 6 * length_m at every n",
        "",
    ])


def test_entropy_builds_no_ideal_from_the_reference_vectors(monkeypatch, capsys):
    # the 23 reference vectors are counted as written: the one MonomialIdeal
    # a run builds is the zero quotient of the regular ring, and no vector
    # reaches the minimal-generator sweep
    built, swept = [], []
    zero = entrolab.monomials.MonomialIdeal((), 3)
    init = entrolab.monomials.MonomialIdeal.__init__
    sweep = entrolab.monomials._minimal_sweep

    def counted_init(self, generators, ambient_dim):
        init(self, generators, ambient_dim)
        built.append(self)

    def counted_sweep(gens):
        swept.extend(gens)
        return sweep(gens)

    monkeypatch.setattr(entrolab.monomials.MonomialIdeal, "__init__", counted_init)
    monkeypatch.setattr(entrolab.monomials, "_minimal_sweep", counted_sweep)
    spec = Path(__file__).parent.parent / "specs" / "degree5_squares.ring"
    code, out = _run(capsys, ["entropy", "--spec", str(spec), "--oracle"])
    assert code == 0
    assert "# verdict\toracle-colength\tPASS\tpivot count agrees for n <= 8" in out
    assert built == [zero] and swept == []


def test_unit_reference_ideal_exits_2_before_finiteness(workdir, capsys):
    # the reference ideal is validated before the map's finiteness, so a
    # unit ideal is malformed input (exit 2) even for a map that is not of
    # finite length; with a proper ideal that map still exits 3
    collapse = "characteristic 0\nvariables X Y\nmap [1,1] [1,1]\n"
    (workdir / "unit.spec").write_text(collapse + "ideal [0,0]\n")
    assert main(["entropy", "--spec", "unit.spec"]) == 2
    assert "error: reference ideal must be proper" in capsys.readouterr().err
    (workdir / "proper.spec").write_text(collapse + "ideal [2,0] [0,1]\n")
    assert main(["entropy", "--spec", "proper.spec"]) == 3
    assert "error: endomorphism is not of finite length" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (HypothesisError, 3),
        (NotFiniteLengthError, 3),
        (NotRegularError, 3),
        (SquareCommutationError, 3),
        (SpecError, 2),
        (DimensionMismatchError, 2),
        (ValueError, 2),
    ],
)
def test_handler_errors_map_to_exit_codes(workdir, capsys, monkeypatch, error, code):
    def failing(args, spec, report, scale):
        raise error("raised by the handler")

    for key, (_, flags) in entrolab.cli._LEAVES.items():
        monkeypatch.setitem(entrolab.cli._LEAVES, key, (failing, flags))
    (workdir / "square.spec").write_text(SQUARE_OK)
    for argv in (["entropy"], ["koszul"], ["verify", "frobenius"],
                 ["verify", "transfer"], ["transfer"]):
        assert main(argv + ["--spec", "square.spec"]) == code, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: raised by the handler\n"


def test_hypothesis_error_hierarchy():
    # one base for exit 3, itself a ValueError
    for error in (NotFiniteLengthError, NotRegularError, SquareCommutationError):
        assert issubclass(error, HypothesisError)
    assert issubclass(HypothesisError, ValueError)
    for error in (SpecError, DimensionMismatchError):
        assert issubclass(error, ValueError)
        assert not issubclass(error, HypothesisError)


SEQUENCE_6N = [
    "n\tlength\tlog_length\ta_n",
    "1\t6\t1.79175946923\t1.79175946923",
    "2\t36\t3.58351893846\t1.79175946923",
    "3\t216\t5.37527840768\t1.79175946923",
    "4\t1296\t7.16703787691\t1.79175946923",
    "5\t7776\t8.95879734614\t1.79175946923",
    "6\t46656\t10.7505568154\t1.79175946923",
    "7\t279936\t12.5423162846\t1.79175946923",
    "8\t1679616\t14.3340757538\t1.79175946923",
]


def test_verify_diagonal(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG)
    code, out = _run(capsys, ["verify", "diagonal", "--spec", "diag23.spec"])
    assert code == 0
    expected = "\n".join(
        [
            "# command\tverify diagonal --spec diag23.spec",
            _digest_line(DIAG),
            *SEQUENCE_6N,
            "# prediction\tdiagonal\t1.79175946923",
            "# verdict\texact-lengths\tPASS\tpivot count agrees for n <= 8",
            "# verdict\trate-bracket\tPASS\tface products bracket length_n "
            "and match log(6)/1 for n <= 8",
            "",
        ]
    )
    assert out == expected


def test_verify_diagonal_on_quotients(workdir, capsys):
    # k[X,Y]/(XY) with (2, 3): 2^n + 3^n - 1 and rate log 3; with Z -> Z^5
    # the face {X, Z} gives log 15
    cross = "characteristic 0\nvariables X Y\nquotient [1,1]\nmap [2,0] [0,3]\n"
    (workdir / "cross23.spec").write_text(cross)
    for command in ("verify diagonal", "verify monomial-matrix", "entropy"):
        code, out = _run(capsys, command.split() + ["--spec", "cross23.spec"])
        assert code == 0
        lines = out.splitlines()
        lengths = [int(line.split("\t")[1]) for line in lines[3:11]]
        assert lengths == [2 ** n + 3 ** n - 1 for n in range(1, 9)]
        suite = "monomial-matrix" if "monomial" in command else "diagonal"
        assert f"# prediction\t{suite}\t{math.log(3):.12g}" in lines
    assert lines[-1].startswith("# prediction")
    (workdir / "cross235.spec").write_text(
        "characteristic 0\nvariables X Y Z\nquotient [1,1,0]\n"
        "map [2,0,0] [0,3,0] [0,0,5]\n"
    )
    code, out = _run(capsys, ["verify", "diagonal", "--spec", "cross235.spec"])
    assert code == 0
    assert f"# prediction\tdiagonal\t{math.log(15):.12g}" in out
    assert "# verdict\texact-lengths\tPASS" in out
    assert "# verdict\trate-bracket\tPASS" in out


def test_verify_monomial_matrix(workdir, capsys):
    swap = "characteristic 0\nvariables X Y\nmap [0,2] [3,0]\n"
    (workdir / "swap.spec").write_text(swap)
    code, out = _run(capsys, ["verify", "monomial-matrix", "--spec", "swap.spec"])
    assert code == 0
    expected = "\n".join(
        [
            "# command\tverify monomial-matrix --spec swap.spec",
            _digest_line(swap),
            *SEQUENCE_6N,
            "# prediction\tmonomial-matrix\t1.79175946923",
            "# verdict\texact-lengths\tPASS\tpivot count agrees for n <= 8",
            "# verdict\trate-bracket\tPASS\tface products bracket length_n "
            "and match log(36)/2 for n <= 8",
            "",
        ]
    )
    assert out == expected


def test_verify_exact_lengths_fail(workdir, capsys, monkeypatch):
    # a pivot count that disagrees with the engine fails the verdict (exit
    # 4); a count one off at n = 3 stays inside the rate bracket
    count = entrolab.cli._pivot_count

    def off_by_one(gens, dim):
        length = count(gens, dim)
        return length + (length == 6 ** 3)

    monkeypatch.setattr(entrolab.cli, "_pivot_count", off_by_one)
    (workdir / "diag23.spec").write_text(DIAG)
    code, out = _run(capsys, ["verify", "diagonal", "--spec", "diag23.spec"])
    assert code == 4
    assert out.splitlines()[-2:] == [
        "# verdict\texact-lengths\tFAIL\tpivot count gives 217 at n = 3",
        "# verdict\trate-bracket\tPASS\tface products bracket length_n "
        "and match log(6)/1 for n <= 8",
    ]


def test_verify_frobenius_on_quotient(workdir, capsys):
    spec = "characteristic 3\nvariables X Y\nquotient [1,1]\nmap [3,0] [0,3]\n"
    (workdir / "frob.spec").write_text(spec)
    code, out = _run(capsys, ["verify", "frobenius", "--spec", "frob.spec"])
    assert code == 0
    expected = "\n".join(
        [
            "# command\tverify frobenius --spec frob.spec",
            _digest_line(spec),
            "n\tlength\tlog_length\ta_n",
            "1\t5\t1.60943791243\t1.60943791243",
            "2\t17\t2.83321334406\t1.41660667203",
            "3\t53\t3.97029191355\t1.32343063785",
            "4\t161\t5.08140436498\t1.27035109125",
            "5\t485\t6.18414889094\t1.23682977819",
            "6\t1457\t7.2841348062\t1.2140224677",
            "7\t4373\t8.38320455141\t1.1976006502",
            "8\t13121\t9.48196927911\t1.18524615989",
            "# prediction\tfrobenius\t1.09861228867",
            "# verdict\texact-lengths\tPASS\tpivot count agrees for n <= 8",
            "# verdict\trate-bracket\tPASS\tface products bracket length_n "
            "and match log(3)/1 for n <= 8",
            "",
        ]
    )
    assert out == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_verify_frobenius_cross_at_every_depth(capsys, n):
    # the paper's example passes at every depth, not only once a float
    # slope has converged
    spec = Path(__file__).parent.parent / "specs" / "frobenius_cross.ring"
    argv = ["verify", "frobenius", "--spec", str(spec), "--max-iter", str(n)]
    code, out = _run(capsys, argv)
    assert code == 0
    assert out.splitlines()[-2:] == [
        f"# verdict\texact-lengths\tPASS\tpivot count agrees for n <= {n}",
        "# verdict\trate-bracket\tPASS\tface products bracket length_n "
        f"and match log(3)/1 for n <= {n}",
    ]


def test_entropy_prediction_prefers_frobenius(capsys):
    # the squaring map on F_2[X,Y] is also diagonal on a regular ring; the
    # footer names the Frobenius prediction
    spec = Path(__file__).parent.parent / "specs" / "frobenius_square.ring"
    code, out = _run(capsys, ["entropy", "--spec", str(spec)])
    assert code == 0
    expected = "\n".join(
        [
            f"# command\tentropy --spec {spec}",
            _digest_line(spec.read_text()),
            "n\tlength\tlog_length\ta_n",
            "1\t4\t1.38629436112\t1.38629436112",
            "2\t16\t2.77258872224\t1.38629436112",
            "3\t64\t4.15888308336\t1.38629436112",
            "4\t256\t5.54517744448\t1.38629436112",
            "5\t1024\t6.9314718056\t1.38629436112",
            "6\t4096\t8.31776616672\t1.38629436112",
            "7\t16384\t9.70406052784\t1.38629436112",
            "8\t65536\t11.090354889\t1.38629436112",
            "# slope\t1.38629436112",
            "# last_a_n\t1.38629436112",
            "# prediction\tfrobenius\t1.38629436112",
            "",
        ]
    )
    assert out == expected


def test_verify_ideal_independence(workdir, capsys, monkeypatch):
    spec = "characteristic 0\nvariables X Y\nmap [2,0] [0,3]\nideal [2,0] [0,3]\n"
    (workdir / "ind.spec").write_text(spec)
    code, out = _run(capsys, ["verify", "ideal-independence", "--spec", "ind.spec"])
    assert code == 0
    # I = (X^2, Y^3): c = 1 + 2 + 1 = 4 and C(c + 1, 2) = 10
    assert out.splitlines()[-1] == (
        "# verdict\tlength-bracket\tPASS\t"
        "length_m <= length_q <= 10 * length_m at every n"
    )
    assert "# slope" not in out
    # no extrapolation, so a single row is enough
    code, out = _run(
        capsys,
        ["verify", "ideal-independence", "--spec", "ind.spec", "--max-iter", "1"],
    )
    assert code == 0
    assert "1\t36\t3.58351893846\t6\t1.79175946923" in out.splitlines()
    # one count per row of each sequence on a quotient ring, and no
    # colength of the reference ideal
    cross = Path(__file__).parent.parent / "specs" / "frobenius_cross.ring"
    colengths = count_calls(monkeypatch, entrolab.monomials, "colength")
    counts = count_calls(monkeypatch, entrolab.monomials, "_standard_count")
    argv = ["verify", "ideal-independence", "--spec", str(cross), "--max-iter", "6"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert "# verdict\tlength-bracket\tPASS" in out
    assert colengths == []
    assert len(counts) == 2 * 6


def _spec_vectors(vectors):
    return " ".join("[" + ",".join(map(str, v)) + "]" for v in vectors)


def test_ideal_independence_bracket_on_random_rings(workdir, capsys):
    # on random regular and quotient rings both sides of
    # length_m <= length_q <= C(c + d - 1, d) * length_m hold at every n,
    # with every length checked by box enumeration
    rng = random.Random(77)
    quotients = 0
    for case in range(40):
        d = rng.randint(1, 3)
        characteristic = rng.choice([0, 2, 3])
        quotient = []
        if d > 1 and case % 2:
            g = [0] * d
            for i in rng.sample(range(d), 2):
                g[i] = rng.randint(1, 2)
            quotient.append(tuple(g))
            quotients += 1
        # a diagonal map is well defined on every monomial quotient
        perm = list(range(d)) if quotient else rng.sample(range(d), d)
        columns = [
            tuple(rng.randint(1, 2) if i == perm[j] else 0 for i in range(d))
            for j in range(d)
        ]
        ideal = random_m_primary_ideal(rng, d, 3, 2)
        lines = [
            f"characteristic {characteristic}",
            "variables " + " ".join("XYZ"[:d]),
            "map " + _spec_vectors(columns),
            "ideal " + _spec_vectors(ideal),
        ]
        if quotient:
            lines.append("quotient " + _spec_vectors(quotient))
        (workdir / "ind.spec").write_text("\n".join(lines) + "\n")
        n_max = rng.randint(1, 3)
        code, out = _run(
            capsys,
            ["verify", "ideal-independence", "--spec", "ind.spec",
             "--max-iter", str(n_max)],
        )
        assert code == 0, lines
        assert "\tlength-bracket\tPASS\t" in out
        ring = RingSpec(characteristic, d, minimalize(set(quotient), d))
        phi = MonomialMap.from_columns(columns, ring)
        powers = pure_powers_pointwise(ideal + quotient, d)
        c = sum(a - 1 for a in powers) + 1
        factor = math.comb(c + d - 1, d)
        lines = out.splitlines()
        rows = lines[lines.index("n\tlength_q\ta_n_q\tlength_m\ta_n_m") + 1:-1]
        assert len(rows) == n_max
        for n, row in enumerate(rows, 1):
            length_q, length_m = int(row.split("\t")[1]), int(row.split("\t")[3])
            power = iterate(phi, n)
            assert length_q == colength_bruteforce(
                image_ideal(power, minimalize(set(ideal))), ring
            )
            assert length_m == colength_bruteforce(
                image_ideal(power, ring.maximal_ideal()), ring
            )
            assert length_m <= length_q <= factor * length_m
    assert quotients >= 10


@pytest.mark.parametrize(
    "ideal, length_q, length_m", [("[1]", "2", "2"), ("[3]", "6", "2")]
)
def test_ideal_independence_bracket_is_sharp(workdir, capsys, ideal, length_q,
                                             length_m):
    # on k[X] with X -> X^2, I = m meets the left side and I = (X^3) the
    # right one (C(3, 1) = 3): neither side can be tightened
    (workdir / "line.spec").write_text(
        f"characteristic 0\nvariables X\nmap [2]\nideal {ideal}\n"
    )
    code, out = _run(
        capsys,
        ["verify", "ideal-independence", "--spec", "line.spec", "--max-iter", "1"],
    )
    assert code == 0
    assert out.splitlines()[-2].split("\t")[1::2] == [length_q, length_m]


def test_ideal_independence_bracket_catches_count_faults(workdir, capsys,
                                                         monkeypatch):
    # on k[X] with X -> X^2 a regular-ring sequence counts only
    # length(R/I), once; a count one short makes length(R/m) = 0, and the
    # rows cannot be logged
    count = entrolab.entropy._standard_count

    def one_short(vectors, ring):
        length, *rest = count(vectors, ring)
        return (length - 1, *rest)

    def one_over_on_x3(vectors, ring):
        length, *rest = count(vectors, ring)
        return (length + (list(vectors) == [(3,)]), *rest)

    (workdir / "line.spec").write_text(
        "characteristic 0\nvariables X\nmap [2]\nideal [3]\n"
    )
    argv = ["verify", "ideal-independence", "--spec", "line.spec", "--max-iter", "3"]
    with monkeypatch.context() as patch:
        patch.setattr(entrolab.entropy, "_standard_count", one_short)
        code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == "error: int_log requires a positive integer\n"
    # one over on the count of I = (X^3) alone gives length_q = 4 * 2 = 8
    # against length_m = 2 and 3 * length_m = 6 at n = 1
    with monkeypatch.context() as patch:
        patch.setattr(entrolab.entropy, "_standard_count", one_over_on_x3)
        code, out = _run(capsys, argv)
    assert code == 4
    assert out.splitlines()[-1] == (
        "# verdict\tlength-bracket\tFAIL\tlength_q = 8 lies outside [2, 6] at n = 1"
    )
    # a reference-ideal row counted below length_m fails the left side; the
    # q-sequence counts the spec's vectors through the engine's private pass
    sequence = entrolab.cli._entropy_pass

    def low_third_row(ring, phi, vectors, n_max):
        seq = sequence(ring, phi, vectors, n_max)
        if vectors is None:
            return seq
        rows = list(seq.rows)
        rows[2] = rows[2]._replace(length=52)
        return seq._replace(rows=tuple(rows))

    monkeypatch.setattr(entrolab.cli, "_entropy_pass", low_third_row)
    cross = Path(__file__).parent.parent / "specs" / "frobenius_cross.ring"
    code, out = _run(capsys, ["verify", "ideal-independence", "--spec", str(cross)])
    assert code == 4
    assert out.splitlines()[-1] == (
        "# verdict\tlength-bracket\tFAIL\tlength_q = 52 lies outside [53, 318] at n = 3"
    )


def test_verify_sandwich(workdir, capsys):
    (workdir / "diag23.spec").write_text(DIAG + "sequence [2,0] [0,3]\n")
    code, out = _run(
        capsys, ["verify", "sandwich", "--spec", "diag23.spec", "--t=-1,0,1"]
    )
    assert code == 0
    assert "# verdict\tsandwich\tPASS" in out

    (workdir / "cross.spec").write_text(CROSS_FROB2)
    code, _ = _run(capsys, ["verify", "sandwich", "--spec", "cross.spec"])
    assert code == 3


def test_count_fault_breaks_the_sandwich(capsys, monkeypatch):
    # the upper counts |det A|^n are read off the matrix, not from the
    # engine that counts the lower ones, so a count one too high shows: on k[X,Y,Z]
    # with the sequence X, Y, Z, peak = 1, the one count of length(R/m) = 1
    # reads 2, and L_1 = 2 * 30 = 60 > 1 * U_1 = 30
    count = entrolab.entropy._standard_count

    def one_over(vectors, ring):
        length, *rest = count(vectors, ring)
        return (length + 1, *rest)

    monkeypatch.setattr(entrolab.entropy, "_standard_count", one_over)
    spec = str(Path(__file__).parent.parent / "specs" / "diagonal235.ring")
    for argv in (["verify", "sandwich"], ["delta"]):
        code, out = _run(capsys, argv + ["--spec", spec])
        assert code == 4, argv
        assert out.splitlines()[-1] == (
            "# verdict\tsandwich\tFAIL\t"
            "n=1: lower tower count 60 lies outside [30, 30]"
        )


def test_verify_transfer_pass_and_fail(workdir, capsys):
    (workdir / "square.spec").write_text(SQUARE_OK)
    code, out = _run(capsys, ["verify", "transfer", "--spec", "square.spec"])
    assert code == 0
    assert out.splitlines()[-1] == (
        "# verdict\tentropies-agree\tPASS\tlog(4)/1 = log(4)/1"
    )

    (workdir / "bad_square.spec").write_text(SQUARE_DISAGREE)
    code, out = _run(capsys, ["verify", "transfer", "--spec", "bad_square.spec"])
    assert code == 4
    assert out.splitlines()[2:5] == [
        "quantity\tvalue", "source_rate\t1.79175946923",
        "target_rate\t1.09861228867",
    ]
    assert out.splitlines()[-1] == (
        "# verdict\tentropies-agree\tFAIL\tlog(3)/1 != log(6)/1"
    )


def test_transfer_command_reports_chain_without_failing(workdir, capsys):
    (workdir / "bad_square.spec").write_text(SQUARE_DISAGREE)
    code, out = _run(capsys, ["transfer", "--spec", "bad_square.spec"])
    assert code == 0
    assert out.splitlines()[-4:] == [
        "# source_rate\t1.79175946923",
        "# target_rate\t1.09861228867",
        "# agree\tno",
        "# conclusion\trates differ; only the one-sided chain holds: "
        "1.09861228867 <= functor entropy <= 1.79175946923",
    ]

    (workdir / "square.spec").write_text(SQUARE_OK)
    code, out = _run(capsys, ["transfer", "--spec", "square.spec"])
    assert code == 0
    assert "# agree\tyes" in out
    assert "# conclusion\tpullback entropy of the target map is constant in t" in out


def test_transfer_builds_each_sequence_once(workdir, capsys, monkeypatch):
    calls = count_calls(monkeypatch, entrolab.monomials, "_standard_count")
    (workdir / "square.spec").write_text(SQUARE_OK)
    code, _ = _run(capsys, ["transfer", "--spec", "square.spec", "--max-iter", "5"])
    assert code == 0
    # one source and one target sequence, each on a regular ring, so one
    # count each whatever the number of iterates
    assert len(calls) == 2


def test_verify_transfer_counts_no_length(capsys, monkeypatch):
    # the verdict compares exact rates, so --max-iter moves nothing and no
    # sequence is counted, at any depth
    calls = count_calls(monkeypatch, entrolab.monomials, "_standard_count")
    spec = str(Path(__file__).parent.parent / "specs" / "transfer_swap.ring")
    argv = ["verify", "transfer", "--spec", spec, "--max-iter"]
    code, out = _run(capsys, argv + ["40"])
    assert code == 4
    assert calls == []
    shallow = _run(capsys, argv + ["1"])
    assert (shallow[0], shallow[1].splitlines()[1:]) == (4, out.splitlines()[1:])


def test_transfer_broken_square_is_exit_3(workdir, capsys):
    broken = (
        "characteristic 2\nvariables X Y\nmap [2,0] [0,3]\n"
        "source_variables U V\nsource_map [2,0] [0,2]\nxi [1,0] [0,1]\n"
    )
    (workdir / "broken.spec").write_text(broken)
    assert main(["transfer", "--spec", "broken.spec"]) == 3
    capsys.readouterr()


SPECS = Path(__file__).parent.parent / "specs"
# X -> Y^3, Y -> X^3, Z -> Z^4 on k[X,Y,Z]/(X Y^3 Z^3) and on k[U,V,W]
SQUARE_FACES = (
    "characteristic 0\nvariables X Y Z\nquotient [1,3,3]\n"
    "map [0,3,0] [3,0,0] [0,0,4]\nsource_variables U V W\n"
    "source_map [0,3,0] [3,0,0] [0,0,4]\nxi [1,0,0] [0,1,0] [0,0,1]\n"
)
# X -> XY, Y -> Y^2 on k[X,Y]/(X^2), with lengths 2^(n+1) - 1, and U -> U^2
SQUARE_SHEAR = (
    "characteristic 0\nvariables X Y\nquotient [2,0]\nmap [1,1] [0,2]\n"
    "source_variables U\nsource_map [2]\nxi [0,1]\n"
)


@pytest.mark.parametrize("n", ["3", "4", "8"])
def test_verify_transfer_fails_on_the_swap_square_at_every_depth(capsys, n):
    # source rate log(4)/2 = log 2, target rate log(2)/2: a float slope
    # read these as equal at three or four iterates
    spec = str(SPECS / "transfer_swap.ring")
    code, out = _run(capsys, ["verify", "transfer", "--spec", spec, "--max-iter", n])
    assert code == 4
    assert out.splitlines()[-1] == (
        "# verdict\tentropies-agree\tFAIL\tlog(2)/2 != log(4)/2"
    )


def test_each_command_reads_the_matrix_and_the_faces_once(monkeypatch, capsys):
    # one reading of phi's matrix per command, shared by the suites, the
    # exact rate and the rate bracket, and one enumeration of the faces,
    # which only a quotient needs
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    matrices = count_calls(monkeypatch, entrolab.entropy, "_monomial_matrix")
    faces = count_calls(monkeypatch, entrolab.monomials, "_faces")
    for command, spec, face_reads in [
        ("verify frobenius", "frobenius_cross", 1),
        ("verify diagonal", "diagonal235", 0),
        ("verify monomial-matrix", "transfer_swap", 1),
        ("entropy", "frobenius_cross", 1),
        ("entropy", "diagonal235", 0),
    ]:
        matrices.clear()
        faces.clear()
        argv = [*command.split(), "--spec", f"specs/{spec}.ring"]
        code, out = _run(capsys, argv)
        assert code == 0 and "# prediction\t" in out, argv
        assert (len(matrices), len(faces)) == (1, face_reads), argv


def test_transfer_chain_reads_the_exact_rates(workdir, capsys):
    # the faces of X Y^3 Z^3 give the target log(144)/2, below the source's
    # log 36; a difference-accelerated slope read 4.84 here
    (workdir / "faces.spec").write_text(SQUARE_FACES)
    code, out = _run(capsys, ["transfer", "--spec", "faces.spec"])
    assert code == 0
    assert out.splitlines()[-1] == (
        "# conclusion\trates differ; only the one-sided chain holds: "
        "2.48490664979 <= functor entropy <= 3.58351893846"
    )
    code, out = _run(capsys, ["entropy", "--spec", "faces.spec"])
    assert code == 0
    footer = [line.split("\t")[0] for line in out.splitlines() if line[0] == "#"]
    assert footer == ["# command", "# input", "# slope", "# last_a_n",
                      "# prediction"]


def test_transfer_refuses_a_target_that_is_not_a_monomial_matrix(workdir, capsys):
    (workdir / "shear.spec").write_text(SQUARE_SHEAR)
    for argv in (["transfer"], ["verify", "transfer"]):
        assert main(argv + ["--spec", "shear.spec"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: map is not a monomial matrix\n")


def test_transfer_needs_one_row(capsys):
    spec = str(SPECS / "frobenius_square.ring")
    code, out = _run(capsys, ["transfer", "--spec", spec, "--max-iter", "1"])
    assert code == 0
    assert "# agree\tyes" in out.splitlines()


def test_zero_source_map_column_is_malformed_for_every_command(workdir, capsys):
    # the source map is built at parse: a zero column is exit 2, with its
    # line, whether or not the command reads the square
    (workdir / "psi0.spec").write_text(
        "characteristic 2\nvariables X Y\nmap [2,0] [0,2]\n"
        "source_variables U\nsource_map [0]\nxi [1,0]\n"
    )
    for command in ("entropy", "transfer"):
        assert main([command, "--spec", "psi0.spec"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "error: line 5: map column 1 is zero (not a local endomorphism)\n"
            == captured.err
        )


def test_non_finite_xi_fails_only_the_transfer_commands(workdir, capsys):
    # xi = (X) has infinite colength in k[X,Y]: the square is built, and its
    # joining map checked, only by the commands that read it
    (workdir / "xi.spec").write_text(
        "characteristic 2\nvariables X Y\nmap [2,0] [0,2]\n"
        "source_variables U\nsource_map [2]\nxi [1,0]\n"
    )
    assert main(["entropy", "--spec", "xi.spec", "--max-iter", "3"]) == 0
    capsys.readouterr()
    for argv in (["transfer"], ["verify", "transfer"]):
        assert main(argv + ["--spec", "xi.spec"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not of finite length" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--max-iter", "0"],
        ["entropy", "--max-iter", "-1"],
        ["entropy", "--max-iter", "two"],
        ["koszul", "--pullback-iter", "-1"],
        # transfer compares integers and takes no tolerance
        ["transfer", "--tolerance", "1e-6"],
        ["delta", "--t=nan"],
        ["delta", "--t=0,inf"],
        ["delta", "--t=,"],
        # koszul iterates by --pullback-iter alone and takes no --max-iter
        ["koszul", "--max-iter", "9", "--pullback-iter", "1"],
        # each verify suite takes only the flags it reads
        ["verify", "diagonal", "--t=1"],
        ["verify", "frobenius", "--tolerance", "0.5"],
        ["verify", "sandwich", "--tolerance", "0.5"],
        # --t is read only by delta and verify sandwich
        ["verify", "transfer", "--t=0"],
        ["verify", "ideal-independence", "--t=0"],
    ],
)
def test_out_of_range_flags_exit_2(workdir, capsys, argv):
    (workdir / "cross2.spec").write_text(CROSS_FROB2)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--spec", "cross2.spec"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_library_value_errors_exit_2(workdir, capsys):
    (workdir / "square.spec").write_text(SQUARE_OK)
    # transfer and the closed-form suites extrapolate nothing, so two rows
    # are enough
    assert main(["transfer", "--spec", "square.spec", "--max-iter", "2"]) == 0
    (workdir / "diag23.spec").write_text(DIAG)
    argv = ["verify", "diagonal", "--spec", "diag23.spec", "--max-iter", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    (workdir / "neg.spec").write_text(DIAG + "ideal [-1,0] [0,2]\n")
    assert main(["entropy", "--spec", "neg.spec"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 4: ideal vector [-1, 0] has a negative entry" in captured.err


def _random_vectors(rng, count, dim):
    vecs = []
    for _ in range(count):
        length = dim if rng.random() < 0.9 else dim + rng.choice((-1, 1))
        lo = -1 if rng.random() < 0.05 else 0
        vecs.append(
            "[" + ",".join(str(rng.randint(lo, 2)) for _ in range(length)) + "]"
        )
    return " ".join(vecs)


def _random_spec_text(rng):
    dim = rng.randint(1, 3)
    names = ["X", "Y", "Z"][:dim]
    lines = [
        "characteristic " + rng.choice(["0", "2", "3", "5", "4", "-3", "x"]),
        "variables " + " ".join(names),
        "map " + _random_vectors(rng, dim if rng.random() < 0.9 else dim + 1, dim),
    ]
    if rng.random() < 0.4:
        lines.append("quotient " + _random_vectors(rng, rng.randint(1, 2), dim))
    if rng.random() < 0.5:
        lines.append("ideal " + _random_vectors(rng, rng.randint(1, 3), dim))
    if rng.random() < 0.7:
        lines.append("sequence " + _random_vectors(rng, rng.randint(1, 3), dim))
    if rng.random() < 0.3:
        sdim = rng.randint(1, 2)
        lines.append("source_variables " + " ".join(["U", "V"][:sdim]))
        lines.append("source_map " + _random_vectors(rng, sdim, sdim))
        lines.append("xi " + _random_vectors(rng, sdim, dim))
    if rng.random() < 0.1:
        lines.append(rng.choice(["bogus 1", "map [1]", "ideal [", "sequence []"]))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _random_argv(rng):
    """A command with a random pick of the flags it reads, valid or not."""
    command = rng.choice(["entropy", "delta", "koszul", "verify", "transfer"])
    argv = [command]
    if command == "verify":
        argv.append(
            rng.choice(
                ["diagonal", "monomial-matrix", "frobenius",
                 "ideal-independence", "sandwich", "transfer"]
            )
        )
    leaf = argv[-1]
    argv += ["--spec", "fuzz.spec"]
    if command == "koszul":
        if rng.random() < 0.7:
            argv += ["--pullback-iter", rng.choice(["0", "1", "2", "-1", "x"])]
    elif rng.random() < 0.7:
        argv += ["--max-iter", rng.choice(["1", "2", "3", "4", "0", "-2", "x"])]
    if leaf in ("delta", "sandwich") and rng.random() < 0.5:
        argv.append("--t=" + rng.choice(["0", "-1,0,1", "0.5", "nan", "1,inf", ""]))
    if command in ("entropy", "delta", "koszul") and rng.random() < 0.3:
        argv.append("--oracle")
    if rng.random() < 0.3:
        argv += ["--format", "report"]
    return argv


def test_cli_fuzz_exit_codes(workdir, capsys):
    rng = random.Random(4096)
    seen = set()
    for _ in range(200):
        (workdir / "fuzz.spec").write_text(_random_spec_text(rng))
        argv = _random_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in captured.err, argv
        seen.add(code)
    assert {0, 2, 3} <= seen
