"""Command-line behavior: golden outputs, determinism, exit codes."""

import hashlib
import importlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import entrolab
import entrolab.cli
from entrolab import (
    DimensionMismatchError,
    HypothesisError,
    NotFiniteLengthError,
    NotRegularError,
    SpecError,
    SquareCommutationError,
)
from entrolab.cli import main
from helpers import count_calls

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
            "# slope_method\tleast-squares",
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


def test_koszul_oracle_and_errors(workdir, capsys):
    (workdir / "cross2.spec").write_text(CROSS_FROB2)
    code, out = _run(capsys, ["koszul", "--spec", "cross2.spec", "--oracle"])
    assert code == 0
    assert "# verdict\toracle-slices\tPASS" in out

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


def test_koszul_oracle_resums_a_six_entry_region(workdir, capsys):
    # 128205 multidegrees, each with 64 basis subsets, summed one by one
    (workdir / "six.spec").write_text(CUBE3_SIX)
    code, out = _run(
        capsys, ["koszul", "--spec", "six.spec", "--pullback-iter", "2", "--oracle"]
    )
    assert code == 0
    assert "# region\t55,37,63\n" in out
    assert (
        "# verdict\toracle-slices\tPASS\tslice-by-slice sum over the 128205 "
        "multidegrees of the region box agrees\n"
    ) in out


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
    # the boxes are 6^n: 6^6 = 46656 <= BRUTE_BOX_CAP = 200000 < 6^7
    assert (
        "# verdict\toracle-colength\tPASS\tbox enumeration agrees for n <= 6"
        in out.splitlines()
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
            "# verdict\toracle-colength\tPASS\tbox enumeration agrees for n <= 3",
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
    built = []
    init = entrolab.koszul.KoszulComplex.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(entrolab.koszul.KoszulComplex, "__init__", counted_init)
    assert main(["delta", "--spec", spec, "--max-iter", "8"]) == 0
    # the base complex only: the lower counts come from colengths
    assert len(built) == 1

    counts = count_calls(monkeypatch, entrolab.monomials, "_standard_count")
    assert main(["entropy", "--spec", spec, "--max-iter", "6", "--oracle"]) == 0
    # one count per row: the oracle checks the lengths the sequence holds
    assert len(counts) == 6
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


def test_benchmark_argvs_parse(monkeypatch):
    # the benchmark passes --t and --tolerance only to the suites that
    # read them, so every argv it generates still parses
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    monkeypatch.syspath_prepend(str(root / "bench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.GENERATORS:
        for seed in (0, 1):
            for job in workloads.generate(workload, seed, "unused"):
                entrolab.cli._parser().parse_args(list(job.argv))


def test_exit_code_2_on_malformed_input(workdir, capsys):
    (workdir / "bad.spec").write_text("characteristic 0\nvariables X Y\nmap [2,0] [0,0]\n")
    assert main(["entropy", "--spec", "bad.spec"]) == 2
    assert main(["entropy", "--spec", "does-not-exist.spec"]) == 2
    capsys.readouterr()


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

    for key in entrolab.cli._HANDLERS:
        monkeypatch.setitem(entrolab.cli._HANDLERS, key, failing)
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
            "# verdict\texact-lengths\tPASS\tlength_n equals the closed form at every n",
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
            "# verdict\texact-lengths\tPASS\tlength_n equals the closed form at every n",
            "",
        ]
    )
    assert out == expected


def test_verify_exact_lengths_fail(workdir, capsys, monkeypatch):
    # a closed form that disagrees with the count fails the verdict (exit 4)
    def off_by_one(phi, n_max):
        return tuple(6 ** n + (n == 3) for n in range(1, n_max + 1)), 0.0

    monkeypatch.setattr(entrolab.cli, "monomial_matrix_closed_form", off_by_one)
    (workdir / "diag23.spec").write_text(DIAG)
    code, out = _run(capsys, ["verify", "diagonal", "--spec", "diag23.spec"])
    assert code == 4
    assert out.splitlines()[-1] == (
        "# verdict\texact-lengths\tFAIL\tclosed form gives 217 at n = 3"
    )


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
            "# verdict\texact-lengths\tPASS\tlength_n equals the closed form at every n",
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
    assert out.splitlines()[-1].startswith("# verdict\texact-lengths\tPASS\t")


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
            "# slope_method\tleast-squares",
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
    assert "# verdict\tslopes-agree\tPASS" in out
    # one count per row of each sequence, plus the reference ideal's
    # colength for the envelope (which counts once more); the maximal
    # ideal's colength is 1 on every ring
    cross = Path(__file__).parent.parent / "specs" / "frobenius_cross.ring"
    colengths = count_calls(monkeypatch, entrolab.monomials, "colength")
    counts = count_calls(monkeypatch, entrolab.monomials, "_standard_count")
    argv = ["verify", "ideal-independence", "--spec", str(cross), "--max-iter", "6"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert "# verdict\tslopes-agree\tPASS" in out
    assert len(colengths) == 1
    assert len(counts) == 2 * 6 + len(colengths)


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


def test_verify_transfer_pass_and_fail(workdir, capsys):
    (workdir / "square.spec").write_text(SQUARE_OK)
    code, out = _run(capsys, ["verify", "transfer", "--spec", "square.spec"])
    assert code == 0
    assert "# verdict\tentropies-agree\tPASS" in out

    (workdir / "bad_square.spec").write_text(SQUARE_DISAGREE)
    code, out = _run(capsys, ["verify", "transfer", "--spec", "bad_square.spec"])
    assert code == 4
    assert "# verdict\tentropies-agree\tFAIL" in out


def test_transfer_command_reports_chain_without_failing(workdir, capsys):
    (workdir / "bad_square.spec").write_text(SQUARE_DISAGREE)
    code, out = _run(capsys, ["transfer", "--spec", "bad_square.spec"])
    assert code == 0
    assert "# agree\tno" in out
    assert "one-sided chain" in out

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
    # one source and one target sequence of 5 iterates each
    assert len(calls) == 10


def test_transfer_broken_square_is_exit_3(workdir, capsys):
    broken = (
        "characteristic 2\nvariables X Y\nmap [2,0] [0,3]\n"
        "source_variables U V\nsource_map [2,0] [0,2]\nxi [1,0] [0,1]\n"
    )
    (workdir / "broken.spec").write_text(broken)
    assert main(["transfer", "--spec", "broken.spec"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--max-iter", "0"],
        ["entropy", "--max-iter", "-1"],
        ["entropy", "--max-iter", "two"],
        ["koszul", "--pullback-iter", "-1"],
        ["transfer", "--tolerance", "nan"],
        ["verify", "transfer", "--tolerance", "inf"],
        ["delta", "--t=nan"],
        ["delta", "--t=0,inf"],
        ["delta", "--t=,"],
        # koszul iterates by --pullback-iter alone and takes no --max-iter
        ["koszul", "--max-iter", "9", "--pullback-iter", "1"],
        # each verify suite takes only the flags it reads
        ["verify", "diagonal", "--t=1"],
        ["verify", "frobenius", "--tolerance", "0.5"],
        ["verify", "sandwich", "--tolerance", "0.5"],
        # and a prefix of another flag is not read as that flag
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
    assert main(["transfer", "--spec", "square.spec", "--max-iter", "2"]) == 2
    (workdir / "diag23.spec").write_text(DIAG)
    # the closed-form suites extrapolate nothing, so two rows are enough
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
    command = rng.choice(["entropy", "delta", "koszul", "verify", "transfer"])
    argv = [command]
    if command == "verify":
        argv.append(
            rng.choice(
                ["diagonal", "monomial-matrix", "frobenius",
                 "ideal-independence", "sandwich", "transfer"]
            )
        )
    argv += ["--spec", "fuzz.spec"]
    if rng.random() < 0.7:
        argv += ["--max-iter", rng.choice(["1", "2", "3", "4", "0", "-2", "x"])]
    if command in ("delta", "verify") and rng.random() < 0.5:
        argv.append("--t=" + rng.choice(["0", "-1,0,1", "0.5", "nan", "1,inf", ""]))
    if command in ("verify", "transfer") and rng.random() < 0.5:
        argv += ["--tolerance", rng.choice(["1e-6", "0.5", "nan", "-inf"])]
    if command == "koszul" and rng.random() < 0.7:
        argv += ["--pullback-iter", rng.choice(["0", "1", "2", "-1"])]
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
