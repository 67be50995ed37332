"""Command-line front door.

Subcommands: entropy, delta, koszul, verify, transfer, each taking only
the flags it reads.  Every verdict compares integers: the monomial-matrix
suites check every length by a pivot count and the printed rate by an
integer bracket, on any monomial quotient; transfer compares rates
log(N)/L as integer powers.  Reports are deterministic: identical
invocations produce byte-identical stdout (wall time goes to stderr).
Exit codes: 0 success, 2 malformed input, 3 failed hypothesis (finite
length, regularity, commutation, the map a suite needs), 4 failed verdict.
Flags are declared once, in ``_LEAVES``.  A command line that names a
leaf and gives only its flags, as ``--flag value`` or ``--flag=value``,
is read in one pass over that table; anything else (help, an unknown
word, a bad value) goes to the argparse tree built from the same table,
which prints its help or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shlex
import sys
import time

from .errors import HypothesisError, SpecError
from .monomials import _pivot_count, _pure_powers
from .endos import MonomialMap, _matmul, _matvec
from .koszul import _koszul_lengths, pullback_homology
from .entropy import (
    _cycle_rate,
    _entropy_pass,
    _maximal_faces,
    _monomial_matrix,
    _rate_bracket_violations,
    estimate_limit,
    int_log,
    local_entropy_sequence,
    log_rate,
    sandwich,
    sandwich_violations,
    transfer_check,
)
from .specfile import parse_spec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_VERDICT = 4

_LOG_SCALES = {"e": 1.0, "2": 1.0 / math.log(2), "10": 1.0 / math.log(10)}


class RunReport:
    """What a subcommand found, filled in place by its handler and
    rendered once."""

    def __init__(self):
        self.command = ""
        self.digest = ""
        self.columns: list[str] = []
        self.rows: list[list[str]] = []
        self.notices: list[str] = []
        self.footer: list[tuple[str, ...]] = []
        self.verdicts: list[tuple[str, bool, str]] = []


def _fmt(x: float) -> str:
    s = f"{x:.12g}"
    return "0" if s in ("-0", "-0.0") else s


def _render_tsv(report: RunReport) -> str:
    lines = [f"# command\t{report.command}", f"# input\t{report.digest}"]
    lines += [f"# notice\t{n}" for n in report.notices]
    lines.append("\t".join(report.columns))
    lines += ["\t".join(row) for row in report.rows]
    lines += ["# " + "\t".join(item) for item in report.footer]
    lines += [
        f"# verdict\t{name}\t{'PASS' if ok else 'FAIL'}\t{detail}"
        for name, ok, detail in report.verdicts
    ]
    return "\n".join(lines) + "\n"


def _render_json(report: RunReport) -> str:
    obj = {
        "command": report.command,
        "input": report.digest,
        "notices": report.notices,
        "columns": report.columns,
        "rows": report.rows,
        "footer": [list(item) for item in report.footer],
        "verdicts": [
            {"name": name, "status": "PASS" if ok else "FAIL", "detail": detail}
            for name, ok, detail in report.verdicts
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _int_at_least(low: int):
    def integer(raw: str) -> int:
        value = int(raw)  # argparse reports a ValueError as an invalid integer
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def _t_values(raw: str) -> list[float]:
    values = []
    for tok in filter(str.strip, raw.split(",")):
        try:
            value = float(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{tok!r} is not a number") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{tok!r} is not finite")
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError("lists no values")
    return values


# what "verify <suite> requires" of the map; the order matters: entropy's
# prediction footer names the first suite whose hypothesis holds
_REQUIREMENTS = {
    "frobenius": "the p-th power map in characteristic p > 0",
    "diagonal": "a diagonal map",
    "monomial-matrix": "exactly one positive entry in every row and column",
}


def _suites(phi: MonomialMap) -> tuple[tuple | None, list[str]]:
    """The map's ``_monomial_matrix``, or None when it is none, and the
    suites of _REQUIREMENTS whose hypothesis the map meets, in their order:
    a monomial matrix, with its positive entries on the diagonal, and there
    all equal to p.  The one reading of the matrix in a command."""
    try:
        matrix = source, power = _monomial_matrix(phi)
    except HypothesisError:
        return None, []
    if source != list(range(len(source))):
        return matrix, ["monomial-matrix"]
    # the entries are positive, so none equals a characteristic 0
    p = phi.ring.characteristic
    frobenius = all(e == p for e in power)
    return matrix, ["frobenius"] * frobenius + ["diagonal", "monomial-matrix"]


def _oracle_lengths_verdict(spec, seq, vectors=None, name="oracle-colength"):
    """Check every length of the sequence by ``_pivot_count`` on the images
    of ``vectors`` as the spec wrote them (None: the vectors the pass
    counted) under composed powers of the map's matrix, with the spec's
    quotient as written, so the check shares neither the engine's
    minimalization nor its image-by-image iteration."""
    quotient = list(spec.quotient)
    matrix = power = seq.map.matrix
    gens = seq.ideal_used if vectors is None else vectors
    for row in seq.rows:
        if row.n > 1:
            power = _matmul(matrix, power)
        images = [_matvec(power, g) for g in gens]
        length = _pivot_count(images + quotient, spec.ring.dim_ambient)
        if length != row.length:
            return (name, False, f"pivot count gives {length} at n = {row.n}")
    return (name, True, f"pivot count agrees for n <= {seq.rows[-1].n}")


def _entropy(args, spec, report: RunReport, scale: float):
    seq = _entropy_pass(spec.ring, spec.map, spec.ideal, args.max_iter)
    _fill_sequence_rows(report, seq, scale)
    if args.max_iter >= 3:
        report.footer.append(("slope", _fmt(estimate_limit(seq) * scale)))
        report.footer.append(("last_a_n", _fmt(seq.rows[-1].log_average * scale)))
    matrix, suites = _suites(spec.map)
    if suites:
        rate = _cycle_rate(matrix, _maximal_faces(spec.ring))
        report.footer.append(("prediction", suites[0], _rate(rate, scale)))
    if args.oracle:
        report.verdicts.append(_oracle_lengths_verdict(spec, seq, spec.ideal))


def _profile_item(profile) -> tuple[str, ...]:
    return ("profile", f"max_length={profile.peak}", f"width={profile.width}")


def _fill_sandwich_rows(report: RunReport, bounds, scale: float):
    """The rows of the bound tables: t/n/lower/upper/gap with the h_loc
    footer and the sandwich verdict, or t/n/lower alone when the ring is
    not regular and the report carries no upper counts."""
    upper = bounds.upper_sequence
    report.columns = ["t", "n", "lower_logavg"]
    if upper is not None:
        report.columns += ["upper_logavg", "gap_bound"]
    for row in bounds.rows:
        cells = [_fmt(row.t), str(row.n), _fmt(row.lower_logavg * scale)]
        if upper is not None:
            cells += [
                _fmt(row.upper_logavg * scale),
                _fmt(row.gap_bound * scale),
            ]
        report.rows.append(cells)
    if upper is not None:
        # length(R/phi m) = |det A| on a regular ring: its log is the rate
        report.footer.append(("h_loc", _fmt(upper.rows[0].log_length * scale)))
        problems = sandwich_violations(bounds)
        report.verdicts.append(
            ("sandwich", not problems, problems[0] if problems else
             "lower <= upper and gap within bound at every n")
        )


def _delta(args, spec, report: RunReport, scale: float):
    ring = spec.ring
    bounds = sandwich(ring, spec.map, spec.sequence, args.t, args.max_iter)
    if not ring.regular:
        report.notices.append(
            "ring is not regular: the upper tower-count bound is not "
            "certified; reporting the lower bound only"
        )
    report.footer.append(_profile_item(bounds.profile))
    _fill_sandwich_rows(report, bounds, scale)
    if args.oracle:
        lower = bounds.lower_sequence
        report.verdicts.append(_oracle_lengths_verdict(spec, lower, spec.sequence))


def _koszul(args, spec, report: RunReport, scale: float):
    if spec.sequence is None:
        raise SpecError("sequence field is required for the koszul command")
    pulled, lengths, profile = pullback_homology(
        spec.ring, spec.sequence, spec.map, args.pullback_iter
    )
    report.columns = ["degree", "length", "log_length"]
    for degree in range(-len(pulled), 1):
        value = lengths.length(degree)
        log_txt = _fmt(int_log(value) * scale) if value else ""
        report.rows.append([str(degree), str(value), log_txt])
    report.footer.append(_profile_item(profile))
    report.footer.append(("region", ",".join(str(s) for s in lengths.region)))
    if args.oracle:
        report.verdicts.append(
            _oracle_koszul_verdict(spec, pulled, lengths, args.pullback_iter)
        )


def _oracle_koszul_verdict(spec, pulled, lengths, n):
    """Check the lengths of the Koszul complex pulled back along phi^n.

    H^0 is the colength of the pulled-back sequence plus the quotient as
    the spec writes it, so ``_pivot_count`` checks it on any ring and at
    any depth, with no cell walk, no slice count and no minimalization:
    this is the independent part.  On a regular ring a finite-length phi
    is flat (Matsumura, Commutative Ring Theory, 23.1), so for n >= 1
    every degree is length(R/phi^n m) = |det A|^n, read off phi's matrix
    A, times its length at n = 0.  That catches cell-walk and region
    errors, which grow with the exponents.  It does not catch a wrong
    slice count: for a monomial-matrix map every slice of the pullback is
    a slice of the base, so such an error scales exactly and passes.  When
    the kept entries are a system of parameters, both sides are products
    of exponents, so flatness compares a product with itself and H^0 by
    the pivot count is the only independent check."""
    ring = spec.ring
    h0 = _pivot_count([*pulled, *spec.quotient], ring.dim_ambient)
    if h0 != lengths.length(0):
        return ("oracle-koszul", False, f"pivot count gives H^0 = {h0}")
    notes = ["pivot count agrees at H^0"]
    if ring.regular and n:
        factor = math.prod(_monomial_matrix(spec.map)[1]) ** n
        base = _koszul_lengths(ring, spec.sequence)[1].lengths
        for degree, length in sorted(base.items()):
            if factor * length != lengths.length(degree):
                return ("oracle-koszul", False, f"flatness gives "
                        f"{factor * length} at degree {degree}")
        notes.append(
            f"every degree is {factor} times its length at n = 0 (flatness)"
        )
    return ("oracle-koszul", True, "; ".join(notes))


def _rate(rate: tuple[int, int], scale: float) -> str:
    return _fmt(log_rate(rate) * scale)


def _transfer(args, spec, report: RunReport, scale: float):
    square = spec.square()
    result = transfer_check(square)
    report.columns = ["ring", "n", "length", "a_n"]
    for label, ring, phi in (
        ("source", square.source_ring, square.psi),
        ("target", square.target_ring, square.phi),
    ):
        seq = local_entropy_sequence(ring, phi, None, args.max_iter)
        for row in seq.rows:
            report.rows.append(
                [label, str(row.n), str(row.length), _fmt(row.log_average * scale)]
            )
    report.footer.append(("source_rate", _rate(result.source_rate, scale)))
    report.footer.append(("target_rate", _rate(result.target_rate, scale)))
    report.footer.append(("agree", "yes" if result.agree else "no"))
    report.footer.append(("conclusion", result.conclusion))


def _verify_exact_rate(args, spec, report: RunReport, scale: float):
    matrix, suites = _suites(spec.map)
    if args.suite not in suites:
        raise HypothesisError(
            f"verify {args.suite} requires {_REQUIREMENTS[args.suite]}"
        )
    seq = local_entropy_sequence(spec.ring, spec.map, None, args.max_iter)
    _fill_sequence_rows(report, seq, scale)
    faces = _maximal_faces(spec.ring)
    rate = _cycle_rate(matrix, faces)
    report.footer.append(("prediction", args.suite, _rate(rate, scale)))
    report.verdicts.append(_oracle_lengths_verdict(spec, seq, name="exact-lengths"))
    problems = _rate_bracket_violations(seq, rate, matrix, faces)
    report.verdicts.append((
        "rate-bracket", not problems, problems[0] if problems else
        "face products bracket length_n and match log({})/{} for n <= {}"
        .format(*rate, args.max_iter),
    ))


def _verify_ideal_independence(args, spec, report, scale):
    """The lengths of R/phi^n I and R/phi^n m, with a verdict at every n:
    length(R/phi^n m) <= length(R/phi^n I) <= C(c+d-1, d) length(R/phi^n m),
    where c = sum(a_i - 1) + 1 and X_i^a_i is the least pure power of X_i
    in I + J.  Let b be the ideal the images phi^n(X_i) generate in R.  As
    I lies in m, phi^n(I) lies in b: the left side.  A monomial of degree c
    has some exponent i at least a_i, so m^c lies in I + J and b^c in
    phi^n(I)R.  Over R/b each b^i/b^(i+1) is generated by the C(i+d-1, d-1)
    monomials of degree i in the d images; summing over i < c,
    length(R/phi^n I) <= length(R/b^c) <= C(c+d-1, d) length(R/b).
    """
    ring, mono_map, ideal = spec.ring, spec.map, spec.ideal
    if ideal is None:
        raise SpecError("ideal field is required for the ideal-independence suite")
    seq_q = _entropy_pass(ring, mono_map, ideal, args.max_iter)
    seq_m = local_entropy_sequence(ring, mono_map, None, args.max_iter)
    report.rows += [
        [str(row_q.n), str(row_q.length), _fmt(row_q.log_average * scale),
         str(row_m.length), _fmt(row_m.log_average * scale)]
        for row_q, row_m in zip(seq_q.rows, seq_m.rows)
    ]
    report.columns = ["n", "length_q", "a_n_q", "length_m", "a_n_m"]
    d = ring.dim_ambient
    powers = _pure_powers((*ideal, *ring.quotient.generators), d)
    factor = math.comb(sum(powers), d)  # C(c + d - 1, d)
    outside = [
        f"length_q = {q.length} lies outside [{m.length}, {factor * m.length}]"
        f" at n = {q.n}" for q, m in zip(seq_q.rows, seq_m.rows)
        if not m.length <= q.length <= factor * m.length
    ]
    report.verdicts.append((
        "length-bracket", not outside, outside[0] if outside
        else f"length_m <= length_q <= {factor} * length_m at every n",
    ))


def _verify_sandwich(args, spec, report, scale):
    if not spec.ring.regular:
        raise HypothesisError("verify sandwich requires a regular ring")
    bounds = sandwich(spec.ring, spec.map, spec.sequence, args.t, args.max_iter)
    _fill_sandwich_rows(report, bounds, scale)


def _verify_transfer(args, spec, report, scale):
    # --max-iter is accepted but unread: the verdict compares exact rates
    result = transfer_check(spec.square())
    report.columns = ["quantity", "value"]
    report.rows.append(["source_rate", _rate(result.source_rate, scale)])
    report.rows.append(["target_rate", _rate(result.target_rate, scale)])
    detail = "log({})/{} {} log({})/{}".format(
        *result.target_rate, "=" if result.agree else "!=", *result.source_rate
    )
    report.verdicts.append(("entropies-agree", result.agree, detail))
    report.footer.append(("conclusion", result.conclusion))


def _fill_sequence_rows(report: RunReport, seq, scale: float):
    report.columns = ["n", "length", "log_length", "a_n"]
    report.rows += [
        [str(row.n), str(row.length), _fmt(row.log_length * scale),
         _fmt(row.log_average * scale)]
        for row in seq.rows
    ]


# each command's help line, in the order --help lists them
_COMMANDS = {
    "entropy": "colength growth of the iterates",
    "delta": "lower/upper complexity bound tables",
    "koszul": "cohomology lengths of a Koszul complex",
    "verify": "verdict suites",
    "transfer": "compare growth across a commuting square",
}

# Every flag, declared once as its ``add_argument`` keywords: ``_parser``
# passes them on, and ``_read_flags`` reads required, type, default,
# choices and store_true from them.
_COMMON = {
    "--spec": {"required": True, "help": "ring specification file"},
    "--format": {"choices": ("tsv", "report"), "default": "tsv",
                 "help": "tsv table or a single JSON object"},
    "--log-base": {"choices": _LOG_SCALES, "default": "e", "help":
                   "display base for logarithms (rescales display only)"},
}
_MAX_ITER = {"--max-iter": {"type": _int_at_least(1), "default": 8, "metavar": "N"}}
_PULLBACK_ITER = {
    "--pullback-iter": {"type": _int_at_least(0), "default": 0, "metavar": "N"}
}
_T = {"--t": {"type": _t_values, "default": "-1,0,1",
              "help": "comma-separated real parameters for the bounds"}}
_COLENGTH_ORACLE = {"--oracle": {"action": "store_true", "default": False, "help":
                    "cross-check every colength by an independent pivot count"}}
_KOSZUL_ORACLE = {"--oracle": {"action": "store_true", "default": False, "help":
                  "cross-check H^0 by an independent pivot count and, on a "
                  "regular ring, every degree by flatness"}}

# each leaf, keyed (command, suite), as its handler and its flags in the
# order --help lists them
_LEAVES = {
    ("entropy", None): (_entropy, {**_COMMON, **_MAX_ITER, **_COLENGTH_ORACLE}),
    ("delta", None): (_delta, {**_COMMON, **_MAX_ITER, **_T, **_COLENGTH_ORACLE}),
    ("koszul", None): (_koszul, {**_COMMON, **_KOSZUL_ORACLE, **_PULLBACK_ITER}),
    ("transfer", None): (_transfer, {**_COMMON, **_MAX_ITER}),
    **{("verify", suite): (_verify_exact_rate, {**_COMMON, **_MAX_ITER})
       for suite in _REQUIREMENTS},
    ("verify", "ideal-independence"): (
        _verify_ideal_independence, {**_COMMON, **_MAX_ITER}
    ),
    ("verify", "transfer"): (_verify_transfer, {**_COMMON, **_MAX_ITER}),
    ("verify", "sandwich"): (_verify_sandwich, {**_COMMON, **_MAX_ITER, **_T}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one serves every call
    parser = argparse.ArgumentParser(
        prog="entrolab",
        description=(
            "Exact colength growth, Koszul cohomology, and entropy bound "
            "reports for monomial endomorphisms of monomial quotient rings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_ in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_)
        sp.set_defaults(command=command, suite=None)
        leaves = {None: sp}
        if command == "verify":
            suites = sp.add_subparsers(dest="suite", required=True)
            leaves = {suite: suites.add_parser(suite) for suite in
                      sorted(suite for name, suite in _LEAVES if name == command)}
        for suite, leaf in leaves.items():
            # --max is not read as --max-iter, nor --sp as --spec
            leaf.allow_abbrev = False
            leaf.set_defaults(command=command, suite=suite)
            for option, keywords in _LEAVES[command, suite][1].items():
                leaf.add_argument(option, **keywords)
    return parser


def _read_flags(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``_parser().parse_args(argv)`` gives, read in one pass
    over the leaf's flags, or None where argparse has more to say.

    After a command, and a suite for verify, every word must be a flag of
    that leaf, as ``--flag value`` or ``--flag=value``; the last one wins.
    Values and string defaults go through the flag's type function and
    choices, as in argparse.  It declines help, an unknown word, ``--``, a
    missing value or ``--spec``, a value given to ``--oracle``, a type or
    choice error, ``--flag=--``, and a separate value that begins with "-"
    (argparse tells a negative number from a flag)."""
    words = iter(argv)
    command = next(words, None)
    suite = next(words, None) if command == "verify" else None
    leaf = _LEAVES.get((command, suite))
    if leaf is None:
        return None
    flags = leaf[1]
    values = {"command": command, "suite": suite}
    for word in words:
        option, equals, value = word.partition("=")
        keywords = flags.get(option)
        if keywords is None:
            return None
        dest = option[2:].replace("-", "_")
        if "action" in keywords:  # store_true
            if equals:
                return None
            values[dest] = True
            continue
        if not equals:
            value = next(words, "-")  # a missing value declines as "-" does
            if value.startswith("-"):
                return None
        elif value == "--":  # argparse removes it from the values it reads
            return None
        try:
            value = keywords.get("type", str)(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    for option, keywords in flags.items():
        dest = option[2:].replace("-", "_")
        if dest not in values:
            if keywords.get("required"):
                return None
            default = keywords["default"]
            if isinstance(default, str):
                default = keywords.get("type", str)(default)
            values[dest] = default
    return argparse.Namespace(**values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``.  ``_read_flags`` reads an argv that
    names a leaf and gives only its flags; whatever it declines goes to the
    argparse tree, built on first use, which parses it or prints its help
    (exit 0) or usage error (exit 2)."""
    args = _read_flags(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    started = time.perf_counter()
    # lengths outgrow the 4300-digit int <-> str limit: lift it for this call
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        spec = parse_spec(args.spec)
        report = RunReport()
        _LEAVES[args.command, args.suite][0](
            args, spec, report, _LOG_SCALES[args.log_base]
        )
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as exc:
        # SpecError and every other ValueError: the input is malformed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    else:
        report.command = shlex.join(argv)
        report.digest = spec.digest
        render = _render_json if args.format == "report" else _render_tsv
        sys.stdout.write(render(report))
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    elapsed = time.perf_counter() - started
    print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    failed = any(not ok for _, ok, _ in report.verdicts)
    return EXIT_VERDICT if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
