"""Command-line front door.

Subcommands: entropy, delta, koszul, verify, transfer, each taking only
the flags it reads.  The frobenius, diagonal and monomial-matrix suites
check every length against the closed form of a monomial-matrix map on
any monomial quotient.  Reports are deterministic: identical invocations
produce byte-identical stdout (wall time goes to stderr).  Exit codes: 0
success, 2 malformed input, 3 failed hypothesis (finite length,
regularity, commutation, the map a suite needs), 4 failed verdict.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import shlex
import sys
import time
from dataclasses import dataclass, field

from .errors import HypothesisError, SpecError
from .monomials import _pure_powers, colength, colength_bruteforce
from .endos import MonomialMap, compose, image_ideal
from .koszul import pullback_homology
from .entropy import (
    estimate_limit,
    int_log,
    local_entropy_sequence,
    monomial_matrix_closed_form,
    sandwich,
    sandwich_violations,
    transfer_check,
)
from .specfile import parse_spec

BRUTE_BOX_CAP = 200_000

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_VERDICT = 4


@dataclass
class RunReport:
    command: str = ""
    digest: str = ""
    columns: list[str] = field(default_factory=list)
    rows: list[list[str]] = field(default_factory=list)
    notices: list[str] = field(default_factory=list)
    footer: list[tuple[str, ...]] = field(default_factory=list)
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(not ok for _, ok, _ in self.verdicts)


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


def _log_scale(base: str) -> float:
    return {"e": 1.0, "2": 1.0 / math.log(2), "10": 1.0 / math.log(10)}[base]


def _int_at_least(low: int):
    def integer(raw: str) -> int:
        value = int(raw)  # argparse reports a ValueError as an invalid integer
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return integer


def _finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{raw!r} is not finite")
    return value


def _t_values(raw: str) -> list[float]:
    values = [_finite_float(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("lists no values")
    return values


# each suite's hypothesis on the map and what "verify <suite> requires";
# the order matters: entropy's prediction footer names the first that holds
_HYPOTHESES = {
    # diagonal entries are positive, so none equals a characteristic 0
    "frobenius": (lambda f: f.is_diagonal() and {f.ring.characteristic}
                  == {row[i] for i, row in enumerate(f.matrix)},
                  "the p-th power map in characteristic p > 0"),
    "diagonal": (MonomialMap.is_diagonal, "a diagonal map"),
    "monomial-matrix": (MonomialMap.is_monomial_matrix,
                        "exactly one positive entry in every row and column"),
}


def _oracle_lengths_verdict(seq):
    """Check the lengths of the sequence by column-by-column box
    enumeration, from n = 1 while the box holds at most BRUTE_BOX_CAP
    monomials.  The images come from composed powers of the map, not
    from the sequence's image-by-image iteration, so the check stays
    independent of it."""
    ring = seq.map.ring
    power = seq.map
    checked = 0
    for row in seq.rows:
        if row.n > 1:
            power = compose(seq.map, power)
        image = image_ideal(power, seq.ideal_used)
        # the length is finite, so ideal and quotient hold a pure power
        # of every variable
        bounds = _pure_powers(
            image.generators + ring.quotient.generators, ring.dim_ambient
        )
        if math.prod(bounds) > BRUTE_BOX_CAP:
            break
        if colength_bruteforce(image, ring) != row.length:
            return ("oracle-colength", False,
                    f"box enumeration disagrees at n = {row.n}")
        checked = row.n
    if checked:
        return ("oracle-colength", True,
                f"box enumeration agrees for n <= {checked}")
    return ("oracle-colength", True, "box too large at n = 1; cross-check skipped")


def _entropy(args, spec, report: RunReport, scale: float):
    seq = local_entropy_sequence(
        spec.ring, spec.map, spec.reference_ideal(), args.max_iter
    )
    _fill_sequence_rows(report, seq, scale)
    if args.max_iter >= 3:
        est = estimate_limit(seq)
        report.footer.append(("slope", _fmt(est.estimate * scale)))
        report.footer.append(("slope_method", est.method))
        report.footer.append(("last_a_n", _fmt(est.last_log_average * scale)))
    suite = next((s for s, (holds, _) in _HYPOTHESES.items() if holds(spec.map)), None)
    if suite is not None:
        rate = monomial_matrix_closed_form(spec.map, 0)[1]
        report.footer.append(("prediction", suite, _fmt(rate * scale)))
    if args.oracle:
        report.verdicts.append(_oracle_lengths_verdict(seq))


def _profile_item(profile) -> tuple[str, ...]:
    return ("profile", f"max_length={profile.peak}", f"width={profile.width}")


def _fill_sandwich_rows(report: RunReport, reports, scale: float):
    """The rows of the bound tables: t/n/lower/upper/gap with the h_loc
    footer and the sandwich verdict, or t/n/lower alone when the ring is
    not regular and the reports carry no upper bound."""
    upper = reports[0].h_loc_reference is not None
    report.columns = ["t", "n", "lower_logavg"]
    if upper:
        report.columns += ["upper_logavg", "gap_bound"]
    problems: list[str] = []
    for rep in reports:
        problems += sandwich_violations(rep)
        for row in rep.rows:
            cells = [_fmt(rep.t), str(row.n), _fmt(row.lower_logavg * scale)]
            if upper:
                cells += [
                    _fmt(row.upper_logavg * scale),
                    _fmt(row.gap_bound * scale),
                ]
            report.rows.append(cells)
    if upper:
        report.footer.append(("h_loc", _fmt(reports[0].h_loc_reference * scale)))
        report.verdicts.append(
            ("sandwich", not problems, problems[0] if problems else
             "lower <= upper and gap within bound at every n")
        )


def _delta(args, spec, report: RunReport, scale: float):
    ring = spec.ring
    x = ring.maximal_ideal().generators if spec.sequence is None else spec.sequence
    reports = sandwich(ring, spec.map, x, args.t, args.max_iter)
    if not ring.regular:
        report.notices.append(
            "ring is not regular: the upper tower-count bound is not "
            "certified; reporting the lower bound only"
        )
    report.footer.append(_profile_item(reports[0].profile))
    _fill_sandwich_rows(report, reports, scale)
    if args.oracle:
        report.verdicts.append(_oracle_lengths_verdict(reports[0].lower_sequence))


def _koszul(args, spec, report: RunReport, scale: float):
    if spec.sequence is None:
        raise SpecError("sequence field is required for the koszul command")
    complex_, lengths, profile = pullback_homology(
        spec.ring, spec.sequence, spec.map, args.pullback_iter
    )
    report.columns = ["degree", "length", "log_length"]
    for degree in range(-complex_.m, 1):
        value = lengths.length(degree)
        log_txt = _fmt(int_log(value) * scale) if value else ""
        report.rows.append([str(degree), str(value), log_txt])
    report.footer.append(_profile_item(profile))
    report.footer.append(("region", ",".join(str(s) for s in lengths.region)))
    if args.oracle:
        report.verdicts.append(_oracle_slices_verdict(complex_, lengths))


def _oracle_slices_verdict(complex_, lengths):
    """Check that the slices are constant on the cells: the sum over every
    multidegree of the region box equals the cell sum.  The tests check
    each slice against an independent oracle."""
    volume = math.prod(lengths.region)
    if volume > BRUTE_BOX_CAP:
        return ("oracle-slices", True, f"region box of {volume} multidegrees "
                f"exceeds {BRUTE_BOX_CAP}; cross-check skipped")
    totals = dict.fromkeys(lengths.lengths, 0)
    for v in itertools.product(*map(range, lengths.region)):
        for degree, dim in complex_.slice_dims(v).items():
            totals[degree] += dim
    ok = totals == lengths.lengths
    return ("oracle-slices", ok, f"slice-by-slice sum over the {volume} "
            f"multidegrees of the region box {'agrees' if ok else 'disagrees'}")


def _transfer(args, spec, report: RunReport, scale: float):
    result = transfer_check(spec.square(), args.max_iter, args.tolerance)
    report.columns = ["ring", "n", "length", "a_n"]
    for label, seq in (
        ("source", result.source_sequence),
        ("target", result.target_sequence),
    ):
        for row in seq.rows:
            report.rows.append(
                [label, str(row.n), str(row.length), _fmt(row.log_average * scale)]
            )
    report.footer.append(("source_estimate", _fmt(result.source_estimate * scale)))
    report.footer.append(("target_estimate", _fmt(result.target_estimate * scale)))
    report.footer.append(("tolerance", _fmt(args.tolerance)))
    report.footer.append(("agree", "yes" if result.agree else "no"))
    report.footer.append(("conclusion", result.conclusion))


def _verify_closed_form(args, spec, report: RunReport, scale: float):
    holds, requirement = _HYPOTHESES[args.suite]
    if not holds(spec.map):
        raise HypothesisError(f"verify {args.suite} requires {requirement}")
    lengths, rate = monomial_matrix_closed_form(spec.map, args.max_iter)
    seq = local_entropy_sequence(spec.ring, spec.map, None, args.max_iter)
    _fill_sequence_rows(report, seq, scale)
    report.footer.append(("prediction", args.suite, _fmt(rate * scale)))
    wrong = [(row.n, length) for row, length in zip(seq.rows, lengths)
             if row.length != length]
    report.verdicts.append((
        "exact-lengths", not wrong,
        "closed form gives {1} at n = {0}".format(*wrong[0]) if wrong
        else "length_n equals the closed form at every n",
    ))


def _verify_ideal_independence(args, spec, report, scale):
    ring, mono_map = spec.ring, spec.map
    ideal = spec.reference_ideal()
    if ideal is None:
        raise SpecError(
            "ideal field is required for the ideal-independence suite"
        )
    seq_q = local_entropy_sequence(ring, mono_map, ideal, args.max_iter)
    seq_m = local_entropy_sequence(ring, mono_map, None, args.max_iter)
    report.rows += [
        [str(row_q.n), str(row_q.length), _fmt(row_q.log_average * scale),
         str(row_m.length), _fmt(row_m.log_average * scale)]
        for row_q, row_m in zip(seq_q.rows, seq_m.rows)
    ]
    report.columns = ["n", "length_q", "a_n_q", "length_m", "a_n_m"]
    est_q = estimate_limit(seq_q).estimate
    est_m = estimate_limit(seq_m).estimate
    envelope = 2 * int_log(colength(ideal, ring)) / args.max_iter
    gap = abs(est_q - est_m)
    report.verdicts.append(
        ("slopes-agree", gap <= envelope + 1e-9,
         f"|slope_q - slope_m| = {gap:.3e} within envelope "
         f"{envelope + 1e-9:.3e}")
    )
    report.footer.append(("slope_q", _fmt(est_q * scale)))
    report.footer.append(("slope_m", _fmt(est_m * scale)))


def _verify_sandwich(args, spec, report, scale):
    ring = spec.ring
    if not ring.regular:
        raise HypothesisError("verify sandwich requires a regular ring")
    x = ring.maximal_ideal().generators if spec.sequence is None else spec.sequence
    reports = sandwich(ring, spec.map, x, args.t, args.max_iter)
    _fill_sandwich_rows(report, reports, scale)


def _verify_transfer(args, spec, report, scale):
    result = transfer_check(spec.square(), args.max_iter, args.tolerance)
    report.columns = ["quantity", "value"]
    report.rows.append(["source_estimate", _fmt(result.source_estimate * scale)])
    report.rows.append(["target_estimate", _fmt(result.target_estimate * scale)])
    gap = abs(result.source_estimate - result.target_estimate)
    report.verdicts.append(
        ("entropies-agree", result.agree,
         f"|target - source| = {gap:.3e} against tolerance "
         f"{_fmt(args.tolerance)}")
    )
    report.footer.append(("conclusion", result.conclusion))


def _fill_sequence_rows(report: RunReport, seq, scale: float):
    report.columns = ["n", "length", "log_length", "a_n"]
    report.rows += [
        [str(row.n), str(row.length), _fmt(int_log(row.length) * scale),
         _fmt(row.log_average * scale)]
        for row in seq.rows
    ]


_HANDLERS = {
    ("entropy", None): _entropy,
    ("delta", None): _delta,
    ("koszul", None): _koszul,
    ("transfer", None): _transfer,
    **{("verify", suite): _verify_closed_form for suite in _HYPOTHESES},
    ("verify", "ideal-independence"): _verify_ideal_independence,
    ("verify", "sandwich"): _verify_sandwich,
    ("verify", "transfer"): _verify_transfer,
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
    parser.set_defaults(suite=None)  # handlers are keyed by (command, suite)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, t=False, oracle="", tolerance=False, max_iter=True):
        sp.allow_abbrev = False  # or --t would be read as --tolerance
        sp.add_argument("--spec", required=True, help="ring specification file")
        sp.add_argument(
            "--format", choices=("tsv", "report"), default="tsv",
            help="tsv table or a single JSON object",
        )
        sp.add_argument(
            "--log-base", choices=("e", "2", "10"), default="e",
            help="display base for logarithms (rescales display only)",
        )
        if max_iter:
            sp.add_argument(
                "--max-iter", type=_int_at_least(1), default=8, metavar="N"
            )
        if t:
            sp.add_argument(
                "--t", type=_t_values, default="-1,0,1",
                help="comma-separated real parameters for the bounds",
            )
        if oracle:
            sp.add_argument("--oracle", action="store_true", help=oracle)
        if tolerance:
            sp.add_argument("--tolerance", type=_finite_float, default=1e-6)

    colength_oracle = "cross-check the colengths by column-by-column box enumeration"
    sp = sub.add_parser("entropy", help="colength growth of the iterates")
    common(sp, oracle=colength_oracle)

    sp = sub.add_parser("delta", help="lower/upper complexity bound tables")
    common(sp, t=True, oracle=colength_oracle)

    sp = sub.add_parser("koszul", help="cohomology lengths of a Koszul complex")
    common(sp, oracle="cross-check by summing every slice of the region box",
           max_iter=False)
    sp.add_argument(
        "--pullback-iter", type=_int_at_least(0), default=0, metavar="N"
    )

    sp = sub.add_parser("verify", help="verdict suites")
    suites = sp.add_subparsers(dest="suite", required=True)
    for suite in sorted(suite for _, suite in _HANDLERS if suite):
        common(suites.add_parser(suite), t=suite == "sandwich",
               tolerance=suite == "transfer")

    sp = sub.add_parser("transfer", help="compare growth across a commuting square")
    common(sp, tolerance=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        spec = parse_spec(args.spec)
        report = RunReport()
        _HANDLERS[args.command, args.suite](
            args, spec, report, _log_scale(args.log_base)
        )
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as exc:
        # SpecError and every other ValueError: the input is malformed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report.command = shlex.join(argv)
    report.digest = spec.digest
    rendered = (
        _render_json(report) if args.format == "report" else _render_tsv(report)
    )
    sys.stdout.write(rendered)
    elapsed = time.perf_counter() - started
    print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return EXIT_VERDICT if report.failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
