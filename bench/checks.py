"""Output checks: each job's exit code and stdout against the oracles.

Only the exit code, the table rows (lengths and bounds) and the
``# verdict`` rows are read.  Footers such as ``# region`` are never read,
so the checks hold across refactors that drop the sweep region.
"""

from __future__ import annotations

import oracles

TOL = 1e-9


def parse_tsv(stdout):
    """(rows, verdicts) of a TSV report: the table rows below its header
    line, and the (name, status) of each verdict row."""
    header_seen, rows, verdicts = False, [], []
    for line in stdout.splitlines():
        if line.startswith("# verdict\t"):
            _, name, status = line.split("\t")[:3]
            verdicts.append((name, status))
        elif line.startswith("#"):
            continue
        elif header_seen:
            rows.append(line.split("\t"))
        else:
            header_seen = True
    return rows, verdicts


def ideal_length(spec, ideal, n):
    """Exact colength of (n-th iterate image of ``ideal``) + quotient, or
    None when no oracle is affordable.

    On a regular ring with a monomial-matrix map it is det^n times the
    colength of the ideal itself; otherwise the image plus quotient is
    counted directly when its box is small enough."""
    d = spec.dim
    if not spec.quotient:
        try:
            det = oracles.monomial_det(spec.map_columns)
        except ValueError:
            det = None
        if det is not None and oracles.affordable(ideal, d):
            return det**n * oracles.standard_count(ideal, d)
    power = oracles.map_power(spec.map_columns, n)
    gens = [oracles.apply_map(power, g) for g in ideal] + list(spec.quotient)
    if not oracles.affordable(gens, d):
        return None
    return oracles.standard_count(gens, d)


def maximal(d):
    return [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]


def _expect(problems, label, got, want):
    if want is not None and got != want:
        problems.append(f"{label}: got {got}, expected {want}")


def _lengths(problems, spec, ideal, rows, n_col, length_col, label, n_max):
    ns = [int(row[n_col]) for row in rows]
    if ns != list(range(1, n_max + 1)):
        problems.append(f"{label}: rows for n = {ns}, expected 1..{n_max}")
        return
    for row in rows:
        n = int(row[n_col])
        _expect(problems, f"{label} n={n}", int(row[length_col]),
                ideal_length(spec, ideal, n))


def _check_koszul(job, rows, problems):
    spec, d = job.spec, job.spec.dim
    power = oracles.map_power(spec.map_columns, job.n)
    seq = [oracles.apply_map(power, w) for w in spec.sequence]
    lengths = {int(row[0]): int(row[1]) for row in rows}
    m = len(seq)
    if sorted(lengths) != list(range(-m, 1)):
        problems.append(f"degrees {sorted(lengths)}, expected -{m}..0")
        return
    gens = seq + list(spec.quotient)
    if oracles.affordable(gens, d):
        _expect(problems, "H^0", lengths[0], oracles.standard_count(gens, d))
    euler = sum((-1) ** j * lengths[-j] for j in range(m + 1))
    _expect(problems, "alternating sum", euler,
            oracles.euler_characteristic(seq, spec.quotient, d))


def _check_bounds_rows(job, rows, problems, regular):
    """delta and verify sandwich rows: t, n, lower[, upper, gap]."""
    spec, d = job.spec, job.spec.dim
    t_arg = next(a for a in job.argv if a.startswith("--t="))
    t_values = [float(t) for t in t_arg[len("--t="):].split(",")]
    if len(rows) != len(t_values) * job.n:
        problems.append(f"{len(rows)} rows, expected {len(t_values)} x {job.n}")
        return
    if regular:
        growth = oracles.int_log(oracles.monomial_det(spec.map_columns))
        for row in rows:
            lower, upper = float(row[2]), float(row[3])
            if not abs(upper - growth) <= TOL * max(1.0, growth):
                problems.append(f"upper_logavg {upper} at t={row[0]} n={row[1]}, expected {growth}")
            if not lower <= upper + TOL:
                problems.append(f"lower {lower} exceeds upper {upper}")
        return
    # lower_logavg(t, n) = (log H^0_n - log peak - width |t|) / n, so
    # log H^0_n - n * lower_logavg is one constant per t
    ideal = list(spec.sequence) if spec.sequence else maximal(d)
    by_t = {}
    for row in rows:
        n = int(row[1])
        h0 = ideal_length(spec, ideal, n)
        if h0 is not None:
            by_t.setdefault(row[0], []).append(oracles.int_log(h0) - n * float(row[2]))
    for t, shifts in by_t.items():
        if max(shifts) - min(shifts) > 1e-6 * max(1.0, abs(shifts[0])):
            problems.append(f"t={t}: lower bounds do not match H^0 lengths")


def check(job, code, stdout):
    """Problems found in one job's result; empty when it is correct."""
    if code != job.expect_exit:
        return [f"exit code {code}, expected {job.expect_exit}"]
    if code != 0:
        return [] if stdout == "" else ["stdout written on a failing exit"]
    rows, verdicts = parse_tsv(stdout)
    problems = [f"verdict {name} {status}" for name, status in verdicts if status != "PASS"]
    spec, d = job.spec, job.spec.dim
    suite = job.suite
    if job.command == "koszul":
        _check_koszul(job, rows, problems)
    elif job.command == "entropy":
        ideal = list(spec.ideal) if spec.ideal else maximal(d)
        _lengths(problems, spec, ideal, rows, 0, 1, "length", job.n)
        if job.oracle and [name for name, _ in verdicts] != ["oracle-colength"]:
            problems.append("missing oracle-colength verdict")
    elif job.command == "delta" or suite == "sandwich":
        _check_bounds_rows(job, rows, problems, not spec.quotient)
        if not spec.quotient and [name for name, _ in verdicts] != ["sandwich"]:
            problems.append("missing sandwich verdict")
    elif job.command == "transfer":
        source = [r for r in rows if r[0] == "source"]
        target = [r for r in rows if r[0] == "target"]
        source_ring = type(spec)(spec.characteristic, len(spec.source_map), spec.source_map)
        _lengths(problems, source_ring, maximal(source_ring.dim), source, 1, 2, "source", job.n)
        _lengths(problems, spec, maximal(d), target, 1, 2, "target", job.n)
    elif suite in ("diagonal", "monomial-matrix", "frobenius"):
        _lengths(problems, spec, maximal(d), rows, 0, 1, "length", job.n)
    elif suite == "ideal-independence":
        _lengths(problems, spec, list(spec.ideal), rows, 0, 1, "length_q", job.n)
        _lengths(problems, spec, maximal(d), rows, 0, 3, "length_m", job.n)
    if suite and not verdicts:
        problems.append("no verdict rows")
    return problems
