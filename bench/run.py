"""entrolab benchmark: seeded CLI job mixes run in a closed loop.

Usage, from the repository root:

    python3 bench/run.py --workload koszul-pullback --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One run generates the workload's jobs from ``--seed``, writes their spec
files under ``.bench_work/``, and calls ``entrolab.cli.main(argv)``
in-process for each job, one after another (a single client in a closed
loop, no threads).  Passes over the whole job list repeat until
``--seconds`` have elapsed.  Every job's exit code and stdout are then
checked against the oracles in ``checks.py``, and its stdout must be
byte-identical in every pass.

End-to-end metrics (``--trace 0``), measured with tracing off:

- ``job_p50_ms``, ``job_p90_ms``: median and 90th percentile of the wall
  time per job in a pass (a pass has at least 100 jobs, so at least ten
  lie above the 90th percentile);
- ``jobs_per_s``: jobs completed per second of the closed loop in a pass;

each the median over the passes of the run;
- ``setup_s``: median over ``SETUP_ROUNDS`` rounds of the program's
  set-up: importing ``entrolab`` afresh and a warm-up on the committed
  specs.  Generating the jobs and writing their spec files is the
  benchmark's own work, done once before the rounds and left out: no
  change of the program can move it, and its cost varies with the seed;
- ``peak_rss_mb``: peak resident memory of the process.

Times are given at a reference host speed (see ``hostspeed.py``): the
reference workload is timed before a pass, between its jobs every
``REFERENCE_EVERY_S`` seconds and after it, and before and after each
set-up round, and each job's time is scaled by ``REFERENCE_S`` over the
mean of the two reference samples around it.  The table also prints the
unscaled ``raw_*`` figures and ``host_slowdown``, the median of the
reference samples over ``REFERENCE_S``.

``fail_ratio`` (jobs with a wrong exit code, a failed oracle check or
unstable stdout, over jobs attempted) is printed in the table; the result
line carries it as ``failed`` and ``attempted``.

``--trace 1`` alternates untraced and traced passes and reports the layer
metrics of ``tracing.LAYER_METRICS``, which also records the end-to-end
metric each one should move.  The spans are written to
``.bench_work/<workload>.spans``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from hostspeed import REFERENCE_S, reference, scale  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = ".bench_work"
SETUP_ROUNDS = 5
REFERENCE_EVERY_S = 0.25

# Fixed warm-up jobs on the committed specs: the same cost for every seed.
WARMUP = {
    "koszul-pullback": [
        ("koszul", "--spec", "specs/frobenius_cross.ring", "--pullback-iter", "1"),
    ],
    "colength-growth": [
        ("entropy", "--spec", "specs/frobenius_cross.ring", "--max-iter", "4", "--oracle"),
    ],
    "bounds-mix": [
        ("delta", "--spec", "specs/diagonal235.ring", "--max-iter", "3"),
        ("transfer", "--spec", "specs/frobenius_square.ring", "--max-iter", "3"),
        ("verify", "frobenius", "--spec", "specs/frobenius_cross.ring"),
    ],
}

E2E_UNITS = {
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The program under test cannot be imported or fails its warm-up."""


def import_cli():
    """Import ``entrolab`` afresh from ``src/`` and return its cli module."""
    source = os.path.abspath("src")
    for name in [n for n in sys.modules if n == "entrolab" or n.startswith("entrolab.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("entrolab")
        cli = importlib.import_module("entrolab.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import entrolab from src/: {exc}") from None
    if not os.path.abspath(package.__file__).startswith(source + os.sep):
        raise SetupError(f"entrolab was imported from {package.__file__}, not from src/")
    return cli


def run_job(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a failed run
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def setup(workload):
    """One set-up round of the program: import it afresh and warm it up."""
    cli = import_cli()
    for argv in WARMUP[workload]:
        code, _, err, _ = run_job(cli, argv)
        if code != 0:
            raise SetupError(f"warm-up {' '.join(argv)} exited {code}: {err.strip()}")
    return cli


class Pass:
    """Exit codes, stdout digests and wall times of one pass, raw and at the
    reference host speed; the first pass also keeps stdout and stderr for
    the checks."""

    def __init__(self, cli, jobs, tracer=None, keep_output=False):
        self.codes, self.digests, self.raw_times = [], [], []
        self.stdouts, self.errors = [], []
        self.references = [reference()]
        between = []  # per job: index of the reference sample before it
        last = time.perf_counter()
        for index, job in enumerate(jobs):
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                self.references.append(reference())
                last = time.perf_counter()
            if tracer is not None:
                tracer.job = index
            code, stdout, err, seconds = run_job(cli, job.argv)
            self.codes.append(code)
            self.digests.append(hashlib.sha256(stdout.encode()).digest())
            self.raw_times.append(seconds)
            between.append(len(self.references) - 1)
            if keep_output:
                self.stdouts.append(stdout)
                self.errors.append(err)
        self.references.append(reference())
        refs = self.references
        self.times = [t * scale(refs[k], refs[k + 1]) for t, k in zip(self.raw_times, between)]
        # the closed loop's time: jobs back to back, reference samples left out
        self.wall, self.raw_wall = sum(self.times), sum(self.raw_times)


def measure(cli, jobs, seconds, trace):
    """Run passes until ``seconds`` have elapsed: untraced only, or
    untraced and traced alternately when ``trace`` is set."""
    plain, traced = [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        plain.append(Pass(cli, jobs, keep_output=not plain))
        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
            try:
                traced.append(Pass(cli, jobs, tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        # stop at the cycle boundary nearest to the end of the run
        if now + (now - cycle) / 2 >= start + seconds:
            return plain, traced, tracer


def verify(jobs, passes):
    """Problems per job and the number of failed executions: a wrong exit
    code or oracle mismatch fails every execution of the job, a stdout
    that differs from the first pass fails that execution."""
    first = passes[0]
    problems, failed = {}, 0
    for i, job in enumerate(jobs):
        found = checks.check(job, first.codes[i], first.stdouts[i])
        if first.codes[i] == 1:
            found.append(first.errors[i].strip().splitlines()[-1])
        unstable = sum(1 for p in passes if p.digests[i] != first.digests[i])
        failed += len(passes) if found else unstable
        if unstable:
            found.append(f"stdout differs in {unstable} of {len(passes)} passes")
        if found:
            problems[job.name] = found
    return problems, failed


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run(args):
    workdir = f"{WORK_ROOT}/{args.workload}-{args.seed}"
    import_cli()  # fails before any work when the program is missing
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.generate(args.workload, args.seed, workdir)
    workloads.write_specs(jobs)
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_ROUNDS):
        before = reference()
        start = time.perf_counter()
        cli = setup(args.workload)
        raw_setup_times.append(time.perf_counter() - start)
        setup_times.append(raw_setup_times[-1] * scale(before, reference()))

    plain, traced, tracer = measure(cli, jobs, args.seconds, args.trace)
    # read before the checks, whose oracles are no part of the program
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, failed = verify(jobs, plain + traced)
    attempted = len(jobs) * (len(plain) + len(traced))
    # medians over passes, so that a pass slowed by a noisy neighbour
    # moves no metric on its own
    jobs_per_s = statistics.median(len(jobs) / p.wall for p in plain)
    references = [r for p in plain + traced for r in p.references]

    table = [
        ("workload", args.workload, ""),
        ("seed", args.seed, ""),
        ("jobs_per_pass", len(jobs), "count"),
        ("passes", len(plain), "count"),
        ("fail_ratio", failed / attempted, "ratio"),
        ("host_slowdown", statistics.median(references) / REFERENCE_S, "ratio"),
        ("raw_job_p50_ms",
         1000 * statistics.median(statistics.median(p.raw_times) for p in plain), "ms"),
        ("raw_jobs_per_s", statistics.median(len(jobs) / p.raw_wall for p in plain), "1/s"),
        ("raw_setup_s", statistics.median(raw_setup_times), "s"),
    ]
    if args.trace:
        traced_rate = statistics.median(len(jobs) / p.wall for p in traced)
        metrics = tracer.metrics(len(jobs))
        metrics["trace.overhead_ratio"] = traced_rate / jobs_per_s
        units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
        table += [
            ("traced_passes", len(traced), "count"),
            ("koszul_self_share", tracer.self_share(("koszul.",)), "ratio"),
            ("colength_self_share", tracer.self_share(("monomials.colength",)), "ratio"),
            ("largest_kernel_span_share",
             tracer.largest_span_share(("koszul.slice_dims", "monomials.colength")), "ratio"),
        ]
        tracer.write_spans(f"{WORK_ROOT}/{args.workload}.spans")
    else:
        metrics = {
            "job_p50_ms": 1000 * statistics.median(statistics.median(p.times) for p in plain),
            "job_p90_ms": 1000 * statistics.median(percentile(p.times, 90) for p in plain),
            "jobs_per_s": jobs_per_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
    shutil.rmtree(workdir, ignore_errors=True)

    for name, found in sorted(problems.items()):
        print(f"FAIL {name}: {'; '.join(found)}", file=sys.stderr)
    for name, value, unit in table:
        print(f"{name:<40} {value} {unit}".rstrip())
    for name, value in metrics.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
        status = max(status, child.returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath("src"))
    sys.exit(main())
