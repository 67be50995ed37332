"""Tests of the benchmark itself: determinism of the generated inputs, the
oracles against known values, and tracing that neither changes the
program's output nor its call counts.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    previous = os.getcwd()
    os.chdir(ROOT)
    path = os.path.join(run.WORK_ROOT, f"test-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        os.chdir(previous)


def _generated(workload, seed, workdir):
    shutil.rmtree(workdir)
    os.makedirs(workdir)
    jobs = workloads.generate(workload, seed, workdir)
    workloads.write_specs(jobs)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as handle:
            files[name] = handle.read()
    return [job.line() for job in jobs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, workdir):
    lines, files = _generated(workload, 7, workdir)
    again_lines, again_files = _generated(workload, 7, workdir)
    other_lines, other_files = _generated(workload, 8, workdir)
    assert lines == again_lines and files == again_files
    assert lines != other_lines and files != other_files
    assert len(lines) >= 100  # at least ten jobs above the 90th percentile


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_cross_oracles(p):
    ring = workloads.Spec(p, 2, workloads.diagonal([p, p]), ((1, 1),),
                          sequence=((1, 0), (0, 1)))
    # the README's library example: 5, 17, 53 for p = 3
    lengths = [checks.ideal_length(ring, checks.maximal(2), n) for n in (1, 2, 3)]
    assert lengths == [2 * p**n - 1 for n in (1, 2, 3)]
    for n in (1, 2, 3):
        seq = [(p**n, 0), (0, p**n)]
        h0 = oracles.standard_count(seq + [(1, 1)], 2)
        assert h0 == 2 * p**n - 1
        # Serre: the alternating sum vanishes, so H^-1 = H^0 when H^-2 = 0
        assert oracles.euler_characteristic(seq, ((1, 1),), 2) == 0


def test_readme_lengths_from_the_committed_spec(workdir):
    spec = workloads.read_committed("specs/frobenius_cross.ring")
    assert [checks.ideal_length(spec, checks.maximal(2), n) for n in (1, 2, 3)] == [5, 17, 53]


def test_diagonal_closed_form_and_multiplicity():
    spec = workloads.Spec(0, 3, workloads.diagonal([2, 3, 5]),
                          ideal=((2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 0)))
    # (X^2, Y^3, Z, XY) has the 4 standard monomials 1, X, Y, Y^2
    assert oracles.standard_count(list(spec.ideal), 3) == 4
    assert checks.ideal_length(spec, list(spec.ideal), 2) == 30**2 * 4
    assert oracles.euler_characteristic([(2, 0), (0, 3)], (), 2) == 6


def test_standard_count_matches_program_brute_force():
    from entrolab.monomials import MonomialIdeal, RingSpec, colength_bruteforce

    rng = random.Random(3)
    for _ in range(40):
        d = rng.choice((2, 3))
        gens = workloads.deep_ideal(rng, d)
        quotient = workloads.random_quotient(rng, d, 1) if rng.random() < 0.5 else ()
        ring = RingSpec(0, d, MonomialIdeal(quotient, d))
        want = colength_bruteforce(MonomialIdeal(gens, d), ring)
        assert oracles.standard_count(list(gens) + list(quotient), d) == want


def _replayed_nodes(gens, d):
    bounds = oracles.pure_powers(gens, d)
    nodes, stack = 0, [(0, (0,) * d)]
    while stack:
        start, lcm = stack.pop()
        nodes += 1
        if all(l < b for l, b in zip(lcm, bounds)):
            stack += [(j + 1, tuple(map(max, lcm, gens[j]))) for j in range(start, len(gens))]
    return nodes


def test_inclusion_exclusion_node_closed_form():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.choice((2, 3))
        gens = sorted(workloads.wide_ideal(rng, d, rng.randint(d + 1, 12)))
        assert workloads.ie_nodes(gens, d, 10**6) == _replayed_nodes(gens, d)


def test_checks_reject_a_wrong_length(workdir):
    cli = run.import_cli()
    job = workloads.generate("koszul-pullback", 1, workdir)[0]
    code, stdout, _, _ = run.run_job(cli, job.argv)
    assert code == 0 and checks.check(job, code, stdout) == []
    wrong = stdout.replace("\n0\t", "\n0\t1", 1)
    assert checks.check(job, code, wrong)
    assert checks.check(job, 3, "")


def _subset(workload, workdir, count=12):
    jobs = workloads.generate(workload, 2, workdir)
    workloads.write_specs(jobs)
    return jobs[:count]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_keeps_stdout_and_counts(workload, workdir):
    jobs = _subset(workload, workdir)
    counts = []
    for _ in range(2):
        cli = run.import_cli()
        plain, traced, tracer = run.measure(cli, jobs, 0, trace=True)
        assert [p.digests for p in plain] == [p.digests for p in traced]
        assert run.verify(jobs, plain + traced) == ({}, 0)
        counts.append({k: v for k, v in tracer.metrics(len(jobs)).items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(jobs)
    assert tracer.passes and not tracer._patches  # uninstalled


def test_reference_calls_nothing_of_the_program(workdir):
    run.import_cli()
    tracer = tracing.Tracer()
    tracer.begin_pass()
    tracer.install()
    try:
        seconds = hostspeed.reference()
    finally:
        tracer.uninstall()
    assert seconds > 0
    assert not any(v for k, v in tracer.metrics(1).items() if k.endswith(".calls"))
    assert hostspeed.scale(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == 1


def test_scaled_times_add_up(workdir):
    jobs = _subset("bounds-mix", workdir)
    one = run.Pass(run.import_cli(), jobs)
    assert len(one.references) >= 2
    assert one.wall == sum(one.times) and one.raw_wall == sum(one.raw_times)
    ratios = [t / r for t, r in zip(one.times, one.raw_times)]
    assert min(ratios) >= hostspeed.scale(max(one.references), max(one.references))
    assert max(ratios) <= hostspeed.scale(min(one.references), min(one.references))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    for metric in bench["per_layer"]:
        unit, better, _ = tracing.LAYER_METRICS[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bounds-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
