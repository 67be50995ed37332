"""Per-layer tracing of ``entrolab`` from outside the program.

``Tracer.install`` wraps the public functions of each module (``specfile``,
``monomials``, ``endos``, ``koszul``, ``entropy``, ``cli``) that the layer
metrics name.  It rebinds every module-level name bound to a wrapped
function, so a name imported with ``from .x import y`` (``colength`` inside
``entropy`` and ``cli``, ``exact_rank`` inside ``koszul``) is traced too;
constructors and ``KoszulComplex.slice_dims`` are patched on the class.

Each call records a span (name, start, end, parent span, job id) in
columnar arrays kept in memory; ``write_spans`` stores them at the end of
the run.  A span's self time is its duration minus the durations of its
direct children; the program is single-threaded, so children never
overlap.

Spans file format: one JSON header line (``names``, ``count``, ``fields``
with their array type codes), then each field's array in native byte
order, in the order the header lists them.
"""

from __future__ import annotations

import array
import functools
import json
import math
import sys
import time

# span name, module, attribute (``Class`` spans its constructor,
# ``Class.method`` a method)
TRACED = (
    ("specfile.parse_spec", "specfile", "parse_spec"),
    ("monomials.MonomialIdeal", "monomials", "MonomialIdeal"),
    ("monomials.colength", "monomials", "colength"),
    ("monomials.colength_bruteforce", "monomials", "colength_bruteforce"),
    ("endos.MonomialMap", "endos", "MonomialMap"),
    ("endos.iterate", "endos", "iterate"),
    ("endos.image_ideal", "endos", "image_ideal"),
    ("endos.is_finite_length", "endos", "is_finite_length"),
    ("koszul.KoszulComplex", "koszul", "KoszulComplex"),
    ("koszul.slice_dims", "koszul", "KoszulComplex.slice_dims"),
    ("koszul.exact_rank", "koszul", "exact_rank"),
    ("koszul.homology_lengths", "koszul", "homology_lengths"),
    ("koszul.pullback", "koszul", "pullback"),
    ("koszul.h0_length", "koszul", "h0_length"),
    ("entropy.sandwich", "entropy", "sandwich"),
    ("entropy.complexity_upper_bound", "entropy", "complexity_upper_bound"),
    ("entropy.local_entropy_sequence", "entropy", "local_entropy_sequence"),
    ("entropy.estimate_limit", "entropy", "estimate_limit"),
    ("entropy.transfer_check", "entropy", "transfer_check"),
    ("cli.main", "cli", "main"),
)

_KOSZUL_LOOP = "koszul-pullback"
_COLENGTH = "colength-growth"
_MIX = "bounds-mix"
_HOT_KOSZUL = f"job_p50_ms, job_p90_ms, jobs_per_s [{_KOSZUL_LOOP}]; ~0 on {_COLENGTH}"
_HOT_COLENGTH = f"job_p90_ms, jobs_per_s [{_COLENGTH}]; job_p50_ms [{_MIX}]"
_SHARED = f"job_p50_ms, jobs_per_s [{_MIX}]; unmoved on {_KOSZUL_LOOP}"
_MEMORY = "peak_rss_mb"

# metric name -> (unit, better, end-to-end metric it should move [workload])
LAYER_METRICS = {
    "koszul.slice_dims.calls": ("count", "lower", _HOT_KOSZUL),
    "koszul.slice_dims.self_ms": ("ms", "lower", _HOT_KOSZUL),
    "koszul.slice_dims.useful_ratio": ("ratio", "higher", _HOT_KOSZUL),
    "koszul.homology_lengths.calls": ("count", "lower", _HOT_KOSZUL),
    "koszul.homology_lengths.self_ms": ("ms", "lower", _HOT_KOSZUL),
    "koszul.homology_lengths.region_cells": ("count", "lower", _MEMORY),
    "koszul.exact_rank.calls": ("count", "lower", _HOT_KOSZUL),
    "koszul.exact_rank.self_ms": ("ms", "lower", _HOT_KOSZUL),
    "koszul.exact_rank.max_rows": ("count", "lower", _MEMORY),
    "koszul.exact_rank.max_cols": ("count", "lower", _MEMORY),
    "koszul.exact_rank.char0_share": ("ratio", "lower", _HOT_KOSZUL),
    "monomials.colength.calls": ("count", "lower", _HOT_COLENGTH),
    "monomials.colength.self_ms": ("ms", "lower", _HOT_COLENGTH),
    "monomials.colength.max_gens": ("count", "lower", _HOT_COLENGTH),
    "monomials.colength.fallback_ratio": ("ratio", "lower", _HOT_COLENGTH),
    "monomials.colength_bruteforce.calls": ("count", "lower", _HOT_COLENGTH),
    "monomials.colength_bruteforce.self_ms": ("ms", "lower", _HOT_COLENGTH),
    "monomials.MonomialIdeal.calls": ("count", "lower", _HOT_COLENGTH),
    "monomials.MonomialIdeal.self_ms": ("ms", "lower", _HOT_COLENGTH),
    "koszul.KoszulComplex.calls": ("count", "lower", _SHARED),
    "koszul.KoszulComplex.self_ms": ("ms", "lower", _SHARED),
    "koszul.pullback.calls": ("count", "lower", _SHARED),
    "koszul.h0_length.calls": ("count", "lower", _SHARED),
    "koszul.h0_length.self_ms": ("ms", "lower", _SHARED),
    "endos.iterate.calls": ("count", "lower", _SHARED),
    "endos.iterate.self_ms": ("ms", "lower", _SHARED),
    "endos.image_ideal.calls": ("count", "lower", _SHARED),
    "endos.image_ideal.self_ms": ("ms", "lower", _SHARED),
    "endos.is_finite_length.calls": ("count", "lower", _SHARED),
    "endos.MonomialMap.calls": ("count", "lower", _SHARED),
    "entropy.sandwich.calls": ("count", "lower", _SHARED),
    "entropy.sandwich.self_ms": ("ms", "lower", _SHARED),
    "entropy.complexity_upper_bound.calls": ("count", "lower", _SHARED),
    "entropy.local_entropy_sequence.calls": ("count", "lower", _SHARED),
    "entropy.local_entropy_sequence.self_ms": ("ms", "lower", _SHARED),
    "entropy.estimate_limit.calls": ("count", "lower", _SHARED),
    "entropy.transfer_check.calls": ("count", "lower", _SHARED),
    "specfile.parse_spec.calls": ("count", "lower", _SHARED),
    "specfile.parse_spec.self_ms": ("ms", "lower", _SHARED),
    "cli.main.calls": ("count", "lower", _SHARED),
    "cli.main.self_ms": ("ms", "lower", _SHARED),
    "trace.overhead_ratio": ("ratio", "higher", "traced jobs_per_s / untraced jobs_per_s"),
}

FIELDS = (("name", "B"), ("job", "I"), ("parent", "i"), ("start", "d"), ("end", "d"))


class _PassStats:
    """Counts and self times of one traced pass, indexed by span name id."""

    def __init__(self, size):
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.useful_slices = 0
        self.max_region_cells = 0
        self.max_rows = 0
        self.max_cols = 0
        self.char0_ranks = 0
        self.max_gens = 0
        self.fallbacks = 0


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.spans = {field: array.array(code) for field, code in FIELDS}
        self.passes: list[_PassStats] = []
        self.job = 0
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self._patches: list[tuple] = []

    # ----------------------------------------------------------- patching

    def install(self, package: str = "entrolab"):
        """Wrap the traced callables of the imported ``package``."""
        modules = {
            name.rpartition(".")[2]: module
            for name, module in sys.modules.items()
            if name.startswith(package + ".")
        }
        rebind = {}
        for name_id, (_, module_name, attr) in enumerate(TRACED):
            owner = modules[module_name]
            cls_name, _, method = attr.partition(".")
            target = getattr(owner, cls_name)
            if method or isinstance(target, type):
                method = method or "__init__"
                original = target.__dict__[method]
                self._set(target, method, self._wrap(name_id, original))
            else:
                rebind[target] = self._wrap(name_id, target)
        scopes = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for scope in scopes:
            for key, value in list(vars(scope).items()):
                if callable(value) and not isinstance(value, type) and value in rebind:
                    self._set(scope, key, rebind[value])

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _set(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    # ------------------------------------------------------------ spans

    def begin_pass(self):
        self.passes.append(_PassStats(len(self.names)))

    def _wrap(self, name_id, fn):
        tracer = self
        spans = self.spans
        s_name, s_job, s_parent = spans["name"], spans["job"], spans["parent"]
        s_start, s_end = spans["start"], spans["end"]
        observe = _OBSERVERS.get(self.names[name_id])
        brute = self.names[name_id] == "monomials.colength_bruteforce"
        colength_id = self.names.index("monomials.colength")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            stats = tracer.passes[-1]
            parent = stack[-1] if stack else None
            index = len(s_start)
            frame = [index, name_id, 0.0]
            s_name.append(name_id)
            s_job.append(tracer.job)
            s_parent.append(parent[0] if parent else -1)
            s_end.append(0.0)
            stack.append(frame)
            start = time.perf_counter()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                s_end[index] = end
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                stats.calls[name_id] += 1
                stats.self_s[name_id] += duration - frame[2]
                if brute and parent is not None and parent[1] == colength_id:
                    stats.fallbacks += 1
            if observe is not None:
                observe(stats, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path):
        count = len(self.spans["start"])
        header = {
            "names": self.names,
            "count": count,
            "fields": [[field, code] for field, code in FIELDS],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                self.spans[field].tofile(handle)

    # ---------------------------------------------------------- metrics

    def metrics(self, jobs_per_pass):
        """Layer metrics: counts, ratios and maxima of the first traced
        pass; self time per job over every traced pass."""
        first = self.passes[0]
        jobs = jobs_per_pass * len(self.passes)
        ids = {name: i for i, name in enumerate(self.names)}
        values = {}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if layer not in ids:
                continue
            i = ids[layer]
            if kind == "calls":
                values[metric] = first.calls[i]
            elif kind == "self_ms":
                values[metric] = 1000 * sum(p.self_s[i] for p in self.passes) / jobs
        calls = lambda name: first.calls[ids[name]]  # noqa: E731
        ratio = lambda part, whole: part / whole if whole else 0.0  # noqa: E731
        values["koszul.slice_dims.useful_ratio"] = ratio(
            first.useful_slices, calls("koszul.slice_dims")
        )
        values["koszul.homology_lengths.region_cells"] = first.max_region_cells
        values["koszul.exact_rank.max_rows"] = first.max_rows
        values["koszul.exact_rank.max_cols"] = first.max_cols
        values["koszul.exact_rank.char0_share"] = ratio(
            first.char0_ranks, calls("koszul.exact_rank")
        )
        values["monomials.colength.max_gens"] = first.max_gens
        values["monomials.colength.fallback_ratio"] = ratio(
            first.fallbacks, calls("monomials.colength")
        )
        return values

    def largest_span_share(self, layers):
        """Largest share of one job's time taken by a single span of the
        given layers.  Spans are stored in opening order, so each root
        span (``cli.main``) precedes the spans it contains."""
        ids = {self.names.index(name) for name in layers}
        name, parent = self.spans["name"], self.spans["parent"]
        start, end = self.spans["start"], self.spans["end"]
        largest, job_time = 0.0, 0.0
        for i in range(len(start)):
            if parent[i] < 0:
                job_time = end[i] - start[i]
            elif name[i] in ids:
                largest = max(largest, (end[i] - start[i]) / job_time)
        return largest

    def self_share(self, prefixes):
        """Share of the traced ``cli.main`` time spent in layers whose
        name starts with one of ``prefixes``."""
        total = sum(p.self_s[i] for p in self.passes for i in range(len(self.names)))
        part = sum(
            p.self_s[i]
            for p in self.passes
            for i, name in enumerate(self.names)
            if name.startswith(prefixes)
        )
        return part / total if total else 0.0


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _observe_slice(stats, args, kwargs, result):
    if any(result.values()):
        stats.useful_slices += 1


def _observe_homology(stats, args, kwargs, result):
    region = getattr(result, "region", None)
    if region:
        stats.max_region_cells = max(stats.max_region_cells, math.prod(region))


def _observe_rank(stats, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    if rows:
        stats.max_rows = max(stats.max_rows, len(rows))
        stats.max_cols = max(stats.max_cols, len(rows[0]))
    if _arg(args, kwargs, 1, "characteristic") == 0:
        stats.char0_ranks += 1


def _observe_colength(stats, args, kwargs, result):
    ideal = _arg(args, kwargs, 0, "ideal")
    stats.max_gens = max(stats.max_gens, len(ideal.generators))


_OBSERVERS = {
    "koszul.slice_dims": _observe_slice,
    "koszul.homology_lengths": _observe_homology,
    "koszul.exact_rank": _observe_rank,
    "monomials.colength": _observe_colength,
}
