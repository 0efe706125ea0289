"""Spans around calls into panelrank's modules, recorded from outside the package.

Every wrapper is installed where its name is looked up: `pipeline` and `cli`
bind their imports with `from .x import y`, so each such name is wrapped in
the importing module, while `group_distance` and `support_values` are wrapped
in their own modules because `expert_divergence` and `dp_values` call them
there. `js_distance` is counted without a span, since a span per call would
cost more than the call.

A span records name, start, end, parent span and job id. Spans stay in memory
until the run writes them out. A span's self time is its duration minus the
time its child spans cover, wrapper bookkeeping included, so the tracer's own
cost lands in no layer's self time (only the js_distance counter adds to its
caller's). Layer shares divide by the traced job time less that bookkeeping.

A name that no longer exists is skipped: its metrics read 0 calls, and a
useful-work ratio with no calls reads 1. Every patched attribute is restored
when `installed()` exits.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gzip
import importlib
import inspect
import statistics
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

PACKAGE = "panelrank"
LAYERS = ("core", "groups", "credibility", "slf", "pipeline", "io", "cli")

# modules whose sibling imports are all wrapped
IMPORTERS = ("pipeline", "cli")

# further (module, name) sites, wrapped where the package itself looks them up
SITES = (
    ("cli", "cli_main"),
    ("pipeline", "evaluate_round"),
    ("pipeline", "compare_configs"),
    ("credibility", "group_distance"),
    ("slf", "support_values"),
    ("io", "parse_judgments"),
    ("io", "report_to_dict"),
    ("io", "trace_records"),
    ("io", "emit_trace"),
)

COUNTED = (("groups", "js_distance"), ("credibility", "js_distance"))

# span name -> the enclosing span whose calls bound the useful work, None for
# the outermost span (the public entry call); useful work is the number of
# distinct argument values within one such scope
USEFUL_SCOPES = {
    "groups.pairwise_distances": None,
    "credibility.group_distance": "pipeline.evaluate_round",
    "slf.support_values": "pipeline.evaluate_round",
}

# per-layer metrics of a traced run, with their units
METRICS = {
    "groups.pairwise_distances.self_ms": "ms/job",
    "groups.pairwise_distances.calls": "calls/job",
    "groups.pairwise_distances.useful_ratio": "ratio",
    "groups.self_ms": "ms/job",
    "credibility.group_distance.self_ms": "ms/job",
    "credibility.group_distance.calls": "calls/job",
    "credibility.group_distance.useful_ratio": "ratio",
    "credibility.expert_divergence.self_ms": "ms/job",
    "credibility.self_ms": "ms/job",
    "core.js_distance.calls": "calls/job",
    "core.self_ms": "ms/job",
    "slf.support_values.useful_ratio": "ratio",
    "slf.dp_values.self_ms": "ms/job",
    "slf.owa_weights.self_ms": "ms/job",
    "slf.self_ms": "ms/job",
    "pipeline.evaluate_round.self_ms": "ms/job",
    "pipeline.evaluate_round.calls": "calls/job",
    "pipeline.compare_configs.self_ms": "ms/job",
    "pipeline.self_ms": "ms/job",
    "io.parse_judgments.self_ms": "ms/job",
    "io.trace_records.self_ms": "ms/job",
    "io.emit_trace.self_ms": "ms/job",
    "io.report_to_dict.self_ms": "ms/job",
    "io.self_ms": "ms/job",
    "io.trace_bytes": "bytes/job",
    "io.json_bytes": "bytes/job",
    "cli.cli_main.self_ms": "ms/job",
    "cli.self_ms": "ms/job",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}

# fields of an open span record; finished spans move to Tracer.columns
_ID, _PARENT, _JOB, _NAME, _START, _END, _COVERED = range(7)
COLUMNS = ("id", "parent", "job", "name", "start_ns", "end_ns", "self_ns")


def _module(layer: str):
    return importlib.import_module(f"{PACKAGE}.{layer}")


def _span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def _freeze(value):
    """A hashable stand-in for an argument, equal for equal values."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value) and type(value).__eq__ is object.__eq__:
        return (type(value).__name__,) + tuple(
            _freeze(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return value


class Tracer:
    """Records spans and counts for the jobs run while installed()."""

    def __init__(self):
        # one int64 array per COLUMNS entry; parent -1 for a root span, name an
        # index into self.names
        self.columns = {column: array("q") for column in COLUMNS}
        self.names: list[str] = []
        self._job_spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.job = -1
        self.bookkeeping_ns = 0  # wrapper time outside the wrapped calls
        self._stack: list[list] = []
        # per job: id(argument) -> (argument, token), and frozen value -> token;
        # holding the argument keeps its id from being reused within the job
        self._memo: dict[int, tuple] = {}
        self._tokens: dict = {}

    def _token(self, value) -> int:
        """A small int equal for equal argument values within one job."""
        hit = self._memo.get(id(value))
        if hit is None:
            token = self._tokens.setdefault(_freeze(value), len(self._tokens))
            hit = self._memo[id(value)] = (value, token)
        return hit[1]

    def _span(self, fn):
        name = _span_name(fn)
        scoped = name in USEFUL_SCOPES
        scope = USEFUL_SCOPES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            enter = perf_counter_ns()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if scoped:
                owner = stack[0] if stack else None
                if scope is not None:
                    owner = next((s for s in reversed(stack) if s[_NAME] == scope), None)
                key = tuple(map(tracer._token, args)) + tuple(
                    (k, tracer._token(v)) for k, v in sorted(kwargs.items())
                )
                tracer.distinct[name, None if owner is None else owner[_ID]].add(key)
            record = [len(tracer.columns["id"]) + len(tracer._job_spans),
                      -1 if parent is None else parent[_ID], tracer.job, name, 0, 0, 0]
            tracer._job_spans.append(record)
            stack.append(record)
            record[_START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[_END] = perf_counter_ns()
                stack.pop()
                covered = perf_counter_ns() - enter
                tracer.bookkeeping_ns += covered - (record[_END] - record[_START])
                if parent is not None:
                    parent[_COVERED] += covered

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _counter(self, fn):
        name = _span_name(fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _sites(self) -> dict:
        """{(module, attribute): wrap} for every name to wrap that exists now."""
        out = {}
        for layer in IMPORTERS:
            module = _module(layer)
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith(PACKAGE + ".")
                    and value.__module__ != module.__name__
                ):
                    out[module, attr] = self._span
        for sites, wrap in ((SITES, self._span), (COUNTED, self._counter)):
            for layer, attr in sites:
                module = _module(layer)
                if inspect.isfunction(getattr(module, attr, None)):
                    out[module, attr] = wrap
        return out

    @contextlib.contextmanager
    def installed(self):
        """Trace one job: wrappers in place on entry, originals back on exit."""
        patched = []
        self.job += 1
        try:
            for (module, attr), wrap in self._sites().items():
                original = getattr(module, attr)
                setattr(module, attr, wrap(original))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
            self._finish_job()

    def _finish_job(self) -> None:
        """Move the job's spans into the columns, self time in place of covered time."""
        index = {name: i for i, name in enumerate(self.names)}
        for record in self._job_spans:
            name = record[_NAME]
            if name not in index:
                index[name] = len(self.names)
                self.names.append(name)
            record[_NAME] = index[name]
            record[_COVERED] = record[_END] - record[_START] - record[_COVERED]
            for column, value in zip(self.columns.values(), record):
                column.append(value)
        self._job_spans.clear()
        self._stack.clear()
        self._memo.clear()
        self._tokens.clear()

    def metrics(self, traced_ns: list[int], untraced_ns: list[int], sizes: Counter) -> dict:
        """Per-job values of METRICS over the traced jobs.

        traced_ns and untraced_ns hold job wall times with and without the
        wrappers; sizes holds output byte totals over the traced jobs. A
        layer's share is its self time over the traced job time less the
        span bookkeeping.
        """
        jobs = len(traced_ns)
        self_by_name: Counter = Counter()
        calls: Counter = Counter(self.counts)
        for name, self_ns in zip(self.columns["name"], self.columns["self_ns"]):
            self_by_name[self.names[name]] += self_ns
            calls[self.names[name]] += 1
        self_by_layer: Counter = Counter()
        for name, ns in self_by_name.items():
            self_by_layer[name.partition(".")[0]] += ns
        useful: Counter = Counter()
        for (name, _), keys in self.distinct.items():
            useful[name] += len(keys)

        out = {}
        for metric in METRICS:
            head, _, field = metric.rpartition(".")
            if field == "self_ms":
                ns = self_by_layer[head] if head in LAYERS else self_by_name[head]
                value = ns / jobs / 1e6
            elif field == "calls":
                value = calls[head] / jobs
            elif field == "useful_ratio":
                value = useful[head] / calls[head] if calls[head] else 1.0
            elif field == "share":
                value = self_by_layer[head] / (sum(traced_ns) - self.bookkeeping_ns)
            elif metric == "trace.overhead_ratio":
                value = statistics.median(traced_ns) / statistics.median(untraced_ns)
            else:
                value = sizes[field] / jobs
            out[metric] = value
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV with the COLUMNS header."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            for row in zip(*self.columns.values()):
                writer.writerow(row[:3] + (self.names[row[3]],) + row[4:])
