"""Judgment file parsing, report serialization, and the audit trace.

Judgment file format (JSON, UTF-8):

    {
      "schema_version": "1",
      "rounds": [
        {
          "round_label": "r1",
          "criteria_labels": ["x1", "x2"],
          "experts": ["Expert_1", "Expert_2"],
          "alternatives": {
            "A": [[[0.6, 0.2], [0.3, 0.5]],
                  [[0.5, 0.4], [0.8, 0.0]]]
          }
        }
      ]
    }

Each alternative maps to an experts x criteria matrix of [membership,
non-membership] pairs. Labels must be unique, every matrix must have one
row per expert and one pair per criterion, and every pair must satisfy
mu + nu <= 1. Unknown keys (such as "notes") are ignored.

FIELDS declares each quantity of a report once; report_to_dict, TRACE_STAGES,
reports.report_from_dict and the two writers follow it. Both writers stream
into a text stream and render each array in one pass, not leaf by leaf.

The trace is a flat CSV with header round,alternative,stage,expert,criterion,
value and LF line endings. Scalar values are written as the shortest decimal
that parses back to the same float, padded to at least four decimal places;
stage z holds "((mu,nu),reliability)" strings and stage combined "(mu,nu)"
strings. Stage distance keys criterion by the unordered pair "xi-xj", stage
group_distance keys expert by the directional pair "Expert_a-Expert_b", and
stage owa_weight uses the ordered position 1..k as criterion. Stage dp holds
the unsorted per-criterion support values. Ranks carry one extra record with
criterion "tie" and value 1 for alternatives whose gross estimation exactly
ties another's.
"""

from __future__ import annotations

import csv
import functools
import io as _io
import itertools
import json
import math
import threading
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from types import SimpleNamespace
from typing import NamedTuple, TextIO

import numpy as np

from .core import SplitStrategy, ifn_fault
from .errors import DomainError, ParseError, SchemaError
from .pipeline import AlternativeReport, EvaluationConfig, RoundInput, RoundReport
from .slf import DpSource

SCHEMA_VERSION = "1"

TRACE_HEADER = ("round", "alternative", "stage", "expert", "criterion", "value")


class Field(NamedTuple):
    """One quantity of an AlternativeReport, as the JSON and the trace hold it.

    key: its place in an alternative's JSON object; "a.b" is key b of object
    a, "a[].b" key b of one object per expert. stage: its trace stage. axes:
    a letter per array axis (e expert, m criterion, k ordered position), then
    the count of components that cell formats into one trace value. attr:
    the attribute holding it; dtype: its type when read back.
    """

    key: str | None
    stage: str | None
    axes: str
    attr: str
    cell: str = "{}"
    dtype: type = float


# In trace order. The trace rows of one group's fields interleave, key by
# key; distance rows key the criterion pair, group_distance rows the
# directed expert pair; the rank rows come from the ranking and the ties.
FIELDS = (
    (
        Field(None, "reliability", "em3", "z", "{2}"),
        Field("z", "z", "em3", "z", '"(({},{}),{})"'),
        Field("combined", "combined", "em2", "combined", '"({},{})"'),
    ),
    (Field("distances", "distance", "emm", "distances"),),
    (Field("similarities", "similarity", "em", "similarities"),),
    (Field("points", "points", "em", "points", dtype=int),),
    (Field("weights[].values", "weights", "em", "weights"),),
    (Field("weights[].degenerate", None, "e", "degenerate", dtype=bool),),
    (Field("group_distances", "group_distance", "ee", "group_distances"),),
    (Field("divergence", "divergence", "e", "divergence"),),
    (Field("credibility", "credibility", "e", "credibility.values"),),
    (Field("info_volume.raw", "ivf", "e", "info_volume.raw"),),
    (Field("info_volume.modified", None, "e", "info_volume.modified"),),
    (Field("info_volume.normalized", "ivf_norm", "e", "info_volume.normalized"),),
    (Field("attitude", "alpha", "e", "attitude.values"),),
    (Field("dslf", "dslf", "e", "dslf"),),
    (Field("sharpness", "sharpness", "e", "sharpness"),),
    (Field("owa", "owa_weight", "ek", "owa"),),
    (Field("support", "dp", "em", "support"),),
    (Field("series[].dp", None, "em", "series"),),
    (Field("series[].partials", None, "em", "partials"),),
    (Field("gross_estimation", "ge", "", "gross_estimation"),),
)
_JSON_FIELDS = tuple(f for group in FIELDS for f in group if f.key)
_TRACE_GROUPS = tuple(g for g in (tuple(f for f in group if f.stage) for group in FIELDS) if g)
TRACE_STAGES = tuple(f.stage for group in _TRACE_GROUPS for f in group) + ("rank",)


def fnum(x: float) -> str:
    """Shortest decimal form that parses back exactly, at least 4 decimals."""
    s = repr(float(x))
    point = s.find(".")  # none in inf, nan or 1e+16; "e" only after 5 or more decimals
    return s if point < 0 else s.ljust(point + 5, "0")


# ---------------------------------------------------------------------------
# JSON


@functools.lru_cache(maxsize=128)
def _layout(shape: tuple[int, ...], level: int) -> str:
    """json.dumps's indented layout of a nested list of this shape, "%s" per leaf."""
    if not shape or not shape[0]:
        return "[]" if shape else "%s"
    inner = "\n" + "  " * (level + 1)
    items = f",{inner}".join([_layout(shape[1:], level + 1)] * shape[0])
    return f"[{inner}{items}\n{'  ' * level}]"


def _scalar(o) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or isinstance(o, (bool, np.bool_)):
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, float) and not math.isfinite(o):
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    return (float.__repr__ if isinstance(o, float) else int.__repr__)(o)


_LEAF = {"f": float.__repr__, "i": int.__repr__}  # the leaves of float and int arrays


def _write(o, level: int, write) -> None:
    if isinstance(o, RoundReport):
        o = _report_doc(o, lists=False)
    if isinstance(o, np.ndarray):
        flat = o.ravel().tolist()
        text = _layout(o.shape, level) % tuple(map(_LEAF.get(o.dtype.kind, _scalar), flat))
        if "n" in text and o.dtype.kind == "f":  # inf or nan: a finite float's repr has no n
            _scalar(next(v for v in flat if not math.isfinite(v)))  # raises json's ValueError
        write(text)
    elif not isinstance(o, (dict, list, tuple)):
        write(_scalar(o))
    else:
        opener, closer = "{}" if isinstance(o, dict) else "[]"
        if isinstance(o, dict):
            items = [(f"{encode_basestring_ascii(k)}: ", v) for k, v in sorted(o.items())]
        else:
            items = [("", v) for v in o]
        inner = "\n" + "  " * (level + 1)
        write(opener)
        for i, (key, value) in enumerate(items):
            write(("," if i else "") + inner + key)
            _write(value, level + 1, write)
        write(("\n" + "  " * level if items else "") + closer)


def write_json(doc, stream: TextIO) -> None:
    """Write doc and a newline into stream, as json.dumps(doc, indent=2,
    sort_keys=True, allow_nan=False) gives it; an ndarray stands for its
    tolist() and a RoundReport for its report_to_dict(). A non-finite number
    raises json.dumps's ValueError, once the text before it is written."""
    _write(doc, 0, stream.write)
    stream.write("\n")


def _json_bytes(doc) -> bytes:
    buf = _io.StringIO()
    write_json(doc, buf)
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# judgment files


def _no_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise SchemaError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _require(mapping, key, kind, loc):
    if not isinstance(mapping, dict):
        raise SchemaError("expected an object", location=loc)
    if key not in mapping:
        raise SchemaError(f"missing required key {key!r}", location=loc)
    value = mapping[key]
    if not isinstance(value, kind):
        raise SchemaError(f"key {key!r} must be of type {kind.__name__}", location=loc)
    return value


def _string_list(value, what, loc):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{what} must be a non-empty list", location=loc)
    if any(not isinstance(v, str) for v in value):
        raise SchemaError(f"{what} entries must be strings", location=loc)
    return value


def _number(value, loc):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a number", location=loc)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise DomainError("number too large for a float", location=loc) from None


def _decode_utf8(data: bytes, location: str | None = None) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", location=location) from None


def _judgment_array(matrices: list, experts: int, criteria: int) -> np.ndarray | None:
    """The judgment matrices as one [A, E, M, 2] float array.

    None unless every matrix holds one row per expert, every row one pair
    per criterion, and every leaf is an int or a float, never a bool: the
    float conversion alone would take true, "0.5" and null. The leaves are
    checked and converted as one flat list; a container other than a list
    either fails to flatten or yields string leaves.
    """
    flatten = itertools.chain.from_iterable
    try:
        rows = list(flatten(matrices))
        pairs = list(flatten(rows))
        leaves = list(flatten(pairs))
        if not (
            set(map(type, leaves)) <= {int, float}
            and set(map(len, matrices)) == {experts}
            and set(map(len, rows)) == {criteria}
            and set(map(len, pairs)) == {2}
        ):
            return None
        flat = np.array(leaves, dtype=float)
    except (TypeError, OverflowError):  # a number to flatten, an int beyond float
        return None
    return flat.reshape(len(matrices), experts, criteria, 2)


def _raise_first_fault(alternatives: dict, experts: list, criteria: list, loc: str):
    """Raise the located error for the first fault of a round's judgments.

    Walks the matrices in file order, checking shapes, number types and
    then each pair as IFN would; only runs once a fault is known.
    """
    for alt_label, matrix in alternatives.items():
        alt_loc = f"{loc}.alternatives.{alt_label}"
        if not isinstance(matrix, list) or len(matrix) != len(experts):
            raise SchemaError(f"expected one row per expert ({len(experts)})", location=alt_loc)
        for expert, row in zip(experts, matrix):
            row_loc = f"{alt_loc}, {expert}"
            if not isinstance(row, list) or len(row) != len(criteria):
                raise SchemaError(
                    f"expected one judgment per criterion ({len(criteria)})", location=row_loc
                )
            for criterion, pair in zip(criteria, row):
                pair_loc = f"{row_loc}, {criterion}"
                if not isinstance(pair, list) or len(pair) != 2:
                    raise SchemaError(
                        "judgment must be a [membership, non-membership] pair", location=pair_loc
                    )
                fault = ifn_fault(_number(pair[0], pair_loc), _number(pair[1], pair_loc))
                if fault is not None:
                    raise DomainError(fault, location=pair_loc)
    raise SchemaError("judgments do not form an array", location=f"{loc}.alternatives")


def _parse_round(entry, loc) -> RoundInput:
    label = _require(entry, "round_label", str, loc)
    criteria = _string_list(_require(entry, "criteria_labels", list, loc), "criteria_labels", loc)
    experts = _string_list(_require(entry, "experts", list, loc), "experts", loc)
    alternatives = _require(entry, "alternatives", dict, loc)
    if not alternatives:
        raise SchemaError("alternatives must be a non-empty object", location=loc)
    if len(set(criteria)) != len(criteria):
        raise SchemaError("criteria_labels must be unique", location=loc)
    if len(set(experts)) != len(experts):
        raise SchemaError("experts must be unique", location=loc)
    if len(experts) < 2:
        raise SchemaError("a round needs at least two experts", location=loc)
    if len(criteria) < 2:
        raise SchemaError("a round needs at least two criteria", location=loc)

    judgments = _judgment_array(list(alternatives.values()), len(experts), len(criteria))
    if judgments is None:
        _raise_first_fault(alternatives, experts, criteria, loc)
    try:
        return RoundInput(
            round_label=label,
            criteria_labels=tuple(criteria),
            expert_labels=tuple(experts),
            alternatives=tuple(alternatives),
            judgments=judgments,
        )
    except DomainError as exc:  # a judgment IFN rejects, located in the round
        raise DomainError(exc.reason, location=f"{loc}.alternatives.{exc.location}") from None


def parse_judgments(data: bytes | str) -> tuple[RoundInput, ...]:
    """Parse a judgment file into validated RoundInputs.

    Raises ParseError for malformed text, SchemaError for shape or
    uniqueness violations, and DomainError for invalid judgments; each
    error names where in the file it happened.
    """
    if isinstance(data, bytes):
        data = _decode_utf8(data)
    try:
        doc = json.loads(data, object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, location=f"line {exc.lineno}, column {exc.colno}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    version = _require(doc, "schema_version", str, "top level")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION!r}")
    rounds = _require(doc, "rounds", list, "top level")
    if not rounds:
        raise SchemaError("rounds must be a non-empty list")
    out = []
    seen_labels = set()
    for i, entry in enumerate(rounds):
        parsed = _parse_round(entry, f"rounds[{i}]")
        if parsed.round_label in seen_labels:
            raise SchemaError(
                f"duplicate round_label {parsed.round_label!r}", location=f"rounds[{i}]"
            )
        seen_labels.add(parsed.round_label)
        out.append(parsed)
    return tuple(out)


def emit_judgments(rounds: Sequence[RoundInput]) -> bytes:
    """Serialize RoundInputs back into the judgment file format."""
    docs = [
        {
            "round_label": r.round_label,
            "criteria_labels": list(r.criteria_labels),
            "experts": list(r.expert_labels),
            "alternatives": dict(zip(r.alternatives, r.judgments)),
        }
        for r in rounds
    ]
    return _json_bytes({"schema_version": SCHEMA_VERSION, "rounds": docs})


# ---------------------------------------------------------------------------
# report serialization


def _config_to_dict(config: EvaluationConfig) -> dict:
    return {
        "split_strategy": config.split_strategy.value,
        "dp_source": config.dp_source.value,
        "credibility_floor": config.credibility_floor,
        "tie_epsilon": config.tie_epsilon,
    }


def config_from_dict(doc: Mapping) -> EvaluationConfig:
    """Build an EvaluationConfig from its dict form, rejecting unknown keys."""
    if not isinstance(doc, Mapping):
        raise SchemaError("config must be an object")
    unknown = set(doc) - {"split_strategy", "dp_source", "credibility_floor", "tie_epsilon"}
    if unknown:
        raise SchemaError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, kind in (("split_strategy", SplitStrategy), ("dp_source", DpSource)):
        if key in doc:
            try:
                kwargs[key] = kind(doc[key])
            except ValueError:
                raise SchemaError(f"unknown {key} {doc[key]!r}") from None
    for key in ("credibility_floor", "tie_epsilon"):
        if key in doc:
            kwargs[key] = _number(doc[key], "config")
    return EvaluationConfig(**kwargs)


def _alternative_doc(alt: AlternativeReport, lists: bool) -> dict:
    """An alternative's JSON object, its arrays as lists or as they are."""
    doc = {"degeneracies": list(alt.degeneracies)}
    for f in _JSON_FIELDS:
        value = attrgetter(f.attr)(alt)
        if f.key == "similarities" and np.isinf(value).any():
            # a judgment identical to all its peers has infinite similarity,
            # which standard JSON cannot hold as a number
            value = [[fnum(v) if math.isinf(v) else v for v in row] for row in value.tolist()]
        elif lists and f.axes:
            value = value.tolist()
        head, _, tail = f.key.partition(".")
        if head.endswith("[]"):
            for entry, row in zip(doc.setdefault(head[:-2], [{} for _ in value]), value):
                entry[tail] = row
        elif tail:
            doc.setdefault(head, {})[tail] = value
        else:
            doc[head] = value
    return doc


def _report_doc(report: RoundReport, lists: bool) -> dict:
    return {
        "round_label": report.round_label,
        "criteria_labels": list(report.criteria_labels),
        "expert_labels": list(report.expert_labels),
        "config": _config_to_dict(report.config),
        "alternatives": {k: _alternative_doc(a, lists) for k, a in report.alternatives.items()},
        "ranking": list(report.ranking),
        "ties": list(report.ties),
        "degeneracies": list(report.degeneracies),
    }


def report_to_dict(report: RoundReport) -> dict:
    """Plain-data form of a report; loss-free and JSON-serializable.

    Every number is finite except an infinite similarity (the identical-
    judgment fallback), which is written as the string "inf".
    """
    return _report_doc(report, lists=True)


# ---------------------------------------------------------------------------
# trace


class TraceRecord(NamedTuple):
    """One row of the audit trace; all fields are strings."""

    round: str
    alternative: str
    stage: str
    expert: str
    criterion: str
    value: str


_ROWS_PER_WRITE = 96  # bounds the text held at once


@functools.lru_cache(maxsize=None)
def _quoting() -> tuple:
    """One csv.writer for the process (each holds a 128 KiB buffer), its rows and a lock.

    Its rows end in "\r\n", so that it quotes a field holding a carriage
    return as well as one holding a newline: csv.writer quotes only the
    characters of its line terminator, and csv.reader reads either as one.
    """
    rows: list[str] = []
    writer = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")
    return rows, writer, threading.Lock()


def _quoted(fields) -> list[str]:
    """Each field as csv.writer writes it within a row, quoted if it holds "\r" or "\n"."""
    rows, writer, lock = _quoting()
    with lock:
        writer.writerows([(field, "") for field in fields])
        out = [row[:-3] for row in rows]
        rows.clear()
    return out


def _write_round_trace(report: RoundReport, write) -> None:
    experts, criteria = report.expert_labels, report.criteria_labels
    iu, ju = np.triu_indices(len(criteria), 1)
    ia, ib = np.nonzero(~np.eye(len(experts), dtype=bool))
    pairs = _quoted(f"{criteria[i]}-{criteria[j]}" for i, j in zip(iu.tolist(), ju.tolist()))
    directed = _quoted(f"{experts[a]}-{experts[b]}" for a, b in zip(ia.tolist(), ib.tolist()))
    ex, cr = _quoted(experts), _quoted(criteria)
    # per axes, "expert,criterion," of each row in the order of the selected
    # values; the distance keys, as many as the distances, are made as written
    experts_per_pair = [head for head in (f"{x}," for x in ex) for _ in pairs]
    pair_keys = [f"{p}," for p in pairs]
    keys = {
        "em": [f"{x},{c}," for x in ex for c in cr].__iter__,
        "emm": lambda: map(str.__add__, experts_per_pair, itertools.cycle(pair_keys)),
        "ee": [f"{d},," for d in directed].__iter__,
        "e": [f"{x},," for x in ex].__iter__,
        "ek": [f"{x},{k}," for x in ex for k in range(1, len(criteria) + 1)].__iter__,
        "": [",,"].__iter__,
    }
    select = {"emm": lambda a: a[:, iu, ju], "ee": lambda a: a[ia, ib]}
    positions = {label: i for i, label in enumerate(report.ranking, start=1)}
    rnd, *quoted = _quoted((report.round_label, *report.alternatives))
    for quoted_label, (label, alt) in zip(quoted, report.alternatives.items()):
        prefix = f"{rnd},{quoted_label},"
        for group in _TRACE_GROUPS:
            axes = group[0].axes.rstrip("23")
            pick = select.get(axes, np.asarray)
            arrays = {f.attr: pick(attrgetter(f.attr)(alt)) for f in group}
            if len(group) == 1 and axes == group[0].axes:
                lead = f"{prefix}{group[0].stage},"
                cells = map(fnum, np.ravel(arrays[group[0].attr]).tolist())
                rows = map(str.__add__, keys[axes](), cells)
            else:  # one format per key writes its row of every field of the group
                parts, slots = [], {}
                for attr, a in arrays.items():  # the numbers of each component, in order
                    comps = [a[..., i] for i in range(a.shape[-1])] if a.ndim > len(axes) else [a]
                    slots[attr] = [f"{{{len(parts) + i}}}" for i in range(1, len(comps) + 1)]
                    parts += comps
                lead, escaped = "", prefix.replace("{", "{{").replace("}", "}}")
                template = "\n".join(
                    f"{escaped}{f.stage},{{0}}" + f.cell.format(*slots[f.attr]) for f in group
                )
                numbers = (map(fnum, np.ravel(part).tolist()) for part in parts)
                rows = map(template.format, keys[axes](), *numbers)
            separator = "\n" + lead
            while chunk := list(itertools.islice(rows, _ROWS_PER_WRITE // len(group))):
                write(f"{lead}{separator.join(chunk)}\n")
        write(f"{prefix}rank,,,{fnum(positions[label])}\n")
        if label in report.ties:
            write(f"{prefix}rank,,tie,{fnum(1)}\n")


def write_trace(reports: Sequence[RoundReport], stream: TextIO) -> None:
    """Write reports as the trace CSV (LF line endings) into a text stream, such
    as a file opened with newline="", one group of rows at a time."""
    stream.write(",".join(TRACE_HEADER) + "\n")
    for report in reports:
        _write_round_trace(report, stream.write)


def emit_trace(reports: Sequence[RoundReport]) -> bytes:
    """Render reports as the trace CSV (UTF-8, LF line endings)."""
    buf = _io.StringIO()
    write_trace(reports, buf)
    return buf.getvalue().encode("utf-8")


def trace_records(report: RoundReport) -> tuple[TraceRecord, ...]:
    """One report's trace rows as records, one per quantity slot."""
    return read_trace(emit_trace([report]))


def read_trace(data: bytes | str) -> tuple[TraceRecord, ...]:
    """Parse a trace CSV back into records (inverse of emit_trace)."""
    if isinstance(data, bytes):
        data = _decode_utf8(data)
    reader = csv.reader(_io.StringIO(data))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ParseError("trace is empty") from None
    if header != TRACE_HEADER:
        raise ParseError(f"unexpected trace header {header!r}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(TRACE_HEADER):
            raise ParseError("wrong field count", location=f"line {lineno}")
        rows.append(TraceRecord(*row))
    return tuple(rows)


def plot_data(reports: Sequence[RoundReport]) -> bytes:
    """Per-alternative gross estimation series for external plotting.

    CSV rows ending in "\n", one per alternative under a header. Labels are
    quoted as the trace quotes them, so one holding a carriage return reads
    back through csv.reader.
    """
    lines = ["round,alternative,gross_estimation\n"]
    for report in reports:
        (round_label,) = _quoted([report.round_label])
        labels = _quoted(report.alternatives)
        for label, alt in zip(labels, report.alternatives.values()):
            lines.append(f"{round_label},{label},{fnum(alt.gross_estimation)}\n")
    return "".join(lines).encode("utf-8")


# ---------------------------------------------------------------------------
# report rendering


def _render_human(report: RoundReport) -> str:
    width = max(map(len, report.alternatives), default=11)
    lines = [f"Round {report.round_label}", " > ".join(report.ranking)]
    lines += ["", "alternative  gross_estimation"]
    for label in report.ranking:
        lines.append(f"{label:<{width}}  {report.alternatives[label].gross_estimation:.4f}")
    if report.ties:
        lines += ["", "tied: " + ", ".join(report.ties)]
    if report.degeneracies:
        lines += ["", *(f"note: {note}" for note in report.degeneracies)]
    return "\n".join(lines + ["", ""])


def emit_report(report: RoundReport, format: str = "human") -> bytes:
    """Render a report as human text, loss-free JSON, or the trace CSV."""
    if format == "human":
        return _render_human(report).encode("utf-8")
    if format == "json":
        return _json_bytes(report)
    if format == "csv":
        return emit_trace([report])
    raise DomainError(f"unknown report format {format!r}")
