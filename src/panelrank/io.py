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
import io as _io
import itertools
import json
import math
from collections.abc import Mapping, Sequence
from typing import NamedTuple

import numpy as np

from .core import IFN, SplitStrategy, ZJudgment, ifn_fault
from .credibility import AttitudeVector, CredibilityVector, InfoVolumeVector
from .errors import DomainError, ParseError, SchemaError
from .groups import CriterionWeights, DistanceMatrix
from .pipeline import AlternativeReport, EvaluationConfig, RoundInput, RoundReport
from .slf import DpSource, LikelihoodSeries, OwaWeights, Sharpness

SCHEMA_VERSION = "1"

TRACE_HEADER = ("round", "alternative", "stage", "expert", "criterion", "value")

TRACE_STAGES = (
    "reliability",
    "z",
    "combined",
    "distance",
    "similarity",
    "points",
    "weights",
    "group_distance",
    "divergence",
    "credibility",
    "ivf",
    "ivf_norm",
    "alpha",
    "sharpness",
    "owa_weight",
    "dp",
    "dslf",
    "ge",
    "rank",
)


def fnum(x: float) -> str:
    """Shortest decimal form that parses back exactly, at least 4 decimals."""
    v = float(x)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    s = repr(v)
    if "e" in s or "E" in s or "n" in s:
        return s
    head, _, frac = s.partition(".")
    return f"{head}.{frac.ljust(4, '0')}"


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
    if not isinstance(value, kind) or isinstance(value, bool):
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
    except SchemaError:
        raise
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
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rounds": [
            {
                "round_label": r.round_label,
                "criteria_labels": list(r.criteria_labels),
                "experts": list(r.expert_labels),
                "alternatives": dict(zip(r.alternatives, r.judgments.tolist())),
            }
            for r in rounds
        ],
    }
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


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
    known = {"split_strategy", "dp_source", "credibility_floor", "tie_epsilon"}
    unknown = set(doc) - known
    if unknown:
        raise SchemaError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    if "split_strategy" in doc:
        try:
            kwargs["split_strategy"] = SplitStrategy(doc["split_strategy"])
        except ValueError:
            raise SchemaError(f"unknown split_strategy {doc['split_strategy']!r}") from None
    if "dp_source" in doc:
        try:
            kwargs["dp_source"] = DpSource(doc["dp_source"])
        except ValueError:
            raise SchemaError(f"unknown dp_source {doc['dp_source']!r}") from None
    if "credibility_floor" in doc:
        kwargs["credibility_floor"] = _number(doc["credibility_floor"], "config")
    if "tie_epsilon" in doc:
        kwargs["tie_epsilon"] = _number(doc["tie_epsilon"], "config")
    return EvaluationConfig(**kwargs)


def _alternative_to_dict(r: AlternativeReport) -> dict:
    info = r.info_volume
    return {
        "z": r.z.tolist(),
        "combined": r.combined.tolist(),
        "distances": r.distances.tolist(),
        # a judgment identical to all its peers has infinite similarity,
        # which standard JSON cannot hold as a number
        "similarities": [
            [fnum(v) if math.isinf(v) else v for v in row] for row in r.similarities.tolist()
        ],
        "points": r.points.tolist(),
        "weights": [
            {"values": w, "degenerate": d}
            for w, d in zip(r.weights.tolist(), r.degenerate.tolist())
        ],
        "group_distances": r.group_distances.tolist(),
        "divergence": r.divergence.tolist(),
        "credibility": r.credibility.values.tolist(),
        "info_volume": {
            "raw": info.raw.tolist(),
            "modified": info.modified.tolist(),
            "normalized": info.normalized.tolist(),
        },
        "attitude": r.attitude.values.tolist(),
        "sharpness": r.sharpness.tolist(),
        "owa": r.owa.tolist(),
        "support": r.support.tolist(),
        "series": [
            {"dp": dp, "partials": partials}
            for dp, partials in zip(r.series.tolist(), r.partials.tolist())
        ],
        "dslf": r.dslf.tolist(),
        "gross_estimation": r.gross_estimation,
        "degeneracies": list(r.degeneracies),
    }


def report_to_dict(report: RoundReport) -> dict:
    """Plain-data form of a report; loss-free and JSON-serializable.

    Every number is finite except an infinite similarity (the identical-
    judgment fallback), which is written as the string "inf".
    """
    return {
        "round_label": report.round_label,
        "criteria_labels": list(report.criteria_labels),
        "expert_labels": list(report.expert_labels),
        "config": _config_to_dict(report.config),
        "alternatives": {
            label: _alternative_to_dict(r) for label, r in report.alternatives.items()
        },
        "ranking": list(report.ranking),
        "ties": list(report.ties),
        "degeneracies": list(report.degeneracies),
    }


def _array(value, shape: tuple[int, ...], loc: str, dtype=float) -> np.ndarray:
    """A read-only array of value, which must have the given shape."""
    try:
        out = np.array(value, dtype=dtype)
    except (TypeError, ValueError):
        raise SchemaError(f"expected a numeric array of shape {shape}", location=loc) from None
    if out.shape != shape:
        raise SchemaError(f"expected shape {shape}, got {out.shape}", location=loc)
    out.setflags(write=False)
    return out


def _alternative_from_dict(label: str, doc: Mapping, e: int, m: int, loc: str) -> AlternativeReport:
    def array(key, shape, value=None, dtype=float):
        return _array(doc[key] if value is None else value, shape, f"{loc}.{key}", dtype)

    z = array("z", (e, m, 3))
    combined = array("combined", (e, m, 2))
    distances = array("distances", (e, m, m))
    weights = array("weights", (e, m), [w["values"] for w in doc["weights"]])
    owa = array("owa", (e, m))
    sharpness = array("sharpness", (e,))
    series = array("series", (e, m), [s["dp"] for s in doc["series"]])
    # the value checks of the per-judgment and per-group types
    for (mu, nu, rel), pair in zip(z.reshape(-1, 3).tolist(), combined.reshape(-1, 2).tolist()):
        ZJudgment(IFN(mu, nu), rel)
        IFN(*pair)
    for d, w, o, p, s in zip(distances, weights, owa, sharpness.tolist(), series):
        DistanceMatrix(d), CriterionWeights(w), OwaWeights(o), Sharpness(p), LikelihoodSeries(s)
    info = doc["info_volume"]
    return AlternativeReport(
        label=label,
        z=z,
        combined=combined,
        distances=distances,
        similarities=array("similarities", (e, m)),
        points=array("points", (e, m), dtype=int),
        weights=weights,
        degenerate=array("weights", (e,), [w["degenerate"] for w in doc["weights"]], bool),
        group_distances=array("group_distances", (e, e)),
        divergence=array("divergence", (e,)),
        credibility=CredibilityVector(array("credibility", (e,))),
        info_volume=InfoVolumeVector(
            raw=array("info_volume", (e,), info["raw"]),
            normalized=array("info_volume", (e,), info["normalized"]),
        ),
        attitude=AttitudeVector(array("attitude", (e,))),
        sharpness=sharpness,
        owa=owa,
        support=array("support", (e, m)),
        series=series,
        dslf=array("dslf", (e,)),
        gross_estimation=float(doc["gross_estimation"]),
        degeneracies=tuple(doc["degeneracies"]),
    )


def report_from_dict(doc: Mapping) -> RoundReport:
    """Rebuild a RoundReport from its dict form (inverse of report_to_dict).

    An array whose shape does not fit the round's labels raises a
    SchemaError that names the alternative and field. The derived
    info_volume.modified and series[].partials are recomputed, not read.
    """
    criteria = tuple(doc["criteria_labels"])
    experts = tuple(doc["expert_labels"])
    return RoundReport(
        round_label=doc["round_label"],
        criteria_labels=criteria,
        expert_labels=experts,
        config=config_from_dict(doc["config"]),
        alternatives={
            label: _alternative_from_dict(
                label, alt, len(experts), len(criteria), f"alternatives.{label}"
            )
            for label, alt in doc["alternatives"].items()
        },
        ranking=tuple(doc["ranking"]),
        ties=tuple(doc["ties"]),
        degeneracies=tuple(doc["degeneracies"]),
    )


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


def _pair(mu: float, nu: float) -> str:
    return f"({fnum(mu)},{fnum(nu)})"


def trace_records(report: RoundReport) -> tuple[TraceRecord, ...]:
    """Flatten one report into trace records, one per quantity slot.

    Each array of an alternative is read through one tolist call.
    """
    rows: list[TraceRecord] = []
    rnd = report.round_label
    criteria = report.criteria_labels
    experts = report.expert_labels
    pairs = [(i, j) for i in range(len(criteria)) for j in range(i + 1, len(criteria))]
    directed = [(a, b) for a in range(len(experts)) for b in range(len(experts)) if a != b]

    positions = {label: str(i + 1) for i, label in enumerate(report.ranking)}
    for label, alt in report.alternatives.items():

        def add(stage, expert, criterion, value):
            rows.append(TraceRecord(rnd, label, stage, expert, criterion, value))

        z = alt.z.tolist()
        combined = alt.combined.tolist()
        for expert, z_row, c_row in zip(experts, z, combined):
            for criterion, (mu, nu, rel), (c_mu, c_nu) in zip(criteria, z_row, c_row):
                add("reliability", expert, criterion, fnum(rel))
                add("z", expert, criterion, f"({_pair(mu, nu)},{fnum(rel)})")
                add("combined", expert, criterion, _pair(c_mu, c_nu))
        for expert, d in zip(experts, alt.distances.tolist()):
            for i, j in pairs:
                add("distance", expert, f"{criteria[i]}-{criteria[j]}", fnum(d[i][j]))
        for stage, table in (
            ("similarity", alt.similarities),
            ("points", alt.points),
            ("weights", alt.weights),
        ):
            for expert, row in zip(experts, table.tolist()):
                for criterion, value in zip(criteria, row):
                    add(stage, expert, criterion, fnum(value))
        gd = alt.group_distances.tolist()
        for a, b in directed:
            add("group_distance", f"{experts[a]}-{experts[b]}", "", fnum(gd[a][b]))
        for stage, vector in (
            ("divergence", alt.divergence),
            ("credibility", alt.credibility.values),
            ("ivf", alt.info_volume.raw),
            ("ivf_norm", alt.info_volume.normalized),
            ("alpha", alt.attitude.values),
            ("dslf", alt.dslf),
            ("sharpness", alt.sharpness),
        ):
            for expert, value in zip(experts, vector.tolist()):
                add(stage, expert, "", fnum(value))
        for expert, row in zip(experts, alt.owa.tolist()):
            for j, w in enumerate(row):
                add("owa_weight", expert, str(j + 1), fnum(w))
        for expert, row in zip(experts, alt.support.tolist()):
            for criterion, value in zip(criteria, row):
                add("dp", expert, criterion, fnum(value))
        add("ge", "", "", fnum(alt.gross_estimation))
        add("rank", "", "", fnum(int(positions[label])))
        if label in report.ties:
            add("rank", "", "tie", fnum(1))
    return tuple(rows)


def emit_trace(reports: Sequence[RoundReport]) -> bytes:
    """Render reports as the trace CSV (UTF-8, LF line endings)."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for report in reports:
        writer.writerows(trace_records(report))
    return buf.getvalue().encode("utf-8")


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
    """Per-alternative gross estimation series for external plotting."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("round", "alternative", "gross_estimation"))
    for report in reports:
        for label, alt in report.alternatives.items():
            writer.writerow((report.round_label, label, fnum(alt.gross_estimation)))
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# report rendering


def _render_human(report: RoundReport) -> str:
    lines = [f"Round {report.round_label}"]
    lines.append(" > ".join(report.ranking))
    lines.append("")
    lines.append("alternative  gross_estimation")
    width = max((len(label) for label in report.alternatives), default=11)
    for label in report.ranking:
        ge = report.alternatives[label].gross_estimation
        lines.append(f"{label:<{width}}  {ge:.4f}")
    if report.ties:
        lines.append("")
        lines.append("tied: " + ", ".join(report.ties))
    if report.degeneracies:
        lines.append("")
        for note in report.degeneracies:
            lines.append(f"note: {note}")
    lines.append("")
    lines.append("")
    return "\n".join(lines)


def emit_report(report: RoundReport, format: str = "human") -> bytes:
    """Render a report as human text, loss-free JSON, or the trace CSV."""
    if format == "human":
        return _render_human(report).encode("utf-8")
    if format == "json":
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False)
        return (text + "\n").encode("utf-8")
    if format == "csv":
        return emit_trace([report])
    raise DomainError(f"unknown report format {format!r}")
