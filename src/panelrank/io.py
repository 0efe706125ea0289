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
import json
import math
from collections.abc import Mapping, Sequence
from typing import NamedTuple

import numpy as np

from .core import IFN, ZJudgment, SplitStrategy, validate
from .credibility import AttitudeVector, CredibilityVector, InfoVolumeVector, Panel
from .errors import DomainError, ParseError, SchemaError
from .groups import CriterionWeights, DistanceMatrix, GroupAssessment
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
    return float(value)


def _parse_pair(value, loc) -> IFN:
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError("judgment must be a [membership, non-membership] pair", location=loc)
    mu = _number(value[0], loc)
    nu = _number(value[1], loc)
    try:
        return validate(mu, nu)
    except DomainError as exc:
        raise DomainError(str(exc), location=loc) from None


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

    panels = {}
    for alt_label, matrix in alternatives.items():
        alt_loc = f"{loc}.alternatives.{alt_label}"
        if not isinstance(matrix, list) or len(matrix) != len(experts):
            raise SchemaError(
                f"expected one row per expert ({len(experts)})", location=alt_loc
            )
        groups = []
        for e, row in enumerate(matrix):
            row_loc = f"{alt_loc}, {experts[e]}"
            if not isinstance(row, list) or len(row) != len(criteria):
                raise SchemaError(
                    f"expected one judgment per criterion ({len(criteria)})", location=row_loc
                )
            items = tuple(
                _parse_pair(pair, f"{row_loc}, {criteria[i]}") for i, pair in enumerate(row)
            )
            groups.append(GroupAssessment(items, tuple(criteria)))
        panels[alt_label] = Panel(tuple(groups))
    return RoundInput(
        round_label=label,
        criteria_labels=tuple(criteria),
        expert_labels=tuple(experts),
        alternatives=panels,
    )


def parse_judgments(data: bytes | str) -> tuple[RoundInput, ...]:
    """Parse a judgment file into validated RoundInputs.

    Raises ParseError for malformed text, SchemaError for shape or
    uniqueness violations, and DomainError for invalid judgments; each
    error names where in the file it happened.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
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
                "alternatives": {
                    label: [[[i.mu, i.nu] for i in g.items] for g in panel.groups]
                    for label, panel in r.alternatives.items()
                },
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
    return {
        "z": [[[z.ifn.mu, z.ifn.nu, z.reliability] for z in row] for row in r.z_table],
        "combined": [[[i.mu, i.nu] for i in g.items] for g in r.combined],
        "distances": [d.values.tolist() for d in r.distances],
        # a judgment identical to all its peers has infinite similarity,
        # which standard JSON cannot hold as a number
        "similarities": [
            [fnum(v) if math.isinf(v) else v for v in s.tolist()] for s in r.similarities
        ],
        "points": [p.tolist() for p in r.points],
        "weights": [
            {"values": w.weights.tolist(), "degenerate": w.degenerate} for w in r.weights
        ],
        "group_distances": r.group_distances.tolist(),
        "divergence": r.divergence.tolist(),
        "credibility": r.credibility.values.tolist(),
        "info_volume": {
            "raw": r.info_volume.raw.tolist(),
            "modified": r.info_volume.modified.tolist(),
            "normalized": r.info_volume.normalized.tolist(),
        },
        "attitude": r.attitude.values.tolist(),
        "sharpness": [s.p for s in r.sharpness],
        "owa": [w.w.tolist() for w in r.owa],
        "support": [s.tolist() for s in r.support],
        "series": [
            {"dp": s.dp.tolist(), "partials": s.partials.tolist()} for s in r.series
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


def _alternative_from_dict(label: str, doc: Mapping, criteria: tuple[str, ...]) -> AlternativeReport:
    z_table = tuple(
        tuple(ZJudgment(IFN(mu, nu), rel) for mu, nu, rel in row) for row in doc["z"]
    )
    combined = tuple(
        GroupAssessment(tuple(IFN(mu, nu) for mu, nu in row), criteria)
        for row in doc["combined"]
    )
    return AlternativeReport(
        label=label,
        z_table=z_table,
        combined=combined,
        distances=tuple(DistanceMatrix(np.array(d)) for d in doc["distances"]),
        similarities=tuple(np.array(s, dtype=float) for s in doc["similarities"]),
        points=tuple(np.array(p, dtype=int) for p in doc["points"]),
        weights=tuple(
            CriterionWeights(np.array(w["values"]), w["degenerate"]) for w in doc["weights"]
        ),
        group_distances=np.array(doc["group_distances"]),
        divergence=np.array(doc["divergence"]),
        credibility=CredibilityVector(np.array(doc["credibility"])),
        info_volume=InfoVolumeVector(
            raw=np.array(doc["info_volume"]["raw"]),
            modified=np.array(doc["info_volume"]["modified"]),
            normalized=np.array(doc["info_volume"]["normalized"]),
        ),
        attitude=AttitudeVector(np.array(doc["attitude"])),
        sharpness=tuple(Sharpness(p) for p in doc["sharpness"]),
        owa=tuple(OwaWeights(np.array(w)) for w in doc["owa"]),
        support=tuple(np.array(s) for s in doc["support"]),
        series=tuple(
            LikelihoodSeries(np.array(s["dp"]), np.array(s["partials"])) for s in doc["series"]
        ),
        dslf=np.array(doc["dslf"]),
        gross_estimation=float(doc["gross_estimation"]),
        degeneracies=tuple(doc["degeneracies"]),
    )


def report_from_dict(doc: Mapping) -> RoundReport:
    """Rebuild a RoundReport from its dict form (inverse of report_to_dict)."""
    criteria = tuple(doc["criteria_labels"])
    return RoundReport(
        round_label=doc["round_label"],
        criteria_labels=criteria,
        expert_labels=tuple(doc["expert_labels"]),
        config=config_from_dict(doc["config"]),
        alternatives={
            label: _alternative_from_dict(label, alt, criteria)
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
    """Flatten one report into trace records, one per quantity slot."""
    rows: list[TraceRecord] = []
    rnd = report.round_label
    criteria = report.criteria_labels
    experts = report.expert_labels

    def add(alternative, stage, expert, criterion, value):
        rows.append(TraceRecord(rnd, alternative, stage, expert, criterion, value))

    positions = {label: str(i + 1) for i, label in enumerate(report.ranking)}
    for label, alt in report.alternatives.items():
        for e, expert in enumerate(experts):
            for c, criterion in enumerate(criteria):
                z = alt.z_table[e][c]
                add(label, "reliability", expert, criterion, fnum(z.reliability))
                add(label, "z", expert, criterion, f"({_pair(z.ifn.mu, z.ifn.nu)},{fnum(z.reliability)})")
                item = alt.combined[e].items[c]
                add(label, "combined", expert, criterion, _pair(item.mu, item.nu))
        for e, expert in enumerate(experts):
            d = alt.distances[e].values
            for i in range(len(criteria)):
                for j in range(i + 1, len(criteria)):
                    add(label, "distance", expert, f"{criteria[i]}-{criteria[j]}", fnum(d[i, j]))
        for stage, table in (
            ("similarity", alt.similarities),
            ("points", alt.points),
            ("weights", [w.weights for w in alt.weights]),
        ):
            for e, expert in enumerate(experts):
                for c, criterion in enumerate(criteria):
                    add(label, stage, expert, criterion, fnum(table[e][c]))
        for a in range(len(experts)):
            for b in range(len(experts)):
                if a != b:
                    add(
                        label,
                        "group_distance",
                        f"{experts[a]}-{experts[b]}",
                        "",
                        fnum(alt.group_distances[a, b]),
                    )
        for stage, vector in (
            ("divergence", alt.divergence),
            ("credibility", alt.credibility.values),
            ("ivf", alt.info_volume.raw),
            ("ivf_norm", alt.info_volume.normalized),
            ("alpha", alt.attitude.values),
            ("dslf", alt.dslf),
        ):
            for e, expert in enumerate(experts):
                add(label, stage, expert, "", fnum(vector[e]))
        for e, expert in enumerate(experts):
            add(label, "sharpness", expert, "", fnum(alt.sharpness[e].p))
        for e, expert in enumerate(experts):
            for j, w in enumerate(alt.owa[e].w):
                add(label, "owa_weight", expert, str(j + 1), fnum(w))
        for e, expert in enumerate(experts):
            for c, criterion in enumerate(criteria):
                add(label, "dp", expert, criterion, fnum(alt.support[e][c]))
        add(label, "ge", "", "", fnum(alt.gross_estimation))
        add(label, "rank", "", "", fnum(int(positions[label])))
        if label in report.ties:
            add(label, "rank", "", "tie", fnum(1))
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
        data = data.decode("utf-8")
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
