"""Reference rendering of the trace CSV, the report JSON and judgment files.

These are the per-leaf renderings panelrank used before its writers
rendered whole arrays: one record per trace row through csv.writer, and
json.dumps with indent over plain lists. The writers must give the same
bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math

TRACE_HEADER = ("round", "alternative", "stage", "expert", "criterion", "value")


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


def _pair(mu: float, nu: float) -> str:
    return f"({fnum(mu)},{fnum(nu)})"


def trace_rows(report) -> list[tuple[str, ...]]:
    """One report's trace rows, one per quantity slot, in trace order."""
    rows = []
    rnd = report.round_label
    criteria = report.criteria_labels
    experts = report.expert_labels
    pairs = [(i, j) for i in range(len(criteria)) for j in range(i + 1, len(criteria))]
    directed = [(a, b) for a in range(len(experts)) for b in range(len(experts)) if a != b]
    positions = {label: str(i + 1) for i, label in enumerate(report.ranking)}
    for label, alt in report.alternatives.items():

        def add(stage, expert, criterion, value):
            rows.append((rnd, label, stage, expert, criterion, value))

        for expert, z_row, c_row in zip(experts, alt.z.tolist(), alt.combined.tolist()):
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
            ("credibility", alt.credibility),
            ("ivf", alt.info_volume),
            ("ivf_norm", alt.info_share),
            ("alpha", alt.attitude),
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
    return rows


def trace_bytes(reports) -> bytes:
    """The trace CSV of reports (UTF-8, LF line endings)."""
    rows = [TRACE_HEADER] + [row for report in reports for row in trace_rows(report)]
    return "".join(map(_csv_line, rows)).encode("utf-8")


def _csv_line(row) -> str:
    # a "\r\n" terminator makes csv.writer quote a field holding a bare
    # carriage return, which csv.reader would take for a line end; the
    # line then ends in "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    return buf.getvalue()[:-2] + "\n"


def alternative_dict(r) -> dict:
    return {
        "z": r.z.tolist(),
        "combined": r.combined.tolist(),
        "distances": r.distances.tolist(),
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
        "credibility": r.credibility.tolist(),
        "info_volume": {
            "raw": r.info_volume.tolist(),
            "normalized": r.info_share.tolist(),
        },
        "attitude": r.attitude.tolist(),
        "sharpness": [fnum(v) if math.isinf(v) else v for v in r.sharpness.tolist()],
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


def report_dict(report) -> dict:
    """Plain-data form of a report, every array through tolist."""
    config = report.config
    return {
        "round_label": report.round_label,
        "criteria_labels": list(report.criteria_labels),
        "expert_labels": list(report.expert_labels),
        "config": {
            "split_strategy": config.split_strategy.value,
            "dp_source": config.dp_source.value,
            "credibility_floor": config.credibility_floor,
            "tie_epsilon": config.tie_epsilon,
        },
        "alternatives": {label: alternative_dict(r) for label, r in report.alternatives.items()},
        "ranking": list(report.ranking),
        "ties": list(report.ties),
        "degeneracies": list(report.degeneracies),
    }


def json_bytes(doc) -> bytes:
    """json.dumps with indent 2, sorted keys and no NaN or Infinity, and a newline."""
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def judgments_dict(rounds) -> dict:
    """The judgment file document of rounds."""
    return {
        "schema_version": "1",
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
