"""Judgment file parsing, serialization round trips, and the audit trace."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelrank import (
    IFN,
    DomainError,
    EvaluationConfig,
    GroupAssessment,
    Panel,
    ParseError,
    RoundInput,
    SchemaError,
    config_from_dict,
    emit_judgments,
    emit_report,
    emit_trace,
    evaluate_round,
    fnum,
    parse_judgments,
    plot_data,
    read_trace,
    report_from_dict,
    report_to_dict,
    trace_records,
)
from panelrank.io import TRACE_HEADER, TRACE_STAGES


def _doc(**overrides):
    doc = {
        "schema_version": "1",
        "rounds": [
            {
                "round_label": "r1",
                "criteria_labels": ["x1", "x2"],
                "experts": ["E1", "E2"],
                "alternatives": {
                    "A": [[[0.6, 0.2], [0.3, 0.5]], [[0.5, 0.4], [0.8, 0.0]]]
                },
            }
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# number formatting


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.5, "0.5000"),
        (1.0, "1.0000"),
        (3, "3.0000"),
        (-0.25, "-0.2500"),
        (0.6400000000000001, "0.6400000000000001"),
        (1e-30, "1e-30"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
    ],
)
def test_fnum_formatting(value, expected):
    assert fnum(value) == expected


@given(st.floats(allow_nan=False))
def test_fnum_round_trips_exactly(x):
    assert float(fnum(x)) == x


# ---------------------------------------------------------------------------
# judgment files


def test_parse_minimal_document():
    (parsed,) = parse_judgments(_doc())
    assert parsed.round_label == "r1"
    assert parsed.criteria_labels == ("x1", "x2")
    assert parsed.expert_labels == ("E1", "E2")
    assert list(parsed.alternatives) == ["A"]
    assert parsed.alternatives["A"].groups[0].items[0].mu == 0.6


def test_parse_ignores_unknown_keys():
    parsed = parse_judgments(_doc(notes=["free text"]))
    assert len(parsed) == 1


def test_parse_rejects_duplicate_json_keys():
    text = '{"schema_version": "1", "schema_version": "1", "rounds": []}'
    with pytest.raises(SchemaError, match="duplicate key"):
        parse_judgments(text)


def test_parse_rejects_wrong_schema_version():
    with pytest.raises(SchemaError, match="unsupported schema_version"):
        parse_judgments(_doc(schema_version="2"))


def test_parse_requires_top_level_shape():
    with pytest.raises(SchemaError, match="schema_version"):
        parse_judgments('{"rounds": []}')
    with pytest.raises(SchemaError, match="top level"):
        parse_judgments("[]")
    with pytest.raises(SchemaError, match="non-empty"):
        parse_judgments(_doc(rounds=[]))


def test_parse_rejects_duplicate_round_labels():
    doc = json.loads(_doc())
    doc["rounds"].append(doc["rounds"][0])
    with pytest.raises(SchemaError, match=r"duplicate round_label 'r1' \(at rounds\[1\]\)"):
        parse_judgments(json.dumps(doc))


def test_parse_requires_two_experts():
    doc = json.loads(_doc())
    doc["rounds"][0]["experts"] = ["E1"]
    doc["rounds"][0]["alternatives"]["A"] = [[[0.6, 0.2], [0.3, 0.5]]]
    with pytest.raises(SchemaError, match="two experts"):
        parse_judgments(json.dumps(doc))


def test_parse_locates_row_shape_errors():
    doc = json.loads(_doc())
    doc["rounds"][0]["alternatives"]["A"] = [[[0.6, 0.2], [0.3, 0.5]]]
    with pytest.raises(SchemaError, match=r"rounds\[0\].alternatives.A"):
        parse_judgments(json.dumps(doc))


def test_parse_locates_bad_judgments():
    doc = json.loads(_doc())
    doc["rounds"][0]["alternatives"]["A"][0][1] = [0.7, 0.4]
    with pytest.raises(DomainError) as err:
        parse_judgments(json.dumps(doc))
    assert err.value.location == "rounds[0].alternatives.A, E1, x2"


def test_parse_rejects_non_numeric_components():
    doc = json.loads(_doc())
    doc["rounds"][0]["alternatives"]["A"][0][0] = [True, 0.1]
    with pytest.raises(SchemaError, match="expected a number"):
        parse_judgments(json.dumps(doc))
    doc["rounds"][0]["alternatives"]["A"][0][0] = [0.1]
    with pytest.raises(SchemaError, match="pair"):
        parse_judgments(json.dumps(doc))


def test_parse_locates_malformed_json():
    with pytest.raises(ParseError, match="line 1"):
        parse_judgments("{")


def test_parse_rejects_invalid_utf8():
    with pytest.raises(ParseError, match="UTF-8"):
        parse_judgments(b"\xff\xfe{}")


@pytest.mark.parametrize(
    "name,error,needle",
    [
        ("invalid_ifn.json", DomainError, "Supplier_2"),
        ("empty_alternatives.json", SchemaError, "alternatives"),
        ("ragged_rows.json", SchemaError, "Supplier_1"),
        ("malformed.json", ParseError, "line"),
    ],
)
def test_bundled_bad_files_are_diagnosed(fixtures_dir, name, error, needle):
    data = (fixtures_dir / "bad" / name).read_bytes()
    with pytest.raises(error, match=needle):
        parse_judgments(data)


def test_judgment_round_trip_is_loss_free(rounds):
    emitted = emit_judgments(rounds)
    assert parse_judgments(emitted) == rounds
    assert emit_judgments(parse_judgments(emitted)) == emitted


# ---------------------------------------------------------------------------
# configs


def test_config_from_dict_defaults_and_overrides():
    assert config_from_dict({}) == EvaluationConfig()
    config = config_from_dict(
        {
            "split_strategy": "proportional",
            "dp_source": "combined",
            "credibility_floor": 0.001,
            "tie_epsilon": 1e-9,
        }
    )
    assert config.split_strategy.value == "proportional"
    assert config.dp_source.value == "combined"
    assert config.credibility_floor == 0.001


def test_config_from_dict_rejects_bad_documents():
    with pytest.raises(SchemaError, match="unknown config keys"):
        config_from_dict({"bogus": 1})
    with pytest.raises(SchemaError, match="unknown split_strategy"):
        config_from_dict({"split_strategy": "even"})
    with pytest.raises(SchemaError, match="unknown dp_source"):
        config_from_dict({"dp_source": "raw"})
    with pytest.raises(SchemaError, match="expected a number"):
        config_from_dict({"credibility_floor": True})
    with pytest.raises(SchemaError, match="object"):
        config_from_dict(3)


# ---------------------------------------------------------------------------
# report serialization


def test_report_dict_round_trip(report1):
    doc = report_to_dict(report1)
    assert json.loads(json.dumps(doc)) == doc
    assert report_to_dict(report_from_dict(doc)) == doc


def test_identical_judgments_serialize_to_standard_json():
    # every judgment of E1's row is the same, so its similarities are infinite
    flat = GroupAssessment((IFN(0.3, 0.3), IFN(0.3, 0.3), IFN(0.3, 0.3)))
    other = GroupAssessment((IFN(0.6, 0.1), IFN(0.2, 0.5), IFN(0.4, 0.4)))
    report = evaluate_round(
        RoundInput("flat", ("x1", "x2", "x3"), ("E1", "E2"), {"A": Panel((flat, other))})
    )
    assert math.isinf(report.alternatives["A"].similarities[0][0])
    text = emit_report(report, "json").decode("utf-8")
    doc = json.loads(text, parse_constant=lambda token: pytest.fail(f"emitted {token}"))
    assert doc["alternatives"]["A"]["similarities"][0] == ["inf", "inf", "inf"]
    rebuilt = report_from_dict(doc)
    assert math.isinf(rebuilt.alternatives["A"].similarities[0][0])
    assert report_to_dict(rebuilt) == doc


def test_report_from_dict_restores_ranking(report1):
    rebuilt = report_from_dict(report_to_dict(report1))
    assert rebuilt.ranking == report1.ranking
    assert rebuilt.config == report1.config
    for label, alt in report1.alternatives.items():
        assert rebuilt.alternatives[label].gross_estimation == alt.gross_estimation


# ---------------------------------------------------------------------------
# trace


def _expected_record_count(report):
    e = len(report.expert_labels)
    m = len(report.criteria_labels)
    per_alt = 3 * e * m + e * m * (m - 1) // 2 + 3 * e * m
    per_alt += e * (e - 1) + 6 * e + e + e * m + e * m + 2
    return len(report.alternatives) * per_alt + len(report.ties)


def test_trace_covers_every_stage(report1):
    records = trace_records(report1)
    assert {r.stage for r in records} == set(TRACE_STAGES)
    assert len(records) == _expected_record_count(report1)


def test_trace_cell_conventions(report1):
    records = trace_records(report1)
    by_key = {(r.alternative, r.stage, r.expert, r.criterion): r.value for r in records}

    alt = report1.alternatives["Supplier_1"]
    z = alt.z_table[0][0]
    z_value = by_key[("Supplier_1", "z", "Expert_1", "x1")]
    match = re.fullmatch(r"\(\(([^,]+),([^)]+)\),([^)]+)\)", z_value)
    assert match
    assert float(match.group(1)) == z.ifn.mu
    assert float(match.group(2)) == z.ifn.nu
    assert float(match.group(3)) == z.reliability

    combined = by_key[("Supplier_1", "combined", "Expert_1", "x1")]
    match = re.fullmatch(r"\(([^,]+),([^)]+)\)", combined)
    assert match
    assert float(match.group(1)) == alt.combined[0].items[0].mu

    # distances key the unordered pair once, low index first
    assert ("Supplier_1", "distance", "Expert_1", "x1-x2") in by_key
    assert ("Supplier_1", "distance", "Expert_1", "x2-x1") not in by_key
    assert float(by_key[("Supplier_1", "distance", "Expert_1", "x1-x2")]) == (
        alt.distances[0].values[0, 1]
    )

    # group distances are directional expert pairs
    assert float(by_key[("Supplier_1", "group_distance", "Expert_1-Expert_2", "")]) == (
        alt.group_distances[0, 1]
    )
    assert float(by_key[("Supplier_1", "group_distance", "Expert_2-Expert_1", "")]) == (
        alt.group_distances[1, 0]
    )

    # OWA weights key the ordered position
    assert float(by_key[("Supplier_1", "owa_weight", "Expert_1", "3")]) == (
        alt.owa[0].w[2]
    )

    # ranks follow the report ranking
    for position, label in enumerate(report1.ranking, start=1):
        assert by_key[(label, "rank", "", "")] == fnum(position)


def test_trace_marks_exact_ties():
    rows = (
        GroupAssessment((IFN(0.5, 0.2), IFN(0.3, 0.3))),
        GroupAssessment((IFN(0.4, 0.4), IFN(0.2, 0.6))),
    )
    report = evaluate_round(
        RoundInput(
            round_label="t",
            criteria_labels=("x1", "x2"),
            expert_labels=("E1", "E2"),
            alternatives={"A": Panel(rows), "B": Panel(rows)},
        )
    )
    records = trace_records(report)
    ties = [r for r in records if r.stage == "rank" and r.criterion == "tie"]
    assert [(r.alternative, r.value) for r in ties] == [("A", "1.0000"), ("B", "1.0000")]


def test_trace_round_trip_is_loss_free(report1):
    emitted = emit_trace([report1])
    records = read_trace(emitted)
    assert records == trace_records(report1)
    assert emitted.decode("utf-8").splitlines()[0] == ",".join(TRACE_HEADER)
    again = emit_trace([report1])
    assert again == emitted


def test_read_trace_diagnoses_bad_input():
    with pytest.raises(ParseError, match="empty"):
        read_trace("")
    with pytest.raises(ParseError, match="header"):
        read_trace("a,b,c\n")
    header = ",".join(TRACE_HEADER)
    with pytest.raises(ParseError, match="line 2"):
        read_trace(header + "\na,b,c\n")


# ---------------------------------------------------------------------------
# plot data and rendering


def test_plot_data_lists_every_alternative(report1):
    lines = plot_data([report1]).decode("utf-8").splitlines()
    assert lines[0] == "round,alternative,gross_estimation"
    assert len(lines) == 1 + len(report1.alternatives)
    for line in lines[1:]:
        rnd, label, value = line.split(",")
        assert rnd == "r1"
        assert float(value) == report1.alternatives[label].gross_estimation


def test_human_report_shows_ranking_and_values(report1):
    text = emit_report(report1, "human").decode("utf-8")
    assert text.startswith("Round r1\n")
    assert " > ".join(report1.ranking) in text
    best = report1.ranking[0]
    ge = report1.alternatives[best].gross_estimation
    assert f"{best}  {ge:.4f}" in text


def test_json_report_matches_dict_form(report1):
    doc = json.loads(emit_report(report1, "json").decode("utf-8"))
    assert doc == report_to_dict(report1)


def test_csv_report_is_the_trace(report1):
    assert emit_report(report1, "csv") == emit_trace([report1])


def test_unknown_report_format_rejected(report1):
    with pytest.raises(DomainError, match="format"):
        emit_report(report1, "xml")
