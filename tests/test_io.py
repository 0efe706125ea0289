"""Judgment file parsing, serialization round trips, and the audit trace."""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelrank import (
    DomainError,
    EvaluationConfig,
    PanelRankError,
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
from oracles.chain import (
    IFN,
    AttitudeVector,
    CredibilityVector,
    GroupAssessment,
    InfoVolumeVector,
    Panel,
)
from strategies import round_of_panels


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
    assert parsed.judgments.shape == (1, 2, 2, 2)
    assert parsed.judgments[0, 0, 0, 0] == 0.6


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


def test_parse_requires_two_criteria():
    doc = json.loads(_doc())
    doc["rounds"][0]["criteria_labels"] = ["x1"]
    doc["rounds"][0]["alternatives"]["A"] = [[[0.6, 0.2]], [[0.5, 0.4]]]
    with pytest.raises(SchemaError, match=r"two criteria \(at rounds\[0\]\)"):
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


_IN_B = "rounds[0].alternatives.B"
_NOT_A_NUMBER = (SchemaError, f"{_IN_B}, E2, x1", "expected a number")
_NOT_A_PAIR = (
    SchemaError,
    f"{_IN_B}, E2, x1",
    "judgment must be a [membership, non-membership] pair",
)
_BAD_ROW = (SchemaError, f"{_IN_B}, E2", "expected one judgment per criterion (2)")


def _set_leaf(value):
    def edit(alternatives):
        alternatives["B"][1][0][1] = value

    return edit


def _set_pair(value):
    def edit(alternatives):
        alternatives["B"][1][0] = value

    return edit


def _set_row(value):
    def edit(alternatives):
        alternatives["B"][1] = value

    return edit


def _drop_expert_row(alternatives):
    del alternatives["B"][1]


def _domain_fault_before_type_fault(alternatives):
    alternatives["A"][1][1] = [0.7, 0.4]
    alternatives["B"][0][0] = [True, 0.1]


@pytest.mark.parametrize(
    "edit,text,expected",
    [
        (_set_leaf(True), None, _NOT_A_NUMBER),
        (_set_leaf("0.5"), None, _NOT_A_NUMBER),
        (_set_leaf(None), None, _NOT_A_NUMBER),
        (
            _set_leaf(0.123),
            ("0.123", "NaN"),
            (DomainError, f"{_IN_B}, E2, x1", "IFN components must be finite, got (0.5, nan)"),
        ),
        (
            _set_leaf(-0.1),
            None,
            (DomainError, f"{_IN_B}, E2, x1", "IFN components must lie in [0, 1], got (0.5, -0.1)"),
        ),
        (
            _set_leaf(1.2),
            None,
            (DomainError, f"{_IN_B}, E2, x1", "IFN components must lie in [0, 1], got (0.5, 1.2)"),
        ),
        (
            _set_pair([0.7, 0.4]),
            None,
            (DomainError, f"{_IN_B}, E2, x1", "membership and non-membership sum to 1.1 > 1"),
        ),
        (_set_pair([0.5]), None, _NOT_A_PAIR),
        (_set_pair([0.1, 0.2, 0.3]), None, _NOT_A_PAIR),
        (_set_pair(0.5), None, _NOT_A_PAIR),
        (_set_row([[0.5, 0.4]]), None, _BAD_ROW),
        (_set_row([[0.5, 0.4], [0.1, 0.1], [0.1, 0.1]]), None, _BAD_ROW),
        (_set_row(0.5), None, _BAD_ROW),
        (_drop_expert_row, None, (SchemaError, _IN_B, "expected one row per expert (2)")),
        (
            _domain_fault_before_type_fault,
            None,
            (
                DomainError,
                "rounds[0].alternatives.A, E2, x2",
                "membership and non-membership sum to 1.1 > 1",
            ),
        ),
    ],
    ids=[
        "true",
        "string",
        "null",
        "NaN",
        "negative",
        "above-one",
        "sum-above-one",
        "one-element-pair",
        "three-element-pair",
        "number-for-pair",
        "short-row",
        "long-row",
        "number-for-row",
        "missing-expert-row",
        "first-fault-in-file-order",
    ],
)
def test_parse_locates_each_bad_leaf(edit, text, expected):
    error, location, message = expected
    doc = json.loads(_doc())
    alternatives = doc["rounds"][0]["alternatives"]
    alternatives["B"] = json.loads(json.dumps(alternatives["A"]))
    edit(alternatives)
    data = json.dumps(doc)
    if text is not None:
        data = data.replace(*text)
    with pytest.raises(PanelRankError) as caught:
        parse_judgments(data)
    assert type(caught.value) is error
    assert caught.value.location == location
    assert str(caught.value) == f"{message} (at {location})"


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


def test_parse_locates_an_integer_beyond_the_float_range():
    with pytest.raises(DomainError) as caught:
        parse_judgments(_doc().replace("0.8", HUGE))
    assert caught.value.location == "rounds[0].alternatives.A, E2, x2"
    assert caught.value.reason == "number too large for a float"
    with pytest.raises(DomainError) as caught:
        config_from_dict(json.loads(f'{{"tie_epsilon": {HUGE}}}'))
    assert caught.value.location == "config"


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
        round_of_panels("flat", ("x1", "x2", "x3"), ("E1", "E2"), {"A": Panel((flat, other))})
    )
    assert math.isinf(report.alternatives["A"].similarities[0][0])
    text = emit_report(report, "json").decode("utf-8")
    doc = json.loads(text, parse_constant=lambda token: pytest.fail(f"emitted {token}"))
    assert doc["alternatives"]["A"]["similarities"][0] == ["inf", "inf", "inf"]
    rebuilt = report_from_dict(doc)
    assert math.isinf(rebuilt.alternatives["A"].similarities[0][0])
    assert report_to_dict(rebuilt) == doc


def test_report_from_dict_recomputes_derived_fields(report1):
    doc = report_to_dict(report1)
    rebuilt = report_from_dict(doc)
    for alt in rebuilt.alternatives.values():
        assert np.array_equal(alt.info_modified, np.exp(alt.info_volume))
        assert not alt.info_modified.flags.writeable
        assert np.array_equal(alt.partials, np.cumprod(alt.series, axis=1))
        assert not alt.partials.flags.writeable
    # the derived keys are written but never read back
    stripped = json.loads(json.dumps(doc))
    for alt in stripped["alternatives"].values():
        del alt["info_volume"]["modified"]
        for series in alt["series"]:
            del series["partials"]
    assert report_to_dict(report_from_dict(stripped)) == doc


def test_report_from_dict_checks_shapes_against_the_labels(report1):
    doc = json.loads(json.dumps(report_to_dict(report1)))
    weights = doc["alternatives"]["Supplier_2"]["weights"]
    weights[1]["values"] = weights[1]["values"][:-1]
    with pytest.raises(SchemaError) as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.weights"

    doc = json.loads(json.dumps(report_to_dict(report1)))
    doc["alternatives"]["Supplier_1"]["dslf"].append(0.5)
    with pytest.raises(SchemaError, match=r"expected shape \(3,\), got \(4,\)"):
        report_from_dict(doc)


@pytest.mark.parametrize("labels", ["expert_labels", "criteria_labels"])
def test_report_from_dict_locates_a_shape_against_empty_labels(report1, labels):
    # an empty label list sizes its axes at zero; it is no axis without a size
    doc = json.loads(json.dumps(report_to_dict(report1)))
    doc[labels] = []
    with pytest.raises(SchemaError, match=r"expected shape \(") as caught:
        report_from_dict(doc)
    assert caught.value.location == f"alternatives.{next(iter(report1.alternatives))}.z"


def _alternative_doc(report1, label="Supplier_2"):
    doc = json.loads(json.dumps(report_to_dict(report1)))
    return doc, doc["alternatives"][label]


def test_report_from_dict_locates_a_missing_key(report1):
    doc, alt = _alternative_doc(report1)
    del alt["owa"]
    with pytest.raises(SchemaError, match="missing required key 'owa'") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.owa"

    doc, alt = _alternative_doc(report1)
    del alt["info_volume"]["raw"]
    with pytest.raises(SchemaError, match="missing required key 'raw'") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.info_volume"

    doc = json.loads(json.dumps(report_to_dict(report1)))
    del doc["ranking"]
    with pytest.raises(SchemaError, match="missing required key 'ranking'"):
        report_from_dict(doc)


def test_report_from_dict_locates_a_weights_entry_that_is_not_an_object(report1):
    doc, alt = _alternative_doc(report1)
    alt["weights"][1] = [0.5, 0.5]
    with pytest.raises(SchemaError, match="expected an object") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.weights"


def test_report_from_dict_locates_a_series_entry_that_is_not_an_object(report1):
    doc, alt = _alternative_doc(report1)
    alt["series"][0] = 0.5
    with pytest.raises(SchemaError, match="expected an object") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.series"
    doc, alt = _alternative_doc(report1)
    alt["owa"][0][0] += 0.25
    with pytest.raises(DomainError, match="OWA weights must sum to 1") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.owa"
    doc, alt = _alternative_doc(report1)
    alt["sharpness"][1] = -1.0
    with pytest.raises(DomainError, match="sharpness must be a positive real") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.sharpness"


@pytest.mark.parametrize(
    "field, index, value, needle",
    [
        ("z", (1, 2, 0), 1.5, "IFN components must lie in"),
        ("z", (1, 2, 1), float("nan"), "IFN components must be finite"),
        ("z", (1, 2, 2), -0.25, "reliability must lie in"),
        ("combined", (1, 2, 1), 0.95, "sum to"),
    ],
)
def test_report_from_dict_locates_an_invalid_judgment(report1, field, index, value, needle):
    doc, alt = _alternative_doc(report1)
    e, i, k = index
    alt[field][e][i][k] = value
    with pytest.raises(DomainError, match=needle) as caught:
        report_from_dict(doc)
    assert caught.value.location == "Supplier_2, Expert_2, x3"


def test_report_from_dict_checks_each_group_as_its_type_does(report1):
    doc, alt = _alternative_doc(report1)
    alt["weights"][2]["values"][0] += 0.25
    with pytest.raises(DomainError) as caught:
        report_from_dict(doc)
    assert caught.value.reason == "weights must sum to 1, got 1.25"
    assert caught.value.location == "alternatives.Supplier_2.weights"
    doc, alt = _alternative_doc(report1)
    alt["distances"][0][0][1] = 0.5
    with pytest.raises(DomainError, match="symmetric") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.distances"
    doc, alt = _alternative_doc(report1)
    alt["series"][1]["dp"].reverse()
    with pytest.raises(DomainError, match="sorted descending") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.series"
    doc, alt = _alternative_doc(report1)
    alt["owa"][0][0] += 0.25
    with pytest.raises(DomainError, match="OWA weights must sum to 1") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.owa"
    doc, alt = _alternative_doc(report1)
    alt["sharpness"][1] = -1.0
    with pytest.raises(DomainError, match="sharpness must be a positive real") as caught:
        report_from_dict(doc)
    assert caught.value.location == "alternatives.Supplier_2.sharpness"


_SHARE_TYPES = {
    "credibility": lambda alt: CredibilityVector(alt["credibility"]),
    "info_volume": lambda alt: InfoVolumeVector(
        alt["info_volume"]["raw"], alt["info_volume"]["normalized"]
    ),
    "attitude": lambda alt: AttitudeVector(alt["attitude"]),
}


def _credibility_sums_to_0_9(alt):
    alt["credibility"] = [v * 0.9 for v in alt["credibility"]]


def _attitude_holds_1(alt):
    alt["attitude"][0] = 1.0


def _info_share_holds_0(alt):
    alt["info_volume"]["normalized"][0] = 0.0


@pytest.mark.parametrize(
    "edit, key",
    [
        (_credibility_sums_to_0_9, "credibility"),
        (_attitude_holds_1, "attitude"),
        (_info_share_holds_0, "info_volume"),
    ],
)
def test_report_from_dict_locates_shares_their_types_reject(report1, edit, key):
    doc, alt = _alternative_doc(report1)
    edit(alt)
    with pytest.raises(DomainError) as expected:
        _SHARE_TYPES[key](alt)
    with pytest.raises(DomainError) as caught:
        report_from_dict(doc)
    assert caught.value.reason == expected.value.reason
    assert caught.value.location == f"alternatives.Supplier_2.{key}"


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
    mu, nu, rel = alt.z[0, 0]
    z_value = by_key[("Supplier_1", "z", "Expert_1", "x1")]
    match = re.fullmatch(r"\(\(([^,]+),([^)]+)\),([^)]+)\)", z_value)
    assert match
    assert float(match.group(1)) == mu
    assert float(match.group(2)) == nu
    assert float(match.group(3)) == rel

    combined = by_key[("Supplier_1", "combined", "Expert_1", "x1")]
    match = re.fullmatch(r"\(([^,]+),([^)]+)\)", combined)
    assert match
    assert float(match.group(1)) == alt.combined[0, 0, 0]

    # distances key the unordered pair once, low index first
    assert ("Supplier_1", "distance", "Expert_1", "x1-x2") in by_key
    assert ("Supplier_1", "distance", "Expert_1", "x2-x1") not in by_key
    assert float(by_key[("Supplier_1", "distance", "Expert_1", "x1-x2")]) == (
        alt.distances[0, 0, 1]
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
        alt.owa[0, 2]
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
        round_of_panels(
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


def test_labels_with_carriage_returns_round_trip():
    # csv.reader ends a line at a bare "\r", so such labels must be quoted
    round_input = RoundInput(
        "r\r1",
        ("x1", "x\r2"),
        ("E\r1", "E2"),
        ("A", "B\r"),
        [[[(0.5, 0.2), (0.3, 0.3)], [(0.4, 0.4), (0.2, 0.6)]]] * 2,
    )
    report = evaluate_round(round_input)
    records = read_trace(emit_trace([report]))
    assert records == trace_records(report)
    assert {r.round for r in records} == {"r\r1"}
    assert {r.alternative for r in records} == {"A", "B\r"}
    assert {"x1", "x\r2", "x1-x\r2"} <= {r.criterion for r in records}
    assert {"E\r1", "E2", "E\r1-E2", "E2-E\r1"} <= {r.expert for r in records}


def test_read_trace_diagnoses_bad_input():
    with pytest.raises(ParseError, match="empty"):
        read_trace("")
    with pytest.raises(ParseError, match="header"):
        read_trace("a,b,c\n")
    header = ",".join(TRACE_HEADER)
    with pytest.raises(ParseError, match="line 2"):
        read_trace(header + "\na,b,c\n")
    with pytest.raises(ParseError, match="not valid UTF-8"):
        read_trace(b"\xff\xfe")


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


def test_plot_data_reads_back_labels_with_carriage_returns():
    # csv.reader ends a line at a bare "\r", so such labels must be quoted
    round_input = RoundInput(
        "r\r1",
        ("x1", "x2"),
        ("E1", "E2"),
        ("A", "B\r"),
        [[[(0.5, 0.2), (0.3, 0.3)], [(0.4, 0.4), (0.2, 0.6)]]] * 2,
    )
    report = evaluate_round(round_input)
    text = plot_data([report]).decode("utf-8")
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        ["round", "alternative", "gross_estimation"],
        *(["r\r1", a, fnum(report.alternatives[a].gross_estimation)] for a in ("A", "B\r")),
    ]


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
