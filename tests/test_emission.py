"""The trace and JSON writers against the per-leaf reference rendering.

The writers render whole arrays and stream one alternative at a time; the
reference in oracles/emission.py walks every leaf. Their bytes must be the
same on rounds drawn at the bench sizes, with labels that need CSV quoting
or JSON escaping, groups of identical judgments (infinite similarities) and
alternatives tied on gross estimation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelrank import (
    RoundInput,
    cli_main,
    emit_judgments,
    emit_report,
    emit_trace,
    evaluate_round,
    report_to_dict,
    write_trace,
)
from oracles import emission as oracle
from strategies import judgment_grids, random_round

# characters that CSV must quote, JSON must escape, or a template could misread
LABEL_CHARS = st.sampled_from(list(',"\n\r %{}\\-_ab1éΩ✓'))
labels = st.text(LABEL_CHARS, min_size=0, max_size=6)


@st.composite
def labelled_rounds(draw) -> RoundInput:
    """A round of 1-4 alternatives, 2-30 experts and 2-40 criteria.

    Some groups repeat one judgment on every criterion, so their
    similarities are infinite, and some alternatives copy another's
    judgments, so their gross estimations tie exactly.
    """
    a, e, m = draw(st.integers(1, 4)), draw(st.integers(2, 30)), draw(st.integers(2, 40))
    judgments = []
    for _ in range(a):
        if judgments and draw(st.booleans()):
            judgments.append(judgments[draw(st.integers(0, len(judgments) - 1))])
            continue
        rows = [[(j.mu, j.nu) for j in row] for row in draw(judgment_grids(shape=(e, m)))]
        if draw(st.booleans()):
            rows[draw(st.integers(0, e - 1))] = [rows[0][0]] * m
        judgments.append(rows)
    return RoundInput(
        round_label=draw(labels),
        criteria_labels=draw(st.lists(labels, min_size=m, max_size=m, unique=True)),
        expert_labels=draw(st.lists(labels, min_size=e, max_size=e, unique=True)),
        alternatives=draw(st.lists(labels, min_size=a, max_size=a, unique=True)),
        judgments=judgments,
    )


def _cli_json(rounds) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rounds.json"
        path.write_bytes(emit_judgments(rounds))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["evaluate", str(path), "--format", "json"]) == 0
    return out.getvalue().encode("utf-8")


@settings(max_examples=12)
@given(labelled_rounds())
def test_writers_match_the_reference_rendering(round_input):
    report = evaluate_round(round_input)
    assert emit_trace([report]) == oracle.trace_bytes([report])
    doc = oracle.report_dict(report)
    assert report_to_dict(report) == doc
    assert emit_report(report, "json") == oracle.json_bytes(doc)

    again = dataclasses.replace(round_input, round_label=round_input.round_label + "'")
    rounds = [round_input, again]
    assert emit_judgments(rounds) == oracle.json_bytes(oracle.judgments_dict(rounds))
    reports = [report, evaluate_round(again)]
    assert _cli_json(rounds) == oracle.json_bytes([oracle.report_dict(r) for r in reports])


def test_drawn_rounds_reach_infinite_similarities_and_ties():
    # the cases the parity test is drawn to cover, on one hand-made round
    flat = [[(0.3, 0.3)] * 3, [(0.6, 0.1), (0.2, 0.5), (0.4, 0.4)]]
    report = evaluate_round(
        RoundInput("r,1", ("x,1", 'x"2', "x\n3"), ("É 1", "E\r2"), ("A", "B"), [flat, flat])
    )
    assert np.isinf(report.alternatives["A"].similarities).any()
    assert report.ties == ("A", "B")
    assert emit_trace([report]) == oracle.trace_bytes([report])
    assert emit_report(report, "json") == oracle.json_bytes(oracle.report_dict(report))


def _patched(report, field: str, value: float):
    alt = report.alternatives["A"]
    if field == "gross_estimation":
        changed = dataclasses.replace(alt, gross_estimation=value)
    else:
        array = getattr(alt, field).copy()
        array.flat[-1] = value
        changed = dataclasses.replace(alt, **{field: array})
    return dataclasses.replace(report, alternatives={**report.alternatives, "A": changed})


@pytest.mark.parametrize(
    "field, value",
    [
        ("dslf", np.nan),
        ("distances", np.nan),
        ("z", np.nan),
        ("similarities", np.nan),
        ("owa", np.inf),
        ("support", -np.inf),
        ("gross_estimation", np.nan),
    ],
)
def test_a_non_finite_value_fails_as_json_dumps_does(field, value):
    rows = [[(0.6, 0.2), (0.3, 0.5)], [(0.5, 0.4), (0.8, 0.0)]]
    report = _patched(
        evaluate_round(RoundInput("r", ("x1", "x2"), ("E1", "E2"), ("A",), [rows])), field, value
    )
    with pytest.raises(ValueError) as expected:
        oracle.json_bytes(oracle.report_dict(report))
    with pytest.raises(ValueError) as raised:
        emit_report(report, "json")
    assert str(raised.value) == str(expected.value)


class _ByteCounter:
    """A text sink that keeps nothing but the number of bytes written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text.encode("utf-8"))
        return len(text)


def test_trace_writer_holds_one_alternative_not_the_round():
    report = evaluate_round(random_round(np.random.default_rng(3), 8, 10, 10))
    sink = _ByteCounter()
    write_trace([report], sink)  # a first run, so caches and imports are not counted
    sink = _ByteCounter()
    tracemalloc.start()
    try:
        write_trace([report], sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size == len(emit_trace([report]))
    assert peak < sink.size / 4

