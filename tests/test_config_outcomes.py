"""compare_configs ranks each configuration from the round arrays.

It builds no report: each outcome comes from its config's gross
estimations, which must have the bits evaluate_round gives under that
config alone. float.hex tells -0.0 from 0.0, which == cannot.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import FIXTURES
from panelrank import compare_configs, evaluate_round, parse_judgments, pipeline
from strategies import random_round
from test_shared_stages import CONFIGS, ROUNDS

FIXTURE_ROUNDS = [
    r
    for name in ("supplier_rounds.json", "round1.json")
    for r in parse_judgments((FIXTURES / name).read_bytes())
]
# the shapes of the criteria-sweep and expert-panel bench workloads
BIT_ROUNDS = ROUNDS + [
    random_round(np.random.default_rng(1), *shape, label="x".join(map(str, shape)))
    for shape in ((3, 4, 40), (6, 30, 6))
]


def _hexes(ge: dict[str, float]) -> list[tuple[str, str]]:
    return [(label, value.hex()) for label, value in ge.items()]


def _fields(outcome):
    ge = _hexes(outcome.gross_estimation)
    return outcome.config, outcome.ranking, ge, outcome.matches_reference


@pytest.mark.parametrize("round_input", BIT_ROUNDS, ids=lambda r: r.round_label)
def test_outcome_estimations_have_the_bits_of_separate_evaluations(round_input):
    for outcome in compare_configs(round_input, CONFIGS):
        report = evaluate_round(round_input, outcome.config)
        alone = {label: alt.gross_estimation for label, alt in report.alternatives.items()}
        assert _hexes(outcome.gross_estimation) == _hexes(alone)
        assert outcome.ranking == report.ranking


def test_compare_configs_builds_no_report(monkeypatch):
    references = [evaluate_round(r).ranking for r in FIXTURE_ROUNDS]
    expected = [
        list(map(_fields, compare_configs(r, CONFIGS, reference)))
        for r, reference in zip(FIXTURE_ROUNDS, references)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a report was built")

    monkeypatch.setattr(pipeline, "AlternativeReport", refuse)
    monkeypatch.setattr(pipeline, "RoundReport", refuse)
    for r, reference, before in zip(FIXTURE_ROUNDS, references, expected):
        assert list(map(_fields, compare_configs(r, CONFIGS, reference))) == before
    # the patch took: the report path does reach the stand-ins
    with pytest.raises(AssertionError, match="a report was built"):
        evaluate_round(FIXTURE_ROUNDS[0])
