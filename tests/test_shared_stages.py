"""compare_configs shares stages across configurations without changing a value.

Each stage runs once per distinct value of the config fields it reads, so
every config's outcome must equal what evaluate_round gives for that config
alone, and must not depend on which other configs share the call. The
configs here vary every field, so each memo key takes several values; a
tie_epsilon of 1e-3 changes no weight on these rounds, 0.05 changes many.
Comparisons are exact (==): sharing drops repeated calls and changes no
arithmetic.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import FIXTURES
from panelrank import (
    DpSource,
    compare_configs,
    config_grid,
    emit_trace,
    evaluate_round,
    ge_ties,
    parse_judgments,
)
from panelrank.pipeline import _evaluate_configs
from oracles.chain import GroupAssessment, combine, dp_values, support_values, to_z
from strategies import panels_of, random_round

CONFIGS = tuple(
    replace(c, credibility_floor=floor, tie_epsilon=eps)
    for c in config_grid()
    for floor in (0.001, 1.0)
    for eps in (1e-12, 1e-3, 0.05)
)


def _battery():
    rng = np.random.default_rng(2024)
    shapes = [(2, 2, 2), (3, 3, 4), (2, 5, 6), (4, 4, 8), (3, 6, 3), (2, 3, 12)]
    return [random_round(rng, *shape, label=f"s{k}") for k, shape in enumerate(shapes)]


ROUNDS = [
    r
    for name in ("supplier_rounds.json", "round1.json")
    for r in parse_judgments((FIXTURES / name).read_bytes())
] + _battery()


def test_battery_takes_the_degenerate_paths():
    reports = [evaluate_round(r) for r in _battery()]
    notes = [note for report in reports for note in report.degeneracies]
    assert any("identical-judgment" in note for note in notes)
    assert any("all-tie" in note for note in notes)


@pytest.mark.parametrize("round_input", ROUNDS, ids=lambda r: r.round_label)
def test_shared_outcomes_equal_separate_evaluations(round_input):
    alone = {config: evaluate_round(round_input, config) for config in CONFIGS}
    for outcome in compare_configs(round_input, CONFIGS):
        report = alone[outcome.config]
        assert outcome.ranking == report.ranking
        assert ge_ties(outcome.gross_estimation) == report.ties
        assert outcome.gross_estimation == {
            label: alt.gross_estimation for label, alt in report.alternatives.items()
        }
    # every intermediate value, through the shared path's full reports
    for report in _evaluate_configs(round_input, CONFIGS):
        assert emit_trace([report]) == emit_trace([alone[report.config]])


@pytest.mark.parametrize("round_input", ROUNDS, ids=lambda r: r.round_label)
def test_an_outcome_does_not_depend_on_the_configs_beside_it(round_input):
    first, second = CONFIGS[5], CONFIGS[18]
    lists = ([first], [first, first], [second, first, second, first], list(CONFIGS))
    seen = []
    for configs in lists:
        for outcome in compare_configs(round_input, configs):
            if outcome.config == first:
                seen.append((outcome.ranking, outcome.gross_estimation))
    assert len(seen) == 1 + 2 + 2 + 1
    assert all(s == seen[0] for s in seen)


@pytest.mark.parametrize("round_input", ROUNDS, ids=lambda r: r.round_label)
def test_pipeline_supports_equal_the_scalar_functions(round_input):
    for config in config_grid():  # both dp sources under every split
        report = evaluate_round(round_input, config)
        for label, panel in panels_of(round_input).items():
            alt = report.alternatives[label]
            rows = zip(panel.groups, alt.support, alt.series, alt.partials)
            for group, support, series, partials in rows:
                if config.dp_source is DpSource.COMBINED:
                    group = GroupAssessment(tuple(combine(to_z(i)) for i in group.items))
                expected = dp_values(group, config.split_strategy)
                assert np.array_equal(support, support_values(group, config.split_strategy))
                assert np.array_equal(series, expected.dp)
                assert np.array_equal(partials, expected.partials)
