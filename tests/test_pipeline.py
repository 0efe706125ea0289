"""End-to-end round evaluation: reports, configs, invariances, dominance."""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from panelrank import (
    IFN,
    DomainError,
    DpSource,
    EvaluationConfig,
    GroupAssessment,
    LengthMismatchError,
    Panel,
    RoundFailure,
    RoundInput,
    RoundReport,
    SplitStrategy,
    compare_configs,
    config_from_dict,
    config_grid,
    evaluate_all,
    evaluate_round,
    reference_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _group(pairs, labels):
    return GroupAssessment(tuple(IFN(mu, nu) for mu, nu in pairs), labels)


def _round(alternatives, criteria=("x1", "x2"), experts=("E1", "E2")):
    return RoundInput(
        round_label="t",
        criteria_labels=criteria,
        expert_labels=experts,
        alternatives={
            label: Panel(tuple(_group(row, criteria[: len(row)]) for row in rows))
            for label, rows in alternatives.items()
        },
    )


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_are_the_reference_config():
    config = EvaluationConfig()
    assert config == reference_config()
    assert config.split_strategy is SplitStrategy.EQUAL
    assert config.dp_source is DpSource.ORIGINAL
    assert config.credibility_floor == 1.0
    assert config.tie_epsilon == 1e-12


def test_config_file_matches_reference_config():
    doc = json.loads((CONFIGS / "reference.json").read_text())
    assert config_from_dict(doc) == reference_config()


def test_config_validation():
    with pytest.raises(DomainError):
        EvaluationConfig(split_strategy="equal")
    with pytest.raises(DomainError):
        EvaluationConfig(dp_source="original")
    with pytest.raises(DomainError):
        EvaluationConfig(credibility_floor=-0.5)
    with pytest.raises(DomainError):
        EvaluationConfig(tie_epsilon=0.0)


def test_config_grid_enumerates_splits_times_sources():
    grid = config_grid()
    assert len(grid) == 6
    assert grid[0] == EvaluationConfig(
        split_strategy=SplitStrategy.EQUAL, dp_source=DpSource.ORIGINAL
    )
    seen = [(c.split_strategy, c.dp_source) for c in grid]
    assert seen == [
        (s, d) for s in SplitStrategy for d in DpSource
    ]


# ---------------------------------------------------------------------------
# round input validation


def test_round_input_rejects_duplicate_labels():
    rows = {"A": [[(0.5, 0.2), (0.3, 0.3)], [(0.4, 0.4), (0.2, 0.6)]]}
    with pytest.raises(DomainError):
        _round(rows, criteria=("x1", "x1"))
    with pytest.raises(DomainError):
        _round(rows, experts=("E1", "E1"))


def test_round_input_rejects_empty_alternatives():
    with pytest.raises(DomainError):
        _round({})


def test_round_input_rejects_shape_mismatches():
    with pytest.raises(LengthMismatchError):
        _round(
            {"A": [[(0.5, 0.2), (0.3, 0.3)], [(0.4, 0.4), (0.2, 0.6)]]},
            experts=("E1", "E2", "E3"),
        )
    with pytest.raises(LengthMismatchError):
        _round(
            {"A": [[(0.5, 0.2)], [(0.4, 0.4)]]},
            criteria=("x1", "x2"),
        )


# ---------------------------------------------------------------------------
# fixture rounds


def test_round_one_ranking_matches_reference(report1, outcomes):
    assert list(report1.ranking) == outcomes["rankings"]["r1"]
    assert report1.ties == ()
    assert report1.degeneracies == ()


def test_round_three_ranking_matches_reference(rounds, outcomes):
    r3 = next(r for r in rounds if r.round_label == "r3")
    report = evaluate_round(r3)
    assert list(report.ranking) == outcomes["rankings"]["r3"]


def test_report_shapes(report1, round1):
    e = len(round1.expert_labels)
    m = len(round1.criteria_labels)
    assert set(report1.alternatives) == set(round1.alternatives)
    for alt in report1.alternatives.values():
        assert len(alt.z_table) == e and len(alt.z_table[0]) == m
        assert len(alt.combined) == e and len(alt.combined[0]) == m
        assert all(d.values.shape == (m, m) for d in alt.distances)
        assert alt.group_distances.shape == (e, e)
        assert np.all(np.diag(alt.group_distances) == 0.0)
        assert len(alt.divergence) == e
        assert alt.credibility.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert alt.attitude.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert all(len(w) == m for w in alt.owa)
        assert all(len(s) == m for s in alt.series)
        assert len(alt.dslf) == e
        assert np.isfinite(alt.gross_estimation)


def test_evaluation_is_deterministic(round1, report1):
    again = evaluate_round(round1)
    assert again.ranking == report1.ranking
    for label, alt in report1.alternatives.items():
        assert again.alternatives[label].gross_estimation == alt.gross_estimation


def test_expert_permutation_equivariance(round1, report1):
    permuted = RoundInput(
        round_label=round1.round_label,
        criteria_labels=round1.criteria_labels,
        expert_labels=tuple(reversed(round1.expert_labels)),
        alternatives={
            label: Panel(tuple(reversed(panel.groups)))
            for label, panel in round1.alternatives.items()
        },
    )
    report = evaluate_round(permuted)
    assert report.ranking == report1.ranking
    for label, alt in report1.alternatives.items():
        other = report.alternatives[label]
        assert other.gross_estimation == pytest.approx(
            alt.gross_estimation, rel=1e-9
        )
        assert other.attitude.values == pytest.approx(
            alt.attitude.values[::-1], rel=1e-9
        )


def test_alternative_order_and_labels_do_not_matter(round1, report1):
    reordered = RoundInput(
        round_label=round1.round_label,
        criteria_labels=round1.criteria_labels,
        expert_labels=round1.expert_labels,
        alternatives=dict(reversed(list(round1.alternatives.items()))),
    )
    report = evaluate_round(reordered)
    assert report.ranking == report1.ranking
    for label, alt in report1.alternatives.items():
        assert report.alternatives[label].gross_estimation == alt.gross_estimation


# ---------------------------------------------------------------------------
# degeneracies and ties


def test_identical_judgments_fall_back_to_uniform_weights():
    report = evaluate_round(
        _round(
            {
                "A": [
                    [(0.0, 0.0), (0.0, 0.0)],
                    [(0.5, 0.2), (0.3, 0.3)],
                ]
            }
        )
    )
    alt = report.alternatives["A"]
    assert alt.weights[0].degenerate
    assert alt.points[0].tolist() == [0, 0]
    assert np.all(np.isinf(alt.similarities[0]))
    assert any("uniform weights" in note for note in report.degeneracies)


def test_identical_alternatives_tie_and_rank_lexicographically():
    rows = [[(0.5, 0.2), (0.3, 0.3)], [(0.4, 0.4), (0.2, 0.6)]]
    report = evaluate_round(_round({"B": rows, "A": rows}))
    assert report.ranking == ("A", "B")
    assert report.ties == ("A", "B")


def test_evaluate_all_isolates_failing_rounds(rounds):
    lonely = RoundInput(
        round_label="solo",
        criteria_labels=("x1",),
        expert_labels=("E1", "E2"),
        alternatives={
            "A": Panel(
                (
                    _group([(0.5, 0.2)], ("x1",)),
                    _group([(0.4, 0.4)], ("x1",)),
                )
            )
        },
    )
    results = evaluate_all([rounds[0], lonely])
    assert isinstance(results[0], RoundReport)
    assert isinstance(results[1], RoundFailure)
    assert results[1].round_label == "solo"
    assert "two judgments" in results[1].error
    assert results[1].error_type == "DomainError"


# ---------------------------------------------------------------------------
# config comparison


def test_compare_configs_flags_reference_matches(round1, outcomes):
    reference = outcomes["rankings"]["r1"]
    outcomes_grid = compare_configs(round1, config_grid(), reference)
    assert len(outcomes_grid) == 6
    assert outcomes_grid[0].matches_reference is True
    assert outcomes_grid[0].ranking == tuple(reference)
    assert all(set(o.gross_estimation) == set(round1.alternatives) for o in outcomes_grid)


def test_compare_configs_without_reference_leaves_flag_unset(round1):
    outcome = compare_configs(round1, [reference_config()])[0]
    assert outcome.matches_reference is None


def test_compare_configs_requires_configurations(round1):
    with pytest.raises(DomainError):
        compare_configs(round1, [])


# ---------------------------------------------------------------------------
# dominance

# One panel built to dominate another judgment by judgment must never rank
# below it: B's supports are A's shifted down uniformly, everything else equal.


def _dominated_pair(rng, margin):
    while True:
        groups_a = []
        for _ in range(3):
            row = []
            for _ in range(5):
                nu = rng.uniform(0.0, 0.35)
                mu = rng.uniform(nu + margin + 0.05, min(1.0 - nu, nu + 0.6))
                row.append((round(mu, 3), round(nu, 3)))
            groups_a.append(row)
        d = rng.uniform(0.01, margin)
        groups_b = [
            [(round(mu - d, 3), round(nu + d, 3)) for mu, nu in g] for g in groups_a
        ]
        ok = all(
            0 <= m <= 1 and 0 <= n <= 1 and m + n <= 1 and m - n >= 0
            for g in groups_b
            for m, n in g
        )
        distinct = all(
            len(set(g)) == len(g) for gs in (groups_a, groups_b) for g in gs
        )
        if ok and distinct:
            return groups_a, groups_b


@pytest.mark.parametrize("margin", [0.05, 0.1, 0.2])
def test_uniformly_dominated_panels_never_win(margin):
    rng = random.Random(int(margin * 1000))
    criteria = ("x1", "x2", "x3", "x4", "x5")
    experts = ("E1", "E2", "E3")
    for _ in range(40):
        rows_a, rows_b = _dominated_pair(rng, margin)
        report = evaluate_round(
            _round({"A": rows_a, "B": rows_b}, criteria=criteria, experts=experts)
        )
        ge = {k: v.gross_estimation for k, v in report.alternatives.items()}
        assert ge["A"] > ge["B"], (rows_a, rows_b)
        assert report.ranking == ("A", "B")
