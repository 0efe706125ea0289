"""End-to-end round evaluation: reports, configs, invariances, dominance."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from panelrank import (
    DomainError,
    DpSource,
    EvaluationConfig,
    LengthMismatchError,
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
    write_json,
    write_trace,
)
from panelrank import pipeline
from oracles.chain import IFN, AttitudeVector, CredibilityVector, InfoVolumeVector
from strategies import random_round

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _round(alternatives, criteria=("x1", "x2"), experts=("E1", "E2")):
    return RoundInput(
        round_label="t",
        criteria_labels=criteria,
        expert_labels=experts,
        alternatives=tuple(alternatives),
        judgments=list(alternatives.values()),
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


def test_round_input_rejects_a_single_criterion():
    with pytest.raises(DomainError, match="two or more"):
        _round({"A": [[(0.5, 0.2)], [(0.4, 0.4)]]}, criteria=("x1",))


def test_round_input_rejects_empty_alternatives():
    with pytest.raises(DomainError):
        _round({})


def test_round_input_locates_the_first_invalid_judgment():
    rows = {
        "A": [[(0.5, 0.2), (0.3, 0.3)], [(0.4, 0.4), (0.2, 0.6)]],
        "B": [[(0.5, 0.2), (0.7, 0.4)], [(0.4, 0.4), (math.nan, 0.6)]],
    }
    with pytest.raises(DomainError) as caught:
        _round(rows)
    assert caught.value.location == "B, E1, x2"
    with pytest.raises(DomainError) as scalar:
        IFN(0.7, 0.4)
    assert caught.value.reason == str(scalar.value)


def test_round_input_holds_a_read_only_copy():
    rows = [[(0.5, 0.2), (0.3, 0.3)], [(0.4, 0.4), (0.2, 0.6)]]
    array = np.array([rows])
    round_input = RoundInput("t", ("x1", "x2"), ("E1", "E2"), ("A",), array)
    array[0, 0, 0, 1] = 0.1
    assert round_input.judgments[0, 0, 0].tolist() == [0.5, 0.2]
    assert not round_input.judgments.flags.writeable
    assert np.shares_memory(round_input.mu, round_input.judgments)
    assert round_input.nu.tolist() == [[[0.2, 0.3], [0.4, 0.6]]]
    assert round_input == _round({"A": rows}) != _round({"B": rows})


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
        assert alt.z.shape == (e, m, 3)
        assert alt.combined.shape == (e, m, 2)
        assert alt.distances.shape == (e, m, m)
        for table in (alt.similarities, alt.points, alt.weights, alt.owa, alt.support, alt.series):
            assert table.shape == (e, m) and not table.flags.writeable
        assert alt.degenerate.shape == alt.sharpness.shape == (e,)
        assert alt.group_distances.shape == (e, e)
        assert np.all(np.diag(alt.group_distances) == 0.0)
        assert len(alt.divergence) == e
        assert alt.credibility.sum() == pytest.approx(1.0, abs=1e-9)
        assert alt.attitude.sum() == pytest.approx(1.0, abs=1e-9)
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
        alternatives=round1.alternatives,
        judgments=round1.judgments[:, ::-1],
    )
    report = evaluate_round(permuted)
    assert report.ranking == report1.ranking
    for label, alt in report1.alternatives.items():
        other = report.alternatives[label]
        assert other.gross_estimation == pytest.approx(
            alt.gross_estimation, rel=1e-9
        )
        assert other.attitude == pytest.approx(
            alt.attitude[::-1], rel=1e-9
        )


def _permute_criteria(round_input, order):
    return RoundInput(
        round_label=round_input.round_label,
        criteria_labels=tuple(round_input.criteria_labels[i] for i in order),
        expert_labels=round_input.expert_labels,
        alternatives=round_input.alternatives,
        judgments=round_input.judgments[:, :, order],
    )


def test_criterion_permutation_invariance(rounds):
    rng = np.random.default_rng(8)
    battery = list(rounds) + [random_round(rng, 4, 5, 8, label=f"s{k}") for k in range(5)]
    for round_input in battery:
        order = rng.permutation(len(round_input.criteria_labels))
        shuffled = _permute_criteria(round_input, order)
        for config in config_grid():
            report = evaluate_round(round_input, config)
            other = evaluate_round(shuffled, config)
            assert other.ranking == report.ranking, (round_input.round_label, config)
            for label, alt in report.alternatives.items():
                assert other.alternatives[label].gross_estimation == pytest.approx(
                    alt.gross_estimation, rel=1e-12
                )


def test_alternative_order_and_labels_do_not_matter(round1, report1):
    reordered = RoundInput(
        round_label=round1.round_label,
        criteria_labels=round1.criteria_labels,
        expert_labels=round1.expert_labels,
        alternatives=round1.alternatives[::-1],
        judgments=round1.judgments[::-1],
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
    assert alt.degenerate[0]
    assert alt.points[0].tolist() == [0, 0]
    assert np.all(np.isinf(alt.similarities[0]))
    assert any("uniform weights" in note for note in report.degeneracies)


def test_identical_alternatives_tie_and_rank_lexicographically():
    rows = [[(0.5, 0.2), (0.3, 0.3)], [(0.4, 0.4), (0.2, 0.6)]]
    report = evaluate_round(_round({"B": rows, "A": rows}))
    assert report.ranking == ("A", "B")
    assert report.ties == ("A", "B")


def test_evaluate_all_isolates_failing_rounds(rounds):
    # E1's information volume, 471 log2(3) ~ 746.5, leaves E2 a share that
    # underflows to 0
    results = evaluate_all([rounds[0], _lopsided_round(471)])
    assert isinstance(results[0], RoundReport)
    assert isinstance(results[1], RoundFailure)
    assert results[1].round_label == "t"
    assert results[1].error.startswith("information shares must be positive, got 0.0")
    assert "(at A/E2)" in results[1].error
    assert results[1].error_type == "DomainError"


def _lopsided_round(criteria, crisp=None):
    # E1 gives (0, 0) on every criterion, E2 (1, 0) on the first crisp and
    # (0, 0) on the rest: E1 holds all the information volume, log2(3) bits
    # a criterion against none on each of E2's crisp criteria
    crisp = criteria if crisp is None else crisp
    labels = tuple(f"x{i}" for i in range(criteria))
    e2 = [(1.0, 0.0)] * crisp + [(0.0, 0.0)] * (criteria - crisp)
    return _round({"A": [[(0.0, 0.0)] * criteria, e2]}, criteria=labels)


@pytest.mark.parametrize(
    "make, where",
    [
        (lambda: random_round(np.random.default_rng(3), 3, 4, 300), "A2/E3"),
        (lambda: random_round(np.random.default_rng(1), 1, 4, 300), "A0/E0"),
        (lambda: _lopsided_round(24), "A/E1"),
        (lambda: _lopsided_round(32, crisp=24), "A/E1"),
    ],
    # the random rounds by rng seed, alternatives and location
    ids=["3-3-A2/E3", "1-1-A0/E0", "1x2x24-A/E1", "1x2x32-A/E1"],
)
def test_a_saturated_attitude_evaluates_to_the_owa_limits(make, where):
    # one expert's information-volume share rounds to 1.0, and so does its
    # attitude: at 300 criteria the smallest share is about 1e-193, and two
    # lopsided experts get there from 24 criteria. Its sharpness, taken from
    # the volumes, is near 0: all OWA weight on the best support, max dp.
    # Every other expert's is near inf: all weight on the full product
    report = evaluate_round(make())
    label, expert = where.split("/")
    alt = report.alternatives[label]
    e = report.expert_labels.index(expert)
    assert alt.attitude[e] == 1.0 and 0.0 < alt.sharpness[e] < 1e-15
    assert alt.owa[e, 0] == pytest.approx(1.0, abs=1e-15)
    assert alt.dslf[e] == pytest.approx(alt.series[e, 0], abs=1e-15)
    others = np.delete(np.arange(len(report.expert_labels)), e)
    assert (alt.sharpness[others] > 1e15).all() and (alt.owa[others, -1] == 1.0).all()
    assert alt.dslf[others].tolist() == alt.partials[others, -1].tolist()


def test_a_saturated_random_round_keeps_its_gross_estimation():
    # with the sharpness taken as (1 - alpha) / alpha, alpha = 1 gave P = 0
    # and all-zero OWA weights: a gross estimation of about 1e-29
    report = evaluate_round(random_round(np.random.default_rng(1), 1, 4, 300))
    assert report.alternatives["A0"].gross_estimation == pytest.approx(13.25, rel=1e-12)


def test_compare_configs_fails_where_evaluate_round_does(round1):
    # the credibility check runs before any outcome is made, so the first
    # config's fault surfaces as it does for that config alone
    huge = dataclasses.replace(config_grid()[0], credibility_floor=1.7e308)
    with pytest.raises(DomainError) as alone:
        evaluate_round(round1, huge)
    with pytest.raises(DomainError) as shared:
        compare_configs(round1, [huge, *config_grid()])
    assert alone.value.location == "Supplier_5"
    assert (shared.value.reason, shared.value.location) == (alone.value.reason, "Supplier_5")


def test_the_lopsided_round_evaluates_one_criterion_short_of_saturation():
    alpha = evaluate_round(_lopsided_round(23)).alternatives["A"].attitude
    assert 0.0 < alpha[1] < 1e-15 and alpha[0] < 1.0


def test_the_lopsided_round_evaluates_one_criterion_short_of_underflow():
    # at 470 criteria E2's information share is the least subnormal float;
    # at 471 it underflows, as test_evaluate_all_isolates_failing_rounds shows
    alt = evaluate_round(_lopsided_round(470)).alternatives["A"]
    assert alt.info_share[1] == 5e-324
    assert alt.sharpness.tolist() == [5e-324, math.inf]


# ---------------------------------------------------------------------------
# the per-expert shares are checked once per round


def _faulty(monkeypatch, name, fault):
    """Patch the pipeline's share function name so that fault edits the second
    alternative's row of every result."""
    real = getattr(pipeline, name)

    def patched(*args):
        out = real(*args).copy()
        fault(out[1])
        return out

    monkeypatch.setattr(pipeline, name, patched)


def _scale(row):
    row *= 0.9


@pytest.mark.parametrize(
    "name, what",
    [
        ("credibility_shares", "credibility"),
        ("info_shares", "information shares"),
        ("attitude_shares", "attitude characters"),
    ],
)
def test_a_share_row_off_its_sum_fails_at_its_alternative(monkeypatch, round1, name, what):
    _faulty(monkeypatch, name, _scale)
    with pytest.raises(DomainError, match=f"^{what} must sum to 1, got ") as caught:
        evaluate_round(round1)
    assert float(caught.value.reason.rpartition(" ")[2]) == pytest.approx(0.9)
    assert caught.value.location == round1.alternatives[1]


def _nan_at_2(row):
    row[2] = np.nan


def _above_one_at_2(row):
    row[2] = 1.5


@pytest.mark.parametrize(
    "name, fault, message, expert",
    [
        ("info_shares", _nan_at_2, "information shares must be positive", 2),
        ("credibility_shares", _above_one_at_2, r"credibility must lie in \[0, 1\], got 1.5", 2),
        # the attitude follows the credibility, and its check comes first
        ("credibility_shares", _nan_at_2, r"attitude characters must lie in \[0, 1\]", 0),
    ],
)
def test_a_share_out_of_bounds_fails_at_its_expert(
    monkeypatch, round1, name, fault, message, expert
):
    _faulty(monkeypatch, name, fault)
    with pytest.raises(DomainError, match=message) as caught:
        evaluate_round(round1)
    assert caught.value.location == f"{round1.alternatives[1]}/{round1.expert_labels[expert]}"


def test_no_per_expert_share_object_is_built(monkeypatch, rounds):
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (CredibilityVector, InfoVolumeVector, AttitudeVector):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    reports = [evaluate_round(r) for r in rounds]
    for round_input in rounds:
        compare_configs(round_input, config_grid())
    write_json(reports, io.StringIO())
    write_trace(reports, io.StringIO())


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
