"""The whole-round array pipeline against its per-group reference.

evaluate_round runs every stage after the distance kernel once over the
round's [A, E, ...] arrays. These tests hold it to three things:

- alternatives stay independent: a report equals, field by field, the one
  a round of that alternative alone gives, with degenerate groups beside
  ordinary ones, so a mask leaking across the alternative axis shows;
- every stage equals the scalar functions of the chain, each fed the
  pipeline's own inputs to it. Equality is exact where the arithmetic is
  the same; the stages whose arithmetic differs are held to stated bounds;
- memory beyond the report's arrays does not grow with the alternatives
  and stays within a fixed bound at many criteria, no per-group object is
  built, and from the file to the report no
  per-judgment object either.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelrank import (
    IFN,
    AlternativeReport,
    CriterionWeights,
    DegenerateGroupError,
    DistanceMatrix,
    DpSource,
    GroupAssessment,
    LikelihoodSeries,
    OwaWeights,
    Panel,
    PreferenceMatrix,
    RoundInput,
    Sharpness,
    attitude_characters,
    closeness_similarity,
    combine,
    compare_configs,
    config_grid,
    credibility,
    criterion_weights,
    dp_values,
    dslf,
    eifn,
    emit_judgments,
    evaluate_round,
    gross_estimation,
    group_distance,
    group_information_volume,
    modified_info_volume,
    owa_weights,
    pairwise_distances,
    parse_judgments,
    points,
    preference_matrix,
    sharpness,
    support_values,
    to_z,
)
from panelrank.core import eifn_values
from oracles.distance import ORACLE_TOL
from strategies import grid_rounds, panels_of, random_round, round_of_panels

EPS = np.finfo(float).eps

CONFIGS = config_grid() + tuple(
    dataclasses.replace(c, credibility_floor=0.01, tie_epsilon=0.05) for c in config_grid()[:2]
)


def _same(a, b) -> bool:
    """Field values equal exactly: arrays by array_equal, typed vectors by their arrays."""
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


def _mixed_round() -> RoundInput:
    """Ordinary groups beside identical-judgment and all-tie groups, in every alternative."""
    x, y, w = IFN(0.6, 0.1), IFN(0.2, 0.5), IFN(0.3, 0.3)
    identical = GroupAssessment((w,) * 4)
    all_tie = GroupAssessment((x, y, x, y))  # every row sums to 2 d(x, y)
    rng = np.random.default_rng(31)
    base = random_round(rng, 5, 4, 4)
    panels = {}
    for k, (label, panel) in enumerate(panels_of(base).items()):
        groups = list(panel.groups)
        groups[k % 4] = identical
        groups[(k + 1) % 4] = all_tie
        panels[label] = Panel(tuple(groups))
    return round_of_panels(base.round_label, base.criteria_labels, base.expert_labels, panels)


def test_alternatives_are_evaluated_independently():
    round_input = _mixed_round()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for config in CONFIGS:
            report = evaluate_round(round_input, config)
            notes = " ".join(report.degeneracies)
            assert "identical-judgment" in notes and "all-tie" in notes
            for a, label in enumerate(round_input.alternatives):
                alone = evaluate_round(
                    dataclasses.replace(
                        round_input,
                        alternatives=(label,),
                        judgments=round_input.judgments[a : a + 1],
                    ),
                    config,
                ).alternatives[label]
                alt = report.alternatives[label]
                assert alt.degenerate.sum() >= 2
                for field in dataclasses.fields(AlternativeReport):
                    assert _same(getattr(alt, field.name), getattr(alone, field.name)), (
                        label,
                        field.name,
                    )


def _group(row) -> GroupAssessment:
    return GroupAssessment(tuple(IFN(*pair) for pair in row))


def _check_alternative(panel: Panel, alt, config) -> None:
    """Every stage of one alternative against the scalar chain fed its inputs."""
    e, m = alt.weights.shape
    combined = [_group(row) for row in alt.combined.tolist()]
    for k, group in enumerate(panel.groups):
        z = [to_z(item) for item in group.items]
        assert alt.z[k].tolist() == [[i.ifn.mu, i.ifn.nu, i.reliability] for i in z]
        assert alt.combined[k].tolist() == [[c.mu, c.nu] for c in map(combine, z)]
        d = pairwise_distances(combined[k])
        assert np.array_equal(alt.distances[k], d.values)
        try:
            sm = closeness_similarity(d)
        except DegenerateGroupError:
            assert alt.degenerate[k] and np.isinf(alt.similarities[k]).any()
            assert not alt.points[k].any()
            assert np.array_equal(alt.weights[k], np.full(m, 1.0 / m))
        else:
            assert np.array_equal(alt.similarities[k], sm)
            po = points(preference_matrix(sm, config.tie_epsilon))
            assert np.array_equal(alt.points[k], po)
            weights = criterion_weights(po)
            assert np.array_equal(alt.weights[k], weights.weights)
            assert alt.degenerate[k] == weights.degenerate

        # information volume: added in criterion order, so equal wherever
        # numpy's log2 gave every judgment libm's volume; else within the bound
        volumes = eifn_values(*np.array([[i.mu, i.nu] for i in group.items]).T)
        if volumes.tolist() == [eifn(i) for i in group.items]:
            assert alt.info_volume.raw[k] == group_information_volume(group)
        np.testing.assert_allclose(
            alt.info_volume.raw[k], group_information_volume(group), rtol=4 * m * EPS, atol=0.0
        )
        source = combined[k] if config.dp_source is DpSource.COMBINED else group
        assert np.array_equal(alt.support[k], support_values(source, config.split_strategy))
        series = dp_values(source, config.split_strategy)
        assert np.array_equal(alt.series[k], series.dp)
        assert np.array_equal(alt.partials[k], series.partials)
        p = sharpness(alt.attitude.values[k])
        assert alt.sharpness[k] == p.p
        assert np.array_equal(alt.owa[k], owa_weights(m, p).w)
        assert alt.dslf[k] == dslf(series, OwaWeights(alt.owa[k]))

    # group distances and divergence: kernel against js_distance, m weighted
    # terms added in another order, as in test_distance_kernel
    weights = [CriterionWeights(w) for w in alt.weights]
    gd = np.zeros((e, e))
    for a in range(e):
        for b in range(e):
            if a != b:
                gd[a, b] = group_distance(combined[a], combined[b], weights[a])
    np.testing.assert_allclose(alt.group_distances, gd, rtol=m * EPS, atol=ORACLE_TOL)
    np.testing.assert_allclose(
        alt.divergence, gd.sum(axis=1), rtol=(m + e) * EPS, atol=e * ORACLE_TOL
    )
    assert np.array_equal(
        alt.credibility.values, credibility(alt.divergence, config.credibility_floor).values
    )
    assert np.array_equal(
        alt.info_volume.normalized, modified_info_volume(alt.info_volume.raw).normalized
    )
    assert np.array_equal(
        alt.attitude.values, attitude_characters(alt.info_volume, alt.credibility).values
    )
    assert alt.gross_estimation == gross_estimation(alt.dslf)


@settings(max_examples=30)
@given(grid_rounds(), st.sampled_from(CONFIGS))
def test_pipeline_arrays_equal_the_scalar_chain(round_input, config):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = evaluate_round(round_input, config)
    for label, panel in panels_of(round_input).items():
        _check_alternative(panel, report.alternatives[label], config)


def _report_bytes(report) -> int:
    """Bytes of the distinct arrays a report holds, views counted by their base."""
    bases = {}
    for alt in report.alternatives.values():
        for field in dataclasses.fields(alt):
            value = getattr(alt, field.name)
            arrays = [value]
            if dataclasses.is_dataclass(value):
                arrays = [getattr(value, f.name) for f in dataclasses.fields(value)]
            for a in arrays:
                if isinstance(a, np.ndarray):
                    base = a if a.base is None else a.base
                    bases[id(base)] = base.nbytes
    return sum(bases.values())


def _peak_beyond_report(round_input) -> int:
    evaluate_round(round_input)  # imports and caches settle outside the trace
    tracemalloc.start()
    try:
        report = evaluate_round(round_input)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - _report_bytes(report)


def test_working_memory_does_not_grow_with_the_alternatives():
    rng = np.random.default_rng(12)
    wide = random_round(rng, 12, 30, 6)
    narrow = dataclasses.replace(
        wide, alternatives=wide.alternatives[:6], judgments=wide.judgments[:6]
    )
    assert _peak_beyond_report(wide) <= 1.2 * _peak_beyond_report(narrow)


def test_working_memory_is_bounded_by_the_distance_passes():
    # 1 x 10 x 200 has 199,000 within-group pairs, about a hundred passes'
    # worth; holding their terms at once would take tens of megabytes.
    # 60 x 30 x 6 has 156,600 cross-expert pairs, in twenty blocks of three
    # alternatives.
    for shape in ((1, 10, 200), (60, 30, 6)):
        round_input = random_round(np.random.default_rng(1), *shape)
        assert _peak_beyond_report(round_input) < 4 * 2**20, shape


@pytest.mark.parametrize(
    "kind",
    [DistanceMatrix, PreferenceMatrix, CriterionWeights, OwaWeights, Sharpness, LikelihoodSeries],
)
def test_no_per_group_object_is_built(kind, monkeypatch, rounds):
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(kind, "__post_init__", refuse)
    for round_input in list(rounds) + [_mixed_round()]:
        evaluate_round(round_input)
        compare_configs(round_input, CONFIGS)


@pytest.mark.parametrize("kind", [IFN, GroupAssessment, Panel])
def test_no_per_judgment_object_is_built(kind, monkeypatch):
    data = emit_judgments([random_round(np.random.default_rng(1), 6, 30, 6)])
    (expected,) = parse_judgments(data)
    reference = evaluate_round(expected)
    reference_outcomes = compare_configs(expected, CONFIGS)

    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(kind, "__post_init__", refuse)
    (round_input,) = parse_judgments(data)
    report = evaluate_round(round_input)
    outcomes = compare_configs(round_input, CONFIGS)
    for label, alt in reference.alternatives.items():
        assert report.alternatives[label].gross_estimation == alt.gross_estimation
    assert [o.gross_estimation for o in outcomes] == [
        o.gross_estimation for o in reference_outcomes
    ]
