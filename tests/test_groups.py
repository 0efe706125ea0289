"""Within-group chain: distances, similarity, preferences, weights."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from panelrank import DomainError
from oracles.chain import (
    IFN,
    CriterionWeights,
    DegenerateGroupError,
    DistanceMatrix,
    GroupAssessment,
    PreferenceMatrix,
    closeness_similarity,
    criterion_weights,
    js_distance,
    pairwise_distances,
    points,
    preference_matrix,
)
from oracles.distance import ORACLE_TOL
from oracles.preferences import points_oracle
from strategies import groups, similarity_vectors


# ---------------------------------------------------------------------------
# group assessments


def test_group_rejects_empty_and_non_ifn_items():
    with pytest.raises(DomainError):
        GroupAssessment(())
    with pytest.raises(DomainError):
        GroupAssessment(((0.5, 0.2),))


# ---------------------------------------------------------------------------
# matrix containers


def test_distance_matrix_rejects_asymmetry():
    with pytest.raises(DomainError):
        DistanceMatrix(np.array([[0.0, 0.1], [0.2, 0.0]]))


def test_distance_matrix_rejects_nonzero_diagonal():
    with pytest.raises(DomainError):
        DistanceMatrix(np.array([[0.1, 0.2], [0.2, 0.0]]))


def test_distance_matrix_rejects_out_of_range_entries():
    with pytest.raises(DomainError):
        DistanceMatrix(np.array([[0.0, 1.2], [1.2, 0.0]]))
    with pytest.raises(DomainError):
        DistanceMatrix(np.array([[0.0, -0.1], [-0.1, 0.0]]))


def test_distance_matrix_rejects_non_square():
    with pytest.raises(DomainError):
        DistanceMatrix(np.zeros((2, 3)))


def test_distance_matrix_is_read_only():
    d = DistanceMatrix(np.array([[0.0, 0.1], [0.1, 0.0]]))
    with pytest.raises(ValueError):
        d.values[0, 1] = 0.5


def test_preference_matrix_rejects_mutual_wins():
    with pytest.raises(DomainError):
        PreferenceMatrix(np.array([[0, 1], [1, 0]]))


def test_preference_matrix_rejects_non_binary():
    with pytest.raises(DomainError):
        PreferenceMatrix(np.array([[0, 2], [0, 0]]))


def test_criterion_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        CriterionWeights(np.array([0.5, 0.4]))
    with pytest.raises(DomainError):
        CriterionWeights(np.array([1.5, -0.5]))


# ---------------------------------------------------------------------------
# distances and similarity


@given(groups())
def test_pairwise_distances_match_elementwise_calls(g):
    d = pairwise_distances(g).values
    m = len(g)
    assert d.shape == (m, m)
    assert np.array_equal(d, d.T)
    for i in range(m):
        assert d[i, i] == 0.0
        for j in range(i + 1, m):
            # numpy's log in the kernel may differ from libm's in the last place
            assert abs(d[i, j] - js_distance(g.items[i], g.items[j])) <= ORACLE_TOL


def test_pairwise_distances_need_two_judgments():
    with pytest.raises(DomainError):
        pairwise_distances(GroupAssessment((IFN(0.5, 0.2),)))


def test_closeness_similarity_formula():
    d = DistanceMatrix(
        np.array([[0.0, 0.2, 0.4], [0.2, 0.0, 0.2], [0.4, 0.2, 0.0]])
    )
    sm = closeness_similarity(d)
    assert sm == pytest.approx([2 / 0.6, 2 / 0.4, 2 / 0.6])


def test_closeness_similarity_degenerate_row_raises():
    d = DistanceMatrix(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.3], [0.0, 0.3, 0.0]])
    )
    with pytest.raises(DegenerateGroupError):
        closeness_similarity(d)


# ---------------------------------------------------------------------------
# preferences and weights


def test_preference_matrix_from_similarities():
    pm = preference_matrix([3.0, 5.0, 3.0])
    assert pm.values.tolist() == [[0, 0, 0], [1, 0, 1], [0, 0, 0]]
    assert points(pm).tolist() == [0, 2, 0]


def test_preference_ties_within_epsilon_score_nothing():
    pm = preference_matrix([1.0, 1.0 + 5e-13])
    assert pm.values.sum() == 0
    pm = preference_matrix([1.0, 1.0 + 5e-13], tie_epsilon=1e-14)
    assert points(pm).tolist() == [0, 1]


def test_preference_matrix_rejects_bad_inputs():
    with pytest.raises(DomainError):
        preference_matrix([1.0, 0.0])
    with pytest.raises(DomainError):
        preference_matrix([1.0, np.inf])
    with pytest.raises(DomainError):
        preference_matrix([1.0, 2.0], tie_epsilon=0.0)
    with pytest.raises(DomainError):
        preference_matrix([1.0, 2.0], tie_epsilon=np.nan)


def test_criterion_weights_known_row():
    cw = criterion_weights([4, 0, 1, 3, 2])
    assert cw.weights == pytest.approx([0.4, 0.0, 0.1, 0.3, 0.2])
    assert not cw.degenerate


def test_criterion_weights_uniform_fallback_on_zero_points():
    cw = criterion_weights([0, 0, 0])
    assert cw.degenerate
    assert cw.weights == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_criterion_weights_reject_negative_points():
    with pytest.raises(DomainError):
        criterion_weights([2, -1])


@given(similarity_vectors())
def test_points_match_ratio_oracle(sm):
    po = points(preference_matrix(sm))
    assert po.tolist() == points_oracle(sm)


@given(similarity_vectors())
def test_distinct_similarities_score_a_full_permutation(sm):
    po = points(preference_matrix(sm))
    if len(set(sm)) == len(sm):
        assert sorted(po.tolist()) == list(range(len(sm)))
    cw = criterion_weights(po)
    assert cw.weights.sum() == pytest.approx(1.0, abs=1e-9)
    # more wins never means less weight
    order = np.argsort(po)
    assert np.all(np.diff(cw.weights[order]) >= -1e-15)
