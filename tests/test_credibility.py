"""Cross-expert chain: divergence, credibility, information volume, attitude."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from panelrank import DomainError, LengthMismatchError
from oracles.chain import (
    IFN,
    AttitudeVector,
    CredibilityVector,
    CriterionWeights,
    GroupAssessment,
    InfoVolumeVector,
    Panel,
    attitude_characters,
    credibility,
    eifn,
    expert_divergence,
    group_distance,
    group_information_volume,
    js_distance,
    modified_info_volume,
)
from strategies import divergence_vectors, panels


# ---------------------------------------------------------------------------
# containers


def test_panel_needs_two_experts():
    g = GroupAssessment((IFN(0.5, 0.2), IFN(0.3, 0.3)))
    with pytest.raises(DomainError):
        Panel((g,))


def test_panel_rejects_ragged_groups():
    a = GroupAssessment((IFN(0.5, 0.2), IFN(0.3, 0.3)))
    b = GroupAssessment((IFN(0.5, 0.2),))
    with pytest.raises(LengthMismatchError):
        Panel((a, b))


def test_credibility_vector_validation():
    with pytest.raises(DomainError):
        CredibilityVector(np.array([0.5, 0.4]))
    with pytest.raises(DomainError):
        CredibilityVector(np.array([1.2, -0.2]))
    with pytest.raises(DomainError):
        CredibilityVector(np.array([1.0]))


def test_info_volume_vector_consistency_checks():
    with pytest.raises(LengthMismatchError):
        InfoVolumeVector(
            raw=np.array([1.0, 2.0]),
            normalized=np.array([1.0]),
        )


def test_info_volume_modified_is_derived_from_raw():
    raw = np.array([8.5376, 8.9641, 9.1858])
    iv = InfoVolumeVector(raw=raw, normalized=np.array([0.25, 0.25, 0.5]))
    assert np.array_equal(iv.modified, np.exp(raw))
    assert not iv.modified.flags.writeable
    with pytest.raises(DomainError):
        InfoVolumeVector(raw=np.array([1.0, 1e4]), normalized=np.array([0.5, 0.5]))


def test_info_volume_vector_leaves_the_callers_arrays_writeable():
    raw = np.array([1.0, 2.0])
    normalized = np.array([0.25, 0.75])
    iv = InfoVolumeVector(raw=raw, normalized=normalized)
    assert raw.flags.writeable and normalized.flags.writeable
    assert not (iv.raw.flags.writeable or iv.normalized.flags.writeable)
    raw[0] = normalized[0] = 0.5
    assert iv.raw.tolist() == [1.0, 2.0]
    assert iv.normalized.tolist() == [0.25, 0.75]


def test_info_volume_from_normalized_renormalizes():
    iv = InfoVolumeVector.from_normalized([0.2247, 0.4419, 0.3335])
    assert iv.normalized.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        InfoVolumeVector.from_normalized([0.5, 0.0])


def test_attitude_vector_bounds_are_strict():
    with pytest.raises(DomainError):
        AttitudeVector(np.array([0.0, 1.0]))
    AttitudeVector(np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# group distance and divergence


def test_group_distance_is_weighted_sum():
    a = GroupAssessment((IFN(0.6, 0.2), IFN(0.3, 0.3)))
    b = GroupAssessment((IFN(0.5, 0.4), IFN(0.2, 0.6)))
    w = CriterionWeights(np.array([0.7, 0.3]))
    expected = 0.7 * js_distance(a.items[0], b.items[0]) + 0.3 * js_distance(
        a.items[1], b.items[1]
    )
    assert group_distance(a, b, w) == pytest.approx(expected, abs=1e-15)


def test_group_distance_is_directional():
    a = GroupAssessment((IFN(0.6, 0.2), IFN(0.3, 0.3)))
    b = GroupAssessment((IFN(0.5, 0.4), IFN(0.2, 0.6)))
    wa = CriterionWeights(np.array([1.0, 0.0]))
    wb = CriterionWeights(np.array([0.0, 1.0]))
    assert group_distance(a, b, wa) != group_distance(b, a, wb)


def test_group_distance_checks_lengths():
    a = GroupAssessment((IFN(0.6, 0.2), IFN(0.3, 0.3)))
    b = GroupAssessment((IFN(0.5, 0.4),))
    with pytest.raises(LengthMismatchError):
        group_distance(a, b, CriterionWeights(np.array([0.5, 0.5])))


def test_expert_divergence_sums_rows():
    a = GroupAssessment((IFN(0.6, 0.2), IFN(0.3, 0.3)))
    b = GroupAssessment((IFN(0.5, 0.4), IFN(0.2, 0.6)))
    c = GroupAssessment((IFN(0.1, 0.8), IFN(0.4, 0.1)))
    w = CriterionWeights(np.array([0.5, 0.5]))
    div = expert_divergence((a, b, c), (w, w, w))
    assert div[0] == pytest.approx(
        group_distance(a, b, w) + group_distance(a, c, w), abs=1e-15
    )
    assert div[1] == pytest.approx(
        group_distance(b, a, w) + group_distance(b, c, w), abs=1e-15
    )


def test_expert_divergence_requires_weights():
    g = GroupAssessment((IFN(0.5, 0.2), IFN(0.3, 0.3)))
    w = CriterionWeights(np.array([0.5, 0.5]))
    with pytest.raises(LengthMismatchError):
        expert_divergence((g, g), (w,))
    with pytest.raises(LengthMismatchError):
        expert_divergence((g, g), (w, CriterionWeights(np.array([1.0]))))


# ---------------------------------------------------------------------------
# credibility


def test_credibility_sharp_floor_discounts_divergent_experts():
    cr = credibility([0.0, 0.2, 0.2], credibility_floor=1e-3)
    assert np.round(cr.values, 3).tolist() == [0.998, 0.001, 0.001]


def test_credibility_default_floor_keeps_shares_near_uniform():
    cr = credibility([0.0, 0.2, 0.2])
    assert cr.values.max() < 0.5
    assert cr.values.argmax() == 0


def test_credibility_zero_divergence_is_uniform():
    cr = credibility([0.0, 0.0, 0.0])
    assert cr.values == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)


def test_credibility_floor_zero_keeps_experts_strictly_positive():
    cr = credibility([0.0, 0.3], credibility_floor=0.0)
    assert cr.values[1] > 0.0
    assert cr.values[1] < 1e-9


def test_credibility_input_validation():
    with pytest.raises(DomainError):
        credibility([0.1])
    with pytest.raises(DomainError):
        credibility([0.1, -0.2])
    with pytest.raises(DomainError):
        credibility([0.1, 0.2], credibility_floor=-1.0)
    with pytest.raises(DomainError):
        credibility([0.1, 0.2], credibility_floor=np.nan)


@given(divergence_vectors())
def test_credibility_reverses_divergence_order(div):
    cr = credibility(div).values
    assert cr.sum() == pytest.approx(1.0, abs=1e-9)
    for i in range(len(div)):
        for j in range(len(div)):
            if div[i] < div[j]:
                assert cr[i] > cr[j]
            elif div[i] == div[j]:
                assert cr[i] == pytest.approx(cr[j], abs=1e-15)


# ---------------------------------------------------------------------------
# information volume and attitude


def test_group_information_volume_sums_item_volumes():
    g = GroupAssessment((IFN(0.6, 0.2), IFN(0.3, 0.3), IFN(0.2, 0.2)))
    assert group_information_volume(g) == pytest.approx(
        sum(eifn(i) for i in g.items), abs=1e-12
    )


def test_modified_info_volume_is_softmax():
    raw = [8.5376, 8.9641, 9.1858]
    iv = modified_info_volume(raw)
    manual = np.exp(raw) / np.exp(raw).sum()
    assert iv.normalized == pytest.approx(manual, abs=1e-12)
    assert np.round(iv.normalized, 4).tolist() == [0.2250, 0.3447, 0.4303]
    assert iv.raw.tolist() == raw


def test_modified_info_volume_shift_invariance():
    a = modified_info_volume([1.0, 2.0, 4.0]).normalized
    b = modified_info_volume([101.0, 102.0, 104.0]).normalized
    assert a == pytest.approx(b, abs=1e-12)


def test_modified_info_volume_rejects_non_finite():
    with pytest.raises(DomainError):
        modified_info_volume([1.0, np.inf])


def test_attitude_characters_blend_and_normalize():
    iv = InfoVolumeVector.from_normalized([0.5, 0.5])
    cr = CredibilityVector(np.array([0.3, 0.7]))
    alpha = attitude_characters(iv, cr)
    assert alpha.values == pytest.approx([0.3, 0.7], abs=1e-12)


def test_attitude_characters_scale_invariant_inputs():
    # shares stated to four decimals sum to 1.0001; renormalizing them
    # through from_normalized cannot move the attitude
    stated = [0.2247, 0.4419, 0.3335]
    cr = CredibilityVector(np.array([0.3221, 0.3434, 0.3345]))
    a1 = attitude_characters(InfoVolumeVector.from_normalized(stated), cr)
    scaled = [v / sum(stated) for v in stated]
    a2 = attitude_characters(InfoVolumeVector.from_normalized(scaled), cr)
    assert a1.values == pytest.approx(a2.values, abs=1e-15)


def test_attitude_characters_check_lengths():
    iv = InfoVolumeVector.from_normalized([0.5, 0.5])
    cr = CredibilityVector(np.array([0.3, 0.3, 0.4]))
    with pytest.raises(LengthMismatchError):
        attitude_characters(iv, cr)


@given(panels())
def test_full_cross_expert_chain_normalizes(panel):
    combined = panel.groups
    volumes = [group_information_volume(g) for g in combined]
    iv = modified_info_volume(volumes)
    div = np.linspace(0.0, 0.4, len(combined))
    cr = credibility(div)
    alpha = attitude_characters(iv, cr)
    assert alpha.values.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(alpha.values > 0.0)
