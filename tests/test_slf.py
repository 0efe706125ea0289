"""Soft likelihood machinery: sharpness, OWA weights, series, ranking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelrank import DomainError, LengthMismatchError, SplitStrategy, ge_ties, rank
from oracles.chain import (
    IFN,
    GroupAssessment,
    LikelihoodSeries,
    OwaWeights,
    Sharpness,
    combine,
    dp_values,
    dslf,
    gross_estimation,
    owa_weights,
    reliability,
    sharpness,
    support_values,
    to_z,
)
from oracles.weights import owa_oracle
from strategies import groups, ifns


# ---------------------------------------------------------------------------
# sharpness


def test_sharpness_from_attitude():
    assert sharpness(0.5).p == 1.0
    assert sharpness(0.25).p == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.1, np.nan])
def test_sharpness_requires_open_unit_interval(alpha):
    with pytest.raises(DomainError):
        sharpness(alpha)


def test_sharpness_type_rejects_nonpositive():
    with pytest.raises(DomainError):
        Sharpness(0.0)
    with pytest.raises(DomainError):
        Sharpness(np.inf)


# ---------------------------------------------------------------------------
# OWA weights


def test_owa_weights_trivial_length():
    assert owa_weights(1, Sharpness(7.3)).w.tolist() == [1.0]


def test_owa_weights_uniform_at_unit_sharpness():
    w = owa_weights(4, Sharpness(1.0)).w
    assert w == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-15)


def test_owa_weights_known_small_case():
    assert owa_weights(2, Sharpness(2.0)).w == pytest.approx([0.25, 0.75], abs=1e-15)


def test_owa_weights_reference_vector():
    w = owa_weights(5, Sharpness(3.6189)).w
    expected = (0.002954592, 0.033344429, 0.121154205, 0.288503127, 0.554043648)
    assert w == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("k", [0, -2, 2.5, "3"])
def test_owa_weights_reject_bad_lengths(k):
    with pytest.raises(DomainError):
        owa_weights(k, Sharpness(1.0))


def test_owa_weights_accept_numpy_integers():
    assert len(owa_weights(np.int64(5), Sharpness(1.0))) == 5


@given(st.integers(1, 50), st.floats(0.01, 100.0))
def test_owa_weights_telescope_and_order(k, p):
    w = owa_weights(k, Sharpness(p)).w
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(w >= 0.0)
    assert w == pytest.approx(owa_oracle(k, p), abs=1e-12)
    if p > 1.0:
        assert np.all(np.diff(w) >= -1e-15)
    elif p < 1.0:
        assert np.all(np.diff(w) <= 1e-15)


# ---------------------------------------------------------------------------
# support values and series


@given(groups())
def test_equal_and_none_splits_share_support_values(g):
    equal = support_values(g, SplitStrategy.EQUAL)
    none = support_values(g, SplitStrategy.NONE)
    # identical except for supports below one rounding step of the shifted
    # membership, which the equal split absorbs
    assert np.allclose(equal, none, rtol=0.0, atol=1e-15)
    for i, item in enumerate(g.items):
        assert equal[i] == pytest.approx(item.mu - item.nu, abs=1e-15)


@given(groups())
def test_combined_support_scales_by_reliability(g):
    original = support_values(g, SplitStrategy.EQUAL)
    combined = support_values(
        GroupAssessment(tuple(combine(to_z(i)) for i in g.items)), SplitStrategy.EQUAL
    )
    expected = [reliability(i) * (i.mu - i.nu) for i in g.items]
    assert combined == pytest.approx(expected, abs=1e-12)
    assert np.all(np.abs(combined) <= np.abs(original) + 1e-12)


@given(groups())
def test_dp_values_sorted_with_partials(g):
    series = dp_values(g, SplitStrategy.EQUAL)
    assert np.all(np.diff(series.dp) <= 0.0)
    assert series.partials == pytest.approx(np.cumprod(series.dp), abs=1e-15)
    assert sorted(series.dp) == sorted(support_values(g, SplitStrategy.EQUAL))


def test_likelihood_series_validation():
    with pytest.raises(DomainError):
        LikelihoodSeries(np.array([0.2, 0.5]))
    with pytest.raises(DomainError):
        LikelihoodSeries(np.array([1.5]))


def test_likelihood_series_partials_are_derived_from_dp():
    dp = np.array([0.6, 0.5, 0.4, 0.2, -0.2])
    series = LikelihoodSeries(dp)
    assert np.array_equal(series.partials, np.cumprod(dp))
    assert not series.partials.flags.writeable


def test_likelihood_series_leaves_the_callers_array_writeable():
    dp = np.array([0.5, 0.2])
    series = LikelihoodSeries(dp)
    assert dp.flags.writeable
    assert not series.dp.flags.writeable
    dp[0] = 0.1
    assert series.dp.tolist() == [0.5, 0.2]


# ---------------------------------------------------------------------------
# soft likelihood


def test_dslf_reference_value():
    series = LikelihoodSeries([0.6, 0.5, 0.4, 0.2, -0.2])
    assert series.partials == pytest.approx([0.6, 0.30, 0.12, 0.024, -0.0048], abs=1e-12)
    value = dslf(series, owa_weights(5, Sharpness(3.6189)))
    assert value == pytest.approx(0.030579253618, abs=1e-9)


def test_dslf_first_position_weight_selects_max():
    series = LikelihoodSeries([0.7, 0.4, 0.1])
    assert dslf(series, OwaWeights(np.array([1.0, 0.0, 0.0]))) == 0.7


def test_dslf_last_position_weight_selects_full_product():
    series = LikelihoodSeries([0.7, 0.4, 0.1])
    full = dslf(series, OwaWeights(np.array([0.0, 0.0, 1.0])))
    assert full == pytest.approx(0.7 * 0.4 * 0.1, abs=1e-15)


@given(st.lists(st.integers(-99, 99).map(lambda n: n / 100.0), min_size=1, max_size=8))
def test_dslf_limit_weights_bracket_any_series(dp):
    series = LikelihoodSeries(sorted(dp, reverse=True))
    k = len(series)
    first = np.zeros(k)
    first[0] = 1.0
    last = np.zeros(k)
    last[-1] = 1.0
    assert dslf(series, OwaWeights(first)) == series.dp[0]
    assert dslf(series, OwaWeights(last)) == pytest.approx(
        np.prod(series.dp), abs=1e-12
    )


def test_dslf_checks_lengths():
    with pytest.raises(LengthMismatchError):
        dslf(LikelihoodSeries([0.5, 0.2]), OwaWeights(np.array([1.0])))


# ---------------------------------------------------------------------------
# gross estimation and ranking


def test_gross_estimation_scales_by_expert_count():
    assert gross_estimation([0.01, 0.02, 0.03]) == pytest.approx(2.0, abs=1e-12)
    assert gross_estimation([0.05]) == pytest.approx(5.0, abs=1e-12)


@given(st.floats(-1.0, 1.0), st.integers(1, 9))
def test_gross_estimation_is_expert_count_invariant_for_uniform_values(v, e):
    assert gross_estimation([v] * e) == pytest.approx(100.0 * v, abs=1e-9)


def test_gross_estimation_rejects_non_finite():
    with pytest.raises(DomainError):
        gross_estimation([0.1, np.nan])
    with pytest.raises(DomainError):
        gross_estimation([])


def test_rank_orders_descending_with_lexicographic_ties():
    assert rank({"B": 1.0, "A": 1.0, "C": 2.0}) == ("C", "A", "B")
    assert ge_ties({"B": 1.0, "A": 1.0, "C": 2.0}) == ("A", "B")
    assert ge_ties({"A": 1.0, "C": 2.0}) == ()


def test_rank_rejects_empty_mapping():
    with pytest.raises(DomainError):
        rank({})


@given(ifns())
def test_single_judgment_round_trip_through_slf(a):
    g = GroupAssessment((a,))
    series = dp_values(g, SplitStrategy.EQUAL)
    w = owa_weights(1, Sharpness(1.0))
    assert dslf(series, w) == pytest.approx(a.mu - a.nu, abs=1e-15)
