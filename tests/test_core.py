"""Atomic judgment operations: validation, summaries, distance, splits."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelrank import DomainError, SplitStrategy, mass_triples
from oracles.chain import (
    IFN,
    ZJudgment,
    combine,
    eifn,
    js_distance,
    js_distances,
    reliability,
    split_hesitancy,
    to_z,
)
from oracles.distance import ORACLE_TOL, js_oracle
from strategies import ifns


# ---------------------------------------------------------------------------
# construction and validation


def test_ifn_valid_construction():
    a = IFN(0.6, 0.2)
    assert a.mu == 0.6
    assert a.nu == 0.2
    assert a.hesitancy == pytest.approx(0.2)


def test_ifn_coerces_integer_components():
    a = IFN(1, 0)
    assert isinstance(a.mu, float)
    assert a == IFN(1.0, 0.0)


def test_ifn_is_immutable():
    a = IFN(0.4, 0.3)
    with pytest.raises(AttributeError):
        a.mu = 0.5


@pytest.mark.parametrize(
    "mu,nu",
    [
        (-0.1, 0.2),
        (0.2, -0.1),
        (1.1, 0.0),
        (0.0, 1.1),
        (0.7, 0.4),
        (math.nan, 0.1),
        (0.1, math.inf),
    ],
)
def test_ifn_rejects_invalid_components(mu, nu):
    with pytest.raises(DomainError):
        IFN(mu, nu)


def test_ifn_sum_tolerance_absorbs_decimal_rounding():
    # a whisker over 1 from decimal inputs is fine, a real violation is not
    assert IFN(0.5, 0.5 + 1e-10).nu > 0.5
    with pytest.raises(DomainError):
        IFN(0.5, 0.5 + 1e-6)


def test_zjudgment_rejects_out_of_range_reliability():
    with pytest.raises(DomainError):
        ZJudgment(IFN(0.5, 0.2), 1.5)
    with pytest.raises(DomainError):
        ZJudgment(IFN(0.5, 0.2), math.nan)


# ---------------------------------------------------------------------------
# scalar summaries


@pytest.mark.parametrize(
    "mu,nu,expected",
    [
        (0.6, 0.2, 0.6400),
        (0.9, 0.1, 0.8550),
        (1.0, 0.0, 1.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 0.5),
    ],
)
def test_reliability_known_values(mu, nu, expected):
    assert reliability(IFN(mu, nu)) == pytest.approx(expected, abs=1e-12)


@given(ifns())
def test_summaries_stay_in_unit_interval(a):
    assert 0.0 <= reliability(a) <= 1.0


@given(ifns())
def test_to_z_pairs_ifn_with_its_reliability(a):
    z = to_z(a)
    assert z.ifn == a
    assert z.reliability == reliability(a)


def test_combine_known_values():
    r = reliability(IFN(0.6, 0.2))
    c = combine(to_z(IFN(0.6, 0.2)))
    assert c == IFN(0.6 * r, 0.2 * r)
    assert c.mu == pytest.approx(0.3840, abs=1e-12)
    assert c.nu == pytest.approx(0.1280, abs=1e-12)
    r = reliability(IFN(0.8, 0.0))
    assert combine(to_z(IFN(0.8, 0.0))) == IFN(0.8 * r, 0.0)


@given(ifns())
def test_combine_always_yields_valid_ifn(a):
    c = combine(to_z(a))
    assert 0.0 <= c.mu <= a.mu + 1e-12
    assert 0.0 <= c.nu <= a.nu + 1e-12


# ---------------------------------------------------------------------------
# information volume


def test_eifn_vanishes_at_certainty():
    assert eifn(IFN(1.0, 0.0)) == 0.0
    assert eifn(IFN(0.0, 1.0)) == 0.0


def test_eifn_peak_value():
    assert eifn(IFN(0.2, 0.2)) == pytest.approx(math.log2(5.0), abs=1e-12)


def test_eifn_full_hesitancy():
    assert eifn(IFN(0.0, 0.0)) == pytest.approx(math.log2(3.0), abs=1e-12)


def test_eifn_coarse_grid_peaks_at_point_two():
    grid = [i / 20 for i in range(21)]
    best = max(
        ((mu, nu) for mu in grid for nu in grid if mu + nu <= 1.0),
        key=lambda pair: eifn(IFN(*pair)),
    )
    assert best == (0.2, 0.2)


@given(ifns())
def test_eifn_bounded_and_nonnegative(a):
    v = eifn(a)
    assert 0.0 <= v <= math.log2(5.0) + 1e-12


# ---------------------------------------------------------------------------
# distance


def test_js_distance_identity_is_exact_zero():
    a = IFN(0.37, 0.21)
    assert js_distance(a, a) == 0.0


def test_js_distance_attains_its_bound():
    # fully committed opposites: both divergence halves are ln 2
    assert js_distance(IFN(1.0, 0.0), IFN(0.0, 1.0)) == pytest.approx(
        math.sqrt(math.log(2.0)), abs=1e-12
    )


@given(ifns(), ifns())
def test_js_distance_symmetric_and_bounded(a, b):
    d = js_distance(a, b)
    assert d == js_distance(b, a)
    assert 0.0 <= d <= math.sqrt(math.log(2.0)) + 1e-12


def _kernel_distance(a: IFN, b: IFN) -> float:
    return float(js_distances(mass_triples([a.mu], [a.nu]), mass_triples([b.mu], [b.nu]))[0])


@given(ifns(), ifns())
def test_js_distance_matches_independent_oracle(a, b):
    exact = js_oracle(a, b)
    assert abs(js_distance(a, b) - exact) <= ORACLE_TOL
    assert abs(_kernel_distance(a, b) - exact) <= ORACLE_TOL


def test_js_distance_of_one_rounding_step_from_total_hesitancy():
    # the exact value is sqrt(ln 2 * 2**-53); the libm ratio form gave 1.1509e-08
    a, b = IFN(0.0, 0.0), IFN(0.0, 2.220446049250313e-16)
    exact = 8.772388268377443e-09
    assert js_oracle(a, b) == exact
    assert abs(js_distance(a, b) - exact) <= ORACLE_TOL
    assert abs(_kernel_distance(a, b) - exact) <= ORACLE_TOL


@given(ifns(), ifns(), ifns())
def test_js_distance_triangle_inequality(a, b, c):
    assert js_distance(a, c) <= js_distance(a, b) + js_distance(b, c) + 1e-12


# ---------------------------------------------------------------------------
# hesitancy splits


@given(ifns())
def test_equal_split_preserves_support(a):
    mu2, nu2 = split_hesitancy(a, SplitStrategy.EQUAL)
    # exact except when the support is below one rounding step of the
    # shifted membership, where the subtraction absorbs it
    assert mu2 - nu2 == pytest.approx(a.mu - a.nu, abs=1e-15)
    assert mu2 + nu2 == pytest.approx(1.0, abs=1e-12)


@given(ifns())
def test_proportional_split_sums_to_one(a):
    mu2, nu2 = split_hesitancy(a, SplitStrategy.PROPORTIONAL)
    assert mu2 + nu2 == pytest.approx(1.0, abs=1e-12)
    assert mu2 >= a.mu - 1e-12
    assert nu2 >= a.nu - 1e-12


def test_proportional_split_keeps_component_ratio():
    mu2, nu2 = split_hesitancy(IFN(0.4, 0.2), SplitStrategy.PROPORTIONAL)
    assert mu2 / nu2 == pytest.approx(2.0, abs=1e-12)


def test_proportional_split_falls_back_to_equal_on_pure_hesitancy():
    assert split_hesitancy(IFN(0.0, 0.0), SplitStrategy.PROPORTIONAL) == (0.5, 0.5)


@given(ifns())
def test_none_split_returns_components_untouched(a):
    assert split_hesitancy(a, SplitStrategy.NONE) == (a.mu, a.nu)


def test_split_strategy_values():
    assert [s.value for s in SplitStrategy] == ["equal", "proportional", "none"]
