"""Accuracy of the array distance kernel and its agreement with the scalar path.

The pipeline takes all its distances from js_distances and reduces them to
group distances and divergences with einsum and sum. Every distance, from
the kernel and from the scalar js_distance alike, is held to the 50-digit
decimal oracle within ORACLE_TOL. The kernel takes its logs from numpy and
js_distance from libm, which may differ in the last place, so the two agree
within that bound rather than bit for bit. group_distance and
expert_divergence add the same terms in another order than the reductions,
so they agree within a rounding bound set from the float epsilon and the
number of terms added.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelrank import config_grid, evaluate_round, mass_triples
from panelrank import core
from panelrank.core import _PASS_PAIRS, SUM_TOL, PairScratch, pair_distances
from oracles.chain import (
    IFN,
    CriterionWeights,
    GroupAssessment,
    Panel,
    expert_divergence,
    group_distance,
    js_distance,
    js_distance_matrices,
    js_distances,
    pairwise_distances,
)
from oracles.distance import ORACLE_TOL, js_distances_whole, js_oracle
from strategies import SPECIAL, judgment_grids, round_of_panels

EPS = np.finfo(float).eps

# judgments at the kernel's edges: no committed mass, all mass on one side, no
# hesitancy, and a hesitancy a hair below zero inside the sum tolerance
EDGES = np.array(
    [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, 1.0),
        (0.3, 0.7),
        (0.6, 0.4 + 0.5 * SUM_TOL),
        (1.0, 0.9 * SUM_TOL),
    ]
)


def _edge_triples(rng, shape) -> np.ndarray:
    """Mass triples [3, *shape]: a third from EDGES, a third (x, 1 - x), a third uniform."""
    mu = rng.random(shape)
    nu = rng.random(shape) * (1.0 - mu)
    kind = rng.integers(3, size=shape)
    edge = EDGES[rng.integers(len(EDGES), size=shape)]
    mu = np.where(kind == 0, edge[..., 0], mu)
    nu = np.where(kind == 0, edge[..., 1], np.where(kind == 1, 1.0 - mu, nu))
    return mass_triples(mu, nu)


def _triples(rows) -> np.ndarray:
    return mass_triples([[i.mu for i in r] for r in rows], [[i.nu for i in r] for r in rows])


def _all_pairs(triples, first, second) -> np.ndarray:
    """js_distances over two broadcast views of the same triples."""
    a, b = np.broadcast_arrays(np.expand_dims(triples, first), np.expand_dims(triples, second))
    return js_distances(a, b)


def _scalar_pairwise(items) -> np.ndarray:
    m = len(items)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                out[i, j] = js_distance(items[i], items[j])
    return out


def _assert_accurate(got, pairs, oracle=js_oracle):
    """Kernel distances got, flattened, against the oracle and js_distance of pairs.

    The kernel and js_distance are each within ORACLE_TOL of the oracle, and
    within ORACLE_TOL of each other.
    """
    got = np.asarray(got).ravel()
    exact = np.array([oracle(a, b) for a, b in pairs])
    scalar = np.array([js_distance(a, b) for a, b in pairs])
    np.testing.assert_allclose(got, exact, rtol=0.0, atol=ORACLE_TOL)
    np.testing.assert_allclose(scalar, exact, rtol=0.0, atol=ORACLE_TOL)
    np.testing.assert_allclose(got, scalar, rtol=0.0, atol=ORACLE_TOL)


@settings(max_examples=40)
@given(judgment_grids())
def test_kernel_matches_oracle_and_js_distance_on_every_pair(rows):
    # cells come from a pool of at most 8 judgments, so the oracle is cached
    oracle = functools.cache(js_oracle)
    triples = _triples(rows)
    # every cross-expert pair on every criterion, and every within-row pair,
    # directly and through pairwise_distances
    cross = _all_pairs(triples, 2, 1)  # [e, f, criterion]
    within = _all_pairs(triples, 3, 2)  # [e, i, j]
    assert np.array_equal(cross, cross.transpose(1, 0, 2))
    _assert_accurate(cross, [(x, y) for r in rows for s in rows for x, y in zip(r, s)], oracle)
    for a in range(len(rows)):
        _assert_accurate(within[a], [(x, y) for x in rows[a] for y in rows[a]], oracle)
        pairwise = pairwise_distances(GroupAssessment(tuple(rows[a]))).values
        assert np.array_equal(pairwise, within[a])


@settings(max_examples=25)
@given(judgment_grids())
def test_pipeline_distances_equal_the_scalar_oracles(rows):
    e, m = len(rows), len(rows[0])
    round_input = round_of_panels(
        round_label="parity",
        criteria_labels=tuple(f"c{i}" for i in range(m)),
        expert_labels=tuple(f"E{k}" for k in range(e)),
        alternatives={"A": Panel(tuple(GroupAssessment(tuple(r)) for r in rows))},
    )
    report = evaluate_round(round_input).alternatives["A"]
    groups = [GroupAssessment(tuple(IFN(*p) for p in row)) for row in report.combined.tolist()]
    weights = [CriterionWeights(w) for w in report.weights]
    for a in range(e):
        np.testing.assert_allclose(
            report.distances[a], _scalar_pairwise(groups[a].items), rtol=0.0, atol=ORACLE_TOL
        )
    expected = np.zeros((e, e))
    for a in range(e):
        for b in range(e):
            if a != b:
                expected[a, b] = group_distance(groups[a], groups[b], weights[a])
    assert np.all(np.diag(report.group_distances) == 0.0)
    # m weighted terms whose weights sum to 1, each within ORACLE_TOL, added
    # in another order: at most m eps relative plus ORACLE_TOL
    np.testing.assert_allclose(report.group_distances, expected, rtol=m * EPS, atol=ORACLE_TOL)
    # e - 1 of those group distances, added in another order again
    np.testing.assert_allclose(
        report.divergence,
        expert_divergence(groups, weights),
        rtol=(m + e) * EPS,
        atol=e * ORACLE_TOL,
    )


def test_kernel_equals_the_whole_stack_form_bit_for_bit():
    # every pair of edge judgments, then enough drawn pairs for several passes
    edges = mass_triples(EDGES[:, 0], EDGES[:, 1])
    a, b = np.broadcast_arrays(edges[:, :, None], edges[:, None, :])
    assert np.array_equal(js_distances(a, b), js_distances_whole(a, b))
    rng = np.random.default_rng(3)
    a, b = _edge_triples(rng, (5, 1001)), _edge_triples(rng, (5, 1001))
    assert np.array_equal(js_distances(a, b), js_distances_whole(a, b))


def _bits(a) -> np.ndarray:
    """The float64 bit patterns of a, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


# (mu, nu) pairs the kernel must take exactly as the whole-stack form does;
# a RuntimeWarning fails the test
FIXED_PAIRS = {
    # nu offset (x - y) / (x + y) rounds to exactly -1 at a defined far term,
    # so its log1p argument must be zeroed before the log1p
    "far-offset-of-minus-one": ((0.0, 8.260963851082647e-196), (0.0, 1.0)),
    # the sums x + y of mu and of nu are 0
    "no-mass-against-no-mass": ((0.0, 0.0), (0.0, 0.0)),
    # hesitancies -5e-10 and 0: x + y < 0 with x < 0 and with x = 0
    "negative-sum": ((0.6, 0.4 + 0.5 * SUM_TOL), (1.0, 0.0)),
    # hesitancies -5e-10 and 2e-9: x + y > 0 with x < 0
    "negative-against-positive-hesitancy": ((0.6, 0.4 + 0.5 * SUM_TOL), (0.3, 0.7 - 2 * SUM_TOL)),
    # hesitancies -9e-10 and 1e-10: x + y < 0 with x > 0, a term that must
    # be 0; the other terms are as small, so a wrong one would show
    "positive-hesitancy-with-negative-sum": (
        (0.5, 0.5 + 0.9 * SUM_TOL),
        (0.5, 0.5 - 0.1 * SUM_TOL),
    ),
    # hesitancies -5e-10 and -9e-10: x + y < 0 with both x < 0
    "both-negative-hesitancy": ((0.6, 0.4 + 0.5 * SUM_TOL), (1.0, 0.9 * SUM_TOL)),
}


@pytest.mark.parametrize("pair", FIXED_PAIRS.values(), ids=FIXED_PAIRS.keys())
def test_kernel_takes_fixed_edge_pairs_as_the_whole_stack_form(pair):
    (mu_a, nu_a), (mu_b, nu_b) = pair
    # both orders, so each judgment takes each half of the term rows
    a = mass_triples([mu_a, mu_b], [nu_a, nu_b])
    b = mass_triples([mu_b, mu_a], [nu_b, nu_a])
    got = js_distances(a, b)
    assert np.array_equal(_bits(got), _bits(js_distances_whole(a, b)))
    assert np.array_equal(_bits(got[0]), _bits(got[1]))
    # the raw judgments, whose hesitancy may be below 0, against the oracle
    ifns = [IFN(mu_a, nu_a), IFN(mu_b, nu_b)]
    _assert_accurate(got, [tuple(ifns), tuple(ifns[::-1])])


def _round_passes(triples, scratch, keep_groups, keep_alternatives) -> None:
    """pair_distances over an [3, A, E, M] round as the pipeline takes it: each
    expert's group of criteria, then each alternative's experts per criterion."""
    _, n_alt, n_exp, m = triples.shape
    flat = triples.reshape(3, -1)
    pair_distances(flat, m, 1, n_alt * n_exp, scratch, keep_groups)
    pair_distances(flat, n_exp, m, n_alt, scratch, keep_alternatives)


def _count_passes(monkeypatch, triples) -> tuple[int, int]:
    """The passes the within-group and cross-expert pair_distances make on triples."""
    calls = []
    kernel = core._pair_pass
    monkeypatch.setattr(core, "_pair_pass", lambda *args: calls.append(1) or kernel(*args))
    counts = []
    _round_passes(triples, PairScratch(), lambda *_: counts.append(len(calls)), lambda *_: None)
    within = counts[-1]
    return within, len(calls) - within


@pytest.mark.parametrize(
    "shape, passes",
    [
        # 2700 within pairs, 136 groups to a pass; 6 x 2610 cross pairs in two
        # blocks of three alternatives, four passes each (12 passes of one
        # alternative each would leave six tails of 562 pairs)
        ((6, 30, 6), (2, 8)),
        # 780 within pairs a group, two to a pass; 3 x 240 cross pairs in one
        ((3, 4, 40), (6, 1)),
        # 4160 cross pairs an alternative, over three passes each
        ((5, 65, 2), (1, 15)),
    ],
)
def test_pass_counts(monkeypatch, shape, passes):
    triples = _edge_triples(np.random.default_rng(1), shape)
    assert _count_passes(monkeypatch, triples) == passes


# [A, E, M] rounds whose pair counts land on the pass size C: A E M(M-1)/2
# within-group pairs, and M E(E-1)/2 cross-expert pairs per alternative,
# C // that many alternatives to a pass; where one group or alternative
# holds more than C pairs, blocks of them go a few at a time over passes
# that run nearly full (core._blocks_per_step)
C = _PASS_PAIRS
ROUND_SHAPES = (
    (89, 23, 2),  # C - 1 within pairs in one pass
    (C // 2, 2, 2),  # C within pairs in one pass
    (683, 3, 2),  # C + 1 within pairs; cross blocks of 341 alternatives, the last of one
    (2, 2, 65),  # groups of 2080 within pairs, two to a step of three passes
    (23, 2, 89),  # C - 1 cross pairs in one pass of 23 alternatives
    (32, 2, 64),  # C cross pairs in one pass of 32 alternatives
    (C + 1, 2, 1),  # C + 1 cross pairs, a pass and one alternative
    (1, 65, 2),  # one alternative's 4160 cross pairs, in three passes
    (5, 3, 4),
    (4, 30, 6),  # 2610 cross pairs an alternative, two to a step of three passes
    (5, 65, 2),  # 4160 cross pairs an alternative, one to a step of three passes
    (6, 30, 6),  # 2610 cross pairs an alternative, three to a step of four passes
)


@pytest.mark.parametrize("shape", ROUND_SHAPES)
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_passes_equal_the_per_alternative_matrices(shape, seed):
    triples = _edge_triples(np.random.default_rng(seed), shape)
    grouped, crossed = [], []
    # copies: every step reuses the buffer d views
    _round_passes(
        triples,
        PairScratch(),
        lambda start, d: grouped.extend(enumerate(d[:, 0].copy(), start)),
        lambda start, d: crossed.extend(enumerate(d.copy(), start)),
    )
    assert [g for g, _ in grouped] == list(range(shape[0] * shape[1]))
    assert [a for a, _ in crossed] == list(range(shape[0]))
    within = np.array([d for _, d in grouped]).reshape(shape + shape[-1:])
    for a, cross in crossed:
        assert np.array_equal(within[a], js_distance_matrices(triples[:, a]))
        assert np.array_equal(cross, js_distance_matrices(triples[:, a].swapaxes(1, 2)))


def test_kernel_at_the_largest_panel_with_every_special_value():
    rng = np.random.default_rng(7)
    pool = SPECIAL + tuple(IFN(mu, nu) for mu, nu in [(0.3, 0.3), (0.05, 0.9), (0.7, 0.1)])
    rows = [[pool[k] for k in rng.integers(len(pool), size=40)] for _ in range(30)]
    rows[5] = rows[4]
    rows[9] = [SPECIAL[0]] * 40
    cross = _all_pairs(_triples(rows), 2, 1)
    pairs = [(x, y) for r in rows for s in rows for x, y in zip(r, s)]
    _assert_accurate(cross, pairs, functools.cache(js_oracle))


def test_kernel_matches_oracle_and_js_distance_on_many_distinct_pairs():
    # numpy's vectorized log differs from libm's in the last place on a small
    # share of inputs, so this takes enough distinct ratios to meet some
    rng = np.random.default_rng(11)
    mu_pct = rng.integers(0, 101, size=(2, 20_000))
    mu = mu_pct / 100
    nu = rng.integers(0, 101 - mu_pct) / 100
    mu[:, :5000] = rng.random((2, 5000))
    nu[:, :5000] = rng.random((2, 5000)) * (1.0 - mu[:, :5000])
    triples = mass_triples(mu, nu)
    got = js_distances(triples[:, 0], triples[:, 1])
    pairs = [(IFN(a, b), IFN(c, d)) for a, b, c, d in zip(mu[0], nu[0], mu[1], nu[1])]
    _assert_accurate(got, pairs)


def test_kernel_is_accurate_for_near_identical_pairs():
    # each judgment paired with a copy moved by 1e-16 to 1e-2 along mu, nu or
    # both, or by one ulp: the regime where the log of the rounded ratio
    # 2x / (x + y) lost up to 1e-8
    rng = np.random.default_rng(5)
    pairs = [
        # one rounding step apart, as the fixture's derived judgments are
        (IFN(0.168, 0.5), IFN(0.16799999999999998, 0.5)),
        (IFN(0.0, 1.0884255758408789e-16), IFN(1.0884255758408789e-16, 1.0884255758408789e-16)),
    ]
    for gap in 10.0 ** np.arange(-16.0, -1.0):
        for _ in range(20):
            mu = rng.random()
            nu = rng.random() * (1.0 - mu)
            for dmu, dnu in ((gap, 0.0), (0.0, gap), (gap, -gap), (-gap, gap)):
                mu2, nu2 = max(mu + dmu, 0.0), max(nu + dnu, 0.0)
                if mu2 + nu2 <= 1.0:
                    pairs.append((IFN(mu, nu), IFN(mu2, nu2)))
            pairs.append((IFN(mu, nu), IFN(np.nextafter(mu, 1.0), nu)))
    a = mass_triples([p.mu for p, _ in pairs], [p.nu for p, _ in pairs])
    b = mass_triples([q.mu for _, q in pairs], [q.nu for _, q in pairs])
    _assert_accurate(js_distances(a, b), pairs)


# ---------------------------------------------------------------------------
# degenerate rounds through the whole chain; a RuntimeWarning fails the test


@pytest.mark.parametrize(
    "judgment, ge",
    [((0.0, 0.0), 0.0), ((0.0, 1.0), -100.0 / 3.0), ((1.0, 0.0), 100.0)],
    ids=["total-hesitancy", "total-rejection", "total-acceptance"],
)
def test_uniform_judgments_tie_every_alternative(judgment, ge):
    row = GroupAssessment((IFN(*judgment),) * 3)
    round_input = round_of_panels(
        round_label="uniform",
        criteria_labels=("c1", "c2", "c3"),
        expert_labels=("E1", "E2", "E3"),
        alternatives={a: Panel((row,) * 3) for a in ("A", "B", "C")},
    )
    report = evaluate_round(round_input)
    assert report.ties == tuple(sorted(round_input.alternatives))
    for alt in report.alternatives.values():
        assert alt.gross_estimation == pytest.approx(ge, rel=1e-12, abs=1e-12)
        assert np.all(alt.group_distances == 0.0)
    for config in config_grid():
        assert evaluate_round(round_input, config).ties == report.ties


def test_identical_experts_are_equally_credible():
    row = GroupAssessment((IFN(0.1, 0.2), IFN(0.5, 0.3), IFN(0.9, 0.0), IFN(0.0, 0.0)))
    round_input = round_of_panels(
        round_label="identical",
        criteria_labels=("c1", "c2", "c3", "c4"),
        expert_labels=("E1", "E2", "E3"),
        alternatives={"A": Panel((row,) * 3), "B": Panel((row,) * 3)},
    )
    for config in config_grid():
        report = evaluate_round(round_input, config)
        assert report.ties == ("A", "B")
        alt = report.alternatives["A"]
        assert np.all(alt.group_distances == 0.0) and np.all(alt.divergence == 0.0)
        assert np.array_equal(alt.credibility, np.full(3, 1.0 / 3.0))


def test_negative_hesitancy_inside_the_sum_tolerance():
    # mu + nu just above 1 leaves xi a hair below 0: those terms are undefined
    # and must neither warn nor leak into the distances
    pool = [IFN(0.6, 0.4 + 0.5 * SUM_TOL), IFN(1.0, 0.9 * SUM_TOL), IFN(0.3, 0.3), IFN(0.0, 0.0)]
    assert all(i.hesitancy < 0.0 for i in pool[:2])
    rows = (pool, pool[::-1], pool[1:] + pool[:1])
    round_input = round_of_panels(
        round_label="negative-xi",
        criteria_labels=("c1", "c2", "c3", "c4"),
        expert_labels=("E1", "E2", "E3"),
        alternatives={"A": Panel(tuple(GroupAssessment(tuple(r)) for r in rows))},
    )
    for config in config_grid():
        assert np.isfinite(evaluate_round(round_input, config).alternatives["A"].gross_estimation)
    # the pipeline measures combined judgments, whose hesitancy is positive,
    # so the raw judgments go through the kernel directly
    within = _all_pairs(mass_triples([i.mu for i in pool], [i.nu for i in pool]), 2, 1)
    _assert_accurate(within, [(x, y) for x in pool for y in pool])
