"""Parity of the array distance kernel with the scalar distance functions.

The pipeline takes all its distances from js_distances and accumulates the
group distances and divergences from those arrays. The scalar js_distance,
pairwise_distances, group_distance and expert_divergence are the oracles.
Every comparison here is exact (==): the kernel is meant to be bit-identical,
not merely close.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from panelrank import (
    IFN,
    GroupAssessment,
    Panel,
    RoundInput,
    evaluate_round,
    expert_divergence,
    group_distance,
    js_distance,
    js_distances,
    mass_triples,
    pairwise_distances,
)
from panelrank.core import SUM_TOL
from strategies import ifns

# the corners of the judgment triangle, total hesitancy, an even split, and
# mu + nu just inside the validation slack, which gives a negative hesitancy
SPECIAL = (
    IFN(0.0, 0.0),
    IFN(1.0, 0.0),
    IFN(0.0, 1.0),
    IFN(0.5, 0.5),
    IFN(0.6, 0.4 + 0.5 * SUM_TOL),
    IFN(1.0, 0.9 * SUM_TOL),
)


@st.composite
def judgment_grids(draw, max_experts: int = 30, max_criteria: int = 40):
    """An experts x criteria grid of IFNs with special values and repeats.

    Cells are drawn from a small pool (special values mixed with arbitrary
    judgments), so identical judgments are common; some rows copy an earlier
    row, so identical experts occur too.
    """
    e = draw(st.integers(2, max_experts))
    m = draw(st.integers(2, max_criteria))
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), ifns()), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(e):
        if rows and rng.random() < 0.2:
            rows.append(rows[rng.integers(len(rows))])
        else:
            rows.append([pool[k] for k in rng.integers(len(pool), size=m)])
    return rows


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


@settings(max_examples=40)
@given(judgment_grids())
def test_kernel_equals_js_distance_on_every_pair(rows):
    triples = _triples(rows)
    e, m = triples.shape[1:]
    # every cross-expert pair on every criterion, and every within-row pair,
    # directly and through pairwise_distances
    cross = _all_pairs(triples, 2, 1)  # [e, f, criterion]
    within = _all_pairs(triples, 3, 2)  # [e, i, j]
    for a in range(e):
        for b in range(e):
            for i in range(m):
                assert cross[a, b, i] == js_distance(rows[a][i], rows[b][i])
        scalar = _scalar_pairwise(rows[a])
        assert np.array_equal(within[a], scalar)
        assert np.array_equal(pairwise_distances(GroupAssessment(tuple(rows[a]))).values, scalar)


@settings(max_examples=25)
@given(judgment_grids())
def test_pipeline_distances_equal_the_scalar_oracles(rows):
    e, m = len(rows), len(rows[0])
    round_input = RoundInput(
        round_label="parity",
        criteria_labels=tuple(f"c{i}" for i in range(m)),
        expert_labels=tuple(f"E{k}" for k in range(e)),
        alternatives={"A": Panel(tuple(GroupAssessment(tuple(r)) for r in rows))},
    )
    report = evaluate_round(round_input).alternatives["A"]
    groups = report.combined
    for a in range(e):
        assert np.array_equal(report.distances[a].values, _scalar_pairwise(groups[a].items))
        for b in range(e):
            expected = group_distance(groups[a], groups[b], report.weights[a]) if a != b else 0.0
            assert report.group_distances[a, b] == expected
    assert np.array_equal(report.divergence, expert_divergence(groups, report.weights))


def test_kernel_at_the_largest_panel_with_every_special_value():
    rng = np.random.default_rng(7)
    pool = SPECIAL + tuple(IFN(mu, nu) for mu, nu in [(0.3, 0.3), (0.05, 0.9), (0.7, 0.1)])
    rows = [[pool[k] for k in rng.integers(len(pool), size=40)] for _ in range(30)]
    rows[5] = rows[4]
    rows[9] = [SPECIAL[0]] * 40
    triples = _triples(rows)
    cross = _all_pairs(triples, 2, 1)
    for a in range(30):
        for b in range(30):
            assert [cross[a, b, i] for i in range(40)] == [
                js_distance(x, y) for x, y in zip(rows[a], rows[b])
            ]


def test_kernel_equals_js_distance_on_many_distinct_pairs():
    # numpy's vectorized log differs from libm in the last place on a small
    # share of inputs, so this takes enough distinct ratios to show it
    rng = np.random.default_rng(11)
    mu_pct = rng.integers(0, 101, size=(2, 20_000))
    mu = mu_pct / 100
    nu = rng.integers(0, 101 - mu_pct) / 100
    mu[:, :5000] = rng.random((2, 5000))
    nu[:, :5000] = rng.random((2, 5000)) * (1.0 - mu[:, :5000])
    triples = mass_triples(mu, nu)
    got = js_distances(triples[:, 0], triples[:, 1]).tolist()
    assert got == [
        js_distance(IFN(a, b), IFN(c, d)) for a, b, c, d in zip(mu[0], nu[0], mu[1], nu[1])
    ]
