"""Within-group structure: criterion weights for every expert's row of judgments.

A group is one expert's ordered judgments over the criteria for a single
alternative. The chain runs pairwise distances -> closeness similarity ->
pairwise preference -> points -> criterion weights: a criterion judged close
to its peers is typical, typical judgments win pairwise comparisons, and the
wins are normalized into weights. weigh_groups runs it over every group of a
round at once, from the row sums of the core kernel's distances.
"""

from __future__ import annotations

import numpy as np


def weigh_groups(row_sums: np.ndarray, tie_epsilon: float):
    """The similarity chain of every group in a [..., M] stack of distance row sums.

    Closeness similarity SM_i = (M - 1) / sum_k d[i][k], from the row sums of
    a group's distance matrix, points as the count of j with
    SM_i > SM_j + tie_epsilon, and weights as points over their total, with
    the arithmetic of the per-group references in
    tests/oracles/chain.py. A group holding a judgment identical to every
    other one (a zero row sum) takes the fallback: infinite similarity on
    its zero rows, no points and uniform weights. A group whose comparisons
    all tie also gets uniform weights.
    Returns similarities, points and weights [..., M], and two masks [...]
    over groups: identical judgments, and uniform weights for either reason.
    """
    m = row_sums.shape[-1]
    with np.errstate(divide="ignore"):
        sm = (m - 1) / row_sums
    identical = np.any(row_sums == 0.0, axis=-1)
    # an identical group's comparisons are computed, on its infinite rows,
    # and then discarded
    wins = sm[..., :, None] > sm[..., None, :] + tie_epsilon
    po = np.where(identical[..., None], 0, wins.sum(axis=-1))
    total = po.sum(axis=-1, keepdims=True)
    uniform = total == 0
    weights = np.where(uniform, 1.0 / m, po / np.where(uniform, 1, total))
    return sm, po, weights, identical, uniform[..., 0]
