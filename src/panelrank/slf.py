"""Soft likelihood evaluation.

The attitude character of an expert sets a sharpness exponent, the exponent
generates OWA weights over ordered positions, and those weights average the
cumulative products of the expert's sorted support values dp = mu - nu. A
large sharpness pushes weight toward long products (conjunctive, demanding),
a small one toward the single best support value (disjunctive, lenient).
Per-expert results are scaled into a gross estimation per alternative, and
alternatives are ranked by it. Each step runs over every group of a round at
once; the per-group references it is tested against are in
tests/oracles/chain.py.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum

import numpy as np

from .core import SplitStrategy
from .errors import DomainError


class DpSource(Enum):
    """Which form of the judgments feeds the support values."""

    ORIGINAL = "original"
    COMBINED = "combined"


def owa_matrix(k: int, p: float | np.ndarray) -> np.ndarray:
    """OWA weights for a sharpness p, or each of an array of them: [..., k].

    w_j = (j/k)^P - ((j-1)/k)^P for j = 1..k. The powers telescope, so the
    weights sum to 1 by construction. P > 1 concentrates weight on late
    positions (long products), P < 1 on early ones, P = 1 is uniform. The
    powers go through np.power with a full [..., k + 1] exponent array, so
    each row is the same bit for bit alone or in a batch: np.power squares
    an exponent of 2 that repeats along its inner loop, as ** does a scalar
    2. P = 0 gives its limit, all weight on the first position, where 0 ** 0
    would give none; P = inf gives all weight on the last.
    """
    grid = np.arange(k + 1) / k
    powers = np.power(grid, np.repeat(np.asarray(p, dtype=float)[..., None], k + 1, axis=-1))
    powers[..., 0] = 0.0  # 0 ** P for every P > 0
    return np.diff(powers, axis=-1)


def support_arrays(mu: np.ndarray, nu: np.ndarray, strategy: SplitStrategy) -> np.ndarray:
    """Unsorted support values dp = mu' - nu' of every group in [..., M] arrays of judgments.

    The hesitancy is split back onto (mu, nu) first. Equal gives each side
    half, which keeps mu - nu bit-identical. Proportional allocates in the
    ratio mu : nu, falling back to Equal when both are zero. None leaves the
    judgment untouched. Each entry has the arithmetic of the references
    split_hesitancy and support_values, so bit for bit what they give.
    """
    if strategy is SplitStrategy.NONE:
        return mu - nu
    xi = 1.0 - mu - nu
    mu2 = mu + 0.5 * xi
    dp = mu2 - (mu2 - (mu - nu))
    if strategy is SplitStrategy.PROPORTIONAL:
        committed = mu + nu
        split = committed > 0.0
        mu2 = mu + xi * mu / np.where(split, committed, 1.0)
        dp = np.where(split, mu2 - (1.0 - mu2), dp)
    return dp


def sorted_supports(dp: np.ndarray) -> np.ndarray:
    """Each row of [..., M] support values sorted descending.

    The sort is stable, so tied values keep their criterion order.
    """
    order = np.argsort(-dp, axis=-1, kind="stable")
    return np.take_along_axis(dp, order, axis=-1)


def soft_likelihoods(series: np.ndarray, owa: np.ndarray) -> np.ndarray:
    """The soft likelihood of each row of [..., M] sorted supports under [..., M] OWA weights.

    The OWA-weighted sum of cumulative products: with weight on the first
    position only it is max dp, on the last only the full product, the
    classical likelihood. matmul takes each inner product as np.dot does,
    bit for bit; a summing reduction would add in another order.
    """
    partials = np.cumprod(series, axis=-1)
    return np.matmul(owa[..., None, :], partials[..., :, None])[..., 0, 0]


def gross_estimations(dslf_values: np.ndarray) -> np.ndarray:
    """Gross estimations: the sum of [..., E] soft likelihoods over 0.01 E.

    That is each expert's value amplified a hundredfold and averaged, so the
    scale does not drift with the expert count.
    """
    return dslf_values.sum(axis=-1) / (0.01 * dslf_values.shape[-1])


def rank(ge: Mapping[str, float]) -> tuple[str, ...]:
    """Labels sorted by gross estimation descending, ties lexicographic."""
    if not ge:
        raise DomainError("nothing to rank")
    return tuple(sorted(ge, key=lambda label: (-ge[label], label)))


def ge_ties(ge: Mapping[str, float]) -> tuple[str, ...]:
    """Labels whose gross estimation exactly equals another label's."""
    tied = []
    for label, value in ge.items():
        if any(other != label and ge[other] == value for other in ge):
            tied.append(label)
    return tuple(sorted(tied))
