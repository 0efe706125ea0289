"""Soft likelihood evaluation.

The attitude character of an expert sets a sharpness exponent, the exponent
generates OWA weights over ordered positions, and those weights average the
cumulative products of the expert's sorted support values dp = mu - nu. A
large sharpness pushes weight toward long products (conjunctive, demanding),
a small one toward the single best support value (disjunctive, lenient).
Per-expert results are scaled into a gross estimation per alternative, and
alternatives are ranked by it. The array forms run each step over every
group of a round at once with the arithmetic of the per-group functions,
which are their references.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import SplitStrategy, split_hesitancy
from .errors import DomainError, LengthMismatchError
from .groups import GroupAssessment


class DpSource(Enum):
    """Which form of the judgments feeds the support values."""

    ORIGINAL = "original"
    COMBINED = "combined"


@dataclass(frozen=True)
class Sharpness:
    """The OWA exponent P = (1 - alpha) / alpha, strictly positive."""

    p: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 0.0):
            raise DomainError(f"sharpness must be a positive real, got {self.p}")


@dataclass(frozen=True, eq=False)
class OwaWeights:
    """Non-negative ordered weights summing to 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or len(w) < 1:
            raise DomainError("OWA weights must be a non-empty flat sequence")
        if np.any(~np.isfinite(w)) or np.any(w < 0.0):
            raise DomainError("OWA weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise DomainError(f"OWA weights must sum to 1, got {w.sum()}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return len(self.w)


@dataclass(frozen=True, eq=False)
class LikelihoodSeries:
    """Support values sorted descending, with their cumulative products."""

    dp: np.ndarray
    partials: np.ndarray = field(init=False)

    def __post_init__(self):
        dp = np.asarray(self.dp, dtype=float)
        if dp.ndim != 1 or len(dp) < 1:
            raise DomainError("support values must be a non-empty flat sequence")
        if np.any(np.abs(dp) > 1.0 + 1e-9):
            raise DomainError("support values must lie in [-1, 1]")
        if np.any(np.diff(dp) > 0.0):
            raise DomainError("support values must be sorted descending")
        dp = dp.copy()
        partials = np.cumprod(dp)
        for a in (dp, partials):
            a.setflags(write=False)
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "partials", partials)

    def __len__(self) -> int:
        return len(self.dp)


def sharpness(alpha: float) -> Sharpness:
    """Sharpness exponent from an attitude character in (0, 1)."""
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"attitude character must lie in (0, 1), got {alpha}")
    return Sharpness((1.0 - alpha) / alpha)


def owa_weights(k: int, s: Sharpness) -> OwaWeights:
    """OWA weights w_j = (j/k)^P - ((j-1)/k)^P for j = 1..k.

    The powers telescope, so the weights sum to 1 by construction. P > 1
    concentrates weight on late positions (long products), P < 1 on early
    ones, P = 1 is uniform.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"series length must be a positive integer, got {k}")
    return OwaWeights(owa_matrix(k, s.p))


def owa_matrix(k: int, p: float | np.ndarray) -> np.ndarray:
    """The owa_weights arithmetic for a sharpness p, or each of an array of them: [..., k].

    The powers go through np.power with an array exponent, so each row is
    the same bit for bit whether its sharpness comes alone or in a batch;
    the ** operator takes square and sqrt shortcuts for a scalar 2 or 0.5.
    """
    grid = np.arange(k + 1) / k
    return np.diff(np.power(grid, np.asarray(p)[..., None]), axis=-1)


def support_values(group: GroupAssessment, strategy: SplitStrategy) -> np.ndarray:
    """Unsorted support values dp = mu' - nu', one per criterion in order.

    The hesitancy split of the chosen strategy is applied to each judgment
    and the signed margin taken. For supports of the combined judgments,
    pass the group of combine(to_z(item)).
    """
    items = group.items
    out = np.empty(len(items))
    for i, item in enumerate(items):
        mu2, nu2 = split_hesitancy(item, strategy)
        out[i] = mu2 - nu2
    out.setflags(write=False)
    return out


def support_arrays(mu: np.ndarray, nu: np.ndarray, strategy: SplitStrategy) -> np.ndarray:
    """support_values of every group in [..., M] arrays of judgments.

    Each entry has the arithmetic of split_hesitancy and support_values,
    so bit for bit what they give.
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


def dp_values(group: GroupAssessment, strategy: SplitStrategy) -> LikelihoodSeries:
    """Sorted support values of a group with cumulative products filled in."""
    return likelihood_series(support_values(group, strategy))


def likelihood_series(dp: np.ndarray) -> LikelihoodSeries:
    """Sort unsorted support values into a series with cumulative products.

    Sorting is strictly descending and stable, so tied values keep their
    original criterion order.
    """
    order = np.argsort(-dp, kind="stable")
    return LikelihoodSeries(dp[order])


def sorted_supports(dp: np.ndarray) -> np.ndarray:
    """Each row of [..., M] support values sorted as likelihood_series sorts it."""
    order = np.argsort(-dp, axis=-1, kind="stable")
    return np.take_along_axis(dp, order, axis=-1)


def dslf(series: LikelihoodSeries, w: OwaWeights) -> float:
    """Soft likelihood: the OWA-weighted sum of cumulative products.

    With weight on the first position only this is max dp; with weight on
    the last position only it is the full product, the classical likelihood.
    """
    if len(series) != len(w):
        raise LengthMismatchError("series and weights must have equal length")
    return float(np.dot(w.w, series.partials))


def soft_likelihoods(series: np.ndarray, owa: np.ndarray) -> np.ndarray:
    """dslf of every row of [..., M] sorted supports under [..., M] OWA weights.

    matmul takes each inner product as np.dot does, bit for bit; a summing
    reduction would add in another order.
    """
    partials = np.cumprod(series, axis=-1)
    return np.matmul(owa[..., None, :], partials[..., :, None])[..., 0, 0]


def gross_estimation(dslf_per_expert: Sequence[float]) -> float:
    """Scaled panel total: sum of per-expert soft likelihoods over 0.01 E.

    Equivalent to amplifying each expert's value a hundredfold and
    averaging, so the scale does not drift with the expert count.
    """
    values = np.asarray(dslf_per_expert, dtype=float)
    if values.ndim != 1 or len(values) < 1:
        raise DomainError("gross estimation needs at least one expert value")
    if np.any(~np.isfinite(values)):
        raise DomainError("expert values must be finite")
    return float(gross_estimations(values))


def gross_estimations(dslf_values: np.ndarray) -> np.ndarray:
    """The gross_estimation arithmetic along the last axis of [..., E] soft likelihoods."""
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
