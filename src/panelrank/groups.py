"""Within-group structure for one expert's row of judgments.

A group is one expert's ordered judgments over the criteria for a single
alternative. The chain here runs pairwise distances -> closeness similarity
-> pairwise preference matrix -> points -> criterion weights: a criterion
judged close to its peers is typical, typical judgments win pairwise
comparisons, and the wins are normalized into weights.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import IFN, js_distance_matrices, mass_triples
from .errors import DegenerateGroupError, DomainError


def _frozen(values) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupAssessment:
    """One expert's ordered judgments over the criteria.

    Labels default to x1..xM when not supplied.
    """

    items: tuple[IFN, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise DomainError("a group needs at least one judgment")
        if any(not isinstance(i, IFN) for i in items):
            raise DomainError("group items must be IFNs")
        object.__setattr__(self, "items", items)
        labels = tuple(str(l) for l in self.labels)
        if not labels:
            labels = tuple(f"x{i + 1}" for i in range(len(items)))
        if len(labels) != len(items):
            raise DomainError("one label per judgment required")
        if len(set(labels)) != len(labels):
            raise DomainError("criterion labels must be unique")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise distances with zero diagonal, entries in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DomainError("distance matrix must be square")
        if np.any(np.diag(v) != 0.0):
            raise DomainError("distance matrix diagonal must be zero")
        if not np.array_equal(v, v.T):
            raise DomainError("distance matrix must be symmetric")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise DomainError("distances must lie in [0, 1]")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class PreferenceMatrix:
    """Binary pairwise dominance: values[i][j] = 1 when i beats j.

    Off-diagonal mirror pairs sum to 1, or to 0 when the pair is tied.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=int)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DomainError("preference matrix must be square")
        if np.any((v != 0) & (v != 1)):
            raise DomainError("preference entries must be 0 or 1")
        if np.any(np.diag(v) != 0):
            raise DomainError("preference diagonal must be zero")
        if np.any(v + v.T > 1):
            raise DomainError("mirror preference entries cannot both be 1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class CriterionWeights:
    """Non-negative weights over criteria, normalized to sum 1.

    degenerate marks the uniform fallback used when every pairwise
    comparison tied and no points were scored.
    """

    weights: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DomainError("weights must be a flat sequence")
        if np.any(~np.isfinite(w)) or np.any(w < 0.0):
            raise DomainError("weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {w.sum()}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


def pairwise_distances(group: GroupAssessment) -> DistanceMatrix:
    """All pairwise Jensen-Shannon distances within a group."""
    m = len(group)
    if m < 2:
        raise DomainError("pairwise distances need at least two judgments")
    triples = mass_triples([i.mu for i in group.items], [i.nu for i in group.items])
    return DistanceMatrix(js_distance_matrices(triples))


def closeness_similarity(d: DistanceMatrix) -> np.ndarray:
    """Closeness centrality of each judgment: SM_i = (M - 1) / sum_k d[i][k].

    A judgment close to its peers scores high. Raises DegenerateGroupError
    when some judgment is identical to every other one (zero row sum), in
    which case the caller should fall back to uniform weights.
    """
    m = d.values.shape[0]
    if m < 2:
        raise DomainError("similarity needs at least two judgments")
    row_sums = d.values.sum(axis=1)
    if np.any(row_sums == 0.0):
        raise DegenerateGroupError("a judgment is identical to every other in its group")
    return _frozen((m - 1) / row_sums)


def preference_matrix(sm: Sequence[float], tie_epsilon: float = 1e-12) -> PreferenceMatrix:
    """Pairwise dominance from similarities: pr[i][j] = 1 iff sm[i] > sm[j] + eps.

    Within tie_epsilon the pair is tied and both mirror entries stay 0.
    """
    values = np.asarray(sm, dtype=float)
    if np.any(~np.isfinite(values)) or np.any(values <= 0.0):
        raise DomainError("similarities must be finite and positive")
    if not (np.isfinite(tie_epsilon) and tie_epsilon > 0.0):
        raise DomainError("tie_epsilon must be positive")
    wins = values[:, None] > values[None, :] + tie_epsilon
    return PreferenceMatrix(wins.astype(int))


def points(pm: PreferenceMatrix) -> np.ndarray:
    """Row sums of the preference matrix: pairwise wins per criterion."""
    out = pm.values.sum(axis=1)
    out.setflags(write=False)
    return out


def criterion_weights(po: Sequence[int]) -> CriterionWeights:
    """Normalize points into weights; uniform fallback when all points are 0."""
    values = np.asarray(po, dtype=float)
    if np.any(~np.isfinite(values)) or np.any(values < 0.0):
        raise DomainError("points must be finite and non-negative")
    total = values.sum()
    if total == 0.0:
        m = len(values)
        return CriterionWeights(np.full(m, 1.0 / m), degenerate=True)
    return CriterionWeights(values / total)
