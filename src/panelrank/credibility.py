"""Cross-expert analysis for one alternative.

Given every expert's group and criterion weights, this module measures how
far each expert sits from the rest (weighted divergence), turns that into a
credibility share, measures how much information each expert's original
judgments carry (information volume), and blends the two into the attitude
character that later drives the OWA weights. The array forms work along the
last (expert or criterion) axis, so the pipeline runs them over every
alternative of a round at once; the per-panel functions share their
arithmetic or, for group distances and information volume, are the
references they are tested against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import eifn, eifn_values, js_distance
from .errors import DegenerateError, DomainError, LengthMismatchError
from .groups import CriterionWeights, GroupAssessment

NORM_TOL = 1e-9

# additive slack keeping the most divergent expert strictly credible
_FLOOR_EPS = 1e-12


@dataclass(frozen=True)
class Panel:
    """All experts' groups for one alternative."""

    groups: tuple[GroupAssessment, ...]

    def __post_init__(self):
        groups = tuple(self.groups)
        if len(groups) < 2:
            raise DomainError("a panel needs at least two experts")
        m = len(groups[0])
        if any(len(g) != m for g in groups):
            raise LengthMismatchError("every expert must judge the same criteria")
        object.__setattr__(self, "groups", groups)


@dataclass(frozen=True, eq=False)
class CredibilityVector:
    """Normalized per-expert credibility shares."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 2:
            raise DomainError("credibility needs one value per expert, two or more")
        if np.any(~np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
            raise DomainError("credibility values must lie in [0, 1]")
        if abs(v.sum() - 1.0) > NORM_TOL:
            raise DomainError(f"credibility must sum to 1, got {v.sum()}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class InfoVolumeVector:
    """Per-expert information volume: raw and normalized, with modified = exp(raw)."""

    raw: np.ndarray
    normalized: np.ndarray
    modified: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=float)
        normalized = np.asarray(self.normalized, dtype=float)
        if raw.shape != normalized.shape or raw.ndim != 1:
            raise LengthMismatchError("info volume components must align")
        if np.any(~np.isfinite(raw)):
            raise DomainError("raw info volume must be finite")
        with np.errstate(over="ignore"):
            modified = np.exp(raw)
        if np.any(~np.isfinite(modified)) or np.any(modified <= 0.0):
            raise DomainError("modified info volume must be finite and positive")
        if np.any(normalized <= 0.0) or abs(normalized.sum() - 1.0) > NORM_TOL:
            raise DomainError("normalized info volume must be positive and sum to 1")
        raw, normalized = raw.copy(), normalized.copy()
        for a in (raw, modified, normalized):
            a.setflags(write=False)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "modified", modified)
        object.__setattr__(self, "normalized", normalized)

    @classmethod
    def from_normalized(cls, normalized: Sequence[float]) -> "InfoVolumeVector":
        """Rebuild a vector from already-normalized shares.

        Useful for feeding externally stated shares through the attitude
        chain. Shares that sum to nearly 1 are renormalized; because the
        attitude computation is scale invariant, that renormalization
        cannot change any downstream result.
        """
        p = np.asarray(normalized, dtype=float)
        if p.ndim != 1 or np.any(~np.isfinite(p)) or np.any(p <= 0.0):
            raise DomainError("normalized shares must be positive and finite")
        return cls(raw=np.log(p), normalized=p / p.sum())

    def __len__(self) -> int:
        return len(self.raw)


@dataclass(frozen=True, eq=False)
class AttitudeVector:
    """Per-expert attitude characters: strictly positive, summing to 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 1:
            raise DomainError("attitude needs at least one value")
        if np.any(~np.isfinite(v)) or np.any(v <= 0.0) or np.any(v >= 1.0):
            raise DomainError("attitude characters must lie strictly in (0, 1)")
        if abs(v.sum() - 1.0) > NORM_TOL:
            raise DomainError(f"attitude characters must sum to 1, got {v.sum()}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def group_distance(a: GroupAssessment, b: GroupAssessment, w: CriterionWeights) -> float:
    """Weighted distance between two expert groups, from a's perspective.

    Sum over criteria of w_i times the judgment distance. The weights come
    from the perspective group, so the measure is directional.
    """
    if len(a) != len(b) or len(w) != len(a):
        raise LengthMismatchError("groups and weights must cover the same criteria")
    total = 0.0
    for wi, x, y in zip(w.weights, a.items, b.items):
        total += wi * js_distance(x, y)
    return float(total)


def expert_divergence(
    groups: Sequence[GroupAssessment], weights: Sequence[CriterionWeights]
) -> np.ndarray:
    """Each expert's total weighted distance to all other experts.

    div[e] = sum over f != e of group_distance(groups[e], groups[f], weights[e]),
    always from e's own criterion weights.
    """
    n = len(groups)
    if len(weights) != n:
        raise LengthMismatchError("one weight vector per expert required")
    div = np.zeros(n)
    for e in range(n):
        for f in range(n):
            if f != e:
                div[e] += group_distance(groups[e], groups[f], weights[e])
    div.setflags(write=False)
    return div


def group_distance_matrix(cross: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every directional group distance of a panel at once.

    cross[e, f, m] is the judgment distance between experts e and f on
    criterion m, weights[e, m] is expert e's weight for criterion m, and
    gd[e, f] is group_distance(group_e, group_f, weights_e), summed over the
    criteria in one reduction. Its order of adds may differ from
    group_distance's, so the two agree to rounding, not bit for bit.
    """
    gd = np.einsum("efm,em->ef", cross, weights)
    gd.setflags(write=False)
    return gd


def divergence_from_group_distances(gd: np.ndarray) -> np.ndarray:
    """Row sums of [..., E, E] group distance matrices with a zero diagonal.

    The divergence expert_divergence gives for the panel a matrix came
    from, to rounding: the zero diagonal entry adds nothing to a sum.
    """
    return gd.sum(axis=-1)


def credibility(div: Sequence[float], credibility_floor: float = 1.0) -> CredibilityVector:
    """Turn divergences into credibility shares: low divergence, high share.

    CR_e = max(div) - div[e] + floor, normalized, where the floor is
    credibility_floor times max(div) plus a tiny absolute slack. The floor
    keeps even the most divergent expert strictly credible; at 0 that expert
    would be erased from the attitude chain entirely. The default 1.0 keeps
    shares near-uniform, which is the regime the reference outcomes pin
    down; pass a smaller value for sharper discounting.
    """
    values = np.asarray(div, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise DomainError("divergence needs one value per expert, two or more")
    if np.any(~np.isfinite(values)) or np.any(values < 0.0):
        raise DomainError("divergences must be finite and non-negative")
    if not (np.isfinite(credibility_floor) and credibility_floor >= 0.0):
        raise DomainError("credibility_floor must be non-negative")
    return CredibilityVector(credibility_shares(values, credibility_floor))


def credibility_shares(div: np.ndarray, credibility_floor: float) -> np.ndarray:
    """The arithmetic of credibility along the last axis of [..., E] divergences."""
    top = div.max(axis=-1, keepdims=True)
    raw = top - div + (credibility_floor * top + _FLOOR_EPS)
    return raw / raw.sum(axis=-1, keepdims=True)


def group_information_volume(group: GroupAssessment) -> float:
    """Total information volume of a group's original judgments."""
    return float(sum(eifn(item) for item in group.items))


def information_volumes(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """group_information_volume of every group in [..., M] arrays of judgments.

    Adds the judgments' volumes in criterion order, as the scalar function
    does. Those volumes come from eifn_values, whose logs may differ from
    eifn's in the last place; every volume is non-negative, so a group's
    total is then within 4 M float eps relative of the scalar one.
    """
    # accumulate adds in order, where a sum would add pairwise
    return np.add.accumulate(eifn_values(mu, nu), axis=-1)[..., -1]


def modified_info_volume(raw: Sequence[float]) -> InfoVolumeVector:
    """Softmax the raw volumes into shares.

    normalized[e] = exp(raw[e]) / sum_f exp(raw[f]), computed max-shifted
    for numeric stability (shift invariance makes that exact).
    """
    values = np.asarray(raw, dtype=float)
    if values.ndim != 1 or np.any(~np.isfinite(values)):
        raise DomainError("raw info volumes must be finite")
    return InfoVolumeVector(raw=values, normalized=info_shares(values))


def info_shares(raw: np.ndarray) -> np.ndarray:
    """The max-shifted softmax of modified_info_volume along the last axis of [..., E]."""
    shifted = np.exp(raw - raw.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def attitude_characters(iv: InfoVolumeVector, cr: CredibilityVector) -> AttitudeVector:
    """Blend information volume and credibility into attitude characters.

    alpha_e is the normalized product iv.normalized[e] * cr[e]. Because the
    output is normalized, scaling either input uniformly cannot change it.
    """
    if len(iv) != len(cr):
        raise LengthMismatchError("info volume and credibility must align")
    return AttitudeVector(attitude_shares(iv.normalized, cr.values))


def attitude_shares(normalized: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """The arithmetic of attitude_characters along the last axis of [..., E] shares."""
    product = normalized * cr
    total = product.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        # unreachable with a positive floor and exp, asserted defensively
        raise DegenerateError("all credibility-volume products vanished")
    return product / total
