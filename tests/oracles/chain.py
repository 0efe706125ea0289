"""The scalar reference chain: one judgment, one group, one panel at a time.

These are the per-judgment, per-group and per-expert forms of every stage
of the framework, from the IFN and its Z-number to the soft likelihood and
the gross estimation, with the validated types that carry one group or one
panel between them. The library runs each stage once over a round's arrays;
these functions compute the same quantities the slow, readable way, and the
tests hold the array stages to them, bit for bit or within the bounds their
docstrings state. Each type checks its values as it is built, so a test can
also ask whether a report's rows are values the chain could have produced.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from panelrank.core import (
    _CARDINALITY,
    _LOG1P_BELOW,
    _PASS_PAIRS,
    PairScratch,
    SplitStrategy,
    _pair_pass,
    ifn_fault,
    mass_triples,
)
from panelrank.credibility import NORM_TOL, attitude_shares, credibility_shares, info_shares
from panelrank.errors import DomainError, LengthMismatchError, PanelRankError
from panelrank.slf import gross_estimations, owa_matrix


class DegenerateGroupError(PanelRankError):
    """A judgment is identical to every other in its group.

    Such a judgment has zero total distance, so closeness similarity is
    undefined; callers fall back to uniform criterion weights.
    """


# judgments: the IFN, its Z-number and information volume, distances, supports


@dataclass(frozen=True)
class IFN:
    """An intuitionistic fuzzy number: (membership, non-membership)."""

    mu: float
    nu: float

    def __post_init__(self):
        mu, nu = self.mu, self.nu
        if not (isinstance(mu, float) and isinstance(nu, float)):
            object.__setattr__(self, "mu", float(mu))
            object.__setattr__(self, "nu", float(nu))
            mu, nu = self.mu, self.nu
        fault = ifn_fault(mu, nu)
        if fault is not None:
            raise DomainError(fault)

    @property
    def hesitancy(self) -> float:
        """The undecided mass xi = 1 - mu - nu."""
        return 1.0 - self.mu - self.nu


@dataclass(frozen=True)
class ZJudgment:
    """An IFN paired with the reliability of the judgment behind it."""

    ifn: IFN
    reliability: float

    def __post_init__(self):
        if not (math.isfinite(self.reliability) and 0.0 <= self.reliability <= 1.0):
            raise DomainError(f"reliability must lie in [0, 1], got {self.reliability}")


def reliability(ifn: IFN) -> float:
    """Reliability of a judgment: (1 + mu)(1 - nu) / 2.

    It rewards committed membership and penalizes committed non-membership,
    reaching 1 at (1, 0) and 0 at (0, 1).
    """
    return 0.5 * (1.0 + ifn.mu) * (1.0 - ifn.nu)


def to_z(ifn: IFN) -> ZJudgment:
    """Pair an IFN with its own reliability, forming a Z-number."""
    return ZJudgment(ifn, reliability(ifn))


def combine(z: ZJudgment) -> IFN:
    """Fold reliability back into the judgment: (mu r, nu r).

    The result is always a valid IFN since r <= 1 shrinks both components
    toward total hesitancy.
    """
    return IFN(z.ifn.mu * z.reliability, z.ifn.nu * z.reliability)


def eifn(ifn: IFN) -> float:
    """Information volume of a single IFN, in bits.

    Defined as -(mu log2 mu + nu log2 nu + xi log2(xi / 3)), with the
    convention 0 log 0 = 0. The hesitancy term is spread over the three
    possible resolutions of the undecided mass, which is why the maximum
    log2(5) sits at (0.2, 0.2) rather than at the uniform triple.
    """
    total = 0.0
    for p, q in (
        (ifn.mu, ifn.mu),
        (ifn.nu, ifn.nu),
        (ifn.hesitancy, ifn.hesitancy / _CARDINALITY),
    ):
        if p > 0.0 and q > 0.0:
            total -= p * math.log2(q)
    return total


def _jterm(x: float, y: float) -> float:
    # x log(2x / (x + y)), taken as 0 when x <= 0 or x + y <= 0 (limit value),
    # with the log split at _LOG1P_BELOW
    s = x + y
    if x <= 0.0 or s <= 0.0:
        return 0.0
    q = (x - y) / s
    if abs(q) < _LOG1P_BELOW:
        return x * math.log1p(q)
    return x * math.log(2.0 * x / s)


def js_distance(a: IFN, b: IFN) -> float:
    """Jensen-Shannon distance between the (mu, nu, xi) mass triples.

    The square root of half the sum of the six divergence terms, in natural
    log form. Each component's two terms are added first, so swapping a and
    b gives the same value bit for bit. Zero exactly when a == b, bounded by
    sqrt(ln 2) < 1, and within 1e-15 of the exact distance.
    """
    total = (
        (_jterm(a.mu, b.mu) + _jterm(b.mu, a.mu))
        + (_jterm(a.nu, b.nu) + _jterm(b.nu, a.nu))
        + (_jterm(a.hesitancy, b.hesitancy) + _jterm(b.hesitancy, a.hesitancy))
    )
    # total can dip a hair below zero for identical triples
    return math.sqrt(max(0.5 * total, 0.0))


def js_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jensen-Shannon distances between aligned stacks of mass triples.

    a and b have shape [3, ...] with (mu, nu, xi) along the first axis, as
    built by mass_triples; the result has the trailing shape. Each term takes
    its log as js_distance does, log1p of the offset near x = y and log of
    the ratio elsewhere, through numpy's vectorized log and log1p, and each
    component's two terms are added first, so every entry is symmetric in a
    and b bit for bit and within 1e-15 of the exact distance. It may differ
    from js_distance in the last place, where numpy's log and libm's do.
    The pairs go through the kernel of the round passes, _PASS_PAIRS at a
    time.
    """
    shape = np.shape(a)[1:]
    n = math.prod(shape)
    flat = np.concatenate((np.reshape(a, (3, n)), np.reshape(b, (3, n))), axis=1)
    out = np.empty(n)
    scratch = PairScratch(n)
    for start in range(0, n, _PASS_PAIRS):
        first = np.arange(start, min(start + _PASS_PAIRS, n))
        _pair_pass(scratch, flat, first, first + n, out[start : start + _PASS_PAIRS])
    return out.reshape(shape)


def js_distance_matrices(triples: np.ndarray) -> np.ndarray:
    """Distances between all pairs along the last axis of a [3, ..., k] stack.

    Returns [..., k, k]: symmetric, zero on the diagonal, each pair computed
    once by js_distances and mirrored, which is exact since js_distances is
    symmetric bit for bit. The per-alternative reference of the round
    passes.
    """
    k = triples.shape[-1]
    rows, cols = np.triu_indices(k, 1)
    out = np.zeros(triples.shape[1:] + (k,))
    out[..., rows, cols] = out[..., cols, rows] = js_distances(
        triples[..., rows], triples[..., cols]
    )
    return out


def split_hesitancy(ifn: IFN, strategy: SplitStrategy) -> tuple[float, float]:
    """Distribute the hesitancy mass back onto (mu, nu).

    Equal gives each side half, which keeps mu - nu bit-identical.
    Proportional allocates in the ratio mu : nu, falling back to Equal when
    both are zero. None returns the components untouched. Under Equal and
    Proportional the result sums to 1.
    """
    if strategy is SplitStrategy.NONE:
        return (ifn.mu, ifn.nu)
    xi = ifn.hesitancy
    if strategy is SplitStrategy.PROPORTIONAL and ifn.mu + ifn.nu > 0.0:
        mu2 = ifn.mu + xi * ifn.mu / (ifn.mu + ifn.nu)
        return (mu2, 1.0 - mu2)
    # equal split, phrased so that mu' - nu' == mu - nu exactly
    mu2 = ifn.mu + 0.5 * xi
    return (mu2, mu2 - (ifn.mu - ifn.nu))

# groups: one expert's row of judgments, from distances to criterion weights


def _frozen(values) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupAssessment:
    """One expert's ordered judgments over the criteria.

    The criteria are named by the round the group belongs to.
    """

    items: tuple[IFN, ...]

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise DomainError("a group needs at least one judgment")
        if any(not isinstance(i, IFN) for i in items):
            raise DomainError("group items must be IFNs")
        object.__setattr__(self, "items", items)

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

# panels: every expert's group for one alternative, from divergence to attitude


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
    """Per-expert attitude characters in [0, 1], summing to 1.

    A share far above the rest rounds to 1 and one far below to 0; the
    sharpness of such a row is then out of this chain's reach.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 1:
            raise DomainError("attitude needs at least one value")
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise DomainError("attitude characters must lie in [0, 1]")
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


def group_information_volume(group: GroupAssessment) -> float:
    """Total information volume of a group's original judgments."""
    return float(sum(eifn(item) for item in group.items))


def modified_info_volume(raw: Sequence[float]) -> InfoVolumeVector:
    """Softmax the raw volumes into shares.

    normalized[e] = exp(raw[e]) / sum_f exp(raw[f]), computed max-shifted
    for numeric stability (shift invariance makes that exact).
    """
    values = np.asarray(raw, dtype=float)
    if values.ndim != 1 or np.any(~np.isfinite(values)):
        raise DomainError("raw info volumes must be finite")
    return InfoVolumeVector(raw=values, normalized=info_shares(values))


def attitude_characters(iv: InfoVolumeVector, cr: CredibilityVector) -> AttitudeVector:
    """Blend information volume and credibility into attitude characters.

    alpha_e is the normalized product iv.normalized[e] * cr[e]. Because the
    output is normalized, scaling either input uniformly cannot change it.
    """
    if len(iv) != len(cr):
        raise LengthMismatchError("info volume and credibility must align")
    return AttitudeVector(attitude_shares(iv.normalized, cr.values))

# soft likelihood: sharpness, OWA weights, series, dslf and gross estimation


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


def dslf(series: LikelihoodSeries, w: OwaWeights) -> float:
    """Soft likelihood: the OWA-weighted sum of cumulative products.

    With weight on the first position only this is max dp; with weight on
    the last position only it is the full product, the classical likelihood.
    """
    if len(series) != len(w):
        raise LengthMismatchError("series and weights must have equal length")
    return float(np.dot(w.w, series.partials))


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
