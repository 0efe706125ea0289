"""Intuitionistic fuzzy arithmetic.

An intuitionistic fuzzy number (IFN) is a pair (mu, nu) of membership and
non-membership degrees with mu + nu <= 1. The remainder xi = 1 - mu - nu is
the hesitancy, the mass the judge declined to commit either way. This module
holds the atomic operations on single judgments: validation, the reliability
and score summaries, the Z-number transform and its reliability-weighted
combination, information volume, the Jensen-Shannon distance between two
judgments (and its array form over whole stacks of judgment pairs), and the
hesitancy split that turns a judgment into a signed support value.

All types are immutable and all functions are pure, so values can be shared
and evaluated in parallel freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

SUM_TOL = 1e-9  # slack on mu + nu <= 1, absorbs decimal input rounding

_CARDINALITY = 3  # the hesitancy term spreads over {mu, nu, xi}


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
        if not (math.isfinite(mu) and math.isfinite(nu)):
            raise DomainError(f"IFN components must be finite, got ({mu}, {nu})")
        if not (0.0 <= mu <= 1.0 and 0.0 <= nu <= 1.0):
            raise DomainError(f"IFN components must lie in [0, 1], got ({mu}, {nu})")
        if mu + nu > 1.0 + SUM_TOL:
            raise DomainError(f"membership and non-membership sum to {mu + nu} > 1")

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


class SplitStrategy(Enum):
    """How hesitancy mass is divided when forming support values."""

    EQUAL = "equal"
    PROPORTIONAL = "proportional"
    NONE = "none"


def validate(mu: float, nu: float) -> IFN:
    """Construct an IFN from raw components, raising DomainError if invalid."""
    return IFN(float(mu), float(nu))


def reliability(ifn: IFN) -> float:
    """Reliability of a judgment: (1 + mu)(1 - nu) / 2.

    This is the summary the evaluation pipeline uses. It rewards committed
    membership and penalizes committed non-membership, reaching 1 at (1, 0)
    and 0 at (0, 1).
    """
    return 0.5 * (1.0 + ifn.mu) * (1.0 - ifn.nu)


def score(ifn: IFN) -> float:
    """Score of an IFN: (1 + xi)(1 - mu) / 2.

    Exposed for API completeness. The pipeline itself uses reliability();
    the two summaries answer different questions and are easy to confuse,
    so both carry their formula in the name of transparency.
    """
    return 0.5 * (1.0 + ifn.hesitancy) * (1.0 - ifn.mu)


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
    # x log(2x / (x + y)), taken as 0 when x = 0 or x + y = 0 (limit value).
    if x <= 0.0 or x + y <= 0.0:
        return 0.0
    return x * math.log(2.0 * x / (x + y))


def js_distance(a: IFN, b: IFN) -> float:
    """Jensen-Shannon distance between the (mu, nu, xi) mass triples.

    The square root of half the sum of the six divergence terms, in natural
    log form. Symmetric, zero exactly when a == b, and bounded by
    sqrt(ln 2) < 1.
    """
    total = 0.0
    for x, y in (
        (a.mu, b.mu),
        (a.nu, b.nu),
        (a.hesitancy, b.hesitancy),
    ):
        total += _jterm(x, y) + _jterm(y, x)
    # total can dip a hair below zero for identical triples
    return math.sqrt(max(0.5 * total, 0.0))


def mass_triples(mu, nu) -> np.ndarray:
    """Stack membership and non-membership arrays into (mu, nu, xi) along a new first axis."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return np.stack((mu, nu, 1.0 - mu - nu))


def js_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jensen-Shannon distances between aligned stacks of mass triples.

    a and b have shape [3, ...] with (mu, nu, xi) along the first axis, as
    built by mass_triples; the result has the trailing shape. Every entry
    equals js_distance of the corresponding pair bit for bit: the logs come
    from math.log (libm) in one batch over the defined terms, not from
    numpy's vectorized log, which may differ in the last place, and the terms
    are added in js_distance's order.
    """
    x = np.concatenate((a, b))  # x[c] pairs with y[c]: terms t(a, b), then t(b, a)
    y = np.concatenate((b, a))
    s = x + y
    defined = (x > 0.0) & (s > 0.0)
    xs = x[defined]
    ratios = (2.0 * xs / s[defined]).tolist()
    terms = np.zeros(x.shape)
    terms[defined] = xs * np.fromiter(map(math.log, ratios), float, len(ratios))
    total = 0.0 + (terms[0] + terms[3])  # from +0.0, as js_distance starts
    total = total + (terms[1] + terms[4])
    total = total + (terms[2] + terms[5])
    return np.sqrt(np.maximum(0.5 * total, 0.0))


def js_distance_matrices(triples: np.ndarray) -> np.ndarray:
    """Distances between all pairs along the last axis of a [3, ..., k] stack.

    Returns [..., k, k]: symmetric, zero on the diagonal, each pair computed
    once by js_distances and mirrored, which is exact since js_distance is
    symmetric bit for bit.
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
