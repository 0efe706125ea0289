"""Intuitionistic fuzzy arithmetic.

An intuitionistic fuzzy number (IFN) is a pair (mu, nu) of membership and
non-membership degrees with mu + nu <= 1. The remainder xi = 1 - mu - nu is
the hesitancy, the mass the judge declined to commit either way. This module
holds the atomic operations on single judgments: validation, the reliability
summary, the Z-number transform and its reliability-weighted combination,
information volume, the Jensen-Shannon distance between two judgments, and
the hesitancy split that turns a judgment into a signed support value. The
Z-number transform, information volume and distance also come in array
forms over whole stacks of judgments, which the pipeline uses; the scalar
forms are their reference.

All types are immutable and all functions are pure, so values can be shared
and evaluated in parallel freely.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

SUM_TOL = 1e-9  # slack on mu + nu <= 1, absorbs decimal input rounding

_CARDINALITY = 3  # the hesitancy term spreads over {mu, nu, xi}

# A Jensen-Shannon term x log(2x / (x + y)) takes its log as log1p(q) of the
# offset q = (x - y) / (x + y) while |q| is below this, and as the log of the
# ratio elsewhere. Near q = 0 the log magnifies the ratio's rounding error, and
# near q = -1 log1p magnifies q's; at |q| = 1/2 each costs about an ulp.
_LOG1P_BELOW = 0.5


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


def ifn_fault(mu: float, nu: float) -> str | None:
    """Why IFN rejects the pair (mu, nu), or None if it accepts it."""
    if not (math.isfinite(mu) and math.isfinite(nu)):
        return f"IFN components must be finite, got ({mu}, {nu})"
    if not (0.0 <= mu <= 1.0 and 0.0 <= nu <= 1.0):
        return f"IFN components must lie in [0, 1], got ({mu}, {nu})"
    if mu + nu > 1.0 + SUM_TOL:
        return f"membership and non-membership sum to {mu + nu} > 1"
    return None


def first_ifn_fault(pairs: np.ndarray) -> tuple[tuple[int, ...], str] | None:
    """The first pair IFN rejects in a [..., 2] array of (mu, nu), with why.

    Returns its index in C order and ifn_fault's message, or None when IFN
    accepts every pair. One pass of comparisons over the whole array.
    """
    mu, nu = pairs[..., 0], pairs[..., 1]
    with np.errstate(invalid="ignore"):  # inf + -inf is a NaN, rejected below
        valid = (mu >= 0.0) & (mu <= 1.0) & (nu >= 0.0) & (nu <= 1.0) & (mu + nu <= 1.0 + SUM_TOL)
    if valid.all():
        return None
    index = tuple(np.argwhere(~valid)[0].tolist())
    return index, ifn_fault(*pairs[index].tolist())


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


def z_arrays(mu: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """to_z and combine over arrays of membership and non-membership degrees.

    Returns z [..., 3] holding (mu, nu, reliability) and combined [..., 2]
    holding (mu r, nu r), each entry by the arithmetic of reliability and
    combine, so bit for bit what they give.
    """
    r = 0.5 * (1.0 + mu) * (1.0 - nu)
    return np.stack((mu, nu, r), axis=-1), np.stack((mu * r, nu * r), axis=-1)


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


def eifn_values(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """eifn over arrays of membership and non-membership degrees.

    The terms are taken and subtracted in eifn's order, but the logs are
    numpy's log2, which differs from libm's in the last place on a small
    share of arguments. With numpy 2.4 on an x86-64 host with AVX-512, 6 of
    the 5151 judgments on a 0.01 grid came out different, by at most 0.8
    float eps relative, and 166 of 200,000 uniform random judgments by at
    most 1.7 eps. The bound is 2 eps.
    """
    xi = 1.0 - mu - nu
    total = np.zeros(np.shape(mu))
    for p, q in ((mu, mu), (nu, nu), (xi, xi / _CARDINALITY)):
        defined = (p > 0.0) & (q > 0.0)
        total = total - np.where(defined, p * np.log2(np.where(defined, q, 1.0)), 0.0)
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


def mass_triples(mu, nu) -> np.ndarray:
    """Stack membership and non-membership arrays into (mu, nu, xi) along a new first axis."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return np.stack((mu, nu, 1.0 - mu - nu))


def js_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jensen-Shannon distances between aligned stacks of mass triples.

    a and b have shape [3, ...] with (mu, nu, xi) along the first axis, as
    built by mass_triples; the result has the trailing shape. Each term takes
    its log as js_distance does, log1p of the offset near x = y and log of
    the ratio elsewhere, through numpy's vectorized log and log1p over the
    whole term stack, and each component's two terms are added first, so
    every entry is symmetric in a and b bit for bit and within 1e-15 of the
    exact distance. It may differ from js_distance in the last place, where
    numpy's log and libm's do.
    """
    x = np.concatenate((a, b))  # x[c] pairs with y[c]: terms t(a, b), then t(b, a)
    y = np.concatenate((b, a))
    s = x + y
    defined = (x > 0.0) & (s > 0.0)
    np.copyto(s, 1.0, where=~defined)
    # the same operations as (x - y) / s, log1p(q) + log(2 x / s) and x * logs,
    # each written into a buffer whose old value is spent, so that the term
    # stack holds four float arrays at a time
    q = np.subtract(x, y, out=y)
    q /= s
    near = defined & (np.abs(q) < _LOG1P_BELOW)
    # every log gets a safe argument; where its branch is not taken the
    # argument is 0 for log1p and 1 for log, so the unused log is exactly 0
    logs = np.where(near, q, 0.0)
    np.log1p(logs, out=logs)
    ratio = np.multiply(2.0, x, out=q)
    ratio /= s
    np.copyto(ratio, 1.0, where=near | ~defined)
    logs += np.log(ratio, out=ratio)
    terms = np.multiply(x, logs, out=logs)  # undefined terms: x * 0.0, a zero
    total = (terms[0] + terms[3]) + (terms[1] + terms[4]) + (terms[2] + terms[5])
    return np.sqrt(np.maximum(0.5 * total, 0.0))


@functools.lru_cache(maxsize=64)
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    # the read-only row and column indices of the pairs i < j of k items
    pairs = np.triu_indices(k, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def js_distance_matrices(triples: np.ndarray) -> np.ndarray:
    """Distances between all pairs along the last axis of a [3, ..., k] stack.

    Returns [..., k, k]: symmetric, zero on the diagonal, each pair computed
    once by js_distances and mirrored, which is exact since js_distances is
    symmetric bit for bit.
    """
    k = triples.shape[-1]
    rows, cols = _upper_pairs(k)
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
