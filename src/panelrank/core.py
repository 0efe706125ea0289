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

The types are immutable and the functions pure, so values can be shared
freely, with one exception: the distance passes write into a PairScratch,
the kernel's reusable buffers, so a thread needs its own. Threads gain
nothing here, though: on a shared two-core host, two threads evaluating
6 x 30 x 6 rounds ran at 0.80-1.03 times the speed of one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
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


# The distance kernel works in passes of at most this many pairs. Each of
# its four float buffers then holds [6, 2048] terms, 96 KiB, below glibc's
# default 128 KiB mmap threshold, so malloc takes them from the heap, whose
# pages it can reuse, rather than mapping fresh ones for each; and a pass is
# long enough that numpy's per-call overhead stays a small share of it.
# Passes of 4096 pairs, with 192 KiB buffers, ran the benchmark's
# 3 x 4 x 40 workload 3-6% slower and its 6 x 30 x 6 one no faster. Rounds
# whose groups or alternatives hold more pairs than a pass are grouped by
# _blocks_per_step so that their passes run nearly full.
_PASS_PAIRS = 2048


class PairScratch:
    """The buffers of one distance pass, reused by every pass of a round.

    Room for passes of up to `pairs` pairs, and never more than
    _PASS_PAIRS: four float and two bool buffers of [6, pairs] terms, and
    the pass's distances. A pass of n pairs uses the first 6 n entries of
    each, viewed as [6, n], so every view is contiguous. Every pass
    overwrites them, so one PairScratch serves one thread: give each
    thread its own.
    """

    __slots__ = ("floats", "masks", "distances")

    def __init__(self, pairs: int = _PASS_PAIRS):
        pairs = min(pairs, _PASS_PAIRS)
        self.floats = tuple(np.empty(6 * pairs) for _ in range(4))
        self.masks = tuple(np.empty(6 * pairs, dtype=bool) for _ in range(2))
        self.distances = np.empty(pairs)


def _pair_pass(
    scratch: PairScratch, src: np.ndarray, first: np.ndarray, second: np.ndarray, out: np.ndarray
) -> None:
    # out[k] = the distance between src[:, first[k]] and src[:, second[k]]
    # of a [3, ...] triple array, for as many pairs as scratch has room for.
    # Terms t(a, b) sit in rows 0-2 and t(b, a) in rows 3-5, so row c pairs
    # with row c +- 3. A pair's sum s, offset q = (a - b) / s and test
    # |q| < _LOG1P_BELOW are taken once, in rows 0-2, for both its terms:
    # t(b, a) has the offset (b - a) / s, which is -q exactly. Every ufunc
    # writes into a buffer whose old value is spent.
    n = len(first)
    x, pair, ratio, mask = (b[: 6 * n].reshape(6, n) for b in scratch.floats)
    defined, flags = (b[: 6 * n].reshape(6, n) for b in scratch.masks)
    # "clip" takes straight into out; "raise" would buffer it, and the
    # indices are in range by construction
    np.take(src, first, axis=1, out=x[:3], mode="clip")
    np.take(src, second, axis=1, out=x[3:], mode="clip")
    s, q = pair[:3], pair[3:]
    np.add(x[:3], x[3:], out=s)
    # a term is defined where its x > 0 and s > 0; where s <= 0 neither is,
    # and s = 1 keeps the divisions finite
    positive = np.greater(s, 0.0, out=flags[:3])
    halves = np.greater(x, 0.0, out=defined).reshape(2, 3, n)
    halves &= positive
    np.copyto(s, 1.0, where=np.logical_not(positive, out=flags[3:]))
    np.subtract(x[:3], x[3:], out=q)
    q /= s
    near = np.less(np.abs(q, out=mask[:3]), _LOG1P_BELOW, out=flags[:3])
    # The logs take their arguments through 0/1 float masks m, which select
    # exactly: r m + (1 - m) is r or 1, and q m is q or +-0. log gets 2x / s
    # at the far defined terms and 1, whose log is +0, elsewhere; log1p gets
    # +-q at the near defined terms and +-0 elsewhere, far offsets included,
    # which may round to -1. Where s > 0, a near offset means x > 0 in both
    # halves, so rows 0-2 of near & defined hold for rows 3-5 too.
    np.multiply(x, 2.0, out=ratio)
    quotient = ratio.reshape(2, 3, n)
    quotient /= s
    np.greater(halves, near, out=mask.reshape(2, 3, n))
    ratio *= mask
    np.subtract(1.0, mask, out=mask)
    ratio += mask
    np.log(ratio, out=ratio)
    np.logical_and(near, defined[:3], out=mask[:3])
    mask[:3] *= q
    np.negative(mask[:3], out=mask[3:])
    np.log1p(mask, out=mask)
    # a -0 from log1p is erased by the +0 of log(1) added to it, and the
    # undefined terms are x * +0, a zero
    ratio += mask
    ratio *= x
    # each component's two terms first, so the distance is symmetric bit
    # for bit, then the components in order
    terms = np.add(ratio[:3], ratio[3:], out=pair[:3])
    total = np.add.reduce(terms, axis=0, out=mask[0])
    total *= 0.5
    np.sqrt(np.maximum(total, 0.0, out=total), out=out)


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
    symmetric bit for bit. The per-alternative reference of the round
    passes.
    """
    k = triples.shape[-1]
    rows, cols = _upper_pairs(k)
    out = np.zeros(triples.shape[1:] + (k,))
    out[..., rows, cols] = out[..., cols, rows] = js_distances(
        triples[..., rows], triples[..., cols]
    )
    return out


# A step of blocks larger than a pass spans at most this many passes, so the
# block buffer of cross_expert_distances and the cached pair lists stay a
# few passes' size.
_STEP_PASSES = 4


def _blocks_per_step(k: int, lanes: int, blocks: int) -> int:
    # How many of `blocks` blocks of pairs to take a step at a time. Blocks
    # that fit a pass go as many whole blocks to a pass as fit. A larger
    # block spills into a part-full pass, so those go as many at a time,
    # within _STEP_PASSES passes, as leave the fewest passes over all
    # blocks, the fewest blocks on a tie.
    per = max(lanes * (k * (k - 1) // 2), 1)
    if per <= _PASS_PAIRS:
        return min(_PASS_PAIRS // per, blocks)

    def passes(step: int) -> int:
        whole, rest = divmod(blocks, step)
        return whole * -(-step * per // _PASS_PAIRS) + -(-rest * per // _PASS_PAIRS)

    most = min(max(1, _STEP_PASSES * _PASS_PAIRS // per), blocks)
    return min(range(1, most + 1), key=passes)


@functools.lru_cache(maxsize=32)
def _block_pairs(k: int, lanes: int, blocks: int) -> tuple[np.ndarray, ...]:
    # The pairs i < j of k items in each of several lanes, for `blocks`
    # blocks, at most _blocks_per_step of them. A block holds item i of lane
    # c at i * lanes + c of its triples and the pair's distance at [c, i, j]
    # and [c, j, i] of its [lanes, k, k] output; block b's entries are offset
    # by b blocks. Returns the read-only pair lists (first item, second item,
    # upper and lower output position), blocks outermost, so the pairs of
    # fewer blocks are a prefix; sized by one pass or one block, whichever
    # is larger, or by at most _STEP_PASSES passes where a block spills over
    # a pass, and never by more blocks than a round has.
    rows, cols = _upper_pairs(k)
    block = np.arange(blocks)[:, None, None]
    lane = np.arange(lanes)[None, :, None]
    src = block * (k * lanes) + lane
    dst = block * (lanes * k * k) + lane * (k * k)
    lists = (
        src + rows * lanes,
        src + cols * lanes,
        dst + rows * k + cols,
        dst + cols * k + rows,
    )
    flat = tuple(a.reshape(-1) for a in lists)
    for a in flat:
        a.setflags(write=False)
    return flat


def _fill_blocks(
    flat: np.ndarray,
    k: int,
    lanes: int,
    step: int,
    start: int,
    stop: int,
    scratch: PairScratch,
    out: np.ndarray,
) -> None:
    # the pair distances of blocks start..stop of flat [3, blocks * k * lanes],
    # at most step of them, into out [(stop - start) * lanes * k * k]; the
    # diagonal entries of out are left as they are
    first, second, upper, lower = _block_pairs(k, lanes, step)
    src = flat[:, start * k * lanes : stop * k * lanes]
    count = (stop - start) * lanes * (k * (k - 1) // 2)
    for begin in range(0, count, _PASS_PAIRS):
        end = min(begin + _PASS_PAIRS, count)
        d = scratch.distances[: end - begin]
        _pair_pass(scratch, src, first[begin:end], second[begin:end], d)
        # an index assignment scatters about three times as fast as np.put
        out[upper[begin:end]] = d
        out[lower[begin:end]] = d


def within_group_distances(triples: np.ndarray, scratch: PairScratch) -> np.ndarray:
    """js_distance_matrices of a [3, ..., M] stack, bit for bit, in fixed-size passes.

    Returns [..., M, M]. Every group's pairs go through passes of at most
    _PASS_PAIRS pairs, several small groups to a pass, or large groups a
    few at a time over several passes that run nearly full, so the working
    memory beyond the result is bounded by a few passes and one group,
    whatever the number of groups.
    """
    m = triples.shape[-1]
    out = np.zeros(triples.shape[1:] + (m,))
    flat = triples.reshape(3, -1)
    groups = flat.shape[1] // m
    step = _blocks_per_step(m, 1, groups)
    for start in range(0, groups, step):
        stop = min(start + step, groups)
        block = out.reshape(-1)[start * m * m : stop * m * m]
        _fill_blocks(flat, m, 1, step, start, stop, scratch, block)
    return out


def cross_expert_distances(
    triples: np.ndarray, scratch: PairScratch, reduce: Callable[[int, np.ndarray], None]
) -> None:
    """The distances between every two experts' judgments of a criterion, an alternative at a time.

    triples is [3, A, E, M]. For each alternative a in order, calls
    reduce(a, cross) with cross [E, E, M] holding the distance between
    experts e and f on criterion m at [e, f, m], bit for bit
    js_distance_matrices(triples[:, a].swapaxes(1, 2)).transpose(1, 2, 0),
    as a view with those strides. The pairs go through passes of at most
    _PASS_PAIRS pairs, a block of alternatives at a time, into one buffer
    that every block reuses: reduce must be done with cross when it
    returns. A block holds as many alternatives as fit one pass, or, where
    one alternative's pairs overflow a pass, the few, within _STEP_PASSES
    passes, whose passes run fullest: at 6 x 30 x 6 three alternatives'
    7,830 pairs fill four passes, where one alternative's 2,610 would fill
    one and leave a 562-pair tail.
    """
    _, n_alt, n_exp, m = triples.shape
    flat = triples.reshape(3, -1)
    step = _blocks_per_step(n_exp, m, n_alt)
    size = m * n_exp * n_exp
    buffer = np.zeros(step * size)
    for start in range(0, n_alt, step):
        stop = min(start + step, n_alt)
        block = buffer[: (stop - start) * size]
        _fill_blocks(flat, n_exp, m, step, start, stop, scratch, block)
        for a, cross in enumerate(block.reshape(stop - start, m, n_exp, n_exp), start):
            reduce(a, cross.transpose(1, 2, 0))


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
