"""Cross-expert analysis: credibility, information volume and attitude.

Given the cross-expert judgment distances and every expert's criterion
weights, this module measures how far each expert sits from the rest
(weighted divergence), turns that into a credibility share, measures how
much information each expert's original judgments carry (information
volume), and blends the two into the attitude character that later drives
the OWA weights. Each function works along the last (expert or criterion)
axis, so the pipeline runs it over every alternative of a round at once.
The per-panel references it is tested against are in tests/oracles/chain.py.
"""

from __future__ import annotations

import numpy as np

from .core import eifn_values
from .errors import DegenerateError

NORM_TOL = 1e-9

# additive slack keeping the most divergent expert strictly credible
_FLOOR_EPS = 1e-12


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


def credibility_shares(div: np.ndarray, credibility_floor: float) -> np.ndarray:
    """Credibility shares along the last axis of [..., E] divergences.

    Low divergence, high share: CR_e = max(div) - div[e] + floor, normalized,
    where the floor is credibility_floor times max(div) plus a tiny absolute
    slack, which keeps even the most divergent expert strictly credible.
    """
    top = div.max(axis=-1, keepdims=True)
    raw = top - div + (credibility_floor * top + _FLOOR_EPS)
    return raw / raw.sum(axis=-1, keepdims=True)


def information_volumes(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The total information volume of every group in [..., M] arrays of judgments.

    Adds the judgments' volumes in criterion order, as the scalar reference
    does. Those volumes come from eifn_values, whose logs may differ from
    eifn's in the last place; every volume is non-negative, so a group's
    total is then within 4 M float eps relative of the scalar one.
    """
    # accumulate adds in order, where a sum would add pairwise
    return np.add.accumulate(eifn_values(mu, nu), axis=-1)[..., -1]


def info_shares(raw: np.ndarray) -> np.ndarray:
    """Information shares: the softmax of raw volumes along the last axis of [..., E].

    Computed max-shifted for numeric stability; shift invariance makes that
    exact.
    """
    shifted = np.exp(raw - raw.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def attitude_shares(normalized: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Attitude characters along the last axis of [..., E] shares.

    alpha_e is the normalized product of expert e's information share and
    credibility share, so scaling either input uniformly cannot change it.
    """
    product = normalized * cr
    total = product.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        # unreachable with a positive floor and exp, asserted defensively
        raise DegenerateError("all credibility-volume products vanished")
    return product / total
