"""Hypothesis strategies and seeded generators for judgment data."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from panelrank import RoundInput
from panelrank.core import SUM_TOL
from oracles.chain import IFN, GroupAssessment, Panel

# the corners of the judgment triangle, total hesitancy, an even split, and
# mu + nu just inside the validation slack, which gives a negative hesitancy
SPECIAL = (
    IFN(0.0, 0.0),
    IFN(1.0, 0.0),
    IFN(0.0, 1.0),
    IFN(0.5, 0.5),
    IFN(0.6, 0.4 + 0.5 * SUM_TOL),
    IFN(1.0, 0.9 * SUM_TOL),
)


@st.composite
def ifns(draw) -> IFN:
    # nu is drawn from [0, 1 - mu], so mu + nu <= 1 up to one rounding step,
    # well inside the validation tolerance
    mu = draw(st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False))
    nu = draw(st.floats(0.0, 1.0 - mu, allow_nan=False, allow_infinity=False))
    return IFN(mu, nu)


@st.composite
def groups(draw, min_size: int = 2, max_size: int = 6) -> GroupAssessment:
    items = draw(st.lists(ifns(), min_size=min_size, max_size=max_size))
    return GroupAssessment(tuple(items))


@st.composite
def panels(draw, max_experts: int = 4, max_criteria: int = 5) -> Panel:
    e = draw(st.integers(2, max_experts))
    m = draw(st.integers(2, max_criteria))
    rows = draw(
        st.lists(
            st.lists(ifns(), min_size=m, max_size=m),
            min_size=e,
            max_size=e,
        )
    )
    return Panel(tuple(GroupAssessment(tuple(row)) for row in rows))


@st.composite
def judgment_grids(draw, shape: tuple[int, int] | None = None):
    """An experts x criteria grid of IFNs with special values and repeats.

    The shape is drawn, up to 30 experts and 40 criteria, unless given.
    Cells are drawn from a small pool (special values mixed with arbitrary
    judgments), so identical judgments are common; some rows copy an earlier
    row, so identical experts occur too.
    """
    if shape is None:
        shape = (draw(st.integers(2, 30)), draw(st.integers(2, 40)))
    e, m = shape
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), ifns()), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(e):
        if rows and rng.random() < 0.2:
            rows.append(rows[rng.integers(len(rows))])
        else:
            rows.append([pool[k] for k in rng.integers(len(pool), size=m)])
    return rows


def round_of_panels(
    round_label: str,
    criteria_labels: tuple[str, ...],
    expert_labels: tuple[str, ...],
    alternatives: dict[str, Panel],
) -> RoundInput:
    """A RoundInput holding the judgments of one Panel per alternative."""
    return RoundInput(
        round_label=round_label,
        criteria_labels=criteria_labels,
        expert_labels=expert_labels,
        alternatives=tuple(alternatives),
        judgments=[
            [[(i.mu, i.nu) for i in group.items] for group in panel.groups]
            for panel in alternatives.values()
        ],
    )


def panels_of(round_input: RoundInput) -> dict[str, Panel]:
    """Each alternative's judgments as a Panel, for the scalar reference functions."""
    return {
        label: Panel(tuple(GroupAssessment(tuple(IFN(*p) for p in row)) for row in matrix))
        for label, matrix in zip(round_input.alternatives, round_input.judgments.tolist())
    }


@st.composite
def grid_rounds(draw, max_alternatives: int = 4) -> RoundInput:
    """A round of 1 to max_alternatives judgment_grids of one drawn shape."""
    a = draw(st.integers(1, max_alternatives))
    e, m = draw(st.integers(2, 30)), draw(st.integers(2, 40))
    return round_of_panels(
        round_label="grid",
        criteria_labels=tuple(f"c{i}" for i in range(m)),
        expert_labels=tuple(f"E{k}" for k in range(e)),
        alternatives={
            f"A{k}": Panel(
                tuple(GroupAssessment(tuple(row)) for row in draw(judgment_grids(shape=(e, m))))
            )
            for k in range(a)
        },
    )


def similarity_vectors(min_size: int = 2, max_size: int = 6):
    # multiples of 1e-3 keep any two entries either exactly tied or separated
    # by far more than the default tie_epsilon
    return st.lists(
        st.integers(1, 999).map(lambda n: n / 1000.0),
        min_size=min_size,
        max_size=max_size,
    )


def divergence_vectors(min_size: int = 2, max_size: int = 6):
    return st.lists(
        st.integers(0, 10_000).map(lambda n: n / 10_000.0),
        min_size=min_size,
        max_size=max_size,
    )


def random_round(
    rng: np.random.Generator, alternatives: int, experts: int, criteria: int, label: str = "synth"
) -> RoundInput:
    """A round of judgments on a 0.01 grid, with identical-judgment groups.

    Each group draws its cells from a pool of three judgments, so exact
    ties are common, and about one group in four repeats a single judgment
    on every criterion, which takes the identical-judgment fallback.
    """
    labels = tuple(f"c{i}" for i in range(criteria))

    def judgment() -> IFN:
        mu = int(rng.integers(0, 101))
        return IFN(mu / 100, int(rng.integers(0, 101 - mu)) / 100)

    def group() -> GroupAssessment:
        pool = [judgment() for _ in range(3)]
        if rng.random() < 0.25:
            return GroupAssessment((pool[0],) * criteria)
        return GroupAssessment(tuple(pool[k] for k in rng.integers(3, size=criteria)))

    return round_of_panels(
        round_label=label,
        criteria_labels=labels,
        expert_labels=tuple(f"E{k}" for k in range(experts)),
        alternatives={
            f"A{a}": Panel(tuple(group() for _ in range(experts))) for a in range(alternatives)
        },
    )
