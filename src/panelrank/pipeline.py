"""End-to-end evaluation of judgment rounds.

evaluate_round drives the whole chain for every alternative of a round:
Z-number transform, reliability combination, within-group distances and
similarities, preference points and criterion weights, cross-expert
divergence and credibility, information volume, attitude characters, OWA
weights, soft likelihoods, gross estimation, and the final ranking. Every
intermediate quantity lands in the report so results can be audited
table by table.

Rounds are independent: evaluate_all simply maps over them, isolating
per-round failures. compare_configs re-runs one round under several
configurations to expose how the discretionary choices move the ranking.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import SplitStrategy, ZJudgment, combine, js_distance_matrices, mass_triples, to_z
from .credibility import (
    AttitudeVector,
    CredibilityVector,
    InfoVolumeVector,
    Panel,
    attitude_characters,
    credibility,
    divergence_from_group_distances,
    group_distance_matrix,
    group_information_volume,
    modified_info_volume,
)
from .errors import DegenerateGroupError, DomainError, LengthMismatchError
from .groups import (
    CriterionWeights,
    DistanceMatrix,
    GroupAssessment,
    closeness_similarity,
    criterion_weights,
    points,
    preference_matrix,
)
from .slf import (
    DpSource,
    LikelihoodSeries,
    OwaWeights,
    Sharpness,
    dp_values,
    dslf,
    ge_ties,
    gross_estimation,
    owa_weights,
    rank,
    sharpness,
    support_values,
)


@dataclass(frozen=True)
class EvaluationConfig:
    """The discretionary choices of a run, pinned explicitly.

    credibility_floor is relative to the largest divergence; tie_epsilon is
    the absolute tolerance for similarity ties. The defaults are the
    reference configuration shipped in configs/reference.json.
    """

    split_strategy: SplitStrategy = SplitStrategy.EQUAL
    dp_source: DpSource = DpSource.ORIGINAL
    credibility_floor: float = 1.0
    tie_epsilon: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.split_strategy, SplitStrategy):
            raise DomainError("split_strategy must be a SplitStrategy")
        if not isinstance(self.dp_source, DpSource):
            raise DomainError("dp_source must be a DpSource")
        if not (np.isfinite(self.credibility_floor) and self.credibility_floor >= 0.0):
            raise DomainError("credibility_floor must be finite and non-negative")
        if not (np.isfinite(self.tie_epsilon) and self.tie_epsilon > 0.0):
            raise DomainError("tie_epsilon must be finite and positive")


@dataclass(frozen=True)
class RoundInput:
    """One round of judgments: a panel per alternative plus the labels."""

    round_label: str
    criteria_labels: tuple[str, ...]
    expert_labels: tuple[str, ...]
    alternatives: dict[str, Panel]

    def __post_init__(self):
        object.__setattr__(self, "criteria_labels", tuple(self.criteria_labels))
        object.__setattr__(self, "expert_labels", tuple(self.expert_labels))
        object.__setattr__(self, "alternatives", dict(self.alternatives))
        if not self.alternatives:
            raise DomainError(f"round {self.round_label!r} has no alternatives")
        m = len(self.criteria_labels)
        e = len(self.expert_labels)
        if len(set(self.criteria_labels)) != m:
            raise DomainError("criteria labels must be unique")
        if len(set(self.expert_labels)) != e or e < 2:
            raise DomainError("expert labels must be unique, two or more")
        for label, panel in self.alternatives.items():
            if len(panel.groups) != e:
                raise LengthMismatchError(
                    f"alternative {label!r} has {len(panel.groups)} expert rows, expected {e}"
                )
            if len(panel.groups[0]) != m:
                raise LengthMismatchError(
                    f"alternative {label!r} covers {len(panel.groups[0])} criteria, expected {m}"
                )


@dataclass(frozen=True, eq=False)
class AlternativeReport:
    """Every intermediate quantity for one alternative of one round.

    Per-expert sequences are aligned with the round's expert_labels; per
    criterion values with criteria_labels. support holds the unsorted
    per-criterion dp values, series the sorted ones with partial products.
    """

    label: str
    z_table: tuple[tuple[ZJudgment, ...], ...]
    combined: tuple[GroupAssessment, ...]
    distances: tuple[DistanceMatrix, ...]
    similarities: tuple[np.ndarray, ...]
    points: tuple[np.ndarray, ...]
    weights: tuple[CriterionWeights, ...]
    group_distances: np.ndarray
    divergence: np.ndarray
    credibility: CredibilityVector
    info_volume: InfoVolumeVector
    attitude: AttitudeVector
    sharpness: tuple[Sharpness, ...]
    owa: tuple[OwaWeights, ...]
    support: tuple[np.ndarray, ...]
    series: tuple[LikelihoodSeries, ...]
    dslf: np.ndarray
    gross_estimation: float
    degeneracies: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class RoundReport:
    """The full outcome of one round under one configuration."""

    round_label: str
    criteria_labels: tuple[str, ...]
    expert_labels: tuple[str, ...]
    config: EvaluationConfig
    alternatives: dict[str, AlternativeReport]
    ranking: tuple[str, ...]
    ties: tuple[str, ...] = ()
    degeneracies: tuple[str, ...] = ()


@dataclass(frozen=True)
class RoundFailure:
    """A round that could not be evaluated: the exception's message and type name."""

    round_label: str
    error: str
    error_type: str


@dataclass(frozen=True, eq=False)
class ConfigOutcome:
    """One configuration's result in a comparison run."""

    config: EvaluationConfig
    ranking: tuple[str, ...]
    gross_estimation: dict[str, float]
    matches_reference: bool | None = None


def _analyze_group(d: DistanceMatrix, tie_epsilon: float):
    """Similarity chain for one expert group, with the degenerate fallback."""
    m = d.values.shape[0]
    try:
        sm = closeness_similarity(d)
    except DegenerateGroupError:
        # a judgment identical to all others: keep finite similarities where
        # defined, skip the preference stage, fall back to uniform weights
        row_sums = d.values.sum(axis=1)
        with np.errstate(divide="ignore"):
            sm = np.where(row_sums > 0.0, (m - 1) / row_sums, np.inf)
        sm.setflags(write=False)
        po = np.zeros(m, dtype=int)
        po.setflags(write=False)
        cw = CriterionWeights(np.full(m, 1.0 / m), degenerate=True)
        return sm, po, cw, "identical-judgment fallback to uniform weights"
    pm = preference_matrix(sm, tie_epsilon)
    po = points(pm)
    cw = criterion_weights(po)
    note = "all-tie preference fallback to uniform weights" if cw.degenerate else None
    return sm, po, cw, note


def _evaluate_alternative(
    label: str,
    panel: Panel,
    criteria: tuple[str, ...],
    experts: tuple[str, ...],
    config: EvaluationConfig,
) -> AlternativeReport:
    n_experts = len(panel.groups)
    m = len(panel.groups[0])

    # information volume reads only the original judgments; checked first so
    # that an overflowing round fails before the distance work
    raw_iv = np.array([group_information_volume(g) for g in panel.groups])
    with np.errstate(over="ignore"):
        overflowed = np.flatnonzero(np.isinf(np.exp(raw_iv)))
    if overflowed.size:
        e = overflowed[0]
        raise DomainError(
            f"information volume of {raw_iv[e]} bits overflows its exponential",
            location=f"{label}/{experts[e]}",
        )
    iv = modified_info_volume(raw_iv)

    z_table = tuple(tuple(to_z(item) for item in g.items) for g in panel.groups)
    combined = tuple(
        GroupAssessment(tuple(combine(z) for z in row), criteria) for row in z_table
    )

    # every within-group pair in one kernel call, within[e, i, j], and every
    # cross-expert pair in another, cross[e, f, i]
    triples = mass_triples(
        [[i.mu for i in g.items] for g in combined], [[i.nu for i in g.items] for g in combined]
    )
    within = js_distance_matrices(triples)
    cross = js_distance_matrices(triples.swapaxes(1, 2)).transpose(1, 2, 0)

    notes: list[str] = []
    distances = []
    similarities = []
    point_rows = []
    weight_rows = []
    for e in range(n_experts):
        d = DistanceMatrix(within[e])
        sm, po, cw, note = _analyze_group(d, config.tie_epsilon)
        distances.append(d)
        similarities.append(sm)
        point_rows.append(po)
        weight_rows.append(cw)
        if note:
            notes.append(f"{label}/{experts[e]}: {note}")

    gd = group_distance_matrix(cross, np.array([cw.weights for cw in weight_rows]))
    div = divergence_from_group_distances(gd)
    cr = credibility(div, config.credibility_floor)
    alpha = attitude_characters(iv, cr)

    sharps = tuple(sharpness(a) for a in alpha.values)
    owas = tuple(owa_weights(m, s) for s in sharps)
    support = tuple(
        support_values(g, config.split_strategy, config.dp_source) for g in panel.groups
    )
    series = tuple(
        dp_values(g, config.split_strategy, config.dp_source) for g in panel.groups
    )
    per_expert = np.array([dslf(s, w) for s, w in zip(series, owas)])
    per_expert.setflags(write=False)
    ge = gross_estimation(per_expert)

    return AlternativeReport(
        label=label,
        z_table=z_table,
        combined=combined,
        distances=tuple(distances),
        similarities=tuple(similarities),
        points=tuple(point_rows),
        weights=tuple(weight_rows),
        group_distances=gd,
        divergence=div,
        credibility=cr,
        info_volume=iv,
        attitude=alpha,
        sharpness=sharps,
        owa=owas,
        support=support,
        series=series,
        dslf=per_expert,
        gross_estimation=ge,
        degeneracies=tuple(notes),
    )


def evaluate_round(round_input: RoundInput, config: EvaluationConfig | None = None) -> RoundReport:
    """Run the full chain on one round. Deterministic for identical inputs."""
    if config is None:
        config = EvaluationConfig()
    reports: dict[str, AlternativeReport] = {}
    for label, panel in round_input.alternatives.items():
        reports[label] = _evaluate_alternative(
            label, panel, round_input.criteria_labels, round_input.expert_labels, config
        )
    ge = {label: r.gross_estimation for label, r in reports.items()}
    ranking = rank(ge)
    ties = ge_ties(ge)
    degeneracies = tuple(
        itertools.chain.from_iterable(reports[label].degeneracies for label in sorted(reports))
    )
    return RoundReport(
        round_label=round_input.round_label,
        criteria_labels=round_input.criteria_labels,
        expert_labels=round_input.expert_labels,
        config=config,
        alternatives=reports,
        ranking=ranking,
        ties=ties,
        degeneracies=degeneracies,
    )


def evaluate_all(
    inputs: Sequence[RoundInput], config: EvaluationConfig | None = None
) -> tuple[RoundReport | RoundFailure, ...]:
    """Evaluate rounds independently; a failing round never aborts the rest."""
    out: list[RoundReport | RoundFailure] = []
    for round_input in inputs:
        try:
            out.append(evaluate_round(round_input, config))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract here
            out.append(RoundFailure(round_input.round_label, str(exc), type(exc).__name__))
    return tuple(out)


def config_grid() -> tuple[EvaluationConfig, ...]:
    """The six canonical configurations: split strategies times dp sources.

    Enumeration order is Equal < Proportional < None and Original < Combined,
    so the first matching entry in a scan is well-defined.
    """
    return tuple(
        EvaluationConfig(split_strategy=s, dp_source=d)
        for s, d in itertools.product(SplitStrategy, DpSource)
    )


def compare_configs(
    round_input: RoundInput,
    configs: Sequence[EvaluationConfig],
    reference_ranking: Sequence[str] | None = None,
) -> tuple[ConfigOutcome, ...]:
    """Evaluate one round under several configurations side by side.

    When a reference ranking is supplied, each outcome is flagged with
    whether its ranking reproduces it exactly.
    """
    if not configs:
        raise DomainError("compare_configs needs at least one configuration")
    reference = tuple(reference_ranking) if reference_ranking is not None else None
    outcomes = []
    for config in configs:
        report = evaluate_round(round_input, config)
        ge = {label: r.gross_estimation for label, r in report.alternatives.items()}
        outcomes.append(
            ConfigOutcome(
                config=config,
                ranking=report.ranking,
                gross_estimation=ge,
                matches_reference=None if reference is None else report.ranking == reference,
            )
        )
    return tuple(outcomes)


def reference_config() -> EvaluationConfig:
    """The pinned reference configuration (the EvaluationConfig defaults)."""
    return EvaluationConfig()
