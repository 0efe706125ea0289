"""End-to-end evaluation of judgment rounds.

evaluate_round drives the whole chain for every alternative of a round:
Z-number transform, reliability combination, within-group distances and
similarities, preference points and criterion weights, cross-expert
divergence and credibility, information volume, attitude characters, OWA
weights, soft likelihoods, gross estimation, and the final ranking. Each
stage runs once over the whole round, as arrays whose leading axes are
alternatives and experts [A, E], and every intermediate quantity lands in
the report, as a view of those arrays, so results can be audited table by
table.

Rounds are independent: evaluate_all simply maps over them, isolating
per-round failures. compare_configs evaluates one round under several
configurations to expose how the discretionary choices move the ranking.
Both go through _round_arrays, which runs each stage once per distinct
value of the config fields it reads and returns every config's arrays.
evaluate_round builds its report from them; compare_configs reads only
each config's gross estimations and builds no report.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .core import (
    PairScratch,
    SplitStrategy,
    cross_expert_distances,
    first_ifn_fault,
    mass_triples,
    within_group_distances,
    z_arrays,
)
from .credibility import (
    NORM_TOL,
    attitude_shares,
    credibility_shares,
    divergence_from_group_distances,
    group_distance_matrix,
    info_shares,
    information_volumes,
)
from .errors import DomainError, LengthMismatchError
from .groups import weigh_groups
from .slf import (
    DpSource,
    ge_ties,
    gross_estimations,
    owa_matrix,
    rank,
    soft_likelihoods,
    sorted_supports,
    support_arrays,
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


@dataclass(frozen=True, eq=False)
class RoundInput:
    """One round of judgments: the labels and one [A, E, M, 2] array.

    judgments[a, e, i] is the (mu, nu) pair that expert e gave alternative
    a on criterion i; the axes follow alternatives, expert_labels and
    criteria_labels. Any nested sequence of that shape is accepted and
    copied into a read-only float array, whose every pair must be an IFN
    (core.ifn_fault). This is the one check on the judgments: nothing
    downstream checks them again. Two rounds are equal when their labels
    and judgments are.
    """

    round_label: str
    criteria_labels: tuple[str, ...]
    expert_labels: tuple[str, ...]
    alternatives: tuple[str, ...]
    judgments: np.ndarray

    def __post_init__(self):
        for name in ("criteria_labels", "expert_labels", "alternatives"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.alternatives:
            raise DomainError(f"round {self.round_label!r} has no alternatives")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise DomainError("alternative labels must be unique")
        m = len(self.criteria_labels)
        e = len(self.expert_labels)
        if len(set(self.criteria_labels)) != m or m < 2:
            raise DomainError("criteria labels must be unique, two or more")
        if len(set(self.expert_labels)) != e or e < 2:
            raise DomainError("expert labels must be unique, two or more")
        try:
            judgments = np.array(self.judgments, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise DomainError("judgments must be a numeric [A, E, M, 2] array") from None
        shape = (len(self.alternatives), e, m, 2)
        if judgments.shape != shape:
            raise LengthMismatchError(f"judgments have shape {judgments.shape}, expected {shape}")
        fault = first_ifn_fault(judgments)
        if fault is not None:
            (a, k, i), reason = fault
            where = f"{self.alternatives[a]}, {self.expert_labels[k]}, {self.criteria_labels[i]}"
            raise DomainError(reason, location=where)
        object.__setattr__(self, "judgments", _readonly(judgments))

    @property
    def mu(self) -> np.ndarray:
        """Membership degrees, [A, E, M]: a view of judgments."""
        return self.judgments[..., 0]

    @property
    def nu(self) -> np.ndarray:
        """Non-membership degrees, [A, E, M]: a view of judgments."""
        return self.judgments[..., 1]

    def __eq__(self, other):
        if not isinstance(other, RoundInput):
            return NotImplemented
        labels = attrgetter("round_label", "criteria_labels", "expert_labels", "alternatives")
        return labels(self) == labels(other) and np.array_equal(self.judgments, other.judgments)


@dataclass(frozen=True, eq=False)
class AlternativeReport:
    """Every intermediate quantity for one alternative of one round.

    The arrays are read-only views of the round's arrays. Their first axis
    E follows the round's expert_labels; a criterion axis M follows its
    criteria_labels, and owa's last axis is the ordered position 1..M.

    - z [E, M, 3]: mu, nu and reliability; combined [E, M, 2]: mu r, nu r
    - distances [E, M, M]: within-group distances of the combined judgments
    - similarities, points, weights [E, M]; degenerate [E] marks the groups
      whose weights fell back to uniform
    - group_distances [E, E], divergence [E]
    - credibility [E]: credibility shares
    - info_volume [E]: information volumes; info_share [E]: their softmax
      shares; info_modified [E], derived: exp(info_volume)
    - attitude [E]: attitude characters
    - sharpness [E]; owa [E, M]
    - support [E, M]: unsorted dp values; series [E, M]: sorted descending
    - dslf [E]
    """

    label: str
    z: np.ndarray
    combined: np.ndarray
    distances: np.ndarray
    similarities: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    degenerate: np.ndarray
    group_distances: np.ndarray
    divergence: np.ndarray
    credibility: np.ndarray
    info_volume: np.ndarray
    info_share: np.ndarray
    attitude: np.ndarray
    sharpness: np.ndarray
    owa: np.ndarray
    support: np.ndarray
    series: np.ndarray
    dslf: np.ndarray
    gross_estimation: float
    degeneracies: tuple[str, ...] = ()

    @property
    def info_modified(self) -> np.ndarray:
        """The modified information volumes exp(info_volume), [E]."""
        return _readonly(np.exp(self.info_volume))

    @property
    def partials(self) -> np.ndarray:
        """Cumulative products along each expert's sorted series, [E, M]."""
        return _readonly(np.cumprod(self.series, axis=-1))


# the [E, ...] array fields, in order between label and gross_estimation
_ROW_FIELDS = tuple(f.name for f in fields(AlternativeReport))[1:-2]


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

    @classmethod
    def from_exception(cls, round_label: str, exc: Exception) -> "RoundFailure":
        return cls(round_label, str(exc), type(exc).__name__)


@dataclass(frozen=True, eq=False)
class ConfigOutcome:
    """One configuration's result in a comparison run."""

    config: EvaluationConfig
    ranking: tuple[str, ...]
    gross_estimation: dict[str, float]
    matches_reference: bool | None = None


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_shares(name: str, shares, valid, bounds: str, labels, experts) -> None:
    """Check each alternative's [E] row of shares once per round, no laxer
    than the per-expert reference types in tests/oracles/chain.py check one
    row.

    valid marks the entries within bounds. The first alternative whose row
    holds an entry out of bounds, or does not sum to 1 within NORM_TOL,
    raises a DomainError, located at <alternative>/<expert> for the entry
    and else at <alternative>.
    """
    sums = shares.sum(axis=-1)
    rows_pass = valid.all(axis=-1) & (np.abs(sums - 1.0) <= NORM_TOL)
    if rows_pass.all():
        return
    a = int(rows_pass.argmin())
    for e in np.flatnonzero(~valid[a])[:1].tolist():
        raise DomainError(f"{name} {bounds}, got {shares[a, e]}", f"{labels[a]}/{experts[e]}")
    raise DomainError(f"{name} must sum to 1, got {sums[a]}", location=labels[a])


def _degeneracies(labels, experts, identical, uniform) -> list[tuple[str, ...]]:
    """Each alternative's notes on the groups whose weights fell back to uniform."""
    notes: list[list[str]] = [[] for _ in labels]
    for a, e in np.argwhere(uniform).tolist():
        kind = "identical-judgment" if identical[a, e] else "all-tie preference"
        notes[a].append(f"{labels[a]}/{experts[e]}: {kind} fallback to uniform weights")
    return [tuple(n) for n in notes]


def _round_arrays(
    round_input: RoundInput, configs: Sequence[EvaluationConfig]
) -> list[dict[str, np.ndarray]]:
    """One round's arrays under each config, in order, from one pass over the round.

    Each config's dict maps the AlternativeReport fields to their [A, ...]
    arrays, and adds identical [A, E], the groups whose uniform weights
    came from identical judgments, and gross_estimation [A]. Every stage
    after the distance kernel runs once over all alternatives and experts,
    and once per distinct value of the config fields it reads; the configs'
    dicts share its results:

    - information volume, reliability, distances: no field;
    - similarities, points, weights, group distances, divergence:
      tie_epsilon;
    - credibility, attitude, sharpness, OWA weights: tie_epsilon and
      credibility_floor;
    - supports and their sorted series: split_strategy and dp_source;
    - soft likelihoods and gross estimation: once per config.

    The checks raise in a fixed order: the information-volume overflow and
    shares before any distance work, then the attitude, credibility and
    attitude shares of each (tie_epsilon, credibility_floor) in config
    order. The distances come from two round-level passes in fixed-size
    chunks, within-group pairs first and cross-expert pairs after the
    weights, so the kernel's working memory does not grow with the round.
    No array is made read-only here: _evaluate_configs does that for the
    arrays that reach a report.
    """
    labels = round_input.alternatives
    experts = round_input.expert_labels
    mu, nu = round_input.mu, round_input.nu
    n_alt, n_exp, m = mu.shape

    # information volume reads only the original judgments; checked first so
    # that an overflowing round fails before the distance work
    raw_iv = information_volumes(mu, nu)
    with np.errstate(over="ignore"):
        modified = np.exp(raw_iv)
    overflowed = np.isinf(modified)
    if overflowed.any():
        a, e = np.argwhere(overflowed)[0]
        raise DomainError(
            f"information volume of {raw_iv[a, e]} bits overflows its exponential",
            location=f"{labels[a]}/{experts[e]}",
        )
    iv_shares = info_shares(raw_iv)
    # with none overflowed, exp(raw) > 0 holds for finite volumes only
    valid = (modified > 0.0) & (iv_shares > 0.0)
    bounds = "must be positive, from finite volumes"
    _check_shares("information shares", iv_shares, valid, bounds, labels, experts)

    z, combined = z_arrays(mu, nu)
    triples = mass_triples(combined[..., 0], combined[..., 1])
    # room for the larger phase: A E M(M - 1) / 2 within-group pairs and
    # A M E(E - 1) / 2 cross-expert pairs
    scratch = PairScratch(n_alt * n_exp * m * (max(m, n_exp) - 1) // 2)
    within = within_group_distances(triples, scratch)
    shared = dict(z=z, combined=combined, distances=within)
    shared.update(info_volume=raw_iv, info_share=iv_shares)

    tie_epsilons = dict.fromkeys(c.tie_epsilon for c in configs)
    chains = {eps: weigh_groups(within, eps) for eps in tie_epsilons}
    gds = {eps: np.empty((n_alt, n_exp, n_exp)) for eps in chains}

    def reduce(a, cross):
        # one alternative's cross-expert distances under every tie_epsilon's
        # weights, before the next block of alternatives overwrites them
        for eps, (_, _, w, _, _) in chains.items():
            gds[eps][a] = group_distance_matrix(cross, w[a])

    cross_expert_distances(triples, scratch, reduce)
    weighed = {
        eps: dict(
            similarities=sm,
            points=po,
            weights=w,
            degenerate=uniform,
            identical=identical,
            group_distances=gds[eps],
            divergence=divergence_from_group_distances(gds[eps]),
        )
        for eps, (sm, po, w, identical, uniform) in chains.items()
    }

    attitudes: dict[tuple[float, float], dict] = {}
    supports: dict[tuple[SplitStrategy, DpSource], dict] = {}
    out = []
    for config in configs:
        weighing = weighed[config.tie_epsilon]
        key = (config.tie_epsilon, config.credibility_floor)
        if key not in attitudes:
            cr = credibility_shares(weighing["divergence"], config.credibility_floor)
            alpha = attitude_shares(iv_shares, cr)
            inside = (alpha > 0.0) & (alpha < 1.0)
            if not inside.all():
                a, e = np.argwhere(~inside)[0]
                raise DomainError(
                    f"attitude characters must lie strictly in (0, 1), got {alpha[a, e]}",
                    location=f"{labels[a]}/{experts[e]}",
                )
            valid = np.isfinite(cr) & (cr >= 0.0) & (cr <= 1.0)
            _check_shares("credibility", cr, valid, "must lie in [0, 1]", labels, experts)
            bounds = "must lie strictly in (0, 1)"
            _check_shares("attitude characters", alpha, inside, bounds, labels, experts)
            sharp = (1.0 - alpha) / alpha  # as sharpness() gives it
            attitudes[key] = dict(
                credibility=cr, attitude=alpha, sharpness=sharp, owa=owa_matrix(m, sharp)
            )
        attitude = attitudes[key]

        key = (config.split_strategy, config.dp_source)
        if key not in supports:
            if config.dp_source is DpSource.COMBINED:
                support = support_arrays(combined[..., 0], combined[..., 1], config.split_strategy)
            else:
                support = support_arrays(mu, nu, config.split_strategy)
            supports[key] = dict(support=support, series=sorted_supports(support))
        support = supports[key]

        dslf = soft_likelihoods(support["series"], attitude["owa"])
        out.append(
            {
                **shared,
                **weighing,
                **attitude,
                **support,
                "dslf": dslf,
                "gross_estimation": gross_estimations(dslf),
            }
        )
    return out


def _evaluate_configs(
    round_input: RoundInput, configs: Sequence[EvaluationConfig]
) -> tuple[RoundReport, ...]:
    """One round's report under each config, in order, from one pass over the round.

    The arrays come from _round_arrays and are shared across the configs
    as it says; each AlternativeReport's array fields are read-only views
    of that alternative's rows. evaluate_round is the one-config case.
    """
    labels = round_input.alternatives
    experts = round_input.expert_labels
    out = []
    for config, arrays in zip(configs, _round_arrays(round_input, configs)):
        ge = dict(zip(labels, arrays["gross_estimation"].tolist()))
        columns = [_readonly(arrays[name]) for name in _ROW_FIELDS]
        notes = _degeneracies(labels, experts, arrays["identical"], arrays["degenerate"])
        rows = zip(labels, zip(*columns), notes)
        reports = {
            label: AlternativeReport(label, *row, ge[label], note) for label, row, note in rows
        }
        ordered = itertools.chain.from_iterable(reports[k].degeneracies for k in sorted(reports))
        out.append(
            RoundReport(
                round_label=round_input.round_label,
                criteria_labels=round_input.criteria_labels,
                expert_labels=experts,
                config=config,
                alternatives=reports,
                ranking=rank(ge),
                ties=ge_ties(ge),
                degeneracies=tuple(ordered),
            )
        )
    return tuple(out)


def evaluate_round(round_input: RoundInput, config: EvaluationConfig | None = None) -> RoundReport:
    """Run the full chain on one round. Deterministic for identical inputs."""
    if config is None:
        config = EvaluationConfig()
    return _evaluate_configs(round_input, (config,))[0]


def evaluate_all(
    inputs: Sequence[RoundInput], config: EvaluationConfig | None = None
) -> tuple[RoundReport | RoundFailure, ...]:
    """Evaluate rounds independently; a failing round never aborts the rest."""
    out: list[RoundReport | RoundFailure] = []
    for round_input in inputs:
        try:
            out.append(evaluate_round(round_input, config))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract here
            out.append(RoundFailure.from_exception(round_input.round_label, exc))
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

    Every stage runs once per distinct value of the config fields it reads,
    so the configurations share the work they have in common. Each outcome
    is ranked from its config's gross estimations, with no report built,
    and equals the one evaluate_round gives for its configuration alone.
    When a reference ranking is supplied, each outcome is flagged with
    whether its ranking reproduces it exactly.
    """
    configs = tuple(configs)
    if not configs:
        raise DomainError("compare_configs needs at least one configuration")
    reference = tuple(reference_ranking) if reference_ranking is not None else None
    labels = round_input.alternatives
    outcomes = []
    for config, arrays in zip(configs, _round_arrays(round_input, configs)):
        ge = dict(zip(labels, arrays["gross_estimation"].tolist()))
        ranking = rank(ge)
        matches = None if reference is None else ranking == reference
        outcomes.append(ConfigOutcome(config, ranking, ge, matches))
    return tuple(outcomes)


def reference_config() -> EvaluationConfig:
    """The pinned reference configuration (the EvaluationConfig defaults)."""
    return EvaluationConfig()
