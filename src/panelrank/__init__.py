"""panelrank: soft-likelihood aggregation of intuitionistic fuzzy expert panels.

Judgments are (membership, non-membership) pairs per expert and criterion.
The pipeline weighs each criterion by how typical its judgment is within its
expert's row, weighs each expert by agreement with the rest and by how much
information their judgments carry, and folds everything into one gross
estimation per alternative via attitude-driven OWA soft likelihoods.

Typical use:

    from panelrank import parse_judgments, evaluate_round

    rounds = parse_judgments(open("judgments.json", "rb").read())
    report = evaluate_round(rounds[0])
    print(report.ranking)
"""

from .core import (
    IFN,
    SplitStrategy,
    ZJudgment,
    combine,
    eifn,
    js_distance,
    js_distance_matrices,
    js_distances,
    mass_triples,
    reliability,
    split_hesitancy,
    to_z,
)
from .credibility import (
    AttitudeVector,
    CredibilityVector,
    InfoVolumeVector,
    Panel,
    attitude_characters,
    credibility,
    divergence_from_group_distances,
    expert_divergence,
    group_distance,
    group_distance_matrix,
    group_information_volume,
    modified_info_volume,
)
from .errors import (
    DegenerateError,
    DegenerateGroupError,
    DomainError,
    LengthMismatchError,
    PanelRankError,
    ParseError,
    SchemaError,
)
from .groups import (
    CriterionWeights,
    DistanceMatrix,
    GroupAssessment,
    PreferenceMatrix,
    closeness_similarity,
    criterion_weights,
    pairwise_distances,
    points,
    preference_matrix,
)
from .io import (
    TraceRecord,
    config_from_dict,
    emit_judgments,
    emit_report,
    emit_trace,
    fnum,
    parse_judgments,
    plot_data,
    read_trace,
    report_to_dict,
    trace_records,
    write_json,
    write_trace,
)
from .pipeline import (
    AlternativeReport,
    ConfigOutcome,
    EvaluationConfig,
    RoundFailure,
    RoundInput,
    RoundReport,
    compare_configs,
    config_grid,
    evaluate_all,
    evaluate_round,
    reference_config,
)
from .reports import report_from_dict
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
from .cli import cli_main

__version__ = "0.1.0"

__all__ = [
    "IFN",
    "ZJudgment",
    "SplitStrategy",
    "DpSource",
    "GroupAssessment",
    "DistanceMatrix",
    "PreferenceMatrix",
    "CriterionWeights",
    "Panel",
    "CredibilityVector",
    "InfoVolumeVector",
    "AttitudeVector",
    "Sharpness",
    "OwaWeights",
    "LikelihoodSeries",
    "EvaluationConfig",
    "RoundInput",
    "AlternativeReport",
    "RoundReport",
    "RoundFailure",
    "ConfigOutcome",
    "TraceRecord",
    "PanelRankError",
    "DomainError",
    "LengthMismatchError",
    "DegenerateGroupError",
    "DegenerateError",
    "ParseError",
    "SchemaError",
    "reliability",
    "to_z",
    "combine",
    "eifn",
    "js_distance",
    "js_distances",
    "js_distance_matrices",
    "mass_triples",
    "split_hesitancy",
    "pairwise_distances",
    "closeness_similarity",
    "preference_matrix",
    "points",
    "criterion_weights",
    "group_distance",
    "group_distance_matrix",
    "expert_divergence",
    "divergence_from_group_distances",
    "credibility",
    "group_information_volume",
    "modified_info_volume",
    "attitude_characters",
    "sharpness",
    "owa_weights",
    "support_values",
    "dp_values",
    "dslf",
    "gross_estimation",
    "rank",
    "ge_ties",
    "evaluate_round",
    "evaluate_all",
    "compare_configs",
    "config_grid",
    "reference_config",
    "parse_judgments",
    "emit_judgments",
    "emit_report",
    "report_to_dict",
    "report_from_dict",
    "config_from_dict",
    "trace_records",
    "emit_trace",
    "write_trace",
    "write_json",
    "read_trace",
    "plot_data",
    "fnum",
    "cli_main",
    "__version__",
]
