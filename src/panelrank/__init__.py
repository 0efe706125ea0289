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

from .core import SplitStrategy, mass_triples
from .credibility import divergence_from_group_distances, group_distance_matrix
from .errors import (
    DomainError,
    LengthMismatchError,
    PanelRankError,
    ParseError,
    SchemaError,
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
from .slf import DpSource, ge_ties, rank
from .cli import cli_main

__version__ = "0.1.0"

__all__ = [
    "SplitStrategy",
    "DpSource",
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
    "ParseError",
    "SchemaError",
    "mass_triples",
    "group_distance_matrix",
    "divergence_from_group_distances",
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
    "emit_trace",
    "write_trace",
    "write_json",
    "read_trace",
    "plot_data",
    "fnum",
    "cli_main",
    "__version__",
]
