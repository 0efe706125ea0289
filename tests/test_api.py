"""The public surface: what panelrank exports, and what it no longer ships.

The library runs each stage of the chain once over a round's arrays. The
scalar forms of those stages, one judgment, group or panel at a time, are
test code in oracles/chain.py; these tests keep a second copy of them from
growing back into the package.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import panelrank
from oracles import chain

PUBLIC = [
    "AlternativeReport",
    "ConfigOutcome",
    "DegenerateError",
    "DomainError",
    "DpSource",
    "EvaluationConfig",
    "LengthMismatchError",
    "PanelRankError",
    "ParseError",
    "RoundFailure",
    "RoundInput",
    "RoundReport",
    "SchemaError",
    "SplitStrategy",
    "TraceRecord",
    "__version__",
    "cli_main",
    "compare_configs",
    "config_from_dict",
    "config_grid",
    "divergence_from_group_distances",
    "emit_judgments",
    "emit_report",
    "emit_trace",
    "evaluate_all",
    "evaluate_round",
    "fnum",
    "ge_ties",
    "group_distance_matrix",
    "mass_triples",
    "parse_judgments",
    "plot_data",
    "rank",
    "read_trace",
    "reference_config",
    "report_from_dict",
    "report_to_dict",
    "trace_records",
    "write_json",
    "write_trace",
]

# every function and class the scalar reference chain defines
MOVED = sorted(
    name
    for name, value in vars(chain).items()
    if (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == chain.__name__
)


def test_the_public_names_are_pinned_and_resolve():
    assert sorted(panelrank.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(panelrank, name) is not None


def test_the_moved_names_are_found():
    assert {"IFN", "GroupAssessment", "Panel", "LikelihoodSeries", "js_distance", "dslf"} <= set(
        MOVED
    )
    assert "DegenerateGroupError" in MOVED


@pytest.mark.parametrize("layer", ["core", "groups", "credibility", "slf", "errors", "reports"])
def test_no_layer_ships_the_scalar_chain(layer):
    # by import_module: the package attribute of a layer could be rebound to
    # a function of the same name
    module = importlib.import_module(f"panelrank.{layer}")
    assert [name for name in MOVED if hasattr(module, name)] == []


def test_the_package_exports_no_scalar_name():
    assert set(MOVED).isdisjoint(panelrank.__all__)
