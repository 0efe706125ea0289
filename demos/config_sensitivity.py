"""Probe how the evaluation configuration changes the bundled rankings.

Runs every round against the canonical six-configuration grid (three
hesitancy split strategies crossed with the two support sources) and marks
which configurations reproduce the recorded reference rankings. A second
pass sweeps the credibility floor to show how it interpolates expert
credibility between divergence-driven and uniform.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import panelrank as pr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def grid_section(rounds, recorded) -> None:
    for round_input in rounds:
        reference = recorded.get(round_input.round_label)
        outcomes = pr.compare_configs(round_input, pr.config_grid(), reference)
        print(f"Round {round_input.round_label} "
              f"(recorded: {' > '.join(reference)})")
        for outcome in outcomes:
            cfg = outcome.config
            mark = "matches" if outcome.matches_reference else "differs"
            print(f"    split={cfg.split_strategy.value:<12} "
                  f"dp={cfg.dp_source.value:<8} -> "
                  f"{' > '.join(outcome.ranking)}  [{mark}]")
        print()


def floor_section(round_input) -> None:
    print(f"Credibility floor sweep on round {round_input.round_label} "
          "(spread = widest max-min credibility gap across alternatives):")
    base = pr.reference_config()
    for floor in (0.001, 0.01, 0.1, 1.0):
        config = replace(base, credibility_floor=floor)
        report = pr.evaluate_round(round_input, config)
        spread = max(
            float(a.credibility.max() - a.credibility.min())
            for a in report.alternatives.values()
        )
        print(f"    floor={floor:<6} credibility spread {spread:.4f}  "
              f"ranking {' > '.join(report.ranking)}")
    print()
    print("Small floors hand almost all weight to the least divergent expert;")
    print("floor 1.0 keeps the blend close to uniform.")


def main() -> None:
    rounds = pr.parse_judgments((FIXTURES / "supplier_rounds.json").read_bytes())
    outcomes = json.loads((FIXTURES / "reference_outcomes.json").read_text())
    recorded = {label: tuple(r) for label, r in outcomes["rankings"].items()}
    grid_section(rounds, recorded)
    floor_section(rounds[0])


if __name__ == "__main__":
    main()
