"""Show what each hesitancy split strategy does to a judgment.

A judgment (mu, nu) leaves 1 - mu - nu undecided. Before support values
are formed that hesitancy can be split between membership and
non-membership in different ways. This script shows the support values of
one bundled group under every strategy, as the evaluated round reports
them, then reruns the bundled rounds per strategy to show where the choice
starts to matter.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import panelrank as pr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def group_supports(round_input) -> None:
    label = round_input.alternatives[0]
    expert = round_input.expert_labels[0]
    print(f"support values for {label}, {expert} "
          f"(criteria {', '.join(round_input.criteria_labels)}):")
    for strategy in pr.SplitStrategy:
        config = replace(pr.reference_config(), split_strategy=strategy)
        # the first expert's unsorted support values for the first alternative
        values = pr.evaluate_round(round_input, config).alternatives[label].support[0]
        row = "  ".join(f"{v:+.4f}" for v in values)
        print(f"    {strategy.value:<12} {row}")
    print()
    print("equal and none both leave the support at mu - nu; proportional")
    print("shifts it toward the judgment's own mu:nu ratio.")
    print()


def rankings_per_strategy(rounds) -> None:
    base = pr.reference_config()
    for round_input in rounds:
        print(f"Round {round_input.round_label}:")
        for strategy in pr.SplitStrategy:
            config = replace(base, split_strategy=strategy)
            report = pr.evaluate_round(round_input, config)
            print(f"    {strategy.value:<12} {' > '.join(report.ranking)}")
        print()


def main() -> None:
    rounds = pr.parse_judgments((FIXTURES / "supplier_rounds.json").read_bytes())
    group_supports(rounds[0])
    rankings_per_strategy(rounds)


if __name__ == "__main__":
    main()
