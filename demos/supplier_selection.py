"""Walk the bundled supplier-selection rounds through the full pipeline.

Loads the three judgment rounds shipped under fixtures/, evaluates each one
at the reference configuration, prints the resulting rankings, and then
unpacks the winning alternative of round r1 stage by stage: expert
credibility, attitude characters, sharpness, ordered weights, and the
soft-likelihood values that the gross estimation sums up.
"""

from __future__ import annotations

from pathlib import Path

import panelrank as pr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _vector(values) -> str:
    return "  ".join(f"{float(v):.4f}" for v in values)


def main() -> None:
    data = (FIXTURES / "supplier_rounds.json").read_bytes()
    rounds = pr.parse_judgments(data)
    config = pr.reference_config()
    print(f"configuration: split={config.split_strategy.value}, "
          f"dp={config.dp_source.value}, floor={config.credibility_floor}")
    print()

    reports = []
    for round_input in rounds:
        report = pr.evaluate_round(round_input, config)
        reports.append(report)
        print(f"Round {report.round_label}: {' > '.join(report.ranking)}")
        for label in report.ranking:
            ge = report.alternatives[label].gross_estimation
            print(f"    {label:<12} gross estimation {ge:8.4f}")
        print()

    report = reports[0]
    best = report.ranking[0]
    alt = report.alternatives[best]
    print(f"Inside round {report.round_label}, alternative {best}:")
    print(f"    experts             {'  '.join(report.expert_labels)}")
    print(f"    credibility         {_vector(alt.credibility)}")
    print(f"    attitude character  {_vector(alt.attitude)}")
    print(f"    sharpness           {_vector(alt.sharpness)}")
    for label, owa, dslf in zip(report.expert_labels, alt.owa, alt.dslf):
        print(f"    {label}: ordered weights {_vector(owa)}")
        print(f"        soft likelihood {dslf:.4f}")
    print(f"    gross estimation    {alt.gross_estimation:.4f}")


if __name__ == "__main__":
    main()
