"""Seeded synthetic judgment files in the schema-v1 format.

Each judgment is drawn like hand-entered expert input: membership on a 0.01
grid, non-membership on the same grid and at most 1 - membership. The same
seed and shape always give the same bytes, so a run is identified by the
sha256 of what the program received.

    python bench/gen.py --seed 7 --alternatives 6 --experts 30 --criteria 6 > round.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys


def judgment_bytes(seed: int, alternatives: int, experts: int, criteria: int) -> bytes:
    """One round of alternatives x experts x criteria judgments, as file bytes."""
    rng = random.Random(seed)

    def pair():
        mu = rng.randint(0, 100)
        nu = rng.randint(0, 100 - mu)
        return [mu / 100, nu / 100]

    doc = {
        "schema_version": "1",
        "rounds": [
            {
                "round_label": f"seed{seed}",
                "criteria_labels": [f"c{i + 1:02d}" for i in range(criteria)],
                "experts": [f"E{i + 1:02d}" for i in range(experts)],
                "alternatives": {
                    f"A{a + 1}": [[pair() for _ in range(criteria)] for _ in range(experts)]
                    for a in range(alternatives)
                },
            }
        ],
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--alternatives", type=int, required=True)
    parser.add_argument("--experts", type=int, required=True)
    parser.add_argument("--criteria", type=int, required=True)
    args = parser.parse_args(argv)
    sys.stdout.buffer.write(
        judgment_bytes(args.seed, args.alternatives, args.experts, args.criteria)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
