"""Rankings, tie sets and gross estimations of seeded synthetic rounds, pinned.

data/pinned_outcomes.json holds what the per-group pipeline gave for seeds
1 to 3 of the benchmark's generator (bench/gen.py) at 6x30x6, 3x4x40 and
10x10x10 (alternatives x experts x criteria) under the six canonical
configurations, recorded before the chain moved to whole-round arrays.
Rankings and tie sets must stay equal; a gross estimation may move by
rounding only, within GE_RTOL relative.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from panelrank import config_grid, evaluate_round, parse_judgments

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((Path(__file__).resolve().parent / "data" / "pinned_outcomes.json").read_text())

GE_RTOL = 1e-12


def _generator():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.judgment_bytes


CASES = [(shape, seed) for shape in sorted(PINNED) for seed in sorted(PINNED[shape])]


@pytest.mark.parametrize("shape, seed", CASES, ids=[f"{s}-seed{n}" for s, n in CASES])
def test_seeded_outcomes_are_unchanged(shape, seed):
    alternatives, experts, criteria = map(int, shape.split("x"))
    (round_input,) = parse_judgments(_generator()(int(seed), alternatives, experts, criteria))
    for config in config_grid():
        expected = PINNED[shape][seed][f"{config.split_strategy.value}/{config.dp_source.value}"]
        report = evaluate_round(round_input, config)
        assert list(report.ranking) == expected["ranking"]
        assert list(report.ties) == expected["ties"]
        for label, ge in expected["ge"].items():
            assert report.alternatives[label].gross_estimation == pytest.approx(
                ge, rel=GE_RTOL, abs=0.0
            )
