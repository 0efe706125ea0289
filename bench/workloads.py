"""The benchmark's workloads: their inputs, one job each, and the job's output checks.

Each workload makes a different layer of panelrank dominant:

- fixture-audit: the bundled supplier rounds through the CLI, `evaluate
  --format json` then `trace --out`. This is what users run; at three experts
  the time goes to argparse, JSON and trace emission and per-object
  construction, and it is the only workload that writes through `io`.
- criteria-sweep: a seeded 3 x 4 x 40 round (alternatives x experts x
  criteria) through `compare_configs` over the six-config grid. Within-group
  distances (`groups`) dominate, and they are recomputed for every config
  although no config changes them.
- expert-panel: a seeded 6 x 30 x 6 round through `evaluate_round` under the
  reference config. Cross-expert distances (`credibility`) dominate.

Experts and criteria decide which layer dominates; keep them when resizing.
Jobs look every entry point up on its module at call time, so the tracer's
wrappers see the calls. Modules come from importlib, because `import
panelrank.credibility` binds the re-exported function of that name.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io as _io
import json
import math
import os
from pathlib import Path

from gen import judgment_bytes

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "supplier_rounds.json"
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

DEFAULT_SEED = 1

# gross estimations lie in [-100, 100]; a rewrite that reorders float sums moves
# them by ~1e-14, a change of method by far more than this
GE_TOL = 1e-9


# (alternatives, experts, criteria) of each generated round; None: the fixture
WORKLOADS = {
    "fixture-audit": None,
    "criteria-sweep": (3, 4, 40),
    "expert-panel": (6, 30, 6),
}


def input_bytes(workload: str, seed: int) -> bytes:
    """The bytes the program receives; fixture-audit ignores the seed."""
    shape = WORKLOADS[workload]
    if shape is None:
        return FIXTURE.read_bytes()
    return judgment_bytes(seed, *shape)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# output checks


class CheckError(Exception):
    """A job output that fails a benchmark check."""


def _reject_constant(token: str):
    raise CheckError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity tokens."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def check_ranking(ranking, ge: dict, where: str) -> None:
    """Gross estimations are finite and the ranking orders all of them, highest first."""
    for label, value in ge.items():
        if not (isinstance(value, float) and math.isfinite(value)):
            raise CheckError(f"{where}: gross estimation of {label} is {value!r}")
    if sorted(ranking) != sorted(ge):
        raise CheckError(f"{where}: ranking {list(ranking)} is not a permutation of {sorted(ge)}")
    for a, b in zip(ranking, ranking[1:]):
        if ge[a] < ge[b]:
            raise CheckError(f"{where}: {a} ({ge[a]}) ranked above {b} ({ge[b]})")


def check_golden(ranking, ge: dict, golden: dict, where: str) -> None:
    """Ranking equal to the golden one; each gross estimation within GE_TOL of it."""
    if list(ranking) != golden["ranking"]:
        raise CheckError(f"{where}: ranking {list(ranking)} != golden {golden['ranking']}")
    for label, expected in golden["ge"].items():
        if abs(ge[label] - expected) > GE_TOL * max(1.0, abs(expected)):
            raise CheckError(f"{where}: gross estimation of {label} {ge[label]!r} != {expected!r}")


def trace_rows(experts: int, criteria: int, alternatives: int, ties: int) -> int:
    """Rows of the audit trace for one round, from the stage list of the io docstring."""
    per_alternative = (
        8 * experts * criteria  # reliability z combined similarity points weights owa_weight dp
        + experts * criteria * (criteria - 1) // 2  # distance
        + experts * (experts - 1)  # group_distance
        + 7 * experts  # divergence credibility ivf ivf_norm alpha dslf sharpness
        + 2  # ge rank
    )
    return alternatives * per_alternative + ties


# ---------------------------------------------------------------------------
# jobs


def _modules():
    return (
        importlib.import_module("panelrank.io"),
        importlib.import_module("panelrank.pipeline"),
    )


class FixtureAudit:
    """In-process `panelrank evaluate F --format json` then `panelrank trace F --out T`."""

    def __init__(self, data: bytes, path: Path, work_dir: Path):
        self.io, self.pipeline = _modules()
        self.cli = importlib.import_module("panelrank.cli")
        self.input = path
        self.trace = work_dir / f"trace-{os.getpid()}.csv"
        self.golden = GOLDEN["fixture-audit"]["rounds"]
        self.judgments = 2 * _judgment_count(self.io.parse_judgments(data))

    def run(self):
        out = _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_io.StringIO()):
            rc_evaluate = self.cli.cli_main(["evaluate", str(self.input), "--format", "json"])
            rc_trace = self.cli.cli_main(["trace", str(self.input), "--out", str(self.trace)])
        return rc_evaluate, out.getvalue(), rc_trace

    def check(self, result) -> dict:
        rc_evaluate, text, rc_trace = result
        if rc_evaluate != 0 or rc_trace != 0:
            raise CheckError(f"exit codes evaluate={rc_evaluate} trace={rc_trace}")
        docs = strict_json(text)
        if [d["round_label"] for d in docs] != list(self.golden):
            raise CheckError(f"rounds {[d['round_label'] for d in docs]} != {list(self.golden)}")
        trace = self.trace.read_bytes()
        records = self.io.read_trace(trace)
        expected_rows = 0
        trace_ge = {(r.round, r.alternative): float(r.value) for r in records if r.stage == "ge"}
        for doc in docs:
            label = doc["round_label"]
            ge = {alt: a["gross_estimation"] for alt, a in doc["alternatives"].items()}
            check_ranking(doc["ranking"], ge, label)
            check_golden(doc["ranking"], ge, self.golden[label], label)
            for alt, value in ge.items():
                if trace_ge.get((label, alt)) != value:
                    raise CheckError(f"{label}/{alt}: trace ge differs from JSON ge {value!r}")
            expected_rows += trace_rows(
                len(doc["expert_labels"]),
                len(doc["criteria_labels"]),
                len(doc["alternatives"]),
                len(doc["ties"]),
            )
        if len(records) != expected_rows:
            raise CheckError(f"trace has {len(records)} rows, expected {expected_rows}")
        return {"json_bytes": len(text.encode("utf-8")), "trace_bytes": len(trace)}

    def close(self) -> None:
        self.trace.unlink(missing_ok=True)


class CriteriaSweep:
    """parse_judgments then compare_configs over config_grid()."""

    def __init__(self, data: bytes, golden: dict | None):
        self.io, self.pipeline = _modules()
        self.data = data
        self.golden = golden
        self.configs = len(self.pipeline.config_grid())
        self.judgments = self.configs * _judgment_count(self.io.parse_judgments(data))
        self.reference = None

    def run(self):
        rounds = self.io.parse_judgments(self.data)
        return self.pipeline.compare_configs(rounds[0], self.pipeline.config_grid())

    def check(self, outcomes) -> dict:
        if len(outcomes) != self.configs:
            raise CheckError(f"{len(outcomes)} outcomes for {self.configs} configs")
        reference_config = self.pipeline.reference_config()
        if self.reference is None:
            rounds = self.io.parse_judgments(self.data)
            self.reference = self.pipeline.evaluate_round(rounds[0], reference_config).ranking
        references = 0
        for outcome in outcomes:
            key = f"{outcome.config.split_strategy.value}/{outcome.config.dp_source.value}"
            check_ranking(outcome.ranking, outcome.gross_estimation, key)
            if self.golden is not None:
                check_golden(outcome.ranking, outcome.gross_estimation, self.golden[key], key)
            if outcome.config == reference_config:
                references += 1
                if outcome.ranking != self.reference:
                    raise CheckError(f"reference entry {outcome.ranking} != {self.reference}")
        if references != 1:
            raise CheckError(f"{references} outcomes under the reference config")
        return {}

    def close(self) -> None:
        pass


class ExpertPanel:
    """parse_judgments then evaluate_round under the reference config."""

    def __init__(self, data: bytes, golden: dict | None):
        self.io, self.pipeline = _modules()
        self.data = data
        self.golden = golden
        self.judgments = _judgment_count(self.io.parse_judgments(data))

    def run(self):
        rounds = self.io.parse_judgments(self.data)
        return self.pipeline.evaluate_round(rounds[0], self.pipeline.reference_config())

    def check(self, report) -> dict:
        ge = {label: alt.gross_estimation for label, alt in report.alternatives.items()}
        check_ranking(report.ranking, ge, report.round_label)
        if self.golden is not None:
            check_golden(report.ranking, ge, self.golden, report.round_label)
        return {}

    def close(self) -> None:
        pass


def _judgment_count(rounds) -> int:
    return sum(
        len(r.alternatives) * len(r.expert_labels) * len(r.criteria_labels) for r in rounds
    )


def make_job(workload: str, seed: int, path: Path, work_dir: Path):
    """The job object of a workload on the input file at path.

    Golden values apply at DEFAULT_SEED only.
    """
    data = path.read_bytes()
    if workload == "fixture-audit":
        return FixtureAudit(data, path, work_dir)
    golden = GOLDEN[workload]
    expected = None
    if seed == DEFAULT_SEED:
        if sha256(data) != golden["input_sha256"]:
            raise CheckError(f"{workload} input at seed {seed} differs from the golden input")
        expected = golden["outputs"]
    if workload == "criteria-sweep":
        return CriteriaSweep(data, expected)
    return ExpertPanel(data, expected)
