"""Self-tests of the benchmark: generator, output checks, tracer and contract.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gen import judgment_bytes  # noqa: E402
from workloads import DEFAULT_SEED, CheckError, make_job  # noqa: E402

SYNTHETIC = [name for name, shape in workloads.WORKLOADS.items() if shape is not None]


@pytest.fixture
def job_factory(tmp_path):
    made = []

    def make(workload, seed=DEFAULT_SEED):
        path = tmp_path / f"{workload}-{seed}.json"
        path.write_bytes(workloads.input_bytes(workload, seed))
        job = make_job(workload, seed, path, tmp_path)
        made.append(job)
        return job

    yield make
    for job in made:
        job.close()


def test_generator_is_deterministic_per_seed():
    assert judgment_bytes(5, 2, 3, 4) == judgment_bytes(5, 2, 3, 4)
    assert judgment_bytes(5, 2, 3, 4) != judgment_bytes(6, 2, 3, 4)
    for name in SYNTHETIC:
        data = workloads.input_bytes(name, DEFAULT_SEED)
        assert workloads.sha256(data) == workloads.GOLDEN[name]["input_sha256"]


def test_generator_draws_grid_judgments():
    doc = json.loads(judgment_bytes(3, 4, 5, 6))
    (round_,) = doc["rounds"]
    pairs = [p for matrix in round_["alternatives"].values() for row in matrix for p in row]
    assert len(pairs) == 4 * 5 * 6
    for mu, nu in pairs:
        assert round(mu * 100) / 100 == mu and round(nu * 100) / 100 == nu
        assert 0.0 <= nu <= round(1.0 - mu, 2)
    panelrank = importlib.import_module("panelrank")
    assert len(panelrank.parse_judgments(judgment_bytes(3, 4, 5, 6))) == 1


def test_fixture_ignores_the_seed():
    assert workloads.input_bytes("fixture-audit", 1) == workloads.input_bytes("fixture-audit", 2)


def test_golden_inputs_are_enforced_at_the_default_seed(tmp_path):
    path = tmp_path / "other.json"
    path.write_bytes(judgment_bytes(99, 6, 30, 6))
    with pytest.raises(CheckError):
        make_job("expert-panel", DEFAULT_SEED, path, tmp_path)


def test_checker_rejects_a_corrupted_ranking(job_factory):
    job = job_factory("expert-panel")
    report = job.run()
    job.check(report)
    corrupted = dataclasses.replace(report, ranking=tuple(reversed(report.ranking)))
    with pytest.raises(CheckError):
        job.check(corrupted)
    ge = {label: alt.gross_estimation for label, alt in report.alternatives.items()}
    with pytest.raises(CheckError):
        workloads.check_ranking(corrupted.ranking, ge, "seed")
    with pytest.raises(CheckError):
        workloads.check_ranking(report.ranking[1:], ge, "seed")


def test_checker_rejects_non_finite_gross_estimation():
    with pytest.raises(CheckError):
        workloads.check_ranking(("a", "b"), {"a": float("inf"), "b": 1.0}, "seed")


def test_checker_rejects_an_infinity_token(job_factory):
    job = job_factory("fixture-audit")
    rc_evaluate, text, rc_trace = job.run()
    job.check((rc_evaluate, text, rc_trace))
    with pytest.raises(CheckError):
        workloads.strict_json('{"gross_estimation": Infinity}')
    value = '"gross_estimation": '
    corrupted = text.replace(value, value + "Infinity, \"was\": ", 1)
    assert corrupted != text
    with pytest.raises(CheckError, match="Infinity"):
        job.check((rc_evaluate, corrupted, rc_trace))


def test_checker_rejects_a_failed_command(job_factory):
    job = job_factory("fixture-audit")
    rc_evaluate, text, _ = job.run()
    with pytest.raises(CheckError):
        job.check((rc_evaluate, text, 2))


def test_reference_entry_must_match_evaluate_round(job_factory):
    job = job_factory("criteria-sweep", seed=DEFAULT_SEED + 1)
    outcomes = job.run()
    job.check(outcomes)
    job.reference = tuple(reversed(job.reference))
    with pytest.raises(CheckError, match="reference"):
        job.check(outcomes)


def _module_attributes() -> dict:
    names = [n for n in sys.modules if n == "panelrank" or n.startswith("panelrank.")]
    return {name: dict(vars(sys.modules[name])) for name in names}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_restores_module_attributes(workload, job_factory):
    job = job_factory(workload)
    before = _module_attributes()
    spy = tracer.Tracer()
    with spy.installed():
        assert any(
            getattr(getattr(sys.modules[f"panelrank.{m}"], a), "__wrapped__", None)
            for m, a in tracer.SITES
        )
        job.run()
    after = _module_attributes()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"


# exact per-job counts at the default seed, one traced job each
EXPECTED_COUNTS = {
    "fixture-audit": {
        "core.js_distance.calls": 2916,
        "groups.pairwise_distances.useful_ratio": 1.0,
        "io.trace_bytes": 152934,
    },
    "criteria-sweep": {
        "core.js_distance.calls": 73440,
        "groups.pairwise_distances.calls": 72,
        "groups.pairwise_distances.useful_ratio": 1 / 6,
        "pipeline.evaluate_round.calls": 6,
    },
    "expert-panel": {
        "core.js_distance.calls": 65340,
        "credibility.group_distance.calls": 10440,
        "groups.pairwise_distances.useful_ratio": 1.0,
        "pipeline.evaluate_round.calls": 1,
    },
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_COUNTS))
def test_exact_counts_at_the_default_seed(workload, job_factory):
    job = job_factory(workload)
    spy = tracer.Tracer()
    with spy.installed():
        output = job.run()
    sizes = Counter(job.check(output))
    metrics = spy.metrics([1], [1], sizes)
    assert metrics["credibility.group_distance.useful_ratio"] == 0.5
    assert metrics["slf.support_values.useful_ratio"] == 0.5
    for name, expected in EXPECTED_COUNTS[workload].items():
        assert metrics[name] == pytest.approx(expected, rel=1e-12), name
    assert set(metrics) == set(tracer.METRICS)


def test_a_vanished_name_reads_zero_calls(monkeypatch, job_factory):
    job = job_factory("expert-panel")
    monkeypatch.setattr(tracer, "SITES", tracer.SITES + (("slf", "no_longer_here"),))
    monkeypatch.setitem(tracer.METRICS, "slf.no_longer_here.calls", "count")
    spy = tracer.Tracer()
    with spy.installed():
        job.run()
    metrics = spy.metrics([1], [1], Counter())
    assert metrics["slf.no_longer_here.calls"] == 0
    assert not hasattr(sys.modules["panelrank.slf"], "no_longer_here")


@pytest.mark.parametrize(
    "samples, percentile, beyond",
    [(100, 90.0, 10), (370, 90.0, 37), (92, 82 / 92 * 100, 10), (3, 100.0, 0)],
)
def test_tail_is_p90_with_ten_samples_beyond_it(samples, percentile, beyond):
    latencies = [float(i) for i in range(samples, 0, -1)]
    got_percentile, value = run.tail(latencies)
    assert got_percentile == pytest.approx(percentile)
    assert sum(x > value for x in latencies) == beyond


def test_scaling_cancels_a_uniform_host_slowdown():
    fast = run.scaled_ms([4_000_000, 6_000_000], [2_000_000] * 3, 1_000_000)
    slow = run.scaled_ms([6_000_000, 9_000_000], [3_000_000] * 3, 1_000_000)
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx([2.0, 3.0])
    # a job between a fast and a slow calibration is scaled by their mean
    assert run.scaled_ms([5_000_000], [2_000_000, 3_000_000], 1_000_000) == pytest.approx([2.0])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS
    assert spec["paths"] == [HERE.name]


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fixture-audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
