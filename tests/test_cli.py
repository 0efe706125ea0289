"""Command-line interface: subcommands, exit codes, diagnostics."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

from panelrank import (
    cli_main,
    emit_trace,
    evaluate_round,
    read_trace,
    trace_records,
)
import panelrank.cli


@pytest.fixture(scope="module")
def judgments(fixtures_dir):
    return str(fixtures_dir / "supplier_rounds.json")


def test_evaluate_prints_all_rounds(judgments, capsys):
    assert cli_main(["evaluate", judgments]) == 0
    out = capsys.readouterr().out
    for label in ("Round r1", "Round r2", "Round r3"):
        assert label in out
    assert "Supplier_4 > Supplier_3 > Supplier_2 > Supplier_1 > Supplier_5" in out


def test_evaluate_round_filter(judgments, capsys):
    assert cli_main(["evaluate", judgments, "--round", "r1"]) == 0
    out = capsys.readouterr().out
    assert "Round r1" in out
    assert "Round r2" not in out


def test_consecutive_calls_share_no_parsed_state(judgments, capsys):
    # one parser serves every call in a process; nothing a call sets reaches the next
    args = ["compare-configs", judgments, "--round", "r2", "--reference", "Supplier_1 > Supplier_2"]
    assert cli_main(args) == 0
    out = capsys.readouterr().out
    assert "matches_reference" in out and "round r1" not in out
    assert cli_main(["compare-configs", judgments]) == 0
    out = capsys.readouterr().out
    assert "matches_reference" not in out
    assert all(f"round {label}" in out for label in ("r1", "r2", "r3"))


def test_evaluate_unknown_round_lists_known_labels(judgments, capsys):
    assert cli_main(["evaluate", judgments, "--round", "r9"]) == 1
    err = capsys.readouterr().err
    assert "no round labeled 'r9'" in err
    assert "r1, r2, r3" in err


def test_evaluate_json_format(judgments, capsys):
    assert cli_main(["evaluate", judgments, "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [doc["round_label"] for doc in docs] == ["r1", "r2", "r3"]
    assert cli_main(["evaluate", judgments, "--round", "r1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["round_label"] == "r1"


def test_evaluate_csv_format_is_the_trace(judgments, rounds, capsys):
    assert cli_main(["evaluate", judgments, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    expected = emit_trace([evaluate_round(r) for r in rounds]).decode("utf-8")
    assert out == expected


def test_evaluate_with_config_file(judgments, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"split_strategy": "proportional"}))
    assert cli_main(["evaluate", judgments, "--config", str(config)]) == 0
    assert "Round r1" in capsys.readouterr().out


def test_malformed_config_exits_one(judgments, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{nope")
    assert cli_main(["evaluate", judgments, "--config", str(config)]) == 1
    assert "error:" in capsys.readouterr().err
    config.write_text(json.dumps({"bogus": 1}))
    assert cli_main(["evaluate", judgments, "--config", str(config)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_non_utf8_config_exits_one_with_its_path(judgments, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{}")
    assert cli_main(["evaluate", judgments, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not valid UTF-8")
    assert str(config) in err


@pytest.mark.parametrize(
    "name,needle",
    [
        ("invalid_ifn.json", "Supplier_2"),
        ("empty_alternatives.json", "alternatives"),
        ("ragged_rows.json", "Supplier_1"),
        ("malformed.json", "line"),
    ],
)
def test_bad_judgment_files_exit_one_with_location(fixtures_dir, capsys, name, needle):
    assert cli_main(["evaluate", str(fixtures_dir / "bad" / name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert needle in err


def test_missing_file_exits_one(tmp_path, capsys):
    path = tmp_path / "nowhere.json"
    assert cli_main(["evaluate", str(path)]) == 1
    assert "nowhere.json" in capsys.readouterr().err


def test_trace_writes_round_trippable_file(judgments, rounds, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert cli_main(["trace", judgments, "--out", str(out)]) == 0
    assert str(out) in capsys.readouterr().err
    data = out.read_bytes()
    reports = [evaluate_round(r) for r in rounds]
    assert data == emit_trace(reports)
    expected = tuple(rec for report in reports for rec in trace_records(report))
    assert read_trace(data) == expected


def test_compare_configs_reports_grid_and_reference(judgments, outcomes, capsys):
    reference = " > ".join(outcomes["rankings"]["r1"])
    assert (
        cli_main(
            ["compare-configs", judgments, "--round", "r1", "--reference", reference]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("split=") == 6
    assert "matches_reference: yes" in out


def test_plot_data_writes_series(judgments, rounds, tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert cli_main(["plot-data", judgments, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "round,alternative,gross_estimation"
    assert len(lines) == 1 + sum(len(r.alternatives) for r in rounds)


def test_usage_errors_exit_one(capsys):
    assert cli_main([]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli_main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "evaluate" in capsys.readouterr().out


def test_internal_failures_exit_two(judgments, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(sys.modules["panelrank.pipeline"], "evaluate_round", boom)
    assert cli_main(["evaluate", judgments]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: round {label}: RuntimeError: wires crossed" for label in ("r1", "r2", "r3")
    ]
    # a failure outside round evaluation is still an internal error
    monkeypatch.undo()
    monkeypatch.setattr(panelrank.cli, "emit_report", boom)
    assert cli_main(["evaluate", judgments]) == 2
    assert capsys.readouterr().err.startswith("internal error: RuntimeError")


def _overflow_round(label: str) -> dict:
    """2 alternatives x 3 experts x 600 criteria of hand-entry-like judgments.

    Each expert's information volume is far above log(float max) ~ 709.8, so
    its exponential overflows.
    """
    rng = random.Random(3)

    def pair():
        mu = rng.randint(0, 100)
        return [mu / 100, rng.randint(0, 100 - mu) / 100]

    return {
        "round_label": label,
        "criteria_labels": [f"c{i}" for i in range(600)],
        "experts": ["E1", "E2", "E3"],
        "alternatives": {
            alt: [[pair() for _ in range(600)] for _ in range(3)] for alt in ("A1", "A2")
        },
    }


def _write_rounds(path, rounds) -> str:
    path.write_text(json.dumps({"schema_version": "1", "rounds": rounds}))
    return str(path)


def test_overflowing_information_volume_fails_with_its_location(tmp_path, capsys):
    path = _write_rounds(tmp_path / "wide.json", [_overflow_round("wide")])
    assert cli_main(["evaluate", path, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "Infinity" not in captured.out
    assert captured.out == ""
    assert captured.err.startswith("error: round wide: DomainError: information volume")
    assert "overflows" in captured.err
    assert "(at A1/E1)" in captured.err


def test_a_failing_round_does_not_stop_the_others(fixtures_dir, rounds, tmp_path, capsys):
    good = json.loads((fixtures_dir / "round1.json").read_text())["rounds"][0]
    path = _write_rounds(tmp_path / "mixed.json", [good, _overflow_round("wide")])
    failure = "error: round wide: DomainError: "
    report = evaluate_round(rounds[0])

    assert cli_main(["evaluate", path, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert [doc["round_label"] for doc in json.loads(captured.out)] == ["r1"]
    assert captured.err.startswith(failure)

    trace = tmp_path / "trace.csv"
    assert cli_main(["trace", path, "--out", str(trace)]) == 2
    assert capsys.readouterr().err.startswith(failure)
    assert trace.read_bytes() == emit_trace([report])

    series = tmp_path / "series.csv"
    assert cli_main(["plot-data", path, "--out", str(series)]) == 2
    assert capsys.readouterr().err.startswith(failure)
    assert len(series.read_text().splitlines()) == 1 + len(report.alternatives)

    alone = _write_rounds(tmp_path / "good.json", [good])
    assert cli_main(["compare-configs", alone]) == 0
    expected = capsys.readouterr().out
    assert cli_main(["compare-configs", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == expected
    assert "round wide" not in captured.out
    assert captured.err.startswith(failure)
    assert "(at A1/E1)" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_integer_beyond_the_float_range_exits_one_with_its_location(
    judgments, tmp_path, capsys
):
    huge = "1" + "0" * 400
    round_doc = {
        "round_label": "r1",
        "criteria_labels": ["x1", "x2"],
        "experts": ["E1", "E2"],
        "alternatives": {"A": [[[0.6, 0.2], [0.3, 0.5]], [[0.5, 0.4], [0.8, 0.0]]]},
    }
    path = tmp_path / "huge.json"
    text = json.dumps({"schema_version": "1", "rounds": [round_doc]})
    path.write_text(text.replace("0.8", huge))
    assert cli_main(["evaluate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: number too large for a float (at rounds[0].alternatives.A, E2, x2)\n"
    )

    config = tmp_path / "config.json"
    config.write_text(f'{{"credibility_floor": {huge}}}')
    assert cli_main(["evaluate", judgments, "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("error: number too large for a float (at config)")


def test_single_criterion_round_exits_one_with_its_location(tmp_path, capsys):
    round_doc = {
        "round_label": "r1",
        "criteria_labels": ["x1"],
        "experts": ["E1", "E2"],
        "alternatives": {"A": [[[0.6, 0.2]], [[0.5, 0.4]]]},
    }
    path = _write_rounds(tmp_path / "narrow.json", [round_doc])
    assert cli_main(["evaluate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a round needs at least two criteria (at rounds[0])\n"


def test_console_script_is_installed(judgments):
    binary = shutil.which("panelrank")
    assert binary, "console script should be on PATH after installation"
    result = subprocess.run(
        [binary, "evaluate", judgments, "--round", "r1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "Round r1" in result.stdout


def test_module_entry_point(judgments):
    result = subprocess.run(
        [sys.executable, "-m", "panelrank", "evaluate", judgments, "--round", "r1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "Round r1" in result.stdout
