"""Golden byte gate: the trace and JSON bytes of the bundled fixtures.

Criterion 10 compares emit_trace with itself, so it cannot notice a change
in the numbers. Any drift in any intermediate value of the fixture rounds,
under any of the six canonical configurations, changes these digests. They
were last recorded when every expert's sharpness came to be taken from the
volumes and credibility in the log domain, rather than as (1 - alpha) /
alpha, and the JSON dropped the derived key info_volume.modified: on the
fixtures that moved sharpness and gross estimations by at most 1e-15
relative, and OWA weights by at most 1e-14. numpy may pick its log, log1p
and exp by CPU feature; these were recorded with numpy 2.4 on an x86-64
host with AVX-512. Update them only together with a stated reason for the
change in output: `PYTHONPATH=src python tests/test_golden.py` prints both
tables from the current code, laid out as below, to paste over them.

The rankings and tie sets sit beside the digests and are not printed, so a
re-recorded digest cannot hide a moved ranking.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURES
from panelrank import (
    cli_main,
    config_grid,
    emit_report,
    emit_trace,
    evaluate_round,
    parse_judgments,
)

# file -> "split/dp_source" -> (sha256 of emit_trace over all rounds,
#                               sha256 of the rounds' emit_report JSON, joined)
GOLDEN = {
    "supplier_rounds.json": {
        "equal/original": (
            "4acc8828fcb9634b6a6356fdd1d3a9893c645e0b3c25eaa68f9b5f11c8e2336a",
            "2c69249be9e0e708d8f3c89dde8067f2837eaf31670a7a0c4716ed5a2bf8b52b",
        ),
        "equal/combined": (
            "c9d20db8d399be4864dedb845d2ec9cdc7368280eaca33ee338f4e4bc7864406",
            "8ea80c451636c740a4caa1ca7656b21e53ce75cee3b4aec13fea68a22b61e0cd",
        ),
        "proportional/original": (
            "8ba58503fb2e52fa520f5f35414ea6c2a0be61ddb5916aca6557ac3df61c75da",
            "f50957ebc2d6697c9b9e4ceb3c14c2310f89b3b608f394d422a852dcb8251143",
        ),
        "proportional/combined": (
            "5f84605e356c3e59d2aa5dda4144dc956b8472a7b3d0d20b6886fe70e9fe15d7",
            "f2a30538303df103dda00d95574a005eb19ef61536b9a42c1e462d9a2a6d20a4",
        ),
        "none/original": (
            "2fd21f9cb7c0bb2d956aaee7feceefb12f6b6432db1056a5715bfeb033197d13",
            "97fd2c9ac0fbd5f448ec4a79f46bc099c9b63643c3215afa0b32278a7b2e5baa",
        ),
        "none/combined": (
            "4dfe17b5b092065503005c09c54c661c4b2e84603ec08abf2d6f4ec6b437c7a4",
            "3eb4a6b9a58b437599d2e86c01d5a0af30f9bcd6bb302d91e64b5aa83e2256bb",
        ),
    },
    "round1.json": {
        "equal/original": (
            "fb7de872fe7a77d92dbffb9491f631b69bb1223812a098f6bc65e33d94cf08aa",
            "278e8452678022ec61e03fc15ca8f40a86b3fa5b726def2c04fe5c02baf18c44",
        ),
        "equal/combined": (
            "53bdc96ee3cb3e441ecc743d6a51ecb6cf6fdc0b067dc62e2fb6ed1cef0057c2",
            "b6bef92232b9b4434db8b61e575b600eae21af92450a76a5be8c2004b26a0e79",
        ),
        "proportional/original": (
            "8133b62c860a87277b7320e83192e55f28ad6b0dd7996fd2f559a03950ff3f8f",
            "06831c2a0bc45624bc7e52181b88976df28dc62df96de102331f29a5b8fbf4c8",
        ),
        "proportional/combined": (
            "152f03268a46f885a7d4089d275861a9808cb3d062a78515970fa699e6e690bf",
            "b3089236d0d185aa3a2d367aff22360c583332212f5ea016b2634ca6e9f23da4",
        ),
        "none/original": (
            "d6943047d9d3abe419fe5adb500801727a18d2662a8e746c99e4a7fe03bae976",
            "bcfaa30b30949ad48424bdc48b047032ee4e2e1d187128eda787dc43077cd9cc",
        ),
        "none/combined": (
            "91ea6e26445219d5e61459829fedabd23bec7e593829e97f77db342b239635d9",
            "e73c6c45aefe99732c584340122c1440345c7bdf15efa80c68f01b723339e075",
        ),
    },
}


# CLI arguments after the fixture path -> sha256 of what the CLI writes, on
# supplier_rounds.json: stdout for evaluate and compare-configs, the --out
# file for trace. evaluate and trace run under the reference config,
# compare-configs under the six canonical configs, with and without a
# reference ranking. The list form of evaluate --format json and the
# compare-configs table are pinned nowhere else byte for byte.
CLI_GOLDEN = {
    ("evaluate", "--format", "json"): (
        "22c582d9ef912421145c9b5a35630c64dfeabf657f2abf30065cd48c743c33a8"
    ),
    ("evaluate", "--round", "r1", "--format", "json"): (
        "278e8452678022ec61e03fc15ca8f40a86b3fa5b726def2c04fe5c02baf18c44"
    ),
    ("evaluate", "--format", "csv"): (
        "4acc8828fcb9634b6a6356fdd1d3a9893c645e0b3c25eaa68f9b5f11c8e2336a"
    ),
    ("trace", "--out"): "4acc8828fcb9634b6a6356fdd1d3a9893c645e0b3c25eaa68f9b5f11c8e2336a",
    ("compare-configs",): "6ade8bdd1d73cfc7d326b1a86874be09cbd73a06ffbc0a3b25efd432f7dee7bb",
    (
        "compare-configs",
        "--round",
        "r1",
        "--reference",
        "Supplier_4 > Supplier_3 > Supplier_2 > Supplier_1 > Supplier_5",
    ): "5939e85bfefc34a68770f917db58e23a33662ca48c29bbb680bdd177d0715d67",
}


# file -> "split/dp_source" -> round -> (ranking, best first and joined by ">",
#                                      the labels tied on gross estimation)
RANKINGS = {
    "supplier_rounds.json": {
        "equal/original": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
            "r2": ("Supplier_4>Supplier_1>Supplier_2>Supplier_5", ()),
            "r3": ("Supplier_6>Supplier_4>Supplier_3>Supplier_5>Supplier_2>Supplier_1", ()),
        },
        "equal/combined": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
            "r2": ("Supplier_4>Supplier_1>Supplier_2>Supplier_5", ()),
            "r3": ("Supplier_6>Supplier_4>Supplier_3>Supplier_5>Supplier_2>Supplier_1", ()),
        },
        "proportional/original": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
            "r2": ("Supplier_4>Supplier_1>Supplier_2>Supplier_5", ()),
            "r3": ("Supplier_4>Supplier_3>Supplier_6>Supplier_5>Supplier_2>Supplier_1", ()),
        },
        "proportional/combined": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
            "r2": ("Supplier_4>Supplier_1>Supplier_2>Supplier_5", ()),
            "r3": ("Supplier_4>Supplier_3>Supplier_6>Supplier_5>Supplier_2>Supplier_1", ()),
        },
        "none/original": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
            "r2": ("Supplier_4>Supplier_1>Supplier_2>Supplier_5", ()),
            "r3": ("Supplier_6>Supplier_4>Supplier_3>Supplier_5>Supplier_2>Supplier_1", ()),
        },
        "none/combined": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
            "r2": ("Supplier_4>Supplier_1>Supplier_2>Supplier_5", ()),
            "r3": ("Supplier_6>Supplier_4>Supplier_3>Supplier_5>Supplier_2>Supplier_1", ()),
        },
    },
    "round1.json": {
        "equal/original": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
        },
        "equal/combined": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
        },
        "proportional/original": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
        },
        "proportional/combined": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
        },
        "none/original": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
        },
        "none/combined": {
            "r1": ("Supplier_4>Supplier_3>Supplier_2>Supplier_1>Supplier_5", ()),
        },
    },
}


def _config_id(config) -> str:
    return f"{config.split_strategy.value}/{config.dp_source.value}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fixture_digests(name: str, config) -> tuple[str, str]:
    """The GOLDEN entry of a fixture file under one config, from the current code."""
    rounds = parse_judgments((FIXTURES / name).read_bytes())
    reports = [evaluate_round(r, config) for r in rounds]
    return _sha256(emit_trace(reports)), _sha256(b"".join(emit_report(r, "json") for r in reports))


def _cli_digest(args: tuple[str, ...], workdir: Path) -> str:
    """The CLI_GOLDEN entry of a command line, from the current code."""
    command, *options = args
    argv = [command, str(FIXTURES / "supplier_rounds.json"), *options]
    out = workdir / "trace.csv"
    if command == "trace":
        argv.append(str(out))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(argv) == 0
    return _sha256(out.read_bytes() if command == "trace" else stdout.getvalue().encode("utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("config", config_grid(), ids=_config_id)
def test_fixture_output_bytes_are_unchanged(name, config):
    assert _fixture_digests(name, config) == GOLDEN[name][_config_id(config)]


@pytest.mark.parametrize("name", sorted(RANKINGS))
@pytest.mark.parametrize("config", config_grid(), ids=_config_id)
def test_fixture_rankings_and_ties_are_unchanged(fixtures_dir, name, config):
    rounds = parse_judgments((fixtures_dir / name).read_bytes())
    expected = RANKINGS[name][_config_id(config)]
    assert {r.round_label for r in rounds} == set(expected)
    for r in rounds:
        report = evaluate_round(r, config)
        ranking, ties = expected[r.round_label]
        assert ">".join(report.ranking) == ranking
        assert report.ties == ties


@pytest.mark.parametrize("args", sorted(CLI_GOLDEN), ids=" ".join)
def test_cli_output_bytes_are_unchanged(tmp_path, args):
    assert _cli_digest(args, tmp_path) == CLI_GOLDEN[args]


def _print_tables() -> None:
    """Print GOLDEN and CLI_GOLDEN as this file lays them out, from the current code."""
    lines = ["GOLDEN = {"]
    for name in GOLDEN:
        lines.append(f'    "{name}": {{')
        for config in config_grid():
            trace, json_ = _fixture_digests(name, config)
            lines += [f'        "{_config_id(config)}": (', f'            "{trace}",']
            lines += [f'            "{json_}",', "        ),"]
        lines.append("    },")
    lines += ["}", "", "", "CLI_GOLDEN = {"]
    with tempfile.TemporaryDirectory() as workdir:
        for args in CLI_GOLDEN:
            digest = f'"{_cli_digest(args, Path(workdir))}"'
            key = "(" + ", ".join(f'"{a}"' for a in args) + ("," if len(args) == 1 else "") + ")"
            # the entry on one line where it fits the file's 99 columns
            if len(f"    {key}: {digest},") <= 99:
                lines.append(f"    {key}: {digest},")
            elif len(f"    {key}: (") <= 99:
                lines += [f"    {key}: (", f"        {digest}", "    ),"]
            else:
                lines += ["    ("] + [f'        "{a}",' for a in args] + [f"    ): {digest},"]
    lines.append("}")
    print("\n".join(lines))


if __name__ == "__main__":
    _print_tables()
