"""Golden byte gate: the trace and JSON bytes of the bundled fixtures.

Criterion 10 compares emit_trace with itself, so it cannot notice a change
in the numbers. Any drift in any intermediate value of the fixture rounds,
under any of the six canonical configurations, changes these digests. They
were last recorded when the Jensen-Shannon distances moved from libm's log
of the rounded ratio to numpy's log and log1p, which moved no value by more
than 2e-14 relative. numpy may pick its log and log1p by CPU feature; these
were recorded with numpy 2.4 on an x86-64 host with AVX-512. Update them only
together with a stated reason for the change in output.

The rankings and tie sets sit beside the digests and were recorded before
that change, so a re-recorded digest cannot hide a moved ranking.
"""

from __future__ import annotations

import hashlib

import pytest

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
            "fbe43bd2192ddcd8b2947555ee9edad09cc4a484107e39a98136f47fc58ec95e",
            "6bf912f095b17d9b3f0a5e3f60e23ef97060a7625d4e603adfb6fdeb06837222",
        ),
        "equal/combined": (
            "095c44a49c13f4eae2ce5bdb213ce9c8fab03cdb03fde640d47e1ddd1290db1c",
            "f67f3f31f5f45d89d1fda2a9c9317219b5e24b397d3ffce8a67aeaecb19b1a8b",
        ),
        "proportional/original": (
            "0a731c416c17b8ca5255e8bf4b2fd8fea7a8b84c087763390b22f60d34edf893",
            "f7530f8b5946a03fa77c3ab0ca29bd01c7a0f27d5ed33a784a22e5889bd78405",
        ),
        "proportional/combined": (
            "d84079af11d382c2e078320cec10d937b5807a9bfd48da1736049389c94499fe",
            "61ad0d3a70ef07d464286a2471352f3ccf7654ea8b0805547b26b5bb22cf6e1a",
        ),
        "none/original": (
            "13c4edb3b3beeee3c8919c4b59e4b56ddbcf57bd09b135e292947cf2a4100d6d",
            "0437e6fbbd92190570d2c3365fcf97e008697accd751a4a1532ede6a3443240d",
        ),
        "none/combined": (
            "191eddfe3ab5952cc75a66c341e2765b234fb6322b0e6cbc0993230fd9f9289e",
            "22c475c3da594a5f4f4a75fc1c8d808e4d54b8bc98c1070213fed300ee7c8342",
        ),
    },
    "round1.json": {
        "equal/original": (
            "72ed7c4fbeab14776401d96f244f1a66bf48b4b063fb12150928ce502bf174ae",
            "f239acdddcf82e1096630f236168a452d59e1417c5bf7d37830553e01be7579c",
        ),
        "equal/combined": (
            "6fe6a6f0f78cc7c103bcfba6601a12c09f83287b1bf0eaefa12668ea1ef9c395",
            "46c11022492ba2ea2d70352c22c3a08322970be3d297dd721c09cbc1098b1fd6",
        ),
        "proportional/original": (
            "92f92fd0b77e8bf170cc4c4ccdc99d6d53dd50a9cf01c5ec1420d816214347da",
            "59c96cbfbccd300fa03f8a0f23351de19fa8c277ebe7862218de8cc6971016cd",
        ),
        "proportional/combined": (
            "65660d92fa59b9bc2ae7fc2a4a0a474fe14107adba28ed355f1189443f131cfb",
            "9422548461c196c4233b51fcf0f2cf9f7b7e6fc622451c1488909c94b477c04a",
        ),
        "none/original": (
            "85db9da09a9baa8d3954d6c9cf729e6fd478fbd568d6b39b508b1ab019baa269",
            "de01c30658a5a5694f9fa3186a1921c53e54ab22eb8fe02b4c651449b363c7f9",
        ),
        "none/combined": (
            "41be58f10bec2f032e170f76801f7e8ea6e886172233e57fa7c1899738b98387",
            "64950affe47e0f83d931af18c598a3e70bc60f01b89fc7e5dc28c8691583250d",
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
        "24be4d4ca1db81a5f6775d91d91cea9524abf6e122cba781713f70d4adddf574"
    ),
    ("evaluate", "--round", "r1", "--format", "json"): (
        "f239acdddcf82e1096630f236168a452d59e1417c5bf7d37830553e01be7579c"
    ),
    ("evaluate", "--format", "csv"): (
        "fbe43bd2192ddcd8b2947555ee9edad09cc4a484107e39a98136f47fc58ec95e"
    ),
    ("trace", "--out"): "fbe43bd2192ddcd8b2947555ee9edad09cc4a484107e39a98136f47fc58ec95e",
    ("compare-configs",): "35d403acdc560a224ef5b2814c4468cab72698685b3e5bcfbc6a7b239e08e578",
    (
        "compare-configs",
        "--round",
        "r1",
        "--reference",
        "Supplier_4 > Supplier_3 > Supplier_2 > Supplier_1 > Supplier_5",
    ): "2a582946782dac9f2a45d6c0d8fd6410185a6a1eae8936616c9d81e4a851df6d",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("config", config_grid(), ids=_config_id)
def test_fixture_output_bytes_are_unchanged(fixtures_dir, name, config):
    rounds = parse_judgments((fixtures_dir / name).read_bytes())
    reports = [evaluate_round(r, config) for r in rounds]
    trace_digest, json_digest = GOLDEN[name][_config_id(config)]
    assert _sha256(emit_trace(reports)) == trace_digest
    assert _sha256(b"".join(emit_report(r, "json") for r in reports)) == json_digest


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
def test_cli_output_bytes_are_unchanged(fixtures_dir, tmp_path, capsys, args):
    command, *options = args
    argv = [command, str(fixtures_dir / "supplier_rounds.json"), *options]
    out = tmp_path / "trace.csv"
    if command == "trace":
        argv.append(str(out))
    assert cli_main(argv) == 0
    written = out.read_bytes() if command == "trace" else capsys.readouterr().out.encode("utf-8")
    assert _sha256(written) == CLI_GOLDEN[args]
