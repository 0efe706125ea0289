"""Golden byte gate: the trace and JSON bytes of the bundled fixtures.

Criterion 10 compares emit_trace with itself, so it cannot notice a change
in the numbers. These digests were recorded before the distance stages moved
to the array kernel; any drift in any intermediate value of the fixture
rounds, under any of the six canonical configurations, changes them. Update
them only together with a stated reason for the change in output.
"""

from __future__ import annotations

import hashlib

import pytest

from panelrank import config_grid, emit_report, emit_trace, evaluate_round, parse_judgments

# file -> "split/dp_source" -> (sha256 of emit_trace over all rounds,
#                               sha256 of the rounds' emit_report JSON, joined)
GOLDEN = {
    "supplier_rounds.json": {
        "equal/original": (
            "2dd694f3615eb6b4430928b6a70d94ebd2a77ce7c1ec533f5ba06d88201e0882",
            "a50274912aba81ee350338fcd975929d46bc7d81b5d161b7087337d575b707f7",
        ),
        "equal/combined": (
            "aaf0b8c0b6b1d440131e39cdb179ed1ac7e15ca762c74d14cfa190e5cf108950",
            "8b7e8c6204c35ff8a91f0aca0077910eed972e38fd3846e042e3469953ef89ae",
        ),
        "proportional/original": (
            "066d4b8efafdfb333726038e461694e5864f74f4982a6e831ca954bac3e7bd52",
            "71fb0556bb605ac2f53310acd01a5f99b48b9130f346ef476392df876fb8ce79",
        ),
        "proportional/combined": (
            "7baf592e92a1b9d05c4bc551d492c9a055a0b2cbdce1440915d2dc2ec5c496cf",
            "f53c9ee7077fd29140bfe68093f5c894e86904955b338348515aeac3ed8b4e64",
        ),
        "none/original": (
            "e4b9ca7dfd221acc1cd5160d90ed2d02774fd89053f626978172bda04fe4f6bd",
            "5b7f253f17d1956a8efaac41d969855c7eac2d4600674bb9c5273ff8829803e3",
        ),
        "none/combined": (
            "c775999371a05563e9cda3ef836a894e6d1ad2130228b7e3f886257f2df26547",
            "4ecae75f44fac72f9e81da8830322e84859d11e636d61d983bf8953aa5e7f327",
        ),
    },
    "round1.json": {
        "equal/original": (
            "f4ce52d74ab5d4e2aff315b4014fb134ce28064abc878ab482a379c7a5e13f5b",
            "92cffa63a4ea3a0fd7ac205fbd8d18c08882d4451e72d08f7630de92d2486265",
        ),
        "equal/combined": (
            "3f3bd01238e0d15a20dc55d584a87d12052112d6de66cb3569811eccf2fda7c1",
            "36ee72a9e3105f4c98680da51cf296d09e42705c4f8cae77a826f8e6162f0e92",
        ),
        "proportional/original": (
            "2220fe20d91f0936a9258560cda4d406ed6245271f365741af967d5b1d47c3ad",
            "0bf184908b831ad2771e21707b29857d95c07d7bae5e36f02b1f506e554841f7",
        ),
        "proportional/combined": (
            "81412c783008bbd32cec1cbb806b2d580edde7c2c27dfee0eb4befb5abc5c02a",
            "f42ca89e512817bb8729aceb62a4870e2601931774a8b16ee6d424f7f9db2a76",
        ),
        "none/original": (
            "0ce1cd1a13079f4682b74b8e12dbb6378aa120f004ce2ced6ed2b7e9341abef3",
            "cefc1dbb905fd4490312acbaedd12c97cdd885533d110e2352b1c94f33915084",
        ),
        "none/combined": (
            "85231df51dd84afb2ba8983856e8703157b80c775eba54c0653334b25f703102",
            "807ef78c51c93f984a27db5b15f1dc2b832ffd76ec050c82048ce4250450b49e",
        ),
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
