"""Pinned CLI artifacts: the SHA-256 of every file the acceptance suite's
reproducibility check (test_9) writes, so a change that is meant to keep
the outputs byte-identical is checked against fixed bytes, not only
against a rerun of itself."""

import hashlib

import pytest

from confcause.cli import main

GOLDENS = {
    "synth/scm.json": "c87136fa3e3d7885b1d0c193f7ca7c86f435b5c6d7c8fe14e1db30c534de2baa",
    "synth/truth.json": "46508801989e6538d7b1c6c310d113a5df181296c53614c0be3f833795d221c7",
    "synth/data.csv": "47a4fbc798aef6ba2c5a2085a8f711ccba493aa7827650298039dacf77d33c44",
    "synth/roles.json": "013f1eaa5a46e2db07fc40277d22dd0cc48cf9294c568983643875dd578e6caf",
    "learn/pag.json": "1a77b6b4c8e1f8ab75f41ca219b2d4d2bfe945003443fd2bdf6a121919975444",
    "learn/model.json": "1eef54e444ca7baba2c86e99eec12e544c9c7323671b740968a199a06c85d06e",
    "learn/model.dot": "67c7594fb6034d9e9dda39280e8bde6ec248284e90dd6765c8376aff57fc7296",
    "diag.json": "1fd05378489134e67000b97187ed4c404f2585478c38b8d70e75671fa04a367e",
    "cbi.json": "14d27f2e5197a34f335b6c13e43c6f8295378257fe1a19703c154031c1823d9f",
    "rank.json": "d640efa6b2f96d7159dc6f47b4414739c4bb26f17ec4b6c54be4d59c445baa27",
    "eval.json": "6e4824d0009ec3126a334267a324528a165119fa11ec68bb41127e16c08e5830",
    "bench.json": "0a655db7a7eb9597fd5ee37775e687889d3634a87fb833ee6be8c44beee781d8",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("goldens")
    data, roles = root / "synth" / "data.csv", root / "synth" / "roles.json"
    runs = [
        ["synth", "--options", "2", "--metrics", "3", "--objectives", "1",
         "--density", "0.8", "--rows", "3000", "--seed", "7", "--out", root / "synth"],
        ["learn", "--data", data, "--roles", roles, "--out", root / "learn"],
        ["diagnose", "--data", data, "--roles", roles, "--objective", "y01",
         "--out", root / "diag.json"],
        ["diagnose", "--data", data, "--roles", roles, "--objective", "y01",
         "--method", "cbi", "--out", root / "cbi.json"],
        ["rank", "--data", data, "--roles", roles, "--out", root / "rank.json"],
        ["eval", "--pred", root / "diag.json", "--truth", root / "synth" / "truth.json",
         "--roles", roles, "--out", root / "eval.json"],
        ["bench", "--seed", "0", "--scms", "2", "--out", root / "bench.json"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0, argv[0]
    return root


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_artifact_bytes_are_pinned(artifacts, name):
    got = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert got == GOLDENS[name], name
