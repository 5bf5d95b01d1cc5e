"""Pinned CLI artifacts: the SHA-256 of every file the acceptance suite's
reproducibility check (test_9) writes, so a change that is meant to keep
the outputs byte-identical is checked against fixed bytes, not only
against a rerun of itself. A second run pins the record shapes that first
system lacks: hidden variables, bidirected edges, a boolean objective and a
labelled option column."""

import hashlib
import json

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


# synth with two latents and a boolean objective, o01 loaded as categorical
LATENT_GOLDENS = {
    "synth/scm.json": "5beb3f1ea60a1e7ad48c2a71ce999a8af85ec23e15a250675cecb7ede76dd58d",
    "synth/truth.json": "ceeabd824b2036220c54d94345702519aee5fd03760486b1355aca8b1a4b46b8",
    "learn/pag.json": "5bef984cbecef6ef269d8b213bcaac954525bc8dc062985c6b998249e5399e12",
    "learn/model.json": "d9c29e7e70c45b8135cbeb805f950006aa45833f0aa0755988a1f9babe480c7d",
    "learn/model.dot": "39e505d45612486f4df5a01b73e25f69d86978f7d8d73f961305cac3b955d73c",
    "rank.json": "fa410d6a8a31e84b1f9ebd95159dd3fa6130836e86cd5831124a410856716bc9",
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


@pytest.fixture(scope="module")
def latent_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("latent-goldens")
    roles = root / "synth" / "roles.json"
    assert main([str(a) for a in [
        "synth", "--options", 3, "--metrics", 6, "--objectives", 2,
        "--boolean-objectives", 1, "--latents", 2, "--rows", 5000, "--seed", 5,
        "--out", root / "synth"]]) == 0
    spec = json.loads(roles.read_text())
    spec["o01"]["kind"] = "categorical"
    roles.write_text(json.dumps(spec))
    base = ["--data", root / "synth" / "data.csv", "--roles", roles]
    for argv in (["learn", *base, "--out", root / "learn"],
                 ["rank", *base, "--out", root / "rank.json"]):
        assert main([str(a) for a in argv]) == 0, argv[0]
    return root


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_artifact_bytes_are_pinned(artifacts, name):
    got = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert got == GOLDENS[name], name


@pytest.mark.parametrize("name", sorted(LATENT_GOLDENS))
def test_latent_artifact_bytes_are_pinned(latent_artifacts, name):
    got = hashlib.sha256((latent_artifacts / name).read_bytes()).hexdigest()
    assert got == LATENT_GOLDENS[name], name


def test_latent_artifacts_hold_the_shapes_they_pin(latent_artifacts):
    """The pinned run holds what the first one lacks, so its digests cover
    the JSON of hidden variables, bidirected edges and a labelled column."""
    scm, pag, model = (json.loads((latent_artifacts / name).read_text())
                       for name in ("synth/scm.json", "learn/pag.json", "learn/model.json"))
    assert scm["hidden"] == ["h01", "h02"]
    assert len(model["bidirected"]) == 3
    assert sum(e["mark_u"] == e["mark_v"] == "arrow" for e in pag["edges"]) == 3
    assert {"name": "o01", "role": "option", "kind": "categorical"} in model["vertices"]
