"""End-to-end command-line checks: exit codes, artifacts, reproducibility."""

import json

import numpy as np
import pytest

from confcause import __version__, effects
from confcause.cli import main
from confcause.dataset import Kind, Role, VariableMeta, Dataset
from confcause.synthbench import Mechanism, sample, scm_from_mechanisms


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """CSV + role map for a crisp option -> metric -> objective system."""
    variables = (
        VariableMeta("cache", Role.OPTION, Kind.DISCRETE),
        VariableMeta("hits", Role.METRIC, Kind.CONTINUOUS),
        VariableMeta("latency", Role.OBJECTIVE, Kind.CONTINUOUS),
    )
    mechanisms = {
        "cache": Mechanism(kind="uniform_levels", levels=3),
        "hits": Mechanism(kind="linear", parents=("cache",), weights=(1.5,)),
        "latency": Mechanism(kind="linear", parents=("hits",), weights=(1.2,)),
    }
    scm = scm_from_mechanisms(variables, mechanisms, seed=13)
    ds = sample(scm, 5000)
    root = tmp_path_factory.mktemp("chain")
    ds.save(root / "data.csv", root / "roles.json")
    return root / "data.csv", root / "roles.json"


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_search(*args, **kwargs):
    raise AssertionError("the structure search ran")


class TestLearn:
    def test_writes_model_artifacts(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        code, out, _ = run(
            ["learn", "--data", data, "--roles", roles, "--out", tmp_path], capsys
        )
        assert code == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert ["cache", "hits"] in model["directed"]
        assert ["hits", "latency"] in model["directed"]
        assert (tmp_path / "pag.json").exists()
        assert "digraph" in (tmp_path / "model.dot").read_text()
        assert "2 directed" in out

    def test_same_seed_same_bytes(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        for sub in ("a", "b"):
            code, _, _ = run(
                ["learn", "--data", data, "--roles", roles,
                 "--out", tmp_path / sub], capsys
            )
            assert code == 0
        for name in ("pag.json", "model.json", "model.dot"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_missing_data_file(self, chain_files, tmp_path, capsys):
        _, roles = chain_files
        code, _, err = run(
            ["learn", "--data", tmp_path / "nope.csv", "--roles", roles,
             "--out", tmp_path], capsys
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert payload["details"] == {"path": str(tmp_path / "nope.csv")}

    def test_os_error_prints_the_engine_error_shape(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        (tmp_path / "file").write_text("")
        code, _, err = run(
            ["learn", "--data", data, "--roles", roles,
             "--out", tmp_path / "file" / "sub"], capsys
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "NotADirectoryError"
        assert "message" in payload

    @pytest.mark.parametrize("ratio", ["0", "-1", "nan"])
    def test_bad_theta_ratio_is_exit_2(self, chain_files, tmp_path, capsys, ratio):
        data, roles = chain_files
        code, _, err = run(
            ["learn", "--data", data, "--roles", roles, "--theta-ratio", ratio,
             "--out", tmp_path], capsys
        )
        assert code == 2
        assert json.loads(err)["error"] == "InputError"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "flag, value, error",
        [("--theta-ratio", "0", "InputError"), ("--bins", "1", "BadBinCount")],
    )
    def test_bad_model_params_fail_before_the_search(
        self, chain_files, tmp_path, capsys, monkeypatch, flag, value, error
    ):
        monkeypatch.setattr(effects, "fci", _no_search)
        data, roles = chain_files
        code, _, err = run(
            ["learn", "--data", data, "--roles", roles, flag, value,
             "--out", tmp_path], capsys
        )
        assert code == 2
        assert json.loads(err)["error"] == error

    def test_non_finite_cell_is_exit_2(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        lines = data.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "nan"
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["learn", "--data", bad, "--roles", roles, "--out", tmp_path], capsys
        )
        assert code == 2
        assert "'nan'" in err and "row 2" in err


    def test_discrete_cell_outside_int64_is_exit_2(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        lines = data.read_text().splitlines()
        cells = lines[3].split(",")
        cells[0] = "1e20"
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["learn", "--data", bad, "--roles", roles, "--out", tmp_path], capsys
        )
        assert code == 2
        assert "'1e20'" in err and "row 2" in err and "'cache'" in err

    def test_overflowing_column_is_exit_2(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        lines = data.read_text().splitlines()
        header = lines[0].split(",")
        at = header.index("hits")
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            cells[at] = repr(float(cells[at]) * 1e200)
            lines[i] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["learn", "--data", bad, "--roles", roles, "--out", tmp_path / "out"],
            capsys,
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert payload["details"] == {"columns": ["hits"]}
        assert not (tmp_path / "out").exists()

    def test_table_of_three_rows_is_exit_2(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        short = tmp_path / "short.csv"
        short.write_text("\n".join(data.read_text().splitlines()[:4]) + "\n")
        code, _, err = run(
            ["learn", "--data", short, "--roles", roles, "--out", tmp_path / "out"],
            capsys,
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InsufficientSamples"
        assert payload["details"] == {"rows": 3}
        assert not (tmp_path / "out").exists()

class TestDiagnose:
    def test_causal_method_names_the_origin(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        out_file = tmp_path / "diag.json"
        code, out, _ = run(
            ["diagnose", "--data", data, "--roles", roles,
             "--objective", "latency", "--out", out_file], capsys
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["method"] == "care"
        assert payload["root_causes"] == ["cache"]
        assert "cache -> hits -> latency" in out

    def test_baseline_method(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        out_file = tmp_path / "cbi.json"
        code, out, _ = run(
            ["diagnose", "--data", data, "--roles", roles, "--objective",
             "latency", "--method", "cbi", "--out", out_file], capsys
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["method"] == "cbi"
        assert [r["option"] for r in payload["ranking"]] == ["cache"]
        assert "importance=" in out

    def test_unknown_objective(self, chain_files, capsys):
        data, roles = chain_files
        code, _, err = run(
            ["diagnose", "--data", data, "--roles", roles,
             "--objective", "ghost"], capsys
        )
        assert code == 2
        assert "ghost" in err

    def test_output_reproducible(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        blobs = []
        for sub in ("x", "y"):
            out_file = tmp_path / f"{sub}.json"
            run(["diagnose", "--data", data, "--roles", roles,
                 "--objective", "latency", "--out", out_file], capsys)
            blobs.append(out_file.read_bytes())
        assert blobs[0] == blobs[1]

    def test_saved_model_gives_the_same_bytes_without_a_search(
        self, chain_files, tmp_path, capsys, monkeypatch
    ):
        data, roles = chain_files
        assert run(["learn", "--data", data, "--roles", roles,
                    "--out", tmp_path / "learn"], capsys)[0] == 0
        base = ["--data", data, "--roles", roles]
        for command, extra in (("diagnose", ["--objective", "latency"]), ("rank", [])):
            assert run([command, *base, *extra,
                        "--out", tmp_path / f"{command}.json"], capsys)[0] == 0
        monkeypatch.setattr(effects, "fci", _no_search)
        for command, extra in (("diagnose", ["--objective", "latency"]), ("rank", [])):
            code, _, err = run(
                [command, *base, *extra, "--model", tmp_path / "learn" / "model.json",
                 "--out", tmp_path / f"{command}-saved.json"], capsys
            )
            assert code == 0, err
            assert (tmp_path / f"{command}-saved.json").read_bytes() == (
                tmp_path / f"{command}.json"
            ).read_bytes()

    @pytest.mark.parametrize("command", ["diagnose", "rank"])
    def test_model_of_another_table_is_exit_2(
        self, chain_files, tmp_path, capsys, monkeypatch, command
    ):
        data, roles = chain_files
        run(["learn", "--data", data, "--roles", roles, "--out", tmp_path], capsys)
        model = tmp_path / "model.json"
        model.write_text(model.read_text().replace('"hits"', '"hitz"'))
        monkeypatch.setattr(effects, "fci", _no_search)
        extra = ["--objective", "latency"] if command == "diagnose" else []
        code, _, err = run(
            [command, "--data", data, "--roles", roles, *extra, "--model", model],
            capsys,
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert payload["details"] == {
            "path": str(model), "model_only": ["hitz"], "table_only": ["hits"],
        }

    @pytest.mark.parametrize("categorical", [False, True], ids=["boolean", "categorical"])
    def test_saved_model_of_a_table_with_domains(
        self, tmp_path, capsys, monkeypatch, categorical
    ):
        """A boolean objective, and a categorical option whose labels load
        as a domain that a model file does not carry: the saved model still
        models their table."""
        synth = tmp_path / "synth"
        assert run(["synth", "--options", 3, "--metrics", 6, "--objectives", 2,
                    "--boolean-objectives", 1, "--latents", 2, "--rows", 5000,
                    "--seed", 5, "--out", synth], capsys)[0] == 0
        roles = synth / "roles.json"
        if categorical:
            spec = json.loads(roles.read_text())
            spec["o01"]["kind"] = "categorical"
            roles.write_text(json.dumps(spec))
        base = ["--data", synth / "data.csv", "--roles", roles]
        assert run(["learn", *base, "--out", tmp_path / "learn"], capsys)[0] == 0
        commands = [("diagnose", ["--objective", "y01"]),
                    ("diagnose", ["--objective", "y02"]), ("rank", [])]
        for i, (command, extra) in enumerate(commands):
            assert run([command, *base, *extra, "--out", tmp_path / f"{i}.json"],
                       capsys)[0] == 0
        monkeypatch.setattr(effects, "fci", _no_search)
        for i, (command, extra) in enumerate(commands):
            code, _, err = run(
                [command, *base, *extra, "--model", tmp_path / "learn" / "model.json",
                 "--out", tmp_path / f"{i}-saved.json"], capsys
            )
            assert code == 0, err
            assert (tmp_path / f"{i}-saved.json").read_bytes() == (
                tmp_path / f"{i}.json"
            ).read_bytes()

    @pytest.mark.parametrize(
        "content, method",
        [('{"directed": []}', "care"), ('{"vertices": [7]}', "care"),
         ("[]", "care"), (None, "cbi")],
        ids=["no-vertices", "bad-vertex", "not-an-object", "cbi-method"],
    )
    def test_unusable_model_file_is_exit_2(
        self, chain_files, tmp_path, capsys, content, method
    ):
        data, roles = chain_files
        model = tmp_path / "model.json"
        model.write_text(content or "{}")
        code, _, err = run(
            ["diagnose", "--data", data, "--roles", roles, "--objective",
             "latency", "--method", method, "--model", model], capsys
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert payload["details"]["path"] == str(model)


    @pytest.mark.parametrize("target", ["table", "roles", "model", "pred"])
    def test_input_that_is_not_utf8_is_exit_2(self, chain_files, tmp_path, capsys, target):
        """A byte that is not UTF-8 in any input file is a typed input
        error, not an internal failure."""
        data, roles = chain_files
        raw = {"table": data, "roles": roles}.get(target)
        raw = raw.read_bytes() if raw else b'{"objective": "latency"}'
        bad = tmp_path / f"bad-{target}"
        bad.write_bytes(raw[:25] + b"\xff" + raw[25:])
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"faults": []}))
        argv = {
            "table": ["learn", "--data", bad, "--roles", roles, "--out", tmp_path],
            "roles": ["learn", "--data", data, "--roles", bad, "--out", tmp_path],
            "model": ["diagnose", "--data", data, "--roles", roles, "--objective",
                      "latency", "--model", bad],
            "pred": ["eval", "--pred", bad, "--truth", truth, "--roles", roles],
        }[target]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "InputError" and "not UTF-8" in payload["message"]
        assert payload["details"] == {"path": str(bad)}


class TestRank:
    def test_ranks_each_objective(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        out_file = tmp_path / "rank.json"
        code, out, _ = run(
            ["rank", "--data", data, "--roles", roles, "--out", out_file], capsys
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["latency"]["root_causes"] == ["cache"]
        assert "latency: cache" in out

    def test_no_paths_anywhere_is_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        variables = (
            VariableMeta("knob", Role.OPTION, Kind.DISCRETE),
            VariableMeta("load", Role.METRIC, Kind.CONTINUOUS),
            VariableMeta("y", Role.OBJECTIVE, Kind.CONTINUOUS),
        )
        n = 2000
        ds = Dataset(
            variables,
            {
                "knob": rng.integers(0, 3, n),
                "load": rng.normal(size=n),
                "y": rng.normal(size=n),
            },
            n,
        )
        ds.save(tmp_path / "d.csv", tmp_path / "r.json")
        code, _, err = run(
            ["rank", "--data", tmp_path / "d.csv", "--roles", tmp_path / "r.json"],
            capsys,
        )
        assert code == 3
        assert "no causal paths" in err


class TestSynthAndEval:
    def test_synth_writes_complete_artifact_set(self, tmp_path, capsys):
        code, out, _ = run(
            ["synth", "--options", "2", "--metrics", "3", "--objectives", "1",
             "--density", "0.8", "--rows", "400", "--seed", "7",
             "--out", tmp_path], capsys
        )
        assert code == 0
        for name in ("scm.json", "truth.json", "data.csv", "roles.json"):
            assert (tmp_path / name).exists()
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["faults"]

    def test_synth_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["synth", "--options", "2", "--metrics", "3", "--objectives", "1",
                "--density", "0.8", "--rows", "400", "--seed", "7", "--out"]
        run(args + [tmp_path / "a"], capsys)
        run(args + [tmp_path / "b"], capsys)
        for name in ("scm.json", "truth.json", "data.csv", "roles.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_eval_round_trip(self, chain_files, tmp_path, capsys):
        data, roles = chain_files
        # ground truth from the same generating process the fixture used
        variables = (
            VariableMeta("cache", Role.OPTION, Kind.DISCRETE),
            VariableMeta("hits", Role.METRIC, Kind.CONTINUOUS),
            VariableMeta("latency", Role.OBJECTIVE, Kind.CONTINUOUS),
        )
        mechanisms = {
            "cache": Mechanism(kind="uniform_levels", levels=3),
            "hits": Mechanism(kind="linear", parents=("cache",), weights=(1.5,)),
            "latency": Mechanism(kind="linear", parents=("hits",), weights=(1.2,)),
        }
        from confcause.synthbench import curate_ground_truth
        from confcause.dataset import load_dataset

        scm = scm_from_mechanisms(variables, mechanisms, seed=13)
        ds = load_dataset(data, roles)
        truth = curate_ground_truth(scm, ds)
        truth_file = tmp_path / "truth.json"
        truth_file.write_text(json.dumps(truth.to_json_dict()))

        pred_file = tmp_path / "pred.json"
        run(["diagnose", "--data", data, "--roles", roles,
             "--objective", "latency", "--out", pred_file], capsys)
        report_file = tmp_path / "report.json"
        code, out, _ = run(
            ["eval", "--pred", pred_file, "--truth", truth_file,
             "--roles", roles, "--out", report_file], capsys
        )
        assert code == 0
        report = json.loads(report_file.read_text())
        assert report["f1"] == 1.0
        assert report["objective"] == "latency"

    def test_eval_rejects_malformed_prediction(self, chain_files, tmp_path, capsys):
        _, roles = chain_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"root_causes": ["cache"]}))
        truth = tmp_path / "t.json"
        truth.write_text(json.dumps({"faults": []}))
        code, _, err = run(
            ["eval", "--pred", bad, "--truth", truth, "--roles", roles], capsys
        )
        assert code == 2
        assert "objective" in err

    @pytest.mark.parametrize(
        "field, value, index",
        [("paths", [{}], 0),
         ("paths", [{"vertices": ["cache"], "path_ace": 0.5}, {"path_ace": 1.0}], 1),
         ("paths", [{"vertices": ["cache"]}], 0),
         ("paths", [{"vertices": [], "path_ace": 1.0}], 0),
         ("paths", [{"vertices": ["cache"], "path_ace": "high"}], 0),
         ("paths", [7], 0),
         ("paths", {}, None),
         ("root_causes", ["cache", ["hits"]], None),
         ("root_causes", 5, None)],
        ids=["empty-path", "no-vertices", "no-path-ace", "empty-vertices",
             "text-path-ace", "path-not-an-object", "paths-not-a-list",
             "cause-not-a-name", "causes-not-a-list"],
    )
    def test_eval_malformed_prediction_names_file_and_index(
        self, chain_files, tmp_path, capsys, field, value, index
    ):
        _, roles = chain_files
        payload = {"objective": "latency", "root_causes": ["cache"], "paths": []}
        payload[field] = value
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(payload))
        truth = tmp_path / "t.json"
        truth.write_text(json.dumps({"faults": []}))
        code, _, err = run(
            ["eval", "--pred", pred, "--truth", truth, "--roles", roles], capsys
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert payload["details"]["path"] == str(pred)
        assert payload["details"].get("index") == index

    @pytest.mark.parametrize(
        "name, content",
        [("pred", None), ("truth", None), ("roles", None),
         ("pred", "{not json"), ("truth", "{not json"), ("truth", '{"outcomes": []}')],
        ids=["missing-pred", "missing-truth", "missing-roles",
             "pred-not-json", "truth-not-json", "truth-without-faults"],
    )
    def test_eval_input_errors_are_typed(
        self, chain_files, tmp_path, capsys, name, content
    ):
        _, roles = chain_files
        files = {key: tmp_path / f"{key}.json" for key in ("pred", "truth", "roles")}
        files["pred"].write_text(json.dumps({"objective": "latency", "root_causes": []}))
        files["truth"].write_text(json.dumps({"faults": []}))
        files["roles"].write_text(roles.read_text())
        if content is None:
            files[name].unlink()
        else:
            files[name].write_text(content)
        code, _, err = run(
            ["eval", "--pred", files["pred"], "--truth", files["truth"],
             "--roles", files["roles"]], capsys
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        if name == "truth" and content == '{"outcomes": []}':
            assert "'faults'" in payload["message"]
        else:
            assert payload["details"]["path"] == str(files[name])


class TestBench:
    def test_small_study_runs_and_reports(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        code, out, _ = run(
            ["bench", "--seed", "0", "--scms", "2", "--out", out_file], capsys
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["outcomes"]) == 4  # two systems, two objectives each
        assert len(payload["transfer_rmse"]) == 4
        assert "causal method" in out and "baseline" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("level", ["LOUD", "debug"])
def test_unknown_log_level_is_exit_2(tmp_path, capsys, monkeypatch, level):
    monkeypatch.setenv("CONFCAUSE_LOG_LEVEL", level)
    code, _, err = run(["synth", "--rows", "100", "--out", tmp_path], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InputError"
    assert payload["details"] == {"level": level}
    assert not (tmp_path / "data.csv").exists()
