import hashlib
import json

import numpy as np
import pytest

from confgen import dataio, edg
from confgen.cli import main

from conftest import toy10_spec

FAST_CONFIG = {
    "hidden": 10,
    "readout_hidden": 10,
    "node_state": 4,
    "edge_state": 4,
    "epochs": 3,
    "batch_size": 16,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Spec file, tiny dataset, and a trained checkpoint shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = toy10_spec(25)
    spec["molecules"] = [m for m in spec["molecules"]
                         if m["name"] in ("methanol", "ethanol", "oxirane")]
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))

    data_path = root / "data.jsonl"
    assert main(["make-data", str(spec_path), str(data_path), "--seed", "3"]) == 0

    config_path = root / "config.json"
    config_path.write_text(json.dumps(FAST_CONFIG))
    ckpt_path = root / "model.json"
    assert main(["train", str(data_path), str(ckpt_path),
                 "--config", str(config_path), "--seed", "4"]) == 0
    return root, spec_path, data_path, config_path, ckpt_path


def checkpoint_docs(path) -> list:
    """The JSON documents of a checkpoint's lines: the weights, then the
    train state if there is one."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_docs(path, docs) -> None:
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))


@pytest.mark.parametrize("command", ["make-data", "train", "generate"])
def test_negative_seed_is_usage_error(workspace, tmp_path, capsys, command):
    # numpy's seeding exited 1 with "expected non-negative integer", naming
    # no flag, and `train` left an empty metrics log behind
    _, spec_path, data_path, _, ckpt_path = workspace
    inputs = {"make-data": [spec_path], "train": [data_path],
              "generate": [ckpt_path, data_path]}[command]
    args = [command, *map(str, inputs), str(tmp_path / "out.jsonl"), "--seed", "-1"]
    assert main(args) == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestMakeData:
    def test_summary_line(self, workspace, capsys):
        root, spec_path, _, _, _ = workspace
        out = root / "again.jsonl"
        assert main(["make-data", str(spec_path), str(out), "--seed", "3"]) == 0
        captured = capsys.readouterr().out
        assert "molecules=3" in captured
        assert "records=75" in captured

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["make-data", str(missing), str(tmp_path / "out.jsonl")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_same_seed_identical_files(self, workspace, tmp_path):
        _, spec_path, data_path, _, _ = workspace
        other = tmp_path / "other.jsonl"
        assert main(["make-data", str(spec_path), str(other), "--seed", "3"]) == 0
        assert other.read_bytes() == data_path.read_bytes()

    def test_report_per_molecule(self, workspace, tmp_path):
        root, spec_path, data_path, _, _ = workspace
        report = json.loads((root / "data.jsonl.report.json").read_text())
        assert list(report) == ["molecules"]
        molecules = report["molecules"]
        assert [m["molecule"] for m in molecules] == ["methanol", "ethanol", "oxirane"]
        for m in molecules:
            assert set(m) == {"molecule", "acceptance_rate", "step_size", "steps",
                              "burn_in", "records", "start_iterations",
                              "start_converged", "start_max_violation"}
            assert m["start_converged"] is True
            assert 0 < m["start_iterations"] < edg.REFINE_MAX_ITER
            assert 0.0 <= m["start_max_violation"] <= dataio.INITIAL_TOL
            assert (m["records"], m["steps"], m["burn_in"]) == (25, 500, 5000)
            assert 0.01 <= m["acceptance_rate"] <= 1.0
            assert m["step_size"] > 0.0
        # no timings: the same seed writes the same report
        other = tmp_path / "other.jsonl"
        assert main(["make-data", str(spec_path), str(other), "--seed", "3"]) == 0
        assert (tmp_path / "other.jsonl.report.json").read_bytes() == \
            (root / "data.jsonl.report.json").read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("step", 0), ("step", float("nan")), ("burn_in", -5), ("thin", 0),
        ("count", 0), ("count", 1.5), ("tune", "no"),
    ])
    def test_bad_schedule_exits_2(self, tmp_path, capsys, field, value):
        spec = toy10_spec(3)
        spec["molecules"] = spec["molecules"][:2]
        spec["molecules"][1][field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.jsonl"
        assert main(["make-data", str(spec_path), str(out)]) == 2
        assert f"molecule 'ethanol': {field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -1.0, float("nan")])
    def test_bad_temperature_exits_2(self, tmp_path, capsys, value):
        spec = toy10_spec(3)
        spec["temperature"] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["make-data", str(spec_path), str(tmp_path / "out.jsonl")]) == 2
        assert "temperature must be" in capsys.readouterr().err


    @pytest.mark.parametrize("kind, index, field, value, atoms", [
        ("bonds", 0, "j", 99, "(0, 99)"),  # was an IndexError traceback
        ("bonds", 0, "i", -1, "(-1, 1)"),  # wrapped to the last atom
        ("bonds", 0, "j", 0, "(0, 0)"),  # was "MCMC acceptance 0.00%"
        ("angles", 0, "k", 1, "(1, 0, 1)"),
        ("bonds", 0, "i", 1.0, "(1.0, 1)"),
        ("bonds", 0, "i", True, "(True, 1)"),
    ])
    def test_bad_term_atom_exits_2(self, tmp_path, capsys, kind, index, field, value,
                                   atoms):
        spec = toy10_spec(3)
        spec["molecules"] = spec["molecules"][:2]
        term = spec["molecules"][1]["energy"][kind][index]
        term[field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.jsonl"
        assert main(["make-data", str(spec_path), str(out)]) == 2
        err = capsys.readouterr().err
        assert f"molecule 'ethanol': {kind[:-1]} {index} names atoms {atoms}" in err
        assert "each must be a distinct integer from 0 to 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, field, value, message", [
        # was exit 1 with "bond terms need positive rest length and stiffness"
        ("bonds", "stiffness", -5, "bond 0 stiffness must be a finite number > 0, got -5"),
        # was a TypeError traceback
        ("angles", "rest", "x", "angle 0 rest must be a finite number, got 'x'"),
    ])
    def test_bad_term_value_exits_2(self, tmp_path, capsys, kind, field, value, message):
        spec = toy10_spec(3)
        spec["molecules"] = spec["molecules"][:2]
        spec["molecules"][1]["energy"][kind][0][field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.jsonl"
        assert main(["make-data", str(spec_path), str(out)]) == 2
        assert f"molecule 'ethanol': {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [[1], 5, None, "count"])
    def test_defaults_not_an_object_exits_2(self, tmp_path, capsys, value):
        # [1] was an AttributeError traceback, 5 a TypeError traceback
        spec = toy10_spec(3)
        spec["defaults"] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.jsonl"
        assert main(["make-data", str(spec_path), str(out)]) == 2
        assert f"{spec_path}: 'defaults' must be an object, got {value!r}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("form, message", [
        ("entry", "molecules entry 10 must be an object, got 5"),
        ("object", "'molecules' must be a list of objects, got dict"),
    ])
    def test_molecules_not_objects_exits_2(self, tmp_path, capsys, form, message):
        # each was an AttributeError traceback
        spec_path = write_bad_molecules_spec(tmp_path, form)
        out = tmp_path / "out.jsonl"
        assert main(["make-data", str(spec_path), str(out)]) == 2
        assert f"{spec_path}: {message}" in capsys.readouterr().err
        assert not out.exists()


def write_bad_molecules_spec(tmp_path, form: str):
    """The toy10 spec with 5 appended to `molecules` ("entry"), or with
    `molecules` as an object ("object")."""
    spec = toy10_spec(3)
    if form == "entry":
        spec["molecules"].append(5)
    else:
        spec["molecules"] = {m["name"]: m for m in spec["molecules"]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return spec_path


class TestTrain:
    def test_metrics_log_has_per_epoch_elbo(self, workspace):
        root, _, _, _, ckpt_path = workspace
        metrics = root / "model.json.metrics.jsonl"
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert len(lines) == FAST_CONFIG["epochs"]
        for i, entry in enumerate(lines, start=1):
            assert entry["epoch"] == i
            assert "train_elbo" in entry and "val_elbo" in entry

    def test_same_seed_identical_files(self, workspace, tmp_path):
        _, _, data_path, config_path, _ = workspace
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["train", str(data_path), str(out),
                         "--config", str(config_path), "--seed", "5"]) == 0
        for suffix in ("", ".metrics.jsonl"):
            a, b = (out.with_name(out.name + suffix).read_bytes() for out in outs)
            assert a == b, suffix

    def test_defaults_fill_missing_config_fields(self, workspace):
        _, _, _, _, ckpt_path = workspace
        config = checkpoint_docs(ckpt_path)[0]["extra"]["config"]
        assert config["batch_size"] == 16  # from the file
        assert config["learning_rate"] == 0.001  # default
        assert config["message_passes"] == 3  # default

    def test_resume_matches_straight_run(self, workspace, tmp_path):
        _, _, data_path, config_path, _ = workspace
        straight = tmp_path / "straight.json"
        assert main(["train", str(data_path), str(straight),
                     "--config", str(config_path), "--epochs", "4",
                     "--seed", "9"]) == 0

        half = tmp_path / "half.json"
        assert main(["train", str(data_path), str(half),
                     "--config", str(config_path), "--epochs", "2",
                     "--seed", "9"]) == 0
        resumed = tmp_path / "resumed.json"
        assert main(["train", str(data_path), str(resumed),
                     "--resume", str(half), "--epochs", "4",
                     "--seed", "9"]) == 0

        a = checkpoint_docs(straight)[0]["params"]
        b = checkpoint_docs(resumed)[0]["params"]
        assert a.keys() == b.keys()
        for name in a:
            assert a[name]["data"] == b[name]["data"], name

    def test_resume_rejects_truncated_adam_state(self, workspace, tmp_path, capsys):
        _, _, data_path, _, ckpt_path = workspace
        docs = checkpoint_docs(ckpt_path)
        adam = docs[1]["train_state"]["adam"]
        assert len(adam["m"]) > 3
        for key in ("m", "v"):  # moments are stored by parameter name
            adam[key] = dict(list(adam[key].items())[:3])
        cut = tmp_path / "cut.json"
        write_docs(cut, docs)
        out = tmp_path / "resumed.json"
        code = main(["train", str(data_path), str(out), "--resume", str(cut),
                     "--epochs", "4"])
        assert code != 0
        assert "moments" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_below_checkpoint_epoch_exits_2(self, workspace, tmp_path, capsys):
        # was exit 0 with an empty metrics file and a train state at epoch 1
        # holding 3 epochs of history
        _, _, data_path, _, ckpt_path = workspace
        out = tmp_path / "resumed.json"
        code = main(["train", str(data_path), str(out), "--resume", str(ckpt_path),
                     "--epochs", "1"])
        assert code == 2
        assert f"--epochs 1 is below the 3 epochs that {ckpt_path}" in \
            capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "resumed.json.metrics.jsonl").exists()

    @pytest.mark.parametrize("key, value, rule", [
        # each was exit 1, after the metrics file was opened: a TypeError
        # traceback, "state must be for a PCG64 RNG", a TypeError traceback,
        # "could not convert string to float" and a TypeError traceback
        ("epoch", "2", "an integer >= 0, got '2'"),
        ("rng", {"x": 1}, "a PCG64 generator state, got {'x': 1}"),
        ("history", 5, "a list of objects, got 5"),
        ("best_val_elbo", "a", "a finite number, got 'a'"),
        ("best_epoch", None, "an integer >= 0, got None"),
        # was exit 0, resuming Adam's bias correction from step 1
        ("adam.t", 1.5, "an integer >= 0, got 1.5"),
        ("history", [{"epoch": 1}, 5], "a list of objects, got [{'epoch': 1}, 5]"),
    ], ids=["epoch", "rng", "history", "best_val_elbo", "best_epoch", "adam.t",
            "history-entry"])
    def test_resume_rejects_bad_state_field(self, workspace, tmp_path, capsys, key,
                                            value, rule):
        _, _, data_path, _, ckpt_path = workspace
        docs = checkpoint_docs(ckpt_path)
        state = docs[1]["train_state"]
        (state["adam"] if key == "adam.t" else state)[key.removeprefix("adam.")] = value
        bad = tmp_path / "bad.json"
        write_docs(bad, docs)
        out = tmp_path / "resumed.json"
        code = main(["train", str(data_path), str(out), "--resume", str(bad),
                     "--epochs", "4"])
        assert code == 2
        assert f"{bad}: not a usable checkpoint: train_state.{key} must be {rule}" in \
            capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "resumed.json.metrics.jsonl").exists()

    @pytest.mark.parametrize("args, config, message", [
        # was exit 1 with "range() arg 3 must not be zero"
        ([], {"batch_size": 0}, "batch_size must be an integer >= 1, got 0"),
        # was a ZeroDivisionError traceback
        ([], {"hidden": 0}, "hidden must be an integer >= 1, got 0"),
        # was exit 0, writing a checkpoint with best_val_elbo=-inf
        (["--epochs", "0"], {}, "epochs must be an integer >= 1, got 0"),
        ([], {"learning_rate": float("nan")}, "learning_rate must be a finite number > 0"),
        ([], {"variance_floor": 2.0, "variance_ceiling": 1.0},
         "variance_ceiling must be a finite number above variance_floor, got 1.0"),
        ([], {"validation_fraction": 1}, "validation_fraction must be a number >= 0 "
                                         "and < 1, got 1"),
        ([], {"message_passes": -1}, "message_passes must be an integer >= 0, got -1"),
    ], ids=["batch_size", "hidden", "epochs", "learning_rate", "variance_ceiling",
            "validation_fraction", "message_passes"])
    def test_bad_config_exits_2(self, workspace, tmp_path, capsys, args, config,
                                message):
        _, _, data_path, _, _ = workspace
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, **config}))
        out = tmp_path / "model.json"
        code = main(["train", str(data_path), str(out), "--config", str(config_path),
                     *args])
        assert code == 2
        assert f"bad training config: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_an_object_exits_2(self, workspace, tmp_path, capsys):
        # was an AttributeError traceback
        _, _, data_path, _, _ = workspace
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps([FAST_CONFIG]))
        code = main(["train", str(data_path), str(tmp_path / "model.json"),
                     "--config", str(config_path)])
        assert code == 2
        assert f"{config_path}: a training config must be a JSON object" in \
            capsys.readouterr().err

    def test_resume_rejects_config_overrides(self, workspace, tmp_path, capsys):
        _, _, data_path, config_path, ckpt_path = workspace
        out = tmp_path / "resumed.json"
        code = main(["train", str(data_path), str(out), "--resume", str(ckpt_path),
                     "--epochs", "4", "--config", str(config_path)])
        assert code == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    def test_config_field_flag_is_an_unknown_argument(self, workspace, tmp_path, capsys):
        # hyperparameters other than the epoch budget are set through --config
        _, _, data_path, _, _ = workspace
        out = tmp_path / "model.json"
        with pytest.raises(SystemExit) as exited:
            main(["train", str(data_path), str(out), "--batch-size", "16"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --batch-size 16" in capsys.readouterr().err
        assert not out.exists()


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def intact_samples(workspace, tmp_path_factory):
    """sha256 of the samples and of the report that `generate --n 2` writes
    from the workspace checkpoint."""
    _, _, data_path, _, ckpt_path = workspace
    out = tmp_path_factory.mktemp("intact") / "gen.jsonl"
    assert main(["generate", str(ckpt_path), str(data_path), str(out), "--n", "2"]) == 0
    return sha256(out), sha256(out.with_name(out.name + ".report.json"))


class TestGenerate:
    def test_default_n_is_50_and_report_rates(self, workspace, capsys):
        root, _, data_path, _, ckpt_path = workspace
        out = root / "gen50.jsonl"
        assert main(["generate", str(ckpt_path), str(data_path), str(out),
                     "--seed", "5"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["requested_per_molecule"] == 50
        assert report["n_samples"] == 150
        assert 0.0 <= report["smoothing_rate"] <= 1.0
        assert 0.0 <= report["convergence_rate"] <= 1.0
        assert (root / "gen50.jsonl.report.json").exists()

    @pytest.mark.parametrize("case, message", [
        # each was exit 1, apart from "no config" (a KeyError traceback)
        ("not json", "Expecting value"),
        ("foreign", "not a confgen-params file"),
        ("version 1", "unsupported checkpoint version 1"),
        # one document holding the train state in `extra`
        ("version 2", "unsupported checkpoint version 2"),
        ("version 4", "unsupported checkpoint version 4"),
        # not the JSON integer 3 (a version 2.0 file loaded as version 2)
        ("version 3.0", "unsupported checkpoint version 3.0"),
        ("version true", "unsupported checkpoint version True"),
        ("no config", "no 'config'"),
        ("bad config", "hidden must be an integer >= 1, got 0"),
        ("missing array", "weights lack parameters: ['enc.node_embed.0.weight']"),
        ("misshapen array", "parameter enc.node_embed.0.weight: stored shape"),
        ("short data", "array 'enc.node_embed.0.weight': cannot reshape"),
    ])
    def test_malformed_checkpoint_exits_2(self, workspace, tmp_path, capsys, case,
                                          message):
        """Damage to line 1, the weights, stops `generate` and `train
        --resume` alike, with one message, and neither writes anything."""
        _, _, data_path, _, ckpt_path = workspace
        docs = checkpoint_docs(ckpt_path)
        doc = docs[0]
        first = doc["params"]["enc.node_embed.0.weight"]
        if case == "foreign":
            doc["format"] = "something-else"
        elif case == "version 2":
            doc["version"] = 2
            doc["extra"].update(docs.pop())
        elif case.startswith("version "):
            doc["version"] = json.loads(case.removeprefix("version "))
        elif case == "no config":
            del doc["extra"]["config"]
        elif case == "bad config":
            doc["extra"]["config"]["hidden"] = 0
        elif case == "missing array":
            del doc["params"]["enc.node_embed.0.weight"]
        elif case == "misshapen array":
            first["shape"] = first["shape"][::-1]
        elif case == "short data":
            first["data"] = first["data"][:-32]  # 24 bytes: 3 values short
        bad = tmp_path / "bad.json"
        if case == "not json":
            bad.write_text("not json")
        else:
            write_docs(bad, docs)
        out = tmp_path / "gen.jsonl"
        code = main(["generate", str(bad), str(data_path), str(out), "--n", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: not a usable checkpoint: " in err and message in err
        resumed = tmp_path / "resumed.json"
        assert main(["train", str(data_path), str(resumed), "--resume", str(bad),
                     "--epochs", "4"]) == 2
        assert capsys.readouterr().err == err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("case, where", [
        *[(case, where) for case in (
            "short data", "non-alphabet", "= inside", "non-ascii", "data number",
            "entry list", "shape reversed", "shape 10.0", "shape true")
          for where in ("current", "m", "v")],
        ("renamed", "current"), ("renamed", "m"), ("no t", None),
        ("adam list", None),
    ])
    def test_damaged_train_state_fails_as_on_resume(self, workspace, intact_samples,
                                                    tmp_path, capsys, case, where):
        """Damage to line 2, the train state, fails `train --resume` alone:
        it exits 2 and writes nothing, while `generate`, which reads only
        line 1, writes what the intact checkpoint gives."""
        _, _, data_path, _, ckpt_path = workspace
        docs = checkpoint_docs(ckpt_path)
        state = docs[1]["train_state"]
        adam = state["adam"]
        arrays = state["current"] if where == "current" else adam.get(where, {})
        name = "enc.node_embed.0.weight"  # shape (12, 10): 960 bytes, no padding
        entry = arrays.get(name, {})
        data = entry.get("data", "")
        mid = len(data) // 2
        if case == "short data":
            entry["data"] = data[:-4]
        elif case == "non-alphabet":
            entry["data"] = data[:mid] + "*" + data[mid + 1:]
        elif case == "= inside":
            entry["data"] = data[:mid] + "=" + data[mid + 1:]
        elif case == "non-ascii":
            entry["data"] = data[:mid] + "é" + data[mid + 1:]
        elif case == "data number":
            entry["data"] = 5
        elif case == "entry list":
            arrays[name] = [entry["shape"], data]
        elif case == "shape reversed":
            entry["shape"] = entry["shape"][::-1]
        elif case == "shape 10.0":
            entry["shape"] = [12, 10.0]
        elif case == "shape true":
            entry["shape"] = [True, 10]
        elif case == "renamed":  # one name missing, one extra
            arrays["enc.node_embed.0.weights"] = arrays.pop(name)
        elif case == "no t":
            del adam["t"]
        elif case == "adam list":
            state["adam"] = [adam["t"], adam["m"], adam["v"]]
        bad = tmp_path / "bad.json"
        write_docs(bad, docs)

        resumed = tmp_path / "resumed.json"
        assert main(["train", str(data_path), str(resumed), "--resume", str(bad),
                     "--epochs", "4"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: not a usable checkpoint: ")
        assert list(tmp_path.iterdir()) == [bad]
        out = tmp_path / "gen.jsonl"
        assert main(["generate", str(bad), str(data_path), str(out), "--n", "2"]) == 0
        assert sha256(out) == intact_samples[0]
        assert sha256(out.with_name(out.name + ".report.json")) == intact_samples[1]

    def test_seed_reproducible_and_thread_invariant(self, workspace, tmp_path):
        _, _, data_path, _, ckpt_path = workspace
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        c = tmp_path / "c.jsonl"
        for out, threads in ((a, "1"), (b, "1"), (c, "3")):
            assert main(["generate", str(ckpt_path), str(data_path), str(out),
                         "--n", "4", "--seed", "8", "--threads", threads]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == c.read_bytes()

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_one_is_usage_error(self, workspace, tmp_path, capsys, n):
        _, _, data_path, _, _ = workspace
        out = tmp_path / "gen.jsonl"
        # the check comes before the checkpoint is opened
        code = main(["generate", str(tmp_path / "missing.json"), str(data_path),
                     str(out), "--n", n])
        assert code == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_tol_must_be_finite_and_non_negative(self, workspace, tmp_path, capsys,
                                                 tol):
        _, _, data_path, _, _ = workspace
        out = tmp_path / "gen.jsonl"
        # the check comes before the checkpoint is opened
        code = main(["generate", str(tmp_path / "missing.json"), str(data_path),
                     str(out), f"--tol={tol}"])
        assert code == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, workspace, tmp_path, capsys,
                                              threads):
        _, _, data_path, _, _ = workspace
        out = tmp_path / "gen.jsonl"
        # the check comes before the checkpoint is opened
        code = main(["generate", str(tmp_path / "missing.json"), str(data_path),
                     str(out), "--threads", threads])
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_sample_is_dropped_and_counted(self, workspace, tmp_path,
                                                      monkeypatch):
        _, _, data_path, _, ckpt_path = workspace
        embed = edg._gram_stack
        calls = []  # one per embedded sample

        def collapse_first(d):
            # all atoms of the first sample on one point: the hinge gradient
            # is zero there, so refinement cannot separate them
            coords = embed(d)
            if not calls and len(d):
                coords[0] = 0.0
            calls.extend(d)
            return coords

        monkeypatch.setattr(edg, "_gram_stack", collapse_first)
        out = tmp_path / "gen.jsonl"
        assert main(["generate", str(ckpt_path), str(data_path), str(out),
                     "--n", "2", "--seed", "2"]) == 0
        report = json.loads((tmp_path / "gen.jsonl.report.json").read_text())
        assert report["n_degenerate"] == 1
        assert report["n_smoothing_ok"] == len(dataio.read_dataset(out)) == len(calls) - 1
        assert report["n_smoothing_ok"] + report["n_degenerate"] <= report["n_samples"]

    def test_report_has_refine_and_rejection_stats(self, workspace, tmp_path,
                                                   monkeypatch):
        _, _, data_path, _, ckpt_path = workspace
        stacked_bounds = edg._bounds_stack

        def cross_first_sample(eg, ged):
            lower, upper = stacked_bounds(eg, ged)
            lower[0, 0, 1] = lower[0, 1, 0] = upper[0, 0, 1] + 1.0
            return lower, upper

        monkeypatch.setattr(edg, "_bounds_stack", cross_first_sample)
        out = tmp_path / "gen.jsonl"
        assert main(["generate", str(ckpt_path), str(data_path), str(out),
                     "--n", "3", "--seed", "2"]) == 0
        report = json.loads((tmp_path / "gen.jsonl.report.json").read_text())
        molecules = list(report["per_molecule_success"])
        assert report["smoothing_rejections"] == {m: {"0-1": 1} for m in molecules}
        assert report["n_smoothing_ok"] + report["n_degenerate"] == 3 * len(molecules) - 3
        assert isinstance(report["n_iteration_capped"], int)
        assert 0 <= report["n_iteration_capped"] <= report["n_smoothing_ok"]
        assert 0.0 <= report["mean_refine_iterations"] <= edg.REFINE_MAX_ITER

    def test_generated_records_reuse_molecule_graphs(self, workspace, tmp_path):
        _, _, data_path, _, ckpt_path = workspace
        out = tmp_path / "gen.jsonl"
        assert main(["generate", str(ckpt_path), str(data_path), str(out),
                     "--n", "3", "--seed", "2"]) == 0
        source = {r.molecule: (r.graph, r.build_seed)
                  for r in dataio.read_dataset(data_path)}
        for r in dataio.read_dataset(out):
            graph, build_seed = source[r.molecule]
            assert r.graph == graph
            assert r.build_seed == build_seed


    def test_one_atom_molecule(self, workspace, tmp_path, capsys):
        """A lone atom next to a bond: make-data accepted it, and generate
        used to exit 1 reshaping the lone atom's empty edge list."""
        _, _, _, _, ckpt_path = workspace
        spec = {"format": "confgen-benchmark", "temperature": 300.0,
                "defaults": {"count": 4, "burn_in": 50, "thin": 2},
                "molecules": [
                    {"name": "lone", "elements": ["C"], "bonds": [], "energy": {}},
                    {"name": "co", "elements": ["C", "O"], "bonds": [{"i": 0, "j": 1}],
                     "energy": {"bonds": [{"i": 0, "j": 1, "rest": 1.43,
                                           "stiffness": 1500.0}]}}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        data, out = tmp_path / "data.jsonl", tmp_path / "gen.jsonl"
        assert main(["make-data", str(spec_path), str(data), "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["generate", str(ckpt_path), str(data), str(out), "--n", "3",
                     "--seed", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_molecule_success"]["lone"] == 3
        assert report["n_samples"] == 6
        records = dataio.read_dataset(out)
        assert sum(r.molecule == "lone" for r in records) == 3
        assert {r.conformation.positions.shape for r in records
                if r.molecule == "lone"} == {(1, 3)}


class TestEvaluate:
    @pytest.mark.parametrize("header", ["[1]", '"x"', "null"])
    def test_header_that_is_not_an_object_exits_2(self, workspace, tmp_path, capsys,
                                                   header):
        _, _, data_path, _, _ = workspace
        gen = tmp_path / "gen.jsonl"
        gen.write_text(header + "\n" + data_path.read_text().split("\n", 1)[1])
        assert main(["evaluate", str(data_path), f"gen={gen}",
                     "--out", str(tmp_path / "rep")]) == 2
        assert f"{gen}:1: bad dataset header" in capsys.readouterr().err

    def test_copy_of_truth_ranks_first(self, workspace, tmp_path, capsys):
        root, _, data_path, _, _ = workspace
        records = dataio.read_dataset(data_path)
        shifted = [
            dataio.DatasetRecord(
                r.molecule, r.graph, r.build_seed,
                dataio.Conformation(r.conformation.elements,
                                    r.conformation.positions * 1.08),
            )
            for r in records
        ]
        copy_path = tmp_path / "copy.jsonl"
        shift_path = tmp_path / "shifted.jsonl"
        dataio.write_dataset(copy_path, records)
        dataio.write_dataset(shift_path, shifted)

        out = tmp_path / "report"
        assert main(["evaluate", str(data_path),
                     f"copy={copy_path}", f"shifted={shift_path}",
                     "--out", str(out)]) == 0
        text = (out.with_suffix(".txt")).read_text() if False else \
            (tmp_path / "report.txt").read_text()
        for section in ("[marginal]", "[pairwise]", "[joint]"):
            assert section in text
        for line in text.splitlines():
            if line.strip().startswith("copy:"):
                assert "mean_ranking=1" in line

    def test_tsv_agrees_with_text(self, workspace, tmp_path):
        root, _, data_path, _, ckpt_path = workspace
        gen = tmp_path / "gen.jsonl"
        assert main(["generate", str(ckpt_path), str(data_path), str(gen),
                     "--n", "8", "--seed", "6"]) == 0
        out = tmp_path / "rep"
        assert main(["evaluate", str(data_path), f"model={gen}",
                     "--out", str(out)]) == 0
        rows = (tmp_path / "rep.tsv").read_text().strip().splitlines()[1:]
        marginals = [float(r.split("\t")[5]) for r in rows
                     if r.split("\t")[2] == "marginal"]
        text = (tmp_path / "rep.txt").read_text()
        printed = float(text.split("median_mmd2=")[1].split()[0])
        assert printed == pytest.approx(np.median(marginals), rel=1e-5)
        assert (tmp_path / "rep.marginals.tsv").exists()

    def test_degenerate_samples_exit_1(self, workspace, tmp_path, capsys):
        _, _, data_path, _, _ = workspace
        records = dataio.read_dataset(data_path)
        # all conformations identical: pooled rows coincide, bandwidth dies,
        # every instance is skipped, and the report has no usable methods
        frozen = [dataio.DatasetRecord(r.molecule, r.graph, r.build_seed,
                                       records[0].conformation)
                  for r in records if r.molecule == records[0].molecule]
        bad_truth = tmp_path / "frozen.jsonl"
        dataio.write_dataset(bad_truth, frozen)
        code = main(["evaluate", str(bad_truth), f"m={bad_truth}",
                     "--out", str(tmp_path / "r")])
        assert code == 1

    @pytest.mark.parametrize("named", [False, True])
    def test_repeated_method_name_exits_2(self, workspace, tmp_path, capsys, named):
        # each exited 0 with the second file's report alone
        _, _, data_path, _, _ = workspace
        paths = []
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            paths.append(tmp_path / d / "gen.jsonl")
            dataio.write_dataset(paths[-1], dataio.read_dataset(data_path))
        method = "x" if named else "gen"
        args = [f"x={p}" if named else str(p) for p in paths]
        out = tmp_path / "r"
        assert main(["evaluate", str(data_path), *args, "--out", str(out)]) == 2
        assert f"method {method!r} is given twice: {paths[0]} and {paths[1]}" in \
            capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("named", [False, True])
    def test_method_named_truth_exits_2(self, workspace, tmp_path, capsys, named):
        # exited 0, and PREFIX.marginals.tsv carried the method's densities as
        # the ground truth's
        _, _, data_path, _, _ = workspace
        gen = tmp_path / "truth.jsonl"
        dataio.write_dataset(gen, dataio.read_dataset(data_path))
        arg = f"truth={gen}" if named else str(gen)
        out = tmp_path / "r"
        assert main(["evaluate", str(data_path), arg, "--out", str(out)]) == 2
        assert f"method name 'truth' is reserved for the ground truth: {gen}" in \
            capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))
        # checked before any file is read
        missing = tmp_path / "missing.jsonl"
        assert main(["evaluate", str(missing), f"truth={missing}",
                     "--out", str(out)]) == 2
        assert "reserved for the ground truth" in capsys.readouterr().err

    @pytest.mark.parametrize("name, named", [
        ("", True), ("a\tb", True), ("a\nb", True), ("a\rb", True),
        ("gen\t2", False), ("gen\n2", False), ("gen\r2", False),
    ], ids=["empty", "tab", "newline", "return", "stem-tab", "stem-newline",
            "stem-return"])
    def test_method_name_breaking_the_tsv_exits_2(self, workspace, tmp_path, capsys,
                                                  name, named):
        # each exited 0: the empty name left PREFIX.tsv's method field empty,
        # and the others added fields or rows to PREFIX.tsv
        _, _, data_path, _, _ = workspace
        gen = tmp_path / ("gen.jsonl" if named else f"{name}.jsonl")
        dataio.write_dataset(gen, dataio.read_dataset(data_path))
        arg = f"{name}={gen}" if named else str(gen)
        out = tmp_path / "r"
        assert main(["evaluate", str(data_path), arg, "--out", str(out)]) == 2
        assert f"method name {name!r} of argument {arg!r} is empty or holds a tab, " \
               f"newline or carriage return" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("name", ["eth\tanol", "eth\nanol", "eth\ranol", ""],
                             ids=["tab", "newline", "return", "empty"])
    def test_molecule_name_breaking_the_tsv_exits_2(self, workspace, tmp_path, capsys,
                                                    name):
        # exited 0: with a tab, 240 rows of PREFIX.marginals.tsv had 7 fields
        _, _, data_path, _, _ = workspace
        renamed = [dataio.DatasetRecord(name if r.molecule == "ethanol" else r.molecule,
                                        r.graph, r.build_seed, r.conformation)
                   for r in dataio.read_dataset(data_path)]
        truth = tmp_path / "truth.jsonl"
        dataio.write_dataset(truth, renamed)
        out = tmp_path / "r"
        assert main(["evaluate", str(truth), f"m={truth}", "--out", str(out)]) == 2
        assert f"{truth}: molecule name {name!r} is empty or holds a tab, newline or " \
               f"carriage return" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("change", ["graph", "seed"])
    def test_generated_molecule_must_match_truth(self, workspace, tmp_path, capsys,
                                                 change):
        # each exited 0 with an MMD between misaligned distance columns
        _, _, data_path, _, _ = workspace
        records = dataio.read_dataset(data_path)
        if change == "graph":  # methanol's records under ethanol's name
            generated = [dataio.DatasetRecord("ethanol", r.graph, r.build_seed,
                                              r.conformation)
                         for r in records if r.molecule == "methanol"]
        else:
            generated = [dataio.DatasetRecord(r.molecule, r.graph,
                                              r.build_seed + (r.molecule == "ethanol"),
                                              r.conformation) for r in records]
        gen_path = tmp_path / "gen.jsonl"
        dataio.write_dataset(gen_path, generated)
        code = main(["evaluate", str(data_path), f"m={gen_path}",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert (f"{gen_path}: molecule 'ethanol' has another bond graph or build seed "
                f"than in {data_path}") in capsys.readouterr().err


    def test_generated_molecule_missing_from_truth_is_ignored(self, workspace,
                                                               tmp_path, monkeypatch):
        _, _, data_path, _, _ = workspace
        records = dataio.read_dataset(data_path)
        truth_path = tmp_path / "truth.jsonl"
        dataio.write_dataset(truth_path, [r for r in records if r.molecule != "oxirane"])
        shifted = [dataio.DatasetRecord(r.molecule, r.graph, r.build_seed,
                                        dataio.Conformation(r.conformation.elements,
                                                            r.conformation.positions * 1.05))
                   for r in records]
        all_path, known_path = tmp_path / "all.jsonl", tmp_path / "known.jsonl"
        dataio.write_dataset(all_path, shifted)
        dataio.write_dataset(known_path, [r for r in shifted if r.molecule != "oxirane"])

        builds = []
        build = dataio.build_extended_graph
        monkeypatch.setattr(dataio, "build_extended_graph",
                            lambda graph, seed: builds.append(seed) or build(graph, seed))
        assert main(["evaluate", str(truth_path), f"m={all_path}",
                     "--out", str(tmp_path / "all")]) == 0
        assert len(builds) == 2  # one per truth molecule, shared by both files
        assert main(["evaluate", str(truth_path), f"m={known_path}",
                     "--out", str(tmp_path / "known")]) == 0
        for suffix in (".tsv", ".txt", ".marginals.tsv"):
            assert (tmp_path / f"all{suffix}").read_bytes() == \
                (tmp_path / f"known{suffix}").read_bytes()


class TestEstimate:
    def test_constant_observable_is_one(self, workspace, tmp_path, capsys):
        root, spec_path, data_path, _, ckpt_path = workspace
        gen = tmp_path / "gen.jsonl"
        assert main(["generate", str(ckpt_path), str(data_path), str(gen),
                     "--n", "6", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["estimate", str(gen), "--energy-model", str(spec_path),
                     "--observable", "one"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["observable"] == "one"
        for entry in doc["molecules"].values():
            assert entry["value"] == 1.0
            assert entry["ess"] > 0
            assert "standard_error" in entry
            assert "min_pairwise_distance" in entry

    def test_report_written_to_file(self, workspace, tmp_path, capsys):
        _, spec_path, data_path, _, ckpt_path = workspace
        gen = tmp_path / "gen.jsonl"
        assert main(["generate", str(ckpt_path), str(data_path), str(gen),
                     "--n", "5", "--seed", "2"]) == 0
        out = tmp_path / "estimate.json"
        assert main(["estimate", str(gen), "--energy-model", str(spec_path),
                     "--observable", "rgyr", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["observable"] == "rgyr"
        assert set(doc["molecules"]) == {"methanol", "ethanol", "oxirane"}

    def test_one_proposal_report_is_strict_json(self, workspace, tmp_path, capsys):
        """A molecule with one proposal has no pairwise distance: the report
        says null, not the Infinity that strict JSON parsers reject."""
        _, spec_path, data_path, _, _ = workspace
        header, first = data_path.read_text().splitlines()[:2]
        one = tmp_path / "one.jsonl"
        one.write_text(header + "\n" + first + "\n")
        out = tmp_path / "estimate.json"
        capsys.readouterr()
        assert main(["estimate", str(one), "--energy-model", str(spec_path),
                     "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        printed = capsys.readouterr().out.strip().splitlines()[-1]
        for text in (out.read_text(), printed):
            [entry] = json.loads(text, parse_constant=reject)["molecules"].values()
            assert entry["n"] == 1
            assert entry["min_pairwise_distance"] is None

    def test_invalid_record_exits_2(self, workspace, tmp_path, capsys):
        _, spec_path, data_path, _, _ = workspace
        lines = data_path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["positions"] = [[0.0, 0.0, 0.0]] * len(doc["positions"])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:2] + [json.dumps(doc)] + lines[3:]) + "\n")
        code = main(["estimate", str(bad), "--energy-model", str(spec_path)])
        assert code == 2
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_missing_energy_model_exits_2(self, workspace, tmp_path):
        _, _, data_path, _, ckpt_path = workspace
        gen = tmp_path / "gen.jsonl"
        assert main(["generate", str(ckpt_path), str(data_path), str(gen),
                     "--n", "3", "--seed", "2"]) == 0
        code = main(["estimate", str(gen),
                     "--energy-model", str(tmp_path / "missing.json")])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--temperature", "inf"), ("--temperature", "nan"), ("--temperature", "0"),
        ("--temperature", "-5"), ("--observable", "nope"),
        ("--observable", "distance:1-x"),
    ])
    def test_bad_flag_value_exits_2(self, workspace, tmp_path, capsys, flag, value):
        _, spec_path, _, _, _ = workspace
        # the check comes before the dataset is read
        code = main(["estimate", str(tmp_path / "missing.jsonl"),
                     "--energy-model", str(spec_path), f"{flag}={value}"])
        assert code == 2
        assert flag in capsys.readouterr().err

    def test_distance_pair_beyond_a_molecule_exits_2(self, workspace, capsys):
        _, spec_path, data_path, _, _ = workspace
        assert main(["estimate", str(data_path), "--energy-model", str(spec_path),
                     "--observable", "distance:0-5"]) == 0
        capsys.readouterr()
        # methanol has 6 atoms, ethanol 9
        code = main(["estimate", str(data_path), "--energy-model", str(spec_path),
                     "--observable", "distance:0-6"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'methanol'" in err and "6 atoms" in err

    @pytest.mark.parametrize("form, message", [
        ("entry", "molecules entry 10 must be an object, got 5"),
        ("object", "'molecules' must be a list of objects, got dict"),
    ])
    def test_spec_molecules_not_objects_exits_2(self, workspace, tmp_path, capsys,
                                                form, message):
        # each was an AttributeError traceback
        _, _, data_path, _, _ = workspace
        spec_path = write_bad_molecules_spec(tmp_path, form)
        code = main(["estimate", str(data_path), "--energy-model", str(spec_path)])
        assert code == 2
        assert f"{spec_path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [5, None, True, "molecules", [], {"models": 5},
                                     {"models": None}, {"models": ["methanol"]}])
    def test_energy_model_file_not_an_object_exits_2(self, workspace, tmp_path, capsys,
                                                     doc):
        # the scalars and a bare models value were TypeError tracebacks; the
        # string was searched for "molecules" as a substring
        _, _, data_path, _, _ = workspace
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        code = main(["estimate", str(data_path), "--energy-model", str(model_path)])
        assert code == 2
        assert (f"{model_path}: an energy model file must be a JSON object, with "
                f"'models', if present, an object") in capsys.readouterr().err

    @pytest.mark.parametrize("form, field, value, message", [
        # each was exit 1 with "energy term references a missing atom"
        ("spec", "j", 99, "'ethanol': bond 0 names atoms (0, 99)"),
        ("spec", "i", -1, "'ethanol': bond 0 names atoms (-1, 1)"),
        # was a KeyError traceback
        ("spec", "energy", None, "'ethanol': 'energy' must be an object"),
        # was a TypeError traceback
        ("models", "stiffness", "1500", "'ethanol': bond 0 stiffness must be a finite "
                                        "number > 0, got '1500'"),
        # was exit 1 with "no proposal has a finite energy"; a bare model is
        # checked against each molecule, methanol first
        ("bare", "rest", float("nan"), "'methanol': bond 0 rest must be a finite "
                                       "number > 0, got nan"),
    ])
    def test_bad_energy_model_exits_2(self, workspace, tmp_path, capsys, form, field,
                                      value, message):
        _, spec_path, data_path, _, _ = workspace
        spec = json.loads(spec_path.read_text())
        energy = {m["name"]: m["energy"] for m in spec["molecules"]}
        if field == "energy":
            del spec["molecules"][1]["energy"]
        else:
            name = "methanol" if form == "bare" else "ethanol"
            energy[name]["bonds"][0][field] = value
        doc = {"spec": spec, "models": {"models": energy}, "bare": energy["methanol"]}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc[form]))
        code = main(["estimate", str(data_path), "--energy-model", str(model_path)])
        assert code == 2
        assert f"molecule {message}" in capsys.readouterr().err
