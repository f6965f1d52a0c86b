import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

import ospace
from ospace.cli import main
from ospace.network import load_model
from v1_checkpoint import model_to_v1_obj, save_v1

DYAD = ('{"frame_id": "a", "persons": [{"x": 1.0, "y": 1.0, "yaw_deg": 0.0}, '
        '{"x": 2.4, "y": 1.0, "yaw_deg": 180.0}], "groups": [[0, 1]]}\n')


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_scenes(path, text=DYAD):
    path.write_text(text)
    return path


def test_usage_errors(workdir, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["ingest"]) == 1  # missing required args
    assert main(["ingest", "nope.jsonl", "-o", "out.jsonl"]) == 1  # no file
    assert main(["synth", "-o", "s.jsonl", "--no-such-flag"]) == 1
    assert main(["train", "x.jsonl", "-o", "m.json", "--optimizer", "lbfgs"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_data_errors(workdir):
    bad = workdir / "bad.jsonl"
    bad.write_text('{"frame_id": "a", "persons": [[1.0]]}\n')
    assert main(["ingest", str(bad), "-o", "out.jsonl"]) == 2
    notjson = workdir / "notjson.jsonl"
    notjson.write_text("hello\n")
    assert main(["ingest", str(notjson), "-o", "out.jsonl"]) == 2


def test_synth_infeasible_is_numeric_error(workdir):
    rc = main(["synth", "-o", "s.jsonl", "--scenes", "1",
               "--groups", "3", "3", "--min-dist", "4.0"])
    assert rc == 3


def test_ingest_roundtrip_and_augment(workdir):
    src = _write_scenes(workdir / "in.jsonl", DYAD + DYAD.replace('"a"', '"b"'))
    assert main(["ingest", str(src), "-o", "plain.jsonl"]) == 0
    assert len((workdir / "plain.jsonl").read_text().splitlines()) == 2
    assert main(["ingest", str(src), "-o", "aug.jsonl", "--augment"]) == 0
    lines = (workdir / "aug.jsonl").read_text().splitlines()
    assert len(lines) == 8
    # flips of the first scene follow it before scene b appears
    ids = [json.loads(l)["frame_id"] for l in lines]
    assert ids[:4] == ["a", "a", "a", "a"]
    assert ids[4:] == ["b", "b", "b", "b"]


def test_synth_deterministic_with_centers(workdir):
    args = ["synth", "-o", "a.jsonl", "--seed", "3", "--scenes", "4",
            "--centers", "ca.jsonl"]
    assert main(args) == 0
    assert main(["synth", "-o", "b.jsonl", "--seed", "3", "--scenes", "4",
                 "--centers", "cb.jsonl"]) == 0
    assert (workdir / "a.jsonl").read_bytes() == (workdir / "b.jsonl").read_bytes()
    assert (workdir / "ca.jsonl").read_bytes() == (workdir / "cb.jsonl").read_bytes()
    rec = json.loads((workdir / "ca.jsonl").read_text().splitlines()[0])
    assert rec["frame_id"] == "synth-3-00000"
    assert all(len(c) == 2 for c in rec["centers"])


def _train_tiny(workdir, out="model.json", extra=()):
    scenes = workdir / "train.jsonl"
    if not scenes.exists():
        assert main(["synth", "-o", str(scenes), "--seed", "1",
                     "--scenes", "12", "--groups", "1", "2",
                     "--group-size", "2", "3"]) == 0
    rc = main(["train", str(scenes), "-o", out,
               "--epochs", "2", "--batch", "4",
               "--enc-widths", "8,16", "--hidden", "16",
               "--room-dim", "4", "--split", "0.8", "0.1", "0.1",
               *extra])
    assert rc == 0
    return workdir / out


def test_train_writes_versioned_checkpoint(workdir):
    model = _train_tiny(workdir)
    magic, header, _ = model.read_bytes().split(b"\n", 2)
    assert magic == b"ospace-checkpoint-2"
    obj = json.loads(header)
    assert obj["version"] == "ospace-checkpoint-2"
    assert obj["encoder"]["config"]["layer_widths"] == [8, 16]


def test_train_deterministic_checkpoints(workdir):
    a = _train_tiny(workdir, "a.json")
    b = _train_tiny(workdir, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_train_trace_csv(workdir):
    _train_tiny(workdir, extra=("--trace", "trace.csv"))
    lines = (workdir / "trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) > 0


def test_train_divergence_exit_code(workdir):
    scenes = workdir / "train.jsonl"
    main(["synth", "-o", str(scenes), "--seed", "1", "--scenes", "12",
          "--groups", "1", "2", "--group-size", "2", "3"])
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", str(scenes), "-o", "m.json",
                   "--epochs", "5", "--batch", "4", "--optimizer", "sgd",
                   "--lr", "1e120", "--enc-widths", "8,16", "--hidden", "16",
                   "--room-dim", "4"])
    assert rc == 3


def test_predict_eval_roundtrip(workdir, capsys):
    model = _train_tiny(workdir)
    scenes = workdir / "train.jsonl"
    assert main(["predict", str(model), str(scenes), "-o", "pred.jsonl"]) == 0
    preds = [json.loads(l) for l in (workdir / "pred.jsonl").read_text().splitlines()]
    assert len(preds) == 12
    for p in preds:
        assert set(p) == {"frame_id", "detections", "groups"}
        for d in p["detections"]:
            assert set(d) == {"x", "y", "score"}
    assert main(["eval", "--pred", "pred.jsonl", "--gt", str(scenes),
                 "-o", "metrics.csv"]) == 0
    out = capsys.readouterr().out
    assert "T=2/3" in out and "T=1" in out
    lines = (workdir / "metrics.csv").read_text().splitlines()
    assert lines[0] == "split,T,tp,fp,fn,precision,recall,f1"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "2/3"
    assert lines[2].split(",")[1] == "1"


def test_predict_corrupt_checkpoint_is_data_error(workdir, capsys):
    model = _train_tiny(workdir)
    obj = model_to_v1_obj(load_model(model))
    obj["head"]["layers"][1]["W"].pop()
    bad = workdir / "bad.json"
    save_v1(obj, bad)
    rc = main(["predict", str(bad), "train.jsonl", "-o", "pred.jsonl"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: checkpoint head layer 1:")
    assert "Traceback" not in err
    assert not (workdir / "pred.jsonl").exists()


def test_eval_perfect_predictions(workdir, capsys):
    scenes = _write_scenes(workdir / "gt.jsonl")
    pred = workdir / "pred.jsonl"
    pred.write_text('{"frame_id": "a", "groups": [[0, 1]]}\n')
    assert main(["eval", "--pred", str(pred), "--gt", str(scenes),
                 "-T", "1", "-o", "m.csv"]) == 0
    capsys.readouterr()
    lines = (workdir / "m.csv").read_text().splitlines()
    assert lines[1] == "test,1,1,0,0,1.0,1.0,1.0"


@pytest.mark.parametrize("line,message", [
    ('{"frame_id": "a", "groups": [5]}', "group block is not an array"),
    ('{"frame_id": "a", "groups": [[0, "1"]]}', "group member '1' is not an integer"),
    ('{"frame_id": "a", "groups": 5}', "groups is not an array"),
    ('{"frame_id": 7, "groups": [[0, 1]]}', "frame_id is not a string"),
    ('[{"frame_id": "a", "groups": [[0, 1]]}]', "record is not a JSON object"),
    ('5', "record is not a JSON object"),
])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_eval_malformed_group_record_is_data_error(workdir, capsys, side, line,
                                                   message):
    good = '{"frame_id": "a", "groups": [[0, 1]]}\n'
    files = {"pred": workdir / "pred.jsonl", "gt": workdir / "gt.jsonl"}
    for name, path in files.items():
        path.write_text(good + (line + "\n" if name == side else good))
    rc = main(["eval", "--pred", str(files["pred"]), "--gt", str(files["gt"])])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {files[side]} line 2: {message}\n"


def test_eval_frame_order_mismatch(workdir):
    scenes = _write_scenes(workdir / "gt.jsonl")
    pred = workdir / "pred.jsonl"
    pred.write_text('{"frame_id": "zzz", "groups": [[0, 1]]}\n')
    assert main(["eval", "--pred", str(pred), "--gt", str(scenes)]) == 2


def test_eval_deterministic_bytes(workdir, capsys):
    model = _train_tiny(workdir)
    scenes = workdir / "train.jsonl"
    main(["predict", str(model), str(scenes), "-o", "pred.jsonl"])
    main(["eval", "--pred", "pred.jsonl", "--gt", str(scenes), "-o", "m1.csv"])
    main(["eval", "--pred", "pred.jsonl", "--gt", str(scenes), "-o", "m2.csv"])
    capsys.readouterr()
    assert (workdir / "m1.csv").read_bytes() == (workdir / "m2.csv").read_bytes()


def test_tune_outputs(workdir, monkeypatch, capsys):
    model = _train_tiny(workdir)
    scenes = workdir / "train.jsonl"
    args = ["tune", str(model), str(scenes), "-T", "2/3",
            "--thresholds", "0.3,0.5", "--separations", "1.0",
            "--assign-dists", "0.8,1.0", "--strides", "0.7",
            "-o", "params.json", "--table", "table.csv"]
    assert main(args) == 0
    capsys.readouterr()
    params = json.loads((workdir / "params.json").read_text())
    assert set(params) == {"nms_threshold", "min_group_separation_m",
                           "max_assign_dist_m", "stride_m"}
    table = (workdir / "table.csv").read_text().splitlines()
    assert len(table) == 5  # header + 2x1x2x1 combos
    # the same search on 2 worker threads lands on identical bytes
    monkeypatch.setenv("OSPACE_THREADS", "2")
    assert main(args[:-2] + ["--table", "table2.csv"]) == 0
    capsys.readouterr()
    assert (workdir / "table.csv").read_bytes() == (workdir / "table2.csv").read_bytes()


def test_predict_params_file_flows_through(workdir):
    model = _train_tiny(workdir)
    scenes = workdir / "train.jsonl"
    (workdir / "p.json").write_text(json.dumps({
        "nms_threshold": 0.4, "min_group_separation_m": 1.0,
        "max_assign_dist_m": 1.0, "stride_m": 0.7,
    }))
    assert main(["predict", str(model), str(scenes), "-o", "p1.jsonl",
                 "--params", "p.json"]) == 0
    assert main(["predict", str(model), str(scenes), "-o", "p2.jsonl",
                 "--threshold", "0.4", "--assign-dist", "1.0"]) == 0
    assert (workdir / "p1.jsonl").read_bytes() == (workdir / "p2.jsonl").read_bytes()
    with np.errstate(all="ignore"):
        assert main(["predict", str(model), str(scenes), "-o", "x.jsonl",
                     "--threshold", "1.5"]) == 1  # invalid parameter is usage


_PARAMS = {"nms_threshold": 0.4, "min_group_separation_m": 1.0,
           "max_assign_dist_m": 1.0, "stride_m": 0.7}


@pytest.mark.parametrize("text,message", [
    (json.dumps({**_PARAMS, "nms_threshold": {}}),
     "p.json nms_threshold: expected number or integer, got object"),
    (json.dumps(list(_PARAMS.values())),
     "p.json: expected a JSON object, got array"),
    (json.dumps({**_PARAMS, "nms_threshold": True}),
     "p.json nms_threshold: expected number or integer, got boolean"),
    (json.dumps({k: v for k, v in _PARAMS.items()
                 if k != "min_group_separation_m"}),
     "p.json min_group_separation_m: missing"),
    (json.dumps({**_PARAMS, "stride_m": "0.7"}),
     "p.json stride_m: expected number or integer, got string"),
    (json.dumps({**_PARAMS, "max_assign_dist_m": 10 ** 400}),
     "p.json max_assign_dist_m: out of range"),
    (json.dumps({**_PARAMS, "nms_threshold": 1.5}),
     "p.json: threshold 1.5 outside [0, 1]"),
    ("{nope", "p.json: not JSON"),
], ids=["object", "top-level list", "boolean", "missing key", "string",
        "huge integer", "out of range", "not JSON"])
def test_predict_bad_params_file_is_data_error(workdir, capsys, text, message):
    model = _train_tiny(workdir)
    (workdir / "p.json").write_text(text)
    capsys.readouterr()
    rc = main(["predict", str(model), "train.jsonl", "-o", "pred.jsonl",
               "--params", "p.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: params file {message}")
    assert "Traceback" not in err
    assert not (workdir / "pred.jsonl").exists()


def test_render_ground_truth_pgm(workdir):
    _write_scenes(workdir / "gt.jsonl")
    assert main(["render", "gt.jsonl", "-o", "maps"]) == 0
    pgm = (workdir / "maps" / "a.pgm").read_text()
    lines = pgm.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "12 10"
    assert lines[2] == "255"
    rows = [list(map(int, l.split())) for l in lines[3:]]
    assert len(rows) == 10
    assert all(len(r) == 12 for r in rows)
    assert all(0 <= v <= 255 for r in rows for v in r)
    # o-space center (1.7, 1.0): grid rows 1 and 2 at col 3 peak at
    # round(255 * exp(-0.13)) = 224
    assert rows[2][3] == 224
    assert max(v for r in rows for v in r) == 224


def test_render_csv_option(workdir):
    _write_scenes(workdir / "gt.jsonl")
    assert main(["render", "gt.jsonl", "-o", "maps", "--csv"]) == 0
    text = (workdir / "maps" / "a.csv").read_text()
    rows = text.splitlines()
    assert len(rows) == 10
    vals = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert vals.shape == (10, 12)
    assert np.isclose(vals.max(), np.exp(-0.13), atol=1e-12)


def test_render_with_model(workdir):
    model = _train_tiny(workdir)
    _write_scenes(workdir / "gt.jsonl")
    assert main(["render", "gt.jsonl", "-o", "maps", "--model", str(model)]) == 0
    assert (workdir / "maps" / "a.pgm").exists()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("synth", "ingest", "train", "tune", "predict", "eval", "render")


def _declared_script():
    """The `ospace` entry in pyproject.toml's [project.scripts]."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["ospace"]


def _ospace_command():
    """The argv that runs `ospace`, its environment, and its entry point.

    An installed `ospace` on PATH is run as it is, and its distribution's
    entry must match the checkout's declaration. Without one, the declared
    entry point runs in a fresh interpreter the way the generated wrapper
    runs it, on the same source as this process.
    """
    exe = shutil.which("ospace")
    if exe is not None:
        ep = entry_points(group="console_scripts")["ospace"]
        if sys.version_info >= (3, 11):  # tomllib; a stale install fails
            assert ep.value == _declared_script()
        return [exe], None, ep
    ep = EntryPoint(name="ospace", value=_declared_script(),
                    group="console_scripts")
    wrapper = (f"import sys; from {ep.module} import {ep.attr} as main; "
               "sys.argv[0] = 'ospace'; sys.exit(main())")
    src = str(Path(ospace.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-c", wrapper], env, ep


def test_console_script_installed():
    cmd, env, ep = _ospace_command()
    assert ep.load() is main
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ospace")
    for name in SUBCOMMANDS:
        assert name in proc.stdout
    # main's return value becomes the process's exit status
    proc = subprocess.run(cmd + ["frobnicate"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 1
