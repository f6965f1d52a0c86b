import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

import ospace
from ospace import network
from ospace.cli import _write_heatmap_csv, _write_pgm, build_parser, main
from ospace.core import DEFAULT_SPEC, Person, Scene
from ospace.dataset import SceneParseError, load_scenes, parse_scenes
from ospace.evaluation import match_scene
from ospace.network import load_model, predict_heatmaps
from ospace.room import RoomFeature, save_precomputed
from ospace.synthetic import SynthConfig, generate

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
    # a distance whose square overflows a float is infeasible, not a crash
    rc = main(["synth", "-o", "s.jsonl", "--scenes", "1",
               "--groups", "2", "2", "--min-dist", "1e308"])
    assert rc == 3


@pytest.mark.parametrize("cell", ["1e154", "1e200"])
def test_synth_in_a_room_whose_offsets_square_past_a_float(workdir, cell):
    assert main(["synth", "-o", "s.jsonl", "--scenes", "6", "--cell", cell]) == 0
    assert len((workdir / "s.jsonl").read_text().splitlines()) == 6


def test_synth_room_size_past_a_float_is_usage_error(workdir, capsys):
    rc = main(["synth", "-o", "s.jsonl", "--scenes", "6", "--cell", "1e308"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: room size of a 10x12 grid of 1e+308 m cells overflows a float\n")


def test_synth_yaw_jitter_past_a_float_names_its_flag(workdir, capsys):
    rc = main(["synth", "-o", "s.jsonl", "--scenes", "2", "--jitter-deg", "1e308"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --jitter-deg 1e+308: scene ")
    assert err.endswith(": a jittered yaw overflows a float\n")


def test_ingest_roundtrip_and_augment(workdir):
    src = _write_scenes(workdir / "in.jsonl", DYAD + DYAD.replace('"a"', '"b"'))
    assert main(["ingest", str(src), "-o", "plain.jsonl"]) == 0
    assert len((workdir / "plain.jsonl").read_text().splitlines()) == 2
    assert main(["ingest", str(src), "-o", "aug.jsonl", "--augment"]) == 0
    lines = (workdir / "aug.jsonl").read_text().splitlines()
    assert len(lines) == 8
    # flips of the first scene follow it before scene b appears
    ids = [json.loads(l)["frame_id"] for l in lines]
    assert ids[:4] == ["a", "a-h", "a-v", "a-hv"]
    assert ids[4:] == ["b", "b-h", "b-v", "b-hv"]


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
               "--split", "0.8", "0.1", "0.1",
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
                   "--lr", "1e120", "--enc-widths", "8,16", "--hidden", "16"])
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
    last = load_model(model).head.layers[1]
    magic, header, blob = model.read_bytes().split(b"\n", 2)
    i = len(blob) - 8 * (last.W.size + last.b.size)  # head layer 1's W[0, 0]
    blob = blob[:i] + np.array([np.inf]).astype("<f8").tobytes() + blob[i + 8:]
    header = json.loads(header)
    header["sha256"] = hashlib.sha256(blob).hexdigest()
    bad = workdir / "bad.ckpt"
    bad.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + blob)
    rc = main(["predict", str(bad), "train.jsonl", "-o", "pred.jsonl"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: checkpoint head layer 1: non-finite weight")
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


@pytest.mark.parametrize("line,path,message", [
    ('{"frame_id": "a", "groups": [5]}', "groups.0", "expected array, got integer"),
    ('{"frame_id": "a", "groups": [[0, "1"]]}', "groups.0",
     "expected an array of integers"),
    ('{"frame_id": "a", "groups": 5}', "groups", "expected array, got integer"),
    ('{"frame_id": 7, "groups": [[0, 1]]}', "frame_id",
     "expected string, got integer"),
    ('[{"frame_id": "a", "groups": [[0, 1]]}]', "",
     "expected a JSON object, got array"),
    pytest.param('5', "", "expected a JSON object, got integer",
                 id="5-not an object"),
    ('{"frame_id": "a"}', "groups", "missing"),
])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_eval_malformed_group_record_is_data_error(workdir, capsys, side, line,
                                                   path, message):
    if side == "gt" and line.startswith("{"):
        # ground truth is a scene file: give the record the dyad's persons,
        # which are read first, so each case reaches its field
        line = DYAD[:DYAD.index(', "groups"')] + ", " + line[1:]
    good = {"pred": '{"frame_id": "a", "groups": [[0, 1]]}\n', "gt": DYAD}
    files = {"pred": workdir / "pred.jsonl", "gt": workdir / "gt.jsonl"}
    for name, file in files.items():
        file.write_text(good[name] + (line + "\n" if name == side else good[name]))
    rc = main(["eval", "--pred", str(files["pred"]), "--gt", str(files["gt"])])
    out, err = capsys.readouterr()
    if side == "gt" and message == "missing":
        # a scene without groups is all singletons: the dyad is a false positive
        assert (rc, err) == (0, "")
        assert "tp=1 fp=1 fn=0" in out
        return
    assert rc == 2
    where = " ".join(filter(None, [f"{files[side]} line 2", path]))
    assert err == f"error: {where}: {message}\n"


EVAL_GROUPS = {
    "outside the frame": ("pred", '{"frame_id": "a", "groups": [[0, 1], [-3, 700]]}',
                          "groups.1: person -3 is not in the 2-person frame"),
    "repeat": ("pred", '{"frame_id": "a", "groups": [[0, 1], [1, 5]]}',
               "groups.1: person 1 repeats"),
    "repeat in a block": ("pred", '{"frame_id": "a", "groups": [[0, 0]]}',
                          "groups.0: person 0 repeats"),
    "ground truth outside": ("gt", '{"frame_id": "a", "persons": [{"x": 1, "y": 1, '
                             '"yaw_deg": 0}], "groups": [[0, 1]]}',
                             "groups.0: person 1 is not in the 1-person frame"),
    "ground truth without persons": ("gt", '{"frame_id": "a", "groups": [[0, 1]]}',
                                     "persons: missing"),
}


@pytest.mark.parametrize("side,line,message", EVAL_GROUPS.values(), ids=EVAL_GROUPS)
def test_eval_group_outside_its_frame_names_file_line_and_field(workdir, capsys,
                                                               side, line, message):
    files = {"pred": workdir / "pred.jsonl", "gt": workdir / "gt.jsonl"}
    files["pred"].write_text('{"frame_id": "a", "groups": [[0, 1]]}\n' * 2)
    files["gt"].write_text(DYAD * 2)
    files[side].write_text(files[side].read_text().splitlines()[0] + "\n"
                           + line + "\n")
    rc = main(["eval", "--pred", str(files["pred"]), "--gt", str(files["gt"]),
               "-o", "m.csv"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {files[side]} line 2 {message}\n"
    assert "Traceback" not in err
    assert not (workdir / "m.csv").exists()


BAD_GROUPS = {
    "repeat": ([[0, 1], [1, 2]], "groups.1: person 1 repeats"),
    "out of range": ([[0, 1], [2, 7]],
                     "groups.1: person 7 is not in the 3-person frame"),
    "negative": ([[0, -1]], "groups.0: person -1 is not in the 3-person frame"),
    "empty block": ([[0, 1], []], "groups.1: empty"),
}


@pytest.mark.parametrize("groups,message", BAD_GROUPS.values(), ids=BAD_GROUPS)
def test_every_group_reader_words_a_bad_group_list_alike(workdir, capsys, groups,
                                                         message):
    persons = [{"x": 1.0 + i, "y": 1.0, "yaw_deg": 0.0} for i in range(3)]
    with pytest.raises(ValueError) as exc:
        Scene("a", [Person(**p) for p in persons], groups)
    assert str(exc.value) == message
    bad = json.dumps({"frame_id": "a", "persons": persons, "groups": groups})
    with pytest.raises(SceneParseError) as exc:
        parse_scenes(bad)
    assert str(exc.value) == f"line 1 {message}"
    records = {"pred": '{"frame_id": "a", "groups": [[0, 1]]}',
               "gt": json.dumps({"frame_id": "a", "persons": persons})}
    for side in records:
        for name, record in records.items():
            (workdir / f"{name}.jsonl").write_text(
                (bad if name == side else record) + "\n")
        rc = main(["eval", "--pred", "pred.jsonl", "--gt", "gt.jsonl"])
        assert (rc, capsys.readouterr().err) == (
            2, f"error: {side}.jsonl line 1 {message}\n")
    if "frame" in message:
        return  # match_scene knows no frame size, so cannot tell
    for label, args in [("predicted", (groups, [])), ("ground-truth", ([], groups))]:
        with pytest.raises(ValueError) as exc:
            match_scene(*args, 1)
        assert str(exc.value) == f"{label} {message}"


@pytest.mark.parametrize("pred,message", [
    ('{"frame_id": "b", "groups": [[0, 1]]}\n',
     "pred.jsonl line 1: frame_id 'b', but frame 1 of gt.jsonl is 'a'"),
    ("", "pred.jsonl has no prediction for frame 1 of gt.jsonl ('a')"),
    ('{"frame_id": "a", "groups": [[0, 1]]}\n{"frame_id": "b", "groups": []}\n',
     "pred.jsonl line 2: frame_id 'b', but gt.jsonl has no frame 2"),
], ids=["frame_id", "count", "extra prediction"])
def test_eval_pairing_error_names_the_files(workdir, capsys, pred, message):
    _write_scenes(workdir / "gt.jsonl")
    (workdir / "pred.jsonl").write_text(pred)
    rc = main(["eval", "--pred", "pred.jsonl", "--gt", "gt.jsonl", "-o", "m.csv"])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert not (workdir / "m.csv").exists()


def test_eval_scores_ground_truth_off_the_default_grid(workdir, capsys):
    # a --rows 20 scene file: eval checks indices, never positions
    gt = _write_scenes(workdir / "gt.jsonl", DYAD.replace('"y": 1.0', '"y": 8.0'))
    pred = workdir / "pred.jsonl"
    pred.write_text('{"frame_id": "a", "groups": [[0, 1]]}\n')
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "-T", "1"]) == 0
    assert "tp=1 fp=0 fn=0" in capsys.readouterr().out


@pytest.mark.parametrize("label", ["a,b", 'say "hi"', "x\ny", "x\ry"],
                         ids=["comma", "double quote", "LF", "CR"])
def test_eval_split_that_breaks_the_csv_is_usage_error(workdir, capsys, label):
    gt = _write_scenes(workdir / "gt.jsonl")
    pred = workdir / "pred.jsonl"
    pred.write_text('{"frame_id": "a", "groups": [[0, 1]]}\n')
    rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "-o", "m.csv",
               "--split", label])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: --split {label!r} would break the CSV: it holds a "
                   "comma, a double quote or a line break\n")
    assert not (workdir / "m.csv").exists()


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


def _reversed_lines(path, out):
    """``path``'s lines in reverse order, written to ``out``."""
    lines = path.read_text().splitlines(keepends=True)
    out.write_text("".join(reversed(lines)))
    return out


def test_tune_outputs(workdir, capsys):
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
    # a scene's heatmap bits do not depend on the others in the file, so
    # the same search over the file's lines reversed lands on the same bytes
    backwards = _reversed_lines(scenes, workdir / "backwards.jsonl")
    args[2] = str(backwards)
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
    ("[" * 100_000 + "]" * 100_000, "p.json: not JSON (maximum recursion depth"),
], ids=["object", "top-level list", "boolean", "missing key", "string",
        "huge integer", "out of range", "not JSON", "nested too deep"])
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


CELLS = ["free"] * 120


def _train_with_layout(workdir, text):
    """Train for zero epochs on the default 10x12 grid with a layout file."""
    scenes = _write_scenes(workdir / "s.jsonl")
    (workdir / "lay.json").write_text(text)
    return main(["train", str(scenes), "-o", "m.ckpt", "--epochs", "0",
                 "--split", "1", "0", "0", "--enc-widths", "4", "--hidden", "4",
                 "--layout", "lay.json"])


@pytest.mark.parametrize("text,message", [
    (json.dumps({"spec": {"rows": {}}, "cells": CELLS}),
     "lay.json spec.rows: expected integer, got object\n"),
    (json.dumps({"spec": {"rows": True}, "cells": CELLS}),
     "lay.json spec.rows: expected integer, got boolean\n"),
    (json.dumps({"spec": {"rows": 10.7}, "cells": CELLS}),
     "lay.json spec.rows: expected integer, got number\n"),
    (json.dumps({"cells": 5}), "lay.json cells: expected array, got integer\n"),
    (json.dumps({"spec": {"rows": 10}}), "lay.json cells: missing\n"),
    (json.dumps({"spec": [10, 12, 0.5], "cells": CELLS}),
     "lay.json spec: expected object, got array\n"),
    (json.dumps([{"cells": CELLS}]),
     "lay.json: expected a JSON object, got array\n"),
    (json.dumps({"cells": CELLS[1:]}),
     "lay.json cells: 119 cells, the 10x12 grid has 120\n"),
    (json.dumps({"cells": CELLS[1:] + ["sofa"]}),
     "lay.json cells.119: unknown occupancy class 'sofa'\n"),
    (json.dumps({"cells": [CELLS[1:]] + CELLS[1:]}),
     "lay.json cells.0: expected string, got array\n"),
    (json.dumps({"cells": CELLS[:7] + [None] + CELLS[8:]}),
     "lay.json cells.7: expected string, got null\n"),
    (json.dumps({"spec": {"rows": 0}, "cells": []}),
     "lay.json spec: grid must be at least 1x1, got 0x12\n"),
    (json.dumps({"spec": {"cell_m": 1e308}, "cells": CELLS}),
     "lay.json spec: room size of a 10x12 grid of 1e+308 m cells overflows a "
     "float\n"),
    ("{nope", "lay.json: not JSON ("),
], ids=["rows object", "rows boolean", "rows float", "cells integer",
        "no cells", "spec list", "top-level list", "cell count",
        "unknown class", "cell array", "cell null", "empty grid",
        "room size overflows", "not JSON"])
def test_train_bad_layout_file_is_data_error(workdir, capsys, text, message):
    rc = _train_with_layout(workdir, text)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: layout {message}")
    assert "Traceback" not in err
    assert not (workdir / "m.ckpt").exists()


def test_train_layout_partial_spec_takes_defaults(workdir):
    text = json.dumps({"spec": {"rows": 10}, "cells": CELLS})
    assert _train_with_layout(workdir, text) == 0
    assert (workdir / "m.ckpt").exists()


def test_layout_grid_must_match_the_run(workdir, capsys):
    text = json.dumps({"spec": {"rows": 1, "cols": 120}, "cells": CELLS})
    rc = _train_with_layout(workdir, text)
    assert capsys.readouterr().err == ("error: layout lay.json: grid 1x120 does "
                                       "not match the 10x12 grid of the run\n")
    assert rc == 2
    assert not (workdir / "m.ckpt").exists()


@pytest.mark.parametrize("text,message", [
    (b"dim x\n1.0\n", "bad dimension 'x' in feature header"),
    (b"dim 2\n1.0\nabc\n", "bad float value 2: 'abc'"),
    (b"dim 3\n1.0\n2.0\n", "feature file declares dim 3 but holds 2 values"),
    (b"dim 2\n1.0\n\xff\n", "not UTF-8 (byte 11: invalid start byte)"),
    (b"dim 2\n1.0\nnan\n", "non-finite value 2: nan"),
    (b"dim 3\n1.0\n-inf\n2.0\n", "non-finite value 2: -inf"),
    (b"dim 1\n1e999\n", "non-finite value 1: 1e999"),
    (b"dim 3\n1.0\nnan\nabc\n", "non-finite value 2: nan"),
], ids=["bad dimension", "bad float", "value count", "non-UTF-8", "nan",
        "inf", "overflow", "first bad value"])
def test_train_bad_room_file_names_it(workdir, capsys, text, message):
    scenes = _write_scenes(workdir / "s.jsonl")
    (workdir / "bad.feat").write_bytes(text)
    rc = main(["train", str(scenes), "-o", "m.ckpt", "--epochs", "0",
               "--split", "1", "0", "0", "--enc-widths", "4", "--hidden", "4",
               "--room-file", "bad.feat"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: room file bad.feat: {message}\n"
    assert not (workdir / "m.ckpt").exists()


def _write_rooms(workdir):
    """A default-grid layout (628 pyramid values) and room files of 3 and 4."""
    (workdir / "lay.json").write_text(json.dumps({"cells": CELLS}))
    save_precomputed(RoomFeature([0.5, -1.0, 2.0]), workdir / "r3.feat")
    save_precomputed(RoomFeature([0.5, -1.0, 2.0, 0.25]), workdir / "r4.feat")


@pytest.mark.parametrize("flags,room_width", [
    ((), 0), (("--layout", "lay.json"), 628), (("--room-file", "r3.feat"), 3),
], ids=["no room", "layout", "room file"])
def test_train_room_input_is_as_wide_as_the_room(workdir, capsys, flags,
                                                  room_width):
    _write_rooms(workdir)
    model = _train_tiny(workdir, extra=flags)  # encoder output 16
    assert load_model(model).head.config.input_dim == room_width + 16
    assert main(["predict", str(model), "train.jsonl", "-o", "pred.jsonl",
                 *flags]) == 0
    capsys.readouterr()


ROOM_MISMATCHES = {
    "room checkpoint, no room flag": (
        ("--layout", "lay.json"), (),
        "takes a room of 628 values, but no room flag was given (0 values)"),
    "no-room checkpoint, layout": (
        (), ("--layout", "lay.json"),
        "takes a room of 0 values, but layout lay.json holds 628"),
    "room file of another width": (
        ("--room-file", "r3.feat"), ("--room-file", "r4.feat"),
        "takes a room of 3 values, but room file r4.feat holds 4"),
}


@pytest.mark.parametrize("command", ["tune", "predict"])
@pytest.mark.parametrize("trained,given,message", ROOM_MISMATCHES.values(),
                         ids=ROOM_MISMATCHES)
def test_room_mismatch_names_checkpoint_room_and_widths(workdir, capsys, command,
                                                        trained, given, message):
    _write_rooms(workdir)
    model = _train_tiny(workdir, extra=trained)
    capsys.readouterr()
    # the scene file does not exist: the room is checked before it is read
    outputs = {"tune": ["--table", "table.csv"], "predict": ["--heatmaps", "maps"]}
    rc = main([command, str(model), "missing.jsonl", "-o", "out",
               *outputs[command], *given])
    assert (rc, capsys.readouterr().err) == (
        2, f"error: checkpoint {model} {message}\n")
    for name in ("out", "table.csv", "maps"):
        assert not (workdir / name).exists()


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


# a dyad facing the same way: at a huge stride each member's o-space
# proposal fits a float, but their sum does not
SAME_WAY = ('{"frame_id": "a", "persons": [{"x": 1.0, "y": 1.0, "yaw_deg": 80.0}, '
            '{"x": 2.0, "y": 1.0, "yaw_deg": 100.0}], "groups": [[0, 1]]}\n')


@pytest.mark.parametrize("argv,output", [
    (["train", "s.jsonl", "-o", "m.ckpt", "--epochs", "1", "--split", "1", "0",
      "0", "--enc-widths", "4", "--hidden", "4"], "m.ckpt"),
    (["render", "s.jsonl", "-o", "maps"], "maps/a.pgm"),
], ids=["train", "render"])
def test_stride_whose_proposals_sum_past_a_float(workdir, argv, output):
    _write_scenes(workdir / "s.jsonl", SAME_WAY)
    assert main(argv + ["--stride", "1e308"]) == 0
    assert (workdir / output).stat().st_size > 0


def test_render_csv_option(workdir):
    _write_scenes(workdir / "gt.jsonl")
    assert main(["render", "gt.jsonl", "-o", "maps", "--csv"]) == 0
    text = (workdir / "maps" / "a.csv").read_text()
    rows = text.splitlines()
    assert len(rows) == 10
    vals = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert vals.shape == (10, 12)
    assert np.isclose(vals.max(), np.exp(-0.13), atol=1e-12)


def test_predict_heatmaps_are_the_predicted_heatmaps(workdir, capsys):
    model = _train_tiny(workdir)
    scenes = workdir / "train.jsonl"
    backwards = _reversed_lines(scenes, workdir / "backwards.jsonl")
    assert main(["predict", str(model), str(scenes), "-o", "plain.jsonl"]) == 0
    assert main(["predict", str(model), str(scenes), "-o", "pred.jsonl",
                 "--heatmaps", "maps", "--csv"]) == 0
    assert main(["predict", str(model), str(backwards), "-o", "back.jsonl",
                 "--heatmaps", "back", "--csv"]) == 0
    capsys.readouterr()
    assert (workdir / "pred.jsonl").read_bytes() == (workdir / "plain.jsonl").read_bytes()
    back = (workdir / "back.jsonl").read_text().splitlines()
    assert back[::-1] == (workdir / "pred.jsonl").read_text().splitlines()
    weights = load_model(model)
    room = RoomFeature(np.zeros(0))  # trained with no room flag
    frames = load_scenes(scenes)
    assert len(frames) > 1  # the batched path
    assert len(os.listdir(workdir / "maps")) == 2 * len(frames)
    for scene, heatmap in zip(frames, predict_heatmaps(frames, weights, room)):
        _write_pgm(heatmap, workdir / "want.pgm")
        _write_heatmap_csv(heatmap, workdir / "want.csv")
        for ext in ("pgm", "csv"):
            want = (workdir / f"want.{ext}").read_bytes()
            for directory in ("maps", "back"):
                got = workdir / directory / f"{scene.frame_id}.{ext}"
                assert got.read_bytes() == want


def test_predicted_bytes_do_not_depend_on_the_blas_thread_count(workdir,
                                                              capsys):
    # BLAS reads its thread variable when numpy is imported, so each count
    # runs in a child process; 70 frames make two full chunks and a padded one
    assert main(["synth", "-o", "train.jsonl", "--seed", "4", "--scenes", "8"]) == 0
    assert main(["synth", "-o", "frames.jsonl", "--seed", "5",
                 "--scenes", "70", "--groups", "3", "3"]) == 0
    assert main(["train", "train.jsonl", "-o", "model.ckpt", "--epochs", "1",
                 "--enc-widths", "64,128,256", "--hidden", "256"]) == 0
    capsys.readouterr()
    src = str(Path(ospace.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "ospace.cli", "predict", "model.ckpt",
             "frames.jsonl", "-o", f"{out}.jsonl", "--heatmaps", out],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        maps = sorted((workdir / out).iterdir())
        assert len(maps) == 70
        outputs.append([(workdir / f"{out}.jsonl").read_bytes()]
                       + [(p.name, p.read_bytes()) for p in maps])
    assert outputs[0] == outputs[1]


def test_predict_csv_needs_heatmaps(workdir, capsys):
    model = _train_tiny(workdir)
    capsys.readouterr()
    rc = main(["predict", str(model), "train.jsonl", "-o", "pred.jsonl", "--csv"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --csv needs --heatmaps\n"
    assert not (workdir / "pred.jsonl").exists()


@pytest.mark.parametrize("flag,path", [("--model", "m.ckpt"),
                                       ("--layout", "notjson.json"),
                                       ("--room-file", "bad.feat")],
                         ids=["--model", "--layout", "--room-file"])
def test_render_takes_no_prediction_flags(workdir, capsys, flag, path):
    _write_scenes(workdir / "gt.jsonl")
    (workdir / path).write_text("not a room\n")
    rc = main(["render", "gt.jsonl", "-o", "maps", flag, path])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"unrecognized arguments: {flag} {path}" in err
    assert not (workdir / "maps").exists()


BAD_FRAME_IDS = pytest.mark.parametrize(
    "frame_id", ["/abs/path/x", "sub/dir", "", ".", "..", "a\0b"],
    ids=["absolute", "subdirectory", "empty", "dot", "dot-dot", "NUL"])


def _assert_frame_id_rejected(workdir, capsys, argv, frame_id):
    line = json.dumps({"frame_id": frame_id, "persons": [
        {"x": 1.0, "y": 1.0, "yaw_deg": 0.0}]})
    _write_scenes(workdir / "gt.jsonl", DYAD + line + "\n")
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: frame_id {frame_id!r} is not a plain file name "
                   "(heatmaps are written as <frame_id>.pgm)\n")
    assert not (workdir / "maps").exists()
    assert not (workdir / "pred.jsonl").exists()


@BAD_FRAME_IDS
def test_render_rejects_frame_id_that_is_not_a_file_name(workdir, capsys,
                                                         frame_id):
    _assert_frame_id_rejected(workdir, capsys, ["render", "gt.jsonl", "-o", "maps"],
                              frame_id)


@BAD_FRAME_IDS
def test_predict_heatmaps_reject_frame_id_that_is_not_a_file_name(workdir, capsys,
                                                                  frame_id):
    model = _train_tiny(workdir)
    _assert_frame_id_rejected(workdir, capsys, [
        "predict", str(model), "gt.jsonl", "-o", "pred.jsonl", "--heatmaps", "maps"],
        frame_id)


@pytest.mark.parametrize("command", ["render", "predict"])
def test_heatmaps_reject_frame_ids_that_repeat(workdir, capsys, command):
    _write_scenes(workdir / "twice.jsonl", DYAD + DYAD)
    argv = ["render", "twice.jsonl", "-o", "maps"]
    if command == "predict":
        argv = ["predict", str(_train_tiny(workdir)), "twice.jsonl", "-o",
                "pred.jsonl", "--heatmaps", "maps"]
    capsys.readouterr()
    assert (main(argv), capsys.readouterr().err) == (
        2, "error: frame_id 'a' is shared by frames 1 and 2 "
           "(heatmaps are written as <frame_id>.pgm)\n")
    assert not (workdir / "maps").exists()
    assert not (workdir / "pred.jsonl").exists()


def test_augmented_scenes_go_through_render_and_predict_heatmaps(workdir, capsys):
    _write_scenes(workdir / "s.jsonl")
    assert main(["ingest", "s.jsonl", "-o", "aug.jsonl", "--augment"]) == 0
    assert main(["render", "aug.jsonl", "-o", "gt_maps"]) == 0
    assert main(["predict", str(_train_tiny(workdir)), "aug.jsonl", "-o",
                 "pred.jsonl", "--heatmaps", "maps"]) == 0
    capsys.readouterr()
    for maps in ("gt_maps", "maps"):
        assert sorted(os.listdir(workdir / maps)) == [
            "a-h.pgm", "a-hv.pgm", "a-v.pgm", "a.pgm"]


def test_scene_file_error_names_the_file(workdir, capsys):
    model = _train_tiny(workdir)
    bad = workdir / "bad.jsonl"
    bad.write_text(DYAD + DYAD.replace('"x": 1.0', '"x": 99.0'))
    capsys.readouterr()
    rc = main(["predict", str(model), str(bad), "-o", "pred.jsonl"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: {bad} line 2: person 0 at (99.0, 1.0) outside room "
                   "6.0 m x 5.0 m\n")
    assert not (workdir / "pred.jsonl").exists()


BAD_RECORDS = {
    "huge integer": (b'{"frame_id": "b", "persons": [{"x": 1' + b"0" * 400
                     + b', "y": 1, "yaw_deg": 0}]}', " persons.0.x: out of range"),
    "boolean": (b'{"frame_id": "b", "persons": [{"x": 1, "y": false, "yaw_deg": 0}]}',
                " persons.0.y: expected number or integer, got boolean"),
    "NaN": (b'{"frame_id": "b", "persons": [{"x": 1, "y": 1, "yaw_deg": NaN}]}',
            " persons.0: non-finite yaw_deg: nan"),
    "groups object": (b'{"frame_id": "b", "persons": [], "groups": {}}',
                      " groups: expected array, got object"),
    "not UTF-8": (b'{"frame_id": "b\xff", "persons": []}',
                  ": not UTF-8 (byte 16: invalid start byte)"),
}


@pytest.mark.parametrize("line,message", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_bad_scene_record_names_file_line_and_field(workdir, capsys, line, message):
    bad = workdir / "bad.jsonl"
    bad.write_bytes(DYAD.encode() + line + b"\n")
    rc = main(["ingest", str(bad), "-o", "out.jsonl"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {bad} line 2{message}\n"
    assert "Traceback" not in err
    assert not (workdir / "out.jsonl").exists()


def test_eval_non_utf8_line_names_file_and_line(workdir, capsys):
    gt = _write_scenes(workdir / "gt.jsonl")
    pred = workdir / "pred.jsonl"
    pred.write_bytes(b'{"frame_id": "a", "groups": [[0, 1]]}\n\xfe\n')
    rc = main(["eval", "--pred", str(pred), "--gt", str(gt)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: {pred} line 2: not UTF-8 (byte 1: invalid start "
                   "byte)\n")


# One UTF-8 rule for every text input: a 0xff byte anywhere is named by the
# input and the byte's number from 1, with exit 2 and nothing written.

# case -> (command, the input given the bad byte)
BAD_BYTE_INPUTS = {
    **{f"{c} scenes": (c, "scenes") for c in ("ingest", "train", "tune",
                                              "predict", "render")},
    "eval --gt": ("eval", "scenes"),
    "eval --pred": ("eval", "pred"),
    "predict --params": ("predict", "--params"),
    "train --layout": ("train", "--layout"),
    "train --room-file": ("train", "--room-file"),
}


def _with_ff(text: bytes, at: int) -> bytes:
    """``text`` with a 0xff byte inserted as its byte ``at + 1``."""
    return text[:at] + b"\xff" + text[at:]


def _bad_byte_run(workdir, run_inputs, command, given):
    """(argv, what, N): ``command``'s run with its outputs, and ``given``
    written with a 0xff as byte N of its document, or of line 2 of a
    JSON-Lines file."""
    argv = _with_outputs(run_inputs[command], OUTPUTS[command])
    if given in ("scenes", "pred"):
        good = run_inputs["eval"][4 if given == "scenes" else 2]
        lines = Path(good).read_bytes().splitlines(keepends=True)
        lines[1] = _with_ff(lines[1], 14)  # in the frame_id's text
        (workdir / "bad.jsonl").write_bytes(b"".join(lines))
        return ([("bad.jsonl" if a == good else a) for a in argv],
                "bad.jsonl line 2", 15)
    text, what = {"--params": (json.dumps(_PARAMS), "params file"),
                  "--layout": (json.dumps({"cells": CELLS}), "layout"),
                  "--room-file": ("dim 2\n1.0\n2.0\n", "room file")}[given]
    (workdir / "input").write_bytes(_with_ff(text.encode(), 7))
    return [*argv, given, "input"], f"{what} input", 8


@pytest.mark.parametrize("command,given", BAD_BYTE_INPUTS.values(),
                         ids=BAD_BYTE_INPUTS)
def test_a_bad_byte_in_any_text_input_is_named_alike(workdir, capsys, run_inputs,
                                                      command, given):
    argv, what, n = _bad_byte_run(workdir, run_inputs, command, given)
    inputs = sorted(os.listdir(workdir))
    rc = main(argv)
    assert capsys.readouterr().err == (f"error: {what}: not UTF-8 (byte {n}: "
                                       "invalid start byte)\n")
    assert rc == 2
    assert sorted(os.listdir(workdir)) == inputs


@pytest.mark.parametrize("argv,message", [
    (["synth", "--min-dist", "nan"], "min_intergroup_dist_m must be finite and "
     "non-negative, got nan"),
    (["synth", "--jitter-m", "nan"], "jitter_m must be finite and non-negative, "
     "got nan"),
    (["synth", "--jitter-deg", "inf"], "jitter_deg must be finite and "
     "non-negative, got inf"),
    (["train", "s.jsonl", "--weight", "nan"], "multi_group_weight must be "
     "finite and at least 1, got nan"),
    (["train", "s.jsonl", "--weight", "inf"], "multi_group_weight must be "
     "finite and at least 1, got inf"),
])
def test_non_finite_config_flag_is_usage_error(workdir, capsys, argv, message):
    _write_scenes(workdir / "s.jsonl")
    rc = main([*argv, "-o", "out"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {message}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["train", "s.jsonl", "--seed", "-1"],
    ["synth", "--seed", "-5"],
])
def test_negative_seed_is_usage_error(workdir, capsys, argv):
    _write_scenes(workdir / "s.jsonl")
    rc = main([*argv, "-o", "out"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: seed must be non-negative, got {argv[-1]}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["tune", "eval"])
@pytest.mark.parametrize("tolerance", ["1/0", "-1/0", "nan", "inf"])
def test_tolerance_fraction_rejects_is_usage_error(workdir, capsys, command,
                                                   tolerance):
    if command == "tune":
        model = _train_tiny(workdir)
        argv = ["tune", str(model), "train.jsonl", "-o", "out"]
    else:
        _write_scenes(workdir / "s.jsonl")
        argv = ["eval", "--pred", "s.jsonl", "--gt", "s.jsonl", "-o", "out"]
    capsys.readouterr()
    rc = main([*argv, f"-T={tolerance}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: tolerance {tolerance!r} is not a number\n"
    assert not (workdir / "out").exists()


def _no_store(shapes, rng):
    raise MemoryError("Unable to allocate 19.6 TiB")


def test_train_model_too_large_for_memory_is_usage_error(workdir, capsys,
                                                         monkeypatch):
    # the store's allocation fails as numpy's would: 18*8+8 + 8*16+16 encoder
    # and 16*16+16 + 16*120+120 head parameters, none of them allocated
    scenes = _write_scenes(workdir / "s.jsonl")
    monkeypatch.setattr(network, "init_store", _no_store)
    rc = main(["train", str(scenes), "-o", "m.ckpt", "--split", "1", "0", "0",
               "--enc-widths", "8,16", "--hidden", "16"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: a model of 2608 parameters (--enc-widths 8,16, "
                   "--hidden 16) does not fit in memory\n")
    assert not (workdir / "m.ckpt").exists()


def test_train_model_past_the_address_space_is_usage_error(workdir, capsys):
    # no allocation is tried: the store's byte count alone rules it out
    scenes = _write_scenes(workdir / "s.jsonl")
    rc = main(["train", str(scenes), "-o", "m.ckpt", "--split", "1", "0", "0",
               "--enc-widths", str(10 ** 18), "--hidden", "16"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: a model of ")
    assert err.endswith(f" parameters (--enc-widths {10 ** 18}, --hidden 16) "
                        "does not fit in memory\n")
    assert not (workdir / "m.ckpt").exists()


def test_train_room_dim_is_an_unknown_flag(workdir, capsys):
    scenes = _write_scenes(workdir / "s.jsonl")
    rc = main(["train", str(scenes), "-o", "m.ckpt", "--room-dim", "4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unrecognized arguments: --room-dim 4" in err
    assert not (workdir / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "render"])
@pytest.mark.parametrize("stride", ["-1", "nan", "inf"])
def test_bad_stride_is_usage_error(workdir, capsys, command, stride):
    scenes = _write_scenes(workdir / "s.jsonl")
    rc = main([command, str(scenes), "-o", "out", "--stride", stride])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: --stride must be finite and non-negative, "
                   f"got {float(stride)}\n")
    assert "Traceback" not in err
    assert not (workdir / "out").exists()


def test_predict_non_finite_stride_is_usage_error(workdir, capsys):
    model = _train_tiny(workdir)
    capsys.readouterr()
    rc = main(["predict", str(model), "train.jsonl", "-o", "pred.jsonl",
               "--stride", "inf"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: stride_m must be finite non-negative, got inf\n"
    assert not (workdir / "pred.jsonl").exists()


CROWD = json.dumps({"frame_id": "crowd", "persons": [
    {"x": 0.2 * (i + 1), "y": 1.0, "yaw_deg": 0.0} for i in range(26)]}) + "\n"


def _model_argv(command, model, scenes):
    """``command`` run with ``model`` on ``scenes``, writing out (and maps)."""
    return {"train": ["train", str(scenes), "-o", "out"],
            "tune": ["tune", str(model), str(scenes), "-o", "out"],
            "predict": ["predict", str(model), str(scenes), "-o", "out"],
            "predict --heatmaps": ["predict", str(model), str(scenes), "-o", "out",
                                   "--heatmaps", "maps"]}[command]


@pytest.mark.parametrize("command", ["train", "tune", "predict",
                                     "predict --heatmaps"])
def test_over_cap_frame_names_file_and_line(workdir, capsys, command):
    model = _train_tiny(workdir)  # --max-people 25, the default
    crowded = _write_scenes(workdir / "crowded.jsonl", DYAD + CROWD)
    capsys.readouterr()
    rc = main(_model_argv(command, model, crowded))
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {crowded} line 2: 26 persons, cap is 25\n"
    assert "Traceback" not in err
    assert not (workdir / "out").exists()
    assert not (workdir / "maps").exists()


EMPTY = '{"frame_id": "empty", "persons": []}\n'


@pytest.mark.parametrize("command", ["train", "tune", "predict",
                                     "predict --heatmaps"])
def test_empty_frame_names_file_and_line(workdir, capsys, command):
    model = _train_tiny(workdir)
    scenes = _write_scenes(workdir / "empty.jsonl", DYAD + EMPTY)
    capsys.readouterr()
    rc = main(_model_argv(command, model, scenes))
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {scenes} line 2: 0 persons, a model needs at least 1\n"
    assert "Traceback" not in err
    assert not (workdir / "out").exists()
    assert not (workdir / "maps").exists()


def test_empty_frame_passes_ingest_eval_and_render(workdir, capsys):
    scenes = _write_scenes(workdir / "s.jsonl", DYAD + EMPTY)
    assert main(["ingest", str(scenes), "-o", "out.jsonl"]) == 0
    assert main(["render", str(scenes), "-o", "maps"]) == 0
    assert (workdir / "maps" / "empty.pgm").exists()
    pred = workdir / "pred.jsonl"
    pred.write_text('{"frame_id": "a", "groups": [[0, 1]]}\n'
                    '{"frame_id": "empty", "groups": []}\n')
    assert main(["eval", "--pred", str(pred), "--gt", "out.jsonl", "-T", "1"]) == 0
    assert "tp=1 fp=0 fn=0" in capsys.readouterr().out


# Output paths are checked before any work: one that cannot be written as
# asked fails the run with exit 1, naming its flag, and nothing is written.

# each command's output flags, each with a path in the run's directory
OUTPUTS = {
    "ingest": {"--output": "o.jsonl"},
    "synth": {"--output": "s.jsonl", "--centers": "c.jsonl"},
    "train": {"--output": "m.ckpt", "--trace": "t.csv"},
    "tune": {"--output": "best.json", "--table": "table.csv"},
    "predict": {"--output": "p.jsonl", "--heatmaps": "maps"},
    "eval": {"--output": "e.csv"},
    "render": {"--output": "maps"},
}
DIRECTORY_FLAGS = {("predict", "--heatmaps"), ("render", "--output")}
OUTPUT_FLAGS = [(c, f) for c, flags in OUTPUTS.items() for f in flags]


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    """A scene file, a checkpoint trained on it, and its predictions."""
    d = tmp_path_factory.mktemp("inputs")
    scenes, model, pred = (str(d / name) for name in ("s.jsonl", "m.ckpt", "p.jsonl"))
    assert main(["synth", "-o", scenes, "--seed", "1", "--scenes", "6",
                 "--groups", "1", "2", "--group-size", "2", "3"]) == 0
    assert main(["train", scenes, "-o", model, "--epochs", "1",
                 "--enc-widths", "8", "--hidden", "8"]) == 0
    assert main(["predict", model, scenes, "-o", pred]) == 0
    return {"ingest": ["ingest", scenes],
            "synth": ["synth", "--scenes", "2"],
            "train": ["train", scenes, "--epochs", "1", "--enc-widths", "8",
                      "--hidden", "8"],
            "tune": ["tune", model, scenes, "--thresholds", "0.5",
                     "--separations", "1.0", "--assign-dists", "1.0",
                     "--strides", "0.7"],
            "predict": ["predict", model, scenes, "--csv"],
            "eval": ["eval", "--pred", pred, "--gt", scenes],
            "render": ["render", scenes, "--csv"]}


def _with_outputs(argv, outputs):
    return [*argv, *(a for flag, path in outputs.items() for a in (flag, path))]


@pytest.mark.parametrize("command", OUTPUTS)
def test_each_command_declares_its_output_flags(workdir, capsys, run_inputs,
                                                command):
    argv = _with_outputs(run_inputs[command], OUTPUTS[command])
    args = build_parser().parse_args(argv)

    def flags(dests):
        return {"--" + dest.replace("_", "-") for dest in dests}

    files, dirs = flags(args.output_files), flags(args.output_dirs)
    assert files | dirs == set(OUTPUTS[command])
    assert dirs == {f for c, f in DIRECTORY_FLAGS if c == command}
    assert main(argv) == 0
    capsys.readouterr()
    assert sorted(os.listdir(workdir)) == sorted(set(OUTPUTS[command].values()))


def test_the_output_table_covers_every_command():
    assert set(OUTPUTS) == set(SUBCOMMANDS) and len(OUTPUT_FLAGS) == 11


@pytest.mark.parametrize("command,flag", OUTPUT_FLAGS,
                         ids=[f"{c} {f}" for c, f in OUTPUT_FLAGS])
def test_an_output_path_is_checked_before_any_work(workdir, capsys, run_inputs,
                                                   command, flag):
    outputs = dict(OUTPUTS[command])
    if (command, flag) in DIRECTORY_FLAGS:
        (workdir / "taken").write_text("a file\n")
        outputs[flag], reason = "taken", "taken is not a directory"
    else:
        outputs[flag], reason = "nodir/out", "no such directory nodir"
    rc = main(_with_outputs(run_inputs[command], outputs))
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {flag} {outputs[flag]}: {reason}\n"
    # no other output was written
    left = {"taken"} if (command, flag) in DIRECTORY_FLAGS else set()
    assert set(os.listdir(workdir)) == left


@pytest.mark.parametrize("argv,message", [
    (["ingest", "s.jsonl", "-o", "d"], "--output d: is a directory"),
    (["ingest", "s.jsonl", "-o", "f/x"], "--output f/x: f is not a directory"),
    (["render", "s.jsonl", "-o", "f/maps"],
     "--output f/maps: f is not a directory"),
    (["predict", "m.ckpt", "s.jsonl", "-o", "p.jsonl", "--heatmaps", "f/sub/maps"],
     "--heatmaps f/sub/maps: f is not a directory"),
    # a path error is named before a bad flag value and a missing input
    (["train", "s.jsonl", "-o", "nodir/m", "--seed", "-1"],
     "--output nodir/m: no such directory nodir"),
    (["ingest", "missing.jsonl", "-o", "nodir/a/b"],
     "--output nodir/a/b: no such directory nodir/a"),
])
def test_an_output_path_of_the_wrong_kind_is_named(workdir, capsys, argv,
                                                   message):
    _write_scenes(workdir / "s.jsonl")
    (workdir / "d").mkdir()
    (workdir / "f").write_text("a file\n")
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(workdir)) == ["d", "f", "s.jsonl"]


@pytest.mark.parametrize("command", ["train", "render"])
@pytest.mark.parametrize("sigma", ["1e308", "1e-300"])
def test_a_sigma_whose_square_is_not_a_normal_float_is_usage_error(
        workdir, capsys, command, sigma):
    _write_scenes(workdir / "s.jsonl")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "s.jsonl", "-o", "out", "--sigma", sigma])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: sigma must be positive, with 2 sigma^2 a normal "
                   f"float, got {float(sigma)}\n")
    assert [str(w.message) for w in caught] == []
    assert not (workdir / "out").exists()


def test_synth_centers_are_one_json_record_per_frame(workdir, capsys):
    assert main(["synth", "-o", "s.jsonl", "--seed", "4", "--scenes", "5",
                 "--jitter-m", "0.05", "--centers", "c.jsonl"]) == 0
    capsys.readouterr()
    scenes, centers = generate(SynthConfig(seed=4, n_scenes=5, jitter_m=0.05),
                               DEFAULT_SPEC)
    want = "".join(json.dumps({"frame_id": s.frame_id,
                               "centers": [[c.x, c.y] for c in cs]}) + "\n"
                   for s, cs in zip(scenes, centers))
    assert (workdir / "c.jsonl").read_bytes() == want.encode("utf-8")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("synth", "ingest", "train", "tune", "predict", "eval", "render")


README = PYPROJECT.parent / "README.md"


def _readme_command_lines():
    """Each `ospace` line of README's "Command line" sh block, as argv."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ospace ")]


def test_readme_command_lines_parse(capsys):
    commands = _readme_command_lines()
    assert {argv[0] for argv in commands} >= set(SUBCOMMANDS)
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: ospace {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")


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
