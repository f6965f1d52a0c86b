"""Contract fuzzers: a mutated scene record through ``ingest`` and ``eval``,
and a mutated room through ``train`` and ``predict``.

The first breaks one valid record and feeds it, in process, to ``ingest``,
to ``eval --gt`` against a valid prediction and to ``eval --pred`` against a
valid scene.  Whatever the mutation, each command either works (exit 0) or
fails as a data error (exit 2) whose message names the file and the line
(a frame_id that no longer pairs names the prediction's line, and a line cut
to nothing, which leaves no record, names the frame left without a pair).

The second breaks a ``--room-file`` or a ``--layout`` and runs it through
``train --epochs 0`` and then ``predict``, with a checkpoint trained on the
unbroken room.  Each run works or exits 2 naming the room's file, and a room
that ``train`` takes, ``predict`` takes with the checkpoint it wrote.

The third breaks a ``--params`` file and runs it through ``predict``, which
works or exits 2 naming the file.

The last two break a checkpoint and run it through ``predict`` and ``tune``.
Every header field is dropped or given each wrong JSON type in turn; the
magic line, ``blob_bytes`` and the blob (a byte flipped, cut short, a byte
appended) are fuzzed.  No such file loads: each run exits 2 with a message
that starts with ``checkpoint``.
"""
import copy
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ospace.cli import main

RECORD = {"frame_id": "a",
          "persons": [{"x": 1.0, "y": 1.0, "yaw_deg": 0.0},
                      {"x": 2.4, "y": 1.0, "yaw_deg": 180.0}],
          "groups": [[0, 1]]}
KEYS = [("frame_id",), ("persons",), ("groups",), ("persons", 0, "x"),
        ("persons", 1, "y"), ("persons", 1, "yaw_deg")]
# every value a JSON field can hold, plus the indices and numbers that break
# a record: wrong types, NaN, inf, huge, negative, boolean and repeated
VALUES = [None, True, False, "b", [], {}, [[]], [[0, 0]], [[0], [0]], 0, 1, 7,
          -1, 0.5, math.nan, math.inf, -math.inf, 10 ** 400, 1e300]
PLACES = KEYS + [("persons", 0), ("groups", 0), ("groups", 0, 1)]


def _parent(record, path):
    for step in path[:-1]:
        record = record[step]
    return record


@st.composite
def mutated_lines(draw) -> bytes:
    """One JSON-Lines record with one field dropped or replaced, then
    optionally a non-UTF-8 byte inserted or the line cut short."""
    record = copy.deepcopy(RECORD)
    if draw(st.booleans()):
        path = draw(st.sampled_from(KEYS))
        del _parent(record, path)[path[-1]]
    else:
        path = draw(st.sampled_from(PLACES))
        _parent(record, path)[path[-1]] = draw(st.sampled_from(VALUES))
    line = json.dumps(record).encode()
    cut = draw(st.sampled_from(["none", "non-UTF-8", "truncate"]))
    if cut == "non-UTF-8":
        i = draw(st.integers(0, len(line)))
        line = line[:i] + b"\xff" + line[i:]
    elif cut == "truncate":
        line = line[:draw(st.integers(0, len(line) - 1))]
    return line


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=mutated_lines())
def test_mutated_scene_record_works_or_names_its_file_and_line(tmp_path, capsys,
                                                             monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_bytes(line + b"\n")
    (tmp_path / "pred.jsonl").write_text('{"frame_id": "a", "groups": [[0, 1]]}\n')
    (tmp_path / "gt.jsonl").write_text(json.dumps(RECORD) + "\n")
    for argv in (["ingest", "bad.jsonl", "-o", "out.jsonl"],
                 ["eval", "--pred", "pred.jsonl", "--gt", "bad.jsonl"],
                 ["eval", "--pred", "bad.jsonl", "--gt", "gt.jsonl"]):
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 2), (argv, err)
        assert "Traceback" not in err
        if rc == 2:
            place = " line 1" if line else "frame 1"
            assert "bad.jsonl" in err and place in err, (argv, err)


ROOM_FILE = [b"dim 3", b"0.5", b"-1.0", b"2.0"]
HEADERS = [b"", b"dim", b"dim x", b"dim -1", b"dim 0", b"dim 2", b"dim 4",
           b"dim 3.0", b"dim 1e999", b"DIM 3", b"3", b"dim 3 3"]
FLOATS = [b"nan", b"-inf", b"1e999", b"abc", b"0x10", b"1,5", b"", b"1e-400",
          b"\xff", b"--1"]
LAYOUT = {"spec": {"rows": 10, "cols": 12, "cell_m": 0.5}, "cells": ["free"] * 120}
LAYOUT_KEYS = [("spec",), ("cells",), ("spec", "rows"), ("spec", "cols"),
               ("spec", "cell_m")]
LAYOUT_PLACES = LAYOUT_KEYS + [("cells", 0), ("cells", 119)]
LAYOUT_VALUES = VALUES + ["sofa", "wall", "Free", 6, 24, 0.25, ["free"] * 119,
                          ["free"] * 60, ["table"] * 120, [None] * 120]


@st.composite
def mutated_room_files(draw) -> bytes:
    """A 3-value room file with its header, a value or its width changed,
    or with a non-UTF-8 byte inserted or the file cut short."""
    lines = list(ROOM_FILE)
    kind = draw(st.sampled_from(["header", "value", "count", "non-UTF-8",
                                 "truncate"]))
    if kind == "header":
        lines[0] = draw(st.sampled_from(HEADERS))
    elif kind == "value":
        lines[draw(st.integers(1, 3))] = draw(st.sampled_from(FLOATS))
    elif kind == "count":  # a well-formed room of another width, or none
        n = draw(st.integers(0, 6))
        lines = [b"dim %d" % n] + [b"1.5"] * n
    text = b"\n".join(lines) + b"\n"
    if kind == "non-UTF-8":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + b"\xff" + text[i:]
    elif kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def mutated_layouts(draw) -> bytes:
    """The default-grid layout with one field dropped or replaced, or moved
    whole onto another grid."""
    layout = copy.deepcopy(LAYOUT)
    kind = draw(st.sampled_from(["drop", "replace", "regrid"]))
    if kind == "drop":
        path = draw(st.sampled_from(LAYOUT_KEYS))
        del _parent(layout, path)[path[-1]]
    elif kind == "replace":
        path = draw(st.sampled_from(LAYOUT_PLACES))
        _parent(layout, path)[path[-1]] = draw(st.sampled_from(LAYOUT_VALUES))
    else:
        layout["spec"] = {"rows": 5, "cols": 24}
    return json.dumps(layout).encode()


def _train_argv(out, flag, path):
    return ["train", "s.jsonl", "-o", out, "--epochs", "0", "--split", "1", "0",
            "0", "--enc-widths", "4", "--hidden", "4", flag, path]


@pytest.fixture(scope="module")
def room_checkpoints(tmp_path_factory):
    """Checkpoints trained on the unbroken room file and layout."""
    root = tmp_path_factory.mktemp("rooms")
    (root / "s.jsonl").write_text(json.dumps(RECORD) + "\n")
    (root / "good.feat").write_bytes(b"\n".join(ROOM_FILE) + b"\n")
    (root / "good.json").write_text(json.dumps(LAYOUT))
    models = {}
    for flag, path in (("--room-file", "good.feat"), ("--layout", "good.json")):
        models[flag] = root / f"{flag[2:]}.ckpt"
        argv = _train_argv(str(models[flag]), flag, str(root / path))
        argv[1] = str(root / "s.jsonl")
        assert main(argv) == 0
    return models


def _run(capsys, argv, name) -> int:
    """Exit code of ``argv``, which works or exits 2 naming the file ``name``."""
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err
    if rc == 2:
        assert name in err, (argv, err)
    return rc


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(room=st.one_of(st.tuples(st.just("--room-file"), mutated_room_files()),
                      st.tuples(st.just("--layout"), mutated_layouts())))
def test_mutated_room_works_or_names_its_file(tmp_path, capsys, monkeypatch,
                                              room_checkpoints, room):
    flag, text = room
    name = {"--room-file": "bad.feat", "--layout": "bad.json"}[flag]
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(text)
    (tmp_path / "s.jsonl").write_text(json.dumps(RECORD) + "\n")
    (tmp_path / "m.ckpt").unlink(missing_ok=True)

    def predict(model):
        return ["predict", str(model), "s.jsonl", "-o", "pred.jsonl", flag, name]

    trained = _run(capsys, _train_argv("m.ckpt", flag, name), name) == 0
    _run(capsys, predict(room_checkpoints[flag]), name)
    if trained:  # a room train takes, predict takes with that checkpoint
        assert _run(capsys, predict("m.ckpt"), name) == 0


PARAMS = {"nms_threshold": 0.5, "min_group_separation_m": 1.0,
          "max_assign_dist_m": 0.8, "stride_m": 0.7}
PARAMS_VALUES = VALUES + [-0.5, 1.5, 1e-300, 1e308, 10 ** 20]


@st.composite
def mutated_params(draw) -> bytes:
    """The params file with one field dropped or replaced, or as a top-level
    list, then optionally with a non-UTF-8 byte inserted or cut short."""
    params = dict(PARAMS)
    kind = draw(st.sampled_from(["drop", "replace", "list"]))
    if kind == "drop":
        del params[draw(st.sampled_from(sorted(PARAMS)))]
    elif kind == "replace":
        params[draw(st.sampled_from(sorted(PARAMS)))] = draw(
            st.sampled_from(PARAMS_VALUES))
    else:
        params = list(params.values())
    text = json.dumps(params).encode()
    cut = draw(st.sampled_from(["none", "non-UTF-8", "truncate"]))
    if cut == "non-UTF-8":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + b"\xff" + text[i:]
    elif cut == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@pytest.fixture(scope="module")
def plain_checkpoint(tmp_path_factory):
    """A checkpoint trained with no room."""
    root = tmp_path_factory.mktemp("params")
    (root / "s.jsonl").write_text(json.dumps(RECORD) + "\n")
    model = root / "m.ckpt"
    assert main(["train", str(root / "s.jsonl"), "-o", str(model), "--epochs",
                 "0", "--split", "1", "0", "0", "--enc-widths", "4",
                 "--hidden", "4"]) == 0
    return model


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_params())
def test_mutated_params_work_or_name_their_file(tmp_path, capsys, monkeypatch,
                                                plain_checkpoint, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(text)
    (tmp_path / "s.jsonl").write_text(json.dumps(RECORD) + "\n")
    _run(capsys, ["predict", str(plain_checkpoint), "s.jsonl", "-o",
                  "pred.jsonl", "--params", "bad.json"], "bad.json")


CHECKPOINT = "m.bin"  # so that "checkpoint" in a message is not the file name
TUNE_GRID = ["--thresholds", "0.5", "--separations", "1", "--assign-dists", "1",
             "--strides", "0.7"]
# every field of a checkpoint's header, checked against a saved one below
HEADER_FIELDS = ["version", "spec", "spec.rows", "spec.cols", "spec.cell_m",
                 "stride_m", "seed", "norm_stats", "norm_stats.mean_x",
                 "norm_stats.mean_y", "norm_stats.std_x", "norm_stats.std_y",
                 "encoder", "encoder.config", "encoder.config.input_dim",
                 "encoder.config.max_people", "encoder.config.layer_widths",
                 "head", "head.config", "head.config.input_dim",
                 "head.config.hidden_widths", "head.config.output_dim",
                 "blob_bytes", "sha256"]
# a value of every JSON type; a field is given each one not of its own type
WRONG_TYPES = [None, True, "b", 7, 0.5, [], {}]
MAGIC_LINES = [b"", b"ospace-checkpoint-1", b"ospace-checkpoint-3",
               b"OSPACE-CHECKPOINT-2", b"ospace-checkpoint-2 ",
               b" ospace-checkpoint-2", b"ospace-checkpoint-2\r",
               b"ospace-checkpoint", b"ospace-checkpoint-2\xff", b"{}"]


def _json_kind(value) -> str:
    """The JSON type of a header value: integers count as numbers (a float
    field takes them), booleans do not."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def _fields(obj, where=""):
    """The dotted path of every field of a checkpoint header, outer first."""
    for key, value in obj.items():
        path = f"{where}.{key}" if where else key
        yield path
        if isinstance(value, dict):
            yield from _fields(value, path)


def _split_checkpoint(data: bytes):
    magic, header, blob = data.split(b"\n", 2)
    return magic, json.loads(header), blob


def _join_checkpoint(magic: bytes, header, blob: bytes) -> bytes:
    return magic + b"\n" + json.dumps(header).encode() + b"\n" + blob


@pytest.fixture(scope="module")
def checkpoint_bytes(plain_checkpoint):
    """The plain checkpoint's bytes, which ``predict`` and ``tune`` take."""
    root = plain_checkpoint.parent
    for argv in (["predict", str(plain_checkpoint), str(root / "s.jsonl"), "-o",
                  str(root / "pred.jsonl")],
                 ["tune", str(plain_checkpoint), str(root / "s.jsonl"),
                  *TUNE_GRID]):
        assert main(argv) == 0
    data = plain_checkpoint.read_bytes()
    assert list(_fields(_split_checkpoint(data)[1])) == HEADER_FIELDS
    return data


def _fails_to_load(capsys, root, data: bytes, reason: str) -> None:
    """``predict`` and ``tune`` of the checkpoint ``data`` both exit 2 with a
    message that starts with "checkpoint" and holds ``reason``."""
    (root / CHECKPOINT).write_bytes(data)
    (root / "s.jsonl").write_text(json.dumps(RECORD) + "\n")
    for argv in (["predict", CHECKPOINT, "s.jsonl", "-o", "pred.jsonl"],
                 ["tune", CHECKPOINT, "s.jsonl", *TUNE_GRID]):
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, (argv, err)
        assert err.startswith("error: checkpoint") and reason in err, (argv, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("field", HEADER_FIELDS)
def test_checkpoint_header_field_dropped_or_mistyped_exits_2(
        tmp_path, capsys, monkeypatch, checkpoint_bytes, field):
    monkeypatch.chdir(tmp_path)
    magic, header, blob = _split_checkpoint(checkpoint_bytes)
    path = field.split(".")
    kind = _json_kind(_parent(header, path)[path[-1]])
    bad = copy.deepcopy(header)
    del _parent(bad, path)[path[-1]]
    _fails_to_load(capsys, tmp_path, _join_checkpoint(magic, bad, blob),
                   f"checkpoint {field}: missing")
    for value in WRONG_TYPES:
        if _json_kind(value) != kind:
            bad = copy.deepcopy(header)
            _parent(bad, path)[path[-1]] = value
            _fails_to_load(capsys, tmp_path, _join_checkpoint(magic, bad, blob),
                           f"checkpoint {field}: expected")


def _mutated_checkpoint(data, checkpoint: bytes) -> tuple[bytes, str]:
    """``checkpoint`` with its magic line, ``blob_bytes`` or blob broken, and
    the words the error must hold."""
    magic, header, blob = _split_checkpoint(checkpoint)
    kind = data.draw(st.sampled_from(["magic", "blob_bytes", "flip", "cut",
                                      "append"]))
    if kind == "magic":
        if data.draw(st.booleans()):
            magic = data.draw(st.sampled_from(MAGIC_LINES))
        else:
            i = data.draw(st.integers(0, len(magic) - 1))
            magic = (magic[:i] + bytes([magic[i] ^ data.draw(st.integers(1, 255))])
                     + magic[i + 1:])
        return _join_checkpoint(magic, header, blob), "the first line"
    if kind == "blob_bytes":
        need = header["blob_bytes"]
        header["blob_bytes"] = data.draw(st.one_of(
            st.sampled_from([0, -1, need - 1, need + 1, need - 8, need + 8,
                             2 * need, 10 ** 30]),
            st.integers(-2 ** 70, 2 ** 70)).filter(lambda v: v != need))
        return _join_checkpoint(magic, header, blob), "the configs need"
    if kind == "flip":
        i = data.draw(st.integers(0, len(blob) - 1))
        blob = (blob[:i] + bytes([blob[i] ^ data.draw(st.integers(1, 255))])
                + blob[i + 1:])
        return _join_checkpoint(magic, header, blob), "sha256 mismatch"
    if kind == "cut":
        blob = blob[:-data.draw(st.integers(1, len(blob)))]
        return _join_checkpoint(magic, header, blob), "truncated"
    blob += bytes([data.draw(st.integers(0, 255))])
    return _join_checkpoint(magic, header, blob), "trailing bytes"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoint_exits_2_naming_the_checkpoint(
        tmp_path, capsys, monkeypatch, checkpoint_bytes, data):
    monkeypatch.chdir(tmp_path)
    bad, reason = _mutated_checkpoint(data, checkpoint_bytes)
    _fails_to_load(capsys, tmp_path, bad, reason)


# flag values that break a number or a list: NaN, the infinities, negatives,
# zero, huge values, a fraction over zero and empty lists
FLAG_VALUES = ["nan", "inf", "-inf", "-1", "-0.5", "0", "0.5", "1", "1e308",
               "1e400", str(10 ** 30), "1/0", "", ","]
FLAGS = {"predict": ["--threshold", "--separation", "--assign-dist", "--stride"],
         "tune": ["-T", "--thresholds", "--separations", "--assign-dists",
                  "--strides"],
         "eval": ["-T"],
         "synth": ["--cell", "--radius", "--min-dist", "--jitter-m", "--jitter-deg"]}
GRID_AXES = {"--thresholds", "--separations", "--assign-dists", "--strides"}


@st.composite
def flag_runs(draw) -> tuple[str, list[str]]:
    """``predict``, ``tune``, ``eval`` or ``synth`` and one or two of its
    flags, each given a drawn value; a grid axis takes a list of up to
    three."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = []
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), min_size=1,
                              max_size=2)):
        if flag in GRID_AXES:
            value = ",".join(draw(st.lists(st.sampled_from(FLAG_VALUES),
                                           max_size=3)))
        else:
            value = draw(st.sampled_from(FLAG_VALUES))
        flags.append(f"{flag}={value}")
    return command, flags


@settings(max_examples=160, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=flag_runs())
@example(run=("tune", ["-T=1/0"]))
@example(run=("eval", ["-T=1/0"]))
@example(run=("synth", ["--cell=1e200"]))
@example(run=("synth", ["--cell=1e308"]))
@example(run=("synth", ["--jitter-deg=1e308"]))
def test_flag_values_exit_with_a_documented_code(tmp_path, capsys, monkeypatch,
                                                 plain_checkpoint, run):
    command, flags = run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.jsonl").write_text(json.dumps(RECORD) + "\n")
    argv = {"predict": ["predict", str(plain_checkpoint), "s.jsonl", "-o",
                        "out.jsonl"],
            "tune": ["tune", str(plain_checkpoint), "s.jsonl", "-o", "out.json",
                     *TUNE_GRID],
            "eval": ["eval", "--pred", "s.jsonl", "--gt", "s.jsonl", "-o",
                     "out.csv"],
            "synth": ["synth", "-o", "out.jsonl", "--scenes", "2"]}[command]
    capsys.readouterr()
    rc = main(argv + flags)  # an uncaught exception fails the test here
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3), (flags, err)
    assert "Traceback" not in err
    if rc:  # argparse puts its usage line before the error
        assert "error: " in err, (flags, err)
