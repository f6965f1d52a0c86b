"""Contract fuzzer: a mutated scene record through ``ingest`` and ``eval``.

Each example breaks one valid record and feeds it, in process, to ``ingest``,
to ``eval --gt`` against a valid prediction and to ``eval --pred`` against a
valid scene.  Whatever the mutation, each command either works (exit 0) or
fails as a data error (exit 2) whose message names the file and the line
(a frame_id that no longer pairs names the prediction's line).
"""
import copy
import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st

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
        # a line cut to nothing is a deleted record, not a truncated one
        line = line[:draw(st.integers(1, len(line) - 1))]
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
            assert "bad.jsonl" in err and " line 1" in err, (argv, err)
