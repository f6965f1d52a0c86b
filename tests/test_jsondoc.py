"""The config codec: a dataclass's JSON form is its fields in declaration
order, it reads back to an equal config, and a mistyped or missing field is a
ValueError that names the document and the field.  And the one text writer,
``write_lines``, and the one text reader: ``read_lines`` opens, ``decode``
is the UTF-8 rule."""
import json
import math
import os
import stat
import threading
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from ospace.core import RoomSpec
from ospace.dataset import NormStats
from ospace.encoder import EncoderConfig
from ospace.jsondoc import (decode, from_obj, get_int_arrays, load, read_lines,
                            read_text, to_obj, write_lines)
from ospace.network import HeadConfig
from ospace.postprocess import AssignParams

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
SIZE = st.integers(1, 2**70)
WIDTHS = st.lists(st.integers(1, 2**40), max_size=4).map(tuple)

# a grid whose room size overflows a float is no RoomSpec
SPECS = st.tuples(SIZE, SIZE, POSITIVE).filter(
    lambda t: math.isfinite(max(t[0], t[1]) * t[2])).map(lambda t: RoomSpec(*t))

CONFIGS = st.one_of(
    SPECS,
    st.builds(NormStats, FINITE, FINITE, POSITIVE, POSITIVE),
    st.builds(EncoderConfig, input_dim=SIZE, max_people=SIZE,
              layer_widths=WIDTHS.filter(bool)),
    st.builds(HeadConfig, input_dim=SIZE, hidden_widths=WIDTHS, output_dim=SIZE),
    st.builds(AssignParams, nms_threshold=st.floats(0.0, 1.0),
              min_group_separation_m=NON_NEGATIVE,
              max_assign_dist_m=NON_NEGATIVE, stride_m=NON_NEGATIVE),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CONFIGS)
def test_json_round_trip(config):
    text = json.dumps(to_obj(config))
    back = from_obj(type(config), json.loads(text), "cfg", "doc")
    assert back == config
    assert json.dumps(to_obj(back)) == text
    assert list(json.loads(text)) == [f.name for f in fields(config)]


DEFAULTS = [RoomSpec(), NormStats(0.0, 0.0, 1.0, 1.0), EncoderConfig(),
            HeadConfig(), AssignParams()]
# A value of the wrong JSON type for each annotation, and the error it gives.
WRONG = {
    "int": [(True, "expected integer, got boolean"),
            (2.0, "expected integer, got number")],
    "float": [(True, "expected number or integer, got boolean"),
              ("0.5", "expected number or integer, got string")],
    "tuple[int, ...]": [(True, "expected array, got boolean"),
                        ([2.0], "expected an array of integers"),
                        ([True], "expected an array of integers")],
}
CASES = [(config, f.name, value, message)
         for config in DEFAULTS for f in fields(config)
         for value, message in WRONG[f.type] + [(None, "missing")]]


@pytest.mark.parametrize(
    "config,key,value,message", CASES,
    ids=[f"{type(c).__name__}.{k}={v!r}" for c, k, v, _ in CASES])
def test_wrong_or_missing_field_names_it(config, key, value, message):
    obj = json.loads(json.dumps(to_obj(config)))
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ValueError) as e:
        from_obj(type(config), obj, "cfg", "doc")
    assert str(e.value) == f"doc cfg.{key}: {message}"


KINDS = {"int": "integer", "float": "number or integer", "tuple[int, ...]": "array"}
FIELDS = [(config, f.name, f.type) for config in DEFAULTS for f in fields(config)]


@pytest.mark.parametrize("config,key,annotation", FIELDS,
                         ids=[f"{type(c).__name__}.{k}" for c, k, _ in FIELDS])
def test_a_null_field_is_named_as_null(config, key, annotation):
    """A null is a present field of the wrong type, not a missing one."""
    obj = json.loads(json.dumps(to_obj(config)))
    obj[key] = None
    with pytest.raises(ValueError) as e:
        from_obj(type(config), obj, "cfg", "doc")
    assert str(e.value) == f"doc cfg.{key}: expected {KINDS[annotation]}, got null"


def test_config_errors_name_the_document():
    with pytest.raises(ValueError) as e:
        from_obj(RoomSpec, {"rows": 0, "cols": 12, "cell_m": 0.5}, "spec", "doc")
    assert str(e.value) == "doc spec: grid must be at least 1x1, got 0x12"
    with pytest.raises(ValueError) as e:
        from_obj(AssignParams, [0.5, 1.0, 0.8, 0.7], "", "doc")
    assert str(e.value) == "doc: expected a JSON object, got array"


def test_int_arrays_name_the_element():
    assert get_int_arrays({"g": [[0, 1], []]}, "", "g", "doc") == ((0, 1), ())
    for value, message in [(5, "r.g: expected array, got integer"),
                           ([[0], 1], "r.g.1: expected array, got integer"),
                           ([[0], [True]], "r.g.1: expected an array of integers")]:
        with pytest.raises(ValueError) as e:
            get_int_arrays({"g": value}, "r", "g", "doc")
        assert str(e.value) == f"doc {message}"


# ``write_lines``: each line newline-terminated, in UTF-8, streamed.

def test_write_lines_ends_each_line_in_utf8(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, ["a,b", "", "caf\u00e9 \u2192 1"])
    assert path.read_bytes() == "a,b\n\ncaf\u00e9 \u2192 1\n".encode("utf-8")


def test_write_lines_of_nothing_is_an_empty_file(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, iter(()))
    assert path.read_bytes() == b""


def test_write_lines_truncates_an_existing_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a longer file than the next one\n" * 3)
    write_lines(path, ["x"])
    assert path.read_bytes() == b"x\n"


def test_write_lines_consumes_a_generator_lazily(tmp_path):
    path = tmp_path / "out.txt"
    seen = []

    def lines(n):
        for k in range(n):
            # the new file is open beside the path before each line, and the
            # path itself appears only once the last line is written
            seen.append((path.exists(), len(os.listdir(tmp_path))))
            yield f"line {k}"

    write_lines(path, lines(3))
    assert seen == [(False, 1)] * 3
    assert path.read_text() == "line 0\nline 1\nline 2\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    # and holds no more than a line at a time: 100,000 lines of about 60
    # bytes each, held at once, would take over 6 MB
    tracemalloc.start()
    try:
        write_lines(path, (f"{k:>50}" for k in range(100_000)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert path.stat().st_size == 100_000 * 51


def _fails_after(n):
    for k in range(n):
        yield f"line {k}"
    raise RuntimeError("no more lines")


@pytest.mark.parametrize("n", [0, 2, 5000])
def test_a_failed_write_leaves_the_old_file_and_no_stray_file(tmp_path, n):
    path = tmp_path / "out.txt"
    path.write_bytes(b"the old bytes\n")
    with pytest.raises(RuntimeError, match="^no more lines$"):
        write_lines(path, _fails_after(n))
    assert path.read_bytes() == b"the old bytes\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    # and a file that did not exist still does not
    with pytest.raises(RuntimeError):
        write_lines(tmp_path / "new.txt", _fails_after(n))
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_line_that_is_no_string_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(TypeError):
        write_lines(path, ["new", 3])
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_lines_replaces_a_file_with_a_new_one(tmp_path):
    """The old inode is left as it was, so a hard link to it keeps the old
    bytes, and the new file's mode is 0666 less the umask."""
    path, link = tmp_path / "out.txt", tmp_path / "link.txt"
    path.write_bytes(b"old\n")
    os.chmod(path, 0o600)
    os.link(path, link)
    old_umask = os.umask(0o027)
    try:
        write_lines(path, ["new"])
    finally:
        os.umask(old_umask)
    assert path.read_bytes() == b"new\n" and link.read_bytes() == b"old\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_write_lines_through_a_symlink_replaces_its_target(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_bytes(b"old\n")
    link.symlink_to(target.name)
    write_lines(link, ["new"])
    assert link.is_symlink() and os.readlink(link) == "target.txt"
    assert target.read_bytes() == b"new\n"
    # a dangling link gets its target created, as opening it would
    target.unlink()
    write_lines(link, ["again"])
    assert link.is_symlink() and target.read_bytes() == b"again\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


def test_write_lines_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    write_lines(fifo, ["a", "b"])
    reader.join(timeout=30)
    assert got == [b"a\nb\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_write_lines_writes_dev_null_in_place():
    write_lines(os.devnull, ["a", "b"])
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_a_write_that_cannot_start_names_the_destination(tmp_path):
    path = tmp_path / "no_such_dir" / "out.txt"
    with pytest.raises(FileNotFoundError) as e:
        write_lines(path, ["x"])
    assert e.value.filename == path


# The input side: ``read_lines`` yields a file's lines as bytes, streamed, and
# ``decode`` is the one UTF-8 rule, counting a bad byte from 1.

@pytest.mark.parametrize("raw,message", [
    (b"\xff", "byte 1: invalid start byte"),
    (b"ab\xffc", "byte 3: invalid start byte"),
    (b"caf\xc3", "byte 4: unexpected end of data"),
    (b"\xc3(", "byte 1: invalid continuation byte"),
])
def test_decode_names_the_document_and_the_bad_byte(raw, message):
    with pytest.raises(ValueError) as e:
        decode(raw, "doc")
    assert str(e.value) == f"doc: not UTF-8 ({message})"
    assert decode("caf\u00e9".encode(), "doc") == "caf\u00e9"


def test_read_lines_yields_the_bytes_as_they_are(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"a\r\nb\n\n\xffc")
    assert list(read_lines(path)) == [b"a\r\n", b"b\n", b"\n", b"\xffc"]
    lines = read_lines(tmp_path / "missing.txt")  # opened at the first line
    with pytest.raises(FileNotFoundError):
        next(lines)


def test_read_lines_holds_a_line_at_a_time(tmp_path):
    path = tmp_path / "in.txt"
    write_lines(path, (f"{k:>50}" for k in range(100_000)))
    tracemalloc.start()
    try:
        count = sum(1 for _ in read_lines(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 100_000
    assert peak < 1_000_000  # the file is 5.1 MB


def test_read_text_counts_a_bad_byte_from_the_start_of_the_file(tmp_path):
    path = tmp_path / "in.txt"
    write_lines(path, ["dim 2", "1.0", "caf\u00e9"])
    assert read_text(path, "doc") == "dim 2\n1.0\ncaf\u00e9\n"
    path.write_bytes(b"dim 2\n1.0\n\xff\n")
    with pytest.raises(ValueError, match=r"^doc: not UTF-8 \(byte 11: "):
        read_text(path, "doc")


def test_load_reads_line_endings_as_they_are(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{\r\n"a": 1}\r\n')
    assert load(path, "doc") == {"a": 1}
    # a fault's line and column are the same with CRLF and LF endings; its
    # char offset counts the CR
    path.write_bytes(b'{\r\n"a": }')
    with pytest.raises(ValueError) as e:
        load(path, "doc")
    assert str(e.value) == ("doc: not JSON (Expecting value: line 2 column 6 "
                            "(char 8))")
