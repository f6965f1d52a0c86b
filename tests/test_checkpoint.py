"""Checkpoints: round trips are bit-exact and byte-deterministic, and corrupt
files, version 1 files among them, are data errors (exit 2)."""
import errno
import hashlib
import json
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ospace import checkpoint
from ospace.checkpoint import ModelWeights, load_model, save_model
from ospace.cli import main
from ospace.core import RoomSpec
from ospace.dataset import NormStats
from ospace.encoder import EncoderConfig, EncoderWeights, init_encoder
from ospace.layers import Dense
from ospace.head import HeadConfig, HeadWeights, init_head

ENC_CFG = EncoderConfig(input_dim=18, max_people=25, layer_widths=(8, 16))
HEAD_CFG = HeadConfig(input_dim=20, hidden_widths=(16,), output_dim=120)
SCENES = ('{"frame_id": "a", "persons": [{"x": 1.0, "y": 1.0, "yaw_deg": 0.0}, '
          '{"x": 2.4, "y": 1.0, "yaw_deg": 180.0}], "groups": [[0, 1]]}\n')


def _model(seed=0) -> ModelWeights:
    rng = np.random.default_rng(seed)
    return ModelWeights(init_encoder(ENC_CFG, rng), init_head(HEAD_CFG, rng),
                        NormStats(3.1, -0.25, 1.5, 2.0), stride_m=0.7, seed=seed)


def _layers(model):
    return model.encoder.layers + model.head.layers


def _assert_same_model(got, want):
    assert got.spec == want.spec
    assert got.encoder.config == want.encoder.config
    assert got.head.config == want.head.config
    for name in ("mean_x", "mean_y", "std_x", "std_y"):
        assert float(getattr(got.norm_stats, name)).hex() == \
            float(getattr(want.norm_stats, name)).hex()
    assert float(got.stride_m).hex() == float(want.stride_m).hex()
    assert got.seed == want.seed
    assert len(_layers(got)) == len(_layers(want))
    for g, w in zip(_layers(got), _layers(want)):
        assert g.W.shape == w.W.shape and g.b.shape == w.b.shape
        assert g.W.tobytes() == w.W.tobytes()
        assert g.b.tobytes() == w.b.tobytes()


def _split(data: bytes):
    magic, header, blob = data.split(b"\n", 2)
    return magic, json.loads(header), blob


def _join(magic: bytes, header, blob: bytes) -> bytes:
    return magic + b"\n" + json.dumps(header).encode() + b"\n" + blob


def test_v2_layout_is_magic_header_and_flat_blob(tmp_path):
    model = _model()
    save_model(model, tmp_path / "m.ckpt")
    magic, header, blob = _split((tmp_path / "m.ckpt").read_bytes())
    assert magic == b"ospace-checkpoint-2"
    assert set(header) == {"version", "spec", "stride_m", "seed", "norm_stats",
                           "encoder", "head", "blob_bytes", "sha256"}
    flat = np.concatenate([a.ravel() for l in _layers(model) for a in (l.W, l.b)])
    assert blob == flat.astype("<f8").tobytes()
    assert header["blob_bytes"] == len(blob)
    back = load_model(tmp_path / "m.ckpt")
    _assert_same_model(back, model)
    assert all(l.W.flags.writeable and l.b.flags.writeable for l in _layers(back))


def test_load_retains_the_blob_and_nothing_of_its_size_more(tmp_path):
    # about 1.1 MB of weights, so that a second buffer of their size (zeroed
    # gradients, or a copy of the blob) is far outside the 1% slack
    rng = np.random.default_rng(0)
    enc_cfg = EncoderConfig(input_dim=18, max_people=25,
                            layer_widths=(64, 128, 256))
    head_cfg = HeadConfig(input_dim=260, hidden_widths=(256,), output_dim=120)
    save_model(ModelWeights(init_encoder(enc_cfg, rng), init_head(head_cfg, rng),
                            NormStats(3.1, -0.25, 1.5, 2.0)), tmp_path / "m.ckpt")
    blob_bytes = _split((tmp_path / "m.ckpt").read_bytes())[1]["blob_bytes"]
    load_model(tmp_path / "m.ckpt")  # one-time costs (imports, caches) first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = load_model(tmp_path / "m.ckpt")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert blob_bytes <= retained <= 1.01 * blob_bytes
    assert not any(hasattr(l, "grad_W") or hasattr(l, "grad_b")
                   for l in _layers(back))


def _flip_blob_byte(data):
    i = len(data) - 100
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


def _rehash(data):
    """The file with its header's sha256 set to match its blob."""
    magic, header, blob = _split(data)
    header["sha256"] = hashlib.sha256(blob).hexdigest()
    return _join(magic, header, blob)


def _header_edit(edit):
    def corrupt(data):
        magic, header, blob = _split(data)
        return _join(magic, edit(header), blob)
    return corrupt


def _set(path, value):
    def edit(header):
        obj = header
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return header
    return edit


CORRUPTIONS = {
    "truncated blob": (lambda d: d[:-8], "truncated"),
    "empty blob": (lambda d: d[:d.index(b"}\n") + 2], "truncated"),
    "flipped blob byte": (_flip_blob_byte, "sha256 mismatch"),
    "trailing bytes": (lambda d: d + b"\0", "trailing bytes"),
    "bad header line": (lambda d: d.replace(b'{"version"', b'{version', 1),
                        "checkpoint header: not a line of JSON"),
    "header nested too deep": (
        lambda d: d[:d.index(b"\n") + 1] + b"[" * 100_000 + b"]" * 100_000 + b"\n",
        "checkpoint header: not a line of JSON \\(maximum recursion depth"),
    "header not UTF-8": (lambda d: d.replace(b'{"version"', b'{"\xffversion"', 1),
                         re.escape("checkpoint header: not UTF-8 (byte 3: "
                                   "invalid start byte)")),
    "configs disagree with blob_bytes": (
        _header_edit(_set(("encoder", "config", "layer_widths"), [8, 17])),
        "blob_bytes"),
    "blob_bytes off the configs": (
        _header_edit(lambda h: dict(h, blob_bytes=h["blob_bytes"] + 8)),
        "checkpoint blob_bytes: .* the configs need"),
    "header is a list": (_header_edit(lambda h: [h]),
                         "checkpoint: expected a JSON object, got array"),
    "config field of wrong type": (
        _header_edit(_set(("encoder", "config", "input_dim"), {})),
        "checkpoint encoder.config.input_dim: expected integer, got object"),
    "missing sha256": (_header_edit(lambda h: {k: v for k, v in h.items()
                                               if k != "sha256"}),
                       "checkpoint sha256: missing"),
    "header version": (_header_edit(_set(("version",), "ospace-checkpoint-1")),
                       "checkpoint version"),
    "head output off the grid": (_header_edit(_set(("spec", "cols"), 11)),
                                 "head layer 1.*grid cells 110"),
    "room size past a float": (
        _header_edit(_set(("spec", "cell_m"), 1e308)),
        r"checkpoint spec: room size of a 10x12 grid of 1e\+308 m cells overflows"),
    "non-finite weight": (
        lambda d: _rehash(d[:-8] + np.array([np.nan]).astype("<f8").tobytes()),
        "head layer 1: non-finite weight"),
    "non-finite weight, stale sha256": (
        lambda d: d[:-8] + np.array([np.nan]).astype("<f8").tobytes(),
        "sha256 mismatch"),
    "missing section": (_header_edit(lambda h: {k: v for k, v in h.items()
                                                if k != "head"}),
                        "checkpoint head: missing"),
    "bool seed": (_header_edit(_set(("seed",), True)),
                  "checkpoint seed: expected integer, got boolean"),
    "bad widths": (_header_edit(_set(("encoder", "config", "layer_widths"), [8, 0])),
                   "checkpoint encoder.config: bad layer widths"),
    "v1 file": (lambda d: json.dumps({"version": "ospace-checkpoint-1"}).encode(),
                "checkpoint: the first line is not ospace-checkpoint-2"),
    "garbage file": (lambda d: b"\x00\x01garbage",
                     "checkpoint: the first line is not ospace-checkpoint-2"),
}


@pytest.fixture
def no_thread_left():
    """Fails the test if it ends with more or fewer threads than it began."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture(params=["inline", "chunked"])
def read_path(request, monkeypatch):
    """Loads the test model's 21 KB blob in one chunk, read and hashed inline,
    or in chunks of 4 KiB hashed on the helper thread."""
    if request.param == "chunked":
        monkeypatch.setattr(checkpoint, "_READ_CHUNK", 4096)
        assert sum(8 * (l.W.size + l.b.size) for l in _layers(_model())) > 4 * 4096
    return request.param


# the inline path's cases keep the plain names
@pytest.mark.parametrize(
    "read_path,corrupt,message",
    [pytest.param(path, corrupt, message,
                  id=name if path == "inline" else f"{path} {name}")
     for path in ("inline", "chunked")
     for name, (corrupt, message) in CORRUPTIONS.items()],
    indirect=["read_path"])
def test_corrupt_checkpoint_is_value_error_and_exit_2(tmp_path, capsys, read_path,
                                                      no_thread_left, corrupt,
                                                      message):
    good = tmp_path / "good.ckpt"
    save_model(_model(), good)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_model(bad)

    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text(SCENES)
    room = tmp_path / "room.feat"  # HEAD_CFG's room input takes 4 values
    room.write_text("dim 4\n0\n0\n0\n0\n")
    pred = tmp_path / "pred.jsonl"
    argv = [str(scenes), "-o", str(pred), "--room-file", str(room)]
    assert main(["predict", str(good), *argv]) == 0
    pred.unlink()
    capsys.readouterr()
    rc = main(["predict", str(bad), *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: checkpoint")
    assert "Traceback" not in err
    assert not pred.exists()


def _spy_on_hasher(monkeypatch):
    """Records the thread name of every task the helpers of later saves and
    loads run; returns that list."""
    ran, real = [], checkpoint._hasher

    def hasher():
        executor = real()
        submit = executor.submit

        def recorded(fn, *args):
            def task():
                ran.append(threading.current_thread().name)
                return fn(*args)
            return submit(task)
        executor.submit = recorded
        return executor
    monkeypatch.setattr(checkpoint, "_hasher", hasher)
    return ran


def test_both_read_paths_give_the_same_model(tmp_path, monkeypatch, read_path,
                                             no_thread_left):
    model = _model(3)
    save_model(model, tmp_path / "m.ckpt")
    ran = _spy_on_hasher(monkeypatch)
    _assert_same_model(load_model(tmp_path / "m.ckpt"), model)
    if read_path == "chunked":  # hashed chunk by chunk on the helper thread
        assert len(ran) > 1
        assert all(name.startswith("ospace-checkpoint-sha256") for name in ran)
    else:  # hashed inline: the helper got no task, so its thread never started
        assert ran == []


@pytest.mark.parametrize("edit", [lambda d: d[:-8], lambda d: d + b"\0"],
                         ids=["shrank", "grew"])
def test_a_file_that_changes_size_while_read_is_caught(tmp_path, monkeypatch,
                                                       read_path, no_thread_left,
                                                       edit):
    good = tmp_path / "good.ckpt"
    save_model(_model(), good)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(edit(good.read_bytes()))
    # the size check sees the file as it was saved; the reads see it edited
    stat = SimpleNamespace(st_size=good.stat().st_size)
    monkeypatch.setattr(checkpoint, "os", SimpleNamespace(fstat=lambda fd: stat))
    with pytest.raises(ValueError, match="file changed while being read"):
        load_model(bad)


def test_save_into_a_missing_directory_leaves_no_thread(tmp_path, no_thread_left):
    with pytest.raises(FileNotFoundError):
        save_model(_model(), tmp_path / "missing" / "m.ckpt")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_save_to_a_full_device_raises_enospc_and_leaves_no_thread(no_thread_left):
    with pytest.raises(OSError) as info:
        save_model(_model(), "/dev/full")
    assert info.value.errno == errno.ENOSPC


class _HashFailure(Exception):
    pass


def _failing_sha256(error):
    class Sha256:
        def __init__(self, *data):
            for d in data:
                self.update(d)

        def update(self, data):
            raise error

        def hexdigest(self):
            return "0" * 64
    return Sha256


def test_a_hash_error_comes_out_of_save_unchanged(tmp_path, monkeypatch,
                                                  no_thread_left):
    path = tmp_path / "m.ckpt"
    save_model(_model(), path)
    saved = path.read_bytes()
    error = _HashFailure("update failed")
    monkeypatch.setattr(checkpoint.hashlib, "sha256", _failing_sha256(error))
    with pytest.raises(_HashFailure) as info:
        save_model(_model(), path)
    assert info.value is error
    # the file was truncated and written before the digest failed: the old
    # checkpoint is gone, and what is left has the placeholder digest
    monkeypatch.undo()
    left = path.read_bytes()
    assert len(left) == len(saved) and left != saved
    assert json.loads(left.split(b"\n")[1])["sha256"] == "0" * 64
    with pytest.raises(ValueError, match="sha256 mismatch"):
        load_model(path)


def test_a_hash_error_comes_out_of_load_unchanged(tmp_path, monkeypatch, read_path,
                                                  no_thread_left):
    save_model(_model(), tmp_path / "m.ckpt")
    error = _HashFailure("update failed")
    monkeypatch.setattr(checkpoint.hashlib, "sha256", _failing_sha256(error))
    with pytest.raises(_HashFailure) as info:
        load_model(tmp_path / "m.ckpt")
    assert info.value is error


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_save_into_a_pipe_writes_the_bytes_of_a_file(tmp_path, no_thread_left):
    model = _model()
    save_model(model, tmp_path / "m.ckpt")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    try:
        save_model(model, fifo)
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [(tmp_path / "m.ckpt").read_bytes()]


# -0.0, the smallest subnormal, a larger subnormal, the smallest normal, +-max
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def models(draw):
    enc_cfg = EncoderConfig(
        input_dim=draw(st.integers(1, 4)), max_people=draw(st.integers(1, 30)),
        layer_widths=draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    spec = RoomSpec(rows=draw(st.integers(1, 3)), cols=draw(st.integers(1, 3)),
                    cell_m=draw(st.floats(0.01, 10.0)))
    head_cfg = HeadConfig(
        input_dim=draw(st.integers(0, 3)) + enc_cfg.output_dim,
        hidden_widths=draw(st.lists(st.integers(1, 4), max_size=2)),
        output_dim=spec.n_cells)

    def layers(dims):
        return [Dense(draw(hnp.arrays(np.float64, (d_in, d_out), elements=FINITE)),
                      draw(hnp.arrays(np.float64, (d_out,), elements=FINITE)))
                for d_in, d_out in zip(dims, dims[1:])]

    positive = st.floats(min_value=5e-324, allow_infinity=False)
    stats = NormStats(draw(FINITE), draw(FINITE), draw(positive), draw(positive))
    return ModelWeights(EncoderWeights(enc_cfg, layers(enc_cfg.dims)),
                        HeadWeights(head_cfg, layers(head_cfg.dims)), stats,
                        stride_m=draw(FINITE), seed=draw(st.integers(0, 2**63)),
                        spec=spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(models())
def test_save_load_is_bit_exact_and_deterministic(model):
    with tempfile.TemporaryDirectory() as tmp:
        a, b, c = (Path(tmp) / n for n in ("a.ckpt", "b.ckpt", "c.ckpt"))
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()
        back = load_model(a)
        _assert_same_model(back, model)
        save_model(back, c)
        assert c.read_bytes() == a.read_bytes()
