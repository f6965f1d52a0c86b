"""Model weights and the checkpoint file that holds them.

``ModelWeights`` is a trained or loaded model: its encoder and head, the
normalization stats, the target stride, the seed and the grid.
The store layout that ``network.train`` and ``load_model`` share is
``layers.layer_shapes`` of the encoder's and then the head's config, and
``split_layers`` cuts a store's layers into the encoder's and the head's.

A checkpoint (version 2, the only one read) is the magic line
``ospace-checkpoint-2``, then one line of JSON, the header (version, grid
spec, stride, seed, normalization stats, both configs, ``blob_bytes`` and the
``sha256`` of the blob), then the blob: every layer's W and then b, encoder
layers first, as little-endian float64 -- the layout of ``layers.view_layers``.
The header holds the spec, the stats and the configs in their ``jsondoc``
form, each dataclass's fields in declaration order, which
``jsondoc.from_obj`` reads back.  Saving writes the arrays' buffers as they
are, so a file is byte-identical across runs with the same seed; loading
reads the blob into one buffer that the layers are views of.  Loading checks
the magic line, the header's field types, the blob's size against the
configs and the file and its hash, the head's output against the room grid,
and that every weight is finite, so a corrupt file (or a version 1 file,
one JSON object) fails with a ValueError that names the field or layer
rather than at the first matmul.

The sha256 of the blob runs beside the file I/O, on one helper thread
(``_hasher``) that lives only inside ``save_model`` or ``load_model``:
saving hashes while it writes and then writes the header again with the
digest, and loading hashes each chunk of ``_READ_CHUNK`` bytes while it
reads the next.  Neither changes a byte of the format or the order of the
checks.  Saving opens, and so truncates, the file before the digest is
known, so a save that fails in the hash, or is interrupted before the last
header write, leaves the placeholder digest: the file loads as a sha256
mismatch, and the checkpoint that was at the path is gone.
"""
from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SPEC, RoomSpec
from .dataset import NormStats
from .encoder import EncoderConfig, EncoderWeights
from .groundtruth import DEFAULT_STRIDE_M
from .head import HeadConfig, HeadWeights
from .jsondoc import from_obj, get_field, get_number, to_obj
from .layers import layer_shapes, store_size, view_layers

__all__ = ["ModelWeights", "split_layers", "save_model", "load_model",
           "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = "ospace-checkpoint-2"
_MAGIC = (CHECKPOINT_VERSION + "\n").encode("ascii")  # a checkpoint's first line
_BLOB_DTYPE = np.dtype("<f8")
_CKPT = "checkpoint"  # the document name in field errors

# Bytes per read of a checkpoint's blob.  A blob of more than one chunk is
# hashed on a helper thread, a chunk behind the reads; one of at most one
# chunk is read and hashed inline, since a thread costs about 60 us to start
# and hides only the read, 0.15 ms at the acceptance widths' 1.15 MB.
_READ_CHUNK = 4 << 20


@dataclass
class ModelWeights:
    encoder: EncoderWeights
    head: HeadWeights
    norm_stats: NormStats
    stride_m: float = DEFAULT_STRIDE_M
    seed: int = 0
    spec: RoomSpec = DEFAULT_SPEC

    @property
    def room_dim(self) -> int:
        """The width of the room feature the head takes beside the people."""
        return self.head.config.input_dim - self.encoder.config.output_dim


def split_layers(layers, enc_cfg: EncoderConfig, head_cfg: HeadConfig):
    """(EncoderWeights, HeadWeights) of a store's layers, encoder first."""
    n_enc = len(enc_cfg.layer_widths)
    return (EncoderWeights(enc_cfg, layers[:n_enc]),
            HeadWeights(head_cfg, layers[n_enc:]))


def _object_at(obj, path: str) -> dict:
    """The JSON object at the dotted ``path`` in a checkpoint object."""
    where = ""
    for key in path.split("."):
        obj = get_field(obj, where, key, (dict,), _CKPT)
        where = f"{where}.{key}" if where else key
    return obj


def _model_shell(header) -> ModelWeights:
    """A checkpoint header's spec, stats and configs, as a model with no
    layers yet.

    The head's output is checked against the grid here, before any weight
    is read.
    """
    got = get_field(header, "", "version", (str,), _CKPT)
    if got != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {got!r}, expected "
                         f"{CHECKPOINT_VERSION!r}")
    spec, stats, enc_cfg, head_cfg = (
        from_obj(cls, _object_at(header, path), path, _CKPT)
        for cls, path in ((RoomSpec, "spec"), (NormStats, "norm_stats"),
                          (EncoderConfig, "encoder.config"),
                          (HeadConfig, "head.config")))
    if head_cfg.output_dim != spec.n_cells:
        raise ValueError(
            f"checkpoint head layer {len(head_cfg.dims) - 2}: output "
            f"{head_cfg.output_dim} != grid cells {spec.n_cells}")
    return ModelWeights(encoder=EncoderWeights(enc_cfg), head=HeadWeights(head_cfg),
                        norm_stats=stats,
                        stride_m=get_number(header, "", "stride_m", _CKPT),
                        seed=get_field(header, "", "seed", (int,), _CKPT), spec=spec)


def _hasher() -> ThreadPoolExecutor:
    """The one helper thread that hashes a checkpoint's blob beside its file
    I/O: hashlib releases the GIL while it hashes a buffer of 2 KiB or more.

    Submit the updates of one ``hashlib.sha256`` to it in blob order and
    read the digest with ``_digest``.  Use it in a ``with`` block, which
    joins the thread on every path, so no thread outlives ``save_model`` or
    ``load_model``.
    """
    return ThreadPoolExecutor(1, thread_name_prefix="ospace-checkpoint-sha256")


def _digest(sha, hashed) -> str:
    """The hex digest of ``sha`` once every task in ``hashed``, the futures of
    the submitted updates, has run; the first one that raised raises its
    exception again, the same object."""
    for future in hashed:
        future.result()
    return sha.hexdigest()


def save_model(model: ModelWeights, path) -> None:
    """Write ``model`` as a checkpoint (see the module docstring).

    The blob is hashed on a helper thread while it is written, after a
    header whose ``sha256`` is a placeholder of the digest's width; the real
    header then goes over it, so the file has the bytes it would have had
    with the digest written first.  A destination that cannot seek, a pipe,
    gets the digest before the header, in the same order.

    The file is truncated before the digest is known, so a save that fails
    in the hash, or is interrupted before the real header is written, leaves
    a file of full size whose header holds the placeholder: it loads as a
    sha256 mismatch, and the checkpoint that was at ``path`` is gone.
    """
    arrays = [np.ascontiguousarray(a, dtype=_BLOB_DTYPE)
              for layer in model.encoder.layers + model.head.layers
              for a in (layer.W, layer.b)]
    header = {"version": CHECKPOINT_VERSION, "spec": to_obj(model.spec),
              "stride_m": model.stride_m, "seed": model.seed,
              "norm_stats": to_obj(model.norm_stats),
              "encoder": {"config": to_obj(model.encoder.config)},
              "head": {"config": to_obj(model.head.config)},
              "blob_bytes": sum(a.nbytes for a in arrays),
              "sha256": None}

    def header_line(sha256: str) -> bytes:
        header["sha256"] = sha256
        return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"

    sha = hashlib.sha256()

    def hash_blob() -> None:
        for a in arrays:
            sha.update(a)

    with _hasher() as hasher:
        # the hashing starts first: opening an existing file truncates it,
        # which takes about as long as writing it again.  One task for the
        # whole blob: a task per array cost about 0.15 ms more per save at
        # the acceptance widths
        hashed = [hasher.submit(hash_blob)]
        with open(path, "wb") as f:
            seekable = f.seekable()
            f.write(_MAGIC)
            # 64 hex digits, the width of the digest that goes over them
            f.write(header_line("0" * 64 if seekable else _digest(sha, hashed)))
            for a in arrays:
                f.write(memoryview(a))
            if seekable:
                f.seek(len(_MAGIC))
                f.write(header_line(_digest(sha, hashed)))


def _cut_layers(model: ModelWeights, flat: np.ndarray) -> str | None:
    """Give ``model`` its layers as views of ``flat``, cut by the widths of
    its configs, which ``blob_bytes`` matched; returns the error naming the
    first layer with a non-finite weight, or None."""
    enc_cfg, head_cfg = model.encoder.config, model.head.config
    model.encoder, model.head = split_layers(
        view_layers(flat, layer_shapes(enc_cfg, head_cfg)), enc_cfg, head_cfg)
    for section, weights in (("encoder", model.encoder), ("head", model.head)):
        for i, layer in enumerate(weights.layers):
            if not (np.isfinite(layer.W).all() and np.isfinite(layer.b).all()):
                return f"checkpoint {section} layer {i}: non-finite weight"
    return None


def load_model(path) -> ModelWeights:
    """Read a checkpoint (see the module docstring); a bad one raises ValueError.

    A blob of more than ``_READ_CHUNK`` bytes is hashed on a helper thread
    chunk by chunk as it is read, and its weights are checked for finiteness
    while the tail is hashed.  Errors come in one order whatever the path: a
    file that changed while being read, then a sha256 mismatch, then the
    first layer with a non-finite weight.
    """
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"checkpoint: the first line is not {CHECKPOINT_VERSION}")
        try:
            header = json.loads(f.readline())
        except ValueError as e:  # bad JSON or bad UTF-8
            raise ValueError(f"checkpoint header: not a line of JSON ({e})") from None
        model = _model_shell(header)
        blob_bytes = get_field(header, "", "blob_bytes", (int,), _CKPT)
        sha256 = get_field(header, "", "sha256", (str,), _CKPT)
        need = _BLOB_DTYPE.itemsize * store_size(
            layer_shapes(model.encoder.config, model.head.config))
        if blob_bytes != need:
            raise ValueError(f"checkpoint blob_bytes: {blob_bytes}, the configs "
                             f"need {need}")
        # Sized from the file before anything is allocated for it.
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != blob_bytes:
            what = "truncated" if size < blob_bytes else "trailing bytes"
            raise ValueError(f"checkpoint blob: {size} bytes after the header, "
                             f"blob_bytes is {blob_bytes} ({what})")
        # writable, and the vector's only copy; readinto fills every byte
        buf = np.empty(blob_bytes, np.uint8)
        sha, hashed = hashlib.sha256(), []
        with _hasher() as hasher:
            read = 0
            for lo in range(0, blob_bytes, _READ_CHUNK):
                chunk = buf[lo:lo + _READ_CHUNK]
                n = f.readinto(chunk)
                read += n
                if n != chunk.size:
                    break
                if chunk.size == blob_bytes:  # one chunk: no read to hide
                    sha.update(chunk)
                else:
                    hashed.append(hasher.submit(sha.update, chunk))
            if read != blob_bytes or f.read(1):
                raise ValueError("checkpoint blob: file changed while being read")
            # on this thread while the helper hashes the tail; a non-finite
            # weight is reported only once the hash has matched
            bad = _cut_layers(model, buf.view(_BLOB_DTYPE))
            if _digest(sha, hashed) != sha256:
                raise ValueError("checkpoint blob: sha256 mismatch (corrupted file)")
    if bad is not None:
        raise ValueError(bad)
    return model
