"""Typed reading and writing of the JSON documents ospace keeps on disk.

A config dataclass is its own JSON schema: its JSON form is the object of
its fields in declaration order (``to_obj``), and ``from_obj`` reads such an
object back by each field's annotation text, checking JSON types on the way.
No other module type-checks decoded JSON, so a checkpoint header, a
``--params`` file, a layout file and a scene or eval record all fail the
same way: with a ValueError that names the document (``what``, such as
``checkpoint`` or ``s.jsonl line 3``) and the dotted path of the field
(``where`` and the key) instead of with a TypeError deep in the program.

``write_lines`` is the one text-output rule: every text file ospace writes,
from a scene file to a heatmap image, reaches disk through it, whole or
not at all.  A checkpoint is binary and has its own writer
(``checkpoint.save_model``).
The input side has one rule too: ``read_lines`` is the only place a text
input (a scene, prediction, ``--params``, layout or room feature file) is
opened, and ``decode`` is the one UTF-8 rule, so a bad byte in any input,
a checkpoint's header line included, reads "<what>: not UTF-8 (byte N:
reason)" with N counted from 1.  A checkpoint's blob is binary and is read
by ``checkpoint.load_model``.
"""
from __future__ import annotations

import functools
import json
import os
import stat
from dataclasses import asdict, fields

__all__ = ["get_field", "get_number", "get_int_arrays", "to_obj", "from_obj",
           "load", "decode", "read_lines", "read_text", "write_lines"]

# JSON type names for field errors.
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _name(what: str, where: str, key: str = "") -> str:
    """``what`` (the document) and the dotted path of a field inside it."""
    path = ".".join(p for p in (where, key) if p)
    return f"{what} {path}" if path else what


def _check_object(obj, where: str, what: str) -> None:
    """ValueError "<what> <where>: expected a JSON object, got ..." unless
    ``obj`` is one."""
    if not isinstance(obj, dict):
        raise ValueError(f"{_name(what, where)}: expected a JSON object, got "
                         f"{_JSON_TYPES.get(type(obj), 'data')}")


def _kind(v, kinds: tuple, what: str, where: str, key: str):
    """``v``, the field ``key`` at ``where``, required to be one of the JSON
    types ``kinds``; a boolean is never a number."""
    if isinstance(v, bool) or not isinstance(v, kinds):
        want = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise ValueError(f"{_name(what, where, key)}: expected {want}, got "
                         f"{_JSON_TYPES.get(type(v), type(v).__name__)}")
    return v


def get_field(obj, where: str, key: str, kinds: tuple, what: str):
    """``obj[key]``, required to be one of the JSON types ``kinds``.

    ``what`` names the document being read and ``where`` names ``obj`` in
    it ("" for the top level), so a missing or mistyped field fails with a
    ValueError that names both.
    """
    _check_object(obj, where, what)
    if key not in obj:
        raise ValueError(f"{_name(what, where, key)}: missing")
    return _kind(obj[key], kinds, what, where, key)


def _float(v, what: str, where: str, key: str) -> float:
    try:
        return float(v)
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{_name(what, where, key)}: out of range") from None


def get_number(obj, where: str, key: str, what: str) -> float:
    """``obj[key]``, a JSON number or integer, as a float."""
    return _float(get_field(obj, where, key, (float, int), what), what, where, key)


def _int_array(v: list, what: str, where: str, key: str) -> tuple[int, ...]:
    for t in set(map(type, v)):  # each distinct element type, once
        if t is bool or not issubclass(t, int):
            raise ValueError(f"{_name(what, where, key)}: expected an array "
                             f"of integers")
    return tuple(v)


def get_int_arrays(obj, where: str, key: str, what: str) -> tuple[tuple[int, ...], ...]:
    """``obj[key]``, a JSON array of integer arrays, as tuples."""
    path = f"{where}.{key}" if where else key
    blocks = []
    for j, v in enumerate(get_field(obj, where, key, (list,), what)):
        j = str(j)  # element j is named as field "j" of the array: key.j
        blocks.append(_int_array(_kind(v, (list,), what, path, j), what, path, j))
    return tuple(blocks)


# The JSON types and the reader (None: the value as it is) of each field
# annotation, keyed on its text: every module declaring a config uses ``from
# __future__ import annotations``, so ``Field.type`` is the text as written,
# and no type hints need resolving per read.
_READERS = {"int": ((int,), None), "float": ((float, int), _float),
            "tuple[int, ...]": ((list,), _int_array)}


def to_obj(config) -> dict:
    """The JSON form of a config dataclass: its fields in declaration order."""
    return asdict(config)


@functools.cache
def _plan(cls) -> tuple:
    """The (name, JSON types, reader) of each field of ``cls``, built once
    per class."""
    return tuple((f.name, *_READERS[f.type]) for f in fields(cls))


def from_obj(cls, obj, where: str, what: str):
    """The ``cls`` config whose JSON form is ``obj``, the object at ``where``.

    Each field is read by its annotation, so a missing field, a boolean, or
    a number where an integer belongs is a ValueError naming the field; a
    ValueError from ``cls`` itself is reworded to name the document and
    ``where``.
    """
    _check_object(obj, where, what)
    kw = {}
    for key, kinds, read in _plan(cls):
        v = obj.get(key)  # None, missing or null, is of no kind
        if isinstance(v, bool) or not isinstance(v, kinds):
            get_field(obj, where, key, kinds, what)  # raises, naming the field
        kw[key] = v if read is None else read(v, what, where, key)
    try:
        return cls(**kw)
    except ValueError as e:
        raise ValueError(f"{_name(what, where)}: {e}") from None


def decode(raw: bytes, what: str) -> str:
    """``raw`` as UTF-8 text; a bad byte raises a ValueError "<what>: not
    UTF-8 (byte N: reason)", N counted from 1."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{what}: not UTF-8 (byte {e.start + 1}: "
                         f"{e.reason})") from None


def read_lines(path):
    """Yield the lines of the file ``path`` as bytes, one at a time, each
    with its line ending; the file is opened at the first line drawn."""
    with open(path, "rb") as f:
        yield from f


def read_text(path, what: str) -> str:
    """The whole text file ``path``, decoded; ``what`` names it in errors."""
    return decode(b"".join(read_lines(path)), what)


def load(path, what: str):
    """The JSON document in the file ``path``; ``what`` names it in errors."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON or too deep
        raise ValueError(f"{what}: not JSON ({e})") from None


def write_lines(path, lines) -> None:
    """Write each string of ``lines`` to the file ``path`` in UTF-8, ending
    each with a newline: the whole file or, on any error, nothing.

    ``lines`` may be a generator: it is consumed one line at a time, into a
    new file (mode 0666 less the umask) beside the destination, which then
    replaces it with ``os.replace``; an error, in ``lines`` too, removes it
    and leaves the path as it was.  A symlink stays: the file it points to
    is the one replaced.  A destination that exists and is not a regular
    file (a pipe, ``/dev/stdout``) is written in place.
    """
    try:
        direct = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        direct = False
    real = os.path.realpath(path)
    target = path if direct else f"{real}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(target, os.O_WRONLY | os.O_CREAT
                     | (os.O_TRUNC if direct else os.O_EXCL), 0o666)
    except OSError as e:
        e.filename = path  # the destination, not the temporary file
        raise
    try:
        with open(fd, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line)
                f.write("\n")
        if not direct:
            os.replace(target, real)
    except BaseException:
        if not direct:
            os.unlink(target)
        raise
