"""Rules the source keeps, read from its syntax trees.

Every module under ``src/ospace`` is parsed once, and each rule below walks
those trees: module boundaries, where threads start, which imports may go
unused, and where the affine layer's arithmetic and the geometric rules
live.  One rule reads the test suite instead: every hypothesis property is
derandomized.  One more imports modules in fresh interpreters, which no
syntax tree shows.
"""
import ast
import os
import subprocess
import sys
from functools import cache
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import ospace

SRC = Path(ospace.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _parse(path):
    return ast.parse(path.read_text(), str(path))


@cache
def _sources() -> dict[str, ast.Module]:
    """Every module of ``ospace`` by file name, parsed once for every rule."""
    return {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}


# Module boundaries: no module imports another's private names.

def test_no_private_names_imported_across_modules():
    found = []
    for name, tree in _sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


# The modules import one another in one direction: no cycle, so each can be
# imported first.

def _relative_imports(tree) -> set[str]:
    """The ``ospace`` modules a module imports, by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # ``from . import name``
                found |= {alias.name for alias in node.names}
    return found


def _import_cycle(graph) -> list[str] | None:
    """A cycle of ``graph`` (module -> the modules it imports), or None."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as e:
        return e.args[1]
    return None


def test_an_import_cycle_is_named():
    assert _import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    cycle = _import_cycle({"a": {"b"}, "b": {"a"}, "c": {"a"}})
    assert set(cycle) == {"a", "b"} and cycle[0] == cycle[-1]


def test_relative_imports_are_acyclic():
    graph = {Path(name).stem: _relative_imports(tree)
             for name, tree in _sources().items()}
    cycle = _import_cycle(graph)
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"
    # the rule does see the edges: the checkpoint file needs the head's types
    assert "head" in graph["checkpoint"] and "checkpoint" in graph["network"]


@pytest.mark.parametrize("module", ["ospace.head", "ospace.checkpoint",
                                    "ospace.network", "ospace"])
def test_a_module_imports_alone_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Concurrency stays where the docs say it is: apart from the BLAS library's
# threads, the one thread ospace starts is the checkpoint hashing helper.

# what starts a thread or a process when called
STARTERS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process", "Pool"}
HELPER = ("checkpoint.py", "_hasher")
# its own thread map, which nothing in ospace calls, until it is deleted
EXEMPT = {"parallel.py"}


def _starter_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in STARTERS:
                yield node


def test_only_the_checkpoint_hashing_helper_starts_a_thread():
    found, in_helper = [], set()
    for name, tree in _sources().items():
        if name in EXEMPT:
            continue
        if name == HELPER[0]:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == HELPER[1]:
                    in_helper |= {id(c) for c in _starter_calls(node)}
        found += [f"{name}:{c.lineno}" for c in _starter_calls(tree)
                  if id(c) not in in_helper]
    assert found == []
    assert len(in_helper) == 1  # the check does see the helper's thread


# Imports nothing references.

# Tuning targets the probe table (``perfbench/probes.py``) still names that
# ``grid_search`` no longer calls, so their spans read zero under tuning: it
# gets every heatmap from one ``network.predict_heatmaps`` call, it turns
# each distinct key row into its partition with
# ``postprocess.partition_from_claims`` instead of ``assign_groups``, and it
# matches a scene's partitions with one ``evaluation.match_counts`` instead
# of a ``match_scene`` each.  ``tuning`` keeps these names only because
# perfbench's traced-run test looks up every target the table names.
RETIRED = {"thread_map", "predict_heatmap", "assign_groups", "match_scene"}

# Network targets the probe table still names that neither prediction nor
# training calls: every scene goes through ``network.batch_forward``,
# ``train`` draws its weights with ``layers.init_store``, and checkpoints are
# read and written by ``checkpoint``.  ``network`` keeps these names for the
# same reason as ``tuning`` keeps its retired ones.
NETWORK_RETIRED = {"encode", "forward", "init_encoder", "init_head", "save_model",
                   "load_model"}


def _dead_imports(tree):
    """Names a module imports but never references (``__future__`` aside)."""
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_only_retired_probe_targets_are_dead_imports():
    """An import nothing references is deleted, unless it is a retired probe
    target its module keeps for the probe table.  Once the table drops a
    target, this names the import to delete with it.  ``__init__`` is
    skipped: its imports are the package's exports."""
    retired = {"tuning": RETIRED, "network": NETWORK_RETIRED}
    dead = {(Path(name).stem, dead_name) for name, tree in _sources().items()
            if name != "__init__.py" for dead_name in _dead_imports(tree)}
    stray = sorted(f"{module}.{name}" for module, name in dead
                   if name not in retired.get(module, ()))
    assert stray == []
    # the guard does see the imports kept on purpose, and a retired import
    # that comes back into use must leave its set; ``forward`` is
    # ``network``'s own function, not an import
    assert {name for module, name in dead if module == "tuning"} == RETIRED
    assert ({name for module, name in dead if module == "network"}
            == NETWORK_RETIRED - {"forward"})


# The affine rule lives in ``layers`` alone: no other module multiplies by a
# layer's weights or writes a layer's gradient buffers.

def _is_weight(node) -> bool:
    """``….W`` or ``….W.T``: a layer's weight matrix, or its transpose."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "W"


def _affine_arithmetic(tree):
    """Line numbers of a gemm with a layer's W as an operand, and of a call
    that writes a grad_W or grad_b through ``out=``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if _is_weight(node.left) or _is_weight(node.right):
                yield node.lineno
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if (name == "matmul" and any(map(_is_weight, node.args))
                    or any(k.arg == "out" and getattr(k.value, "attr", None)
                           in ("grad_W", "grad_b") for k in node.keywords)):
                yield node.lineno


def test_only_layers_multiplies_by_weights_or_writes_gradients():
    found = [f"{name}:{line}" for name, tree in _sources().items()
             if name != "layers.py" for line in _affine_arithmetic(tree)]
    assert found == []
    # the rule does see the affine rule where it lives: the forward gemm, the
    # input gradient's gemm and the two gradient writes
    assert len(list(_affine_arithmetic(_sources()["layers.py"]))) == 4


# One implementation per geometric rule: a heading is read from a yaw only
# by ``groundtruth.headings``, the start of the one o-space proposal rule,
# and a squared distance is guarded against overflow only by ``core.apart``,
# the one minimum-separation test.

def _radians_reads(tree):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Attribute, ast.Name))
                and getattr(node, "attr", getattr(node, "id", None))
                in ("radians", "deg2rad")):
            yield node.lineno


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(_sources()[module])
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_only_groundtruth_headings_reads_a_heading_from_a_yaw():
    inside = set(_radians_reads(_function("groundtruth.py", "headings")))
    found = [f"{name}:{line}" for name, tree in _sources().items()
             for line in _radians_reads(tree)
             if not (name == "groundtruth.py" and line in inside)]
    assert found == []
    assert inside  # the rule does see the read where it lives


def _guarded_squares(tree):
    """Line numbers of a ``try`` that squares and catches OverflowError."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                getattr(h.type, "id", None) == "OverflowError"
                for h in node.handlers) and any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                for stmt in node.body for n in ast.walk(stmt)):
            yield node.lineno


def test_only_core_apart_guards_a_square_against_overflow():
    inside = list(_guarded_squares(_function("core.py", "apart")))
    found = [f"{name}:{line}" for name, tree in _sources().items()
             for line in _guarded_squares(tree)
             if not (name == "core.py" and line in inside)]
    assert found == []
    # the rule does see the test where it lives: the limit's square and each
    # point's sum of squares
    assert len(inside) == 2


# Every hypothesis property in the suite runs the same examples on every
# run: a failure in CI reproduces locally, and a pass is not a lucky draw.

def _settings_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "settings":
                yield node


def test_every_settings_call_derandomizes():
    calls, loose = 0, []
    for path in sorted(TESTS.glob("*.py")):
        for node in _settings_calls(_parse(path)):
            calls += 1
            flags = {k.arg: k.value for k in node.keywords}
            value = flags.get("derandomize")
            if not (isinstance(value, ast.Constant) and value.value is True):
                loose.append(f"{path.name}:{node.lineno}")
    assert loose == []
    assert calls >= 10  # the check does see the suite's properties
