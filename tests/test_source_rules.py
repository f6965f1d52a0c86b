"""Rules the source keeps, read from its syntax trees.

Every module under ``src/ospace`` is parsed once, and each rule below walks
those trees: module boundaries, where threads start, which imports may go
unused, where the affine layer's arithmetic and the geometric rules live,
and what opens a file or decodes bytes.  One rule reads the test suite
instead: every hypothesis property is derandomized.  One more imports
modules in fresh interpreters, which no syntax tree shows.
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


# One yaw fold: a yaw is reduced to [0, 360) only by ``core.Person``, and
# every other module builds a Person from the raw yaw.  The bucket fold of
# ``dataset._yaw_buckets``, which reads a bucket off a yaw, is a rule of
# its own.

def _yaw_modulos(tree):
    """Line numbers of a modulo by 360: ``% 360``, ``%= 360``, or an
    ``fmod``, ``mod`` or ``remainder`` call whose divisor is 360."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            divisor = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
            divisor = node.value
        elif (isinstance(node, ast.Call) and len(node.args) == 2
              and _call_name(node) in ("fmod", "mod", "remainder")):
            divisor = node.args[1]
        else:
            continue
        if isinstance(divisor, ast.Constant) and divisor.value == 360:
            yield node.lineno


def _method(module: str, cls: str, name: str) -> ast.FunctionDef:
    owner = next(node for node in ast.walk(_sources()[module])
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(node for node in owner.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_a_yaw_modulo_is_named():
    tree = ast.parse("a = b % 360.0\nc %= 360\nd = np.mod(e, 360)\n"
                     "f = math.fmod(g, 360.0)\nh = i % 90 + j % k")
    assert sorted(_yaw_modulos(tree)) == [1, 2, 3, 4]


def test_only_core_person_folds_a_yaw():
    person = list(_yaw_modulos(_method("core.py", "Person", "__init__")))
    bucket = list(_yaw_modulos(_function("dataset.py", "_yaw_buckets")))
    allowed = {("core.py", line) for line in person} | {
        ("dataset.py", line) for line in bucket}
    found = [f"{name}:{line}" for name, tree in _sources().items()
             for line in _yaw_modulos(tree) if (name, line) not in allowed]
    assert found == []
    # the rule does see the folds where they live: Person's two (the second
    # takes a rounded-up 360.0 to 0.0) and the bucket's one
    assert (len(person), len(bucket)) == (2, 1)


# One text-input rule and one text-output rule: a file is opened only by
# ``jsondoc.read_lines`` (every text input), ``jsondoc.write_lines`` (every
# text output) and ``checkpoint.save_model``/``load_model`` (the binary
# checkpoint), and for writing only by the two writers; bytes are decoded,
# and a bad byte handled, only by ``jsondoc.decode``, the one UTF-8 rule.

# ``Path`` methods that open a file without an ``open`` call
PATH_IO = {"read_text", "read_bytes", "write_text", "write_bytes"}


def _call_name(node):
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def _opens(tree):
    """Line numbers of an ``open`` call, and of a ``Path`` read or write."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (_call_name(node) == "open" or (
                isinstance(node.func, ast.Attribute) and node.func.attr in PATH_IO)):
            yield node.lineno


def _write_opens(tree):
    """Line numbers of an ``open`` call whose mode writes, appends or
    creates, or whose mode is not a string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node) == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None:
                continue  # read, as text
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                yield node.lineno


def _decodes(tree):
    """Line numbers of a ``.decode`` call and of a handler that catches
    ``UnicodeDecodeError`` (or its base, ``UnicodeError``)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "decode"):
            yield node.lineno
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type])
            if any(getattr(t, "id", None) in ("UnicodeDecodeError", "UnicodeError")
                   for t in caught):
                yield node.lineno


# rule -> (its finder, {(module, function): hits the finder sees there})
FILE_RULES = {
    # write_lines opens its file descriptor (``os.open``), then the text
    # file over it
    "open": (_opens, {("jsondoc.py", "read_lines"): 1, ("jsondoc.py", "write_lines"): 2,
                      ("checkpoint.py", "save_model"): 1,
                      ("checkpoint.py", "load_model"): 1}),
    "open for writing": (_write_opens, {("jsondoc.py", "write_lines"): 2,
                                        ("checkpoint.py", "save_model"): 1}),
    "decode": (_decodes, {("jsondoc.py", "decode"): 2}),
}


@pytest.mark.parametrize("rule", FILE_RULES)
def test_only_the_file_rules_open_a_file_or_decode_bytes(rule):
    find, homes = FILE_RULES[rule]
    inside = {home: set(find(_function(*home))) for home in homes}
    allowed = {(module, line) for (module, _), lines in inside.items()
               for line in lines}
    found = [f"{name}:{line}" for name, tree in _sources().items()
             for line in find(tree) if (name, line) not in allowed]
    assert found == []
    # the rule does see what it allows where it lives
    assert {home: len(lines) for home, lines in inside.items()} == homes


# Every public name has a caller: a name in a module's ``__all__`` is read
# somewhere in ``ospace`` outside its own definition, or by perfbench's
# harness or a demo, or it is library API kept on purpose, with its reason.

ROOT = TESTS.parent
LIBRARY_API = {
    "core.canonical_partition": "the acceptance suite's partition oracle",
    "core.point_to_cell": "the inverse of cell_center; ROADMAP keeps it",
    "dataset.flip_scene": "one flip of a scene, which augment makes three "
                          "of; ROADMAP keeps it",
    "layers.flatten": "README: backward outside train needs the layers in "
                      "one store first",
    "room.save_layout": "writes the layout file that --layout reads; "
                        "ROADMAP keeps it",
    "room.save_precomputed": "writes the room file that --room-file reads; "
                             "ROADMAP keeps it",
}


def _public_names(tree) -> list[str]:
    """The module's ``__all__``, or no name if it has none."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)),
                [])


def _reads(tree, module: str, skip=frozenset()) -> set[str]:
    """The names ``tree`` reads: a bare name, or ``<module>.name`` for an
    ``ospace`` module name, outside the nodes in ``skip``."""
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == module):
            found.add(node.attr)
    return found


def _uncalled(sources, outside) -> list[str]:
    """``module.name`` of each public name that nothing reads.

    ``sources`` maps file names to the package's syntax trees; ``outside``
    is the set of names read outside the package.  ``__init__`` only
    re-exports, so its imports read nothing.
    """
    missing = []
    for file, tree in sources.items():
        if file == "__init__.py":
            continue
        module = Path(file).stem
        for name in _public_names(tree):
            own = {id(n) for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name == name for n in ast.walk(node)}
            read = name in outside or any(
                name in _reads(t, module, own if f == file else frozenset())
                for f, t in sources.items() if f != "__init__.py")
            if not read:
                missing.append(f"{module}.{name}")
    return missing


@cache
def _read_outside() -> frozenset:
    """What perfbench's harness and the demos read of ``ospace``; the probe
    table names its targets as strings (``(network, "forward", ...)``)."""
    found = set()
    for path in sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("demos/*.py")):
        tree = _parse(path)
        for file in _sources():
            found |= _reads(tree, Path(file).stem)
        if path.name == "probes.py":
            found |= {node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return frozenset(found)


def test_every_public_name_has_a_caller():
    assert sorted(_uncalled(_sources(), _read_outside())) == sorted(LIBRARY_API)


def test_a_public_name_with_no_caller_is_named():
    helper = ast.parse('__all__ = ["used", "lonely"]\n'
                       'def used(): return 1\n'
                       'def lonely(): return lonely()\n')  # calls only itself
    user = ast.parse("from .helper import used\nx = used()\n")
    sources = {"helper.py": helper, "user.py": user}
    assert _uncalled(sources, frozenset()) == ["helper.lonely"]
    assert _uncalled(sources, frozenset({"lonely"})) == []


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
