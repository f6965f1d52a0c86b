"""Concurrency stays where the docs say it is: apart from the BLAS library's
threads, the one thread ospace starts is the checkpoint hashing helper."""
import ast
from pathlib import Path

import ospace

SRC = Path(ospace.__file__).resolve().parent

# what starts a thread or a process when called
STARTERS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process", "Pool"}
HELPER = ("network.py", "_hasher")
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
    for path in sorted(SRC.glob("*.py")):
        if path.name in EXEMPT:
            continue
        tree = ast.parse(path.read_text(), str(path))
        if path.name == HELPER[0]:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == HELPER[1]:
                    in_helper |= {id(c) for c in _starter_calls(node)}
        found += [f"{path.name}:{c.lineno}" for c in _starter_calls(tree)
                  if id(c) not in in_helper]
    assert found == []
    assert len(in_helper) == 1  # the check does see the helper's thread
