"""Every hypothesis property in the suite runs the same examples on every
run: a failure in CI reproduces locally, and a pass is not a lucky draw."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _settings_calls(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "settings":
                yield node


def test_every_settings_call_derandomizes():
    calls, loose = 0, []
    for path in sorted(TESTS.glob("*.py")):
        for node in _settings_calls(path):
            calls += 1
            flags = {k.arg: k.value for k in node.keywords}
            value = flags.get("derandomize")
            if not (isinstance(value, ast.Constant) and value.value is True):
                loose.append(f"{path.name}:{node.lineno}")
    assert loose == []
    assert calls >= 10  # the check does see the suite's properties
