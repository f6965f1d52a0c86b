"""The benchmark's trace probes must find every function they wrap.

The tracer skips a missing attribute silently, so renaming or removing a
function that ``perfbench/probes.py`` names would zero a per-layer metric
without any error.  The probe table is read from its file, without writing
anything next to it.
"""
import types
from pathlib import Path

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _probes():
    module = types.ModuleType("perfbench_probes")
    module.__file__ = str(PROBES)
    exec(compile(PROBES.read_text(), str(PROBES), "exec"), module.__dict__)
    return module


def test_every_probe_target_resolves():
    targets = _probes().TARGETS
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []
