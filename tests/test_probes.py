"""The benchmark's trace probes must find every function they wrap.

The tracer skips a missing attribute silently, so renaming or removing a
function that ``perfbench/probes.py`` names would zero a per-layer metric
without any error; so would a module that still imports a probed function
but stops calling it.  The probe table is read from its file, without
writing anything next to it.
"""
import ast
import types
from collections import Counter
from pathlib import Path

import numpy as np

import ospace
from ospace import network, postprocess, tuning
from ospace.core import Person, Scene
from ospace.encoder import EncoderConfig
from ospace.network import HeadConfig, TrainConfig, train
from ospace.room import RoomFeature

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"

# Tuning targets the probe table still names that ``grid_search`` no longer
# calls, so their spans read zero under tuning: it gets every heatmap from
# one ``network.predict_heatmaps`` call, it turns each distinct key row into
# its partition with ``postprocess.partition_from_claims`` instead of
# ``assign_groups``, and it matches a scene's partitions with one
# ``evaluation.match_counts`` instead of a ``match_scene`` each.  ``tuning``
# keeps these names only because perfbench's traced-run test looks up every
# target the table names.
RETIRED = {"thread_map", "predict_heatmap", "assign_groups", "match_scene"}

# Network targets the probe table still names that no prediction calls:
# every scene goes through ``network.batch_forward``.  ``network`` keeps both
# names for the same reason as ``tuning`` keeps its retired ones.
NETWORK_RETIRED = {"encode", "forward"}


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


def test_grid_search_calls_every_tuning_probe_target(monkeypatch):
    """A function tuning imports but no longer calls still resolves, and its
    span would silently read zero; each must run in a search, except the
    retired ones, which must not."""
    calls = Counter()
    attrs = [attr for module, attr, _, _ in _probes().TARGETS
             if module is tuning and attr != "grid_search"]
    assert {"nms", "match_scene"} | RETIRED <= set(attrs)
    for attr in attrs:
        def spy(*args, _real=getattr(tuning, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(tuning, attr, spy)
    scenes = [Scene("a", (Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0)),
                    ((0, 1),))]
    room = RoomFeature(np.zeros(4))
    model, _ = train(scenes, room,
                     EncoderConfig(input_dim=18, max_people=25,
                                   layer_widths=(8, 16)),
                     HeadConfig(input_dim=20, hidden_widths=(16,),
                                output_dim=120),
                     TrainConfig(epochs=0))
    tuning.grid_search(model, scenes, room, tuning.Grid(), 1)
    assert sorted(a for a in attrs if calls[a] == 0) == sorted(RETIRED)


def test_prediction_calls_no_retired_network_target(monkeypatch):
    """``network.encode`` and ``network.forward`` still resolve, so the probe
    table finds them, but neither runs when one scene or many are
    predicted; ``batch_forward`` does, once per chunk."""
    targets = {attr for module, attr, _, _ in _probes().TARGETS
               if module is network}
    assert NETWORK_RETIRED | {"batch_forward"} <= targets
    assert all(callable(getattr(network, attr)) for attr in NETWORK_RETIRED)
    calls = Counter()
    for attr in NETWORK_RETIRED | {"batch_forward"}:
        def spy(*args, _real=getattr(network, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(network, attr, spy)
    scenes = [Scene(str(i), (Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0)),
                    ((0, 1),)) for i in range(3)]
    room = RoomFeature(np.zeros(4))
    model, _ = train(scenes, room,
                     EncoderConfig(input_dim=18, max_people=25,
                                   layer_widths=(8, 16)),
                     HeadConfig(input_dim=20, hidden_widths=(16,),
                                output_dim=120),
                     TrainConfig(epochs=0))
    network.predict_heatmaps(scenes[:1], model, room)
    network.predict_heatmaps(scenes, model, room)
    postprocess.predict_scene(scenes[0], model, room)
    assert calls == Counter(batch_forward=3)


def _dead_imports(path):
    """Names a module imports but never references (``__future__`` aside)."""
    tree = ast.parse(path.read_text(), str(path))
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
    src = Path(ospace.__file__).resolve().parent
    retired = {"tuning": RETIRED, "network": NETWORK_RETIRED}
    dead = {(path.stem, name) for path in src.glob("*.py")
            if path.name != "__init__.py" for name in _dead_imports(path)}
    stray = sorted(f"{module}.{name}" for module, name in dead
                   if name not in retired.get(module, ()))
    assert stray == []
    # the guard does see the imports kept on purpose
    assert {name for module, name in dead if module == "tuning"} == RETIRED
