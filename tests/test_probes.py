"""The benchmark's trace probes must find every function they wrap.

The tracer skips a missing attribute silently, so renaming or removing a
function that ``perfbench/probes.py`` names would zero a per-layer metric
without any error; so would a module that still imports a probed function
but stops calling it.  The probe table is read from its file, without
writing anything next to it.
"""
import types
from collections import Counter
from pathlib import Path

import numpy as np

from ospace import network, postprocess, tuning
from ospace.core import Person, Scene
from ospace.encoder import EncoderConfig, init_encoder
from ospace.head import init_head
from ospace.network import HeadConfig, TrainConfig, train
from ospace.room import RoomFeature
# the probe targets ospace keeps only for the probe table, and which its
# dead-import rule therefore allows
from test_source_rules import NETWORK_RETIRED, RETIRED

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
    """``network.encode``, ``network.forward`` and ``network.init_encoder``
    still resolve, so the probe table finds them, but none runs when a
    model is trained or one scene or many are predicted; ``batch_forward``
    does, once per chunk."""
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


def test_mask_rows_reads_the_mask_encode_batch_is_given(monkeypatch):
    """``encoder.batch_row_yield`` is ``_mask_rows`` of ``encode_batch``'s
    arguments, which takes the second as the (B, P_max) mask: a signature
    that moved it would silently make the yield another number."""
    seen = []

    def spy(*args, _real=network.encode_batch, **kwargs):
        seen.append((args, kwargs))
        return _real(*args, **kwargs)

    monkeypatch.setattr(network, "encode_batch", spy)
    rng = np.random.default_rng(0)
    enc_w = init_encoder(EncoderConfig(input_dim=18, max_people=25,
                                       layer_widths=(8, 16)), rng)
    head_w = init_head(HeadConfig(input_dim=20, hidden_widths=(16,),
                                  output_dim=120), rng)
    counts = (3, 1, 5, 2)
    network.batch_forward([rng.standard_normal((c, 18)) for c in counts],
                          np.zeros(4), enc_w, head_w)
    [(args, kwargs)] = seen
    assert kwargs == {}
    assert _probes()._mask_rows(args, None) == (sum(counts),
                                                len(counts) * max(counts))
