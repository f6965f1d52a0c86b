"""The two benchmark workloads and the pipeline they drive.

Both run the whole pipeline, one client in a closed loop: set-up (synthetic
scenes written to JSONL and parsed back, training split flip-augmented),
training, ``grid_search``, checkpoint save/load round trips, and
single-scene ``predict_scene`` calls on the test split.  They differ in
sizes, so each stresses other layers:

- ``acceptance`` is the acceptance-suite configuration on sparse scenes.
  The full 216-point grid makes tuning (NMS, assignment, matching) the
  Python-bound stage, and training time goes mostly to the batched encoder.
- ``wide`` is the CLI default widths (about 2.5M parameters) on crowded
  scenes.  The optimizer step, the 56 MB JSON checkpoint and the per-row
  encoder at predict time dominate.  Its grid holds the one default point,
  so tuning costs it only heatmaps and tuning-loop changes should not move
  it.

Every call into ospace goes through a module attribute (``network.train``,
not a name imported here) so that a traced run sees it.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
from dataclasses import dataclass, replace
from fractions import Fraction
from time import perf_counter

import numpy as np

from ospace import dataset, encoder, evaluation, network, postprocess
from ospace import synthetic, tuning
from ospace.room import RoomFeature

T23 = Fraction(2, 3)
T1 = Fraction(1)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: synthetic.SynthConfig
    n_train: int
    n_tune: int
    n_test: int
    enc_widths: tuple[int, ...]
    hidden: tuple[int, ...]
    room_dim: int
    epochs: int
    batch_size: int
    grid: tuning.Grid
    # rounds of (tune, checkpoint round trips, predict slice, set-ups) that
    # a measured run repeats after training; metrics average over them
    rounds: int
    f1_gates: tuple[float, float] | None


_DEFAULT = postprocess.AssignParams()

WORKLOADS = {
    "acceptance": Workload(
        name="acceptance",
        synth=synthetic.SynthConfig(groups_per_scene=(1, 3), group_size=(2, 6),
                                    singleton_count=(0, 2), jitter_m=0.05,
                                    jitter_deg=5.0),
        n_train=400, n_tune=100, n_test=300,
        enc_widths=(64, 128, 256), hidden=(256,), room_dim=16,
        epochs=25, batch_size=32,
        grid=tuning.Grid(),
        rounds=5,
        f1_gates=(0.90, 0.75),
    ),
    "wide": Workload(
        name="wide",
        synth=synthetic.SynthConfig(groups_per_scene=(3, 3), group_size=(4, 6),
                                    singleton_count=(2, 4), jitter_m=0.05,
                                    jitter_deg=5.0),
        n_train=120, n_tune=100, n_test=100,
        enc_widths=(64, 256, 1024), hidden=(1024,), room_dim=1024,
        epochs=3, batch_size=16,
        grid=tuning.Grid(nms_thresholds=(_DEFAULT.nms_threshold,),
                         separations_m=(_DEFAULT.min_group_separation_m,),
                         assign_dists_m=(_DEFAULT.max_assign_dist_m,),
                         strides_m=(_DEFAULT.stride_m,)),
        # a round trip of its 56 MB checkpoint takes about 6 s, so each
        # round holds one and the rounds are the ckpt_* sample count
        rounds=6,
        f1_gates=None,
    ),
}


def _weights(model) -> list[np.ndarray]:
    return [a for layer in model.encoder.layers + model.head.layers
            for a in (layer.W, layer.b)]


def bit_identical(a, b) -> bool:
    wa, wb = _weights(a), _weights(b)
    return len(wa) == len(wb) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(wa, wb))


def covers_once(groups, n_persons: int) -> bool:
    return sorted(i for g in groups for i in g) == list(range(n_persons))


def partitions_sha256(test_scenes, partitions) -> str:
    blob = json.dumps([[s.frame_id, [list(g) for g in p]]
                       for s, p in zip(test_scenes, partitions)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """One client working through a workload; records timings and checks.

    An operation is a set-up, train, tune, checkpoint round trip, single
    scene prediction or F1 scoring.  It fails when it raises or a check on
    its output fails; ``problems`` says which.
    """

    def __init__(self, w: Workload, seed: int, tmp_dir: str):
        self.w = w
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {
            "setup": [], "train": [], "tune": [], "save": [], "load": [],
            "predict": []}
        self.facts: dict = {}
        self.room = RoomFeature(np.zeros(w.room_dim))
        self.splits = None
        self.model = self.loaded = self.params = self.table = None
        self.first: list = []

    def op(self, ok: bool = True, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def setup(self) -> None:
        """Synthesize, write JSONL, parse it back, flip-augment train."""
        w = self.w
        t0 = perf_counter()
        scenes, _ = synthetic.generate(replace(
            w.synth, seed=self.seed, n_scenes=w.n_train + w.n_tune + w.n_test))
        bounds = {"train": (0, w.n_train),
                  "tune": (w.n_train, w.n_train + w.n_tune),
                  "test": (w.n_train + w.n_tune, len(scenes))}
        splits = {}
        for split, (lo, hi) in bounds.items():
            path = os.path.join(self.tmp_dir, f"{split}.jsonl")
            dataset.save_scenes(scenes[lo:hi], path)
            splits[split] = dataset.load_scenes(path)
        splits["train"] = dataset.augment(splits["train"])
        self.times["setup"].append(perf_counter() - t0)
        if self.splits is None:
            self.splits = splits
        self.op(splits == self.splits, "set-up gave other scenes on a repeat")

    def _configs(self, epochs: int):
        w = self.w
        enc_cfg = encoder.EncoderConfig(layer_widths=w.enc_widths)
        head_cfg = network.HeadConfig(input_dim=w.room_dim + enc_cfg.output_dim,
                                      hidden_widths=w.hidden)
        cfg = network.TrainConfig(epochs=epochs, batch_size=w.batch_size,
                                  learning_rate=1e-3, optimizer="adam",
                                  seed=self.seed)
        return enc_cfg, head_cfg, cfg

    def warm_up(self) -> None:
        """A few untimed, uncounted training steps.

        The first training call in a process runs markedly slower (the
        allocator and BLAS threads settle), which would otherwise add a
        varying start-up cost to the one training sample a run takes.
        """
        n = 4 * self.w.batch_size
        network.train(self.splits["train"][:n], self.room, *self._configs(1),
                      val_scenes=self.splits["tune"][:n])

    def train(self) -> None:
        w = self.w
        train_scenes = self.splits["train"]
        t0 = perf_counter()
        self.model, _ = network.train(train_scenes, self.room,
                                      *self._configs(w.epochs),
                                      val_scenes=self.splits["tune"])
        self.times["train"].append(perf_counter() - t0)
        self.loaded = self.model
        self.facts["train_scenes"] = len(train_scenes) * w.epochs
        self.facts["params"] = sum(a.size for a in _weights(self.model))
        self.op()

    def tune(self) -> None:
        t0 = perf_counter()
        params, _, table = tuning.grid_search(self.model, self.splits["tune"],
                                              self.room, self.w.grid, T23)
        self.times["tune"].append(perf_counter() - t0)
        if self.params is None:
            self.params, self.table = params, table
        self.op(params == self.params and table == self.table,
                "grid search gave another result on a repeat")
        self.facts["grid_points"] = len(table)

    def checkpoint(self) -> None:
        """Save, load, and require the loaded weights bit for bit."""
        path = os.path.join(self.tmp_dir, "model.json")
        try:
            t0 = perf_counter()
            network.save_model(self.model, path)
            t1 = perf_counter()
            loaded = network.load_model(path)
            t2 = perf_counter()
        except Exception as e:  # a broken round trip is counted, not fatal
            self.op(False, f"checkpoint round trip raised {e!r}")
            return
        self.times["save"].append(t1 - t0)
        self.times["load"].append(t2 - t1)
        self.facts["checkpoint_bytes"] = os.path.getsize(path)
        ok = bit_identical(self.model, loaded)
        self.op(ok, "loaded checkpoint differs from the saved model")
        if ok:
            self.loaded = loaded

    def predict(self, seconds: float | None) -> None:
        """Closed-loop predictions over the test split with the loaded model.

        ``None`` makes exactly one pass, so the work is fixed by the seed.
        Otherwise whole passes repeat until ``seconds`` have passed.  The
        first pass's partitions must cover every person once; later passes
        must repeat them.
        """
        test = self.splits["test"]
        deadline = None if seconds is None else perf_counter() + seconds
        while True:
            for i, scene in enumerate(test):
                t0 = perf_counter()
                try:
                    _, _, groups = postprocess.predict_scene(
                        scene, self.loaded, self.room, self.params)
                except Exception as e:  # a failed call is counted, not fatal
                    self.times["predict"].append(perf_counter() - t0)
                    self.op(False, f"predict {scene.frame_id} raised {e!r}")
                    groups = ()
                else:
                    self.times["predict"].append(perf_counter() - t0)
                    if len(self.first) > i:
                        self.op(groups == self.first[i],
                                f"predict {scene.frame_id}: partition changed "
                                f"between passes")
                    else:
                        self.op(covers_once(groups, len(scene.persons)),
                                f"predict {scene.frame_id}: partition does "
                                f"not cover each person once")
                if len(self.first) == i:
                    self.first.append(groups)
            if deadline is None or perf_counter() >= deadline:
                break

    def score(self) -> None:
        """Test-split F1 of the first pass, held to the workload's gates."""
        test = self.splits["test"]
        for t, key in ((T23, "f1_t23"), (T1, "f1_t1")):
            counts = [evaluation.match_scene(p, s.groups, t)
                      for s, p in zip(test, self.first)]
            self.facts[key] = evaluation.aggregate(counts, t).f1
        self.facts["partitions_sha256"] = partitions_sha256(test, self.first)
        self.facts["params_tuned"] = [
            self.params.nms_threshold, self.params.min_group_separation_m,
            self.params.max_assign_dist_m, self.params.stride_m]
        gates = self.w.f1_gates
        if gates is not None:
            f23, f1 = self.facts["f1_t23"], self.facts["f1_t1"]
            self.op(f23 >= gates[0] and f1 >= gates[1],
                    f"test F1 {f23:.4f} at T=2/3 and {f1:.4f} at T=1 miss "
                    f"the gates {gates}")


def warm_up(w: Workload, seed: int, tmp_dir: str) -> None:
    s = Session(w, seed, tmp_dir)
    s.setup()
    s.warm_up()


def fixed(w: Workload, seed: int, tmp_dir: str) -> Session:
    """Each stage once and one predict pass: the work a trace counts."""
    s = Session(w, seed, tmp_dir)
    s.setup()
    s.train()
    s.tune()
    s.checkpoint()
    s.predict(None)
    s.score()
    return s


def measured(w: Workload, seed: int, tmp_dir: str, seconds: float) -> Session:
    """Train once, then repeat the other stages in rounds.

    Spreading repeats of each stage across the run, rather than running
    them back to back, keeps a slow spell of the machine from landing on
    every sample of one metric.
    """
    s = Session(w, seed, tmp_dir)
    s.setup()
    s.warm_up()
    s.train()
    for _ in range(w.rounds):
        s.tune()
        _repeat(s.checkpoint, 1.5)
        s.predict(seconds / w.rounds)
        _repeat(s.setup, 0.6)
    s.score()
    return s


def _repeat(stage, seconds: float) -> None:
    """Run ``stage`` once, then again until ``seconds`` have passed."""
    end = perf_counter() + seconds
    stage()
    while perf_counter() < end:
        stage()
