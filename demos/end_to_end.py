# Full pipeline: synthesize scenes, train, tune, evaluate
#
# Generates a few hundred annotated scenes with people standing on circles,
# fits the heatmap regressor, grid-searches the post-processing parameters
# on a held-out tune split, and reports group F1 on the test split at two
# matching tolerances.

import time
from fractions import Fraction

import numpy as np

from ospace.dataset import SplitRatios, sequential_split
from ospace.encoder import EncoderConfig
from ospace.evaluation import aggregate, format_tolerance, match_scene
from ospace.head import HeadConfig
from ospace.network import TrainConfig, train
from ospace.postprocess import predict_scene
from ospace.room import RoomFeature
from ospace.synthetic import SynthConfig, generate
from ospace.tuning import Grid, grid_search

t0 = time.monotonic()
scenes, _ = generate(SynthConfig(seed=3, n_scenes=1000, groups_per_scene=(1, 3),
                                 group_size=(2, 6), jitter_m=0.05,
                                 jitter_deg=5.0, singleton_count=(0, 2)))
train_s, tune_s, test_s = sequential_split(scenes, SplitRatios(0.8, 0.1, 0.1))
print(f"scenes: {len(train_s)} train / {len(tune_s)} tune / {len(test_s)} test")

room = RoomFeature(np.zeros(16))
enc_cfg = EncoderConfig(input_dim=18, max_people=25, layer_widths=(64, 128, 256))
head_cfg = HeadConfig(input_dim=272, hidden_widths=(256,), output_dim=120)
cfg = TrainConfig(epochs=60, batch_size=32, learning_rate=1e-3,
                  optimizer="adam", seed=0)
model, trace = train(train_s, room, enc_cfg, head_cfg, cfg, val_scenes=tune_s)
print(f"loss: {trace[0].train_loss:.4f} -> {trace[-1].train_loss:.4f} "
      f"over {len(trace)} epochs")

params, tune_f1, _ = grid_search(model, tune_s, room, Grid(), Fraction(2, 3))
print(f"tuned parameters: threshold {params.nms_threshold}, "
      f"separation {params.min_group_separation_m} m, "
      f"assign {params.max_assign_dist_m} m, stride {params.stride_m} m "
      f"(tune F1 {tune_f1:.3f})")

for tol in (Fraction(2, 3), Fraction(1)):
    counts = [match_scene(predict_scene(s, model, room, params)[2], s.groups, tol)
              for s in test_s]
    m = aggregate(counts, tol)
    print(f"test T={format_tolerance(tol)}: precision {m.precision:.3f} "
          f"recall {m.recall:.3f} F1 {m.f1:.3f}")

print(f"total {time.monotonic() - t0:.1f}s")
