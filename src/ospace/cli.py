"""Command-line pipeline: ingest, synth, train, tune, predict, eval, render.

Each command has one mode.  ``predict`` writes groups and detections, and
with ``--heatmaps DIR`` also the heatmaps it predicted them from, one PGM
per frame; ``render`` draws ground-truth heatmaps from the annotations.
``tune`` and ``predict`` get every frame's heatmap from one
``network.predict_heatmaps`` call: in a file of two or more frames, a
frame's heatmap bits depend on that frame alone, not on the others or on
their order.
``eval --gt`` reads ground truth with the scene reader, minus its position
check, and holds each prediction's groups to the paired frame under the
same rule, ``core.check_groups``.

The room input is as wide as the room given, zero-wide with no room flag:
``train`` sizes the head to it, and ``tune`` and ``predict`` refuse a room
of another width than the checkpoint's.

Every command is deterministic given its flags; randomness only enters
through --seed.  Exit codes: 0 success; 1 usage error (a bad flag value,
a negative --seed and a grid whose room size overflows a float included,
or a ``train`` model too large to fit in memory, named by its parameter
count and width flags), or a path that cannot be opened as asked (a
missing file or directory, a directory given as a file, a file given as a
directory); 2 data error (malformed files, shape mismatches, other I/O
errors); 3 numeric failure (training divergence, infeasible synthesis, or
a ``synth --jitter-deg`` whose yaw draw overflows a float, named by the
flag).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .checkpoint import load_model, save_model
from .core import DEFAULT_SPEC, OSpaceMap, RoomSpec, check_groups
from .dataset import (
    SplitRatios,
    augment,
    load_scenes,
    read_records,
    save_scenes,
    sequential_split,
)
from .encoder import EncoderConfig
from .evaluation import aggregate, format_tolerance, match_scene, snap_tolerance
from .groundtruth import DEFAULT_STRIDE_M, GaussianParams, scene_target
from .head import HeadConfig
from .jsondoc import from_obj, get_field, get_int_arrays, load, to_obj
from .layers import layer_shapes, store_size
from .network import TrainConfig, TrainingDivergedError, predict_heatmaps, train
from .postprocess import AssignParams, assign_groups, nms
from .room import (
    RoomFeature,
    load_layout,
    load_precomputed,
    room_feature_from_layout,
)
from .synthetic import SynthConfig, SynthesisError, generate
from .tuning import Grid, grid_search

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Bad flag values; reported like argparse errors, exit code 1."""


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rows", type=int, default=DEFAULT_SPEC.rows,
                   help="grid rows (default %(default)s)")
    p.add_argument("--cols", type=int, default=DEFAULT_SPEC.cols,
                   help="grid columns (default %(default)s)")
    p.add_argument("--cell", type=float, default=DEFAULT_SPEC.cell_m,
                   help="cell size in meters (default %(default)s)")


def _spec_from_args(args) -> RoomSpec:
    return RoomSpec(rows=args.rows, cols=args.cols, cell_m=args.cell)


def _add_room_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--room-file", help="precomputed room feature file (dim N header)")
    src.add_argument("--layout", help="layout map JSON for occupancy features")


def _resolve_room(args, spec: RoomSpec) -> tuple[RoomFeature, str | None]:
    """The room of ``--room-file`` or ``--layout`` and the file it came from;
    with neither, a zero-wide room and None."""
    if args.room_file:
        what = f"room file {args.room_file}"
        with open(args.room_file, "rb") as f:
            text = f.read()
        try:
            return load_precomputed(text), what
        except ValueError as e:
            raise ValueError(f"{what}: {e}") from None
    if args.layout:
        what = f"layout {args.layout}"
        layout = load_layout(args.layout)
        got = (layout.spec.rows, layout.spec.cols)
        if got != (spec.rows, spec.cols):
            raise ValueError(f"{what}: grid {got[0]}x{got[1]} does not match "
                             f"the {spec.rows}x{spec.cols} grid of the run")
        return room_feature_from_layout(layout), what
    return RoomFeature(np.zeros(0)), None


def _load_model_and_room(args):
    """The ``args.model`` checkpoint and the room given, as wide as its input."""
    model = load_model(args.model)
    room, what = _resolve_room(args, model.spec)
    want = model.room_dim
    if room.dim != want:
        given = (f"{what} holds {room.dim}" if what
                 else "no room flag was given (0 values)")
        raise ValueError(f"checkpoint {args.model} takes a room of {want} "
                         f"values, but {given}")
    return model, room


def _csv_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _csv_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _params_from_args(args) -> AssignParams:
    base = AssignParams()
    if getattr(args, "params", None):
        what = f"params file {args.params}"
        base = from_obj(AssignParams, load(args.params, what), "", what)
    return _usage_guard(lambda: AssignParams(
        nms_threshold=base.nms_threshold if args.threshold is None else args.threshold,
        min_group_separation_m=(base.min_group_separation_m
                                if args.separation is None else args.separation),
        max_assign_dist_m=(base.max_assign_dist_m
                           if args.assign_dist is None else args.assign_dist),
        stride_m=base.stride_m if args.stride is None else args.stride,
    ))


def _write_pgm(heatmap: OSpaceMap, path) -> None:
    v = heatmap.values
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"P2\n{v.shape[1]} {v.shape[0]}\n255\n")
        for row in v:
            f.write(" ".join(str(int(round(x * 255))) for x in row))
            f.write("\n")


def _write_heatmap_csv(heatmap: OSpaceMap, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in heatmap.values:
            f.write(",".join(repr(float(x)) for x in row))
            f.write("\n")


def _check_file_names(scenes) -> None:
    """Reject, before anything is written, a frame_id that names no plain file
    or that an earlier frame already has (its heatmap would be overwritten)."""
    first = {}
    for k, fid in enumerate((s.frame_id for s in scenes), start=1):
        if fid in ("", ".", "..") or "\0" in fid or os.path.basename(fid) != fid:
            raise ValueError(f"frame_id {fid!r} is not a plain file name "
                             "(heatmaps are written as <frame_id>.pgm)")
        if fid in first:
            raise ValueError(f"frame_id {fid!r} is shared by frames {first[fid]} "
                             f"and {k} (heatmaps are written as <frame_id>.pgm)")
        first[fid] = k


def _write_heatmaps(directory, scenes, heatmaps, csv: bool) -> None:
    """Each heatmap as <frame_id>.pgm, and .csv with ``csv``, in ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for scene, heatmap in zip(scenes, heatmaps):
        path = os.path.join(directory, scene.frame_id)
        _write_pgm(heatmap, path + ".pgm")
        if csv:
            _write_heatmap_csv(heatmap, path + ".csv")


def _check_stride(stride: float) -> None:
    if not (math.isfinite(stride) and stride >= 0):
        raise ValueError(f"--stride must be finite and non-negative, got {stride}")


def _usage_guard(build):
    """Run a config-building closure; bad flag values become usage errors."""
    try:
        return build()
    except ValueError as e:
        raise _UsageError(str(e)) from None


def _cmd_ingest(args) -> int:
    spec = _usage_guard(lambda: _spec_from_args(args))
    scenes = load_scenes(args.input, spec)
    if args.augment:
        scenes = augment(scenes, spec)
    save_scenes(scenes, args.output)
    print(f"wrote {len(scenes)} scenes to {args.output}")
    return 0


def _cmd_synth(args) -> int:
    def build():
        return _spec_from_args(args), SynthConfig(
            seed=args.seed,
            n_scenes=args.scenes,
            groups_per_scene=tuple(args.groups),
            group_size=tuple(args.group_size),
            circle_radius_m=args.radius,
            min_intergroup_dist_m=args.min_dist,
            singleton_count=tuple(args.singles),
            jitter_m=args.jitter_m,
            jitter_deg=args.jitter_deg,
        )

    spec, cfg = _usage_guard(build)
    try:
        scenes, centers = generate(cfg, spec)
    except OverflowError as e:  # generate raises it for a yaw jitter draw only
        raise SynthesisError(f"--jitter-deg {args.jitter_deg}: {e}") from None
    save_scenes(scenes, args.output)
    if args.centers:
        with open(args.centers, "w", encoding="utf-8") as f:
            for s, cs in zip(scenes, centers):
                f.write(json.dumps({"frame_id": s.frame_id,
                                    "centers": [[c.x, c.y] for c in cs]}))
                f.write("\n")
    print(f"wrote {len(scenes)} scenes to {args.output}")
    return 0


def _cmd_train(args) -> int:
    def build():
        _check_stride(args.stride)
        spec = _spec_from_args(args)
        enc_cfg = EncoderConfig(max_people=args.max_people,
                                layer_widths=_csv_ints(args.enc_widths))
        cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch,
                          learning_rate=args.lr, optimizer=args.optimizer,
                          multi_group_weight=args.weight, seed=args.seed)
        return (spec, SplitRatios(*args.split), enc_cfg, cfg,
                GaussianParams(sigma_m=args.sigma))

    spec, ratios, enc_cfg, cfg, gauss = _usage_guard(build)
    room, _ = _resolve_room(args, spec)
    head_cfg = _usage_guard(lambda: HeadConfig(
        input_dim=room.dim + enc_cfg.output_dim,
        hidden_widths=_csv_ints(args.hidden), output_dim=spec.n_cells))
    scenes = load_scenes(args.input, spec, enc_cfg.max_people)
    if not scenes:
        raise ValueError(f"no scenes in {args.input}")
    train_scenes, val_scenes, _ = sequential_split(scenes, ratios)
    if args.augment == "all":
        train_scenes = augment(train_scenes, spec)
        val_scenes = augment(val_scenes, spec)
    elif args.augment == "train":
        train_scenes = augment(train_scenes, spec)

    n_params = store_size(layer_shapes(enc_cfg, head_cfg))
    too_large = _UsageError(
        f"a model of {n_params} parameters (--enc-widths {args.enc_widths}, "
        f"--hidden {args.hidden}) does not fit in memory")
    if n_params * 8 > sys.maxsize:  # its float64 store: past any address space
        raise too_large
    try:
        model, trace = train(train_scenes, room, enc_cfg, head_cfg, cfg,
                             val_scenes=val_scenes, spec=spec,
                             stride_m=args.stride, gauss=gauss)
    except MemoryError:
        raise too_large from None
    save_model(model, args.output)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write("epoch,train_loss,val_loss\n")
            for e in trace:
                val = "" if e.val_loss is None else repr(e.val_loss)
                f.write(f"{e.epoch},{repr(e.train_loss)},{val}\n")
    if trace:
        last = trace[-1]
        val = "n/a" if last.val_loss is None else f"{last.val_loss:.6f}"
        print(f"trained {len(trace)} epochs; final train loss "
              f"{last.train_loss:.6f}, val loss {val}")
    else:
        print("trained 0 epochs; checkpoint is the seeded initialization")
    print(f"wrote model to {args.output}")
    return 0


def _cmd_tune(args) -> int:
    def build():
        grid = Grid(
            nms_thresholds=_csv_floats(args.thresholds),
            separations_m=_csv_floats(args.separations),
            assign_dists_m=_csv_floats(args.assign_dists),
            strides_m=_csv_floats(args.strides),
        )
        return grid, snap_tolerance(args.tolerance)

    grid, t = _usage_guard(build)
    model, room = _load_model_and_room(args)
    scenes = load_scenes(args.input, model.spec, model.encoder.config.max_people)
    best, best_f1, table = grid_search(model, scenes, room, grid, t)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(to_obj(best), f)
            f.write("\n")
    if args.table:
        with open(args.table, "w", encoding="utf-8") as f:
            f.write("nms_threshold,min_group_separation_m,max_assign_dist_m,"
                    "stride_m,tp,fp,fn,precision,recall,f1\n")
            for r in table:
                p, m = r.params, r.metrics
                f.write(f"{repr(p.nms_threshold)},{repr(p.min_group_separation_m)},"
                        f"{repr(p.max_assign_dist_m)},{repr(p.stride_m)},"
                        f"{m.tp},{m.fp},{m.fn},{repr(m.precision)},"
                        f"{repr(m.recall)},{repr(m.f1)}\n")
    print(f"best F1 {best_f1:.4f} at T={format_tolerance(t)}: "
          f"threshold={best.nms_threshold} separation={best.min_group_separation_m} "
          f"assign_dist={best.max_assign_dist_m} stride={best.stride_m}")
    return 0


def _cmd_predict(args) -> int:
    if args.csv and not args.heatmaps:
        raise _UsageError("--csv needs --heatmaps")
    model, room = _load_model_and_room(args)
    scenes = load_scenes(args.input, model.spec, model.encoder.config.max_people)
    params = _params_from_args(args)
    if args.heatmaps:
        _check_file_names(scenes)
    heatmaps = predict_heatmaps(scenes, model, room)
    with open(args.output, "w", encoding="utf-8") as f:
        for scene, heatmap in zip(scenes, heatmaps):
            detections = nms(heatmap, params)
            groups = assign_groups(scene.persons, detections, params)
            f.write(json.dumps({
                "frame_id": scene.frame_id,
                "detections": [
                    {"x": d.center.x, "y": d.center.y, "score": d.score}
                    for d in detections
                ],
                "groups": [list(b) for b in groups],
            }))
            f.write("\n")
    if args.heatmaps:
        _write_heatmaps(args.heatmaps, scenes, heatmaps, args.csv)
    print(f"wrote predictions for {len(scenes)} scenes to {args.output}")
    return 0


def _load_group_records(path) -> list[tuple]:
    """(frame_id, groups, where) of each record of the predictions ``path``."""
    with open(path, "rb") as f:
        return read_records(f, lambda obj, where: (
            get_field(obj, "", "frame_id", (str,), where),
            get_int_arrays(obj, "", "groups", where), where), path)


def _cmd_eval(args) -> int:
    def build():
        if any(c in args.split for c in ',"\r\n'):
            raise ValueError(f"--split {args.split!r} would break the CSV: it "
                             "holds a comma, a double quote or a line break")
        return [snap_tolerance(t) for t in (args.tolerance or ["2/3", "1"])]

    tolerances = _usage_guard(build)
    pred = _load_group_records(args.pred)
    gt = load_scenes(args.gt, spec=None)
    if len(pred) > len(gt):
        pf, _, where = pred[len(gt)]
        raise ValueError(f"{where}: frame_id {pf!r}, but {args.gt} has no "
                         f"frame {len(gt) + 1}")
    if len(gt) > len(pred):
        raise ValueError(f"{args.pred} has no prediction for frame {len(pred) + 1} "
                         f"of {args.gt} ({gt[len(pred)].frame_id!r})")
    for k, ((pf, groups, where), scene) in enumerate(zip(pred, gt), start=1):
        if pf != scene.frame_id:
            raise ValueError(f"{where}: frame_id {pf!r}, but frame {k} of {args.gt} "
                             f"is {scene.frame_id!r}")
        check_groups(groups, len(scene.persons), where)
    rows = []
    for t in tolerances:
        counts = [match_scene(p[1], g.groups, t) for p, g in zip(pred, gt)]
        rows.append(aggregate(counts, t))
    lines = ["split,T,tp,fp,fn,precision,recall,f1"]
    for m in rows:
        lines.append(f"{args.split},{format_tolerance(m.tolerance)},{m.tp},"
                     f"{m.fp},{m.fn},{repr(m.precision)},{repr(m.recall)},"
                     f"{repr(m.f1)}")
    csv_text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(csv_text)
    for m in rows:
        print(f"{args.split} T={format_tolerance(m.tolerance)}: "
              f"tp={m.tp} fp={m.fp} fn={m.fn} "
              f"P={m.precision:.4f} R={m.recall:.4f} F1={m.f1:.4f}")
    return 0


def _cmd_render(args) -> int:
    def build():
        _check_stride(args.stride)
        return _spec_from_args(args), GaussianParams(args.sigma)

    spec, gauss = _usage_guard(build)
    scenes = load_scenes(args.input, spec)
    _check_file_names(scenes)
    maps = [scene_target(s, args.stride, gauss, spec) for s in scenes]
    _write_heatmaps(args.output, scenes, maps, args.csv)
    print(f"rendered {len(scenes)} heatmaps into {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospace",
        description="Detect conversational groups from annotated scenes via "
                    "o-space heatmap regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a scene file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--augment", action="store_true",
                   help="also write horizontal/vertical/double flips")
    _add_spec_args(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic scenes")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenes", type=int, default=100)
    p.add_argument("--groups", type=int, nargs=2, default=[1, 3],
                   metavar=("LO", "HI"))
    p.add_argument("--group-size", type=int, nargs=2, default=[2, 6],
                   metavar=("LO", "HI"))
    p.add_argument("--singles", type=int, nargs=2, default=[0, 2],
                   metavar=("LO", "HI"))
    p.add_argument("--radius", type=float, default=0.7,
                   help="group circle radius in meters")
    p.add_argument("--min-dist", type=float, default=2.0,
                   help="minimum distance between group centers")
    p.add_argument("--jitter-m", type=float, default=0.0)
    p.add_argument("--jitter-deg", type=float, default=0.0)
    p.add_argument("--centers", help="sidecar JSONL of true o-space centers")
    _add_spec_args(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit the encoder and head on scenes")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=["sgd", "adam"], default="adam")
    p.add_argument("--weight", type=float, default=1.0,
                   help="loss weight for scenes with 2+ groups")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=float, default=DEFAULT_STRIDE_M)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--split", type=float, nargs=3, default=[0.8, 0.1, 0.1],
                   metavar=("TRAIN", "VAL", "TEST"))
    p.add_argument("--augment", choices=["none", "train", "all"],
                   default="train",
                   help="flip augmentation: nothing, training split, or all splits")
    p.add_argument("--enc-widths", default="64,256,1024",
                   help="comma-separated encoder layer widths")
    p.add_argument("--max-people", type=int, default=25)
    p.add_argument("--hidden", default="1024",
                   help="comma-separated head hidden widths")
    p.add_argument("--trace", help="write per-epoch loss CSV here")
    _add_room_args(p)
    _add_spec_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tune", help="grid-search assignment hyperparameters")
    p.add_argument("model")
    p.add_argument("input", help="validation scenes (JSONL)")
    p.add_argument("-o", "--output", help="write best parameters JSON here")
    p.add_argument("--table", help="write the full result table CSV here")
    p.add_argument("-T", "--tolerance", default="2/3",
                   help="matching tolerance, e.g. 2/3 or 1")
    p.add_argument("--thresholds", default="0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--separations", default="0.5,1.0,1.5")
    p.add_argument("--assign-dists", default="0.5,1.0,1.5,2.0")
    p.add_argument("--strides", default="0.4,0.7,1.0")
    _add_room_args(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("predict", help="predict detections and groups")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--params", help="assignment parameters JSON from tune")
    p.add_argument("--threshold", type=float)
    p.add_argument("--separation", type=float)
    p.add_argument("--assign-dist", type=float)
    p.add_argument("--stride", type=float)
    p.add_argument("--heatmaps", metavar="DIR", help="also write DIR/<frame_id>.pgm")
    p.add_argument("--csv", action="store_true", help="--heatmaps also as CSV")
    _add_room_args(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score predicted groups against ground truth")
    p.add_argument("--pred", required=True,
                   help="predictions JSONL (frame_id + groups)")
    p.add_argument("--gt", required=True, help="ground-truth scenes JSONL")
    p.add_argument("-T", "--tolerance", action="append",
                   help="matching tolerance; repeatable (default 2/3 and 1)")
    p.add_argument("-o", "--output", help="write the metrics CSV here")
    p.add_argument("--split", default="test", help="split label for the CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("render", help="export ground-truth heatmaps as PGM images")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--stride", type=float, default=DEFAULT_STRIDE_M)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--csv", action="store_true",
                   help="also write raw values as CSV")
    _add_spec_args(p)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (_UsageError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, SynthesisError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, KeyError, ValueError) as e:  # SceneParseError included
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
