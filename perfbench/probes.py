"""Where a traced run puts its spans, and the per-layer metrics it derives.

Each target is (module, attribute, span name, value hook).  The attribute
is the name the caller looks up, so a function imported into several
modules is wrapped at each site under one span name.  Span names are
``<defining module>.<function>``; the layers are ospace's modules.
"""
from __future__ import annotations

from collections import defaultdict

from ospace import dataset, evaluation, network, postprocess, synthetic, tuning


def _mask_rows(args, result):
    mask = args[1]
    return (int(mask.sum()), int(mask.size))


def _rows(args, result):
    return len(args[0])


def _count(args, result):
    return len(result)


def _real_groups(args, result):
    return sum(1 for g in result if len(g) >= 2)


TARGETS = [
    # calls the benchmark makes: each is the root of one trace
    (synthetic, "generate", "synthetic.generate", None),
    (dataset, "save_scenes", "dataset.save_scenes", None),
    (dataset, "load_scenes", "dataset.load_scenes", None),
    (dataset, "augment", "dataset.augment", None),
    (network, "train", "network.train", None),
    (tuning, "grid_search", "tuning.grid_search", None),
    (network, "save_model", "network.save_model", None),
    (network, "load_model", "network.load_model", None),
    (postprocess, "predict_scene", "postprocess.predict_scene", None),
    (evaluation, "match_scene", "evaluation.match_scene", None),
    (evaluation, "aggregate", "evaluation.aggregate", None),
    # inside network.train and network.predict_heatmap
    (network, "fit_norm_stats", "dataset.fit_norm_stats", None),
    (network, "scene_features", "dataset.scene_features", None),
    (network, "scene_target", "groundtruth.scene_target", None),
    (network, "example_weight", "network.example_weight", None),
    (network, "init_encoder", "encoder.init_encoder", None),
    (network, "init_head", "network.init_head", None),
    (network, "batch_forward", "network.batch_forward", None),
    (network, "pad_features", "encoder.pad_features", None),
    (network, "encode_batch", "encoder.encode_batch", _mask_rows),
    (network, "head_forward", "network.head_forward", None),
    (network, "batch_loss", "network.batch_loss", None),
    (network, "batch_backward", "network.batch_backward", None),
    (network, "head_backward", "network.head_backward", None),
    (network, "encode_batch_backward", "encoder.encode_batch_backward", None),
    (network, "encode", "encoder.encode", _rows),
    (network, "forward", "network.forward", None),
    # inside postprocess.predict_scene
    (postprocess, "predict_heatmap", "network.predict_heatmap", None),
    (postprocess, "nms", "postprocess.nms", _count),
    (postprocess, "assign_groups", "postprocess.assign_groups", _real_groups),
    # inside tuning.grid_search
    (tuning, "thread_map", "parallel.thread_map", None),
    (tuning, "predict_heatmap", "network.predict_heatmap", None),
    (tuning, "grid_search_heatmaps", "tuning.grid_search_heatmaps", None),
    (tuning, "snap_tolerance", "evaluation.snap_tolerance", None),
    (tuning, "nms", "postprocess.nms", _count),
    (tuning, "assign_groups", "postprocess.assign_groups", _real_groups),
    (tuning, "match_scene", "evaluation.match_scene", None),
    (tuning, "aggregate", "evaluation.aggregate", None),
    # inside evaluation.match_scene, group_matches and aggregate
    (evaluation, "snap_tolerance", "evaluation.snap_tolerance", None),
]


def install(tracer) -> None:
    for module, attr, name, value in TARGETS:
        tracer.wrap(module, attr, name, value,
                    propagate=name == "parallel.thread_map")


def per_layer(records, facts: dict) -> dict[str, float]:
    """Per-layer metrics from span records plus facts the pipeline returned.

    Sums run over the whole traced pass, except where a root is named:
    features and targets count inside training only, head_forward inside
    training (``network.forward`` covers it at predict time), and
    detections inside ``predict_scene`` only, since tuning runs NMS at
    every grid threshold.  A layer with no spans reports 0.
    """
    by_name = defaultdict(list)
    for r in records:
        by_name[r["name"]].append(r)

    def spans(name, root=None):
        return [r for r in by_name[name] if root is None or r["root"] == root]

    def total(name, root=None):
        return sum(r["dur"] for r in spans(name, root))

    def own(name):
        return sum(r["self"] for r in spans(name))

    def calls(name, root=None):
        return len(spans(name, root))

    def values(name, root=None):
        return [r["value"] for r in spans(name, root) if r["value"] is not None]

    train, predict = "network.train", "postprocess.predict_scene"
    rows = values("encoder.encode_batch")
    real, slots = sum(r for r, _ in rows), sum(s for _, s in rows)
    detections = sum(values("postprocess.nms", predict))
    groups = sum(values("postprocess.assign_groups", predict))
    return {
        "network.train_self_s": own(train),
        "network.steps": calls("network.batch_backward", train),
        "network.params": facts["params"],
        "network.head_forward_s": total("network.head_forward", train),
        "network.head_backward_s": total("network.head_backward"),
        "network.forward_s": total("network.forward"),
        "network.predict_heatmap_s": total("network.predict_heatmap"),
        "network.checkpoint_bytes": facts["checkpoint_bytes"],
        "encoder.encode_batch_s": total("encoder.encode_batch"),
        "encoder.encode_batch_backward_s": total("encoder.encode_batch_backward"),
        "encoder.batch_row_yield": real / slots if slots else 0.0,
        "encoder.encode_s": total("encoder.encode"),
        "encoder.encode.rows": sum(values("encoder.encode")),
        "groundtruth.scene_target_s": total("groundtruth.scene_target", train),
        "dataset.scene_features_s": total("dataset.scene_features", train),
        "dataset.load_scenes_s": total("dataset.load_scenes"),
        "dataset.augment_s": total("dataset.augment"),
        "synthetic.generate_s": total("synthetic.generate"),
        "postprocess.nms_s": total("postprocess.nms"),
        "postprocess.nms.calls": calls("postprocess.nms"),
        "postprocess.detections": detections,
        "postprocess.detection_yield": groups / detections if detections else 0.0,
        "postprocess.assign_groups_s": total("postprocess.assign_groups"),
        "postprocess.assign_groups.calls": calls("postprocess.assign_groups"),
        "evaluation.match_scene_s": total("evaluation.match_scene"),
        "evaluation.match_scene.calls": calls("evaluation.match_scene"),
        "evaluation.snap_tolerance.calls": calls("evaluation.snap_tolerance"),
        "tuning.grid_search_heatmaps_self_s": own("tuning.grid_search_heatmaps"),
        "tuning.grid_points": facts["grid_points"],
        "parallel.thread_map_s": total("parallel.thread_map"),
        "parallel.workers": facts["workers"],
    }
