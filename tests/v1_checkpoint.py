"""Writer of version 1 checkpoints, the format before the binary blob.

ospace only reads this format now; the tests write it to check that old
files still load and that their malformed fields are rejected.
"""
import json


def _layers_to_obj(layers) -> list[dict]:
    return [{"W": layer.W.tolist(), "b": layer.b.tolist()} for layer in layers]


def model_to_v1_obj(model) -> dict:
    return {
        "version": "ospace-checkpoint-1",
        "spec": {
            "rows": model.spec.rows,
            "cols": model.spec.cols,
            "cell_m": model.spec.cell_m,
        },
        "stride_m": model.stride_m,
        "seed": model.seed,
        "norm_stats": {
            "mean_x": model.norm_stats.mean_x,
            "mean_y": model.norm_stats.mean_y,
            "std_x": model.norm_stats.std_x,
            "std_y": model.norm_stats.std_y,
        },
        "encoder": {
            "config": {
                "input_dim": model.encoder.config.input_dim,
                "max_people": model.encoder.config.max_people,
                "layer_widths": list(model.encoder.config.layer_widths),
            },
            "layers": _layers_to_obj(model.encoder.layers),
        },
        "head": {
            "config": {
                "input_dim": model.head.config.input_dim,
                "hidden_widths": list(model.head.config.hidden_widths),
                "output_dim": model.head.config.output_dim,
            },
            "layers": _layers_to_obj(model.head.layers),
        },
    }


def save_v1(obj, path) -> None:
    """Write a v1 checkpoint object as v1 did: one line of JSON."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)
        f.write("\n")
