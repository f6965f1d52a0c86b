"""Golden sha256 digests of every output of a small, fixed CLI chain.

The chain synthesizes and augments scenes, trains small models (adam and
sgd; no room, a 5-value room file and a layout; one zero-epoch model) and
one short model at the CLI default widths, then tunes, predicts, writes
heatmaps, evaluates and renders.  One more model, written as an input, has
its output layer zeroed: every cell of its heatmaps is sigmoid(0) = 0.5, so
every peak ties and NMS's tie order alone picks its detections.
``golden_digests.json`` holds the sha256 of each output, keyed by the
environment that decides the bits: numpy's version, the BLAS build and the
kernel it picked, the machine, the core count and the BLAS thread
variables.

With a known environment the test compares every digest and names the
first output that differs.  With an unknown one it runs the chain twice,
requires equal bytes, and says that no golden set applied.

A change that keeps output bits leaves ``golden_digests.json`` as it is.  A
change that means to move them regenerates this environment's entry with

    PYTHONPATH=src python tests/test_golden_digests.py

and lists each digest that moved, with the reason, in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from ospace.cli import main
from ospace.dataset import NormStats
from ospace.encoder import EncoderConfig, init_encoder
from ospace.network import HeadConfig, ModelWeights, init_head, save_model

GOLDEN = Path(__file__).with_name("golden_digests.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SMALL = "--enc-widths 8,16 --hidden 16 --batch 8"
GRID = ("--thresholds 0.3,0.5 --separations 1.0 --assign-dists 1.0,1.5 "
        "--strides 0.7")
# model name: its train flags (None: not trained, ``_inputs`` writes it) and
# its room flags; every model is tuned, predicted and evaluated
FLAT = "flat"  # its output layer is zeroed, so every heatmap cell ties
MODELS = {
    "adam": (f"aug1.jsonl {SMALL} --epochs 3 --seed 9", ""),
    "sgd-room": (f"aug2.jsonl {SMALL} --epochs 3 --optimizer sgd --lr 0.05",
                 "--room-file r5.feat"),
    "adam-layout": (f"aug3.jsonl {SMALL} --epochs 2", "--layout lay.json"),
    "init": (f"aug1.jsonl {SMALL} --epochs 0", "--room-file r5.feat"),
    "default-widths": ("aug1.jsonl --epochs 1 --batch 16", ""),
    FLAT: (None, ""),
}
HEATMAPS = ("adam", "init", FLAT)  # models whose heatmaps are written as well


def _commands() -> list[str]:
    cmds = []
    for n in (1, 2, 3):
        cmds += [f"synth -o s{n}.jsonl --seed {n} --scenes 10 --groups 1 3 "
                 "--group-size 2 4",
                 f"ingest s{n}.jsonl -o aug{n}.jsonl --augment"]
    for name, (flags, room) in MODELS.items():
        if flags is not None:
            cmds.append(f"train {flags} {room} -o {name}.ckpt "
                        f"--trace {name}-trace.csv")
        cmds += [f"tune {name}.ckpt s3.jsonl {GRID} {room} -o {name}-params.json "
                 f"--table {name}-table.csv",
                 f"predict {name}.ckpt s1.jsonl {room} --params {name}-params.json "
                 f"-o {name}-pred.jsonl",
                 f"eval --pred {name}-pred.jsonl --gt s1.jsonl "
                 f"-o {name}-metrics.csv"]
        if name in HEATMAPS:
            cmds.append(f"predict {name}.ckpt s2.jsonl {room} "
                        f"-o {name}-hm-pred.jsonl --heatmaps {name}-maps --csv")
    cmds.append("render s1.jsonl -o truth-maps --csv")
    return cmds


def _inputs(directory: Path) -> None:
    (directory / "r5.feat").write_text("dim 5\n0.5\n-1.0\n2.0\n0.25\n-0.125\n")
    classes = ("free", "wall", "table", "furniture")
    cells = [classes[(i * 7) % 5 % 4] for i in range(120)]  # an irregular mix
    (directory / "lay.json").write_text(json.dumps({"cells": cells}))
    rng = np.random.default_rng(5)
    model = ModelWeights(init_encoder(EncoderConfig(layer_widths=(8, 16)), rng),
                         init_head(HeadConfig(16, (16,)), rng),
                         NormStats(0.0, 0.0, 1.0, 1.0))
    model.head.layers[-1].W[...] = 0.0
    model.head.layers[-1].b[...] = 0.0
    save_model(model, directory / f"{FLAT}.ckpt")


def run_chain(directory: Path) -> dict[str, str]:
    """Run the chain in ``directory``; the sha256 of each output by path."""
    directory.mkdir()
    _inputs(directory)
    inputs = set(os.listdir(directory))
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for cmd in _commands():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(cmd.split())
            assert rc == 0, f"`ospace {cmd}` exited {rc}"
    finally:
        os.chdir(cwd)
    return {p.relative_to(directory).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*"))
            if p.is_file() and p.relative_to(directory).parts[0] not in inputs}


def fingerprint() -> dict:
    """What decides this environment's output bits."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or blas.get("name")
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = None
    return {"numpy": np.__version__, "blas": blas,
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _entries() -> list[dict]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_outputs_match_the_golden_digests(tmp_path):
    got = run_chain(tmp_path / "a")
    known = [e["digests"] for e in _entries() if e["fingerprint"] == fingerprint()]
    if not known:
        again = run_chain(tmp_path / "b")
        assert got == again, "outputs differ between identical runs: " + next(
            k for k in got if got[k] != again.get(k))
        print(f"no golden digest set for {fingerprint()}; checked that two "
              "runs give equal bytes instead")
        return
    want = known[0]
    assert sorted(got) == sorted(want), "the chain's output files changed"
    for name in want:
        assert got[name] == want[name], f"{name} differs from its golden digest"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_chain(Path(tmp) / "a")
        if digests != run_chain(Path(tmp) / "b"):
            sys.exit("outputs differ between identical runs; nothing written")
    here = fingerprint()
    entries = [e for e in _entries() if e["fingerprint"] != here]
    entries.append({"fingerprint": here, "digests": digests})
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {here} to {GOLDEN}")
