"""Benchmark for the ospace pipeline: one workload per process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up, one training run,
then rounds of grid search, checkpoint round trips, single-scene
predictions (``--seconds`` of them in all) and further set-ups.
``--trace 1`` runs each stage once, untraced and then traced, and reports
the per-layer metrics from the spans plus the tracing overhead.  Both print
a human-readable report, write a result file with the environment under
``.perfbench/results/``, and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Exit codes: 0 when every correctness check passed, 1 when one failed or a
stage raised, 2 for bad arguments or missing ospace sources.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# reported beside the end-to-end metrics but kept out of BENCHMARK.json: F1
# is near 0 on the briefly trained wide model and fail_ratio is 0 on a good
# run, so neither has a median a relative bound can be taken of
REPORTED = [("f1_t23", "ratio"), ("f1_t1", "ratio"), ("fail_ratio", "ratio")]


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "OSPACE_THREADS")


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas")
    except TypeError:  # numpy before 1.26 only prints its config
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(ROOT),
    }


def _measure(w, seed: int, seconds: float, tmp: str):
    """End-to-end metrics with tracing off."""
    import numpy as np
    import workloads

    s = workloads.measured(w, seed, tmp, seconds)
    # Set-up reports the median of its repeats.  Tune and checkpoint report
    # the mean: on a shared host whose speed switches between two levels, a
    # median of a few repeats jumps from one level to the other while the
    # mean moves with the share of time spent at each, and across sets of
    # ten runs the mean spread less.
    mean = {k: statistics.fmean(v) if v else math.nan for k, v in s.times.items()}
    lat_ms = 1e3 * np.array(s.times["predict"])
    values = dict(
        s.facts,
        setup_s=statistics.median(s.times["setup"]),
        train_scenes_per_s=s.facts["train_scenes"] / s.times["train"][0],
        tune_s=mean["tune"],
        predict_ms_p50=float(np.percentile(lat_ms, 50)),
        predict_ms_p95=float(np.percentile(lat_ms, 95)),
        ckpt_save_s=mean["save"],
        ckpt_load_s=mean["load"],
        peak_rss_mb=workloads.peak_rss_mb(),
        fail_ratio=s.failed / s.attempted,
    )
    return s, values, {}


def _traced(w, seed: int, tmp: str, spans_path: Path):
    """Fixed work untraced, then traced; per-layer metrics from the spans."""
    import probes
    import workloads
    from ospace import parallel
    from tracer import Tracer, self_times

    workloads.warm_up(w, seed, tmp)
    t0 = perf_counter()
    s = workloads.fixed(w, seed, tmp)
    untraced_s = perf_counter() - t0
    with Tracer() as tracer:
        probes.install(tracer)
        t0 = perf_counter()
        traced = workloads.fixed(w, seed, tmp)
        traced_s = perf_counter() - t0

    s.attempted += traced.attempted
    s.failed += traced.failed
    s.problems += traced.problems
    s.op(traced.facts["partitions_sha256"] == s.facts["partitions_sha256"],
         "tracing changed the predicted partitions")

    records = tracer.records()
    tracer.write(spans_path)
    values = probes.per_layer(records, dict(traced.facts,
                                            workers=parallel.worker_count()))
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.spans"] = len(tracer.spans)
    extra = {"untraced_s": untraced_s, "traced_s": traced_s,
             "self_times": self_times(records), "spans_file": str(spans_path)}
    return s, values, extra


def _number(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def main(argv=None, out_dir: Path | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the predict phase runs (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "ospace").is_dir():
        print(f"perfbench: no ospace sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    seed = args.seed % 2 ** 32

    out_dir = Path(out_dir) if out_dir else ROOT / ".perfbench"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    tmp = out_dir / f"tmp-{tag}-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace:
            run, values, extra = _traced(w, seed, str(tmp),
                                         results / f"{tag}-spans.jsonl")
        else:
            run, values, extra = _measure(w, seed, args.seconds, str(tmp))
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {w.name} stopped: a stage raised", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    bounded = declared("per_layer" if args.trace else "end_to_end")
    shown = bounded + ([] if args.trace else REPORTED)
    metrics = {name: {"value": _number(values[name]), "unit": unit}
               for name, unit in shown}
    correct = run.failed == 0
    env = environment()
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "problems": run.problems[:50],
        "metrics": metrics,
        "predict_samples": len(run.times["predict"]),
        "stage_seconds": {k: v for k, v in run.times.items() if k != "predict"},
        "partitions_sha256": run.facts["partitions_sha256"],
        "params_tuned": run.facts["params_tuned"],
        "environment": env, **extra,
    }
    result_file = results / f"{tag}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:36s} {value:>14s} {m['unit']}")
    if args.trace:
        print(f"  traced {extra['traced_s']:.3f} s, untraced "
              f"{extra['untraced_s']:.3f} s")
        print(f"  {'span':36s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in extra["self_times"].items():
            print(f"  {name:36s} {row['calls']:8d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
    print(f"  ops {run.attempted} attempted, {run.failed} failed; "
          f"{len(run.times['predict'])} predict samples")
    print(f"  partitions sha256 {run.facts['partitions_sha256']}")
    for problem in run.problems[:10]:
        print(f"  FAILED: {problem}")
    print(f"  numpy {env['numpy']}, cpus {env['cpu_count']}, affinity "
          f"{env['affinity']}, python {env['python']}, commit {env['commit']}")
    print(f"  thread env {env['thread_env']}")
    print(f"  result file {result_file}")

    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: metrics[name] for name, _ in bounded},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
