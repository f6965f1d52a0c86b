"""Tests of the benchmark itself, at toy sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ospace import network, tuning  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def toy(w):
    """A seconds-long version of a workload: same code path, tiny sizes."""
    return replace(w, n_train=12, n_tune=6, n_test=6, enc_widths=(8, 16),
                   hidden=(16,), room_dim=8, epochs=1, rounds=2,
                   f1_gates=None,
                   grid=tuning.Grid(nms_thresholds=(0.3, 0.5),
                                    separations_m=(1.0,), assign_dists_m=(1.0,),
                                    strides_m=(0.7,)))


@pytest.fixture
def toys(monkeypatch):
    for name, w in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, toy(w))


def bench(tmp_path, capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.05", "--trace", str(trace)],
                    out_dir=tmp_path)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads(
        (tmp_path / "results" / f"{workload}-seed{seed}-trace{trace}.json")
        .read_text())
    return code, result, record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_at_toy_size_and_prints_declared_metrics(
        toys, tmp_path, capsys, workload, trace):
    code, result, record = bench(tmp_path, capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == \
        run.declared(kind)
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    env = record["environment"]
    assert env["numpy"] and env["cpu_count"] and env["python"]
    assert set(env["thread_env"]) == set(run.THREAD_VARS)


def test_report_adds_f1_and_fail_ratio(toys, tmp_path, capsys):
    _, _, record = bench(tmp_path, capsys, "acceptance")
    names = {n for n, _ in run.declared("end_to_end") + run.REPORTED}
    assert names <= set(record["metrics"])
    assert record["metrics"]["fail_ratio"]["value"] == 0


def test_traced_run_counts_repeat_and_wrappers_are_removed(
        toys, tmp_path, capsys):
    before = [(m, a, getattr(m, a)) for m, a, _, _ in probes.TARGETS]
    _, first, _ = bench(tmp_path, capsys, "acceptance", trace=1)
    assert all(getattr(m, a) is f for m, a, f in before)
    _, second, _ = bench(tmp_path, capsys, "acceptance", trace=1)
    counts = [n for n, u in run.declared("per_layer") if u in ("count", "bytes")]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["network.steps"]["value"] > 0


def test_same_seed_gives_same_partitions(toys, tmp_path, capsys):
    _, _, a = bench(tmp_path / "a", capsys, "wide")
    _, _, b = bench(tmp_path / "b", capsys, "wide")
    _, _, c = bench(tmp_path / "c", capsys, "wide", seed=4)
    assert a["partitions_sha256"] == b["partitions_sha256"]
    assert a["partitions_sha256"] != c["partitions_sha256"]


def _perturb_weight(path):
    obj = json.loads(Path(path).read_text())
    obj["head"]["layers"][0]["W"][0][0] += 1.0
    Path(path).write_text(json.dumps(obj))


def _truncate(path):
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[: len(data) // 2])


@pytest.mark.parametrize("corrupt", [_perturb_weight, _truncate])
def test_corrupted_checkpoint_exits_nonzero(toys, tmp_path, capsys,
                                            monkeypatch, corrupt):
    save = network.save_model

    def save_then_corrupt(model, path):
        save(model, path)
        corrupt(path)

    monkeypatch.setattr(network, "save_model", save_then_corrupt)
    code, result, record = bench(tmp_path, capsys, "wide")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any("checkpoint" in p for p in record["problems"])


def test_f1_under_the_gates_exits_nonzero(toys, tmp_path, capsys, monkeypatch):
    # one epoch on 48 scenes cannot reach the acceptance gates
    w = replace(workloads.WORKLOADS["acceptance"], f1_gates=(0.90, 0.75))
    monkeypatch.setitem(workloads.WORKLOADS, "acceptance", w)
    code, result, record = bench(tmp_path, capsys, "acceptance")
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert any("F1" in p for p in record["problems"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    calls = []
    mod = types.SimpleNamespace()

    def leaf():
        calls.append(1)

    def parent():
        mod.leaf()
        mod.leaf()

    mod.leaf, mod.parent = leaf, parent
    with Tracer() as tracer:
        tracer.wrap(mod, "leaf", "leaf")
        tracer.wrap(mod, "parent", "parent")
        mod.parent()
    assert mod.leaf is leaf and mod.parent is parent
    records = tracer.records()
    assert [r["root"] for r in records] == ["parent"] * 3
    table = self_times(records)
    leaf_total = table["leaf"]["total_s"]
    assert table["leaf"]["calls"] == 2
    assert table["parent"]["self_s"] == pytest.approx(
        table["parent"]["total_s"] - leaf_total, abs=1e-9)


def test_spans_on_worker_threads_keep_their_parent():
    from concurrent.futures import ThreadPoolExecutor

    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x

    def thread_map(fn, items):
        with ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(fn, items))

    mod.thread_map = thread_map
    with Tracer() as tracer:
        tracer.wrap(mod, "leaf", "leaf")
        tracer.wrap(mod, "thread_map", "map", propagate=True)
        assert mod.thread_map(lambda x: mod.leaf(x), range(4)) == [0, 1, 2, 3]
    records = tracer.records()
    assert sorted(r["root"] for r in records) == ["map"] * 5
