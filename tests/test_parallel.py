import os

import numpy as np
import pytest

from ospace import parallel
from ospace.parallel import thread_map, worker_count


def test_worker_count_default(monkeypatch):
    monkeypatch.delenv("OSPACE_THREADS", raising=False)
    assert worker_count() == 1


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("OSPACE_THREADS", "4")
    assert worker_count() == 4


def test_worker_count_invalid(monkeypatch):
    monkeypatch.setenv("OSPACE_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("OSPACE_THREADS", "many")
    with pytest.raises(ValueError):
        worker_count()


def test_thread_map_preserves_order(monkeypatch):
    xs = list(range(50))
    monkeypatch.setenv("OSPACE_THREADS", "3")
    assert thread_map(lambda x: x * x, xs) == [x * x for x in xs]
    monkeypatch.delenv("OSPACE_THREADS")
    assert thread_map(lambda x: x * x, xs) == [x * x for x in xs]


def test_thread_map_results_match_inline(monkeypatch):
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((8, 8)) for _ in range(12)]
    monkeypatch.delenv("OSPACE_THREADS", raising=False)
    inline = thread_map(lambda m: (m @ m).sum(), mats)
    monkeypatch.setenv("OSPACE_THREADS", "4")
    threaded = thread_map(lambda m: (m @ m).sum(), mats)
    assert inline == threaded


class _SpyExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("env, cpus, n_items, want", [
    ("1000", 2, 50, 2),      # capped by the CPU count
    ("1000", 8, 3, 3),       # capped by the item count
    ("3", 8, 50, 3),         # the setting itself
    ("1000", None, 50, None),  # unknown CPU count: one worker, inline
    ("1000", 1, 50, None),
])
def test_thread_map_caps_workers(monkeypatch, env, cpus, n_items, want):
    monkeypatch.setattr(_SpyExecutor, "sizes", [])
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _SpyExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("OSPACE_THREADS", env)
    assert thread_map(lambda x: x + 1, range(n_items)) == list(range(1, n_items + 1))
    assert _SpyExecutor.sizes == ([] if want is None else [want])
