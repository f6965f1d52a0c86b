"""Order-preserving thread map with an environment-controlled worker cap.

OSPACE_THREADS sets the worker count (default 1, which runs inline); a map
never starts more workers than it has items or the machine has CPUs.
Results come back in input order.  No ospace code maps with it any more
(``network.predict_heatmaps`` batches scenes instead); the benchmark's
traced mode still reads ``worker_count``.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["worker_count", "thread_map"]


def worker_count() -> int:
    raw = os.environ.get("OSPACE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"OSPACE_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"OSPACE_THREADS must be at least 1, got {n}")
    return n


def thread_map(fn, items) -> list:
    items = list(items)
    workers = min(worker_count(), len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))
