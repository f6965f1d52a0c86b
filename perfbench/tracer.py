"""Spans around the public functions of ospace, recorded from outside.

A traced run replaces selected module attributes with timing wrappers.
Each wrapper is installed where the function is looked up, not where it is
defined: ``network.train`` calls ``encode_batch`` through the ``network``
module's globals, so the wrapper goes on ``ospace.network.encode_batch``.
Nothing under ``src/`` changes; leaving the context restores every original.

A span is (span_id, trace_id, parent_id, name, start, end, value).  The
trace id is the id of the root span, so every span under one top-level call
(one scene, one training run) shares it.  ``value`` carries an optional
count measured at the boundary, such as the rows an encoder call saw.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, value=None,
             propagate: bool = False) -> None:
        """Replace ``module.attr`` with a wrapper recording span ``name``.

        ``value(args, result)`` gives the span's count.  With ``propagate``
        the first argument is a callable that may run on worker threads;
        it is rebound so spans it opens keep this span as their parent.
        A missing attribute is skipped: that layer then reports nothing.
        """
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent_id, trace_id = stack[-1] if stack else (0, 0)
            span_id = next(self._ids)
            ctx = (span_id, trace_id or span_id)
            if propagate:
                args = (self._bind(args[0], ctx),) + args[1:]
            stack.append(ctx)
            end = v = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                end = perf_counter()
                if value is not None:
                    v = value(args, result)
                return result
            finally:
                if end is None:
                    end = perf_counter()
                stack.pop()
                self.spans.append((span_id, ctx[1], parent_id, name, start, end, v))

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def _bind(self, fn, ctx):
        def bound(*args, **kwargs):
            stack = self._stack()
            stack.append(ctx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return bound

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def records(self) -> list[dict]:
        """One dict per span with its root's name, duration and self time.

        Self time is the duration minus the part of the span's interval
        covered by the union of its children's intervals.
        """
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[2]:
                children[s[2]].append((s[4], s[5]))
        out = []
        for span_id, trace_id, parent_id, name, start, end, v in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, reach)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            root = by_id.get(trace_id)
            out.append({"name": name, "root": root[3] if root else name,
                        "dur": end - start, "self": end - start - covered,
                        "value": v})
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, trace_id, parent_id, name, start, end, v in self.spans:
                f.write(json.dumps({"id": span_id, "trace": trace_id,
                                    "parent": parent_id, "name": name,
                                    "start": start - t0, "end": end - t0,
                                    "value": v}))
                f.write("\n")


def self_times(records) -> dict[str, dict]:
    """Calls, total and self seconds per span name, sorted by self time."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for r in records:
        row = table[r["name"]]
        row["calls"] += 1
        row["total_s"] += r["dur"]
        row["self_s"] += r["self"]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))
