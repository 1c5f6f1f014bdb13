"""In-memory spans for the traced run.

Spans come from the benchmark's own files: around each call into a layer
(:meth:`Tracer.span`) and around every Ray Dataset execution the call
launches. Executions are seen by wrapping the streaming executor's entry
(``execute``) and exit (``shutdown``) inside :meth:`Tracer.ray_hooked`;
untraced calls never install the wrapper.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time

EXEC = "ray.exec"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._open: dict[int, tuple[int, str, float, int | None]] = {}
        self._lock = threading.Lock()

    def _record(self, sid, name, start, end, parent, **attrs) -> None:
        with self._lock:
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "run_id": self.run_id, **attrs}
            )

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(sid, name, start, end, parent, **attrs)

    # ------------------------------------------------ Ray executions

    @contextlib.contextmanager
    def ray_hooked(self):
        """Record a span for every Ray Dataset execution started inside
        the block."""
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        execute, shutdown = StreamingExecutor.execute, StreamingExecutor.shutdown
        tracer = self

        def traced_execute(ex, dag, *args, **kwargs):
            label = dag.dag_str.replace("InputDataBuffer[Input] -> ", "")
            parent = tracer._stack[-1] if tracer._stack else None
            with tracer._lock:
                tracer._open[id(ex)] = (
                    next(tracer._ids), label, time.perf_counter(), parent
                )
            return execute(ex, dag, *args, **kwargs)

        def traced_shutdown(ex, *args, **kwargs):
            try:
                return shutdown(ex, *args, **kwargs)
            finally:
                with tracer._lock:
                    opened = tracer._open.pop(id(ex), None)
                if opened is not None:
                    sid, label, start, parent = opened
                    tracer._record(
                        sid, EXEC, start, time.perf_counter(), parent,
                        plan=label,
                    )

        StreamingExecutor.execute = traced_execute
        StreamingExecutor.shutdown = traced_shutdown
        try:
            yield
        finally:
            StreamingExecutor.execute = execute
            StreamingExecutor.shutdown = shutdown

    # --------------------------------------------------------- queries

    def children(self, sid: int) -> list[dict]:
        """Every span below ``sid`` (any depth)."""
        by_parent: dict[int | None, list[dict]] = {}
        for s in self.spans:
            by_parent.setdefault(s["parent"], []).append(s)
        out, todo = [], [sid]
        while todo:
            for s in by_parent.get(todo.pop(), []):
                out.append(s)
                todo.append(s["id"])
        return out

    def get(self, sid: int) -> dict:
        return next(s for s in self.spans if s["id"] == sid)

    def dump(self, path: str, info: dict) -> None:
        spans = [
            {**s, "start": s["start"] - self.t0, "end": s["end"] - self.t0}
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "info": info, "spans": spans}, f)


class NullTracer:
    """The untraced run's stand-in: spans cost one no-op context."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


def covered(spans: list[dict], lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    iv = sorted(
        (max(s["start"], lo), min(s["end"], hi)) for s in spans
        if s["end"] > lo and s["start"] < hi
    )
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in iv:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
