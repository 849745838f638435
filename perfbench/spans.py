"""In-memory spans and warm-call timing for the benchmark's traced run.

Standard library only, and nothing heavier than ``contextlib``/``functools``:
``cold.py`` imports this module before it times ``import joltlab...``, so it
must not pull in anything joltlab's own import would otherwise pay for.
"""

from __future__ import annotations

import contextlib
import functools
import time


def median(values):
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


class Tracer:
    """Spans (id, name, parent, request, start, end) kept in memory.

    Spans are recorded on one thread; ``parent`` is the span open when a span
    starts. ``request`` groups the spans of one measured call. Times are
    ``time.perf_counter`` seconds, which on Linux is CLOCK_MONOTONIC and so
    comparable between the benchmark and its child interpreters.
    """

    def __init__(self, proc: str = "main"):
        self.proc = proc
        self.request = None
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": f"{self.proc}:{len(self.spans)}",
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "request": self.request,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``obj.attr`` by a traced wrapper for each (obj, attr, name)."""
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        try:
            for obj, attr, name in targets:
                setattr(obj, attr, self.wrap(getattr(obj, attr), name))
            yield
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)


def duration(span) -> float:
    return span["end"] - span["start"]


def child_time(spans) -> dict:
    """Span id -> total duration of its direct children."""
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + duration(s)
    return covered


def self_times(spans) -> dict:
    """Span name -> list of self times (duration minus direct children)."""
    covered = child_time(spans)
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(duration(s) - covered.get(s["id"], 0.0))
    return out


def median_call_s(fn, min_reps: int = 3, min_seconds: float = 0.3,
                  max_reps: int = 2000) -> float:
    """Median wall time of ``fn()`` over at least ``min_reps`` calls and
    ``min_seconds`` of calling."""
    times = []
    start = time.perf_counter()
    while len(times) < max_reps and (
        len(times) < min_reps or time.perf_counter() - start < min_seconds
    ):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)
