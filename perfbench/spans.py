"""In-memory span recorder for traced benchmark runs.

``Recorder.wrap`` replaces a function at every attribute of the loaded
``collapse_lab`` modules that holds it (or a method on its class), so the
program's own lookups reach the wrapper. Each call becomes a span with a
name, start, end and parent; self time is a span's duration minus that of its
direct children on the same thread. Leaving the ``with`` block puts every
original attribute back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "mem_base", "mem_peak",
                 "extra")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.mem_base = self.mem_peak = None
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._mem_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, memory: bool = False, on_result=None):
        """Wrap ``owner.attr``. For a module function, every ``collapse_lab``
        module attribute bound to the same object is replaced; for a class,
        only the class attribute."""
        original = getattr(owner, attr)
        wrapper = self.wrap_callable(original, name, memory, on_result)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(mod, key) for mod in _package_modules()
                       for key, value in list(vars(mod).items()) if value is original]
        for target, key in targets:
            self._restore.append((target, key, original))
            setattr(target, key, wrapper)
        return wrapper

    def wrap_callable(self, fn, name: str, memory: bool = False, on_result=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            if memory:
                rec._mem_enter(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    rec._mem_exit(span)
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                with rec._lock:
                    rec.spans.append(span)
            if on_result is not None:
                span.extra = on_result(args, kwargs, result)
            return result

        return wrapper

    def restore(self) -> None:
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        return False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- tracemalloc peaks --------------------------------------------------
    # tracemalloc runs only while a memory-tracked call is open, so it adds
    # nothing to the rest of the workload. Peaks are absolute traced totals;
    # an enclosing call keeps the largest peak seen by any call inside it.

    def _mem_enter(self, span: Span) -> None:
        if not self._mem_stack:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for outer in self._mem_stack:
            outer.mem_peak = max(outer.mem_peak, peak)
        tracemalloc.reset_peak()
        span.mem_base = span.mem_peak = current
        self._mem_stack.append(span)

    def _mem_exit(self, span: Span) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self._mem_stack.pop()
        span.mem_peak = max(span.mem_peak, peak)
        for outer in self._mem_stack:
            outer.mem_peak = max(outer.mem_peak, span.mem_peak)
        if not self._mem_stack:
            tracemalloc.stop()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """{span name: {"calls", "self_s", "total_s", "peak_mb", "durations",
        "extras"}} over every recorded span."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                         "peak_mb": 0.0, "durations": [], "extras": []})
        with self._lock:
            spans = list(self.spans)
        for s in spans:
            agg = out[s.name]
            agg["calls"] += 1
            agg["self_s"] += s.duration - s.child_s
            agg["total_s"] += s.duration
            agg["durations"].append(s.duration)
            if s.extra is not None:
                agg["extras"].append(s.extra)
            if s.mem_peak is not None:
                agg["peak_mb"] = max(agg["peak_mb"], (s.mem_peak - s.mem_base) / 2**20)
        return dict(out)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "collapse_lab" or name.startswith("collapse_lab."))]
