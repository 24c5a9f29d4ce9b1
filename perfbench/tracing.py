"""Spans recorded from outside the library by wrapping its public functions.

A `Tracer` replaces functions and methods of panelcpt modules with wrappers
that record one span per call: (id, name, start, end, parent id, attrs,
thread id).
Spans stay in memory and are written out when the run ends. Nothing under
the package changes; the wrappers are removed again by `restore`.

Parent links follow the calling thread. A span that starts on a worker
thread with no open span of its own (the bootstrap thread pool) takes the
innermost open span of the main thread as its parent, because the main
thread is blocked inside that call while the pool runs.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, fn, name: str, attrs=None):
        """Return `fn` wrapped so each call records a span called `name`.

        ``attrs(args, kwargs, result)`` may return a dict stored with the
        span of a call that returned normally.
        """
        spans = self.spans

        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, {"raised": True},
                              threading.get_ident()))
                raise
            end = perf_counter()
            stack.pop()
            spans.append((sid, name, start, end, parent,
                          attrs(args, kwargs, result) if attrs else None,
                          threading.get_ident()))
            return result

        return traced

    @contextlib.contextmanager
    def region(self, name: str, attrs=None):
        """Record a span around a block of the benchmark's own code."""
        stack, sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, attrs,
                               threading.get_ident()))

    def patch(self, owners, attr: str, name: str, attrs=None) -> None:
        """Wrap ``owners[0].attr`` once and bind the wrapper on every owner.

        A function imported by name into several modules must be replaced in
        each namespace that calls it.
        """
        original = getattr(owners[0], attr)
        wrapped = self.wrap(original, name, attrs)
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, attrs, thread in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "attrs": attrs, "thread": thread}) + "\n")


def union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Children running in parallel threads overlap; the covered part is the
    union of their intervals, so a parent's self time is the time during
    which none of its children was running.
    """
    children: dict[int, list] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()))
        for sid, _, start, end, _, _, _ in spans
    }
