"""Span recording from outside the program.

The benchmark wraps the calls into each layer with :class:`Tracer`
wrappers; the program itself is not edited and emits nothing. A span is
``(name, start, end, parent, count)``: ``parent`` links a span to the
span it nests in synchronously (a session search inside
``search_shard``), and ``count`` carries the unit of work the call did
(keys searched, words stored). Coroutine spans (``CamService.lookup``,
``CamClient.lookup_many``) interleave on the event loop, so they are
recorded without a parent and never become one.

Spans stay in memory until :meth:`Tracer.write` dumps them at the end
of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf = time.perf_counter


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: List[int] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str, parent: int) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(perf())
        self.ends.append(0.0)
        self.parents.append(parent)
        self.counts.append(0)
        return index

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``count(args, result)`` returns the work done by the call; it
        runs after the span is closed so its cost is not charged to the
        layer.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = self._open(name, -1)
                result = await fn(*args, **kwargs)
                self.ends[index] = perf()
                if count is not None:
                    self.counts[index] = count(args, result)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            index = self._open(name, stack[-1] if stack else -1)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.ends[index] = perf()
            if count is not None:
                self.counts[index] = count(args, result)
            return result
        return traced

    def patch(self, owner, attribute: str, name: str,
              count: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper.

        On an instance the wrapper shadows the class method for that
        object only; on a module or class it replaces the attribute for
        every caller. :meth:`unpatch` restores the original.
        """
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, count))
        if had_own:
            self._undo.append(lambda: setattr(owner, attribute, original))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [self.ends[i] - self.starts[i]
                for i, span in enumerate(self.names) if span == name]

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, work count.

        Self time is a span's duration minus the durations of the spans
        nested in it (synchronous nesting covers the child interval
        exactly, so no interval union is needed).
        """
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[i]
            entry["count"] += self.counts[i]
        return dict(totals)

    def write(self, path: str) -> None:
        """Dump every span as JSON lines (name, start, end, parent,
        count; times in seconds from the first span)."""
        origin = min(self.starts, default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps([
                    name, round(self.starts[i] - origin, 9),
                    round(self.ends[i] - origin, 9), self.parents[i],
                    self.counts[i],
                ]))
                handle.write("\n")
