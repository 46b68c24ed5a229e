"""Span tracer that wraps a package's public functions from outside.

The benchmark's traced run replaces each named function on every module of
the package that holds it (``tweetdyn.cli`` imports ``parse_records`` and
others by name, ``tweetdyn.topic`` imports ``modularity_communities``), keeps
one span per call in memory and restores the originals afterwards. Nothing
in the package changes. Per-tweet helpers are deliberately not wrapped:
their cost shows up as self time in their callers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

# A counter maps (args, kwargs, result) of one call to the amount of work
# it did, such as rows parsed or graph edges.
CountFn = Callable[[tuple, dict, Any], float]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Spans in memory, each with its name, start, end and parent."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            start=self.clock(),
        )
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def wrap(
        self, name: str, fn: Callable, counters: Mapping[str, CountFn] | None = None
    ) -> Callable:
        counters = dict(counters or {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            for key, count in counters.items():
                s.counts[key] = float(count(args, kwargs, result))
            return result

        return traced

    def install(
        self, package: str, targets: Mapping[str, Mapping[str, CountFn]]
    ) -> list[str]:
        """Wrap ``package.<module>.<function>`` for each ``"module.function"``.

        Every module of the package already imported that holds the same
        function object, under any name, gets the wrapper. Returns the
        targets that do not exist, so a renamed function is reported as
        absent instead of failing the run.
        """
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        absent = []
        for target, counters in targets.items():
            module_name, _, attr = target.rpartition(".")
            owner = sys.modules.get(f"{package}.{module_name}")
            original = getattr(owner, attr, None)
            if not callable(original):
                absent.append(target)
                continue
            wrapper = self.wrap(target, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return absent

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time ``s``, ``calls`` and summed counts."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "calls": 0})
        for s in self.spans:
            entry = out[s.name]
            entry["s"] += own[s.id]
            entry["calls"] += 1
            for key, value in s.counts.items():
                entry[key] = entry.get(key, 0.0) + value
        return dict(out)

    def subtree_residual(self, root: int) -> float:
        """|span duration - summed self times of the span and all its descendants|."""
        own = self.self_times()
        children: dict[int, list[int]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s.id)
        total, todo = 0.0, [root]
        while todo:
            sid = todo.pop()
            total += own[sid]
            todo.extend(children[sid])
        span = self.spans[root]
        return abs((span.end - span.start) - total)
