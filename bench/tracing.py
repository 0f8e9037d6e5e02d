"""Spans recorded from the benchmark around calls into nodeiso's modules.

The traced run replaces chosen public functions by name in every ``nodeiso``
module namespace that holds them (the defining module and each module that
imported the name), records one span per call in memory, and restores the
originals on exit. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator


class Span:
    """One call: name, parent span index (-1 at the top), request, interval.

    ``evals0``/``evals1`` hold the success-callable counter at entry and exit,
    so ``evals1 - evals0`` is the inclusive number of success evaluations.
    ``info`` is whatever the span's ``keep`` callback extracted from the call.
    """

    __slots__ = ("name", "parent", "request", "start", "end", "evals0", "evals1", "info")

    def __init__(self, name: str, parent: int, request: int) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.evals0 = self.evals1 = 0
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.name, self.parent, self.request, self.start, self.end]


class Tracer:
    """In-memory span recorder; ``request`` tags spans of one CLI invocation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self.evals = [0]          # bumped by every callable made by ``counted``
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        keep: Callable[[tuple, dict, object], object] | None = None,
    ) -> Callable:
        """Return ``fn`` recording a span per call; ``keep`` fills ``span.info``."""
        spans, stack, evals = self.spans, self._stack, self.evals

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.evals0 = evals[0]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.evals1 = evals[0]
                stack.pop()
            if keep is not None:
                span.info = keep(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn: Callable[[float], float], tag: object) -> Callable[[float], float]:
        """Count calls of a one-argument callable; ``tag`` rides along on it."""
        evals = self.evals

        def counted(y):
            evals[0] += 1
            return fn(y)

        counted.tag = tag
        return counted


@contextmanager
def patched(replacements: dict[tuple[str, str], Callable]) -> Iterator[None]:
    """Install ``{(module, name): new}`` in every nodeiso namespace holding the original.

    A namespace holds the original when its attribute of the same name is the
    very object the defining module exports. Every replaced attribute is put
    back on exit, also when the body raises.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for (module_name, attr), new in replacements.items():
            original = getattr(sys.modules[module_name], attr)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "nodeiso" and not mod_name.startswith("nodeiso."):
                    continue
                if vars(module).get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, new)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.seconds - covered_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]
