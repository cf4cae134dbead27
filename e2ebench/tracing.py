"""Spans recorded from outside the program, around calls into its layers.

A span is a name, a start, an end and the span that was open when it
began (its parent).  Spans live in memory until the run ends.  A
layer's *self time* is its span's duration minus the time covered by
its children; within one thread children run one after another, so
that is the duration minus the sum of the children's durations.

Nothing here edits the program: :func:`patched` swaps a module or
class attribute for a timing wrapper for the length of one ``with``
block and puts the original back afterwards.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"
    tags: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans, one stack per thread, kept until the run ends."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        stack = self._stack()
        now = time.perf_counter()
        record = Span(name, now, now, stack[-1] if stack else None, tags)
        stack.append(self._record(record))
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` spent in many short calls as one child of
        the open span (one span per call would cost more than the calls)."""
        stack = self._stack()
        end = time.perf_counter()
        self._record(
            Span(name, end - seconds, end, stack[-1] if stack else None)
        )

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _self_seconds(self) -> "list[float]":
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def self_times(self) -> "dict[str, float]":
        """Summed self time per span name."""
        totals: "dict[str, float]" = defaultdict(float)
        for span, seconds in zip(self.spans, self._self_seconds()):
            totals[span.name] += seconds
        return dict(totals)

    def min_self_time(self) -> float:
        """The smallest self time of any single span (negative = a
        child outlived its parent, i.e. broken nesting)."""
        return min(self._self_seconds(), default=0.0)


class _NoTrace:
    """Stands in for a :class:`Tracer` in untraced passes: its spans
    record nothing."""

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        yield Span(name, 0.0, 0.0, None, tags)


NO_TRACE = _NoTrace()


@contextmanager
def patched(owner: Any, attr: str, wrapper: Callable) -> Iterator[None]:
    """Replace ``owner.attr`` with ``wrapper(original)`` for one block.

    An attribute a class inherits is shadowed on ``owner`` and the
    shadow deleted afterwards, so the class is left exactly as found.
    """
    own = vars(owner).get(attr, _MISSING)
    setattr(owner, attr, wrapper(getattr(owner, attr)))
    try:
        yield
    finally:
        if own is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)


class TimedStream:
    """A geometry-stream proxy timing the calls the scanline makes.

    ``next_top``/``fetch``/``labels`` run a few times per scanline stop,
    so their time accumulates here and becomes one span afterwards.
    Everything else is forwarded untouched.
    """

    def __init__(self, stream: Any) -> None:
        self._stream = stream
        self.seconds = 0.0

    def _timed(self, method: Callable, *args: Any) -> Any:
        started = time.perf_counter()
        try:
            return method(*args)
        finally:
            self.seconds += time.perf_counter() - started

    def next_top(self) -> Any:
        return self._timed(self._stream.next_top)

    def fetch(self, y: int) -> Any:
        return self._timed(self._stream.fetch, y)

    def labels(self) -> Any:
        return self._timed(self._stream.labels)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._stream, name)
