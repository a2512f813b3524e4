"""In-memory span tracer that instruments the program from the outside.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` wraps public
callables of each layer (module functions, class methods, constructor
arguments) for the duration of a ``with tracer.patch(...)`` block and
restores them afterwards, so an untraced run executes exactly the code a
user runs.

A span records its name, duration and *self time* (duration minus the
time covered by its child spans on the same thread).  Stacks are
per-thread, so the service's handler, worker and client threads nest
independently.  Counters and per-item samples sit beside the spans for
figures that are not durations (frames, bytes, queue waits).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "SpanStats"]


class SpanStats:
    """Running totals for one span name."""

    __slots__ = ("count", "total_s", "self_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


_MISSING = object()


class Tracer:
    """Spans, counters and samples collected while patches are installed."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Raw ``(thread, name, start, end, self)`` records, kept only when
        #: asked for; the aggregates above are always kept.
        self.spans: list[tuple[str, str, float, float, float]] | None = (
            [] if keep_spans else None
        )
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enclosing(self, prefix: str) -> str | None:
        """Innermost open span on this thread whose name starts with
        ``prefix``."""
        for frame in reversed(self._stack()):
            if frame.name.startswith(prefix):
                return frame.name
        return None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        frame = _Frame(name, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if stack:
                stack[-1].child_s += duration
            self_s = duration - frame.child_s
            with self._lock:
                st = self.stats[name]
                st.count += 1
                st.total_s += duration
                st.self_s += self_s
                if self.spans is not None:
                    self.spans.append((
                        threading.current_thread().name, name,
                        frame.start, end, self_s,
                    ))

    def count(self, name: str, by: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += by

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- patching -------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patch(
        self, owner: Any, attr: str, replacement: Callable[..., Any]
    ) -> Iterator[None]:
        """Set ``owner.attr = replacement`` for the block, then restore.

        A missing attribute raises immediately: a renamed layer function
        must break the traced run, not silently report zero.
        """
        getattr(owner, attr)  # AttributeError if renamed
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, replacement)
        try:
            yield
        finally:
            # An inherited attribute is shadowed, not replaced: removing
            # the shadow restores it.
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def span_patch(
        self, owner: Any, attr: str, name: str
    ) -> contextlib.AbstractContextManager[None]:
        """Wrap ``owner.attr`` in a span named ``name`` for the block."""
        return self.patch(owner, attr, self.wrap(getattr(owner, attr), name))

    # -- reading --------------------------------------------------------

    def total_s(self, name: str) -> float:
        return self.stats[name].total_s if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name].self_s if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].count if name in self.stats else 0
