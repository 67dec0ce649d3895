"""In-memory spans recorded from outside the program.

The benchmark owns its tracing: it wraps the public entry point of each layer
*on the instances it built* (an instance attribute shadows the method, so the
program's own code is untouched and the wrapper vanishes with the instance)
and keeps ``{name, start, end, parent, request_id}`` spans in a list that is
written out once, when the benchmark ends.  Nothing is recorded during the
timed pass -- the end-to-end metrics are measured with tracing off.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one request is in flight at a time (single client).

    A layer entered on the calling thread nests under that thread's open
    span.  The program hands its SP and TE legs to pool threads; a span
    opened on such a thread has no open span of its own to nest under, so it
    nests under whatever the requesting thread has open at that moment --
    which is unambiguous precisely because the traced pass runs one request
    at a time.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: While ``False`` the installed wrappers call straight through.
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request_id = ""
        self._request_stack: List[int] = []  # open spans of the requesting thread
        self._installed: List[tuple] = []

    # ------------------------------------------------------------------ spans
    @contextmanager
    def request(self, request_id: str, name: str = "loadgen.op") -> Iterator[None]:
        """Open the root span of one traced operation."""
        self._request_id = request_id
        self._request_stack = self._stack()
        with self.span(name):
            yield

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        borrowed = stack or self._request_stack
        parent = borrowed[-1] if borrowed else None
        with self._lock:
            span_id = len(self.spans)
            span = Span(span_id, name, 0.0, 0.0, parent, self._request_id)
            self.spans.append(span)
        stack.append(span_id)
        span.start = time.perf_counter()
        try:
            yield span_id
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------ wrappers
    def wrap(self, target: Any, method: str, name: str) -> bool:
        """Record a span around ``target.method`` (this instance only).

        Returns ``False`` -- and installs nothing -- when the attribute is
        gone, so a probe that outlives a refactor degrades to "missing"
        instead of breaking the run.
        """
        original = getattr(target, method, None)
        if target is None or not callable(original):
            return False

        if inspect.iscoroutinefunction(original):
            async def traced(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return await original(*args, **kwargs)
                with self.span(name):
                    return await original(*args, **kwargs)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return original(*args, **kwargs)
                with self.span(name):
                    return original(*args, **kwargs)

        setattr(target, method, traced)
        self._installed.append((target, method))
        return True

    def unwrap_all(self) -> None:
        """Remove every installed wrapper (the class methods show through again)."""
        for target, method in self._installed:
            try:
                delattr(target, method)
            except AttributeError:
                pass
        self._installed = []

    # ------------------------------------------------------------------ analysis
    def by_request(self, prefix: str = "") -> Dict[str, List[Span]]:
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            if span.request_id.startswith(prefix):
                grouped.setdefault(span.request_id, []).append(span)
        return grouped

    def self_times(self, prefix: str = "") -> Dict[int, float]:
        """Blocking self time per span id.

        A span's self time is its duration minus the part of that interval
        its children cover.  Sibling legs that ran in parallel are first
        de-overlapped, longest first, so the slower leg keeps its whole
        interval and the faster one only what sticks out: the sum of self
        times then equals the wall time of the roots (coverage ~ 1) instead
        of counting two cores' worth of work twice.
        """
        spans = [s for s in self.spans if s.request_id.startswith(prefix)]
        children: Dict[Optional[int], List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent, []).append(span)
        credited: Dict[int, float] = {}
        for siblings in children.values():
            covered: List[tuple] = []
            for span in sorted(siblings, key=lambda s: s.duration, reverse=True):
                credited[span.span_id] = _uncovered(span.start, span.end, covered)
                covered.append((span.start, span.end))
        result: Dict[int, float] = {}
        for span in spans:
            inner = sum(credited[c.span_id] for c in children.get(span.span_id, ()))
            # A parallel child may outlive a faster sibling but never its parent.
            result[span.span_id] = max(0.0, credited[span.span_id] - inner)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                [
                    {
                        "id": s.span_id,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "parent": s.parent,
                        "request_id": s.request_id,
                    }
                    for s in self.spans
                ],
                handle,
            )


def _uncovered(start: float, end: float, covered: List[tuple]) -> float:
    """Length of ``[start, end]`` not inside any interval of ``covered``."""
    remaining = end - start
    cursor = start
    for lo, hi in sorted(covered):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            remaining -= hi - lo
            cursor = hi
    return max(0.0, remaining)


def timed_us(function: Callable[[Any], Any], items: List[Any]) -> float:
    """Mean microseconds of ``function(item)`` over ``items`` (0 when empty)."""
    if not items:
        return 0.0
    started = time.perf_counter()
    for item in items:
        function(item)
    return (time.perf_counter() - started) * 1e6 / len(items)
