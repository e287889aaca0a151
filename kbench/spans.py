"""Span recording from outside the program under test.

The benchmark never edits ``src/``; it wraps public functions and
methods of the ``repro`` layers for the duration of a traced run and
restores them afterwards. Each call becomes a span with a name, start,
end and parent (the span open on the same thread when it began). A
span's *self time* is its duration minus the time covered by its
children, so nested layers (a swap cascade inside an edge insert, an
``apply_batch`` inside a feed flush) are not counted twice. Spans from
different threads never nest: each thread keeps its own stack.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_time: float = 0.0
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Collects spans in memory; :meth:`totals` summarises them."""

    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    #: Wrappers call straight through while this is false, so off-the-clock
    #: checks that reach wrapped functions record nothing.
    active: bool = True

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), parent=stack[-1] if stack else None,
                    thread=threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a closed leaf span measured elsewhere (e.g. a queue wait)."""
        with self._lock:
            self.spans.append(Span(name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes itself."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def clear(self) -> None:
        with self._lock:
            self.spans = []

    def totals(self) -> dict[str, tuple[float, int]]:
        """``{name: (summed self time, calls)}``."""
        out: dict[str, tuple[float, int]] = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            total, calls = out.get(span.name, (0.0, 0))
            out[span.name] = (total + span.self_time, calls + 1)
        return out

    def wrap(self, fn, name: str):
        """``fn`` recording a span per call.

        A generator function's output is drained inside the span, so the
        span covers the enumeration rather than generator creation; every
        wrapped generator's caller in ``repro`` iterates it to the end.
        """
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapped_gen(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                span = tracer.open(name)
                try:
                    items = list(fn(*args, **kwargs))
                finally:
                    tracer.close(span)
                yield from items

            return wrapped_gen

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapped


class Patches:
    """Attribute replacements undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: object, attr: str, name: str) -> None:
        value = owner.__dict__[attr]
        if isinstance(value, classmethod):
            self.set(owner, attr, classmethod(tracer.wrap(value.__func__, name)))
        else:
            self.set(owner, attr, tracer.wrap(value, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
