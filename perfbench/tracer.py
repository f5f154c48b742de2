"""Span tracing from outside the simulator: wrap a layer's entry points, time them.

The benchmark traces the ``repro`` package without touching its source.
:class:`Tracer` replaces chosen functions and methods with timing wrappers
for the traced run only, and :meth:`Tracer.uninstall` puts the original
objects back, so an untraced run calls exactly the code a user runs.

Each wrapped call records one :class:`Span`: layer name, start and end
(``time.perf_counter``), the index of the span that was open when it
started (its parent), the campaign it belongs to, and a work count
(accesses, chunks) taken from its arguments.  Spans stay in memory and
are written out once, by :meth:`Tracer.write`, when the run ends.

A layer's *self time* is its span's duration minus the durations of its
direct children.  Because every span of a campaign descends from the
campaign's root span, the self times of a campaign's spans add up to the
root's duration exactly; the root's own self time is the part of the
wall time no wrapped layer claims (the untraced remainder).
:func:`check_accounting` verifies that identity on every traced run.

Wrapped calls made with no root span open call straight through, and
only the process that installed the wrappers records: a worker forked
from it inherits the wrapped functions, but they call straight through,
so in-worker layers of a parallel campaign are not traced.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

NO_PARENT = -1
"""Parent index of a root span (a campaign or a set-up)."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    trace: int
    count: int = 0
    tag: str = ""


@dataclass
class LayerTotal:
    """One layer's aggregate over a set of spans."""

    self_s: float = 0.0
    calls: int = 0
    count: int = 0


CountFn = Callable[[Tuple[Any, ...]], int]


class Tracer:
    """Records spans in memory and owns the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.trace = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------
    def open(self, name: str, tag: str = "") -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.trace, tag=tag))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.count = count
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @property
    def current(self) -> Optional[str]:
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]].name if self._stack else None

    def root(self, name: str, trace: int) -> "_RootSpan":
        """Context manager for a root span (one campaign or one set-up)."""
        return _RootSpan(self, name, trace)

    def _recording(self) -> bool:
        """Spans are recorded only inside a root, and only by this process."""
        return bool(self._stack) and os.getpid() == self._pid

    # -- installing ----------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        count: Optional[CountFn] = None,
        inside: Sequence[str] = (),
        tag: str = "",
    ) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``.

        ``owner`` is a module or a class; a class attribute that is a
        classmethod stays one.  ``count`` turns the call's arguments into
        a work count.  A call made while the innermost open span is one of
        ``inside`` records no span of its own, so its time stays with that
        span (the L2 drain keeps its L2 classification this way).
        """
        raw = vars(owner)[attribute]
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer._recording() or tracer.current in inside:
                return function(*args, **kwargs)
            index = tracer.open(name, tag)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(index, count(args) if count is not None else 0)

        self._patch(owner, attribute, raw, classmethod(wrapper) if raw is not function else wrapper)

    def wrap_iterator(self, owner: Any, attribute: str, name: str) -> None:
        """Time each step of the iterator ``owner.attribute(...)`` returns.

        Every ``next()`` is one span with a count of 1, so the layer's
        time is what producing items cost, not what the consumer did
        between them.
        """
        raw = vars(owner)[attribute]
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            iterator = raw(*args, **kwargs)
            if not tracer._recording():
                return iterator
            return tracer._timed(iterator, name)

        self._patch(owner, attribute, raw, wrapper)

    def _timed(self, iterator: Iterator[Any], name: str) -> Iterator[Any]:
        try:
            while True:
                index = self.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    self.close(index)
                    return
                except BaseException:
                    self.close(index)
                    raise
                self.close(index, 1)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _patch(self, owner: Any, attribute: str, raw: Any, replacement: Any) -> None:
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str, trace: int) -> None:
        self.tracer = tracer
        self.name = name
        self.trace = trace
        self.index = -1

    def __enter__(self) -> "_RootSpan":
        if self.tracer._stack:
            raise RuntimeError("a root span must open with no span open")
        self.tracer.trace = self.trace
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.index)

    @property
    def duration(self) -> float:
        span = self.tracer.spans[self.index]
        return span.end - span.start


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent != NO_PARENT:
            children[span.parent] += span.end - span.start
    return [span.end - span.start - child for span, child in zip(spans, children)]


def trace_spans(spans: Sequence[Span], trace: int) -> List[int]:
    """Indices of the spans recorded under campaign ``trace``."""
    return [index for index, span in enumerate(spans) if span.trace == trace]


def layer_totals(spans: Sequence[Span], indices: Sequence[int]) -> Dict[str, LayerTotal]:
    """Self time, call count and work count per layer name over ``indices``."""
    selfs = self_times(spans)
    totals: Dict[str, LayerTotal] = {}
    for index in indices:
        total = totals.setdefault(spans[index].name, LayerTotal())
        total.self_s += selfs[index]
        total.calls += 1
        total.count += spans[index].count
    return totals


def check_accounting(spans: Sequence[Span], root: int, tolerance: float = 1e-6) -> float:
    """Verify that the self times under ``root`` add up to its duration.

    Returns the sum.  Raises if a span of the root's trace lies outside
    the root's tree, or if the sum misses the root's duration by more
    than ``tolerance`` seconds (rounding only).
    """
    trace = spans[root].trace
    selfs = self_times(spans)
    total = 0.0
    for index in trace_spans(spans, trace):
        ancestor = index
        while spans[ancestor].parent != NO_PARENT:
            ancestor = spans[ancestor].parent
        if ancestor != root:
            raise AssertionError(f"span {spans[index].name!r} lies outside its campaign's root")
        total += selfs[index]
    duration = spans[root].end - spans[root].start
    if abs(total - duration) > tolerance:
        raise AssertionError(
            f"self times add up to {total:.9f}s but the traced wall is {duration:.9f}s"
        )
    return total
