"""In-memory span tracer for the benchmark's traced runs.

A span is one timed call into a layer: a name, a start and an end
(``time.perf_counter`` seconds) and the span that was open when it began
(its parent).  Spans stay in a list in memory; the benchmark writes them
out once the run ends.  Layers are traced from the outside: ``wrap``
replaces a function or method attribute with a timing wrapper and
``uninstall`` puts every original back, so nothing in the library itself
changes.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

Window = Tuple[float, float]
#: The window that holds every span.
ALL: Window = (float("-inf"), float("inf"))


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


def self_time(span: Span, children: Sequence[Span]) -> float:
    """Duration of ``span`` minus the part of it covered by ``children``.

    Child intervals are clipped to the parent and merged first, so
    overlapping or out-of-range children are never subtracted twice.
    """
    covered = 0.0
    cur_lo = cur_hi = None
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, span.start), min(child.end, span.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span.end - span.start) - covered


class Tracer:
    """Collects spans and counts at layer boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._next_id = 0
        self._patched: List[tuple] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> tuple:
        parent = self._stack[-1] if self._stack else None
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return (sid, name, self.clock(), parent)

    def end(self, token: tuple) -> Span:
        sid, name, start, parent = token
        span = Span(sid, name, start, self.clock(), parent)
        self._stack.pop()
        self.spans.append(span)
        return span

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span around its body."""
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``on_return(args, kwargs, result)`` runs after each call (outside
        the span) to record counts from the arguments or the result.
        """
        original = vars(owner)[attr]  # own attribute of a class or module
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            token = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(token)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, timed)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------
    # ``window`` is a ``(since, until)`` pair of clock readings; a query
    # sees the spans that started inside it.
    def named(self, name: str, window: Window = ALL) -> List[Span]:
        since, until = window
        return [s for s in self.spans if s.name == name and since <= s.start < until]

    def durations(self, name: str, window: Window = ALL) -> List[float]:
        return [s.end - s.start for s in self.named(name, window)]

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self, name: str, exclude: Sequence[str], window: Window = ALL) -> List[float]:
        """Self time of every ``name`` span in ``window``, subtracting the
        direct children whose names are in ``exclude``."""
        kids = self.children()
        return [
            self_time(s, [c for c in kids.get(s.id, []) if c.name in exclude])
            for s in self.named(name, window)
        ]

    def child_sums(self, parent_name: str, child_name: str, window: Window = ALL) -> List[float]:
        """Per ``parent_name`` span in ``window``, the summed duration of
        its ``child_name`` descendants (any depth)."""
        kids = self.children()

        def total(sid: int) -> float:
            acc = 0.0
            for c in kids.get(sid, []):
                acc += (c.end - c.start) if c.name == child_name else total(c.id)
            return acc

        return [total(s.id) for s in self.named(parent_name, window)]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.token = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.token)
        return False
