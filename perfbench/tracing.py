"""Span recording for the traced benchmark run, from outside the program.

A Tracer wraps functions where a calling module binds them, so the program
itself is not edited: `install` swaps each module attribute for a timing
wrapper and returns a function that puts the originals back. Every call
becomes a Span with its name, start, end, parent span and query id. Spans
stay in memory until the run ends.

Parents come from a per-thread stack. A worker thread of a pool starts with
an empty stack; its spans take as parent the innermost span open on the
thread that created the Tracer, which is the span that started the pool.

Also here: the interval arithmetic for self time and the tail-percentile
rule used by every timing the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

# percentiles considered for a tail, in thousandths, highest first
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
_MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    query_id: str | None = None
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.query_id, self.ok, self.attrs]

    @classmethod
    def from_row(cls, row: Sequence) -> "Span":
        return cls(*row)


@dataclass(frozen=True)
class Binding:
    """One module attribute to wrap, the span name its calls get, and
    optional hooks reading the query id from the arguments and counts from
    the arguments and result."""

    module: str
    attr: str
    span: str
    query_of: Callable[[tuple], str | None] | None = None
    counts: Callable[[tuple, object], dict] | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        top = self._root_stack[-1:]  # slicing never raises if the root thread pops meanwhile
        return top[0] if top else None

    def wrap(self, binding: Binding, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), binding.span, 0.0, 0.0, self._parent(stack),
                        binding.query_of(args) if binding.query_of else None)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if binding.counts:
                span.attrs = binding.counts(args, result)
            return result
        return traced


def install(tracer: Tracer, bindings: Iterable[Binding]) -> tuple[Callable[[], None], list[str]]:
    """Wrap every binding that exists; return (restore, absent bindings).

    A module or attribute that no longer exists is reported in `absent`
    instead of raising, so the benchmark outlives refactors that remove a
    call site; its span simply never appears.
    """
    replaced: list[tuple[object, str, object]] = []
    absent: list[str] = []
    for b in bindings:
        try:
            module = importlib.import_module(b.module)
        except ImportError:
            absent.append(f"{b.module}.{b.attr}")
            continue
        original = getattr(module, b.attr, None)
        if not callable(original):
            absent.append(f"{b.module}.{b.attr}")
            continue
        setattr(module, b.attr, tracer.wrap(b, original))
        replaced.append((module, b.attr, original))

    def restore() -> None:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)

    return restore, absent


# ---------------------------------------------------------------------------
# span arithmetic

def covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        start = max(start, reach)
        total += end - start
        reach = end
    return total


def descendants(spans: Sequence[Span], root: Span) -> list[Span]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out, todo = [], [root.id]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child.id)
    return out


def self_time(spans: Sequence[Span], root: Span, names: Iterable[str]) -> float:
    """`root`'s duration minus the part covered by its descendants named in
    `names`; other descendants count as root's own work. Overlapping
    spans, as from two worker threads, are covered once."""
    wanted = set(names)
    kids = [s for s in descendants(spans, root) if s.name in wanted]
    return root.duration - covered(root.start, root.end, ((s.start, s.end) for s in kids))


# ---------------------------------------------------------------------------
# percentiles

def tail_permille(n: int) -> int | None:
    """Highest percentile (in thousandths) with at least ten samples beyond
    it under the nearest-rank rule: 990 for n=1000, 900 for n=100."""
    for p in _TAIL_PERMILLE:
        rank = -(-p * n // 1000)
        if n - rank >= _MIN_BEYOND:
            return p
    return None


def nearest_rank(values: Sequence[float], permille: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[str, float] | None:
    """('p99', value) for the tail percentile of `values`, or None if too few."""
    p = tail_permille(len(values))
    if p is None:
        return None
    return f"p{p / 10:g}", nearest_rank(values, p)
