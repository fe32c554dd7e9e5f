"""In-memory span tracing installed from outside the program.

:class:`Tracer` keeps spans in a list, each with a parent link, and
writes them as JSONL at the end of a run.  :class:`Patches` swaps a
timing wrapper in for a public function *where its caller looks it up*
(a module attribute or a class attribute) and puts the original back on
:meth:`Patches.restore`; nothing under ``src/`` changes.

Self time of a span is its duration minus the part of its interval that
its children cover.  Children may overlap (a scatter to four shards
runs four sub-queries at once), so the covered part is the length of
the union of the children's intervals, clipped to the parent.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "parent", "name", "thread", "start", "end")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 thread: int, start: float) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "thread": self.thread, "start": self.start, "end": self.end}


class Tracer:
    """Spans in memory; a per-thread stack gives each new span its parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, push: bool = True) -> Span:
        """Start a span under the thread's current one.  ``push=False``
        leaves the thread's stack alone: use it for a span that another
        thread finishes."""
        top = self.current()
        span = Span(next(self._ids), top.sid if top is not None else None,
                    name, threading.get_ident(), perf_counter())
        self.spans.append(span)
        if push:
            self._stack().append(span)
        return span

    def close(self, span: Span, pop: bool = True) -> None:
        span.end = perf_counter()
        if pop:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A wrapper timing each call of ``fn`` as a span ``name``.

        Generator functions get a generator wrapper whose span lasts
        until the generator is exhausted, so lazy work is counted.
        """
        tracer = self
        target = fn if inspect.isfunction(fn) or inspect.ismethod(fn) \
            else type(fn).__call__
        if inspect.isgeneratorfunction(target):
            def gen_wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(span)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
        return wrapper

    def finished(self, since: float = float("-inf")) -> List[Span]:
        """Finished spans that started at or after ``since``."""
        return [s for s in self.spans
                if s.end is not None and s.start >= since]

    def write_jsonl(self, path: str) -> int:
        spans = self.finished()
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_dict()))
                handle.write("\n")
        return len(spans)


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``{span id: self seconds}`` for finished spans."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.end is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration
        - covered((span.start, span.end), children.get(span.sid, ()))
        for span in spans if span.end is not None
    }


class Patches:
    """Install timing wrappers at named lookup sites; restore them later.

    A target is ``"module:attr"`` or ``"module:Class.attr"``.  Class
    attributes keep their kind: a classmethod stays a classmethod.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self, target: str, name: str) -> None:
        """Wrap ``target`` so that each call is one span ``name``."""
        self.install_with(target, lambda fn: self.tracer.wrap(fn, name))

    def install_with(self, target: str,
                     make: Callable[[Callable], Callable]) -> None:
        """Replace ``target`` by ``make(original function)``."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(make(raw.__func__))
        else:
            patched = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
