"""In-memory spans recorded by the benchmark around calls into each layer.

Spans live only in this process (no tracing inside ``src/``): the
traced run wraps the public entry points of each layer for the duration
of one op, records ``(name, start, end, parent, op)`` per call, and
writes every span as JSONL when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval covered by its direct children.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, id: int, name: str, start: float, parent: Optional[int], op: Any) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.op = op
        self.attrs: Dict[str, Any] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Recorder:
    """Thread-aware span recorder; each thread keeps its own stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Any = None, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                next(self._ids),
                name,
                time.perf_counter(),
                parent.id if parent else None,
                op if op is not None or parent is None else parent.op,
            )
            self.spans.append(span)
        span.attrs.update(attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Any]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (children clipped to the parent's interval)."""
    children: Dict[int, List[Any]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        ]
        out[span.id] = (span.end - span.start) - _covered(clipped)
    return out


# ----------------------------------------------------------------------
# wrapping public entry points for the duration of a traced op
# ----------------------------------------------------------------------
class Patches:
    """Temporarily replace attributes; ``restore()`` undoes all of them."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
