"""In-memory spans around calls into the library, taken from outside it.

A :class:`Tracer` replaces chosen module bindings (and class attributes such
as ``ArcStream.from_text``) with thin wrappers that record one span per call:
name, start, end, parent span and a few counts.  Spans nest the way the code
calls itself, because a wrapped function that calls another wrapped binding
opens the child span while its own is still on the stack.  Every binding is
restored by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

WRAPPED_MARK = "__perfbench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str, **attrs: Any) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise AssertionError("spans closed out of order")

    def wrap(self, fn: Callable, name: str, info: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``info(args, kwargs, result)``
        may return counts to attach to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if info is not None:
                self.spans[idx].attrs.update(info(args, kwargs, result))
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self, owner: object, attr: str, name: str, info: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper (classmethods stay
        classmethods)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, info)))
        else:
            setattr(owner, attr, self.wrap(raw, name, info))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                rec.update(s.attrs)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children of one span run one after another (single thread), so their
    covered part is the union of their clipped intervals; overlapping children
    are merged rather than double counted.
    """
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for j in sorted(kids[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[j].start, s.start), min(spans[j].end, s.end)
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
        out.append(s.duration - covered)
    return out

