"""In-memory spans around the public calls into each gradepipe layer.

Nothing in ``src/`` is changed: :meth:`Tracer.patch` swaps a module-level
name or a class attribute for a wrapper that records a span and restores
the original when the tracer closes. ``gradepipe.pipeline`` looks up the
stage functions at module level at call time, so patching its names is
enough to see every call the session makes.

Spans of one submission share a trace id, held in a thread-local while
``GradingSession.grade_archive`` runs; a span's parent is the span open on
the same thread when it started. Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


# Called with (span, args, kwargs, result) after the wrapped call returns.
Annotate = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def patch(self, owner: object, attr: str, name: str, annotate: Annotate | None = None,
              new_trace: bool = False) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``.

        With ``new_trace`` the call starts a fresh trace id for itself and
        everything it calls on the same thread.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            if new_trace or parent is None:
                trace_id = f"{name}-{span_id}"
            else:
                trace_id = parent.trace_id
            span = Span(span_id, parent.span_id if parent else None, trace_id, name, time.perf_counter())
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Put every patched name back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def compute_self_times(self) -> None:
        """Self time: a span's duration minus that of its direct children.

        Children of a span run on its thread inside its interval, one after
        another, so their durations never overlap and can simply be summed.
        """
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id] = children.get(span.parent_id, 0.0) + span.duration
        for span in self.spans:
            span.self_s = span.duration - children.get(span.span_id, 0.0)

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, ordered by start time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "trace": span.trace_id, "id": span.span_id, "parent": span.parent_id,
                    "name": span.name, "start": span.start, "end": span.end,
                    "self_s": span.self_s, "attrs": span.attrs,
                }) + "\n")
