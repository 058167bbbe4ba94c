"""In-memory span recorder and the timing wrappers the traced run installs.

A span is one call into a layer: name, start, end, parent span, thread and
run id, plus a few attributes read off the call's result. Each thread keeps
its own stack of open spans, so spans from the sweep's worker threads nest
correctly. The wrappers replace public names on the qvpn modules (and three
methods on classes) where the workloads call them; `install` returns a
function that puts every original back.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def call(self, name, fn, args, kwargs, describe=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        attrs = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, threading.get_ident(),
                        self.run_id, attrs)
            with self._lock:
                self.spans.append(span)
        if describe is not None:
            attrs.update(describe(result, args, kwargs))
        return result

    def record(self, name, start, end, **attrs):
        """Add a finished top-level span for an interval timed elsewhere."""
        span = Span(self._new_id(), name, start, end, None, threading.get_ident(),
                    self.run_id, dict(attrs))
        with self._lock:
            self.spans.append(span)


def _wrap(tracer, name, fn, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, describe)
    wrapper.__wrapped_by_bench__ = True
    return wrapper


def install(tracer, targets):
    """targets: iterable of (owner, attribute, span name, describe or None).

    owner is a module or a class; class attributes keep their descriptor
    kind (a classmethod stays a classmethod). Returns restore().
    """
    saved = []
    for owner, attr, name, describe in targets:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(_wrap(tracer, name, raw.__func__, describe))
        else:
            replacement = _wrap(tracer, name, raw, describe)
        saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return restore


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span_id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.span_id, ())]
        covered = union_length([iv for iv in kids if iv[1] > iv[0]])
        out[s.span_id] = s.duration - covered
    return out
