"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module-level functions by timing wrappers, at the name
under which the calling module looks them up (for example
`spherecurv.shape.fit_theta0`, the binding `curvature_report` calls). Each
call becomes one span: (id, parent id, operation id, name, start ns, end ns,
count). Spans stay in a list until the benchmark writes them out at the end.

A target whose module or attribute no longer exists is recorded in `absent`
instead of raising, so the benchmark keeps working after the program drops a
layer.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Iterable

# A span record: (span id, parent span id, operation id, name, start ns, end ns, count).
Span = tuple[int, int, int, str, int, int, "int | None"]


class Tracer:
    """Wraps targets on install(), restores them on uninstall()."""

    def __init__(self, targets: Iterable[tuple[str, Callable | None]]):
        # targets: ("package.module.attr", count_fn or None); count_fn maps
        # (args, result) to an integer recorded with the span.
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack = [0]
        self._op = 0
        self._op_start = 0
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for name, count_fn in self.targets:
            module_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count_fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def begin_op(self) -> int:
        """Open a root span for one benchmark operation; returns its id."""
        sid = self._next_id
        self._next_id += 1
        self._op = sid
        self._stack.append(sid)
        self._op_start = time.perf_counter_ns()
        return sid

    def end_op(self, name: str) -> None:
        end = time.perf_counter_ns()
        sid = self._stack.pop()
        self.spans.append((sid, self._stack[-1], sid, name, self._op_start, end, None))
        self._op = 0

    def _wrap(self, name: str, fn: Callable, count_fn: Callable | None) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, tracer._op, name, start, clock(), None))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            count = count_fn(args, result) if count_fn is not None else None
            spans.append((sid, parent, tracer._op, name, start, end, count))
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct child spans cover (ns).

    Children of one span never overlap: the traced code is single-threaded
    and a child span closes before its parent does.
    """
    child_ns: dict[int, int] = {}
    for _sid, parent, _op, _name, start, end, _count in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return {sid: (end - start) - child_ns.get(sid, 0) for sid, _p, _o, _n, start, end, _c in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self time in microseconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, _op, name, start, end, _count in spans:
        row = out.setdefault(name, {"calls": 0, "total_us": 0.0, "self_us": 0.0})
        row["calls"] += 1
        row["total_us"] += (end - start) / 1e3
        row["self_us"] += selfs[sid] / 1e3
    return out
