"""Span tracing from outside the library: wrap public methods, record spans.

A traced pass installs one wrapper per target method (the table lives in
``layers.py``), records one span per call and restores every original
attribute when the pass ends.  Nothing under ``src/`` knows about it.

Span stacks live in a :class:`contextvars.ContextVar` holding an
immutable tuple, so each thread and each asyncio task sees its own stack:
``asyncio.to_thread`` copies the caller's context into the worker
thread, which makes the awaiting span the parent of the thread's spans,
and concurrent tasks on one loop never pop each other's spans.

A span's self time is its duration minus the *union* of its children's
intervals (clipped to the span), so children that overlap in time, such
as two campaign jobs running in two threads under one runner span, can
never drive a layer's self time below zero.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The open spans of the current context, innermost last.
_STACK: contextvars.ContextVar = contextvars.ContextVar("perfbench_spans", default=())
#: Identifier of the closed-loop op the current context is serving.
_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default="")

#: Passed to a hook in place of the result when the wrapped call raised.
RAISED = object()

#: ``hook(args, result) -> [(counter, increment), ...]``
Hook = Callable[[tuple, Any], Sequence[Tuple[str, float]]]


class Span:
    """One call of a wrapped method: layer, interval, parent, thread, op."""

    __slots__ = ("ident", "layer", "parent", "start", "end", "self_s", "thread", "op", "children")

    def __init__(self, ident: int, layer: str, parent: Optional["Span"]) -> None:
        self.ident = ident
        self.layer = layer
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.self_s = 0.0
        self.thread = threading.get_ident()
        self.op = _OP.get()
        self.children: List[Tuple[float, float]] = []

    def as_record(self) -> list:
        """Compact JSON row: id, layer, parent id, start, end, self, thread, op."""
        parent = self.parent.ident if self.parent is not None else -1
        return [self.ident, self.layer, parent, self.start, self.end, self.self_s,
                self.thread, self.op]


def covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


class Tracer:
    """Installs wrappers, collects spans and counters, restores originals."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: List[Tuple[str, float]] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._next_id = 0
        self._id_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, layer: str) -> Tuple[Span, contextvars.Token]:
        stack = _STACK.get()
        with self._id_lock:
            ident = self._next_id
            self._next_id += 1
        span = Span(ident, layer, stack[-1] if stack else None)
        token = _STACK.set(stack + (span,))
        span.start = time.perf_counter()
        return span, token

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _STACK.reset(token)
        span.self_s = (span.end - span.start) - covered(span.start, span.end, span.children)
        span.children = []
        if span.parent is not None:
            span.parent.children.append((span.start, span.end))
        self.spans.append(span)

    def _count(self, hook: Optional[Hook], args: tuple, result: Any) -> None:
        if hook is not None:
            self.counts.extend(hook(args, result))

    def _wrap(self, fn: Callable, layer: str, hook: Optional[Hook]) -> Callable:
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, token = self._open(layer)
                result = RAISED
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    self._close(span, token)
                    self._count(hook, args, result)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = self._open(layer)
            result = RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span, token)
                self._count(hook, args, result)
        return wrapper

    # ------------------------------------------------------------------
    # Installing and restoring wrappers
    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Tuple[Any, str, str, Optional[Hook]]]) -> None:
        """Wrap ``owner.attr`` for every ``(owner, attr, layer, hook)``.

        ``owner`` is a class or a module that defines ``attr`` itself, so
        restoring means putting the exact original object back.
        """
        for owner, attr, layer, hook in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self._wrap(raw.__func__, layer, hook))
            else:
                wrapped = self._wrap(raw, layer, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original attribute back (in reverse install order)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, targets) -> Iterator["Tracer"]:
        """Wrappers in place for the ``with`` body, originals restored after."""
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` over every recorded span."""
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = totals.setdefault(span.layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += span.self_s
            entry["calls"] += 1
        return totals

    def counter_totals(self) -> Dict[str, float]:
        """Sum of every hook counter by name."""
        totals: Dict[str, float] = {}
        for name, value in self.counts:
            totals[name] = totals.get(name, 0.0) + value
        return totals


@contextlib.contextmanager
def op_scope(op: str) -> Iterator[None]:
    """Tag the spans opened in this block with one op identifier."""
    token = _OP.set(op)
    try:
        yield
    finally:
        _OP.reset(token)
