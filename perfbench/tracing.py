"""Span recording from outside the program, and the Chrome trace export.

The benchmark does not edit ``src/``: it times each layer by wrapping the
layer's public functions and methods for the duration of a traced run.  A
function is replaced in every ``repro`` module namespace that holds it
(``from .x import f`` copies the reference); a method or classmethod is
replaced on its class.  :meth:`Instrumentation.remove` restores every
original.  Calls made inside process-pool workers run unwrapped code, so
their time shows up inside the parent's span and in the engine's
``PhaseTrace`` records, not as spans of their own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "Instrumentation",
    "Span",
    "Target",
    "Tracer",
    "self_times",
    "write_chrome_trace",
]


@dataclass
class Span:
    """One timed call: name, layer, interval, the span that caused it, and its operation."""

    id: int
    name: str
    layer: str | None
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    tid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory, with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str | None) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                layer=layer,
                op=self.op,
                parent=stack[-1].id if stack else None,
                start=time.perf_counter(),
                tid=threading.get_ident(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def run_op(self, op: int, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation under a root span of layer ``"op"``."""
        self.op = op
        span = self.open("op", "op")
        try:
            return fn()
        finally:
            self.close(span)


@dataclass(frozen=True)
class Target:
    """A public function or method to time.

    ``where`` is ``"module:qualname"`` with ``qualname`` either ``func`` or
    ``Class.method``.  ``layer=None`` marks an entry point: its span groups
    the layers below it, and its own self time counts as residual.
    ``prepare(kwargs)`` may rewrite the keyword arguments (to pass a counter
    object where the caller passed none), ``before(args, kwargs)`` snapshots
    counters outside the span, and ``after(state, args, kwargs, result)``
    returns the attributes recorded on the span.
    """

    where: str
    layer: str | None
    before: Callable[[tuple, dict], Any] | None = None
    after: Callable[[Any, tuple, dict, Any], dict] | None = None
    prepare: Callable[[dict], dict] | None = None

    @property
    def name(self) -> str:
        return self.where.split(":")[1]


class Instrumentation:
    """Installs timing wrappers for a list of targets; restores them on exit."""

    def __init__(self, tracer: Tracer, targets: list[Target]) -> None:
        self.tracer = tracer
        self.targets = targets
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, func: Callable, target: Target) -> Callable:
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if target.prepare is not None:
                kwargs = target.prepare(kwargs)
            state = target.before(args, kwargs) if target.before else None
            span = tracer.open(target.name, target.layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if target.after is not None:
                span.attrs.update(target.after(state, args, kwargs, result))
            return result

        return wrapper

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Instrumentation":
        for target in self.targets:
            module_name, qualname = target.where.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                self._replace(cls, meth, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(original, target)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.remove()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    lo_run = hi_run = None
    for lo, hi in sorted(intervals):
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                total += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if hi_run is not None:
        total += hi_run - lo_run
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.id, [])
            if hi > s.start and lo < s.end
        ]
        out[s.id] = max(0.0, s.seconds - _covered(inside))
    return out


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def write_chrome_trace(path: str, spans: list[Span], metadata: dict) -> None:
    """Write spans as Chrome trace-event JSON, which Perfetto and chrome://tracing open."""
    t0 = min((s.start for s in spans), default=0.0)
    selfs = self_times(spans)
    tids: dict[int, int] = {}
    events = []
    for s in spans:
        events.append(
            {
                "name": s.name,
                "cat": s.layer or "entry",
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 1,
                "tid": tids.setdefault(s.tid, len(tids) + 1),
                "args": {
                    "id": s.id,
                    "parent": s.parent,
                    "op": s.op,
                    "self_us": selfs[s.id] * 1e6,
                    **_jsonable(s.attrs),
                },
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": _jsonable(metadata),
            },
            handle,
        )
