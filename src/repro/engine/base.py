"""The execution-backend interface and the ``chunked`` map primitive.

D-Tucker's hot loops share one shape: ``L`` independent items (slice
matrices in the approximation phase, slice blocks of the ``(L, ·, ·)``
triples in every per-mode contraction of the iteration phase, slice
batches in the out-of-core path).  A backend executes such work as ordered
chunk tasks:

* :class:`SerialBackend` runs every chunk inline (one chunk by default, so
  the computation is *exactly* the seed code path, bit for bit);
* :class:`~repro.engine.thread.ThreadBackend` fans chunks over a thread
  pool while capping the BLAS thread team to avoid oversubscription;
* :class:`~repro.engine.process.ProcessBackend` fans chunks over worker
  processes, publishing the input arrays once as shared-memory slabs.

Solvers never talk to pools directly — they call :func:`chunked` (stacked
array inputs, results written into a caller-owned output) or
:meth:`ExecutionBackend.map` (arbitrary picklable tasks, e.g. file-batch
descriptors) and wrap each algorithm phase in
:meth:`ExecutionBackend.phase` so a structured
:class:`~repro.engine.trace.PhaseTrace` is emitted per phase.
"""

from __future__ import annotations

import abc
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .chunking import chunk_costs, plan_chunks, plan_dynamic_chunks
from .cost import CostModel, as_cost_array
from .trace import TELEMETRY_HISTORY, PhaseTrace, peak_rss_bytes

__all__ = [
    "ExecutionBackend",
    "chunked",
    "resolve_schedule",
    "SCHEDULE_NAMES",
]

#: A chunk kernel: positional slab chunks in, array (or tuple of arrays) out.
ChunkKernel = Callable[..., Any]

#: Scheduling policies accepted by ``schedule=`` arguments.
SCHEDULE_NAMES: tuple[str, ...] = ("auto", "static", "dynamic")


def resolve_schedule(schedule: str | None, n_workers: int, n_items: int) -> str:
    """Resolve a schedule spec into ``"static"`` or ``"dynamic"``.

    ``"auto"`` (and ``None``) picks dynamic exactly when it can help: more
    than one worker to race, and more items than workers so the range can
    be oversplit.  A serial backend therefore always resolves static and
    keeps its single-chunk (bit-identical, single-BLAS-call) plan.
    """
    if schedule in ("static", "dynamic"):
        return schedule
    if schedule not in (None, "auto"):
        from ..exceptions import BackendError

        raise BackendError(
            f"schedule must be one of {', '.join(SCHEDULE_NAMES)}, got {schedule!r}"
        )
    return "dynamic" if int(n_workers) > 1 and int(n_items) > int(n_workers) else "static"


class ExecutionBackend(abc.ABC):
    """Common interface of the serial/thread/process execution backends.

    Subclasses implement :meth:`run_chunks` (slab-chunk fan-out) and
    :meth:`map` (generic ordered task map).  The base class owns worker
    accounting, phase tracing, and context-manager lifecycle; backends that
    hold pools or shared memory release them in :meth:`close`.
    """

    #: Registry name, e.g. ``"serial"``; set by each subclass.
    name: str = "base"

    def __init__(
        self,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        schedule: str = "auto",
    ) -> None:
        import os

        from ..exceptions import BackendError, ShapeError

        workers = int(n_workers) if n_workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise ShapeError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_size is not None and int(chunk_size) < 1:
            raise ShapeError(f"chunk_size must be >= 1, got {chunk_size}")
        if schedule not in SCHEDULE_NAMES:
            raise BackendError(
                f"schedule must be one of {', '.join(SCHEDULE_NAMES)}, "
                f"got {schedule!r}"
            )
        self.n_workers = workers
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self.schedule = schedule
        #: The most recent closed phases (at most ``TELEMETRY_HISTORY``);
        #: a caller that needs every phase of its own work uses
        #: :meth:`collect`.
        self.traces: deque[PhaseTrace] = deque(maxlen=TELEMETRY_HISTORY)
        # Per thread: the open phase is the one the dispatching thread
        # opened, and a phase is collected by the thread that closes it.
        self._local = threading.local()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release pools/shared memory; the backend is reusable after close."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- tracing -----------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseTrace]:
        """Group all work dispatched inside the block under one trace."""
        trace = PhaseTrace(phase=name, backend=self.name, n_workers=self.n_workers)
        previous = getattr(self._local, "trace", None)
        self._local.trace = trace
        start = time.perf_counter()
        try:
            yield trace
        finally:
            trace.seconds += time.perf_counter() - start
            trace.peak_rss_bytes = peak_rss_bytes()
            self._local.trace = previous
            self.traces.append(trace)
            for sink in getattr(self._local, "sinks", ()):
                sink.append(trace)

    @contextmanager
    def collect(self) -> Iterator[list[PhaseTrace]]:
        """Collect every phase this thread closes inside the block, in order."""
        sink: list[PhaseTrace] = []
        self._local.sinks = getattr(self._local, "sinks", ()) + (sink,)
        try:
            yield sink
        finally:
            self._local.sinks = tuple(s for s in self._local.sinks if s is not sink)

    def _record_task(
        self,
        worker_id: str,
        chunk_size: int,
        *,
        busy_seconds: float = 0.0,
        wait_seconds: float = 0.0,
    ) -> None:
        trace = getattr(self._local, "trace", None)
        if trace is not None:
            trace.record_task(
                worker_id,
                chunk_size,
                busy_seconds=busy_seconds,
                wait_seconds=wait_seconds,
            )

    def _record_dispatch(self, schedule: str | None = None, *, steals: int = 0) -> None:
        trace = getattr(self._local, "trace", None)
        if trace is not None:
            trace.record_dispatch(schedule, steals=steals)

    # -- execution ---------------------------------------------------------
    @abc.abstractmethod
    def run_chunks(
        self,
        kernel: ChunkKernel,
        plan: Sequence[tuple[int, int]],
        slabs: Sequence[np.ndarray],
        broadcast: dict[str, Any],
        out: Any = None,
    ) -> list[Any] | None:
        """Run ``kernel(*slab[start:stop] …, **broadcast)`` per planned chunk.

        ``slabs`` are arrays indexed along axis 0 by the item index; every
        kernel invocation receives the corresponding row-chunk of each slab
        (a view for in-process backends, a shared-memory view for the
        process backend).

        Without ``out`` the results are returned in plan order.  With
        ``out`` (an array, or a tuple of arrays, indexed along axis 0 by the
        item index) the results land in ``out`` and ``None`` is returned:
        a chunk that runs in this process gets ``out=`` views of its rows
        (:func:`run_chunk_here`) and writes them in place; a chunk that runs in
        a worker process returns fresh arrays, which are copied into its
        rows as they arrive (:func:`store_chunk`) and then dropped.

        A kernel running in a worker process must return fresh arrays (no
        views into its inputs): the shared-memory views are unmapped when
        the task ends.
        """

    @abc.abstractmethod
    def map_completed(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        costs: "CostModel | Sequence[float] | None" = None,
        schedule: str | None = None,
    ) -> Iterator[tuple[int, Any]]:
        """Run a task function over items, yielding ``(index, result)`` as each finishes.

        For the process backend ``fn`` and every item must be picklable
        (module-level functions, ``functools.partial`` of them, plain data).
        Used by workloads whose inputs are not slab arrays — e.g. the
        out-of-core path maps over ``(start, stop, Ω)`` file-batch
        descriptors and each worker memory-maps the file itself.  A caller
        that stores each result as it arrives (into a preallocated output)
        never holds more results than are in flight.

        ``costs`` are optional per-item weights: under a dynamic schedule
        parallel backends submit the heaviest items first (longest
        processing time first), so the pool queue drains into a balanced
        finish.
        """

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        costs: "CostModel | Sequence[float] | None" = None,
        schedule: str | None = None,
    ) -> list[Any]:
        """Ordered map: :meth:`map_completed`'s results in item order."""
        results: list[Any] = [None] * len(items)
        for idx, out in self.map_completed(fn, items, costs=costs, schedule=schedule):
            results[idx] = out
        return results

    def _map_order(
        self,
        n_items: int,
        costs: "CostModel | Sequence[float] | None",
        schedule: str | None,
    ) -> "list[int] | None":
        """Cost-descending submission order for a dynamic map, or ``None``.

        Shared by the parallel backends; ``None`` means submit in item
        order (no cost model, a static schedule, or nothing to reorder).
        """
        if resolve_schedule(schedule or self.schedule, self.n_workers, n_items) != "dynamic":
            return None
        arr = as_cost_array(costs, n_items)
        if arr is None or n_items < 3:
            return None
        return list(np.argsort(-arr, kind="stable"))


def run_chunk_here(
    kernel: ChunkKernel,
    slabs: Sequence[np.ndarray],
    broadcast: dict[str, Any],
    start: int,
    stop: int,
    out: Any = None,
) -> Any:
    """Run one chunk in this process: into its rows of ``out``, or returned.

    With ``out`` the kernel gets ``out=`` views of rows ``start:stop`` (of
    every array, when ``out`` is a tuple) and ``None`` is returned.
    """
    views = (s[start:stop] for s in slabs)
    if out is None:
        return kernel(*views, **broadcast)
    if isinstance(out, tuple):
        rows = tuple(o[start:stop] for o in out)
    else:
        rows = out[start:stop]
    kernel(*views, **broadcast, out=rows)
    return None


def store_chunk(out: Any, start: int, stop: int, result: Any) -> None:
    """Copy one returned chunk ``result`` into rows ``start:stop`` of ``out``."""
    if isinstance(out, tuple):
        for dst, part in zip(out, result):
            dst[start:stop] = part
    else:
        out[start:stop] = result


def chunked(
    engine: ExecutionBackend,
    kernel: ChunkKernel,
    n_items: int,
    *,
    out: Any,
    slabs: Sequence[np.ndarray] = (),
    broadcast: dict[str, Any] | None = None,
    chunk_size: int | None = None,
    costs: "CostModel | Sequence[float] | None" = None,
    schedule: str | None = None,
) -> Any:
    """The map primitive behind every engine-dispatched hot path.

    Splits ``range(n_items)`` into chunks (``chunk_size`` argument, else the
    engine's configured chunk size, else the scheduling policy below), maps
    ``kernel`` over the chunks via the engine, writes every chunk's result
    into its rows of ``out`` and returns ``out``.

    Scheduling: the resolved policy (``schedule`` argument, else the
    engine's configured policy) decides the plan.  ``static`` makes one
    chunk per worker — cost-balanced boundaries when ``costs`` are given.
    ``dynamic`` oversplits the range (see
    :func:`~repro.engine.chunking.plan_dynamic_chunks`) and submits the
    heaviest chunks first; the persistent pools hand queued chunks to
    whichever worker frees up, so load balances at run time even when the
    cost model is wrong.  Either way chunk *outputs* are bit-identical —
    every kernel is per-item — so the policy is purely a performance knob.

    Parameters
    ----------
    engine:
        Backend to dispatch on.
    kernel:
        Module-level function ``kernel(*slab_chunks, **broadcast, out=None)``
        that writes into ``out=`` (the chunk's rows) when given and returns
        fresh arrays otherwise (see :meth:`ExecutionBackend.run_chunks`).
    n_items:
        Length of the item axis (axis 0 of every slab).
    out:
        Caller-owned output (an array or a tuple of arrays whose axis 0 is
        the item axis).  Each chunk's result is written into its rows once;
        no per-chunk list is kept and nothing is concatenated.  A zero-
        argument callable that allocates the output defers the allocation:
        a plan of one chunk then returns the kernel's own result as is.
    slabs:
        Arrays sliced per chunk along axis 0.
    broadcast:
        Small keyword arguments shipped whole to every chunk (factor
        matrices, test matrices, scalars).
    chunk_size:
        Explicit chunk length override (pins granularity under both
        policies).
    costs:
        Optional per-item cost weights (a :class:`~repro.engine.cost
        .CostModel` or array-like) from the layer that knows the work
        distribution.
    schedule:
        ``"static"`` / ``"dynamic"`` / ``"auto"`` override of the engine's
        configured policy.
    """
    size = chunk_size if chunk_size is not None else engine.chunk_size
    cost_arr = as_cost_array(costs, n_items)
    resolved = resolve_schedule(
        schedule if schedule is not None else engine.schedule,
        engine.n_workers,
        n_items,
    )
    if resolved == "dynamic":
        plan = plan_dynamic_chunks(
            n_items, engine.n_workers, costs=cost_arr, chunk_size=size
        )
    else:
        plan = plan_chunks(n_items, engine.n_workers, size, costs=cost_arr)
    if len(plan) > 1:
        engine._record_dispatch(resolved)
    slabs, broadcast = tuple(slabs), dict(broadcast or {})
    if callable(out):
        if len(plan) == 1:
            # A lone chunk's own result is the output: nothing to copy.
            return engine.run_chunks(kernel, plan, slabs, broadcast)[0]
        out = out()
    if resolved == "dynamic" and cost_arr is not None and len(plan) > 2:
        # Longest-processing-time-first submission: the queue then drains
        # into the tightest greedy finish.  Chunks address their own rows
        # of ``out``, so the submission order never shows in the result.
        weights = chunk_costs(plan, cost_arr)
        plan = [plan[i] for i in np.argsort(-weights, kind="stable")]
    engine.run_chunks(kernel, plan, slabs, broadcast, out)
    return out
