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
tasks) and wrap each algorithm phase in
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

from .chunking import plan_chunks
from .trace import TELEMETRY_HISTORY, PhaseTrace, peak_rss_bytes

__all__ = ["ExecutionBackend", "chunked"]

#: A chunk kernel: positional slab chunks in, array (or tuple of arrays) out.
ChunkKernel = Callable[..., Any]


class ExecutionBackend(abc.ABC):
    """Common interface of the serial/thread/process execution backends.

    Subclasses implement :meth:`run_chunks` (slab-chunk fan-out) and
    :meth:`map` (generic ordered task map).  The base class owns worker
    accounting, phase tracing, the inline path every backend takes for a
    lone chunk or task, and context-manager lifecycle; backends that hold
    pools or shared memory release them in :meth:`close`.
    """

    #: Registry name, e.g. ``"serial"``; set by each subclass.
    name: str = "base"

    def __init__(
        self,
        n_workers: int | None = None,
        chunk_size: int | None = None,
    ) -> None:
        import os

        from ..exceptions import ShapeError

        workers = int(n_workers) if n_workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise ShapeError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_size is not None and int(chunk_size) < 1:
            raise ShapeError(f"chunk_size must be >= 1, got {chunk_size}")
        self.n_workers = workers
        self.chunk_size = None if chunk_size is None else int(chunk_size)
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

    def _tally_steals(self, workers: Sequence[str], n_tasks: int) -> None:
        """Steals = tasks pulled beyond each worker's first in this dispatch."""
        trace = getattr(self._local, "trace", None)
        if trace is not None and n_tasks > 1:
            trace.steals += n_tasks - len(set(workers))

    # -- inline execution --------------------------------------------------
    def _inline_worker(self) -> str:
        """Worker id under which work run on the calling thread is recorded."""
        return "main"

    def _run_inline(
        self,
        kernel: ChunkKernel,
        plan: Sequence[tuple[int, int]],
        slabs: Sequence[np.ndarray],
        broadcast: dict[str, Any],
        out: Any = None,
    ) -> list[Any] | None:
        """:meth:`run_chunks` on the calling thread, one chunk after another."""
        results = []
        for start, stop in plan:
            t0 = time.perf_counter()
            results.append(run_chunk_here(kernel, slabs, broadcast, start, stop, out))
            self._record_task(
                self._inline_worker(),
                stop - start,
                busy_seconds=time.perf_counter() - t0,
            )
        return results if out is None else None

    def _map_inline(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[tuple[int, Any]]:
        """:meth:`map_completed` on the calling thread, in item order."""
        for idx, item in enumerate(items):
            t0 = time.perf_counter()
            out = fn(item)
            self._record_task(
                self._inline_worker(), 1, busy_seconds=time.perf_counter() - t0
            )
            yield idx, out

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
    ) -> Iterator[tuple[int, Any]]:
        """Run a task function over items, yielding ``(index, result)`` as each finishes.

        For the process backend ``fn`` and every item must be picklable
        (module-level functions, ``functools.partial`` of them, plain data).
        Used by workloads whose inputs are not slab arrays — e.g. the
        out-of-core path maps over ``(source, start, stop, Ω)``
        file-batch tasks and each worker memory-maps the file itself.  A caller
        that stores each result as it arrives (into a preallocated output)
        never holds more results than are in flight.  Items are submitted
        in item order.
        """

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Ordered map: :meth:`map_completed`'s results in item order."""
        results: list[Any] = [None] * len(items)
        for idx, out in self.map_completed(fn, items):
            results[idx] = out
        return results


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
) -> Any:
    """The map primitive behind every engine-dispatched hot path.

    Splits ``range(n_items)`` into chunks (``chunk_size`` argument, else the
    engine's configured chunk size, else :func:`~repro.engine.chunking
    .plan_chunks`' default: one chunk on one worker, an oversplit of equal
    counts on more), maps ``kernel`` over the chunks via the engine, writes
    every chunk's result into its rows of ``out`` and returns ``out``.  The
    persistent pools hand queued chunks to whichever worker frees up, so
    load balances at run time; chunk *outputs* are bit-identical under
    every plan, because every kernel is per-item.

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
        Explicit chunk length override (pins the plan).
    """
    size = chunk_size if chunk_size is not None else engine.chunk_size
    plan = plan_chunks(n_items, engine.n_workers, size)
    slabs, broadcast = tuple(slabs), dict(broadcast or {})
    if callable(out):
        if len(plan) == 1:
            # A lone chunk's own result is the output: nothing to copy.
            return engine.run_chunks(kernel, plan, slabs, broadcast)[0]
        out = out()
    engine.run_chunks(kernel, plan, slabs, broadcast, out)
    return out
