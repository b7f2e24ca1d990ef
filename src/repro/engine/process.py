"""The process backend: chunk fan-out over workers, inputs as shared memory.

Worker processes sidestep the GIL and any BLAS-threading interplay
entirely, at the price of inter-process data movement.  The backend keeps
that price low with two mechanisms:

* **Shared-memory slabs** — slab arrays (the slice triples ``U``/``s``/
  ``Vt``, the slice stack being compressed) are copied once into
  :class:`multiprocessing.shared_memory.SharedMemory` segments and cached
  for the lifetime of the backend, keyed by array identity.  Tasks ship
  only ``(segment name, shape, dtype, start, stop)`` descriptors; workers
  attach and compute on zero-copy views.  An ALS run that dispatches
  dozens of per-mode contractions per sweep therefore uploads its triples
  exactly once.
* **A persistent pool** — workers are forked once (``fork`` start method
  where available, ``spawn`` elsewhere) and reused across all chunk maps.
  A worker that dies mid-dispatch breaks the pool: the dispatch raises
  :class:`~repro.exceptions.BackendError` (chained from the
  :class:`~concurrent.futures.process.BrokenProcessPool`), the broken pool
  is discarded, and the next dispatch starts a fresh one.  Published slabs
  stay owned by the backend and are unlinked by :meth:`close` as usual.

Kernels must be module-level functions (or ``functools.partial`` of them)
and must return fresh arrays, never views into the shared slabs — the view
memory is unmapped when the task ends.

Dynamic scheduling works exactly as on the thread backend: the pool's
shared task queue is the work-stealing mechanism, the backend measures
per-task busy time, queue wait, and steal counts.  Queue wait crosses the
process boundary, so it is measured with ``time.time()`` (comparable
between processes on one machine) rather than ``perf_counter`` (per-process
epoch); busy time stays on ``perf_counter`` since it is taken inside one
process.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import BackendError
from .base import ChunkKernel, ExecutionBackend, run_chunk_here, store_chunk
from .cost import CostModel

__all__ = ["ProcessBackend"]

#: Descriptor of one shared slab: (segment name, shape, dtype string).
_SlabDescr = tuple[str, tuple[int, ...], str]


def _chunk_worker(
    kernel: ChunkKernel,
    descrs: Sequence[_SlabDescr],
    bounds: tuple[int, int],
    broadcast: dict[str, Any],
    submitted: float,
) -> tuple[int, float, float, Any]:
    """Attach the shared slabs, run one chunk, detach. Runs in the worker."""
    begin = time.time()
    t0 = time.perf_counter()
    start, stop = bounds
    segments = []
    views = []
    try:
        for name, shape, dtype in descrs:
            seg = shared_memory.SharedMemory(name=name)
            segments.append(seg)
            views.append(np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)[start:stop])
        result = kernel(*views, **broadcast)
    finally:
        del views
        for seg in segments:
            seg.close()
    return os.getpid(), begin - submitted, time.perf_counter() - t0, result


def _task_worker(
    fn: Callable[[Any], Any], item: Any, submitted: float
) -> tuple[int, float, float, Any]:
    """Run one generic task in the worker, tagging the result with the pid."""
    begin = time.time()
    t0 = time.perf_counter()
    out = fn(item)
    return os.getpid(), begin - submitted, time.perf_counter() - t0, out


class ProcessBackend(ExecutionBackend):
    """Run chunks on a persistent process pool with shared-memory inputs."""

    name = "process"

    def __init__(
        self,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        schedule: str = "auto",
    ) -> None:
        super().__init__(n_workers=n_workers, chunk_size=chunk_size, schedule=schedule)
        self._pool: ProcessPoolExecutor | None = None
        # id(array) -> (array, segment, descriptor).  The array reference
        # both prevents the id from being recycled and keeps the cache
        # valid for the backend's lifetime.
        self._slabs: dict[int, tuple[np.ndarray, shared_memory.SharedMemory, _SlabDescr]] = {}

    # -- lifecycle ---------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers, mp_context=ctx)
        return self._pool

    def _discard_broken_pool(self) -> BackendError:
        """Drop the broken pool (the next dispatch forks a fresh one)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        return BackendError(
            "a process-backend worker died during the dispatch; the broken "
            "pool was discarded and the next dispatch starts a fresh one"
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for _, segment, _ in self._slabs.values():
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                pass
        self._slabs.clear()

    # -- shared-memory slabs -----------------------------------------------
    def _share(self, array: np.ndarray) -> _SlabDescr:
        """Publish ``array`` as a shared slab (cached by array identity)."""
        key = id(array)
        cached = self._slabs.get(key)
        if cached is not None:
            return cached[2]
        contiguous = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=contiguous.nbytes)
        np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf)[...] = contiguous
        descr: _SlabDescr = (segment.name, contiguous.shape, contiguous.dtype.str)
        self._slabs[key] = (array, segment, descr)
        return descr

    def _tally_steals(self, workers: Sequence[str], n_tasks: int) -> None:
        """Steals = tasks pulled beyond each worker's first in this dispatch."""
        if n_tasks > 1:
            self._record_dispatch(None, steals=n_tasks - len(set(workers)))

    # -- execution ---------------------------------------------------------
    def run_chunks(
        self,
        kernel: ChunkKernel,
        plan: Sequence[tuple[int, int]],
        slabs: Sequence[np.ndarray],
        broadcast: dict[str, Any],
        out: Any = None,
    ) -> list[Any] | None:
        if len(plan) <= 1:
            # One chunk: skip the upload/round-trip and run inline (in this
            # process, so it writes ``out`` in place like the serial backend).
            results = []
            for start, stop in plan:
                t0 = time.perf_counter()
                results.append(
                    run_chunk_here(kernel, slabs, broadcast, start, stop, out)
                )
                self._record_task(
                    f"pid:{os.getpid()}",
                    stop - start,
                    busy_seconds=time.perf_counter() - t0,
                )
            return results if out is None else None
        descrs = [self._share(s) for s in slabs]
        pool = self._ensure_pool()
        results: list[Any] = [None] * len(plan)
        workers = []
        try:
            futures = {}
            for pos, bounds in enumerate(plan):
                task = pool.submit(
                    _chunk_worker, kernel, descrs, bounds, broadcast, time.time()
                )
                futures[task] = (pos, bounds)
            # Workers return fresh arrays; with ``out`` each one is copied
            # into its rows as it arrives and dropped, so no per-chunk list
            # builds up.
            for future in as_completed(futures):
                pos, (start, stop) = futures.pop(future)
                pid, wait, busy, result = future.result()
                worker = f"pid:{pid}"
                workers.append(worker)
                self._record_task(
                    worker,
                    stop - start,
                    busy_seconds=busy,
                    wait_seconds=max(0.0, wait),
                )
                if out is None:
                    results[pos] = result
                else:
                    store_chunk(out, start, stop, result)
        except BrokenProcessPool as exc:
            raise self._discard_broken_pool() from exc
        self._tally_steals(workers, len(plan))
        return results if out is None else None

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        costs: "CostModel | Sequence[float] | None" = None,
        schedule: str | None = None,
    ) -> list[Any]:
        if len(items) <= 1:
            results = []
            for item in items:
                t0 = time.perf_counter()
                results.append(fn(item))
                self._record_task(
                    f"pid:{os.getpid()}", 1, busy_seconds=time.perf_counter() - t0
                )
            return results
        order = self._map_order(len(items), costs, schedule)
        indices = order if order is not None else range(len(items))
        pool = self._ensure_pool()
        results: list[Any] = [None] * len(items)
        workers = []
        try:
            futures = {
                idx: pool.submit(_task_worker, fn, items[idx], time.time())
                for idx in indices
            }
            for idx, future in futures.items():
                pid, wait, busy, out = future.result()
                worker = f"pid:{pid}"
                workers.append(worker)
                self._record_task(
                    worker, 1, busy_seconds=busy, wait_seconds=max(0.0, wait)
                )
                results[idx] = out
        except BrokenProcessPool as exc:
            raise self._discard_broken_pool() from exc
        self._tally_steals(workers, len(items))
        return results
