"""The process backend: chunk fan-out over workers, inputs as shared memory.

Worker processes sidestep the GIL and any BLAS-threading interplay
entirely, at the price of inter-process data movement.  The backend keeps
that price low with two mechanisms:

* **Shared-memory slabs** — slab arrays (the slice triples ``U``/``s``/
  ``Vt``, the slice stack being compressed) are copied once into
  :class:`multiprocessing.shared_memory.SharedMemory` segments, keyed by
  array identity, and each segment lives exactly as long as the array it
  mirrors (a :func:`weakref.finalize` unlinks it when the array is
  collected).  The copy goes straight into the segment, so a strided
  view or a :class:`~repro.tensor.slices.SliceRuns` stack makes no
  second, process-local copy.  Tasks ship only ``(segment name, shape,
  dtype, start, stop)`` descriptors; workers attach and compute on
  zero-copy views.  An ALS run that dispatches dozens of per-mode
  contractions per sweep therefore uploads its triples exactly once.
* **A persistent pool** — workers are forked once (``fork`` start method
  where available, ``spawn`` elsewhere) and reused across all chunk maps.
  A worker that dies mid-dispatch breaks the pool: the dispatch raises
  :class:`~repro.exceptions.BackendError` (chained from the
  :class:`~concurrent.futures.process.BrokenProcessPool`), the broken pool
  is discarded, and the next dispatch starts a fresh one.  Published slabs
  survive the broken pool; each is unlinked when its array dies or at
  :meth:`close`.

Kernels must be module-level functions (or ``functools.partial`` of them)
and must return fresh arrays, never views into the shared slabs — the view
memory is unmapped when the task ends.

Load balancing works exactly as on the thread backend: the pool's shared
task queue is the work-stealing mechanism, the backend measures per-task
busy time, queue wait, and steal counts.  Queue wait crosses the
process boundary, so it is measured with ``time.time()`` (comparable
between processes on one machine) rather than ``perf_counter`` (per-process
epoch); busy time stays on ``perf_counter`` since it is taken inside one
process.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..exceptions import BackendError
from ..tensor.slices import SliceRuns
from .base import ChunkKernel, ExecutionBackend, store_chunk

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


def _release(
    slabs: dict, key: int, segment: shared_memory.SharedMemory
) -> None:
    """Unlink one published segment and forget it (the array died or close())."""
    slabs.pop(key, None)
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass


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
    ) -> None:
        super().__init__(n_workers=n_workers, chunk_size=chunk_size)
        self._pool: ProcessPoolExecutor | None = None
        # id(array) -> (finalizer, segment, descriptor).  The finalizer
        # unlinks the segment and drops the entry when the array is
        # collected, before its id can be recycled.
        self._slabs: dict[
            int, tuple[weakref.finalize, shared_memory.SharedMemory, _SlabDescr]
        ] = {}

    # -- lifecycle ---------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if os.name == "posix":
                # Attaching a segment registers it with the worker's resource
                # tracker.  Started here, the tracker is the parent's, shared
                # by every worker, and the parent's unlink clears the entry;
                # a worker forked before it runs starts its own tracker, which
                # reports every segment it attached as leaked at exit.
                resource_tracker.ensure_running()
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
        for release, _, _ in list(self._slabs.values()):
            release()

    # -- shared-memory slabs -----------------------------------------------
    def _share(self, array: "np.ndarray | SliceRuns") -> _SlabDescr:
        """Publish ``array`` as a shared slab (cached while the array lives)."""
        key = id(array)
        cached = self._slabs.get(key)
        if cached is not None:
            return cached[2]
        shape, dtype = tuple(int(d) for d in array.shape), np.dtype(array.dtype)
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, int(np.prod(shape)) * dtype.itemsize)
        )
        target = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        if isinstance(array, SliceRuns):
            array.copy_into(target)
        else:
            np.copyto(target, array)
        del target  # the segment cannot close while a view exports it
        descr: _SlabDescr = (segment.name, shape, dtype.str)
        release = weakref.finalize(array, _release, self._slabs, key, segment)
        self._slabs[key] = (release, segment, descr)
        return descr

    def _inline_worker(self) -> str:
        return f"pid:{os.getpid()}"

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
            return self._run_inline(kernel, plan, slabs, broadcast, out)
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

    def map_completed(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
    ) -> Iterator[tuple[int, Any]]:
        if len(items) <= 1:
            yield from self._map_inline(fn, items)
            return
        pool = self._ensure_pool()
        workers = []
        try:
            futures = {
                pool.submit(_task_worker, fn, item, time.time()): idx
                for idx, item in enumerate(items)
            }
            for future in as_completed(futures):
                idx = futures.pop(future)
                pid, wait, busy, out = future.result()
                worker = f"pid:{pid}"
                workers.append(worker)
                self._record_task(
                    worker, 1, busy_seconds=busy, wait_seconds=max(0.0, wait)
                )
                yield idx, out
        except BrokenProcessPool as exc:
            raise self._discard_broken_pool() from exc
        self._tally_steals(workers, len(items))
