"""The thread backend: chunk fan-out over a pool, BLAS team capped.

NumPy releases the GIL inside BLAS/LAPACK calls, so batched matmuls, QRs
and SVDs on independent chunks genuinely run concurrently from Python
threads — with zero serialization cost, since workers operate on views of
the caller's arrays.

The subtlety is *thread oversubscription*: if OpenBLAS/MKL also runs a
``T``-thread team inside every call, ``W`` concurrent workers ask for
``W × T`` cores and the machine thrashes.  While a parallel section is in
flight the backend therefore caps the BLAS team to
``max(1, T // n_workers)`` via :mod:`repro.engine.blas` (a no-op when no
control knob is found — see ``docs/backends.md``).

Load balancing needs no extra machinery here: all chunks of a dispatch
are submitted to the persistent pool up front, and
:class:`~concurrent.futures.ThreadPoolExecutor`'s shared FIFO queue *is*
the work-stealing mechanism — whichever worker finishes its chunk pulls
the next one.  The backend just measures it: per-task busy time, the time
each task sat queued, and how many tasks a worker pulled beyond its first
(reported as steals on the active :class:`~repro.engine.trace.PhaseTrace`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .base import ChunkKernel, ExecutionBackend, run_chunk_here
from .blas import current_blas_threads, limit_blas_threads

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    """Run chunks on a persistent :class:`ThreadPoolExecutor`."""

    name = "thread"

    def __init__(
        self,
        n_workers: int | None = None,
        chunk_size: int | None = None,
    ) -> None:
        super().__init__(n_workers=n_workers, chunk_size=chunk_size)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="repro-engine"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _blas_cap(self) -> int:
        team = current_blas_threads()
        if team is None:
            return 1
        return max(1, team // self.n_workers)

    def _inline_worker(self) -> str:
        return threading.current_thread().name

    def run_chunks(
        self,
        kernel: ChunkKernel,
        plan: Sequence[tuple[int, int]],
        slabs: Sequence[np.ndarray],
        broadcast: dict[str, Any],
        out: Any = None,
    ) -> list[Any] | None:
        if len(plan) <= 1:
            # One chunk: no parallelism to coordinate — run inline and keep
            # the full BLAS team.
            return self._run_inline(kernel, plan, slabs, broadcast, out)

        def task(bounds: tuple[int, int], submitted: float) -> tuple[str, float, float, Any]:
            begin = time.perf_counter()
            # Workers share the caller's memory: with ``out`` each chunk
            # writes its own rows in place.
            result = run_chunk_here(kernel, slabs, broadcast, *bounds, out)
            return (
                threading.current_thread().name,
                begin - submitted,
                time.perf_counter() - begin,
                result,
            )

        pool = self._ensure_pool()
        with limit_blas_threads(self._blas_cap()):
            futures = [
                pool.submit(task, bounds, time.perf_counter()) for bounds in plan
            ]
            results = []
            workers = []
            for future, (start, stop) in zip(futures, plan):
                worker, wait, busy, result = future.result()
                workers.append(worker)
                self._record_task(
                    worker, stop - start, busy_seconds=busy, wait_seconds=wait
                )
                results.append(result)
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

        def task(item: Any, submitted: float) -> tuple[str, float, float, Any]:
            begin = time.perf_counter()
            out = fn(item)
            return (
                threading.current_thread().name,
                begin - submitted,
                time.perf_counter() - begin,
                out,
            )

        pool = self._ensure_pool()
        with limit_blas_threads(self._blas_cap()):
            futures = {
                pool.submit(task, item, time.perf_counter()): idx
                for idx, item in enumerate(items)
            }
            workers = []
            for future in as_completed(futures):
                idx = futures.pop(future)
                worker, wait, busy, out = future.result()
                workers.append(worker)
                self._record_task(worker, 1, busy_seconds=busy, wait_seconds=wait)
                yield idx, out
        self._tally_steals(workers, len(items))
