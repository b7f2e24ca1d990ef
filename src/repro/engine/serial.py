"""The serial backend: the reference executor every other backend must match.

With the default one-chunk plan, dispatching through :class:`SerialBackend`
performs *exactly* the same NumPy calls as the original unchunked code —
same batched BLAS invocations on the same contiguous views — so results are
bit-identical to the pre-engine implementation.  The parity tests pin the
parallel backends against this one.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .base import ChunkKernel, ExecutionBackend, run_chunk_here
from .cost import CostModel

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Run every chunk inline on the calling thread."""

    name = "serial"

    def __init__(
        self,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        schedule: str = "auto",
    ) -> None:
        # A serial backend has exactly one worker regardless of the
        # requested count, so any schedule resolves static and the default
        # chunk plan is a single chunk.
        super().__init__(n_workers=1, chunk_size=chunk_size, schedule=schedule)

    def run_chunks(
        self,
        kernel: ChunkKernel,
        plan: Sequence[tuple[int, int]],
        slabs: Sequence[np.ndarray],
        broadcast: dict[str, Any],
        out: Any = None,
    ) -> list[Any] | None:
        results = []
        for start, stop in plan:
            t0 = time.perf_counter()
            results.append(run_chunk_here(kernel, slabs, broadcast, start, stop, out))
            self._record_task(
                "main", stop - start, busy_seconds=time.perf_counter() - t0
            )
        return results if out is None else None

    def map_completed(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        costs: "CostModel | Sequence[float] | None" = None,
        schedule: str | None = None,
    ) -> Iterator[tuple[int, Any]]:
        # One worker: costs/schedule cannot change anything — run in order.
        for idx, item in enumerate(items):
            t0 = time.perf_counter()
            out = fn(item)
            self._record_task("main", 1, busy_seconds=time.perf_counter() - t0)
            yield idx, out
