"""The serial backend: the reference executor every other backend must match.

With the default one-chunk plan, dispatching through :class:`SerialBackend`
performs *exactly* the same NumPy calls as the original unchunked code —
same batched BLAS invocations on the same contiguous views — so results are
bit-identical to the pre-engine implementation.  The parity tests pin the
parallel backends against this one.
"""

from __future__ import annotations

from .base import ExecutionBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Run every chunk inline on the calling thread."""

    name = "serial"

    def __init__(
        self, n_workers: int | None = None, chunk_size: int | None = None
    ) -> None:
        # A serial backend has exactly one worker regardless of the
        # requested count, so the default chunk plan is a single chunk.
        super().__init__(n_workers=1, chunk_size=chunk_size)

    run_chunks = ExecutionBackend._run_inline
    map_completed = ExecutionBackend._map_inline
