"""Preallocated scratch buffers for the sweep hot path.

ALS sweeps are shape-stationary: every sweep computes the same projection
stacks and intermediates with identical shapes.  A :class:`BufferPool`
hands out one persistent array per named slot, so steady-state sweeps write
into memory allocated during sweep one instead of hitting the allocator
(and the page fault / zeroing cost behind it) every time.  Buffers are
plain C-contiguous NumPy arrays suitable for the ``out=`` targets of
``np.matmul`` and ``np.dot``.

A slot is handed out again only after its previous contents are dead; the
workspace enforces this by tying each slot to a cache entry that is
invalidated before the slot is rewritten.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BufferPool"]


class BufferPool:
    """Named, shape-checked scratch buffers with reuse accounting."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self.bytes_reused = 0
        self.bytes_allocated = 0

    def take(
        self,
        tag: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Return the buffer for ``tag``, reallocating on shape/dtype change.

        The returned array's contents are unspecified (callers overwrite it
        entirely via ``out=``).  Reuse of a matching buffer is tallied in
        :attr:`bytes_reused`; fresh allocations in :attr:`bytes_allocated`.
        """
        shape = tuple(int(d) for d in shape)
        buf = self._buffers.get(tag)
        if buf is not None and buf.shape == shape and buf.dtype == np.dtype(dtype):
            self.bytes_reused += int(buf.nbytes)
            return buf
        buf = np.empty(shape, dtype=dtype)
        self.bytes_allocated += int(buf.nbytes)
        self._buffers[tag] = buf
        return buf

    def clear(self) -> None:
        """Drop every buffer (counters are kept)."""
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the pool."""
        return sum(int(b.nbytes) for b in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferPool(slots={len(self)}, held={self.nbytes / 2**20:.1f}MiB, "
            f"reused={self.bytes_reused / 2**20:.1f}MiB)"
        )
