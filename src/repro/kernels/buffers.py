"""Preallocated scratch buffers for the sweep hot path.

ALS sweeps are shape-stationary: every sweep computes the same projection
stacks and intermediates with identical shapes.  A :class:`BufferPool`
hands out one persistent array per named slot, so steady-state sweeps write
into memory allocated during sweep one instead of hitting the allocator
(and the page fault / zeroing cost behind it) every time.  Buffers are
plain C-contiguous arrays suitable for ``out=`` targets of
:meth:`repro.engine.array_api.ArrayModule.matmul_into` and
:meth:`repro.engine.array_api.ArrayModule.gemm_into`.

The pool is device-aware: it allocates through an
:class:`~repro.engine.array_api.ArrayModule`, so a workspace running on
torch or CuPy gets device-resident scratch with the same slot semantics
(the default module is NumPy and allocates with the exact historical
``np.empty`` call).  A slot keyed to one module is reallocated when asked
for under a different module, exactly like a shape or dtype change.

A slot is handed out again only after its previous contents are dead; the
workspace enforces this by tying each slot to a cache entry that is
invalidated before the slot is rewritten.
"""

from __future__ import annotations

import numpy as np

from ..engine.array_api import NUMPY, ArrayModule

__all__ = ["BufferPool"]


class BufferPool:
    """Named, shape-checked scratch buffers with reuse accounting.

    Parameters
    ----------
    module:
        The :class:`~repro.engine.array_api.ArrayModule` to allocate on.
        Defaults to NumPy (host memory).
    """

    def __init__(self, module: ArrayModule | None = None) -> None:
        self._buffers: dict[str, tuple[object, ArrayModule]] = {}
        self.module = module if module is not None else NUMPY
        self.bytes_reused = 0
        self.bytes_allocated = 0

    def take(
        self,
        tag: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
        *,
        module: ArrayModule | None = None,
    ):
        """Return the buffer for ``tag``, reallocating on shape/dtype change.

        The returned array's contents are unspecified (callers overwrite it
        entirely via ``out=``).  Reuse of a matching buffer is tallied in
        :attr:`bytes_reused`; fresh allocations in :attr:`bytes_allocated`.
        ``module`` overrides the pool's default namespace for this slot.
        """
        am = module if module is not None else self.module
        shape = tuple(int(d) for d in shape)
        entry = self._buffers.get(tag)
        if entry is not None:
            buf, owner = entry
            if (
                owner is am
                and tuple(buf.shape) == shape
                and am.np_dtype(buf) == np.dtype(dtype)
            ):
                self.bytes_reused += am.nbytes(buf)
                return buf
        buf = am.empty(shape, dtype=dtype)
        self.bytes_allocated += am.nbytes(buf)
        self._buffers[tag] = (buf, am)
        return buf

    def clear(self) -> None:
        """Drop every buffer (counters are kept)."""
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the pool."""
        return sum(am.nbytes(b) for b, am in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferPool(slots={len(self)}, held={self.nbytes / 2**20:.1f}MiB, "
            f"reused={self.bytes_reused / 2**20:.1f}MiB)"
        )
