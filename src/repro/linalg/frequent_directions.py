"""Frequent-directions matrix sketching for streaming factor refreshes.

:class:`FrequentDirections` (Liberty, KDD 2013; Ghashami et al., SICOMP
2016) maintains a small sketch ``B ∈ R^{ℓ×d}`` of a row stream
``A ∈ R^{n×d}`` such that ``0 ⪯ AᵀA − BᵀB ⪯ (‖A‖_F²/ℓ)·I`` — the best
covariance guarantee any row-update sketch of that size can give.  The
streaming D-Tucker solver feeds it the scaled slice bases ``U_l diag(s_l)``
(columns as rows) so the non-temporal factor refresh

.. math:: A^{(1)} = \\text{top-}J_1\\text{ left singular vectors of } Bᵀ

costs ``O(I_1 ℓ²)`` per update instead of an SVD over the full ``K·L``
column stack the batch initializer uses — the sketch *is* a bounded stand-in
for :func:`repro.core.initialization.initialize`'s scaled block matrix.

The sketch is deterministic (no randomness), supports exponential decay by
scaling the resident rows before each insert batch, and serialises to plain
arrays so a streaming service can resume from disk.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from ..validation import check_positive_int

__all__ = ["FrequentDirections"]


class FrequentDirections:
    """A frequent-directions sketch of a stream of rows in ``R^dim``.

    Parameters
    ----------
    dim:
        Row dimensionality ``d`` of the stream.
    sketch_size:
        Number of retained directions ``ℓ``.  The working buffer holds
        ``2ℓ`` rows and is shrunk back to ``ℓ`` by one thin SVD whenever it
        fills, so amortised cost per inserted row is ``O(d·ℓ)``.

    Attributes
    ----------
    dim, sketch_size:
        The constructor geometry.
    n_inserted:
        Total rows ever inserted (monotone; unaffected by decay).
    n_shrinks:
        Thin SVDs performed so far (the amortised work counter).
    """

    def __init__(self, dim: int, sketch_size: int) -> None:
        self.dim = check_positive_int(dim, name="dim")
        self.sketch_size = check_positive_int(sketch_size, name="sketch_size")
        self._buffer = np.zeros((2 * self.sketch_size, self.dim))
        self._filled = 0
        self.n_inserted = 0
        self.n_shrinks = 0

    # -- updates -----------------------------------------------------------
    def scale(self, factor: float) -> None:
        """Scale every resident direction by ``factor`` (exponential decay).

        Scaling the sketch rows by ``γ`` scales the tracked covariance
        ``BᵀB`` by ``γ²`` — exactly matching a ``Σ_l ← γ Σ_l`` down-weighting
        of the slice stream the sketch summarises.
        """
        f = float(factor)
        if not np.isfinite(f) or f < 0.0:
            raise ShapeError(f"scale factor must be finite and >= 0, got {factor!r}")
        self._buffer[: self._filled] *= f

    def update(self, rows: np.ndarray) -> None:
        """Insert a batch of rows ``(m, dim)`` (a single row ``(dim,)`` works too)."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ShapeError(
                f"rows must have shape (m, {self.dim}), got {arr.shape}"
            )
        m = arr.shape[0]
        self.n_inserted += m
        pos = 0
        cap = self._buffer.shape[0]
        while pos < m:
            take = min(cap - self._filled, m - pos)
            self._buffer[self._filled : self._filled + take] = arr[pos : pos + take]
            self._filled += take
            pos += take
            if self._filled == cap:
                self._shrink()

    def _shrink(self) -> None:
        """One frequent-directions step: SVD, subtract the ``ℓ``-th energy."""
        _, s, vt = np.linalg.svd(self._buffer[: self._filled], full_matrices=False)
        ell = self.sketch_size
        if s.shape[0] <= ell:
            keep = s.shape[0]
            reduced = s
        else:
            keep = ell
            reduced = np.sqrt(np.maximum(s[:ell] ** 2 - s[ell] ** 2, 0.0))
        self._buffer[:keep] = reduced[:, None] * vt[:keep]
        self._buffer[keep:] = 0.0
        self._filled = keep
        self.n_shrinks += 1

    # -- views -------------------------------------------------------------
    def sketch(self) -> np.ndarray:
        """The current sketch ``B`` as a fresh ``(filled, dim)`` array.

        Shrinks first when the working buffer has overflowed the nominal
        ``ℓ`` rows, so the returned matrix never exceeds ``ℓ`` rows and is
        independent of how inserts were batched up to the frequent-directions
        guarantee.
        """
        if self._filled > self.sketch_size:
            self._shrink()
        return self._buffer[: self._filled].copy()

    def covariance(self) -> np.ndarray:
        """``BᵀB`` — the sketched Gram matrix of the stream ``(dim, dim)``."""
        b = self.sketch()
        return b.T @ b

    def leading_directions(self, rank: int) -> np.ndarray:
        """Top-``rank`` directions as an orthonormal ``(dim, rank)`` matrix.

        These are the leading right singular vectors of the sketch — the
        streaming stand-in for the leading left singular vectors of the full
        column stack the sketch summarises.
        """
        from .svd import leading_left_singular_vectors

        r = check_positive_int(rank, name="rank")
        if r > self.dim:
            raise ShapeError(f"rank {r} exceeds sketch dimensionality {self.dim}")
        return leading_left_singular_vectors(self.sketch().T, r)

    # -- persistence -------------------------------------------------------
    def state(self) -> dict:
        """JSON/npz-friendly snapshot (see :meth:`from_state`)."""
        return {
            "dim": int(self.dim),
            "sketch_size": int(self.sketch_size),
            "buffer": self._buffer[: self._filled].copy(),
            "n_inserted": int(self.n_inserted),
            "n_shrinks": int(self.n_shrinks),
        }

    @classmethod
    def from_state(cls, state: dict) -> "FrequentDirections":
        """Rebuild a sketch from a :meth:`state` snapshot."""
        fd = cls(int(state["dim"]), int(state["sketch_size"]))
        buffer = np.asarray(state["buffer"], dtype=float)
        if buffer.size:
            if buffer.ndim != 2 or buffer.shape[1] != fd.dim:
                raise ShapeError(
                    f"sketch state buffer has shape {buffer.shape}, "
                    f"expected (m, {fd.dim})"
                )
            if buffer.shape[0] > fd._buffer.shape[0]:
                raise ShapeError(
                    f"sketch state holds {buffer.shape[0]} rows, more than "
                    f"the 2*{fd.sketch_size} working buffer"
                )
            fd._buffer[: buffer.shape[0]] = buffer
            fd._filled = buffer.shape[0]
        fd.n_inserted = int(state.get("n_inserted", 0))
        fd.n_shrinks = int(state.get("n_shrinks", 0))
        return fd

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrequentDirections(dim={self.dim}, sketch_size={self.sketch_size}, "
            f"rows={self._filled}, inserted={self.n_inserted})"
        )
