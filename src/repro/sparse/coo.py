"""A COO sparse tensor substrate.

The D-Tucker paper closes with *"future research includes extending the
method for sparse tensors"*; this subpackage realises that extension.  The
:class:`SparseTensor` here is a minimal but complete coordinate-format
tensor: validated construction, dense round-trips, slice extraction as
``scipy.sparse`` matrices (the shape D-Tucker's approximation phase needs),
norms, and mode-``n`` unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..exceptions import ShapeError
from ..tensor.slices import slice_count
from ..validation import as_tensor

__all__ = ["SparseTensor"]


@dataclass
class SparseTensor:
    """An order-``N`` tensor stored as coordinates + values (COO).

    Attributes
    ----------
    coords:
        Integer array of shape ``(nnz, N)``; one row per stored entry.
    values:
        Float array of shape ``(nnz,)``.
    shape:
        Full tensor shape.

    Duplicate coordinates are summed on construction (COO convention).
    """

    coords: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        self.shape = tuple(int(d) for d in self.shape)
        if coords.ndim != 2 or coords.shape[1] != len(self.shape):
            raise ShapeError(
                f"coords must have shape (nnz, {len(self.shape)}), got {coords.shape}"
            )
        if values.shape != (coords.shape[0],):
            raise ShapeError(
                f"values must have shape ({coords.shape[0]},), got {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ShapeError("values contain non-finite entries")
        if coords.size:
            if coords.min() < 0 or (coords >= np.array(self.shape)).any():
                raise ShapeError("coords out of bounds for shape")
        # Coalesce duplicates so nnz and norms are well defined.
        if coords.shape[0]:
            flat = np.ravel_multi_index(coords.T, self.shape, order="F")
            order = np.argsort(flat, kind="stable")
            flat, values = flat[order], values[order]
            unique, start = np.unique(flat, return_index=True)
            summed = np.add.reduceat(values, start)
            keep = summed != 0.0
            unique, summed = unique[keep], summed[keep]
            coords = np.stack(
                np.unravel_index(unique, self.shape, order="F"), axis=1
            ).astype(np.int64)
            values = summed
        self.coords = coords
        self.values = values

    # -- construction --------------------------------------------------------
    @classmethod
    def from_dense(cls, tensor: np.ndarray, *, threshold: float = 0.0) -> "SparseTensor":
        """Build from a dense array, keeping entries with ``|x| > threshold``."""
        x = as_tensor(tensor, min_order=1, name="tensor")
        mask = np.abs(x) > threshold
        coords = np.argwhere(mask)
        return cls(coords=coords, values=x[mask], shape=x.shape)

    @classmethod
    def random(
        cls,
        shape: tuple[int, ...],
        density: float,
        rng: int | np.random.Generator | None = None,
    ) -> "SparseTensor":
        """Uniformly random sparse tensor with the given expected density."""
        from ..tensor.random import default_rng
        from ..validation import check_probability

        check_probability(density, name="density")
        gen = default_rng(rng)
        total = int(np.prod(shape, dtype=np.int64))
        nnz = max(1, int(round(total * density)))
        flat = gen.choice(total, size=nnz, replace=False)
        coords = np.stack(np.unravel_index(flat, shape, order="F"), axis=1)
        return cls(coords=coords, values=gen.standard_normal(nnz), shape=shape)

    # -- basic properties ------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        """Fraction of stored entries."""
        return self.nnz / float(np.prod(self.shape, dtype=np.int64))

    @property
    def order(self) -> int:
        """Number of modes."""
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        """Bytes of the COO representation."""
        return int(self.coords.nbytes + self.values.nbytes)

    def norm_squared(self) -> float:
        """``‖X‖_F²`` (exact — zeros contribute nothing)."""
        return float(self.values @ self.values)

    # -- conversions -----------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise the dense array."""
        out = np.zeros(self.shape)
        out[tuple(self.coords.T)] = self.values
        return out

    def unfold(self, mode: int) -> sparse.csr_matrix:
        """Mode-``mode`` unfolding as a CSR matrix (Kolda convention)."""
        from ..validation import check_mode

        m = check_mode(mode, self.order)
        rows = self.coords[:, m]
        other = [k for k in range(self.order) if k != m]
        if other:
            cols = np.ravel_multi_index(
                tuple(self.coords[:, k] for k in other),
                tuple(self.shape[k] for k in other),
                order="F",
            )
        else:
            cols = np.zeros(self.nnz, dtype=np.int64)
        n_cols = int(np.prod([self.shape[k] for k in other], dtype=np.int64)) if other else 1
        return sparse.csr_matrix(
            (self.values, (rows, cols)), shape=(self.shape[m], n_cols)
        )

    def slice_matrices(
        self, start: int | None = None, stop: int | None = None
    ) -> list[sparse.csr_matrix]:
        """The slices ``X_l ∈ R^{I1×I2}`` as CSR matrices.

        Slice index runs Fortran-order over modes ``3..N``, matching
        :mod:`repro.tensor.slices`.  ``start``/``stop`` restrict the result
        to the slice range ``[start, stop)`` (default: all ``L`` slices),
        so batch-at-a-time consumers — the pipelined sparse compressor —
        never materialise every slice at once.
        """
        if self.order < 2:
            raise ShapeError("slices require order >= 2")
        i1, i2 = self.shape[:2]
        count = slice_count(self.shape)
        lo = 0 if start is None else int(start)
        hi = count if stop is None else int(stop)
        if not 0 <= lo <= hi <= count:
            raise ShapeError(
                f"slice range [{lo}, {hi}) invalid for {count} slices"
            )
        if self.order == 2:
            keys = np.zeros(self.nnz, dtype=np.int64)
        else:
            keys = np.ravel_multi_index(
                tuple(self.coords[:, k] for k in range(2, self.order)),
                self.shape[2:],
                order="F",
            )
        slices = []
        for l in range(lo, hi):
            sel = keys == l
            slices.append(
                sparse.csr_matrix(
                    (
                        self.values[sel],
                        (self.coords[sel, 0], self.coords[sel, 1]),
                    ),
                    shape=(i1, i2),
                )
            )
        return slices
