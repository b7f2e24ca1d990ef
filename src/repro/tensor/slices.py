"""Slice-matrix views of a dense tensor.

D-Tucker's approximation phase views an order-``N`` tensor
``X ∈ R^{I1×…×IN}`` as ``L = I3·…·IN`` *slice matrices* ``X_l ∈ R^{I1×I2}``:
the first two modes span each slice, all remaining modes are flattened into
the slice index ``l`` (mode 3 fastest, matching the Fortran ordering of the
library-wide unfolding convention).

Two identities make this layout useful (both verified by the test suite):

* ``unfold(X, 0) == hstack([X_1, …, X_L])``
* ``unfold(X, 1) == hstack([X_1.T, …, X_L.T])``

so the mode-1/mode-2 unfoldings of the whole tensor decompose into per-slice
blocks, and any per-slice SVD immediately factors those unfoldings.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from ..exceptions import ShapeError
from ..validation import as_tensor

__all__ = [
    "SliceRuns",
    "slice_count",
    "slice_stack",
    "to_slices",
    "from_slices",
    "iter_slices",
    "slice_index_to_multi",
    "multi_to_slice_index",
]


def slice_count(shape: Sequence[int]) -> int:
    """Number of ``I1×I2`` slices of a tensor with the given ``shape``.

    For order-2 tensors there is exactly one slice (the matrix itself).
    """
    full_shape = tuple(int(s) for s in shape)
    if len(full_shape) < 2:
        raise ShapeError(f"slices require order >= 2, got shape {full_shape}")
    return int(np.prod(full_shape[2:], dtype=np.int64)) if len(full_shape) > 2 else 1


def to_slices(tensor: np.ndarray) -> np.ndarray:
    """Reshape ``tensor`` to a slice stack of shape ``(I1, I2, L)``.

    The result is a view whenever the input is Fortran-compatible along the
    trailing modes; otherwise NumPy copies.

    Parameters
    ----------
    tensor:
        Order-``N >= 2`` array.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(I1, I2, L)`` whose ``[:, :, l]`` is slice ``l``.
    """
    x = as_tensor(tensor, min_order=2, name="tensor")
    i1, i2 = x.shape[:2]
    return x.reshape((i1, i2, -1), order="F")


def from_slices(slices: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Invert :func:`to_slices` for a tensor of the given full ``shape``."""
    s = as_tensor(slices, min_order=2, name="slices")
    full_shape = tuple(int(d) for d in shape)
    if len(full_shape) < 2:
        raise ShapeError(f"target shape must have order >= 2, got {full_shape}")
    expected = (full_shape[0], full_shape[1], slice_count(full_shape))
    stacked = s if s.ndim == 3 else s.reshape(s.shape + (1,))
    if stacked.shape != expected:
        raise ShapeError(
            f"slice stack shape {stacked.shape} inconsistent with target "
            f"{full_shape} (expected {expected})"
        )
    return stacked.reshape(full_shape, order="F")


def iter_slices(tensor: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the ``L`` slice matrices of ``tensor`` in slice-index order."""
    stack = to_slices(tensor)
    for l in range(stack.shape[2]):
        yield stack[:, :, l]


def slice_index_to_multi(l: int, shape: Sequence[int]) -> tuple[int, ...]:
    """Map a flat slice index to the multi-index over modes ``3..N``.

    Parameters
    ----------
    l:
        Flat slice index in ``[0, L)``.
    shape:
        Full tensor shape.

    Returns
    -------
    tuple of int
        Indices ``(i_3, ..., i_N)``; empty for order-2 tensors.
    """
    full_shape = tuple(int(s) for s in shape)
    count = slice_count(full_shape)
    if not 0 <= l < count:
        raise ShapeError(f"slice index {l} out of range [0, {count})")
    trailing = full_shape[2:]
    if not trailing:
        return ()
    return tuple(int(i) for i in np.unravel_index(l, trailing, order="F"))


def multi_to_slice_index(multi: Sequence[int], shape: Sequence[int]) -> int:
    """Inverse of :func:`slice_index_to_multi`."""
    full_shape = tuple(int(s) for s in shape)
    trailing = full_shape[2:]
    if len(multi) != len(trailing):
        raise ShapeError(
            f"multi-index {tuple(multi)} must have {len(trailing)} entries"
        )
    if not trailing:
        return 0
    return int(np.ravel_multi_index(tuple(int(i) for i in multi), trailing, order="F"))


def slice_stack(x: np.ndarray) -> "np.ndarray | SliceRuns":
    """The ``(L, I1, I2)`` slice stack of ``x``, without copying any data.

    A strided view when the trailing modes merge in Fortran order without
    a copy (every order-3 tensor, any layout).  Otherwise — a C-order
    tensor of order ``>= 4`` — the last mode varies slowest, so the stack
    is the concatenation of the stacks of ``x[..., j]``, one order lower:
    a :class:`SliceRuns` that gathers slices only when they are copied.
    """
    i1, i2 = x.shape[:2]
    trailing = [(d, st) for d, st in zip(x.shape[2:], x.strides[2:]) if d != 1]
    if all(b[1] == a[1] * a[0] for a, b in zip(trailing, trailing[1:])):
        return np.moveaxis(x.reshape((i1, i2, -1), order="F"), 2, 0)
    steps = int(x.shape[-1])
    per_step = slice_count(x.shape) // steps
    return SliceRuns(
        lambda j: slice_stack(x[..., j]), np.arange(steps + 1) * per_step
    )


class SliceRuns:
    """A slice stack served as strided views, gathered only when copied.

    Some stacks are no single view: the stack of a C-order tensor of order
    ``>= 4`` (see :func:`slice_stack`), and a batch that straddles the
    blocks or members of a source (:meth:`concat`).  This array-like holds
    such a stack as a lazy concatenation — ``piece(j)`` returns piece ``j``
    (a view or another :class:`SliceRuns`), which starts at slice
    ``offsets[j]`` — restricted to slices ``[start, stop)``.  It has
    ``shape``/``dtype``, slices along axis 0 into another
    :class:`SliceRuns`, and :meth:`runs` yields ``(offset, view)`` pairs so
    a consumer copies each strided view straight into its own buffer.
    ``np.asarray`` gathers the whole range (a copy).
    """

    ndim = 3

    def __init__(
        self,
        piece: Callable[[int], "np.ndarray | SliceRuns"],
        offsets: Sequence[int],
        start: int = 0,
        stop: int | None = None,
    ) -> None:
        self._piece = piece
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self.start = int(start)
        self.stop = int(self._offsets[-1]) if stop is None else int(stop)
        first = piece(0)
        self._slice_shape = tuple(int(d) for d in first.shape[1:])
        self.dtype = np.dtype(first.dtype)

    @classmethod
    def concat(cls, stacks: Sequence["np.ndarray | SliceRuns"]) -> "SliceRuns":
        """``stacks`` concatenated along the slice axis, without a copy."""
        return cls(stacks.__getitem__, np.cumsum([0] + [len(s) for s in stacks]))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.stop - self.start,) + self._slice_shape

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, key: slice) -> "SliceRuns":
        lo, hi, step = key.indices(len(self))
        if step != 1:
            raise ShapeError("SliceRuns supports contiguous slice ranges only")
        return SliceRuns(
            self._piece, self._offsets, self.start + lo, self.start + max(lo, hi)
        )

    def runs(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(offset, view)``: ``view`` holds slices ``offset..`` of the range."""
        offsets = self._offsets
        j = int(np.searchsorted(offsets, self.start, side="right")) - 1
        l = self.start
        while l < self.stop:
            lo, hi = int(offsets[j]), int(offsets[j + 1])
            part = self._piece(j)[l - lo : min(self.stop, hi) - lo]
            if isinstance(part, SliceRuns):
                for offset, view in part.runs():
                    yield l - self.start + offset, view
            else:
                yield l - self.start, part
            l = max(l, min(self.stop, hi))
            j += 1

    def copy_into(self, out: np.ndarray) -> np.ndarray:
        """Copy (and cast) the range into ``out`` of shape :attr:`shape`."""
        for offset, view in self.runs():
            np.copyto(out[offset : offset + view.shape[0]], view, casting="unsafe")
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape, dtype=self.dtype if dtype is None else dtype)
        return self.copy_into(out)
