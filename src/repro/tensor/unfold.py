"""Mode-``n`` matricization (unfolding) and its inverse.

This module fixes the library-wide unfolding convention to the one used by
Kolda & Bader, *Tensor Decompositions and Applications* (SIAM Review 2009):
element ``(i_1, ..., i_N)`` of the tensor maps to row ``i_n`` and column

.. math::

    j = \\sum_{k \\ne n} i_k \\prod_{m < k,\\; m \\ne n} I_m

of the unfolding — i.e. among the remaining modes, *lower* modes vary
*fastest* (Fortran order).  Under this convention the fundamental Tucker
identity reads

.. math::

    \\mathcal{Y} = \\mathcal{G} \\times_1 A^{(1)} \\cdots \\times_N A^{(N)}
    \\iff
    Y_{(n)} = A^{(n)} G_{(n)}
        \\left(A^{(N)} \\otimes \\cdots \\otimes A^{(n+1)} \\otimes
              A^{(n-1)} \\otimes \\cdots \\otimes A^{(1)}\\right)^T ,

with the Kronecker factors in *descending* mode order.  The helper
:func:`repro.tensor.products.kron_secondary` produces exactly that product.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..engine.array_api import array_module_of
from ..validation import as_tensor, check_mode

__all__ = ["unfold", "fold", "unfolding_shape", "vectorize", "tensorize"]


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Return the mode-``mode`` matricization of ``tensor``.

    Parameters
    ----------
    tensor:
        An order-``N`` array.
    mode:
        Zero-based mode to bring to the rows.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(I_mode, prod(other modes))`` following the Kolda
        convention (remaining modes in natural order, lowest fastest).

    Examples
    --------
    >>> import numpy as np
    >>> x = np.arange(24).reshape(2, 3, 4)
    >>> unfold(x, 0).shape
    (2, 12)
    """
    x = as_tensor(tensor, min_order=1, name="tensor")
    m = check_mode(mode, x.ndim)
    am = array_module_of(x)
    return am.reshape(am.moveaxis(x, m, 0), (int(x.shape[m]), -1), order="F")


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Invert :func:`unfold`: rebuild a tensor of ``shape`` from a matricization.

    Parameters
    ----------
    matrix:
        Mode-``mode`` unfolding with ``shape[mode]`` rows.
    mode:
        The mode that occupies the rows of ``matrix``.
    shape:
        Full shape of the target tensor.

    Returns
    -------
    numpy.ndarray
        Tensor of the requested shape.

    Raises
    ------
    repro.exceptions.ShapeError
        If the matrix size is inconsistent with ``shape``.
    """
    from ..exceptions import ShapeError

    am = array_module_of(matrix)
    mat = am.asarray(matrix)
    full_shape = tuple(int(s) for s in shape)
    m = check_mode(mode, len(full_shape))
    expected = (full_shape[m], int(np.prod(full_shape)) // full_shape[m])
    if tuple(mat.shape) != expected:
        raise ShapeError(
            f"matrix shape {tuple(mat.shape)} inconsistent with fold target "
            f"{full_shape} at mode {m} (expected {expected})"
        )
    moved = full_shape[m : m + 1] + full_shape[:m] + full_shape[m + 1 :]
    return am.moveaxis(am.reshape(mat, moved, order="F"), 0, m)


def unfolding_shape(shape: Sequence[int], mode: int) -> tuple[int, int]:
    """Shape of the mode-``mode`` unfolding of a tensor with ``shape``.

    Useful for sizing buffers without materialising the unfolding.
    """
    full_shape = tuple(int(s) for s in shape)
    m = check_mode(mode, len(full_shape))
    return full_shape[m], int(np.prod(full_shape)) // full_shape[m]


def vectorize(tensor: np.ndarray) -> np.ndarray:
    """Flatten a tensor to a vector in Fortran order (mode 1 fastest)."""
    am = array_module_of(tensor)
    return am.reshape(am.asarray(tensor), (-1,), order="F")


def tensorize(vector: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Invert :func:`vectorize` for the given target ``shape``."""
    from ..exceptions import ShapeError

    am = array_module_of(vector)
    full_shape = tuple(int(s) for s in shape)
    v = am.reshape(am.asarray(vector), (-1,))
    if int(v.shape[0]) != int(np.prod(full_shape)):
        raise ShapeError(
            f"vector of size {int(v.shape[0])} cannot be reshaped to {full_shape}"
        )
    return am.reshape(v, full_shape, order="F")
