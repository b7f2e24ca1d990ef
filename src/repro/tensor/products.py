"""Tensor-matrix products and structured matrix products.

The workhorses are :func:`mode_product` (TTM — tensor-times-matrix along one
mode) and :func:`multi_mode_product` (a TTM chain), plus the Kronecker and
Khatri-Rao helpers whose ordering matches the unfolding convention of
:mod:`repro.tensor.unfold`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import ShapeError
from ..validation import as_tensor, check_matrix, check_mode
__all__ = [
    "mode_product",
    "multi_mode_product",
    "kron_all",
    "kron_secondary",
    "khatri_rao",
    "tucker_to_tensor",
    "gram",
]


def mode_product(
    tensor: np.ndarray,
    matrix: np.ndarray,
    mode: int,
    *,
    transpose: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compute the ``mode``-mode (TTM) product ``tensor ×_mode matrix``.

    Parameters
    ----------
    tensor:
        Order-``N`` input with shape ``(I_1, ..., I_N)``.
    matrix:
        Matrix of shape ``(R, I_mode)``; with ``transpose=True`` a matrix of
        shape ``(I_mode, R)`` whose transpose is applied (this avoids an
        explicit copy of the transposed matrix at call sites).
    mode:
        Mode along which to multiply.
    transpose:
        Apply ``matrix.T`` instead of ``matrix``.
    out:
        Optional preallocated C-contiguous float64 scratch of shape
        ``(R, I_1, …, I_{mode-1}, I_{mode+1}, …)`` — the contracted mode's
        replacement leading, every other mode in order.  The product is
        written into it via an ``out=`` GEMM (bit-identical to the
        allocating path, which runs the same BLAS call) and the returned
        tensor is a view into ``out``.

    Returns
    -------
    numpy.ndarray
        Tensor of shape ``(I_1, ..., R, ..., I_N)`` with ``R`` at ``mode``.

    Raises
    ------
    ShapeError
        If the matrix column count does not match the mode dimensionality.
    """
    x = as_tensor(tensor, min_order=1, name="tensor")
    a = check_matrix(matrix, name="matrix")
    m = check_mode(mode, x.ndim)
    op = a.swapaxes(-1, -2) if transpose else a
    if int(op.shape[1]) != int(x.shape[m]):
        raise ShapeError(
            f"matrix with {int(op.shape[1])} columns cannot multiply mode {m} of "
            f"dimensionality {int(x.shape[m])}"
        )
    if out is not None:
        expected = (int(op.shape[0]),) + tuple(
            int(d) for k, d in enumerate(x.shape) if k != m
        )
        if tuple(out.shape) != expected:
            raise ShapeError(
                f"out buffer shape {tuple(out.shape)} does not match result "
                f"shape {expected}"
            )
    return _mode_product(x, op, m, out)


def _mode_product(x: np.ndarray, op: np.ndarray, m: int, out=None) -> np.ndarray:
    """:func:`mode_product` ``x ×_m op`` on operands taken as given.

    For internal callers whose operands are already checked float arrays
    of matching shapes (the ALS sweep's TTM chains); no validation.
    """
    # Move the contracted mode to the front, contract, move the result back.
    moved = np.moveaxis(x, m, 0)
    if out is None:
        res = np.tensordot(op, moved, axes=(1, 0))
    else:
        # Same 2-D GEMM tensordot performs internally, targeted at `out`.
        rows = int(op.shape[0])
        flat = np.reshape(moved, (int(x.shape[m]), -1))
        res = np.reshape(np.dot(op, flat, out=np.reshape(out, (rows, -1))), out.shape)
    return np.moveaxis(res, 0, m)


def multi_mode_product(
    tensor: np.ndarray,
    matrices: Sequence[np.ndarray],
    modes: Sequence[int] | None = None,
    *,
    skip: int | None = None,
    transpose: bool = False,
) -> np.ndarray:
    """Apply a chain of TTM products, smallest-output-first.

    Parameters
    ----------
    tensor:
        Order-``N`` input.
    matrices:
        One matrix per entry of ``modes`` (or one per mode when ``modes`` is
        ``None``, in which case ``matrices`` must have length ``N``).
    modes:
        Modes to contract; defaults to ``range(N)``.
    skip:
        Optional mode to leave untouched (its matrix, if present in
        ``matrices`` indexed by mode, is ignored).  Only meaningful when
        ``modes`` is ``None``; this mirrors the classic HOOI update where
        every factor but one is applied.
    transpose:
        Apply each matrix transposed (the typical projection direction).

    Returns
    -------
    numpy.ndarray
        The fully contracted tensor.

    Notes
    -----
    The contraction order is chosen greedily: at each step the mode whose
    contraction shrinks the *current* intermediate the most is applied
    first.  For projections (tall matrices applied transposed) this is the
    standard trick that keeps TTM-chain intermediates small.  Orders are
    memoized per shape signature by :mod:`repro.kernels.planner`, so
    repeated chains (one per mode per ALS sweep) skip the planning work.
    """
    x = as_tensor(tensor, min_order=1, name="tensor")
    if modes is None:
        mode_list = [m for m in range(x.ndim) if m != skip]
        if len(matrices) == x.ndim:
            mats = [matrices[m] for m in mode_list]
        elif len(matrices) == len(mode_list):
            mats = list(matrices)
        else:
            raise ShapeError(
                f"expected {x.ndim} or {len(mode_list)} matrices, got {len(matrices)}"
            )
    else:
        if skip is not None:
            raise ShapeError("skip is only supported when modes is None")
        mode_list = [check_mode(m, x.ndim) for m in modes]
        if len(set(mode_list)) != len(mode_list):
            raise ShapeError(f"modes must be distinct, got {list(modes)}")
        if len(matrices) != len(mode_list):
            raise ShapeError(
                f"got {len(matrices)} matrices for {len(mode_list)} modes"
            )
        mats = list(matrices)

    # Greedy ordering against the evolving intermediate, memoized on the
    # shape signature.  Imported lazily: the planner is dependency-free but
    # lives in the kernels package, which imports this module at load time.
    from ..kernels.planner import plan_ttm_chain

    order = plan_ttm_chain(
        tuple(int(d) for d in x.shape),
        tuple(tuple(int(d) for d in m.shape) for m in mats),
        tuple(mode_list),
        transpose,
    )
    out = x
    for idx in order:
        out = mode_product(out, mats[idx], mode_list[idx], transpose=transpose)
    return out


def kron_all(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of ``matrices`` in the given (left-to-right) order."""
    mats = [check_matrix(m, name="matrices[i]") for m in matrices]
    if not mats:
        raise ShapeError("kron_all requires at least one matrix")
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def kron_secondary(matrices: Sequence[np.ndarray], skip: int) -> np.ndarray:
    """Kronecker product ``A(N) ⊗ ... ⊗ A(skip+1) ⊗ A(skip-1) ⊗ ... ⊗ A(1)``.

    This descending-mode ordering is the one that pairs with the Kolda
    unfolding used throughout the library (see :mod:`repro.tensor.unfold`).

    Parameters
    ----------
    matrices:
        One matrix per mode (the entry at ``skip`` is ignored).
    skip:
        Mode excluded from the product.
    """
    m = check_mode(skip, len(matrices), name="skip")
    selected = [matrices[k] for k in range(len(matrices) - 1, -1, -1) if k != m]
    return kron_all(selected)


def khatri_rao(matrices: Sequence[np.ndarray], *, reverse: bool = False) -> np.ndarray:
    """Column-wise Khatri-Rao product of matrices sharing a column count.

    Parameters
    ----------
    matrices:
        Matrices ``(I_k, R)`` with a common ``R``.
    reverse:
        Multiply in reversed order (descending mode), matching the CP/ALS
        normal-equation convention for Kolda unfoldings.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(prod I_k, R)``.
    """
    mats = [check_matrix(m, name="matrices[i]") for m in matrices]
    if not mats:
        raise ShapeError("khatri_rao requires at least one matrix")
    cols = {m.shape[1] for m in mats}
    if len(cols) != 1:
        raise ShapeError(f"khatri_rao inputs must share a column count, got {cols}")
    if reverse:
        mats = mats[::-1]
    out = mats[0]
    for m in mats[1:]:
        # (a ⊙ b)[:, r] = kron(a[:, r], b[:, r]); einsum keeps it allocation-lean.
        out = np.reshape(
            np.einsum("ir,jr->ijr", out, m, optimize=True), (-1, int(out.shape[1]))
        )
    return out


def tucker_to_tensor(core: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Reconstruct the full tensor ``core ×_1 factors[0] ... ×_N factors[N-1]``.

    Parameters
    ----------
    core:
        Core tensor of shape ``(J_1, ..., J_N)``.
    factors:
        Factor matrices ``(I_n, J_n)``, one per mode.

    Returns
    -------
    numpy.ndarray
        Dense tensor of shape ``(I_1, ..., I_N)``.
    """
    g = as_tensor(core, min_order=1, name="core")
    if len(factors) != g.ndim:
        raise ShapeError(
            f"core of order {g.ndim} needs {g.ndim} factors, got {len(factors)}"
        )
    out = g
    for n, a in enumerate(factors):
        out = mode_product(out, a, n)
    return out


def gram(matrix: np.ndarray) -> np.ndarray:
    """Return the Gram matrix ``matrix.T @ matrix`` (symmetrised)."""
    a = check_matrix(matrix, name="matrix")
    g = np.matmul(a.swapaxes(-1, -2), a)
    return (g + g.swapaxes(-1, -2)) / 2.0
