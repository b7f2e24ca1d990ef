"""Internal compressed-domain TTM kernels shared by the init/iteration phases.

Everything here computes pieces of TTM chains ``X ×_k A(k)ᵀ`` directly from a
:class:`~repro.core.slice_svd.SliceSVD`, exploiting that

* the mode-1 unfolding of ``X`` is ``[X_1 … X_L]`` — so contracting mode 2
  with ``A(2)`` touches each slice independently:
  ``U_l diag(s_l) (V_lᵀ A(2))`` costs ``O((I1+I2)·K·J)`` per slice instead of
  ``O(I1·I2·J)``;
* modes ``3..N`` act only on the slice index, so once each slice is reduced
  to a small matrix the remaining contractions run on a tensor whose first
  two modes are already rank-sized.

All functions return *dense small* tensors shaped like the original tensor
with the contracted modes replaced by ranks; no intermediate ever has more
than ``max(I1, I2) · Π J`` entries.
"""

from __future__ import annotations

import numpy as np

from ..engine import ExecutionBackend
from ..kernels.contractions import (
    dispatch_slices,
    mode1_chunk,
    mode2_chunk,
    project_left_chunk,
    project_right_chunk,
    stack_to_tensor,
    w_chunk,
)
from .slice_svd import SliceSVD

__all__ = [
    "project_left",
    "project_right",
    "w_tensor",
    "mode1_partial",
    "mode2_partial",
]


def project_left(ssvd: SliceSVD, a1: np.ndarray) -> np.ndarray:
    """Per-slice products ``A(1)ᵀ U_l`` stacked as ``(L, J1, K)``."""
    return project_left_chunk(ssvd.u, a1=a1)


def project_right(ssvd: SliceSVD, a2: np.ndarray) -> np.ndarray:
    """Per-slice products ``V_lᵀ A(2)`` stacked as ``(L, K, J2)``."""
    return project_right_chunk(ssvd.vt, a2=a2)


# The chunk kernels live in :mod:`repro.kernels.contractions` (the single
# home shared with the cached workspace path); the historical underscore
# names remain importable for callers pickling them into process backends.
_w_chunk = w_chunk
_mode1_chunk = mode1_chunk
_mode2_chunk = mode2_chunk
_stack_to_tensor = stack_to_tensor


def _dispatch(
    engine: ExecutionBackend | None,
    kernel,
    ssvd: SliceSVD,
    broadcast: dict[str, np.ndarray],
    rows: tuple[int, int],
) -> np.ndarray:
    """Run a per-slice contraction kernel into a fresh ``(L, *rows)`` stack.

    With ``engine`` given the slice loop fans out as engine chunks, each
    written into its rows of the stack; inline (``None``) it is one call.
    """
    dtype = np.result_type(ssvd.u, *broadcast.values())
    out = np.empty((ssvd.num_slices, *rows), dtype=dtype)
    return dispatch_slices(
        engine, kernel, ssvd.num_slices, (ssvd.u, ssvd.s, ssvd.vt), broadcast,
        out=out,
    )


def w_tensor(
    ssvd: SliceSVD,
    a1: np.ndarray,
    a2: np.ndarray,
    *,
    engine: ExecutionBackend | None = None,
) -> np.ndarray:
    """The doubly-projected tensor ``W = X̃ ×_1 A(1)ᵀ ×_2 A(2)ᵀ``.

    Computed slice by slice as ``W_l = (A(1)ᵀU_l) diag(s_l) (V_lᵀA(2))`` and
    reshaped to ``(J1, J2, I3, …, IN)``.  With ``engine`` given, the slice
    loop fans out as engine chunks over the SVD-triple slabs.
    """
    w = _dispatch(
        engine, _w_chunk, ssvd, {"a1": a1, "a2": a2}, (a1.shape[1], a2.shape[1])
    )
    return _stack_to_tensor(w, ssvd.shape[2:])


def mode1_partial(
    ssvd: SliceSVD,
    a2: np.ndarray,
    *,
    engine: ExecutionBackend | None = None,
) -> np.ndarray:
    """``X̃ ×_2 A(2)ᵀ`` as a tensor of shape ``(I1, J2, I3, …, IN)``.

    Used when updating the mode-1 factor: mode 1 stays unprojected, every
    other mode is (later) contracted.
    """
    m = _dispatch(
        engine, _mode1_chunk, ssvd, {"a2": a2}, (ssvd.slice_shape[0], a2.shape[1])
    )
    return _stack_to_tensor(m, ssvd.shape[2:])


def mode2_partial(
    ssvd: SliceSVD,
    a1: np.ndarray,
    *,
    engine: ExecutionBackend | None = None,
) -> np.ndarray:
    """``X̃ ×_1 A(1)ᵀ`` as a tensor of shape ``(J1, I2, I3, …, IN)``."""
    m = _dispatch(
        engine, _mode2_chunk, ssvd, {"a1": a1}, (a1.shape[1], ssvd.slice_shape[1])
    )
    return _stack_to_tensor(m, ssvd.shape[2:])
