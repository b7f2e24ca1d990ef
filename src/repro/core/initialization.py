"""The initialization phase: factor matrices straight from the slice SVDs.

Rather than starting ALS from random factors (as plain HOOI does), D-Tucker
derives an excellent starting point directly from the compressed slices:

* ``A(1)`` — the leading left singular vectors of
  ``[U_1 diag(s_1) ⋯ U_L diag(s_L)]``.  Because
  ``unfold(X, 0) = [X_1 ⋯ X_L] ≈ [U_1 S_1 V_1ᵀ ⋯]`` and the ``V_l`` are
  orthonormal, this concatenation has the same column space (and essentially
  the same leading spectrum) as the mode-1 unfolding itself — at a fraction
  of the size.
* ``A(2)`` — identically from ``[V_1 diag(s_1) ⋯ V_L diag(s_L)]``.
* ``A(n), n ≥ 3`` — project every slice through ``A(1), A(2)`` to a
  ``J1×J2`` matrix, reshape the stack into the small tensor
  ``W ∈ R^{J1×J2×I3×…×IN}``, and take the leading left singular vectors of
  ``W``'s mode-``n`` unfolding.

The A1 ablation benchmark measures how many ALS sweeps this saves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..engine import ExecutionBackend
from ..kernels.contractions import fused_tensor, w_chunk
from ..linalg.svd import gram_leading_eigenvectors, leading_left_singular_vectors
from ..tensor.products import multi_mode_product
from ..tensor.unfold import unfold
from ..validation import check_ranks
from .slice_svd import SliceSVD

__all__ = ["initialize", "initialize_from_factors", "random_initialize", "w_tensor"]


def _scaled_left_blocks(ssvd: SliceSVD) -> np.ndarray:
    """``[U_1 diag(s_1) ⋯ U_L diag(s_L)]`` as an ``(I1, K·L)`` matrix."""
    us = ssvd.u * ssvd.s[:, None, :]  # (L, I1, K)
    return us.transpose(1, 2, 0).reshape(ssvd.slice_shape[0], -1)


def _scaled_right_blocks(ssvd: SliceSVD) -> np.ndarray:
    """``[V_1 diag(s_1) ⋯ V_L diag(s_L)]`` as an ``(I2, K·L)`` matrix."""
    vs = np.swapaxes(ssvd.vt, 1, 2) * ssvd.s[:, None, :]  # (L, I2, K)
    return vs.transpose(1, 2, 0).reshape(ssvd.slice_shape[1], -1)


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
    rows = (a1.shape[1], a2.shape[1])
    return fused_tensor(engine, w_chunk, ssvd, rows, a1=a1, a2=a2)


#: Bytes of scaled slice blocks per Gram accumulation step: small enough
#: that the block and its flattened copy stay cache-resident, large enough
#: that each step is one well-shaped GEMM.
_GRAM_BLOCK_BYTES = 1 << 20


def scaled_gram(stack, s, *, right: bool = False):
    """``Σ_l (U_l S_l)(U_l S_l)ᵀ`` accumulated over blocks of slices.

    ``stack`` is the ``(L, I1, K)`` U stack (or, with ``right=True``, the
    ``(L, K, I2)`` Vᵀ stack, giving ``Σ_l (V_l S_l)(V_l S_l)ᵀ``) and ``s``
    the ``(L, K)`` singular values.  This is ``B Bᵀ`` for the scaled-block
    matrix ``B`` of :func:`_scaled_left_blocks` / :func:`_scaled_right_blocks`
    without ever forming ``B``: each block of slices is scaled, laid out as
    an ``(I, b·K)`` matrix and folded in with one GEMM, so the working set
    is one block.  Accumulates in the stack's dtype.
    """
    l, k = (int(d) for d in s.shape)
    m = int(stack.shape[2] if right else stack.shape[1])
    dtype = stack.dtype
    step = max(1, _GRAM_BLOCK_BYTES // (m * k * dtype.itemsize))
    gram = np.zeros((m, m), dtype=dtype)
    for start in range(0, l, step):
        blk = stack[start : start + step]
        if right:
            blk = blk.swapaxes(-1, -2)
        scaled = blk * s[start : start + step, None, :]  # (b, m, K)
        flat = np.reshape(np.moveaxis(scaled, 0, 1), (m, -1))  # (m, b·K)
        gram += np.matmul(flat, flat.swapaxes(-1, -2))
    return gram


def slice_plane_factor(ssvd: SliceSVD, rank: int, *, right: bool = False):
    """``A(1)`` (or ``A(2)`` with ``right=True``) from the scaled slice blocks.

    The leading left singular vectors of ``[U_1 S_1 ⋯ U_L S_L]`` (resp.
    ``[V_1 S_1 ⋯]``).  When that matrix is wide — the usual case, ``K·L``
    columns against ``I`` rows — they come from the blockwise
    :func:`scaled_gram` through the same eigen tail
    :func:`~repro.linalg.svd.leading_left_singular_vectors` uses, so the
    ``(I, K·L)`` matrix is never built; otherwise from
    :func:`~repro.linalg.svd.leading_left_singular_vectors` of that matrix.
    """
    l, k = (int(d) for d in ssvd.s.shape)
    m = ssvd.slice_shape[1 if right else 0]
    if k * l > 2 * m:
        stack = ssvd.vt if right else ssvd.u
        return gram_leading_eigenvectors(scaled_gram(stack, ssvd.s, right=right), rank)
    blocks = _scaled_right_blocks(ssvd) if right else _scaled_left_blocks(ssvd)
    return leading_left_singular_vectors(blocks, rank)


def initialize(
    ssvd: SliceSVD, ranks: int | Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Compute SVD-based initial factors and core from compressed slices.

    Parameters
    ----------
    ssvd:
        Output of the approximation phase.
    ranks:
        Target Tucker ranks ``(J_1, …, J_N)``.

    Returns
    -------
    tuple
        ``(core, factors)``; factors are column-orthonormal, the core is the
        projection of the compressed tensor onto them.
    """
    rank_tuple = check_ranks(ranks, ssvd.shape)
    a1 = slice_plane_factor(ssvd, rank_tuple[0])
    a2 = slice_plane_factor(ssvd, rank_tuple[1], right=True)
    return initialize_from_factors(ssvd, ranks, a1, a2)


def initialize_from_factors(
    ssvd: SliceSVD,
    ranks: int | Sequence[int],
    a1: np.ndarray,
    a2: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Finish initialization from externally supplied slice-plane factors.

    Runs the second half of :func:`initialize` — the ``W`` projection, the
    higher-mode factors and the core — starting from given
    column-orthonormal ``A(1)``/``A(2)``.  The serving layer's dyadic range
    index uses this to feed factors recombined from cached segment-tree
    nodes into the standard pipeline; :func:`initialize` itself delegates
    here, so both entry points share the exact operation order.
    """
    rank_tuple = check_ranks(ranks, ssvd.shape)
    factors: list[np.ndarray] = [np.asarray(a1), np.asarray(a2)]
    w = w_tensor(ssvd, factors[0], factors[1])
    for n in range(2, len(rank_tuple)):
        factors.append(leading_left_singular_vectors(unfold(w, n), rank_tuple[n]))
    if len(rank_tuple) > 2:
        core = multi_mode_product(
            w,
            factors[2:],
            modes=list(range(2, len(rank_tuple))),
            transpose=True,
        )
    else:
        core = w
    return core, factors


def random_initialize(
    ssvd: SliceSVD,
    ranks: int | Sequence[int],
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Random orthonormal initial factors (the ablation baseline).

    The returned core is the projection of the compressed tensor onto the
    random factors, so downstream code can treat both initializers alike.
    """
    from ..tensor.random import default_rng, random_orthonormal

    rank_tuple = check_ranks(ranks, ssvd.shape)
    gen = default_rng(rng)
    factors = [
        random_orthonormal(i, j, gen) for i, j in zip(ssvd.shape, rank_tuple)
    ]
    w = w_tensor(ssvd, factors[0], factors[1])
    if len(rank_tuple) > 2:
        core = multi_mode_product(
            w,
            factors[2:],
            modes=list(range(2, len(rank_tuple))),
            transpose=True,
        )
    else:
        core = w
    return core, factors
