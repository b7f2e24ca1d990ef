"""Per-slice compressed-domain contraction kernels.

This module is the single home of the slice-parallel contraction kernels
used by the uncached paths (``w_tensor`` in :mod:`repro.core.initialization`,
the mode partials of :mod:`repro.kernels.naive`) and the cached
:class:`~repro.kernels.workspace.SweepWorkspace` path.  Two families live
here:

* **fused kernels** (``w_chunk``, ``mode1_chunk``, ``mode2_chunk``) — the
  original operations that rebuild the per-slice projections ``A(1)ᵀU_l`` /
  ``V_lᵀA(2)`` on every call;
* **projection-cached kernels** (``*_from_projections_chunk``) — the same
  final contraction applied to *precomputed* projection stacks, so a
  projection computed once per factor update can be shared by every kernel
  that needs it.

Every kernel is one batched GEMM on the stored ``(L, ·, ·)`` layout —
``A(1)ᵀ @ U``, ``Vᵀ @ A(2)``, ``U @ (diag(s) VᵀA(2))`` … — so no operand is
ever reorganised into a transposed or flattened copy, and ``diag(s_l)`` is
applied to the *small* operand (a projection stack), never to ``U`` or
``Vᵀ``.  Each kernel writes straight into ``out=`` when given.

Bit-identity contract: each fused kernel computes its projections with
exactly the matmuls of :func:`project_left_chunk` /
:func:`project_right_chunk` and then calls the matching cached kernel, and
a batched matmul is one GEMM per slice ``l`` — so (a) feeding cached
projections to the ``*_from_projections`` kernels reproduces the fused
results bit for bit, and (b) chunked execution over any slice partition,
written into ``out=`` or allocated, equals the one-shot call.  The parity
suite in ``tests/test_kernels.py`` pins both properties across all
backends.

All kernels are module level so the process backend can pickle them.

Temporal blocks
---------------
A mode-1 (mode-2) partial is an ``(L, I1, J2)`` (``(L, J1, I2)``) slice
stack — ``O(I·J·L)`` memory, larger than anything else the iteration phase
holds.  Its trailing TTM chain always contracts the last mode, so the
chain is *additive* over spans of whole last-mode steps once the last
factor is restricted to the span's rows.  :func:`temporal_blocks` cuts the
slices into such spans of at most ``_PARTIAL_BYTES`` of stack, and
:func:`reduce_blocks` sums the per-block chains in block order — the
reduce shard partials use, with blocks in place of shards.  A stack that
fits one block is one span, computed exactly as unblocked.
"""

from __future__ import annotations

import numpy as np

from ..engine import ExecutionBackend, chunked
from ..tensor.slices import slice_count

__all__ = [
    "project_left_chunk",
    "project_right_chunk",
    "w_chunk",
    "mode1_chunk",
    "mode2_chunk",
    "w_from_projections_chunk",
    "mode1_from_projection_chunk",
    "mode2_from_projection_chunk",
    "stack_to_tensor",
    "dispatch_slices",
    "fused_tensor",
    "temporal_blocks",
    "block_steps",
    "block_trailing",
    "reduce_blocks",
]

#: Bytes of slice stack per temporal block of a mode-1/mode-2 partial
#: (see :func:`temporal_blocks`); the compression block budget's size.
_PARTIAL_BYTES = 4 << 20


# -- projection kernels ------------------------------------------------------

def project_left_chunk(
    u: np.ndarray, *, a1: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-slice ``A(1)ᵀ U_l`` stacked as ``(L, J1, K)``."""
    return np.matmul(a1.swapaxes(-1, -2), u, out=out)


def project_right_chunk(
    vt: np.ndarray, *, a2: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-slice ``V_lᵀ A(2)`` stacked as ``(L, K, J2)``."""
    return np.matmul(vt, a2, out=out)


# -- fused kernels (recompute projections per call) --------------------------

def w_chunk(
    u: np.ndarray,
    s: np.ndarray,
    vt: np.ndarray,
    *,
    a1: np.ndarray,
    a2: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``W_l = (A(1)ᵀU_l) diag(s_l) (V_lᵀA(2))`` for one slice range."""
    au = project_left_chunk(u, a1=a1)
    av = project_right_chunk(vt, a2=a2)
    return w_from_projections_chunk(au, s, av, out=out)


def mode1_chunk(
    u: np.ndarray,
    s: np.ndarray,
    vt: np.ndarray,
    *,
    a2: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``U_l diag(s_l) (V_lᵀA(2))`` for one slice range (mode 1 kept)."""
    av = project_right_chunk(vt, a2=a2)
    return mode1_from_projection_chunk(u, s, av, out=out)


def mode2_chunk(
    u: np.ndarray,
    s: np.ndarray,
    vt: np.ndarray,
    *,
    a1: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``(A(1)ᵀU_l) diag(s_l) V_lᵀ`` for one slice range (mode 2 kept)."""
    au = project_left_chunk(u, a1=a1)
    return mode2_from_projection_chunk(au, s, vt, out=out)


# -- projection-cached kernels -----------------------------------------------

def w_from_projections_chunk(
    au: np.ndarray, s: np.ndarray, av: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Final ``W`` contraction ``(A(1)ᵀU diag(s)) @ (VᵀA(2))`` from cached stacks."""
    return np.matmul(au * s[:, None, :], av, out=out)


def mode1_from_projection_chunk(
    u: np.ndarray, s: np.ndarray, av: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Mode-1 partial ``U @ (diag(s) VᵀA(2))`` from the cached ``VᵀA(2)`` stack."""
    return np.matmul(u, s[:, :, None] * av, out=out)


def mode2_from_projection_chunk(
    au: np.ndarray, s: np.ndarray, vt: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Mode-2 partial ``(A(1)ᵀU diag(s)) @ Vᵀ`` from the cached ``A(1)ᵀU`` stack."""
    return np.matmul(au * s[:, None, :], vt, out=out)


# -- shaping -----------------------------------------------------------------

def stack_to_tensor(stack: np.ndarray, trailing: tuple[int, ...]) -> np.ndarray:
    """Reshape an ``(L, a, b)`` slice stack to an ``(a, b, *trailing)`` tensor.

    The slice index is Fortran-ordered over the trailing modes, matching
    :func:`repro.tensor.slices.to_slices`.
    """
    moved = np.moveaxis(stack, 0, 2)  # (a, b, L)
    shape = tuple(int(d) for d in stack.shape[1:3]) + tuple(trailing)
    return np.reshape(moved, shape, order="F")


# -- temporal blocks ---------------------------------------------------------

def temporal_blocks(
    shape: tuple[int, ...], row_bytes: int
) -> list[tuple[int, int]]:
    """Slice spans of whole last-mode steps whose partial stack fits the budget.

    ``row_bytes`` is one slice's share of the partial stack.  Spans hold
    as many last-mode steps as fit ``_PARTIAL_BYTES`` (at least one); a
    stack that fits — or a tensor without a trailing mode — is one span.
    """
    count = slice_count(shape)
    if len(shape) < 3 or count * int(row_bytes) <= _PARTIAL_BYTES:
        return [(0, count)]
    steps = int(shape[-1])
    per_step = count // steps
    per_block = max(1, _PARTIAL_BYTES // (per_step * int(row_bytes)))
    return [
        (t * per_step, min(t + per_block, steps) * per_step)
        for t in range(0, steps, per_block)
    ]


def block_steps(shape: tuple[int, ...], lo: int, hi: int) -> tuple[int, int]:
    """Last-mode steps ``[t_lo, t_hi)`` that the slice span ``[lo, hi)`` covers."""
    per_step = slice_count(shape) // int(shape[-1])
    return lo // per_step, hi // per_step


def block_trailing(
    shape: tuple[int, ...], span: "tuple[int, int] | None" = None
) -> tuple[int, ...]:
    """Modes ``3..N`` of a partial over slice ``span`` (``None``: every slice)."""
    if span is None:
        return tuple(shape[2:])
    t_lo, t_hi = block_steps(shape, *span)
    return tuple(shape[2:-1]) + (t_hi - t_lo,)


def reduce_blocks(blocks: list[tuple[int, int]], partial) -> np.ndarray:
    """``Σ partial(lo, hi)`` over ``blocks``, summed in block order.

    Every ``partial`` after the first is added into the first's result, so
    that one must be a fresh array; one block returns it untouched.
    """
    total = partial(*blocks[0])
    for lo, hi in blocks[1:]:
        total += partial(lo, hi)
    return total


# -- dispatch ----------------------------------------------------------------

def dispatch_slices(
    engine: ExecutionBackend | None,
    kernel,
    n_items: int,
    slabs: tuple[np.ndarray, ...],
    broadcast: dict[str, np.ndarray],
    *,
    out: np.ndarray,
) -> np.ndarray:
    """Run a per-slice kernel into the caller-owned ``out``, inline or as chunks.

    Inline execution hands ``out`` straight to the kernel; engine execution
    writes every chunk into its rows of ``out`` (see
    :func:`~repro.engine.chunked`).  Both routes produce values identical
    to the unbuffered call.
    """
    if engine is None:
        return kernel(*slabs, **broadcast, out=out)
    return chunked(
        engine, kernel, n_items, slabs=slabs, broadcast=broadcast,
        out=out,
    )


def fused_tensor(
    engine: ExecutionBackend | None,
    kernel,
    ssvd,
    rows: tuple[int, int],
    span: "tuple[int, int] | None" = None,
    **broadcast: np.ndarray,
) -> np.ndarray:
    """Run a fused kernel over the slice triples of ``ssvd`` into a fresh tensor.

    The ``(n, *rows)`` stack of the slices in ``span`` (default: all ``L``)
    is allocated here, filled by :func:`dispatch_slices` and reshaped by
    :func:`stack_to_tensor`; no projection is cached.
    """
    slabs = (ssvd.u, ssvd.s, ssvd.vt)
    if span is not None:
        slabs = tuple(a[span[0] : span[1]] for a in slabs)
    n = int(slabs[0].shape[0])
    out = np.empty((n, *rows), dtype=np.result_type(ssvd.u, *broadcast.values()))
    stack = dispatch_slices(engine, kernel, n, slabs, broadcast, out=out)
    return stack_to_tensor(stack, block_trailing(ssvd.shape, span))
