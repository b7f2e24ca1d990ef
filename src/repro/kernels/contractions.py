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
"""

from __future__ import annotations

import numpy as np

from ..engine import ExecutionBackend, chunked

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
]


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


# -- dispatch ----------------------------------------------------------------

def dispatch_slices(
    engine: ExecutionBackend | None,
    kernel,
    n_items: int,
    slabs: tuple[np.ndarray, ...],
    broadcast: dict[str, np.ndarray],
    *,
    out: np.ndarray,
    costs: np.ndarray | None = None,
) -> np.ndarray:
    """Run a per-slice kernel into the caller-owned ``out``, inline or as chunks.

    Inline execution hands ``out`` straight to the kernel; engine execution
    writes every chunk into its rows of ``out`` (see
    :func:`~repro.engine.chunked`).  Both routes produce values identical
    to the unbuffered call.  ``costs`` is forwarded to
    :func:`~repro.engine.chunked` — the sweep workspace supplies per-slice
    contraction flop weights so dynamic dispatches order their queues by
    actual work.
    """
    if engine is None:
        return kernel(*slabs, **broadcast, out=out)
    return chunked(
        engine, kernel, n_items, slabs=slabs, broadcast=broadcast,
        out=out, costs=costs,
    )


def fused_tensor(
    engine: ExecutionBackend | None,
    kernel,
    ssvd,
    rows: tuple[int, int],
    **broadcast: np.ndarray,
) -> np.ndarray:
    """Run a fused kernel over every slice triple of ``ssvd`` into a fresh tensor.

    The ``(L, *rows)`` stack is allocated here, filled by
    :func:`dispatch_slices` and reshaped by :func:`stack_to_tensor`; no
    projection is cached.
    """
    out = np.empty(
        (ssvd.num_slices, *rows), dtype=np.result_type(ssvd.u, *broadcast.values())
    )
    stack = dispatch_slices(
        engine, kernel, ssvd.num_slices, (ssvd.u, ssvd.s, ssvd.vt), broadcast,
        out=out,
    )
    return stack_to_tensor(stack, ssvd.shape[2:])
