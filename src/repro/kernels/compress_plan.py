"""Planning for the approximation (compression) phase.

The approximation phase factors ``L`` slice matrices of identical shape
``(I1, I2)``.  One rule picks the algorithm for such a stack, with
``m = min(I1, I2)`` and ``k = rank + oversampling``:

* **gram** when ``m <= 2·k`` — eigendecomposition of the ``m × m`` Gram
  matrix (:func:`repro.linalg.rsvd.batched_svd_via_gram`): one ``M·m²``
  GEMM plus an ``O(m³)`` eig, cheaper than a sketch that would span most
  of the short side anyway;
* **rsvd** otherwise — randomized SVD with a shared test matrix
  (:func:`repro.linalg.rsvd.batched_rsvd`): ``O(M·m·k)``.

:func:`plan_compression` applies the rule; :func:`execute_plan` then runs
the chosen method through the execution engine: it draws (or receives)
*one* Gaussian test matrix per slab and fans the factorization out in
chunks.  Each chunk is factored in cache-sized blocks of slices, copied
once into a contiguous buffer that the sketch, the norms and the
factorization all read; chunks and blocks are bitwise identical to the
unblocked batched call.

:func:`estimate_costs` prices both methods in weighted flops; it makes no
decision and only feeds the predicted-versus-measured throughput that the
benchmarks report.  The exact per-slice SVD is not a plan method: it is
the reference :func:`repro.core.slice_svd.exact_compress`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..engine import ExecutionBackend, chunked
from ..exceptions import RankError, ShapeError
from ..linalg.rsvd import batched_rsvd, batched_svd_via_gram
from ..tensor.random import default_rng
from ..tensor.slices import SliceRuns
from ..validation import _all_finite
from .buffers import BufferPool
from .stats import KernelStats

__all__ = [
    "CompressionPlan",
    "estimate_costs",
    "plan_compression",
    "plan_from_config",
    "plan_chunk",
    "execute_plan",
    "factor_nbytes",
    "slab_norms",
]

# Relative per-flop weights of the building blocks, calibrated against
# batched NumPy timings on (L, I1, I2) stacks.  GEMM flops are the unit.
_C_EIG = 8.0  # eigh of a Gram matrix (m × m, or k × k in rsvd), per cube
_C_QR = 4.0  # batched QR, per M·k² flop block


@dataclass(frozen=True)
class CompressionPlan:
    """The planner's decision for one ``(L, I1, I2)`` slab.

    Attributes
    ----------
    method:
        Chosen algorithm: ``"gram"`` or ``"rsvd"``.
    k_eff:
        Sketch width ``min(rank + oversampling, min(I1, I2))``; the number
        of Gaussian test vectors the rsvd method draws.
    power_iterations:
        Subspace iterations the rsvd method will run.
    compute_dtype:
        Dtype the slab is factored in (norm accumulation stays float64).
    costs:
        Estimated per-slice flop costs of both methods (for
        introspection and benchmarks), from :func:`estimate_costs`.
    """

    method: str
    k_eff: int
    power_iterations: int
    compute_dtype: np.dtype
    costs: dict[str, float] = field(default_factory=dict)


def estimate_costs(
    i1: int,
    i2: int,
    rank: int,
    *,
    oversampling: int = 10,
    power_iterations: int = 1,
) -> dict[str, float]:
    """Per-slice flop estimates for the two compression methods.

    With ``m = min(I1, I2)``, ``M = max(I1, I2)``, ``r = rank``,
    ``k = min(r + oversampling, m)`` and ``p = power_iterations``:

    * ``gram``: ``M·m²`` (Gram GEMM) + ``8·m³`` (eigh) + ``M·m·r``
      (recovering the long-side factor);
    * ``rsvd``: ``(2 + 2p)·M·m·k`` (sketch, power-pass and projection
      GEMMs) + ``4·(1 + p)·M·k²`` (one QR of ``I1 × k`` per pass)
      + ``M·k²`` (the Gram GEMM ``B·Bᵀ`` of the ``k × I2`` projection)
      + ``8·k³`` (its ``eigh``) + ``(M + m)·k·r`` (recovering
      ``U = Q·U_B`` and ``Vᵀ``).  The QR and Gram terms are charged on the
      long side ``M`` — exact when ``I1 >= I2``, as on every paper slab,
      and an upper bound otherwise — so the costs of a slab and of its
      transpose agree.

    The weights were calibrated on batched NumPy/LAPACK timings (QR and
    eig flops carry much larger constants than GEMM flops).
    """
    m = float(min(int(i1), int(i2)))
    big = float(max(int(i1), int(i2)))
    r = float(int(rank))
    p = float(max(0, int(power_iterations)))
    k = float(min(int(rank) + max(0, int(oversampling)), int(m)))
    gram = big * m * m + _C_EIG * m**3 + big * m * r
    rsvd = (
        (2.0 + 2.0 * p) * big * m * k
        + _C_QR * (1.0 + p) * big * k * k
        + big * k * k
        + _C_EIG * k**3
        + (big + m) * k * r
    )
    return {"gram": gram, "rsvd": rsvd}


def factor_nbytes(
    i1: int,
    i2: int,
    rank: int,
    *,
    n_slices: int = 1,
    dtype: "np.dtype | type" = np.float64,
    norms: bool = True,
) -> int:
    """Bytes of the compressed ``(U, s, Vᵀ[, norms])`` triples per slab.

    The D-Tucker invariant in byte form: ``n_slices · (I1 + I2 + 1) · K``
    factor entries (plus one float64 norm per slice when ``norms``) —
    independent of the slab width ``I1·I2``.  This is the payload that
    crosses a boundary whenever compressed slices do: the distributed
    layer prices shard→coordinator shipping with it.
    """
    l = int(n_slices)
    itemsize = int(np.dtype(dtype).itemsize)
    total = l * (int(i1) + int(i2) + 1) * int(rank) * itemsize
    if norms:
        total += l * np.dtype(np.float64).itemsize
    return total


def plan_compression(
    i1: int,
    i2: int,
    rank: int,
    *,
    precision: str = "float64",
    oversampling: int = 10,
    power_iterations: int = 1,
) -> CompressionPlan:
    """Choose the compression method for slices of shape ``(i1, i2)``.

    The Gram shortcut when ``min(I1, I2) <= 2·(rank + oversampling)`` (one
    slice side is already rank-sized), the randomized SVD otherwise.
    """
    m = min(int(i1), int(i2))
    r = int(rank)
    if r < 1 or r > m:
        raise RankError(f"rank {rank} invalid for slice shape ({i1}, {i2})")
    if precision not in ("float64", "float32"):
        raise ShapeError(f"precision must be 'float64' or 'float32', got {precision!r}")
    over = max(0, int(oversampling))
    k_nom = r + over
    compute_dtype = np.dtype(np.float32 if precision == "float32" else np.float64)
    return CompressionPlan(
        method="gram" if m <= 2 * k_nom else "rsvd",
        k_eff=min(k_nom, m),
        power_iterations=max(0, int(power_iterations)),
        compute_dtype=compute_dtype,
        costs=estimate_costs(
            i1, i2, r, oversampling=over, power_iterations=power_iterations
        ),
    )


def plan_from_config(i1: int, i2: int, rank: int, config) -> CompressionPlan:
    """:func:`plan_compression` with knobs taken from a ``DTuckerConfig``."""
    return plan_compression(
        i1,
        i2,
        rank,
        precision=config.precision,
        oversampling=max(0, int(config.oversampling)),
        power_iterations=int(config.power_iterations),
    )


#: Bytes of float64 that :func:`slab_norms` widens a float32 block by at a time.
_WIDEN_BYTES = 1 << 20


def slab_norms(stack: np.ndarray) -> np.ndarray:
    """Per-slice ``‖X_l‖_F²`` with float64 accumulation regardless of dtype.

    One dot product per slice of the flattened block (``np.vecdot``), with
    no block-sized temporary: float32 slices are widened to float64 a few
    at a time (about ``_WIDEN_BYTES``, at least one slice per step).
    """
    flat = stack.reshape(stack.shape[0], -1)
    if flat.dtype == np.float64:
        return _vecdot(flat, flat)
    out = np.empty(flat.shape[0])
    step = max(1, _WIDEN_BYTES // (8 * flat.shape[1]))
    for start in range(0, flat.shape[0], step):
        wide = flat[start : start + step].astype(np.float64)
        out[start : start + step] = _vecdot(wide, wide)
    return out


def _vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products: ``np.vecdot`` where NumPy has it (>= 2.0)."""
    if hasattr(np, "vecdot"):
        return np.vecdot(a, b)
    return np.einsum("ij,ij->i", a, b, optimize=True)  # pragma: no cover


# -- chunk kernels (module level so the process backend can pickle them) ----

#: Bytes of slice data per block.  Each engine chunk is factored in blocks
#: of whole slices (at least one) that fit this budget; a block is copied
#: once into a C-contiguous buffer — cast to the compute dtype in the same
#: copy — and the sketch, the norms and the factorization all read it while
#: it is cache-resident.  Chosen from a 1–16 MiB sweep on the paper
#: datasets' slab shapes: larger budgets sped up the kernel alone a little
#: but slowed the end-to-end fit.
_BLOCK_BYTES = 4 << 20


def block_slices(i1: int, i2: int, dtype: "np.dtype | type") -> int:
    """Slices per block: as many ``(i1, i2)`` slices as fit the budget, >= 1."""
    return max(1, _BLOCK_BYTES // (int(i1) * int(i2) * np.dtype(dtype).itemsize))


#: Fewest slices per block that :func:`_copy_block` gathers row by row.
_ROW_COPY_MIN_SLICES = 4


def _copies_by_row(src: np.ndarray) -> bool:
    """Whether :func:`_copy_block` gathers the block ``src`` row by row.

    Decided from the strides and the block shape alone: the slice axis
    must have the smallest stride, and the block must hold at least
    ``_ROW_COPY_MIN_SLICES`` slices.
    """
    strides = [abs(int(st)) for st in src.strides]
    return src.shape[0] >= _ROW_COPY_MIN_SLICES and strides[0] < min(strides[1:])


def _copy_block(blk: np.ndarray, src: np.ndarray) -> None:
    """Copy (and cast) the slices ``src`` into the contiguous block ``blk``.

    When the slice axis has the smallest stride — the slice view of every
    C-order order-3 tensor — one strided copy walks each destination slice
    in turn and touches a fresh source cache line per element.  Copying one
    row ``i`` of every slice at a time (``blk[:, i, :] <- src[:, i, :]``, a
    small 2-D transpose) reuses each line across the block's slices, about
    2-3x faster on the paper's slab shapes.  A block of a few slices gains
    nothing from that reuse and pays one call per row, so it, and every
    other layout, takes the single copy.  A :class:`~repro.tensor.slices
    .SliceRuns` range is copied run by run, each run by the same rule.
    """
    if isinstance(src, SliceRuns):
        for offset, run in src.runs():
            _copy_block(blk[offset : offset + run.shape[0]], run)
    elif _copies_by_row(src):
        for i in range(src.shape[1]):
            np.copyto(blk[:, i, :], src[:, i, :], casting="unsafe")
    else:
        np.copyto(blk, src, casting="unsafe")


def _blockwise(
    stack: np.ndarray,
    factor,
    *,
    rank: int,
    dtype: "np.dtype | type | None",
    block: int | None,
    buffer: np.ndarray | None,
    out: "tuple[np.ndarray, ...] | None",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run ``factor`` over ``stack`` block by block into ``(U, s, Vt, norms)``.

    Every block of ``block`` slices (default :func:`block_slices`) is copied
    once into ``buffer`` (allocated when ``None``; see :func:`_copy_block`),
    cast to ``dtype`` on the way (default: float32 stays, anything else
    becomes float64), and checked for NaN/Inf by :func:`read_block` before
    it is factored.  Each block's factors and float64 norms are written
    straight into their rows of ``out`` — the caller's arrays, allocated
    here when ``None`` — so the chunk's factors exist exactly once;
    without ``out``, a chunk that fits one block returns that block's own
    arrays.  Batched LAPACK/BLAS are
    per-matrix loops, so the factors do not depend on where the block
    boundaries fall.
    """
    l, i1, i2 = stack.shape
    if dtype is None:
        dtype = np.float32 if stack.dtype == np.float32 else np.float64
    if buffer is None:
        step = block if block is not None else block_slices(i1, i2, dtype)
        buffer = np.empty((min(step, l), i1, i2), dtype=dtype)
    step = buffer.shape[0]
    if out is None:
        if step >= l:
            blk = buffer[:l]
            norms = read_block(blk, stack)
            return (*factor(blk), norms)
        out = factor_outputs(l, i1, i2, rank, dtype)
    u_out, s_out, vt_out, norms_out = out
    for start in range(0, l, step):
        stop = min(start + step, l)
        blk = buffer[: stop - start]
        norms_out[start:stop] = read_block(blk, stack[start:stop])
        u_out[start:stop], s_out[start:stop], vt_out[start:stop] = factor(blk)
    return out


def read_block(blk: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Copy ``src`` into the block ``blk`` and return its float64 slice norms.

    The norms double as the input's NaN/Inf check, so the tensor is
    scanned in the same read that compresses it: a finite block has
    finite norms unless its squares overflow, so only a non-finite norm
    costs an exact scan of the block.  A block that holds NaN or Inf
    raises :class:`~repro.exceptions.ShapeError`; finite entries whose
    squares overflow (``1e200``) pass, as they pass input validation.
    """
    _copy_block(blk, src)
    norms = slab_norms(blk)
    if not np.isfinite(norms).all() and not _all_finite(blk):
        raise ShapeError("tensor contains non-finite values (NaN or Inf)")
    return norms


def factor_outputs(
    n_slices: int, i1: int, i2: int, rank: int, dtype: "np.dtype | type"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Empty ``(U, s, Vt, norms)`` arrays for ``n_slices`` rank-``rank`` slices."""
    return (
        np.empty((n_slices, i1, rank), dtype=dtype),
        np.empty((n_slices, rank), dtype=dtype),
        np.empty((n_slices, rank, i2), dtype=dtype),
        np.empty(n_slices, dtype=np.float64),
    )


def plan_chunk(
    stack: np.ndarray,
    *,
    method: str,
    rank: int,
    omega: np.ndarray | None = None,
    power_iterations: int = 1,
    dtype: "np.dtype | type | None" = None,
    block: int | None = None,
    buffer: np.ndarray | None = None,
    out: "tuple[np.ndarray, ...] | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD of one chunk of the slice stack by ``method``, block by block.

    The one dispatch every compression path shares: the engine chunks of
    :func:`execute_plan` and the batch tasks that worker processes run for
    out-of-core, densified-sparse and sharded sources.  ``"rsvd"`` sketches
    every block with the slab's one shared test matrix ``omega`` (``blk @
    Ω`` on the contiguous block buffer), so the chunking and the blocking
    change no bit of the factors; ``power_iterations`` is read by it only.
    ``dtype``, ``block``, ``buffer`` and ``out`` set the compute dtype, the
    slices per block, the reusable block buffer and the ``(U, s, Vt,
    norms)`` arrays written in place (see :func:`_blockwise`).
    """
    if method == "gram":
        factor = partial(batched_svd_via_gram, rank=rank)
    elif method == "rsvd":
        if omega is None:
            raise ShapeError("the rsvd method needs the slab's test matrix omega")
        factor = partial(
            batched_rsvd, rank=rank, power_iterations=power_iterations,
            test_matrix=omega,
        )
    else:
        raise ShapeError(f"unknown plan method {method!r}")
    return _blockwise(
        stack, factor, rank=rank, dtype=dtype, block=block, buffer=buffer, out=out
    )


def execute_plan(
    engine: ExecutionBackend,
    stack: np.ndarray,
    rank: int,
    plan: CompressionPlan,
    *,
    rng: int | np.random.Generator | None = None,
    omega: np.ndarray | None = None,
    pool: BufferPool | None = None,
    stats: KernelStats | None = None,
    out: "tuple[np.ndarray, ...] | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run a :class:`CompressionPlan` on one ``(L, I1, I2)`` slab.

    Parameters
    ----------
    engine:
        Live execution backend; the factorization fans out in chunks along
        the slice axis (bitwise identical to the unchunked batched call,
        because every batched LAPACK/BLAS primitive is a per-matrix loop).
    stack:
        The slab, in any memory layout (a strided slice view, or the
        :class:`~repro.tensor.slices.SliceRuns` of an order-``>= 4``
        tensor).  No whole-slab copy is made: each chunk copies one block of slices at
        a time into a C-contiguous buffer, casting to ``plan.compute_dtype``
        in the same copy, and the per-slice norms accumulate in float64 on
        that block (so they may differ from a norm taken on the caller's
        layout in the last bits, ~1e-14 relative).
    rank:
        Truncation rank ``K``.
    plan:
        The decision from :func:`plan_compression`.
    rng:
        Seed or generator for the test-matrix draw (rsvd method only).
    omega:
        Pre-drawn test matrix of shape ``(I2, plan.k_eff)``; the
        out-of-core path draws all batches' matrices upfront in batch
        order so results do not depend on scheduling.  Overrides ``rng``.
    pool:
        Optional :class:`~repro.kernels.buffers.BufferPool` holding the
        block buffer (slot ``compress:block``), so repeated same-shape
        slabs (out-of-core batches, stream blocks) reuse one allocation.
        Used on the serial backend only, whose chunks run one at a time on
        the calling thread; parallel chunks allocate their own buffer.
    stats:
        Optional :class:`~repro.kernels.stats.KernelStats`; records the
        planner decision (``plan:<method>`` miss) and each test-matrix
        draw (``sketch`` miss).
    out:
        Optional ``(U, s, Vt, norms)`` arrays (see :func:`factor_outputs`)
        that every chunk writes its rows of in place; allocated when
        ``None``.

    Returns
    -------
    tuple
        ``(U, s, Vt, norms)`` — factors in ``plan.compute_dtype``, per-slice
        squared norms always in float64.
    """
    a = stack if isinstance(stack, SliceRuns) else np.asarray(stack)
    if a.ndim != 3:
        raise ShapeError(f"stack must be 3-D (L, I1, I2), got shape {a.shape}")
    l, i1, i2 = a.shape
    if stats is not None:
        stats.record_miss(f"plan:{plan.method}")
    dtype = plan.compute_dtype
    block = block_slices(i1, i2, dtype)
    broadcast: dict[str, object] = dict(rank=int(rank), dtype=dtype, block=block)
    if pool is not None and engine.name == "serial":
        # Serial chunks run one after another on this thread, so they can
        # share one pooled block buffer; parallel chunks allocate their own.
        broadcast["buffer"] = pool.take(
            "compress:block", (min(block, l), i1, i2), dtype
        )
    broadcast["method"] = plan.method
    if plan.method == "rsvd":
        if omega is None:
            gen = default_rng(rng)
            omega = gen.standard_normal((i2, plan.k_eff))
        om = np.asarray(omega, dtype=dtype)
        if om.shape != (i2, plan.k_eff):
            raise ShapeError(
                f"omega must have shape ({i2}, {plan.k_eff}), got {om.shape}"
            )
        if stats is not None:
            stats.record_miss("sketch")
        broadcast.update(omega=om, power_iterations=plan.power_iterations)
    return chunked(
        engine,
        plan_chunk,
        l,
        slabs=(a,),
        broadcast=broadcast,
        out=out if out is not None else partial(
            factor_outputs, l, i1, i2, int(rank), dtype
        ),
    )
