"""The data-source layer: every fit path reads slices through one protocol.

D-Tucker's whole design is "compress slices once, then iterate in the
compressed domain" — so the only thing that distinguishes the in-memory,
out-of-core, sparse and streaming entry points is *where the slice
matrices come from*.  This module makes that difference a pluggable
object: a :class:`SliceSource` serves ``(B, I1, I2)`` slabs of consecutive
slices, and :func:`compress_source` is the single compression pipeline
that turns any source into a :class:`~repro.core.slice_svd.SliceSVD` —
planner-driven method selection (:mod:`repro.kernels.compress_plan`),
double-buffered IO prefetch (:class:`~repro.engine.pipeline.Prefetcher`),
process-backend fan-out, and ``PhaseTrace``/``KernelStats`` accounting,
uniformly for every source.

Three adapters cover the library's entry points:

* :class:`DenseSource` — an in-memory array (its slice stack, no copy);
* :class:`NpySource` — a memory-mapped ``.npy`` file (one cached read-only
  handle per process, batches served as slice-stack views of the map);
* :class:`SparseSource` — a :class:`~repro.sparse.coo.SparseTensor`
  (``O(nnz)`` per-slice randomized SVDs in float64, densified batches
  through the planner at ``precision="float32"``).

Several sources concatenated along the last (temporal) mode are one
:class:`~repro.distributed.sharded.ShardedSource`.

Custom adapters (HDF5, zarr, remote shards, …) implement the same small
protocol and inherit the whole solver stack — see ``docs/api.md`` for a
worked example.  A non-resident adapter must be picklable: on the process
backend the source itself travels to the workers with each batch task, so
it should pickle as a recipe (a path, a key), never as an open handle or
its data.

Determinism contract
--------------------
All randomness is pre-drawn in batch order from one stream before any
work is dispatched, so results are independent of scheduling and backend.
Sources with ``shared_sketch=True`` (sparse) draw *one* Gaussian test
matrix for every batch — results are then also independent of the
batching; per-batch sources (``.npy`` files) draw one matrix per batch in
batch order, matching the historical out-of-core stream exactly.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..engine import ExecutionBackend, Prefetcher, backend_scope
from ..engine.base import store_chunk
from ..exceptions import RankError, ShapeError
from ..kernels.buffers import BufferPool
from ..kernels.compress_plan import (
    _BLOCK_BYTES,
    CompressionPlan,
    _copy_block,
    _vecdot,
    block_slices,
    execute_plan,
    factor_outputs,
    plan_chunk,
    plan_from_config,
    slab_norms,
)
from ..kernels.stats import KernelStats
from ..linalg.svd import sign_fix
from ..tensor.random import default_rng
from ..tensor.slices import slice_count, slice_index_to_multi, slice_stack
from ..validation import as_tensor, check_positive_int
from .config import DTuckerConfig
from .slice_svd import SliceSVD

__all__ = [
    "SliceSource",
    "DenseSource",
    "NpySource",
    "SparseSource",
    "compress_source",
    "exact_core",
    "batched_slice_view",
    "clear_memmap_cache",
    "memmap_cache_stats",
]


# -- the protocol -----------------------------------------------------------

@runtime_checkable
class SliceSource(Protocol):
    """Anything that can serve batches of consecutive slice matrices.

    Implementations provide the tensor geometry (``shape``, ``dtype``,
    ``slice_count``), a ``read_batch(start, stop)`` returning the dense
    ``(stop - start, I1, I2)`` slab of slices ``start..stop`` (library-wide
    Fortran order over modes ``3..N``).  A non-resident source must be
    picklable: the process backend ships the source itself to its workers.

    The class attributes below tune how :func:`compress_source` drives an
    implementation; the defaults (resident, per-batch sketches) suit
    in-memory data.

    Attributes
    ----------
    resident:
        ``True`` when ``read_batch`` is cheap (a view or near-view) — the
        pipeline then reads inline; ``False`` routes reads through the
        double-buffered :class:`~repro.engine.pipeline.Prefetcher` so IO
        overlaps factorization.
    default_batch_slices:
        Batch size used when the caller passes none (``None`` = the whole
        tensor in one batch).
    shared_sketch:
        Draw one Gaussian test matrix shared by all batches (results become
        independent of the batching) instead of one per batch.
    phase_name:
        Label of the :class:`~repro.engine.trace.PhaseTrace` emitted for
        the compression phase.
    """

    resident: bool
    default_batch_slices: int | None
    shared_sketch: bool
    phase_name: str

    @property
    def shape(self) -> tuple[int, ...]: ...

    @property
    def dtype(self) -> np.dtype: ...

    @property
    def slice_count(self) -> int: ...

    def read_batch(self, start: int, stop: int) -> np.ndarray: ...


class SliceSourceBase:
    """Shared geometry/validation plumbing for the built-in adapters."""

    resident: bool = True
    default_batch_slices: int | None = None
    shared_sketch: bool = False
    phase_name: str = "approximation"

    _shape: tuple[int, ...]
    _dtype: np.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def slice_count(self) -> int:
        return slice_count(self._shape)

    def _check_range(self, start: int, stop: int) -> tuple[int, int]:
        count = self.slice_count
        lo, hi = int(start), int(stop)
        if not 0 <= lo < hi <= count:
            raise ShapeError(
                f"slice range [{lo}, {hi}) invalid for {count} slices"
            )
        return lo, hi

    # -- hooks consumed by compress_source ---------------------------------
    def plan(self, rank: int, config: DTuckerConfig) -> CompressionPlan:
        """The compression plan for this source (planner dispatch by default)."""
        i1, i2 = self._shape[:2]
        return plan_from_config(i1, i2, rank, config)

    def batch_producer(
        self, plan: CompressionPlan
    ) -> Callable[[tuple[int, int]], Any]:
        """Callable mapping a ``(start, stop)`` bound to a batch payload."""
        return lambda bound: self.read_batch(bound[0], bound[1])

    def compress_batch(
        self,
        engine: ExecutionBackend,
        payload: Any,
        rank: int,
        plan: CompressionPlan,
        omega: np.ndarray | None,
        pool: BufferPool | None,
        out: "tuple[np.ndarray, ...] | None",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Factor one batch payload into ``(u, s, vt, norms)`` stacks.

        The stacks are written into ``out`` (the batch's rows of the
        whole output) when given and returned.
        """
        return execute_plan(
            engine, payload, rank, plan, omega=omega, pool=pool, out=out
        )

    def tensor_view(self) -> np.ndarray | None:
        """The whole tensor as one in-memory or memory-mapped array, if held so.

        ``None`` (the default) for sources that assemble their batches.
        """
        return None

    def project_slices(
        self, a1: np.ndarray, a2: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Every slice projected onto the factors, and ``‖X‖²``.

        The ``(L, J1, J2)`` stack ``A1ᵀ X_l A2``, read block by block as
        the compression reads the source — each block of
        :func:`~repro.kernels.compress_plan.block_slices` slices copied
        once into a float64 buffer, its norms summed in float64 — and
        projected through the cheaper slice mode first.  Per-slice GEMMs,
        so the stack does not depend on where the blocks fall.
        """
        i1, i2 = self._shape[:2]
        j1, j2 = int(a1.shape[1]), int(a2.shape[1])
        count = self.slice_count
        out = np.empty((count, j1, j2))
        norm_squared = 0.0
        step = block_slices(i1, i2, np.float64)
        buffer = np.empty((min(step, count), i1, i2))
        a1t = np.ascontiguousarray(a1.T)
        # Contract the larger slice side first: fewer flops, smaller temporary.
        left_first = i1 >= i2
        for start in range(0, count, step):
            stop = min(start + step, count)
            blk = buffer[: stop - start]
            _copy_block(blk, self.read_batch(start, stop))
            norm_squared += float(slab_norms(blk).sum())
            if left_first:
                np.matmul(np.matmul(a1t, blk), a2, out=out[start:stop])
            else:
                np.matmul(a1t, np.matmul(blk, a2), out=out[start:stop])
        return out, norm_squared

    def process_parts(
        self,
        engine: ExecutionBackend,
        rank: int,
        plan: CompressionPlan,
        bounds: list[tuple[int, int]],
        omegas: list[np.ndarray | None],
        config: DTuckerConfig,
        *,
        out: tuple[np.ndarray, ...],
        stats: KernelStats | None = None,
    ) -> bool:
        """Process-backend fan-out into ``out``; ``False`` falls back to inline batches.

        Resident sources return ``False``: their batches run through
        :func:`~repro.kernels.compress_plan.execute_plan`, whose ``chunked``
        dispatch already parallelises each slab across worker processes.
        A non-resident source ships ``(self, start, stop, Ω)`` per batch,
        so workers read their own batch and no tensor data crosses process
        boundaries; each task's ``(u, s, vt, norms)`` is written into its
        rows of ``out`` as it arrives (:func:`store_parts`).

        ``stats`` is the compression phase's counters; sources whose
        fan-out ships data across process/shard boundaries (the
        distributed layer) record their ``comm:*`` events there.
        """
        if self.resident:
            return False
        tasks = [
            (self, start, stop, omega)
            for (start, stop), omega in zip(bounds, omegas)
        ]
        return store_parts(engine, batch_task_fn(rank, plan), tasks, bounds, out)


def store_parts(
    engine: ExecutionBackend,
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    rows: Sequence[tuple[int, int]],
    out: tuple[np.ndarray, ...],
) -> bool:
    """Map ``fn`` over ``tasks``; task ``i``'s arrays land in rows ``rows[i]`` of ``out``.

    Each result is copied in as it arrives and then dropped, so no list of
    per-task parts builds up beside the output.
    """
    for i, part in engine.map_completed(fn, tasks):
        store_chunk(out, rows[i][0], rows[i][1], part)
    return True


# -- memory-mapped .npy files ----------------------------------------------

#: One read-only memmap handle per (process, file version).  Historically
#: every batch gather re-opened the file via ``np.load``; keyed on the pid
#: so forked workers open their own handle, and on (mtime_ns, size) so a
#: rewritten file is re-mapped rather than served stale.  Bounded LRU:
#: each live handle holds a file descriptor, and a sharded manifest over
#: hundreds of member files must not exhaust the process's fd budget —
#: least-recently-used handles are evicted (and tallied) at the cap.  The
#: ``REPRO_MEMMAP_HANDLES`` environment variable overrides the cap.
_MEMMAP_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_MEMMAP_CACHE_SIZE = 8
_MEMMAP_LOCK = threading.Lock()
_MEMMAP_COUNTERS = {"hits": 0, "misses": 0, "evictions": 0}


def _memmap_cache_capacity() -> int:
    raw = os.environ.get("REPRO_MEMMAP_HANDLES")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return _MEMMAP_CACHE_SIZE


def _open_memmap_cached(path: "str | os.PathLike") -> np.ndarray:
    """Read-only memmap of ``path``, opened at most once per file version."""
    p = os.path.realpath(os.fspath(path))
    st = os.stat(p)
    key = (os.getpid(), p, st.st_mtime_ns, st.st_size)
    with _MEMMAP_LOCK:
        mm = _MEMMAP_CACHE.get(key)
        if mm is not None:
            _MEMMAP_CACHE.move_to_end(key)
            _MEMMAP_COUNTERS["hits"] += 1
            return mm
        mm = np.load(p, mmap_mode="r", allow_pickle=False)
        _MEMMAP_COUNTERS["misses"] += 1
        _MEMMAP_CACHE[key] = mm
        cap = _memmap_cache_capacity()
        while len(_MEMMAP_CACHE) > cap:
            _MEMMAP_CACHE.popitem(last=False)
            _MEMMAP_COUNTERS["evictions"] += 1
        return mm


def clear_memmap_cache() -> None:
    """Drop all cached ``.npy`` handles (test isolation / fd hygiene).

    Counters reset with the handles, so tests observe a clean window.
    """
    with _MEMMAP_LOCK:
        _MEMMAP_CACHE.clear()
        _MEMMAP_COUNTERS.update(hits=0, misses=0, evictions=0)


def memmap_cache_stats() -> dict[str, int]:
    """Snapshot of the handle cache: size, capacity, hits/misses/evictions.

    ``evictions`` counts handles dropped at the LRU cap since the last
    :func:`clear_memmap_cache` — nonzero evictions with a hot working set
    mean the cap (``REPRO_MEMMAP_HANDLES``) is too small for the manifest.
    """
    with _MEMMAP_LOCK:
        return {
            "size": len(_MEMMAP_CACHE),
            "capacity": _memmap_cache_capacity(),
            **_MEMMAP_COUNTERS,
        }


def batched_slice_view(tensor: Any, start: int, stop: int) -> np.ndarray:
    """Materialise slices ``start..stop`` of ``tensor`` as ``(B, I1, I2)``.

    One scalar multi-index read per slice, so it serves any array-like
    that supports them (zarr arrays, HDF5 datasets, memmaps): only the
    chunks or pages backing the requested slices are read.  Slice indices
    follow the library-wide Fortran order over modes ``3..N``; the output
    is float64 and C-contiguous.
    """
    shape = tensor.shape
    count = slice_count(shape)
    if not 0 <= start < stop <= count:
        raise ShapeError(
            f"slice range [{start}, {stop}) invalid for {count} slices"
        )
    out = np.empty((stop - start, shape[0], shape[1]))
    for offset, l in enumerate(range(start, stop)):
        multi = slice_index_to_multi(l, shape)
        out[offset] = tensor[(slice(None), slice(None), *multi)]
    return out


# -- adapters ---------------------------------------------------------------

class DenseSource(SliceSourceBase):
    """An in-memory dense tensor, served as its slice stack without a copy.

    ``read_batch`` returns a view into the original array — a strided
    ``(B, I1, I2)`` view for order 3, and for a C-order tensor of order
    ``>= 4`` (whose slice stack is no view) a
    :class:`~repro.tensor.slices.SliceRuns` over its mode-3 runs.  The
    compression kernels copy one cache-sized block of slices at a time
    into a contiguous buffer, reading the runs directly, so no
    whole-tensor copy is ever made and the slice layout never reaches the
    factorization: given the same test matrix, the factors match those of
    a ``.npy`` source of the same tensor bit for bit.
    """

    def __init__(self, tensor: np.ndarray) -> None:
        self._bind(as_tensor(tensor, min_order=2, name="tensor"))

    @classmethod
    def _validated(cls, x: np.ndarray) -> "DenseSource":
        """Wrap an array that already passed :func:`~repro.validation.as_tensor`.

        Skips the second full-tensor NaN/Inf scan for callers (``DTucker
        .fit``) that validated the tensor themselves.
        """
        source = cls.__new__(cls)
        source._bind(x)
        return source

    def _bind(self, x: np.ndarray) -> None:
        self._tensor = x
        self._stack = slice_stack(x)
        self._shape = tuple(int(d) for d in x.shape)
        self._dtype = x.dtype

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        lo, hi = self._check_range(start, stop)
        return self._stack[lo:hi]

    def tensor_view(self) -> np.ndarray:
        return self._tensor

    def __reduce__(self):
        # A pickle carries the tensor once (the slice stack is a view of it,
        # or holds a closure for order >= 4) and rebinds it unscanned.
        return (type(self)._validated, (self._tensor,))


def _batch_task(
    task: "tuple[SliceSource, int, int, np.ndarray | None]",
    *,
    rank: int,
    method: str,
    power_iterations: int,
    dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compress slices ``[start, stop)`` of a source inside a worker process.

    Module-level (dispatched via :func:`functools.partial`) so the process
    backend can pickle it.  The source arrives pickled (a ``.npy`` source
    as its path, re-mapped through the worker's own cached memmap) and the
    worker reads only its own batch, which runs through the same blockwise
    kernel as an in-process chunk
    (:func:`~repro.kernels.compress_plan.plan_chunk`).  Only the
    compressed ``(u, s, vt, norms)`` travels back.
    """
    source, start, stop, omega = task
    return plan_chunk(
        source.read_batch(start, stop),
        method=method,
        rank=rank,
        omega=omega,
        power_iterations=power_iterations,
        dtype=dtype,
    )


def batch_task_fn(rank: int, plan: CompressionPlan) -> Callable:
    """:func:`_batch_task` bound to one plan, ready for ``engine.map``."""
    return partial(
        _batch_task,
        rank=rank,
        method=plan.method,
        power_iterations=plan.power_iterations,
        dtype=plan.compute_dtype,
    )


class NpySource(SliceSourceBase):
    """A dense tensor stored in a ``.npy`` file, memory-mapped in batches.

    The file must hold a C-contiguous array of order ``>= 2`` (NumPy
    default).  ``read_batch`` returns the memory map's slice-stack view
    (:func:`~repro.tensor.slices.slice_stack`), so the compression block
    copy is the only copy of the data and reads only the touched pages.
    One read-only handle is opened per process and reused across batches
    (see :func:`clear_memmap_cache`).
    """

    resident = False
    default_batch_slices = 64
    phase_name = "approximation-ooc"

    def __init__(self, path: "str | os.PathLike") -> None:
        self._path = os.fspath(path)
        probe = _open_memmap_cached(self._path)
        if probe.ndim < 2:
            raise ShapeError(f"tensor in {path!s} must have order >= 2")
        self._shape = tuple(int(d) for d in probe.shape)
        self._dtype = probe.dtype

    @property
    def path(self) -> str:
        return self._path

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        lo, hi = self._check_range(start, stop)
        return slice_stack(_open_memmap_cached(self._path))[lo:hi]

    def tensor_view(self) -> np.ndarray:
        return _open_memmap_cached(self._path)


def _sparse_slice_svd(
    a: object,
    *,
    rank: int,
    omega: np.ndarray,
    power_iterations: int,
    i1: int,
    i2: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Randomized SVD of one sparse slice (module level for pickling).

    Every matrix product is sparse × dense, so one slice costs
    ``O(nnz_l · (K + p))`` instead of ``O(I1·I2·(K + p))``.  Returns
    zero-padded ``(u, s, vt, norm²)`` of uniform shapes ``(I1, K)``,
    ``(K,)``, ``(K, I2)`` so the caller can stack results regardless of
    per-slice nnz.
    """
    u_out = np.zeros((i1, rank))
    s_out = np.zeros(rank)
    vt_out = np.zeros((rank, i2))
    norm = float(a.data @ a.data) if a.nnz else 0.0  # type: ignore[attr-defined]
    if a.nnz == 0:  # type: ignore[attr-defined]
        # An all-zero slice compresses to zero triples; leave the
        # (orthonormality-irrelevant) factors at zero.
        return u_out, s_out, vt_out, norm
    y = a @ omega  # type: ignore[operator]
    q, _ = np.linalg.qr(y)
    for _ in range(max(0, int(power_iterations))):
        z, _ = np.linalg.qr(a.T @ q)  # type: ignore[attr-defined]
        q, _ = np.linalg.qr(a @ z)  # type: ignore[operator]
    b = q.T @ a  # dense (size, I2)
    ub, s, vt = np.linalg.svd(np.asarray(b), full_matrices=False)
    u = q @ ub[:, :rank]
    u, vt_fixed = sign_fix(u, vt[:rank])
    assert vt_fixed is not None
    u_out[:, : u.shape[1]] = u
    s_out[: s[:rank].shape[0]] = s[:rank]
    vt_out[: vt_fixed.shape[0]] = vt_fixed
    return u_out, s_out, vt_out, norm


class SparseSource(SliceSourceBase):
    """A :class:`~repro.sparse.coo.SparseTensor`, served per-slice or densified.

    In float64 (the default precision) each CSR slice is compressed with
    the ``O(nnz)`` sparse randomized SVD kernel and one test matrix is
    shared across all slices, exactly the historical ``compress_sparse``
    behaviour.  ``precision="float32"`` densifies each batch and routes it
    through the compression planner instead, at densified-batch cost.
    """

    resident = False
    default_batch_slices = 64
    shared_sketch = True
    phase_name = "approximation-sparse"

    def __init__(self, tensor: object) -> None:
        from ..sparse.coo import SparseTensor

        if not isinstance(tensor, SparseTensor):
            raise ShapeError(
                f"SparseSource needs a SparseTensor, got {type(tensor).__name__}"
            )
        if len(tensor.shape) < 2:
            raise ShapeError("SparseSource requires order >= 2")
        self._tensor = tensor
        self._shape = tuple(int(d) for d in tensor.shape)
        self._dtype = tensor.values.dtype
        self._sparse_kernel = True

    @property
    def tensor(self) -> object:
        return self._tensor

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        lo, hi = self._check_range(start, stop)
        mats = self._tensor.slice_matrices(lo, hi)
        return np.stack([np.asarray(m.todense()) for m in mats])

    def plan(self, rank: int, config: DTuckerConfig) -> CompressionPlan:
        plan = super().plan(rank, config)
        # The O(nnz) per-slice kernel serves float64 (it is the historical
        # compress_sparse path, bit for bit); float32 densifies batches
        # through the planner.
        self._sparse_kernel = config.precision == "float64"
        if self._sparse_kernel and plan.method != "rsvd":
            # No Gram shortcut on sparse data: the sparse kernel is always
            # randomized, whatever the dense dispatch would pick.
            plan = replace(plan, method="rsvd")
        return plan

    def batch_producer(self, plan):
        if self._sparse_kernel:
            # CSR extraction (a Python-level gather over the COO
            # coordinates) overlaps the previous batch's SVDs.
            return lambda bound: self._tensor.slice_matrices(bound[0], bound[1])
        return super().batch_producer(plan)

    def _slice_task(self, rank, plan, omega):
        i1, i2 = self._shape[:2]
        return partial(
            _sparse_slice_svd,
            rank=rank,
            omega=omega,
            power_iterations=plan.power_iterations,
            i1=i1,
            i2=i2,
        )

    def compress_batch(self, engine, payload, rank, plan, omega, pool, out):
        if not self._sparse_kernel:
            return super().compress_batch(
                engine, payload, rank, plan, omega, pool, out
            )
        if out is None:
            out = factor_outputs(len(payload), *self._shape[:2], rank, np.float64)
        rows = [(i, i + 1) for i in range(len(payload))]
        store_parts(engine, self._slice_task(rank, plan, omega), payload, rows, out)
        return out

    def project_slices(
        self, a1: np.ndarray, a2: np.ndarray
    ) -> tuple[np.ndarray, float]:
        if not self._sparse_kernel:
            return super().project_slices(a1, a2)
        # Sparse x dense products: O(nnz_l·J2) per slice, never densified.
        a1t = np.asarray(a1, dtype=np.float64).T
        a2 = np.asarray(a2, dtype=np.float64)
        projected, norm_squared = [], 0.0
        for m in self._tensor.slice_matrices():
            projected.append(a1t @ np.asarray(m @ a2))
            norm_squared += float(m.multiply(m).sum())
        return np.stack(projected), norm_squared

    def process_parts(
        self, engine, rank, plan, bounds, omegas, config, *, out, stats=None
    ):
        if not self._sparse_kernel:
            return super().process_parts(
                engine, rank, plan, bounds, omegas, config, out=out, stats=stats
            )
        # Historical sparse fan-out: every CSR slice is an independent task.
        return store_parts(
            engine,
            self._slice_task(rank, plan, omegas[0]),
            self._tensor.slice_matrices(),
            [(i, i + 1) for i in range(self.slice_count)],
            out,
        )


# -- the unified compression pipeline ---------------------------------------

def _draw_omegas(
    plan: CompressionPlan,
    bounds: list[tuple[int, int]],
    i2: int,
    rng: "int | np.random.Generator | None",
    *,
    shared: bool,
) -> list[np.ndarray | None]:
    """Pre-draw every batch's test matrix in batch order from one stream.

    These are the exact draws the sequential loop would make, so results
    do not depend on which worker (or pipeline stage) compresses which
    batch.  ``shared=True`` draws once and hands every batch the same
    matrix (results then do not depend on the batching either).
    Non-randomized methods draw nothing.
    """
    if plan.method != "rsvd":
        return [None] * len(bounds)
    gen = default_rng(rng)
    if shared:
        omega = gen.standard_normal((i2, plan.k_eff))
        return [omega] * len(bounds)
    return [gen.standard_normal((i2, plan.k_eff)) for _ in bounds]


def compress_source(
    source: SliceSource,
    rank: int,
    *,
    batch_slices: int | None = None,
    config: DTuckerConfig | None = None,
    engine: "ExecutionBackend | str | None" = None,
    rng: "int | np.random.Generator | None" = None,
    stats: KernelStats | None = None,
) -> SliceSVD:
    """Run the approximation phase on any :class:`SliceSource`.

    This is *the* compression pipeline: ``compress`` and
    ``compress_sparse`` are thin wrappers that construct the matching
    source, and :class:`~repro.core.fit_pipeline.FitPipeline` calls it for
    every fit.  The flow, identical for every source:

    1. plan the method once per slab shape (``source.plan`` →
       :mod:`repro.kernels.compress_plan`),
    2. pre-draw all Gaussian test matrices in batch order,
    3. fan batches out — inline for resident sources (the engine's chunked
       dispatch parallelises within each slab), through a double-buffered
       :class:`~repro.engine.pipeline.Prefetcher` for non-resident ones,
       or as ``(source, start, stop, Ω)`` tasks on the process backend,
    4. write every batch's triples into its rows of one preallocated
       ``(U, s, Vt, norms)`` as it arrives (a lone inline batch keeps the
       arrays it returns) — the factors exist once.

    Parameters
    ----------
    source:
        Any :class:`SliceSource` implementation.
    rank:
        Per-slice truncation rank ``K <= min(I1, I2)``.
    batch_slices:
        Slices per batch (default: the source's preference — whole tensor
        for resident sources, 64 for file/sparse-backed ones).
    config:
        Solver configuration (precision, randomized-SVD knobs, seed,
        execution knobs).
    engine:
        Execution backend spec — a live backend (reused, not closed), a
        name, or ``None`` to resolve from ``config`` and the environment.
    rng:
        Seed or generator for test-matrix draws; overrides ``config.seed``.
    stats:
        Optional :class:`~repro.kernels.stats.KernelStats` that the phase's
        counters merge into when it closes: planner decisions
        (``plan:<method>``), test-matrix draws (``sketch`` — at most one
        per batch, exactly one per source when ``shared_sketch``), buffer
        reuse and shard ``comm:*`` traffic.

    Returns
    -------
    SliceSVD
        The compressed representation, including the exact ``‖X‖_F²``.
    """
    cfg = config if config is not None else DTuckerConfig()
    shape = tuple(int(d) for d in source.shape)
    if len(shape) < 2:
        raise ShapeError(f"source must have order >= 2, got shape {shape}")
    i1, i2 = shape[:2]
    k = check_positive_int(rank, name="rank")
    if k > min(i1, i2):
        raise RankError(f"slice rank {k} exceeds min(I1, I2) = {min(i1, i2)}")
    count = slice_count(shape)
    default_b = source.default_batch_slices
    b = (
        batch_slices
        if batch_slices is not None
        else (default_b if default_b is not None else count)
    )
    b = check_positive_int(b, name="batch_slices")

    plan = source.plan(k, cfg)
    # The final batch may be shorter than ``batch_slices`` (and a single
    # short batch covers the whole tensor when batch_slices > L).
    bounds = [(start, min(start + b, count)) for start in range(0, count, b)]
    omegas = _draw_omegas(
        plan, bounds, i2, rng if rng is not None else cfg.seed,
        shared=source.shared_sketch,
    )
    with backend_scope(engine, config=cfg) as eng, eng.phase(
        source.phase_name
    ) as trace:
        counters = trace.counters
        # One decision (and at most one draw) per batch; shared-sketch
        # sources decide and draw exactly once however many batches run.
        for _ in range(1 if source.shared_sketch else len(bounds)):
            counters.record_miss(f"plan:{plan.method}")
            if plan.method == "rsvd":
                counters.record_miss("sketch")
        # Every batch (or worker task) writes its rows of one preallocated
        # output; a lone inline batch keeps the arrays its kernel returns.
        out = None
        if len(bounds) > 1 or eng.name == "process":
            out = factor_outputs(count, i1, i2, k, plan.compute_dtype)
        filled = eng.name == "process" and source.process_parts(
            eng, k, plan, bounds, omegas, cfg, out=out, stats=counters
        )
        if not filled:
            pool = BufferPool()
            producer = source.batch_producer(plan)

            def compress_batch(payload: Any, bound: tuple[int, int], omega):
                lo, hi = bound
                return source.compress_batch(
                    eng, payload, k, plan, omega, pool,
                    None if out is None else tuple(o[lo:hi] for o in out),
                )

            if source.resident:
                for bound, omega in zip(bounds, omegas):
                    last = compress_batch(producer(bound), bound, omega)
            else:
                # Double-buffered pipeline: the background thread gathers
                # batch b+1 while batch b is factored; the lookahead deepens
                # adaptively (within a 4-batch memory budget) when the IO
                # fails to keep up with the factorization.
                with Prefetcher(producer, bounds, max_depth=4) as pf:
                    for payload, (omega, bound) in zip(pf, zip(omegas, bounds)):
                        last = compress_batch(payload, bound, omega)
                    trace.annotate_io(
                        produce_seconds=pf.produce_seconds,
                        wait_seconds=pf.wait_seconds,
                    )
            counters.bytes_reused += pool.bytes_reused
    if stats is not None:
        stats.merge(counters)

    u, s, vt, slice_norms = last if out is None else out
    return SliceSVD(
        u=u,
        s=s,
        vt=vt,
        shape=shape,
        norm_squared=float(slice_norms.sum()),
        slice_norms_squared=slice_norms,
    )


# -- the closing pass -------------------------------------------------------

def _unfolding(x: np.ndarray, n: int) -> np.ndarray | None:
    """Mode ``n`` of ``x`` as a 2-D view, its unit-stride axis last; ``None`` if a copy.

    Moving mode ``n`` to the front, the remaining modes must merge into one
    axis (each stride the next one's extent times its stride), and either
    the mode or the merged axis must have unit stride.
    """
    rest = [(d, st) for k, (d, st) in enumerate(zip(x.shape, x.strides)) if k != n and d > 1]
    if any(st != d2 * st2 for (_, st), (d2, st2) in zip(rest, rest[1:])):
        return None
    inner = rest[-1][1] if rest else x.itemsize
    if x.itemsize not in (x.strides[n], inner):
        return None
    m = np.moveaxis(x, n, 0).reshape(x.shape[n], -1)
    return m if m.strides[-1] == x.itemsize else m.T


def _mode_product(g: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """``g ×ₙ aᵀ``: contract mode ``n`` of ``g`` with the columns of ``a``."""
    return np.moveaxis(np.tensordot(a, g, axes=(0, n)), 0, n)


def exact_core(
    source: SliceSource, factors: Sequence[np.ndarray], *, norm: bool = True
) -> tuple[np.ndarray, float | None]:
    """The core ``G = X ×₁ A1ᵀ ⋯ ×_N ANᵀ`` and ``‖X‖²``, in one read of ``source``.

    For column-orthonormal factors this is the optimal core, and
    ``‖X‖² − ‖G‖²`` is the exact squared error of the decomposition
    (not the compressed-domain estimate the sweeps track).  Modes are
    contracted and ``‖X‖²`` summed in float64, the mode with the largest
    reduction first.  ``norm=False`` returns ``None`` for ``‖X‖²``, which
    spares the GEMM route below a second sweep over the array.

    A source that holds its tensor as a float64 array (:meth:`SliceSourceBase
    .tensor_view`: in memory or memory-mapped) contracts that first mode
    with one GEMM over the array, when the mode unfolds in place and its
    product fits one compression block: no copy of the tensor, where a
    C-order tensor's slices would be transposed block by block
    (docs/performance.md gives the measured difference).  Any other source
    is read block by block, as the compression reads it, and projected
    onto the slice modes first (:meth:`SliceSourceBase.project_slices`;
    the ``(L, J1, J2)`` stack is no larger than the slice factors).
    """
    shape = tuple(int(d) for d in source.shape)
    facs = [np.asarray(a, dtype=np.float64) for a in factors]
    by_reduction = sorted(range(len(shape)), key=lambda n: facs[n].shape[1] / shape[n])
    x = source.tensor_view()
    first = unfolded = None
    # A float32 array would be widened whole; its blocks are widened instead.
    if x is not None and x.dtype == np.float64:
        for n in by_reduction:
            unfolded = _unfolding(x, n)
            if unfolded is not None:
                first = n
                break
    if first is not None and 8 * x.size // shape[first] * facs[first].shape[1] <= (
        _BLOCK_BYTES
    ):
        g = _mode_product(x, facs[first], first)
        rest = [n for n in by_reduction if n != first]
        norm_squared = float(_vecdot(unfolded, unfolded).sum()) if norm else None
    else:
        proj, norm_squared = source.project_slices(facs[0], facs[1])
        # Slices run in Fortran order over modes 3..N.
        m = len(shape) - 2
        g = proj.reshape(shape[:1:-1] + proj.shape[1:])
        g = g.transpose([m, m + 1, *range(m - 1, -1, -1)])
        rest = [n for n in by_reduction if n >= 2]
    for n in rest:
        g = _mode_product(g, facs[n], n)
    return np.ascontiguousarray(g), norm_squared if norm else None
