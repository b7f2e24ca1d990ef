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
process-backend descriptor fan-out, and ``PhaseTrace``/``KernelStats``
accounting, uniformly for every source.

Four adapters cover the library's entry points:

* :class:`DenseSource` — an in-memory array (one strided view, no copy);
* :class:`NpySource` — a memory-mapped ``.npy`` file (one cached read-only
  handle per process, batches gathered page-by-page);
* :class:`SparseSource` — a :class:`~repro.sparse.coo.SparseTensor`
  (``O(nnz)`` per-slice randomized SVDs on the default strategy, densified
  batches through the planner otherwise);
* :class:`BlockSource` — a virtual concatenation of same-shape blocks
  along the last (temporal) mode, the streaming extension's view.

Custom adapters (HDF5, zarr, remote shards, …) implement the same small
protocol and inherit the whole solver stack — see ``docs/api.md`` for a
worked example.

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
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..engine import ExecutionBackend, Prefetcher, backend_scope, combine_costs
from ..exceptions import RankError, ShapeError
from ..kernels.buffers import BufferPool
from ..kernels.compress_plan import (
    CompressionPlan,
    execute_plan,
    plan_chunk,
    plan_from_config,
    plan_item_costs,
)
from ..kernels.stats import KernelStats
from ..linalg.svd import sign_fix
from ..tensor.random import default_rng
from ..tensor.slices import slice_count, slice_index_to_multi
from ..validation import as_tensor, check_positive_int
from .config import DTuckerConfig
from .slice_svd import SliceSVD

__all__ = [
    "SliceSource",
    "SourceDescriptor",
    "DenseSource",
    "NpySource",
    "SparseSource",
    "BlockSource",
    "compress_source",
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
    Fortran order over modes ``3..N``), and a picklable ``descriptor()``
    whose ``open()`` re-creates the source inside a worker process.

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

    def descriptor(self) -> "SourceDescriptor": ...


class SourceDescriptor(Protocol):
    """Picklable recipe that re-opens a :class:`SliceSource` in a worker."""

    def open(self) -> SliceSource: ...


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

    def item_costs(
        self, plan: CompressionPlan, start: int, stop: int
    ) -> np.ndarray | None:
        """Per-slice scheduling costs for slices ``start..stop``.

        ``None`` (the default) means "all slices cost the same" — correct
        for dense same-shape slabs, where the scheduler's equal-count split
        is already balanced.  Sources whose per-slice work varies (sparse
        nnz profiles, mixed resident/memmapped blocks) override this; the
        engine then balances chunk boundaries and drains its dynamic queue
        heaviest-first.  Values are relative weights — see
        :mod:`repro.engine.cost`.
        """
        return None

    def batch_costs(
        self, plan: CompressionPlan, bounds: list[tuple[int, int]]
    ) -> np.ndarray | None:
        """Per-batch scheduling costs for descriptor fan-outs.

        Defaults to the per-batch sums of :meth:`item_costs` when a model
        exists, else the batch sizes (the remainder batch then weighs
        proportionally less than the full ones).
        """
        per_batch = []
        uniform = True
        for start, stop in bounds:
            c = self.item_costs(plan, start, stop)
            if c is None:
                per_batch.append(float(stop - start))
            else:
                uniform = False
                per_batch.append(float(np.sum(c)))
        if uniform and len(set(per_batch)) == 1:
            return None
        return np.asarray(per_batch, dtype=float)

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
        costs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Factor one batch payload into ``(u, s, vt, norms)`` stacks.

        ``costs`` are this batch's per-slice scheduling weights (the
        :meth:`item_costs` restriction to the batch range, or ``None``).
        """
        return execute_plan(
            engine, payload, rank, plan, omega=omega, pool=pool, costs=costs
        )

    def process_parts(
        self,
        engine: ExecutionBackend,
        rank: int,
        plan: CompressionPlan,
        bounds: list[tuple[int, int]],
        omegas: list[np.ndarray | None],
        config: DTuckerConfig,
        *,
        stats: KernelStats | None = None,
        trace: Any | None = None,
    ) -> list[tuple] | None:
        """Process-backend fan-out; ``None`` falls back to inline batches.

        Resident sources return ``None``: their batches run through
        :func:`~repro.kernels.compress_plan.execute_plan`, whose ``chunked``
        dispatch already parallelises each slab across worker processes.
        Non-resident sources override this to ship *batch descriptors*
        instead, so no tensor data crosses process boundaries.

        ``stats`` and ``trace`` are the pipeline's accounting objects;
        sources whose fan-out ships data across process/shard boundaries
        (the distributed layer) record ``comm:*`` counters on them.
        """
        return None


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


def _gathered_slice_loop(
    tensor: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Per-slice gather loop — the reference :func:`batched_slice_view`.

    Kept verbatim as the semantic specification of the fancy-index gather
    below (the regression test asserts bit-identity) and as the fallback
    for array-likes that do not support multi-array advanced indexing.
    """
    shape = tensor.shape
    out = np.empty((stop - start, shape[0], shape[1]))
    for offset, l in enumerate(range(start, stop)):
        multi = slice_index_to_multi(l, shape)
        out[offset] = tensor[(slice(None), slice(None), *multi)]
    return out


def batched_slice_view(
    tensor: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Materialise slices ``start..stop`` of ``tensor`` as ``(B, I1, I2)``.

    Works on memory-mapped arrays: only the pages backing the requested
    slices are read.  Slice indices follow the library-wide Fortran order
    over modes ``3..N``.

    For real ndarrays (including memmaps) the whole batch is gathered with
    a single fancy-index expression over the trailing modes — one NumPy
    call instead of a Python loop per slice; other array-likes fall back
    to the per-slice reference loop.  Both produce bit-identical float64
    C-contiguous output.
    """
    shape = tensor.shape
    count = slice_count(shape)
    if not 0 <= start < stop <= count:
        raise ShapeError(
            f"slice range [{start}, {stop}) invalid for {count} slices"
        )
    if len(shape) == 2:
        return np.asarray(tensor, dtype=float)[None, :, :]
    if not isinstance(tensor, np.ndarray):
        return _gathered_slice_loop(tensor, start, stop)
    # The trailing modes form one contiguous block of advanced indices, so
    # the gathered axis lands in place: result shape (I1, I2, B), assigned
    # into a transposed view of the C-contiguous (B, I1, I2) output.
    multi = np.unravel_index(np.arange(start, stop), shape[2:], order="F")
    out = np.empty((stop - start, shape[0], shape[1]))
    np.moveaxis(out, 0, 2)[...] = tensor[(slice(None), slice(None), *multi)]
    return out


def _slice_stack(x: np.ndarray) -> np.ndarray:
    """The ``(L, I1, I2)`` slice-stack view of a validated tensor.

    The :func:`~repro.tensor.slices.to_slices` reshape (Fortran order over
    the trailing modes) without its second validation scan.
    """
    i1, i2 = x.shape[:2]
    return np.moveaxis(x.reshape((i1, i2, -1), order="F"), 2, 0)


# -- adapters ---------------------------------------------------------------

@dataclass(frozen=True)
class DenseDescriptor:
    """Descriptor of a :class:`DenseSource` (ships the array itself)."""

    tensor: np.ndarray

    def open(self) -> "DenseSource":
        return DenseSource(self.tensor)


class DenseSource(SliceSourceBase):
    """An in-memory dense tensor, served as one strided slice-stack view.

    ``read_batch`` returns views into the original array — no copy is made
    for the default whole-tensor batch.  The compression kernels copy the
    view one cache-sized block of slices at a time into a contiguous
    buffer, so the slice layout (strided for order 3, Fortran-ordered
    slices for higher orders) never reaches the factorization: given the
    same test matrix, the factors match those of a ``.npy`` gather of the
    same tensor bit for bit.
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
        self._stack = _slice_stack(x)
        self._shape = tuple(int(d) for d in x.shape)
        self._dtype = x.dtype

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        lo, hi = self._check_range(start, stop)
        return self._stack[lo:hi]

    def descriptor(self) -> DenseDescriptor:
        return DenseDescriptor(self._tensor)


@dataclass(frozen=True)
class NpyDescriptor:
    """Descriptor of an :class:`NpySource` (workers re-map the file)."""

    path: str

    def open(self) -> "NpySource":
        return NpySource(self.path)


def _batch_task(
    task: "tuple[SourceDescriptor, int, int, np.ndarray | None]",
    *,
    rank: int,
    method: str,
    power_iterations: int,
    dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compress slices ``[start, stop)`` of a source inside a worker process.

    Module-level (dispatched via :func:`functools.partial`) so the process
    backend can pickle it.  The worker re-opens the source from its
    descriptor (a ``.npy`` file re-maps through its own cached memmap) and
    reads only its own batch, which runs through the same blockwise kernel
    as an in-process chunk (:func:`~repro.kernels.compress_plan.plan_chunk`).
    Only the compressed ``(u, s, vt, norms)`` travels back.
    """
    descriptor, start, stop, omega = task
    return plan_chunk(
        descriptor.open().read_batch(start, stop),
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
    default).  Batches of consecutive slice indices are *not* contiguous
    on disk in general; the memory map's fancy-index gather reads only the
    touched pages.  One read-only handle is opened per process and reused
    across batches (see :func:`clear_memmap_cache`).
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
        return batched_slice_view(_open_memmap_cached(self._path), lo, hi)

    def descriptor(self) -> NpyDescriptor:
        return NpyDescriptor(self._path)

    def process_parts(
        self, engine, rank, plan, bounds, omegas, config, *, stats=None, trace=None
    ):
        # Batch descriptors fan out across worker processes; pooled buffers
        # must not be used here (shared-memory uploads are cached by array
        # identity), and each worker maps the file itself.
        descriptor = self.descriptor()
        tasks = [
            (descriptor, start, stop, omega)
            for (start, stop), omega in zip(bounds, omegas)
        ]
        return engine.map(
            batch_task_fn(rank, plan), tasks, costs=self.batch_costs(plan, bounds)
        )


@dataclass(frozen=True)
class SparseDescriptor:
    """Descriptor of a :class:`SparseSource` (ships the COO coordinates)."""

    tensor: object

    def open(self) -> "SparseSource":
        return SparseSource(self.tensor)


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


def _stack_slice_parts(
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack per-slice ``(u, s, vt, norm)`` tuples into batch arrays."""
    return (
        np.stack([p[0] for p in parts]),
        np.stack([p[1] for p in parts]),
        np.stack([p[2] for p in parts]),
        np.array([p[3] for p in parts]),
    )


class SparseSource(SliceSourceBase):
    """A :class:`~repro.sparse.coo.SparseTensor`, served per-slice or densified.

    On the default configuration (``strategy="rsvd"``, float64) each CSR
    slice is compressed with the ``O(nnz)`` sparse randomized SVD kernel
    and one test matrix is shared across all slices, exactly the historical
    ``compress_sparse`` behaviour.  Any other strategy or precision
    densifies each batch and routes it through the compression planner —
    sparse inputs gain ``strategy``/``precision`` selection this way, at
    densified-batch cost.
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

    def descriptor(self) -> SparseDescriptor:
        return SparseDescriptor(self._tensor)

    def plan(self, rank: int, config: DTuckerConfig) -> CompressionPlan:
        plan = super().plan(rank, config)
        # The O(nnz) per-slice kernel serves the default configuration (it
        # is the historical compress_sparse path, bit for bit); any explicit
        # strategy/precision choice densifies batches through the planner.
        self._sparse_kernel = (
            config.strategy == "rsvd"
            and config.precision == "float64"
            and not config.exact_slice_svd
        )
        if self._sparse_kernel and (plan.method != "rsvd" or plan.device != "cpu"):
            # No Gram shortcut on sparse data: the sparse kernel is always
            # randomized, whatever the dense dispatch would pick — and it
            # runs on host CSR matrices, so a device placement is moot.
            plan = replace(plan, method="rsvd", device="cpu")
        return plan

    def batch_producer(self, plan):
        if self._sparse_kernel:
            # CSR extraction (a Python-level gather over the COO
            # coordinates) overlaps the previous batch's SVDs.
            return lambda bound: self._tensor.slice_matrices(bound[0], bound[1])
        return super().batch_producer(plan)

    def item_costs(self, plan, start, stop):
        # The per-slice work profile: the O(nnz) kernel costs nnz_l sparse
        # GEMM rows plus a dense QR/SVD tail that every non-empty slice
        # pays; densified batches cost nnz-independent dense flops plus a
        # densification gather proportional to nnz_l.
        nnz = self._tensor.slice_nnz()[int(start):int(stop)].astype(float)
        if self._sparse_kernel:
            k = float(max(1, plan.k_eff))
            base = k * k * float(min(self._shape[:2]))
            return nnz * k + np.where(nnz > 0, base, 1.0)
        dense = plan_item_costs(plan, int(stop) - int(start))
        return combine_costs(dense, nnz, io_weight=1.0)

    def compress_batch(self, engine, payload, rank, plan, omega, pool, costs=None):
        if not self._sparse_kernel:
            return super().compress_batch(
                engine, payload, rank, plan, omega, pool, costs
            )
        i1, i2 = self._shape[:2]
        fn = partial(
            _sparse_slice_svd,
            rank=rank,
            omega=omega,
            power_iterations=plan.power_iterations,
            i1=i1,
            i2=i2,
        )
        return _stack_slice_parts(engine.map(fn, payload, costs=costs))

    def process_parts(
        self, engine, rank, plan, bounds, omegas, config, *, stats=None, trace=None
    ):
        if not self._sparse_kernel:
            # Densified planner path: ship whole dense batches as tasks.
            descriptor = self.descriptor()
            tasks = [
                (descriptor, start, stop, omega)
                for (start, stop), omega in zip(bounds, omegas)
            ]
            return engine.map(
                batch_task_fn(rank, plan),
                tasks,
                costs=self.batch_costs(plan, bounds),
            )
        # Historical sparse fan-out: every CSR slice is an independent task.
        i1, i2 = self._shape[:2]
        fn = partial(
            _sparse_slice_svd,
            rank=rank,
            omega=omegas[0],
            power_iterations=plan.power_iterations,
            i1=i1,
            i2=i2,
        )
        parts = engine.map(
            fn,
            self._tensor.slice_matrices(),
            costs=self.item_costs(plan, 0, self.slice_count),
        )
        return [_stack_slice_parts(parts)]


@dataclass(frozen=True)
class BlockDescriptor:
    """Descriptor of a :class:`BlockSource` (ships the block arrays)."""

    blocks: tuple[np.ndarray, ...]

    def open(self) -> "BlockSource":
        return BlockSource(self.blocks)


class BlockSource(SliceSourceBase):
    """A virtual concatenation of blocks along the last (temporal) mode.

    Because the slice index runs in Fortran order over modes ``3..N``, the
    last mode varies slowest — each block therefore owns a contiguous run
    of slices, and the concatenation never materialises.  This is the
    streaming extension's view of an update: ``BlockSource([block])`` for
    one :meth:`~repro.core.streaming.StreamingDTucker.partial_fit`, or all
    accumulated blocks for a one-shot reference fit.

    Single-block batches that fall inside one block are served as views
    (bit-identical to :class:`DenseSource` over that block); batches that
    straddle block boundaries are concatenated copies.

    Blocks may mix resident arrays and memory-mapped ones (``np.memmap``,
    e.g. ``np.load(..., mmap_mode="r")``); slices backed by a memmap carry
    an IO surcharge in the scheduling cost model so chunk boundaries and
    the dynamic queue account for their page reads.
    """

    #: Relative scheduling-cost surcharge of a memmap-backed slice over a
    #: resident one (a cold page read roughly doubles the slice's cost).
    memmap_io_surcharge: float = 1.0

    def __init__(self, blocks: Sequence[np.ndarray]) -> None:
        mapped = [isinstance(b, np.memmap) for b in blocks]
        arrays = [as_tensor(b, min_order=2, name="block") for b in blocks]
        if not arrays:
            raise ShapeError("BlockSource needs at least one block")
        lead = arrays[0].shape[:-1]
        for b in arrays[1:]:
            if b.ndim != arrays[0].ndim or b.shape[:-1] != lead:
                raise ShapeError(
                    f"all blocks must agree on every mode but the last; "
                    f"got {arrays[0].shape} and {b.shape}"
                )
        self._blocks = tuple(arrays)
        self._mapped = tuple(mapped)
        self._stacks = [_slice_stack(b) for b in arrays]
        self._offsets = np.cumsum([0] + [s.shape[0] for s in self._stacks])
        self._shape = tuple(int(d) for d in lead) + (
            int(sum(b.shape[-1] for b in arrays)),
        )
        self._dtype = arrays[0].dtype

    def item_costs(self, plan, start, stop):
        if not any(self._mapped):
            return None
        per_slice = np.empty(self.slice_count)
        for stack, offset, mapped in zip(
            self._stacks, self._offsets[:-1], self._mapped
        ):
            lo, hi = int(offset), int(offset) + stack.shape[0]
            per_slice[lo:hi] = 1.0 + (self.memmap_io_surcharge if mapped else 0.0)
        return per_slice[int(start):int(stop)]

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        lo, hi = self._check_range(start, stop)
        pieces = []
        for stack, offset in zip(self._stacks, self._offsets[:-1]):
            a = max(lo - int(offset), 0)
            b = min(hi - int(offset), stack.shape[0])
            if a < b:
                pieces.append(stack[a:b])
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)

    def descriptor(self) -> BlockDescriptor:
        return BlockDescriptor(self._blocks)


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
    schedule: str | None = None,
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
       or as picklable batch descriptors on the process backend,
    4. concatenate the per-batch triples into one :class:`SliceSVD`.

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
        Solver configuration (strategy/precision, randomized-SVD knobs,
        seed, execution knobs).
    engine:
        Execution backend spec — a live backend (reused, not closed), a
        name, or ``None`` to resolve from ``config`` and the environment.
    rng:
        Seed or generator for test-matrix draws; overrides ``config.seed``.
    schedule:
        Scheduling-policy override (``"static"``/``"dynamic"``/``"auto"``);
        ``None`` resolves from ``config.schedule`` and the environment.
        The source's :meth:`~SliceSourceBase.item_costs` cost model feeds
        the scheduler either way.
    stats:
        Optional :class:`~repro.kernels.stats.KernelStats` accumulating
        planner decisions (``plan:<method>``) and test-matrix draws
        (``sketch`` — at most one per batch, exactly one per source when
        ``shared_sketch``).

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
    if stats is not None:
        # One decision (and at most one draw) per batch; shared-sketch
        # sources decide and draw exactly once however many batches run.
        for _ in range(1 if source.shared_sketch else len(bounds)):
            stats.record_miss(f"plan:{plan.method}")
            if plan.method == "rsvd":
                stats.record_miss("sketch")

    with backend_scope(engine, schedule=schedule, config=cfg) as eng, eng.phase(
        source.phase_name
    ) as trace:
        parts = None
        if eng.name == "process":
            parts = source.process_parts(
                eng, k, plan, bounds, omegas, cfg, stats=stats, trace=trace
            )
        if parts is None:
            pool = BufferPool()
            producer = source.batch_producer(plan)
            if source.resident:
                parts = [
                    source.compress_batch(
                        eng,
                        producer(bound),
                        k,
                        plan,
                        omega,
                        pool,
                        source.item_costs(plan, bound[0], bound[1]),
                    )
                    for bound, omega in zip(bounds, omegas)
                ]
            else:
                # Double-buffered pipeline: the background thread gathers
                # batch b+1 while batch b is factored; the lookahead deepens
                # adaptively (within a 4-batch memory budget) when the IO
                # fails to keep up with the factorization.
                parts = []
                with Prefetcher(producer, bounds, max_depth=4) as pf:
                    for payload, (omega, bound) in zip(pf, zip(omegas, bounds)):
                        parts.append(
                            source.compress_batch(
                                eng,
                                payload,
                                k,
                                plan,
                                omega,
                                pool,
                                source.item_costs(plan, bound[0], bound[1]),
                            )
                        )
                    trace.annotate_io(
                        produce_seconds=pf.produce_seconds,
                        wait_seconds=pf.wait_seconds,
                    )
            if pool.bytes_reused:
                trace.annotate_cache(bytes_reused=pool.bytes_reused)
        if plan.device != "cpu":
            # The device executor uploads each slab (plus the test matrix)
            # and downloads the factor triples; the byte totals follow
            # exactly from the plan and geometry, so they are tallied here
            # where the phase trace lives.
            itemsize = np.dtype(plan.compute_dtype).itemsize
            h2d = count * i1 * i2 * itemsize
            if plan.method == "rsvd":
                h2d += len(bounds) * i2 * plan.k_eff * itemsize
            d2h = count * (i1 + i2 + 1) * k * itemsize
            trace.annotate_xfer(
                h2d_bytes=int(h2d), d2h_bytes=int(d2h), device=plan.device
            )
            if stats is not None:
                stats.record_transfer("h2d", int(h2d))
                stats.record_transfer("d2h", int(d2h))

    if len(parts) == 1:
        u, s, vt, slice_norms = parts[0]
        slice_norms = np.asarray(slice_norms, dtype=float)
    else:
        u = np.concatenate([p[0] for p in parts], axis=0)
        s = np.concatenate([p[1] for p in parts], axis=0)
        vt = np.concatenate([p[2] for p in parts], axis=0)
        slice_norms = np.concatenate(
            [np.asarray(p[3], dtype=float) for p in parts]
        )
    return SliceSVD(
        u=u,
        s=s,
        vt=vt,
        shape=shape,
        norm_squared=float(slice_norms.sum()),
        slice_norms_squared=slice_norms,
    )
