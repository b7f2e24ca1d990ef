"""Input-adaptive planning for the approximation (compression) phase.

The approximation phase factors ``L`` slice matrices of identical shape
``(I1, I2)``.  Three algorithms can produce the truncated SVD of such a
stack, with very different cost profiles:

* **exact** — batched ``numpy.linalg.svd``: ``O(M·m²)`` per slice with a
  large constant; unbeatable only when the short side is already
  rank-sized (a sketch would span the whole side anyway).
* **gram** — eigendecomposition of the ``m × m`` Gram matrix
  (:func:`repro.linalg.rsvd.batched_svd_via_gram`): one ``M·m²`` GEMM plus
  an ``O(m³)`` eig; wins when one side is much shorter than the other but
  still larger than the sketch size.
* **rsvd** — randomized SVD with a shared test matrix
  (:func:`repro.linalg.rsvd.batched_rsvd`): ``O(M·m·k)`` with
  ``k = rank + oversampling``; wins on squarish slices where ``k ≪ m``.

:func:`plan_compression` picks among them with the flop model of
:func:`estimate_costs` (``strategy="auto"``), reproduces the historical
dispatch for ``strategy="rsvd"``, or honours an explicit ``"gram"`` /
``"exact"`` request.  :func:`execute_plan` then runs the chosen method
through the execution engine: it draws (or receives) *one* Gaussian test
matrix per slab and fans the factorization out in chunks.  Each chunk is
factored in cache-sized blocks of slices, copied once into a contiguous
buffer that the sketch, the norms and the factorization all read; chunks
and blocks are bitwise identical to the unblocked batched call.

The cost constants were calibrated on batched NumPy/LAPACK timings (QR and
eig/SVD flops carry much larger constants than GEMM flops); they only need
to rank the three methods correctly, not predict wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..engine import ExecutionBackend, chunked, concat_chunks
from ..engine.array_api import array_module_of, get_module, resolve_device
from ..exceptions import RankError, ShapeError
from ..linalg.rsvd import batched_rsvd, batched_svd_via_gram
from ..linalg.svd import sign_fix
from ..tensor.random import default_rng
from .buffers import BufferPool
from .stats import KernelStats

__all__ = [
    "CompressionPlan",
    "estimate_costs",
    "estimate_device_costs",
    "plan_compression",
    "plan_from_config",
    "plan_item_costs",
    "execute_plan",
    "factor_nbytes",
    "slab_norms",
]

#: Methods a plan can select.
_METHODS = ("exact", "gram", "rsvd")

# Relative per-flop weights of the building blocks, calibrated against
# batched NumPy timings on (L, I1, I2) stacks.  GEMM flops are the unit.
_C_EIG = 8.0  # eigh on the Gram matrix, per m³
_C_QR = 4.0  # batched QR, per M·k² flop block
_C_SVD_EXACT = 20.0  # full LAPACK SVD tail, per m³
_C_SVD_SMALL = 20.0  # SVD of the small (k, n) projection, per k³

# Device-placement constants (flop-equivalent units, calibrated against the
# same GEMM-flop scale as the method constants above).  An accelerator runs
# the batched GEMM/QR work roughly an order of magnitude faster than the
# host BLAS, but every slab byte must cross PCIe twice (slab up, factors
# down) at an effective cost of tens of host flops per byte — so small
# slabs stay on the CPU under ``strategy="auto"`` and only
# transfer-amortised ones move.
_DEVICE_SPEEDUP = 8.0  # host-flops of work retired per device "flop"
_XFER_FLOPS_PER_BYTE = 24.0  # host-flop-equivalents per transferred byte


@dataclass(frozen=True)
class CompressionPlan:
    """The planner's decision for one ``(L, I1, I2)`` slab.

    Attributes
    ----------
    method:
        Chosen algorithm: ``"exact"``, ``"gram"``, or ``"rsvd"``.
    strategy:
        The strategy that was requested (``"auto"``, ``"rsvd"``, …).
    k_eff:
        Sketch width ``min(rank + oversampling, min(I1, I2))``; the number
        of Gaussian test vectors the rsvd method draws.
    power_iterations:
        Subspace iterations the rsvd method will run.
    compute_dtype:
        Dtype the slab is factored in (norm accumulation stays float64).
    costs:
        Estimated per-slice flop costs for all three methods (for
        introspection and benchmarks), from :func:`estimate_costs`.
    device:
        Where the slab runs: ``"cpu"`` (the historical host path, default)
        or an array-namespace name (``"torch"``, ``"torch-cuda"``,
        ``"cupy"``).  ``strategy="auto"`` places the slab by the calibrated
        transfer + kernel cost model of :func:`estimate_device_costs`;
        explicit strategies honour the requested device directly.
    device_costs:
        Estimated total (transfer + kernel) cost per placement from
        :func:`estimate_device_costs`; empty when only the CPU was ever a
        candidate.
    """

    method: str
    strategy: str
    k_eff: int
    power_iterations: int
    compute_dtype: np.dtype
    costs: dict[str, float] = field(default_factory=dict)
    device: str = "cpu"
    device_costs: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (used by the planner benchmark)."""
        return {
            "method": self.method,
            "strategy": self.strategy,
            "k_eff": self.k_eff,
            "power_iterations": self.power_iterations,
            "compute_dtype": str(np.dtype(self.compute_dtype)),
            "costs": dict(self.costs),
            "device": self.device,
            "device_costs": dict(self.device_costs),
        }


def estimate_costs(
    i1: int,
    i2: int,
    rank: int,
    *,
    oversampling: int = 10,
    power_iterations: int = 1,
) -> dict[str, float]:
    """Per-slice flop estimates for the three compression methods.

    With ``m = min(I1, I2)``, ``M = max(I1, I2)``, ``r = rank``,
    ``k = min(r + oversampling, m)`` and ``p = power_iterations``:

    * ``exact``: ``6·M·m²`` (bidiagonalisation) + ``20·m³`` (SVD tail);
    * ``gram``: ``M·m²`` (Gram GEMM) + ``8·m³`` (eigh) + ``M·m·r``
      (recovering the long-side factor);
    * ``rsvd``: ``(2 + 2p)·M·m·k`` (sketch + power-iteration GEMMs)
      + QR and small-SVD terms in ``k``.

    Only the *ranking* of the three numbers matters; see the module
    docstring for how the constants were calibrated.
    """
    m = float(min(int(i1), int(i2)))
    big = float(max(int(i1), int(i2)))
    r = float(int(rank))
    p = float(max(0, int(power_iterations)))
    k = float(min(int(rank) + max(0, int(oversampling)), int(m)))
    exact = 6.0 * big * m * m + _C_SVD_EXACT * m**3
    gram = big * m * m + _C_EIG * m**3 + big * m * r
    rsvd = (
        (2.0 + 2.0 * p) * big * m * k
        + _C_QR * ((1.0 + p) * big * k * k + p * m * k * k)
        + 6.0 * m * k * k
        + _C_SVD_SMALL * k**3
    )
    return {"exact": exact, "gram": gram, "rsvd": rsvd}


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
    crosses a boundary whenever compressed slices do: device→host
    downloads (:func:`estimate_device_costs`) and shard→coordinator
    shipping in the distributed layer both price traffic with it.
    """
    l = int(n_slices)
    itemsize = int(np.dtype(dtype).itemsize)
    total = l * (int(i1) + int(i2) + 1) * int(rank) * itemsize
    if norms:
        total += l * np.dtype(np.float64).itemsize
    return total


def estimate_device_costs(
    i1: int,
    i2: int,
    rank: int,
    *,
    n_slices: int = 1,
    method_cost: float,
    dtype: "np.dtype | type" = np.float64,
    device: str = "cuda",
) -> dict[str, float]:
    """Total (kernel + transfer) cost of one slab per placement.

    The CPU runs the chosen method at its :func:`estimate_costs` flop cost.
    A device retires the same flops ``_DEVICE_SPEEDUP`` times faster, but
    pays ``_XFER_FLOPS_PER_BYTE`` host-flop-equivalents for every byte of
    the slab shipped up and every byte of the ``(U, s, Vᵀ)`` factors
    shipped back.  The calibration only needs to *rank* the placements:
    transfer-dominated (small or skinny) slabs land on the CPU, compute-
    dominated ones on the device.  Keyed per ``(I1, I2, K, dtype)`` via the
    arguments; ``n_slices`` scales both terms linearly, so the ranking is
    batch-size independent unless transfer and kernel costs cross.
    """
    l = float(max(1, int(n_slices)))
    itemsize = float(np.dtype(dtype).itemsize)
    kernel = l * float(method_cost)
    slab_bytes = l * float(int(i1)) * float(int(i2)) * itemsize
    factor_bytes = l * (int(i1) + int(i2) + 1.0) * float(int(rank)) * itemsize
    xfer = _XFER_FLOPS_PER_BYTE * (slab_bytes + factor_bytes)
    return {
        "cpu": kernel,
        str(device): kernel / _DEVICE_SPEEDUP + xfer,
    }


def plan_compression(
    i1: int,
    i2: int,
    rank: int,
    *,
    strategy: str = "auto",
    precision: str = "float64",
    oversampling: int = 10,
    power_iterations: int = 1,
    exact_slice_svd: bool = False,
    device: str = "cpu",
    n_slices: int = 1,
) -> CompressionPlan:
    """Choose the compression method for slices of shape ``(i1, i2)``.

    ``strategy="rsvd"`` reproduces the historical dispatch exactly (Gram
    when ``min(I1, I2) <= 2·(rank + oversampling)``, randomized SVD
    otherwise), so existing seeds keep their bit-identical results.
    ``strategy="auto"`` consults :func:`estimate_costs`: the exact SVD for
    tall-skinny slices whose short side the sketch would span entirely,
    else the cheaper of Gram and rsvd.  ``"gram"``/``"exact"`` force those
    methods.  ``exact_slice_svd=True`` (the ablation reference knob)
    overrides everything.

    ``device`` names where the slab *may* run (``"cpu"`` — the default and
    the historical behaviour — or a resolved accelerator namespace).  With
    an accelerator offered, ``strategy="auto"`` additionally decides
    *where* via :func:`estimate_device_costs` (``n_slices`` sizes the
    slab); any explicit strategy honours the offered device directly.
    """
    m = min(int(i1), int(i2))
    r = int(rank)
    if r < 1 or r > m:
        raise RankError(f"rank {rank} invalid for slice shape ({i1}, {i2})")
    if precision not in ("float64", "float32"):
        raise ShapeError(f"precision must be 'float64' or 'float32', got {precision!r}")
    over = max(0, int(oversampling))
    k_nom = r + over
    costs = estimate_costs(
        i1, i2, r, oversampling=over, power_iterations=power_iterations
    )
    if exact_slice_svd or strategy == "exact":
        method = "exact"
    elif strategy == "gram":
        method = "gram"
    elif strategy == "rsvd":
        # Historical dispatch: the Gram shortcut when one slice side is
        # already rank-sized, the randomized path otherwise.
        method = "gram" if m <= 2 * k_nom else "rsvd"
    elif strategy == "auto":
        if m <= k_nom:
            # The sketch would span the whole short side: randomization
            # saves nothing, and the exact SVD is the accuracy optimum.
            method = "exact"
        else:
            method = "gram" if costs["gram"] <= costs["rsvd"] else "rsvd"
    else:
        raise ShapeError(
            f"strategy must be one of auto, rsvd, gram, exact; got {strategy!r}"
        )
    compute_dtype = np.dtype(np.float32 if precision == "float32" else np.float64)
    dev = str(device).lower().replace("_", "-")
    if dev in ("", "auto", "numpy"):
        dev = "cpu"
    device_costs: dict[str, float] = {}
    placed = "cpu"
    if dev != "cpu":
        device_costs = estimate_device_costs(
            i1,
            i2,
            rank,
            n_slices=n_slices,
            method_cost=costs[method],
            dtype=compute_dtype,
            device=dev,
        )
        if strategy == "auto":
            placed = min(device_costs, key=device_costs.get)
        else:
            placed = dev
    return CompressionPlan(
        method=method,
        strategy=strategy,
        k_eff=min(k_nom, m),
        power_iterations=max(0, int(power_iterations)),
        compute_dtype=compute_dtype,
        costs=costs,
        device=placed,
        device_costs=device_costs,
    )


def plan_from_config(
    i1: int, i2: int, rank: int, config, *, n_slices: int = 1
) -> CompressionPlan:
    """:func:`plan_compression` with knobs taken from a ``DTuckerConfig``.

    The config's ``device`` spec is resolved here (``"auto"`` honours the
    ``REPRO_DEVICE`` environment variable, then CPU), so the plan's
    ``device`` is always a concrete namespace name.  Requesting a namespace
    that is not installed raises at planning time with an actionable
    message rather than mid-phase.
    """
    module = resolve_device(None, config=config)
    return plan_compression(
        i1,
        i2,
        rank,
        strategy=config.strategy,
        precision=config.precision,
        oversampling=max(0, int(config.oversampling)),
        power_iterations=int(config.power_iterations),
        exact_slice_svd=bool(config.exact_slice_svd),
        # Kept fork: the plan labels the host path "cpu", not by namespace.
        device="cpu" if module.is_numpy else module.name,
        n_slices=n_slices,
    )


def plan_item_costs(plan: CompressionPlan, n_items: int) -> np.ndarray:
    """Per-slice scheduling cost of a plan's chosen method.

    Slices of one slab share a shape, so the per-slice cost is uniform
    *within* the slab — but it differs *across* slabs whose shapes or
    planned methods differ.  Sources that mix slab shapes (block sources,
    out-of-core batches) combine these arrays into one cost model so the
    scheduler balances heavy-method slices against light ones; see
    :mod:`repro.engine.cost`.
    """
    per_slice = float(plan.costs.get(plan.method, 1.0)) or 1.0
    return np.full(int(n_items), per_slice)


def slab_norms(stack: np.ndarray) -> np.ndarray:
    """Per-slice ``‖X_l‖_F²`` with float64 accumulation regardless of dtype."""
    if stack.dtype == np.float64:
        return np.einsum("lij,lij->l", stack, stack, optimize=True)
    return np.einsum("lij,lij->l", stack, stack, optimize=True, dtype=np.float64)


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


def _blockwise(
    stack: np.ndarray,
    factor,
    *,
    dtype: "np.dtype | type | None",
    block: int | None,
    buffer: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run ``factor`` over ``stack`` block by block into ``(U, s, Vt, norms)``.

    Every block of ``block`` slices (default :func:`block_slices`) is copied
    once into ``buffer`` (allocated when ``None``), cast to ``dtype`` on the
    way (default: float32 stays, anything else becomes float64).  Batched
    LAPACK/BLAS are per-matrix loops, so the factors do not depend on where
    the block boundaries fall; the norms accumulate in float64 on the same
    contiguous block.
    """
    l, i1, i2 = stack.shape
    if dtype is None:
        dtype = np.float32 if stack.dtype == np.float32 else np.float64
    if buffer is None:
        step = block if block is not None else block_slices(i1, i2, dtype)
        buffer = np.empty((min(step, l), i1, i2), dtype=dtype)
    step = buffer.shape[0]
    parts = []
    for start in range(0, l, step):
        blk = buffer[: min(step, l - start)]
        np.copyto(blk, stack[start : start + len(blk)], casting="unsafe")
        parts.append((*factor(blk), slab_norms(blk)))
    return parts[0] if len(parts) == 1 else concat_chunks(parts)


def _exact_svd(blk: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    am = array_module_of(blk)
    u, s, vt = am.svd(blk, full_matrices=False)
    u, vt = sign_fix(u[:, :, :rank], vt[:, :rank, :])
    return u, am.ascontiguousarray(s[:, :rank]), vt


def plan_exact_chunk(
    stack: np.ndarray,
    *,
    rank: int,
    dtype: "np.dtype | type | None" = None,
    block: int | None = None,
    buffer: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact truncated SVD of one chunk of the slice stack, block by block.

    ``dtype``, ``block`` and ``buffer`` set the compute dtype, the slices
    per block and the reusable block buffer (see :func:`_blockwise`).
    """
    return _blockwise(
        stack, partial(_exact_svd, rank=rank),
        dtype=dtype, block=block, buffer=buffer,
    )


def plan_gram_chunk(
    stack: np.ndarray,
    *,
    rank: int,
    dtype: "np.dtype | type | None" = None,
    block: int | None = None,
    buffer: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gram-side truncated SVD of one chunk of the slice stack, block by block."""
    return _blockwise(
        stack, partial(batched_svd_via_gram, rank=rank),
        dtype=dtype, block=block, buffer=buffer,
    )


def plan_rsvd_chunk(
    stack: np.ndarray,
    *,
    rank: int,
    omega: np.ndarray,
    power_iterations: int,
    dtype: "np.dtype | type | None" = None,
    block: int | None = None,
    buffer: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Randomized truncated SVD of one chunk, block by block.

    Every block is sketched with the slab's one shared test matrix
    ``omega`` (``blk @ Ω`` on the contiguous block buffer), so the chunking
    and the blocking change no bit of the factors.
    """
    return _blockwise(
        stack,
        partial(
            batched_rsvd, rank=rank, power_iterations=power_iterations,
            test_matrix=omega,
        ),
        dtype=dtype, block=block, buffer=buffer,
    )


def _execute_plan_device(
    stack: np.ndarray,
    rank: int,
    plan: CompressionPlan,
    *,
    rng: "int | np.random.Generator | None" = None,
    omega: "np.ndarray | None" = None,
    stats: KernelStats | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run a device-placed plan inline: upload the slab, factor, download.

    The per-slice norms accumulate on the host slab in float64 *before* the
    upload (same code as the CPU path); the factorization itself runs
    through the batched functions of :mod:`repro.linalg.rsvd` on the
    plan's device.  Transfers are tallied on ``stats`` as ``xfer:h2d`` /
    ``xfer:d2h``.  Factors return as host arrays, so the resulting
    :class:`~repro.core.slice_svd.SliceSVD` is host-resident either way.
    """
    am = get_module(plan.device)
    l, i1, i2 = stack.shape
    norms = slab_norms(stack)
    dev = am.to_device(stack)
    if stats is not None:
        stats.record_transfer("h2d", stack.nbytes)
    if plan.method == "exact":
        u, s, vt = _exact_svd(dev, rank)
    elif plan.method == "gram":
        u, s, vt = batched_svd_via_gram(dev, rank)
    else:
        if omega is None:
            gen = default_rng(rng)
            omega = gen.standard_normal((i2, plan.k_eff))
        om = np.asarray(omega, dtype=plan.compute_dtype)
        if om.shape != (i2, plan.k_eff):
            raise ShapeError(
                f"omega must have shape ({i2}, {plan.k_eff}), got {om.shape}"
            )
        if stats is not None:
            stats.record_miss("sketch")
        om_dev = am.to_device(om)
        if stats is not None:
            stats.record_transfer("h2d", om.nbytes)
        y = am.matmul(dev, om_dev)
        u, s, vt = batched_rsvd(
            dev, rank, power_iterations=plan.power_iterations, sketch=y
        )
    u, s, vt = am.from_device(u), am.from_device(s), am.from_device(vt)
    if stats is not None:
        for arr in (u, s, vt):
            stats.record_transfer("d2h", arr.nbytes)
    return u, np.ascontiguousarray(s), vt, norms


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
    chunk_size: int | None = None,
    costs: "np.ndarray | None" = None,
    schedule: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run a :class:`CompressionPlan` on one ``(L, I1, I2)`` slab.

    Parameters
    ----------
    engine:
        Live execution backend; the factorization fans out in chunks along
        the slice axis (bitwise identical to the unchunked batched call,
        because every batched LAPACK/BLAS primitive is a per-matrix loop).
    stack:
        The slab, in any memory layout (a strided slice view is fine).  No
        whole-slab copy is made: each chunk copies one block of slices at
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
    costs:
        Optional per-slice scheduling costs (e.g. nnz from a sparse
        source, or :func:`plan_item_costs` combined with IO weights);
        ``None`` lets the scheduler treat slices as uniform — correct
        here, since one slab's slices share a shape.
    schedule:
        Scheduling-policy override forwarded to :func:`~repro.engine
        .chunked` (``None`` uses the engine's configured policy).

    Returns
    -------
    tuple
        ``(U, s, Vt, norms)`` — factors in ``plan.compute_dtype``, per-slice
        squared norms always in float64.
    """
    a = np.asarray(stack)
    if a.ndim != 3:
        raise ShapeError(f"stack must be 3-D (L, I1, I2), got shape {a.shape}")
    l, i1, i2 = a.shape
    if stats is not None:
        stats.record_miss(f"plan:{plan.method}")
    if plan.device != "cpu":
        return _execute_plan_device(
            np.asarray(a, dtype=plan.compute_dtype), rank, plan,
            rng=rng, omega=omega, stats=stats,
        )
    dtype = plan.compute_dtype
    block = block_slices(i1, i2, dtype)
    broadcast: dict[str, object] = dict(rank=int(rank), dtype=dtype, block=block)
    if pool is not None and engine.name == "serial":
        # Serial chunks run one after another on this thread, so they can
        # share one pooled block buffer; parallel chunks allocate their own.
        broadcast["buffer"] = pool.take(
            "compress:block", (min(block, l), i1, i2), dtype
        )
    if plan.method == "exact":
        kernel = plan_exact_chunk
    elif plan.method == "gram":
        kernel = plan_gram_chunk
    elif plan.method == "rsvd":
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
        kernel = plan_rsvd_chunk
        broadcast.update(omega=om, power_iterations=plan.power_iterations)
    else:  # pragma: no cover - plan construction guards this
        raise ShapeError(f"unknown plan method {plan.method!r}")
    return chunked(
        engine,
        kernel,
        l,
        slabs=(a,),
        broadcast=broadcast,
        chunk_size=chunk_size,
        reduce=concat_chunks,
        costs=costs,
        schedule=schedule,
    )
