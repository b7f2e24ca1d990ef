"""D-Tucker for sparse tensors — the paper's stated future-work extension.

The slice representation makes the extension natural: *only the
approximation phase touches the data*.  Here each sparse slice
``X_l ∈ R^{I1×I2}`` is compressed with a randomized SVD whose products are
sparse-matrix × dense-matrix (cost ``O(nnz_l · (K + p))`` instead of
``O(I1·I2·(K+p))``), producing exactly the same
:class:`~repro.core.slice_svd.SliceSVD` object the dense pipeline builds.
The initialization and iteration phases then run unchanged — they never see
the original tensor.

For very sparse inputs this is asymptotically cheaper than densifying:
compression scales with ``nnz``, not with ``Π I``.

Both entry points are thin adapters over the unified source pipeline: the
tensor is wrapped in a :class:`~repro.core.sources.SparseSource` and handed
to :func:`~repro.core.sources.compress_source` (for :func:`compress_sparse`)
or a :class:`~repro.core.fit_pipeline.FitPipeline` (for
:func:`sparse_dtucker`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..engine import ExecutionBackend
from ..kernels.stats import KernelStats
from ..sparse.coo import SparseTensor
from ..validation import check_ranks
from .config import DTuckerConfig
from .fit_pipeline import FitPipeline
from .result import TuckerResult
from .slice_svd import SliceSVD
from .sources import SparseSource, compress_source

__all__ = ["compress_sparse", "sparse_dtucker", "SparseDTuckerFit"]


def compress_sparse(
    tensor: SparseTensor,
    rank: int,
    *,
    batch_slices: int = 64,
    config: DTuckerConfig | None = None,
    engine: ExecutionBackend | str | None = None,
    rng: int | np.random.Generator | None = None,
    stats: KernelStats | None = None,
) -> SliceSVD:
    """Approximation phase on a sparse tensor: per-slice randomized SVDs.

    Equivalent to ``compress_source(SparseSource(tensor), rank, ...)`` —
    kept as a convenience entry point.

    Parameters
    ----------
    tensor:
        COO sparse tensor of order ``>= 2``.
    rank:
        Per-slice truncation rank ``K <= min(I1, I2)``.
    batch_slices:
        Slices extracted and compressed per pipeline round (serial/thread
        backends): CSR extraction of batch ``b+1`` overlaps the SVDs of
        batch ``b`` through a double-buffered prefetcher, and at most two
        batches of CSR slices are alive at once.  The process backend
        materialises all slices and fans them out as independent tasks.
    config:
        Solver configuration; in float64 every matrix product is sparse ×
        dense, so each slice costs ``O(nnz_l · (K + p))``.
        ``precision="float32"`` densifies each batch and routes it through
        the compression planner instead.
    engine:
        Execution backend spec; slices are independent tasks mapped over
        the backend's workers.
    rng:
        Seed or generator (one Gaussian test matrix shared across slices,
        as in the dense batched path); overrides ``config.seed``.
    stats:
        Optional :class:`~repro.kernels.stats.KernelStats`; the single
        shared test-matrix draw is recorded as one ``sketch`` miss.

    Returns
    -------
    SliceSVD
        Identical in structure to the dense pipeline's output, including
        the exact ``‖X‖_F²``.
    """
    return compress_source(
        SparseSource(tensor),
        rank,
        batch_slices=batch_slices,
        config=config,
        engine=engine,
        rng=rng,
        stats=stats,
    )


class SparseDTuckerFit:
    """Result bundle of :func:`sparse_dtucker` (mirrors ``DTucker`` attrs)."""

    def __init__(
        self,
        result: TuckerResult,
        slice_svd: SliceSVD,
        timings,
        history: list[float],
        converged: bool,
        n_iters: int,
        kernel_stats=None,
    ) -> None:
        self.result_ = result
        self.slice_svd_ = slice_svd
        self.timings_ = timings
        self.history_ = history
        self.converged_ = converged
        self.n_iters_ = n_iters
        self.trace_ = result.trace_
        #: Sweep-workspace cache accounting for the iteration phase
        #: (:class:`repro.kernels.stats.KernelStats`).
        self.kernel_stats_ = kernel_stats


def sparse_dtucker(
    tensor: SparseTensor,
    ranks: int | Sequence[int],
    *,
    slice_rank: int | None = None,
    seed: int | None = None,
    config: DTuckerConfig | None = None,
    engine: ExecutionBackend | str | None = None,
) -> SparseDTuckerFit:
    """D-Tucker on a sparse tensor: sparse compression + compressed ALS.

    Parameters mirror :class:`repro.core.dtucker.DTucker`; slice modes are
    fixed to ``(0, 1)`` (permute the COO coordinates first if needed).

    Returns
    -------
    SparseDTuckerFit
        With the fitted :class:`TuckerResult`, the reusable compressed
        representation, per-phase timings, and iteration metadata.
    """
    from dataclasses import replace

    cfg = config if config is not None else DTuckerConfig()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    rank_tuple = check_ranks(ranks, tensor.shape)
    pipeline = FitPipeline(
        rank_tuple,
        slice_rank=slice_rank,
        config=cfg,
        engine=engine,  # type: ignore[arg-type]  # specs resolve per call
        strict_slice_rank=False,
    )
    fit = pipeline.fit(SparseSource(tensor))
    return SparseDTuckerFit(
        result=fit.result,
        slice_svd=fit.slice_svd,
        timings=fit.timings,
        history=fit.history,
        converged=fit.converged,
        n_iters=fit.n_iters,
        kernel_stats=fit.kernel_stats,
    )
