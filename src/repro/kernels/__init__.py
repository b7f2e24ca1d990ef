"""Sweep-level kernel layer: cached projections, planned TTM chains, reuse.

This package owns every compressed-domain contraction of the iteration hot
path.  The pieces:

* :mod:`~repro.kernels.contractions` — the per-slice batched-GEMM kernels
  (fused and projection-cached variants), shared with the uncached paths;
* :mod:`~repro.kernels.planner` — memoized greedy TTM-chain ordering used
  by :func:`repro.tensor.products.multi_mode_product` and the workspace;
* :mod:`~repro.kernels.buffers` — named preallocated scratch buffers for
  ``out=``-style GEMMs;
* :mod:`~repro.kernels.workspace` — :class:`SweepWorkspace`, the cache that
  ties them together (dirty-tracked projection stacks, the once-per-sweep
  ``W`` build, chain-prefix reuse);
* :mod:`~repro.kernels.stats` — hit/miss/bytes accounting surfaced through
  :class:`repro.engine.trace.PhaseTrace`;
* :mod:`~repro.kernels.naive` — uncached contractions run through the one
  sweep loop, kept as the bit-identity reference;
* :mod:`~repro.kernels.compress_plan` — the compression planner of the
  approximation phase (the Gram-or-randomized-SVD rule, shared-sketch
  batching, float32 compute path).

Everything the optimized path computes is produced by exactly the
operations the naive path would run on identical inputs, so results are
reproducible bit for bit; see ``docs/performance.md`` for the invalidation
rules and cache economics.
"""

from .buffers import BufferPool
from .compress_plan import (
    CompressionPlan,
    estimate_costs,
    execute_plan,
    factor_nbytes,
    plan_compression,
    plan_from_config,
    slab_norms,
)
from .contractions import (
    mode1_chunk,
    mode1_from_projection_chunk,
    mode2_chunk,
    mode2_from_projection_chunk,
    project_left_chunk,
    project_right_chunk,
    stack_to_tensor,
    w_chunk,
    w_from_projections_chunk,
)
from .naive import naive_als_sweeps
from .planner import plan_ttm_chain
from .stats import KernelStats
from .workspace import SweepWorkspace

__all__ = [
    "BufferPool",
    "CompressionPlan",
    "KernelStats",
    "estimate_costs",
    "execute_plan",
    "factor_nbytes",
    "plan_compression",
    "plan_from_config",
    "slab_norms",
    "SweepWorkspace",
    "naive_als_sweeps",
    "plan_ttm_chain",
    "project_left_chunk",
    "project_right_chunk",
    "w_chunk",
    "mode1_chunk",
    "mode2_chunk",
    "w_from_projections_chunk",
    "mode1_from_projection_chunk",
    "mode2_from_projection_chunk",
    "stack_to_tensor",
]
