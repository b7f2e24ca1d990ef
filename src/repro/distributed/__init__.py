"""Distributed sharded fitting: shard-aware sources + a reduce-only coordinator.

The tensor lives as a directory of blocks (``.npy`` files, zarr/HDF5
groups, or any open :class:`~repro.core.sources.SliceSource`);
:class:`ShardedSource` stitches them into one logical tensor along the
temporal mode and :class:`ShardCoordinator` fits it so that only the
stacked ``[U_lΣ_l]``/``[Σ_lV_lᵀ]`` factor products — never raw slabs —
cross a shard boundary.  ``comm:`` counters on
:class:`~repro.kernels.stats.KernelStats` and
:class:`~repro.engine.trace.PhaseTrace` account for every byte that does.
See ``docs/distributed.md``.
"""

from .coordinator import ShardCoordinator, distributed_als_sweeps
from .sharded import (
    GroupSource,
    ShardedSource,
    SliceSpanSource,
    partition_extent,
    write_manifest,
    write_npy_shards,
)

__all__ = [
    "GroupSource",
    "ShardCoordinator",
    "ShardedSource",
    "SliceSpanSource",
    "distributed_als_sweeps",
    "partition_extent",
    "write_manifest",
    "write_npy_shards",
]
