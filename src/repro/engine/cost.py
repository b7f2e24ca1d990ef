"""Per-item cost models for cost-aware chunk scheduling.

The engine's chunk planner historically split every item range into
equal-count chunks — correct, but oblivious to how unevenly the work is
distributed over items.  After the adaptive-compression and unified-source
redesigns the per-item work is genuinely heterogeneous: sparse slices vary
in nnz, block sources mix resident and memory-mapped slabs, and the
compression planner picks different algorithms per slab shape.  A
:class:`CostModel` lets the layer that *knows* the distribution hand the
scheduler per-item cost estimates; :func:`repro.engine.chunking.plan_chunks`
then balances chunk boundaries over the cost prefix sums, and the dynamic
executor orders its oversplit queue heaviest-first.

Costs are **relative weights**, not wall-clock predictions: only ratios
between items matter, so flop counts, nnz, or byte counts all work
unscaled.  Mixing sources of different units in one model is the caller's
responsibility (see :func:`combine_costs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..exceptions import ShapeError

__all__ = [
    "CostModel",
    "UniformCost",
    "ArrayCost",
    "CommCost",
    "as_cost_array",
    "combine_costs",
]


class CostModel(Protocol):
    """Anything that can estimate per-item costs for a work range.

    Implementations return a non-negative float array of length
    ``n_items``; entry ``i`` is the relative cost of item ``i``.  The
    scheduler treats the values as weights — only their ratios matter.
    A model is recognised by its ``item_costs`` method alone (duck typing,
    no ``isinstance`` check against this protocol).
    """

    def item_costs(self, n_items: int) -> np.ndarray: ...


@dataclass(frozen=True)
class UniformCost:
    """Every item costs the same ``weight`` (the no-information model).

    Cost-balanced planning over a uniform model reproduces the historical
    equal-count split exactly; the weight's magnitude only matters when the
    model is combined with a non-uniform one (e.g. a flop base cost plus a
    per-item IO surcharge).
    """

    weight: float = 1.0

    def item_costs(self, n_items: int) -> np.ndarray:
        return np.full(int(n_items), float(self.weight))


@dataclass(frozen=True)
class ArrayCost:
    """Explicit per-item costs, e.g. nnz per sparse slice.

    The array is validated lazily against the requested length so one model
    can be built once per source and reused for any sub-range via
    :meth:`slice`.
    """

    costs: np.ndarray

    def item_costs(self, n_items: int) -> np.ndarray:
        c = np.asarray(self.costs, dtype=float)
        if c.ndim != 1 or c.shape[0] != int(n_items):
            raise ShapeError(
                f"cost model covers {c.shape} items, scheduler asked for {n_items}"
            )
        return c

    def slice(self, start: int, stop: int) -> "ArrayCost":
        """The model restricted to items ``start..stop`` (for batch fan-out)."""
        return ArrayCost(np.asarray(self.costs, dtype=float)[int(start):int(stop)])


@dataclass(frozen=True)
class CommCost:
    """Per-item communication surcharge in compute-flop units.

    ``bytes_per_item`` is how many bytes item ``i`` ships across a shard
    boundary (factor products, broadcast sketches — never raw slabs);
    ``flops_per_byte`` converts a shipped byte into the scheduler's
    flop-unit scale so a communication model composes with a flop-count
    compute model via :func:`combine_costs`.  The distributed coordinator
    builds one per shard fan-out so ``schedule="auto"`` balances shards by
    compute *plus* comm cost, not compute alone.
    """

    bytes_per_item: np.ndarray
    flops_per_byte: float = 1.0

    def item_costs(self, n_items: int) -> np.ndarray:
        b = np.asarray(self.bytes_per_item, dtype=float)
        if b.ndim == 0:
            b = np.full(int(n_items), float(b))
        if b.ndim != 1 or b.shape[0] != int(n_items):
            raise ShapeError(
                f"comm model covers {b.shape} items, scheduler asked for {n_items}"
            )
        return b * float(self.flops_per_byte)


def as_cost_array(
    costs: "CostModel | np.ndarray | list | None", n_items: int
) -> np.ndarray | None:
    """Normalise a cost spec into a validated float array (or ``None``).

    Accepts ``None`` (no model — equal-count planning), a
    :class:`CostModel` (anything with an ``item_costs`` method), or a raw
    array-like of per-item weights.  Raises
    :class:`~repro.exceptions.ShapeError` on length mismatch, negative or
    non-finite entries; an all-zero model degrades to ``None`` (no
    information) rather than producing degenerate partitions.
    """
    if costs is None:
        return None
    n = int(n_items)
    item_costs = getattr(costs, "item_costs", None)
    if item_costs is not None:
        arr = np.asarray(item_costs(n), dtype=float)
    else:
        arr = np.asarray(costs, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ShapeError(
            f"costs must be a 1-D array of length {n}, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ShapeError("costs contain non-finite entries")
    if (arr < 0).any():
        raise ShapeError("costs must be non-negative")
    if not arr.any():
        return None
    return arr


def combine_costs(
    compute: np.ndarray | None, io: np.ndarray | None, *, io_weight: float = 1.0
) -> np.ndarray | None:
    """Fold an IO cost component into a compute cost model.

    Both arrays must already share a unit (the caller scales ``io`` by
    ``io_weight`` to express how expensive a byte read is relative to one
    compute flop-unit).  Either side may be ``None``.
    """
    if io is None:
        return compute
    scaled = np.asarray(io, dtype=float) * float(io_weight)
    if compute is None:
        return scaled
    return np.asarray(compute, dtype=float) + scaled
