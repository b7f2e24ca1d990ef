"""Chunk planning for the ``chunked`` map primitive.

Every hot path in this library iterates over ``L`` independent items (slice
matrices, slice batches, modes).  The engine splits that index range into
contiguous ``[start, stop)`` chunks and dispatches one task per chunk, so
the planning policy in one place decides the parallel granularity of the
whole system.

Two policies live here:

* :func:`plan_chunks` — the **static** policy: one chunk per worker.  With
  a cost model the boundaries balance the per-chunk cost sums instead of
  the per-chunk item counts, so a worker holding the heavy slices gets
  fewer of them.
* :func:`plan_dynamic_chunks` — the **dynamic** policy: oversplit into
  several (cost-balanced) chunks per worker.  The backends submit all
  chunks to their persistent pool up front; free workers pull the next
  chunk as they finish, which absorbs both cost-model error and machine
  noise the way a work-stealing queue does.

Both policies produce ordered, non-overlapping chunks covering the range
exactly, so task *outputs* are bit-identical under any plan — only the
work distribution changes.
"""

from __future__ import annotations

import logging

import numpy as np

from ..exceptions import ShapeError
from .cost import as_cost_array

__all__ = ["plan_chunks", "plan_dynamic_chunks", "chunk_costs"]

logger = logging.getLogger("repro.engine")

#: Chunks-per-worker target of the dynamic policy.  Large enough that the
#: tail chunk is a small fraction of one worker's share (worst-case idle
#: time ~= 1/OVERSPLIT of a worker period), small enough that per-task
#: dispatch overhead stays negligible for the slab sizes the solvers ship.
OVERSPLIT = 4


def _balanced_bounds(
    costs: np.ndarray, parts: int
) -> list[tuple[int, int]]:
    """Split ``range(len(costs))`` into ``parts`` contiguous cost-balanced chunks.

    Greedy prefix walk: each chunk accumulates items until its cost reaches
    the average of the *remaining* cost over the *remaining* chunks, while
    always leaving at least one item per unmade chunk.  Every chunk is
    non-empty, the heaviest-chunk excess is bounded by one item's cost, and
    a uniform cost model reproduces the equal-count ``divmod`` split of
    :func:`plan_chunks` exactly.
    """
    n = int(costs.shape[0])
    plan: list[tuple[int, int]] = []
    start = 0
    remaining = float(costs.sum())
    for part in range(parts):
        chunks_left = parts - part
        if chunks_left == 1:
            plan.append((start, n))
            break
        target = remaining / chunks_left
        stop = start
        acc = 0.0
        # Cap so every later chunk can still receive one item.
        cap = n - (chunks_left - 1)
        while stop < cap and (acc < target or stop == start):
            acc += float(costs[stop])
            stop += 1
        plan.append((start, stop))
        remaining -= acc
        start = stop
    return plan


def chunk_costs(
    plan: list[tuple[int, int]], costs: np.ndarray
) -> np.ndarray:
    """Total cost per planned chunk (used for heaviest-first ordering)."""
    prefix = np.concatenate(([0.0], np.cumsum(np.asarray(costs, dtype=float))))
    return np.array([prefix[stop] - prefix[start] for start, stop in plan])


def _validated(n_items: int, n_workers: int) -> tuple[int, int]:
    n = int(n_items)
    if n < 0:
        raise ShapeError(f"n_items must be >= 0, got {n_items}")
    w = int(n_workers)
    if w < 1:
        raise ShapeError(f"n_workers must be >= 1, got {n_workers}")
    return n, w


def plan_chunks(
    n_items: int,
    n_workers: int,
    chunk_size: int | None = None,
    *,
    costs: "np.ndarray | None" = None,
) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into contiguous ``[start, stop)`` chunks.

    Parameters
    ----------
    n_items:
        Number of independent items (``>= 0``).
    n_workers:
        Worker count the plan should saturate when ``chunk_size`` is not
        given: the range is split into ``min(n_workers, n_items)`` chunks —
        nearly equal item counts without a cost model, nearly equal cost
        sums with one — so a serial backend gets exactly one chunk (and
        hence the exact same single batched BLAS call as the unchunked
        code).
    chunk_size:
        Explicit chunk length; the final chunk may be shorter.  ``None``
        selects the worker-count policy above.  An explicit size overrides
        the cost model (the caller pinned the granularity); when it yields
        fewer chunks than workers the undersubscription is logged, since
        the surplus workers will sit idle for the whole dispatch.
    costs:
        Optional per-item cost weights (see :mod:`repro.engine.cost`);
        ignored when ``chunk_size`` is given.

    Returns
    -------
    list of (start, stop)
        Ordered, non-overlapping, covering ``range(n_items)`` exactly;
        empty when ``n_items == 0``.  No chunk is ever empty.
    """
    n, w = _validated(n_items, n_workers)
    if n == 0:
        return []
    if chunk_size is None:
        parts = min(w, n)
        c = as_cost_array(costs, n)
        if c is not None and parts > 1:
            return _balanced_bounds(c, parts)
        base, extra = divmod(n, parts)
        plan = []
        start = 0
        for i in range(parts):
            stop = start + base + (1 if i < extra else 0)
            plan.append((start, stop))
            start = stop
        return plan
    size = int(chunk_size)
    if size < 1:
        raise ShapeError(f"chunk_size must be >= 1, got {chunk_size}")
    plan = [(start, min(start + size, n)) for start in range(0, n, size)]
    if len(plan) < w:
        logger.warning(
            "chunk_size=%d yields %d chunk(s) for %d items but the backend "
            "has %d workers; %d worker(s) will idle — lower chunk_size or "
            "let the engine plan (chunk_size=None)",
            size, len(plan), n, w, w - len(plan),
        )
    return plan


def plan_dynamic_chunks(
    n_items: int,
    n_workers: int,
    *,
    costs: "np.ndarray | None" = None,
    chunk_size: int | None = None,
    oversplit: int = OVERSPLIT,
) -> list[tuple[int, int]]:
    """Oversplit plan for dynamic (queue-drained) execution.

    The range is split into up to ``n_workers * oversplit`` chunks — cost
    balanced when a model is available — so the pool queue always holds
    spare tasks for whichever worker finishes first.  The effective chunk
    size is therefore auto-tuned from the item count, the worker count and
    the cost distribution; an explicit ``chunk_size`` pins the granularity
    instead (same contract as :func:`plan_chunks`).

    A single-worker backend degrades to one chunk, reproducing the static
    serial plan (and its single batched BLAS call) exactly.
    """
    n, w = _validated(n_items, n_workers)
    if n == 0:
        return []
    if chunk_size is not None:
        return plan_chunks(n, w, chunk_size)
    if w == 1:
        return [(0, n)]
    parts = min(n, w * max(1, int(oversplit)))
    c = as_cost_array(costs, n)
    if c is not None and parts > 1:
        return _balanced_bounds(c, parts)
    base, extra = divmod(n, parts)
    plan = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        plan.append((start, stop))
        start = stop
    return plan
