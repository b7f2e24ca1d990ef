"""Chunk planning for the ``chunked`` map primitive.

Every hot path in this library iterates over ``L`` independent items (slice
matrices, slice batches, modes).  The engine splits that index range into
contiguous ``[start, stop)`` chunks and dispatches one task per chunk, so
the one plan here decides the parallel granularity of the whole system.

D-Tucker's items share one shape, so the work is uniform by construction:
the plan splits by item count alone.  On more than one worker it oversplits
into several chunks per worker; the backends submit every chunk to their
persistent pool up front, and free workers pull the next chunk as they
finish, which absorbs machine noise the way a work-stealing queue does.

Every plan is ordered, non-overlapping and covers the range exactly, so
task *outputs* are bit-identical under any plan — only the work
distribution changes.
"""

from __future__ import annotations

import logging

from ..exceptions import ShapeError

__all__ = ["plan_chunks"]

logger = logging.getLogger("repro.engine")

#: Chunks-per-worker target of a parallel plan.  Large enough that the
#: tail chunk is a small fraction of one worker's share (worst-case idle
#: time ~= 1/OVERSPLIT of a worker period), small enough that per-task
#: dispatch overhead stays negligible for the slab sizes the solvers ship.
OVERSPLIT = 4


def plan_chunks(
    n_items: int,
    n_workers: int,
    chunk_size: int | None = None,
) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into contiguous ``[start, stop)`` chunks.

    Parameters
    ----------
    n_items:
        Number of independent items (``>= 0``).
    n_workers:
        Worker count the plan should saturate when ``chunk_size`` is not
        given.  One worker gets one chunk (the exact same single batched
        BLAS call as the unchunked code); more workers get
        ``min(n_items, n_workers * OVERSPLIT)`` chunks of nearly equal
        item counts.
    chunk_size:
        Explicit chunk length; the final chunk may be shorter.  When it
        yields fewer chunks than workers the undersubscription is logged,
        since the surplus workers will sit idle for the whole dispatch.

    Returns
    -------
    list of (start, stop)
        Ordered, non-overlapping, covering ``range(n_items)`` exactly;
        empty when ``n_items == 0``.  No chunk is ever empty.
    """
    n = int(n_items)
    if n < 0:
        raise ShapeError(f"n_items must be >= 0, got {n_items}")
    w = int(n_workers)
    if w < 1:
        raise ShapeError(f"n_workers must be >= 1, got {n_workers}")
    if n == 0:
        return []
    if chunk_size is None:
        parts = 1 if w == 1 else min(n, w * OVERSPLIT)
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
