"""Dyadic range index: a segment tree of pre-merged slice-group SVD bases.

A served time-range query ``[t0, t1)`` needs the leading left singular
vectors of the range's stacked scaled blocks — mode-1 blocks
``U_l · diag(s_l)`` and mode-2 blocks ``V_l · diag(s_l)`` for every slice
``l`` in the range.  Recomputing that from the raw per-slice SVDs costs
O(t1 − t0) per query.  This module trades that for O(log T): the temporal
axis is covered by a segment tree of aligned power-of-two *nodes*, each
node caching an exact width-reduced basis of its segment's stacked
blocks, so any query range decomposes into at most ``2·log2(T)`` canonical
segments whose cached bases are recombined by one small stacked SVD.

Exactness
---------
A node's basis is ``P = U · diag(σ)`` from the thin SVD of the horizontal
stack of its children's bases.  Since ``P Pᵀ = B Bᵀ`` for the segment's
raw stacked blocks ``B`` (no truncation happens: the SVD keeps all
``min(rows, width)`` triplets), the Gram matrix any downstream
``leading_left_singular_vectors`` call sees is *identical* whether built
from cached node bases or from the raw blocks.  The spectrum is therefore
preserved exactly; only column count shrinks.  This is what makes serving
with and without the persisted index produce the same factors — the
dyadic decomposition itself (not the caching) is the canonical range
arithmetic, and caching layers never change which operations run.

Determinism
-----------
Node bases are deterministic functions of the slice payloads, so a node
computed lazily in one process is bit-identical to the same node loaded
from a persisted ``index/`` payload written by another (``np.save``
round-trips float64 exactly).  Concurrent readers may race to compute the
same node; both arrive at identical bits and the first write wins.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

import numpy as np

from ..core.slice_svd import SliceSVD
from ..exceptions import ShapeError
from ..linalg.svd import sign_fix

__all__ = [
    "dyadic_cover",
    "auto_min_span",
    "merge_scaled_bases",
    "slices_per_step",
    "RangeIndex",
]


def slices_per_step(shape: tuple[int, ...]) -> int:
    """Slices per temporal step for a stored-orientation tensor shape.

    Slices are ordered with the last mode varying slowest, so one step of
    the last (temporal) mode owns a contiguous block of
    ``prod(shape[2:-1])`` slices.
    """
    count = 1
    for dim in shape[2:-1]:
        count *= int(dim)
    return count


def dyadic_cover(t0: int, t1: int) -> list[tuple[int, int]]:
    """Canonical cover of ``[t0, t1)`` by aligned power-of-two segments.

    Greedy left-to-right: at position ``t`` take the largest span ``2^k``
    with ``t % 2^k == 0`` that still fits inside the range.  Yields at most
    ``2·log2(t1 − t0) + 2`` segments, each satisfying the segment-tree
    alignment invariant ``start % span == 0``.
    """
    if not (0 <= t0 < t1):
        raise ValueError(f"need 0 <= t0 < t1, got [{t0}, {t1})")
    segments: list[tuple[int, int]] = []
    t = t0
    while t < t1:
        span = 1
        while t % (span * 2) == 0 and t + span * 2 <= t1:
            span *= 2
        segments.append((t, span))
        t += span
    return segments


def auto_min_span(i1: int, i2: int, rank: int, per_step: int) -> int:
    """Smallest worthwhile node span for the given slice geometry.

    A node basis has at most ``max(i1, i2)`` columns; merging only *pays*
    once the segment's raw stacked width ``rank · per_step · span`` exceeds
    that, so smaller segments are served straight from the raw scaled
    blocks.  Returns the smallest power of two whose stacked width reaches
    ``max(i1, i2)``, never below 2.
    """
    target = max(int(i1), int(i2))
    width = max(1, int(rank) * int(per_step))
    span = 1
    while width * span < target:
        span *= 2
    return max(2, span)


def merge_scaled_bases(blocks: list[np.ndarray]) -> np.ndarray:
    """Exact width-reduced basis of horizontally stacked scaled bases.

    Returns ``U · diag(σ)`` from the thin SVD of ``hstack(blocks)`` with
    the deterministic :func:`sign_fix` column convention.  The result
    spans the same column space with the same Gram matrix as the input
    stack (``P Pᵀ = B Bᵀ``), in at most ``rows`` columns.  A non-finite
    entry (a corrupt stored payload) raises :class:`ShapeError`, where the
    SVD would fail untyped.
    """
    stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    if not np.isfinite(stacked).all():
        raise ShapeError("stored slices contain non-finite values (NaN or Inf)")
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    u, _ = sign_fix(u)
    return np.ascontiguousarray(u * s)


class RangeIndex:
    """Segment tree of pre-merged slice-group bases over the temporal mode.

    Parameters
    ----------
    ssvd:
        The stored-orientation per-slice SVDs (may be memory-mapped).
    per_step:
        Slices per temporal step (``prod(shape[2:-1])``).
    min_span:
        Smallest segment span served from a merged node; shorter cover
        segments use the raw scaled blocks directly.  ``None`` picks
        :func:`auto_min_span` from the slice geometry.  The value is part
        of the range arithmetic (it decides *which* exact reformulation of
        each segment is used), so persisted indexes record it and readers
        must reuse the recorded value.
    nodes:
        Pre-computed node bases, e.g. loaded from a persisted payload.
    memoize:
        Keep lazily computed nodes in memory for reuse across queries.
    counter:
        Optional callable ``counter(hit: bool)`` invoked on every node
        lookup (telemetry).
    """

    def __init__(
        self,
        ssvd: SliceSVD,
        per_step: int,
        *,
        min_span: "int | None" = None,
        nodes: "Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]] | None" = None,
        memoize: bool = True,
        counter: "Callable[[bool], None] | None" = None,
    ) -> None:
        self._ssvd = ssvd
        self._per_step = int(per_step)
        if self._per_step < 1:
            raise ValueError(f"per_step must be >= 1, got {per_step}")
        self._extent = int(ssvd.shape[-1])
        i1, i2 = int(ssvd.shape[0]), int(ssvd.shape[1])
        if min_span is None:
            min_span = auto_min_span(i1, i2, ssvd.rank, self._per_step)
        self._min_span = int(min_span)
        if self._min_span < 2:
            raise ValueError(f"min_span must be >= 2, got {min_span}")
        self._memoize = bool(memoize)
        self._counter = counter
        self._nodes: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = (
            dict(nodes) if nodes else {}
        )
        self._lock = threading.Lock()

    # -- geometry ------------------------------------------------------------
    @property
    def extent(self) -> int:
        return self._extent

    @property
    def per_step(self) -> int:
        return self._per_step

    @property
    def min_span(self) -> int:
        return self._min_span

    @property
    def n_nodes(self) -> int:
        with self._lock:
            return len(self._nodes)

    def nodes_snapshot(self) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """A shallow copy of the current node table (for persistence)."""
        with self._lock:
            return dict(self._nodes)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(
                int(p1.nbytes) + int(p2.nbytes) for p1, p2 in self._nodes.values()
            )

    def cover(self, t0: int, t1: int) -> list[tuple[int, int]]:
        """The canonical dyadic cover of ``[t0, t1)`` (bounds-checked)."""
        if not (0 <= int(t0) < int(t1) <= self._extent):
            raise ValueError(
                f"time range [{t0}, {t1}) outside [0, {self._extent})"
            )
        return dyadic_cover(int(t0), int(t1))

    def node_keys(self) -> list[tuple[int, int]]:
        """Every materialisable node key, smallest spans first."""
        keys = []
        span = self._min_span
        while span <= self._extent:
            keys.extend(
                (start, span) for start in range(0, self._extent - span + 1, span)
            )
            span *= 2
        return keys

    # -- bases ---------------------------------------------------------------
    def _leaf(self, start: int, span: int) -> tuple[np.ndarray, np.ndarray]:
        """Raw scaled blocks of segment ``[start, start+span)`` — exact.

        Mode-1 columns are ``U_l · diag(s_l)`` and mode-2 columns are
        ``V_l · diag(s_l)`` for each slice ``l`` of the segment, packed
        slice-major.  No SVD runs here; leaves are the ground truth every
        merged node is an exact reformulation of.
        """
        lo = start * self._per_step
        hi = (start + span) * self._per_step
        u = np.asarray(self._ssvd.u[lo:hi])
        s = np.asarray(self._ssvd.s[lo:hi])
        vt = np.asarray(self._ssvd.vt[lo:hi])
        us = u * s[:, None, :]  # (n, I1, K)
        p1 = us.transpose(1, 0, 2).reshape(us.shape[1], -1)
        vs = np.swapaxes(vt, 1, 2) * s[:, None, :]  # (n, I2, K)
        p2 = vs.transpose(1, 0, 2).reshape(vs.shape[1], -1)
        return np.ascontiguousarray(p1), np.ascontiguousarray(p2)

    def _segment(self, start: int, span: int) -> tuple[np.ndarray, np.ndarray]:
        if span < self._min_span:
            return self._leaf(start, span)
        return self.node(start, span)

    def node(self, start: int, span: int) -> tuple[np.ndarray, np.ndarray]:
        """The merged basis pair of an aligned node, computing it if absent.

        Lookups are counted (hit = served from the node table, miss =
        recursively computed).  With ``memoize=True`` computed nodes are
        retained; a concurrent duplicate computation is benign — both
        threads produce identical bits and ``setdefault`` keeps one.
        """
        key = (int(start), int(span))
        with self._lock:
            cached = self._nodes.get(key)
        if cached is not None:
            if self._counter is not None:
                self._counter(True)
            return cached
        if self._counter is not None:
            self._counter(False)
        half = span // 2
        left = self._segment(start, half)
        right = self._segment(start + half, half)
        pair = (
            merge_scaled_bases([left[0], right[0]]),
            merge_scaled_bases([left[1], right[1]]),
        )
        if self._memoize:
            with self._lock:
                pair = self._nodes.setdefault(key, pair)
        return pair

    def range_blocks(
        self, t0: int, t1: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-segment (mode-1, mode-2) bases covering ``[t0, t1)``.

        Segments at or above ``min_span`` come from merged nodes; shorter
        ones straight from the raw scaled blocks.  Horizontally stacking
        either list reproduces the exact Gram matrix of the range's raw
        stacked blocks.
        """
        blocks1: list[np.ndarray] = []
        blocks2: list[np.ndarray] = []
        for start, span in self.cover(t0, t1):
            p1, p2 = self._segment(start, span)
            blocks1.append(p1)
            blocks2.append(p2)
        return blocks1, blocks2

    def prewarm(self, ranges: "list[tuple[int, int]]") -> int:
        """Materialise every node any of ``ranges`` will touch; returns count.

        Called by batched queries before fanning out to reader threads so
        shared nodes are computed once (single-flight) instead of raced.
        """
        touched = 0
        for t0, t1 in ranges:
            for start, span in self.cover(t0, t1):
                if span >= self._min_span:
                    self.node(start, span)
                    touched += 1
        return touched

    def materialize(self) -> "RangeIndex":
        """Compute every node bottom-up (build-time path); returns self."""
        for start, span in self.node_keys():
            self.node(start, span)
        return self

    # -- construction --------------------------------------------------------
    @classmethod
    def build(
        cls,
        ssvd: SliceSVD,
        per_step: int,
        *,
        min_span: "int | None" = None,
        seed_nodes: "Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]] | None" = None,
    ) -> "RangeIndex":
        """Fully materialised index for ``ssvd``.

        ``seed_nodes`` lets :meth:`ModelStore.append` extend an existing
        index incrementally: nodes that lie entirely inside the old extent
        are reused verbatim (append only concatenates slices, so their
        segments' payloads are unchanged) and only nodes touching the new
        region are computed.
        """
        index = cls(
            ssvd,
            per_step,
            min_span=min_span,
            nodes=seed_nodes,
            memoize=True,
        )
        return index.materialize()
