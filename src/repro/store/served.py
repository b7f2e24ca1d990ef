"""The read side of the model store: one mapped model, many readers.

A :class:`ServedModel` is what :meth:`repro.store.ModelStore.open` returns:
the store's payloads memory-mapped **once**, plus query methods designed to
be called concurrently from many reader threads:

* :meth:`~ServedModel.reconstruct` — materialise an arbitrary sub-tensor
  from the Tucker factors (never from raw data);
* :meth:`~ServedModel.query_time_range` — answer a time-range query by
  recombining the stored per-slice SVDs of the range into a *local* Tucker
  decomposition, Zoom-Tucker style: initialization + a few compressed-domain
  ALS sweeps on the slice group, **no re-compression and no pass over the
  original tensor**;
* :meth:`~ServedModel.refit` — a full-extent decomposition request at new
  ranks, served from the mapped slices alone.

Thread model
------------
The mapped arrays are read-only and shared.  Every query that needs the
execution engine resolves a backend *per reader thread* (kept in a
``threading.local`` and reused across that thread's queries), so concurrent
readers never share mutable engine state; all solver phases are
deterministic, so concurrent answers are bit-identical to serial ones.
Per-query telemetry (kind, wall seconds, slices touched, serving thread)
accumulates in a lock-protected :class:`ServingStats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.fit_pipeline import FitPipeline
from ..core.initialization import initialize_from_factors
from ..core.result import TuckerResult
from ..core.slice_svd import SliceSVD
from ..engine import ExecutionBackend, resolve_backend
from ..engine.array_api import resolve_device
from ..engine.blas import current_blas_threads, limit_blas_threads
from ..exceptions import StoreError
from ..kernels.stats import KernelStats
from ..linalg.svd import leading_left_singular_vectors
from ..tensor.products import tucker_to_tensor
from ..validation import check_ranks
from .range_index import RangeIndex

__all__ = ["ServedModel", "ServingStats", "QueryRecord"]

#: Default capacity of the per-model LRU result/warm-start cache.
DEFAULT_CACHE_SIZE = 32


def _config_fingerprint(config: DTuckerConfig) -> str:
    """Stable fingerprint of a solver configuration (cache-key component)."""
    payload = json.dumps(asdict(config), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class QueryRecord:
    """Telemetry of one served query.

    Attributes
    ----------
    kind:
        ``"time_range"``, ``"reconstruct"``, ``"refit"`` or
        ``"query_many"`` (the batch envelope; its member queries record
        individually too).
    seconds:
        Wall-clock time spent answering.
    items:
        Work volume: slices recombined (time range / refit), cells
        materialised (reconstruct) or ranges answered (query_many).
    thread:
        Name of the reader thread that was served.
    cache:
        Result-cache outcome for time-range queries: ``"hit"`` (answer
        served from the LRU cache), ``"miss"`` (computed cold),
        ``"warm"`` (computed, but ALS started from a cached overlapping
        query's factors) or ``"-"`` for kinds the cache does not apply to.
    """

    kind: str
    seconds: float
    items: int
    thread: str
    cache: str = "-"


@dataclass
class ServingStats:
    """Lock-protected accumulator of per-query telemetry.

    Every mutation happens under ``_lock``, so :meth:`record` and
    :meth:`count` are safe to call from any number of reader threads; the
    read accessors take the same lock and return consistent snapshots.
    Cache counters live in a :class:`~repro.kernels.stats.KernelStats`
    under the names ``"result"`` (LRU result cache), ``"warm"``
    (warm-started computations) and ``"node"`` (range-index node lookups).
    """

    records: list[QueryRecord] = field(default_factory=list)
    counters: KernelStats = field(default_factory=KernelStats)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(
        self, kind: str, seconds: float, items: int, *, cache: str = "-"
    ) -> None:
        entry = QueryRecord(
            kind=kind,
            seconds=float(seconds),
            items=int(items),
            thread=threading.current_thread().name,
            cache=str(cache),
        )
        with self._lock:
            self.records.append(entry)
            if entry.cache == "hit":
                self.counters.record_hit("result")
            elif entry.cache in ("miss", "warm"):
                self.counters.record_miss("result")
            if entry.cache == "warm":
                self.counters.record_hit("warm")

    def count(self, name: str, hit: bool) -> None:
        """Record one auxiliary-cache lookup (e.g. a range-index node)."""
        with self._lock:
            self.counters.record(name, hit=hit)

    @property
    def n_queries(self) -> int:
        with self._lock:
            return len(self.records)

    @property
    def cache_hits(self) -> int:
        """Time-range answers served straight from the LRU result cache."""
        with self._lock:
            return self.counters.hits_for("result")

    @property
    def cache_misses(self) -> int:
        """Time-range answers that had to be computed (cold or warm)."""
        with self._lock:
            return self.counters.misses_for("result")

    @property
    def warm_starts(self) -> int:
        """Computed answers that reused a cached overlapping query's factors."""
        with self._lock:
            return self.counters.hits_for("warm")

    def by_kind(self) -> dict[str, int]:
        """Query counts per kind."""
        with self._lock:
            counts: dict[str, int] = {}
            for r in self.records:
                counts[r.kind] = counts.get(r.kind, 0) + 1
            return counts

    def by_cache(self) -> dict[str, int]:
        """Query counts per result-cache outcome (``"-"`` = not applicable)."""
        with self._lock:
            counts: dict[str, int] = {}
            for r in self.records:
                counts[r.cache] = counts.get(r.cache, 0) + 1
            return counts

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return float(sum(r.seconds for r in self.records))

    def summary(self) -> str:
        """One line of telemetry, e.g.::

            queries=7 (time_range=4 reconstruct=3) threads=2 total=0.12s \
cache=2h/2m/1w nodes=5h/3m
        """
        with self._lock:
            counts: dict[str, int] = {}
            threads = set()
            total = 0.0
            for r in self.records:
                counts[r.kind] = counts.get(r.kind, 0) + 1
                threads.add(r.thread)
                total += r.seconds
            hits = self.counters.hits_for("result")
            misses = self.counters.misses_for("result")
            warm = self.counters.hits_for("warm")
            node_hits = self.counters.hits_for("node")
            node_misses = self.counters.misses_for("node")
        kinds = " ".join(f"{k}={n}" for k, n in sorted(counts.items()))
        line = (
            f"queries={sum(counts.values())}"
            + (f" ({kinds})" if kinds else "")
            + f" threads={len(threads)} total={total:.4f}s"
        )
        if hits or misses:
            line += f" cache={hits}h/{misses}m"
            if warm:
                line += f"/{warm}w"
        if node_hits or node_misses:
            line += f" nodes={node_hits}h/{node_misses}m"
        return line


@dataclass(frozen=True)
class _CacheEntry:
    """One LRU slot: the exact answer plus warm-start material.

    ``factors12`` are the converged slice-plane factors in the *stored*
    orientation — their shapes depend only on ``(I1, I2)`` and the target
    ranks, never on the time range, which is what makes them reusable as
    ALS warm starts for overlapping queries at the same ranks/config.
    """

    result: TuckerResult
    t0: int
    t1: int
    tail: tuple
    factors12: tuple[np.ndarray, np.ndarray]


class _QueryCache:
    """Bounded, thread-safe LRU over exact time-range query keys.

    A key is ``(t0, t1, stored_ranks, config_fingerprint)``; an exact hit
    returns the previously computed :class:`TuckerResult` unchanged
    (bit-identical by construction).  :meth:`find_warm` additionally scans
    for an entry at the same ranks/config whose range overlaps at least
    half of the request — its factors seed ALS instead of the range-index
    recombination.  ``capacity=0`` disables the cache entirely.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> "_CacheEntry | None":
        if self.capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, entry: _CacheEntry) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def find_warm(self, t0: int, t1: int, tail: tuple) -> "_CacheEntry | None":
        if self.capacity == 0:
            return None
        span = t1 - t0
        best: "_CacheEntry | None" = None
        best_overlap = 0
        with self._lock:
            # Most recently used first; require >= half-range overlap.
            for entry in reversed(self._entries.values()):
                if entry.tail != tail:
                    continue
                overlap = min(t1, entry.t1) - max(t0, entry.t0)
                if 2 * overlap >= span and overlap > best_overlap:
                    best, best_overlap = entry, overlap
        return best

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _PerThreadEngines:
    """One execution backend per reader thread, resolved lazily.

    Engines are mutable (trace accumulation, pools), so sharing one across
    concurrent queries would race; one per thread keeps queries isolated
    while still amortising pool start-up across a thread's queries.  A
    caller-supplied :class:`~repro.engine.ExecutionBackend` is used as-is
    (and never closed) — appropriate when the caller serialises queries.

    BLAS budgeting: with N reader threads each driving its own engine, a
    BLAS that spawns a full thread team per call oversubscribes the
    machine N-fold — the cause of the concurrent-slower-than-serial
    regression this layer fixes.  :meth:`blas_share` splits the baseline
    team size across the engines whose owner threads are still alive, and
    queries cap their BLAS calls to that share.
    """

    def __init__(
        self, config: DTuckerConfig, shared: ExecutionBackend | None = None
    ) -> None:
        self._config = config
        self._shared = shared
        self._local = threading.local()
        self._owned: list[ExecutionBackend] = []
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = False
        # Baseline team size, observed before any query lowers it.
        self._base_blas = current_blas_threads()

    def check_open(self) -> None:
        if self._closed:
            raise StoreError("this ServedModel is closed")

    def get(self) -> ExecutionBackend:
        self.check_open()
        if self._shared is not None:
            return self._shared
        engine = getattr(self._local, "engine", None)
        if engine is None:
            engine = resolve_backend(config=self._config)
            self._local.engine = engine
            with self._lock:
                if self._closed:
                    engine.close()
                    raise StoreError("this ServedModel is closed")
                self._owned.append(engine)
                self._threads.append(threading.current_thread())
        return engine

    def n_live(self) -> int:
        """Engines whose owner thread is still alive (>= 1)."""
        if self._shared is not None:
            return 1
        with self._lock:
            live = sum(1 for t in self._threads if t.is_alive())
        return max(1, live)

    def blas_share(self) -> "int | None":
        """Per-engine BLAS thread budget, or ``None`` when unobservable.

        The baseline team is divided across live reader engines and never
        raised above the currently effective limit (so a batch-level cap
        composes with per-query caps instead of fighting it).
        """
        current = current_blas_threads()
        if current is None:
            return None
        base = self._base_blas if self._base_blas is not None else current
        return min(current, max(1, base // self.n_live()))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            engines, self._owned = self._owned, []
            self._threads = []
        for engine in engines:
            engine.close()


class ServedModel:
    """A stored model, memory-mapped once and shared by concurrent readers.

    Construct via :meth:`repro.store.ModelStore.open`.  All attributes are
    read-only; all query methods are safe to call from many threads at
    once and return bit-identical answers to serial calls.

    Attributes
    ----------
    manifest:
        The validated store manifest (a plain dict).
    slice_svd:
        The compressed slice representation, in the store's (slice-mode
        permuted) orientation, backed by the mapped payloads.
    result:
        The fitted :class:`~repro.core.result.TuckerResult`, in the
        *original* mode order.
    config:
        The :class:`~repro.core.config.DTuckerConfig` the model was fitted
        with (queries reuse it unless overridden per call).
    stats:
        Per-query :class:`ServingStats` telemetry (query records plus
        result-cache / warm-start / index-node counters).

    Parameters
    ----------
    index_nodes, index_min_span:
        Pre-merged dyadic node bases loaded from the store's persisted
        ``index/`` payload (and the ``min_span`` it was built with).  When
        absent the same segment tree is built lazily in memory on first
        use — node bases are deterministic functions of the slice
        payloads, so lazily computed and persisted nodes are bit-identical
        and queries answer the same either way.
    cache_size:
        Capacity of the LRU result/warm-start cache (0 disables it).
    warm_start:
        Allow overlapping cached queries at the same ranks/config to seed
        ALS.  Exact repeats are always answered bit-identically from the
        cache; warm-started answers converge from a different (better)
        starting point and are flagged in the telemetry.
    use_index:
        ``False`` disables node reuse entirely (every query recombines its
        range from the raw slice payloads through the same dyadic
        arithmetic) — the honest "cold" baseline for benchmarks.
    """

    def __init__(
        self,
        *,
        manifest: dict,
        slice_svd: SliceSVD,
        result: TuckerResult,
        config: DTuckerConfig,
        engine: ExecutionBackend | None = None,
        index_nodes: "Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]] | None" = None,
        index_min_span: "int | None" = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        warm_start: bool = True,
        use_index: bool = True,
    ) -> None:
        self.manifest = manifest
        self.slice_svd = slice_svd
        self.result = result
        self.config = config
        self.permutation = tuple(int(i) for i in manifest["permutation"])
        self.stats = ServingStats()
        self._engines = _PerThreadEngines(config, shared=engine)
        self._use_index = bool(use_index)
        self._index_nodes = dict(index_nodes) if (index_nodes and use_index) else None
        self._index_min_span = index_min_span
        self._index: RangeIndex | None = None
        self._index_lock = threading.Lock()
        self._warm_start = bool(warm_start)
        self._cache = _QueryCache(cache_size)

    @property
    def cache_size(self) -> int:
        """Capacity of the LRU result cache (0 = disabled)."""
        return self._cache.capacity

    @property
    def cached_queries(self) -> int:
        """Entries currently held by the LRU result cache."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached result (the range index is unaffected)."""
        self._cache.clear()

    def _range_index(self) -> RangeIndex:
        """The dyadic range index, created lazily on first range query."""
        index = self._index
        if index is not None:
            return index
        with self._index_lock:
            if self._index is None:
                self._require_temporal_last("query_time_range")
                self._index = RangeIndex(
                    self.slice_svd,
                    self._slices_per_step(),
                    min_span=self._index_min_span,
                    nodes=self._index_nodes,
                    memoize=self._use_index,
                    counter=lambda hit: self.stats.count("node", hit),
                )
            return self._index

    # -- geometry ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Tensor shape in the *original* mode order."""
        stored = self.slice_svd.shape
        out = [0] * len(stored)
        for i, p in enumerate(self.permutation):
            out[p] = stored[i]
        return tuple(out)

    @property
    def stored_shape(self) -> tuple[int, ...]:
        """Tensor shape in the store's (permuted) orientation."""
        return self.slice_svd.shape

    @property
    def ranks(self) -> tuple[int, ...]:
        """Fitted Tucker ranks in the original mode order."""
        return self.result.ranks

    @property
    def slice_rank(self) -> int:
        """Stored per-slice compression rank ``K``."""
        return self.slice_svd.rank

    @property
    def estimated_error(self) -> float:
        """The fit's final estimated reconstruction error (``nan`` if unknown)."""
        history = self.manifest.get("fit", {}).get("history", [])
        return float(history[-1]) if history else float("nan")

    @property
    def nbytes(self) -> int:
        """Total payload bytes, from the manifest (payloads stay unloaded)."""
        return int(
            sum(int(e["nbytes"]) for e in self.manifest["payloads"].values())
        )

    # -- time geometry -------------------------------------------------------
    def _slices_per_step(self) -> int:
        stored = self.slice_svd.shape
        if len(stored) < 3:
            raise StoreError(
                "time-range queries need an order >= 3 tensor; this store "
                f"holds shape {stored}"
            )
        return int(np.prod(stored[2:-1], dtype=np.int64)) if len(stored) > 3 else 1

    def _require_temporal_last(self, what: str) -> None:
        n = len(self.permutation)
        if self.permutation[-1] != n - 1:
            raise StoreError(
                f"{what} requires the temporal (last) mode to survive the "
                f"slice-mode permutation; this store permuted modes "
                f"{self.permutation} — refit with slice_modes keeping the "
                "last mode last"
            )

    def slice_range(self, t0: int, t1: int) -> SliceSVD:
        """The compressed slice group of timesteps ``[t0, t1)`` (zero copy).

        Returns a :class:`~repro.core.slice_svd.SliceSVD` whose arrays are
        views into the mapped payloads, with exact norm bookkeeping from
        the stored per-slice norms.
        """
        self._require_temporal_last("slice_range")
        stored = self.slice_svd.shape
        lo_t, hi_t = int(t0), int(t1)
        if not 0 <= lo_t < hi_t <= stored[-1]:
            raise StoreError(
                f"time range [{lo_t}, {hi_t}) outside the stored extent "
                f"{stored[-1]}"
            )
        per_step = self._slices_per_step()
        lo, hi = lo_t * per_step, hi_t * per_step
        norms = self.slice_svd.slice_norms_squared
        range_norms = None if norms is None else norms[lo:hi]
        if range_norms is not None:
            norm_squared = float(np.sum(range_norms))
        else:
            norm_squared = float(np.sum(self.slice_svd.s[lo:hi] ** 2))
        return SliceSVD(
            u=self.slice_svd.u[lo:hi],
            s=self.slice_svd.s[lo:hi],
            vt=self.slice_svd.vt[lo:hi],
            shape=stored[:-1] + (hi_t - lo_t,),
            norm_squared=norm_squared,
            slice_norms_squared=range_norms,
        )

    # -- queries -------------------------------------------------------------
    def reconstruct(
        self,
        index_ranges: "Sequence[tuple[int, int] | None] | None" = None,
    ) -> np.ndarray:
        """Materialise a dense sub-tensor from the Tucker factors.

        Parameters
        ----------
        index_ranges:
            One ``(start, stop)`` half-open range per mode — in the
            *original* mode order — or ``None`` for a mode's full extent
            (``None`` overall materialises the whole approximation).  Only
            ``prod(stop - start) · prod(ranks)`` work is done: factor rows
            outside the ranges are never touched.

        Returns
        -------
        numpy.ndarray
            The dense approximation of the requested block.
        """
        t0 = time.perf_counter()
        shape = self.shape
        if index_ranges is None:
            ranges: list[tuple[int, int]] = [(0, d) for d in shape]
        else:
            if len(index_ranges) != len(shape):
                raise StoreError(
                    f"expected {len(shape)} index ranges, got {len(index_ranges)}"
                )
            ranges = []
            for n, (r, d) in enumerate(zip(index_ranges, shape)):
                if r is None:
                    ranges.append((0, d))
                    continue
                lo, hi = int(r[0]), int(r[1])
                if not 0 <= lo < hi <= d:
                    raise StoreError(
                        f"index range [{lo}, {hi}) invalid for mode {n} "
                        f"of extent {d}"
                    )
                ranges.append((lo, hi))
        factors = [
            a[lo:hi] for a, (lo, hi) in zip(self.result.factors, ranges)
        ]
        block = tucker_to_tensor(self.result.core, factors)
        self.stats.record(
            "reconstruct", time.perf_counter() - t0, int(block.size)
        )
        return block

    def query_time_range(
        self,
        t0: int,
        t1: int,
        *,
        ranks: "int | Sequence[int] | None" = None,
        config: DTuckerConfig | None = None,
    ) -> TuckerResult:
        """Tucker-decompose timesteps ``[t0, t1)`` without refitting.

        The Zoom-Tucker recombination: the stored per-slice SVDs of the
        range *are* the approximation phase of the sub-tensor, so only
        initialization and a few compressed-domain ALS sweeps run — on
        views of the mapped payloads, never on raw data.

        Parameters
        ----------
        t0, t1:
            Half-open timestep range along the last (temporal) mode.
        ranks:
            Target ranks for the local decomposition, in the original mode
            order (default: the fitted ranks, with the temporal rank
            clipped to the range length).
        config:
            Optional per-query solver override (sweep budget, tolerance,
            backend); defaults to the stored fit configuration.

        Returns
        -------
        TuckerResult
            Local decomposition of the sub-tensor, in the original mode
            order.

        Notes
        -----
        The range's slice-plane factors are recombined through the dyadic
        range index — the cover of ``[t0, t1)`` by O(log T) segment-tree
        nodes whose cached bases are exact width-reduced reformulations of
        the raw stacked blocks — so the per-query recombination cost is
        logarithmic, not linear, in the range length.  An exact repeat of
        a previous query (same range, ranks and config) is answered
        bit-identically from the LRU result cache; a sufficiently
        overlapping previous query may instead seed ALS (``warm`` in the
        telemetry) unless the model was opened with ``warm_start=False``.
        """
        started = time.perf_counter()
        self._engines.check_open()
        lo_t, hi_t = int(t0), int(t1)
        local = self.slice_range(lo_t, hi_t)
        cfg = config if config is not None else self.config

        # Resolve ranks: user ranks arrive in original order; the pipeline
        # wants the stored orientation.
        if ranks is None:
            original = list(self.ranks)
            original[-1] = min(original[-1], hi_t - lo_t)
        else:
            original = list(
                check_ranks(
                    ranks,
                    self.shape[:-1] + (hi_t - lo_t,),
                )
            )
        stored_ranks = tuple(original[p] for p in self.permutation)
        stored_ranks = check_ranks(stored_ranks, local.shape)

        tail = (stored_ranks, _config_fingerprint(cfg))
        key = (lo_t, hi_t) + tail
        entry = self._cache.get(key)
        if entry is not None:
            self.stats.record(
                "time_range",
                time.perf_counter() - started,
                local.num_slices,
                cache="hit",
            )
            return entry.result

        warm = self._cache.find_warm(lo_t, hi_t, tail) if self._warm_start else None
        if warm is not None:
            a1, a2 = warm.factors12
            cache_tag = "warm"
        else:
            blocks1, blocks2 = self._range_index().range_blocks(lo_t, hi_t)
            # The concatenated node bases are factored on the configured
            # namespace, and only the two small factor matrices come back
            # to the host (the downstream ALS uploads the slice views itself).
            am = resolve_device(None, config=cfg)

            def recombine(blocks, rank):
                basis = am.to_device(np.concatenate(blocks, axis=1))
                return am.from_device(leading_left_singular_vectors(basis, rank))

            a1 = recombine(blocks1, stored_ranks[0])
            a2 = recombine(blocks2, stored_ranks[1])
            cache_tag = "miss"
        _, init_factors = initialize_from_factors(local, stored_ranks, a1, a2)

        pipeline = FitPipeline(
            stored_ranks, config=cfg, engine=self._engines.get()
        )
        share = self._engines.blas_share()
        blas_cap = nullcontext() if share is None else limit_blas_threads(share)
        with blas_cap:
            result, outcome, _ = pipeline.refit(
                local, stored_ranks, config=cfg, initial_factors=init_factors
            )
        inverse = tuple(int(i) for i in np.argsort(self.permutation))
        answer = result.permute_modes(inverse)
        self._cache.put(
            key,
            _CacheEntry(
                result=answer,
                t0=lo_t,
                t1=hi_t,
                tail=tail,
                factors12=(outcome.factors[0], outcome.factors[1]),
            ),
        )
        self.stats.record(
            "time_range",
            time.perf_counter() - started,
            local.num_slices,
            cache=cache_tag,
        )
        return answer

    def query_many(
        self,
        ranges: "Sequence[tuple[int, int]]",
        *,
        ranks: "int | Sequence[int] | None" = None,
        config: DTuckerConfig | None = None,
        max_workers: "int | None" = None,
    ) -> list[TuckerResult]:
        """Answer a batch of time-range queries, sharing work across them.

        Amortisation over :meth:`query_time_range` in a loop: every index
        node any of the ranges touches is materialised exactly once up
        front (single-flight, instead of reader threads racing to compute
        shared nodes), duplicate ranges are answered once, and the member
        queries then run on a reader pool whose BLAS calls are capped to a
        fair share of the machine so N readers never oversubscribe it.

        Parameters
        ----------
        ranges:
            ``(t0, t1)`` half-open timestep ranges; duplicates allowed.
        ranks, config:
            As for :meth:`query_time_range`, applied to every member.
        max_workers:
            Reader threads (default: ``min(len(distinct ranges), cpus)``).

        Returns
        -------
        list[TuckerResult]
            One answer per requested range, in request order; duplicate
            ranges share one answer object.
        """
        started = time.perf_counter()
        self._engines.check_open()
        parsed = [(int(a), int(b)) for a, b in ranges]
        if not parsed:
            return []
        for a, b in parsed:  # fail fast before any threads start
            self.slice_range(a, b)
        distinct = list(dict.fromkeys(parsed))
        if self._use_index:
            self._range_index().prewarm(distinct)
        if max_workers is None:
            workers = min(len(distinct), os.cpu_count() or 1)
        else:
            workers = min(int(max_workers), len(distinct))
        workers = max(1, workers)
        if workers == 1:
            answers = {
                r: self.query_time_range(r[0], r[1], ranks=ranks, config=config)
                for r in distinct
            }
        else:
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve"
            ) as pool:
                futures = {
                    r: pool.submit(
                        self.query_time_range,
                        r[0],
                        r[1],
                        ranks=ranks,
                        config=config,
                    )
                    for r in distinct
                }
                answers = {r: f.result() for r, f in futures.items()}
        self.stats.record(
            "query_many", time.perf_counter() - started, len(parsed)
        )
        return [answers[r] for r in parsed]

    def refit(
        self,
        ranks: "int | Sequence[int]",
        *,
        config: DTuckerConfig | None = None,
    ) -> TuckerResult:
        """Full-extent decomposition at new ranks from the mapped slices.

        The serving twin of :meth:`repro.core.dtucker.DTucker.refit`: no
        pass over the original tensor, only initialization + iteration on
        the stored representation.  Ranks are in the original mode order.
        """
        started = time.perf_counter()
        cfg = config if config is not None else self.config
        original = check_ranks(ranks, self.shape)
        stored_ranks = tuple(original[p] for p in self.permutation)
        pipeline = FitPipeline(
            stored_ranks, config=cfg, engine=self._engines.get()
        )
        share = self._engines.blas_share()
        blas_cap = nullcontext() if share is None else limit_blas_threads(share)
        with blas_cap:
            result, _, _ = pipeline.refit(
                self.slice_svd, stored_ranks, config=cfg
            )
        inverse = tuple(int(i) for i in np.argsort(self.permutation))
        answer = result.permute_modes(inverse)
        self.stats.record(
            "refit", time.perf_counter() - started, self.slice_svd.num_slices
        )
        return answer

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release per-thread engines (mapped arrays stay valid until GC)."""
        self._engines.close()

    def __enter__(self) -> "ServedModel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServedModel(shape={self.shape}, ranks={self.ranks}, "
            f"slice_rank={self.slice_rank}, queries={self.stats.n_queries})"
        )
