"""Streaming extension: incremental D-Tucker over a growing temporal mode.

The ICDE paper ends with extending D-Tucker beyond the one-shot setting as
future work (realised by the authors' later follow-ups).  This module
implements the streaming variant that falls out of the slice
representation: because the slice index runs in Fortran order over modes
``3..N``, the *last* mode varies slowest — so a new temporal block appended
along the last mode contributes a contiguous run of *new slices* and nothing
else changes.

One update mode.  A :class:`~repro.kernels.workspace.StreamingWorkspace`
is carried across updates: the per-slice projections ``A(1)ᵀU_l``,
``V_lᵀA(2)`` and the ``W`` stack of historical slices are cached and only
the new block's rows are computed, so each update costs O(block) — not
O(T).  The non-temporal factors stay fixed between updates; the temporal
and any intermediate factors are re-derived each update from the cached
``W`` tensor, whose cheap HOOI sweeps touch only J-sized quantities.  An
EWMA drift watchdog, always on (``drift_budget``, default
:data:`DRIFT_BUDGET`), re-derives every factor from the live window when
the estimated error drifts beyond budget, which keeps the stream within a
few per cent of a from-scratch fit on drifting data too.

Windowing (``window=N`` — evict the oldest temporal steps in O(evicted))
and exponential decay (``decay=γ`` — folded into the stored ``Σ_l``
scaling) bound long-running services, and
:meth:`StreamingDTucker.ingest_queue` provides a bounded, blocking-put
ingest pipeline (backpressure) built on
:class:`~repro.engine.pipeline.IngestQueue`.  See ``docs/streaming.md``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Sequence

import numpy as np

from dataclasses import replace

from ..engine import ExecutionBackend, IngestQueue
from ..engine.trace import TELEMETRY_HISTORY, PhaseTrace
from ..exceptions import NotFittedError, RankError, ShapeError, StoreFormatError
from ..kernels.stats import KernelStats, record_into
from ..kernels.workspace import StreamingWorkspace
from ..linalg.svd import leading_left_singular_vectors
from ..metrics.timing import PhaseTimings, Timer
from ..tensor.norms import core_based_error
from ..tensor.products import multi_mode_product
from ..tensor.random import default_rng
from ..tensor.unfold import unfold
from ..validation import as_tensor, check_positive_int, check_ranks
from .config import DTuckerConfig
from .fit_pipeline import FitPipeline
from .initialization import initialize, slice_plane_factor
from .result import TuckerResult
from .slice_svd import SliceSVD
from .sources import DenseSource, compress_source

__all__ = ["DRIFT_BUDGET", "StreamingDTucker"]

#: Default relative error-drift budget of the watchdog (``drift_budget=None``).
#: Measured on 128×96 streams of 16-step blocks (``docs/streaming.md``):
#: it holds the true error within 1 % of a from-scratch fit while the
#: mode-1 factor turns by up to 1 rad over the stream, and it does not fire
#: on the stationary stream.
DRIFT_BUDGET = 0.05

#: EWMA smoothing for the drift watchdog (fraction of the newest error).
_EWMA_ALPHA = 0.3

#: Name of the streaming-state sidecar directory inside a model store.
_STREAM_DIR = "streaming"
_STREAM_STATE = "state.json"


def _tail_slices(block: SliceSVD, keep_steps: int, per_step: int) -> SliceSVD:
    """The last ``keep_steps`` temporal steps of ``block`` (window > block)."""
    keep = keep_steps * per_step
    drop = block.num_slices - keep
    if drop <= 0:
        return block
    assert block.slice_norms_squared is not None
    norms = block.slice_norms_squared[drop:]
    return SliceSVD(
        u=block.u[drop:],
        s=block.s[drop:],
        vt=block.vt[drop:],
        shape=block.shape[:-1] + (keep_steps,),
        norm_squared=float(norms.sum()),
        slice_norms_squared=norms,
    )


class StreamingDTucker:
    """Incrementally maintained Tucker decomposition of a temporal tensor.

    The temporal mode must be the *last* mode; slice modes are fixed to
    ``(0, 1)`` (transpose the data first if needed).  Every update costs
    O(block): only the new block's slices are compressed and projected,
    and the trailing factors are re-derived from the cached projected
    stack.  The drift watchdog re-derives every factor from the live
    window when the estimated error drifts beyond ``drift_budget``.

    Parameters
    ----------
    ranks:
        Target Tucker ranks, one per mode of the full (growing) tensor.
    slice_rank:
        Per-slice compression rank (default ``max(ranks[0], ranks[1])``).
    sweeps_per_update:
        HOOI sweeps over the cached projections after every
        :meth:`partial_fit` (order >= 4; an order-3 stream needs one), and
        the ALS sweep budget of a watchdog refresh.
    seed:
        Seed for all randomness; overrides ``config.seed`` when not ``None``.
    config:
        Solver configuration (randomized-SVD knobs, tolerance, execution
        backend, and the streaming fields ``window`` / ``decay`` /
        ``drift_budget``); the ``max_iters`` field is ignored in favour of
        ``sweeps_per_update``.
    engine:
        Optional live :class:`~repro.engine.ExecutionBackend` reused across
        updates (never closed by this class).
    update:
        Accepted only as ``"incremental"``, the one update mode (``None``
        is the same).  The retired ``"refit"`` and ``"sketch"`` raise
        :class:`~repro.exceptions.ShapeError`.
    window, decay, drift_budget:
        Per-instance overrides of the corresponding config fields (``None``
        defers to the config; a ``drift_budget`` of ``None`` in both means
        :data:`DRIFT_BUDGET`).  See the module docstring and
        ``docs/streaming.md`` for semantics.

    Attributes (after the first ``partial_fit``)
    --------------------------------------------
    result_ : TuckerResult
        Decomposition of everything currently represented (the live window).
    slice_svd_ : SliceSVD
        The accumulated (windowed, decayed) compressed representation.
    n_updates_ : int
        Number of blocks ingested.
    t_seen_ : int
        Total temporal steps ever ingested (monotone; unaffected by window).
    history_ : list of float
        Estimated error after each update.
    timings_ : PhaseTimings
        Accumulated per-phase seconds across updates.
    kernel_stats_ : KernelStats
        Cache accounting accumulated across all updates, including the
        ``stream:proj`` / ``stream:evict`` counters (see
        :mod:`repro.kernels`).
    watchdog_triggers_ : int
        Full factor refreshes forced by the drift watchdog.
    traces_ : deque of PhaseTrace
        Per-update (and per-watchdog-refresh) telemetry records, the most
        recent ``TELEMETRY_HISTORY`` of them.  Each record's ``counters``
        hold its own events; ``kernel_stats_`` is their running total.
    """

    def __init__(
        self,
        ranks: Sequence[int],
        *,
        slice_rank: int | None = None,
        sweeps_per_update: int = 5,
        seed: int | None = None,
        config: DTuckerConfig | None = None,
        engine: ExecutionBackend | None = None,
        update: str | None = None,
        window: int | None = None,
        decay: float | None = None,
        drift_budget: float | None = None,
    ) -> None:
        self.ranks = tuple(int(r) for r in ranks)
        if len(self.ranks) < 3:
            raise ShapeError(
                "StreamingDTucker needs an order >= 3 tensor "
                f"(got {len(self.ranks)} ranks); the last mode is temporal"
            )
        if update not in (None, "incremental"):
            raise ShapeError(
                f"update={update!r} is not available: StreamingDTucker has "
                'one update mode, "incremental" (O(block) updates); its '
                'always-on drift watchdog takes the place of "refit" and '
                '"sketch".  Drop the update= argument.'
            )
        self.slice_rank = slice_rank
        self.sweeps_per_update = check_positive_int(
            sweeps_per_update, name="sweeps_per_update"
        )
        cfg = config if config is not None else DTuckerConfig()
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        overrides: dict[str, object] = {}
        if window is not None:
            overrides["window"] = window
        if decay is not None:
            overrides["decay"] = decay
        if drift_budget is not None:
            overrides["drift_budget"] = drift_budget
        # A watchdog refresh runs exactly sweeps_per_update warm sweeps.
        self.config = replace(cfg, max_iters=self.sweeps_per_update, **overrides)
        self.window = self.config.window
        self.decay = self.config.decay
        self.drift_budget = float(
            DRIFT_BUDGET
            if self.config.drift_budget is None
            else self.config.drift_budget
        )
        self.engine = engine
        # Lenient slice rank, as streaming always was: an oversized explicit
        # K fails inside compress_source with the uniform bound error.
        self._pipeline = FitPipeline(
            self.ranks,
            slice_rank=slice_rank,
            config=self.config,
            engine=engine,
            strict_slice_rank=False,
        )
        self._rng = default_rng(self.config.seed)
        self.n_updates_ = 0
        self.t_seen_ = 0
        self.history_: list[float] = []
        self.timings_ = PhaseTimings()
        self.kernel_stats_ = KernelStats()
        self.watchdog_triggers_ = 0
        self.traces_: deque[PhaseTrace] = deque(maxlen=TELEMETRY_HISTORY)
        # Outside an update the workspace tallies into kernel_stats_;
        # inside one, into the update's trace.
        self._sws = StreamingWorkspace(stats=self.kernel_stats_)
        self._ewma: float | None = None
        self._baseline: float | None = None

    # -- accessors -------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self._sws.num_slices == 0:
            raise NotFittedError(
                "no data ingested yet; call partial_fit(block) first"
            )

    @property
    def slice_svd_(self) -> SliceSVD:
        self._require_fitted()
        return self._sws.slice_svd()

    @property
    def shape_(self) -> tuple[int, ...]:
        """Shape of the live window (all ingested data without a window)."""
        return self.slice_svd_.shape

    # -- ingestion ---------------------------------------------------------------
    def _effective_ranks(self, shape: Sequence[int]) -> tuple[int, ...]:
        """Ranks clipped to the current (possibly still small) temporal extent."""
        clipped = list(self.ranks)
        clipped[-1] = min(clipped[-1], int(shape[-1]))
        return check_ranks(clipped, shape)

    def _validate_block(self, block: np.ndarray) -> tuple[np.ndarray, int]:
        """Shape/rank-check a block *before* any RNG or state is touched."""
        x = as_tensor(block, min_order=len(self.ranks), name="block")
        if x.ndim != len(self.ranks):
            raise ShapeError(
                f"block order {x.ndim} does not match ranks order {len(self.ranks)}"
            )
        if self._sws.num_slices:
            accumulated = self._sws.shape
            if x.shape[:-1] != accumulated[:-1]:
                raise ShapeError(
                    f"block shape {x.shape} incompatible with accumulated "
                    f"shape {accumulated} (all modes but the last must match)"
                )
        k = (
            int(self.slice_rank)
            if self.slice_rank is not None
            else min(max(self.ranks[0], self.ranks[1]), min(x.shape[:2]))
        )
        if k > min(x.shape[:2]):
            raise RankError(
                f"slice rank {k} exceeds min(I1, I2) = {min(x.shape[:2])}"
            )
        return x, k

    def _compress(self, x: np.ndarray, k: int) -> SliceSVD:
        """Compress a validated block, continuing the one RNG stream."""
        with Timer() as t_approx:
            # One generator (self._rng) spans all updates, so every block's
            # sketch continues the same stream the one-shot fit would use.
            # ``x`` passed as_tensor already: no second scan.
            block_ssvd = compress_source(
                DenseSource._validated(x),
                k,
                config=self.config,
                engine=self.engine,
                rng=self._rng,
            )
        self.timings_.add("approximation", t_approx.seconds)
        return block_ssvd

    def partial_fit(self, block: np.ndarray) -> "StreamingDTucker":
        """Ingest a new temporal block and refresh the decomposition.

        Parameters
        ----------
        block:
            Tensor whose shape matches previously seen data on every mode
            except the last (temporal) one.

        Returns
        -------
        StreamingDTucker
            ``self``, updated.
        """
        # Validation happens before compression so a bad block leaves the
        # RNG stream, n_updates_ and every accumulator untouched.
        x, k = self._validate_block(block)
        block_ssvd = self._compress(x, k)
        start = time.perf_counter()
        trace = PhaseTrace(
            phase="stream:update", backend=self.config.backend, n_workers=1
        )
        with record_into(self._sws, trace.counters):
            self._update(x, block_ssvd)
        trace.seconds = time.perf_counter() - start
        self.traces_.append(trace)
        self.t_seen_ += int(x.shape[-1])
        self.n_updates_ += 1
        return self

    def _update(self, x: np.ndarray, block_ssvd: SliceSVD) -> None:
        """Age, window and append the block; re-derive the trailing factors."""
        per_step = int(np.prod(x.shape[2:-1], dtype=np.int64)) if x.ndim > 3 else 1
        t_new = int(x.shape[-1])
        sws = self._sws
        first = sws.num_slices == 0

        with Timer() as t_init:
            # Decay first: the stored Σ_l represent history, which has aged
            # by the incoming block's extent.
            if not first and self.decay is not None and float(self.decay) < 1.0:
                sws.decay(float(self.decay) ** t_new)

            # Window: evict the oldest steps so extent never exceeds window.
            if self.window is not None:
                w_cap = int(self.window)
                if t_new > w_cap:
                    block_ssvd = _tail_slices(block_ssvd, w_cap, per_step)
                    t_live = w_cap
                else:
                    t_live = t_new
                evict_steps = max(0, sws.extent + t_live - w_cap)
                sws.evict(evict_steps * per_step)

            eff = self._effective_ranks(
                x.shape[:-1] + (sws.extent + block_ssvd.shape[-1],)
            )
            if first:
                a1 = slice_plane_factor(block_ssvd, eff[0])
                a2 = slice_plane_factor(block_ssvd, eff[1], right=True)
            else:
                a1, a2 = sws.factors
            sws.append(block_ssvd, a1, a2)
        self.timings_.add("initialization", t_init.seconds)

        with Timer() as t_iter:
            err = self._trailing_sweeps(eff)
        self.timings_.add("iteration", t_iter.seconds)
        self.history_.append(err)
        self._watchdog(err, eff)

    def _trailing_sweeps(self, eff: Sequence[int]) -> float:
        """HOOI sweeps over the cached W: refresh modes >= 3 and the core.

        Every quantity touched lives in the tiny ``(J1, J2, …)`` projected
        space; the only T-sized object is the temporal unfolding
        ``(T, J1·J2·…)``, whose Gram-trick SVD costs O(T·J²) — the O(T·I²K)
        sweep work of a full ALS refit never happens here.
        """
        sws = self._sws
        w = sws.w_tensor()
        order = len(self.ranks)
        trailing = list(range(2, order))
        mats: dict[int, np.ndarray] = {}
        n_sweeps = self.sweeps_per_update if len(trailing) > 1 else 1
        for _ in range(n_sweeps):
            for n in trailing:
                others = [m for m in trailing if m != n and m in mats]
                z = (
                    multi_mode_product(
                        w, [mats[m] for m in others], others, transpose=True
                    )
                    if others
                    else w
                )
                mats[n] = leading_left_singular_vectors(unfold(z, n), eff[n])
        core = multi_mode_product(
            w, [mats[m] for m in trailing], trailing, transpose=True
        )
        a1, a2 = sws.factors
        self.result_ = TuckerResult(
            core=core,
            factors=[a1, a2] + [mats[n] for n in trailing],
            elapsed=self.timings_.total,
        )
        return core_based_error(sws.norm_squared(), core)

    def _watchdog(self, err: float, eff: Sequence[int]) -> None:
        """EWMA error budget: full factor refresh when drift exceeds it."""
        if self._baseline is None or self._ewma is None:
            self._baseline = err
            self._ewma = err
            return
        self._ewma = _EWMA_ALPHA * err + (1.0 - _EWMA_ALPHA) * self._ewma
        if self._ewma <= self._baseline * (1.0 + self.drift_budget):
            return
        start = time.perf_counter()
        counters = self._full_refresh(eff)
        self.watchdog_triggers_ += 1
        self._baseline = self._ewma = self.history_[-1]
        self.traces_.append(
            PhaseTrace(
                phase="stream:watchdog",
                backend=self.config.backend,
                n_workers=1,
                seconds=time.perf_counter() - start,
                counters=counters,
            )
        )

    def _full_refresh(self, eff: Sequence[int]) -> KernelStats:
        """Re-derive every factor from the live window (O(window), by budget).

        This is the selective-recompression escape hatch: fresh
        initialization plus warm ALS sweeps over the live slices, after
        which the workspace's projection caches are rebuilt under the new
        factors.  The refresh's error replaces the update's entry in
        ``history_``.
        """
        sws = self._sws
        live = sws.slice_svd()
        _, factors = initialize(live, eff)
        with Timer() as t_iter:
            outcome = self._pipeline.iterate(live, tuple(eff), factors)
        self.timings_.add("iteration", t_iter.seconds)
        self.kernel_stats_.merge(outcome.kernel_stats)
        self.result_ = TuckerResult(
            core=outcome.core,
            factors=outcome.factors,
            elapsed=self.timings_.total,
        )
        self.history_[-1] = (
            outcome.errors[-1] if outcome.errors else float("nan")
        )
        sws.recompute(outcome.factors[0], outcome.factors[1])
        return outcome.kernel_stats

    # -- revision ----------------------------------------------------------------
    def revise(self, start_time: int, block: np.ndarray) -> "StreamingDTucker":
        """Overwrite previously ingested timesteps with corrected data.

        Late-arriving corrections are a fact of temporal stores.  The block
        covering timesteps ``[start_time, start_time + T)`` is re-compressed
        and spliced over the stale slices (exact norm bookkeeping via
        per-slice norms), recomputing only their projection rows; then the
        trailing factors are refreshed and the drift watchdog judges the
        new error as after an update (a correction can move the data as
        far as drift does).  No other historical data is touched.  With a sliding window, ``start_time`` indexes into the
        *live window* (0 = oldest retained step).

        Parameters
        ----------
        start_time:
            First timestep (last-mode index) to overwrite.
        block:
            Corrected data; shape must match the ingested tensor on every
            mode but the last, and fit inside the current extent.

        Returns
        -------
        StreamingDTucker
            ``self``, updated.
        """
        self._require_fitted()
        x = as_tensor(block, min_order=len(self.ranks), name="block")
        accumulated = self.shape_
        if x.shape[:-1] != accumulated[:-1]:
            raise ShapeError(
                f"block shape {x.shape} incompatible with accumulated "
                f"shape {accumulated} (all modes but the last must match)"
            )
        t0 = int(start_time)
        if not (0 <= t0 and t0 + x.shape[-1] <= accumulated[-1]):
            raise ShapeError(
                f"timesteps [{t0}, {t0 + x.shape[-1]}) outside the ingested "
                f"extent {accumulated[-1]}"
            )
        block_ssvd = self._compress(x, self.slice_svd_.rank)
        self._sws.replace(t0 * self._sws.per_step, block_ssvd)
        eff = self._effective_ranks(self._sws.shape)
        with Timer() as t_iter:
            err = self._trailing_sweeps(eff)
        self.timings_.add("iteration", t_iter.seconds)
        self.history_.append(err)
        self._watchdog(err, eff)
        return self

    # -- backpressure ingest ------------------------------------------------------
    def ingest_queue(self, *, depth: int = 2) -> IngestQueue:
        """A bounded hand-off feeding :meth:`partial_fit` with backpressure.

        ``put(block)`` blocks once ``depth`` blocks are accepted but not
        yet fitted, so a fast producer can never queue unbounded raw data.
        Fitter exceptions re-raise on the producer's next ``put`` (or on
        ``join``/``close``).  Close the queue (or use it as a context
        manager) to drain and stop the consumer thread; the accumulated
        ``put_wait_seconds`` is folded into this model's telemetry as a
        ``stream:ingest`` trace at close time.
        """
        owner = self

        class _TracingQueue(IngestQueue):
            def close(self) -> None:
                was_closed = self._closed
                super().close()
                if not was_closed:
                    trace = PhaseTrace(
                        phase="stream:ingest",
                        backend=owner.config.backend,
                        n_workers=1,
                        seconds=self.consume_seconds,
                        n_tasks=self.n_done,
                    )
                    trace.annotate_io(wait_seconds=self.put_wait_seconds)
                    owner.traces_.append(trace)

        return _TracingQueue(self.partial_fit, depth=depth)

    # -- persistence --------------------------------------------------------------
    def save(self, path: "str | object", *, overwrite: bool = False):
        """Persist the model as a :class:`~repro.store.ModelStore` directory.

        The standard store payloads (compressed slices, Tucker result,
        config manifest) are written exactly as :meth:`FitPipeline.fit`
        would, so the directory serves queries like any other store.  A
        ``streaming/`` sidecar additionally records the ingest state —
        window/decay bookkeeping, watchdog EWMA and RNG stream position —
        so :meth:`load` resumes ingestion exactly where this instance
        stopped, without refitting.

        Returns
        -------
        ModelStore
        """
        self._require_fitted()
        from pathlib import Path

        from ..store.format import _atomic_write_json
        from ..store.store import ModelStore

        store = ModelStore.save(
            path,
            slice_svd=self.slice_svd_,
            result=self.result_,
            config=self.config,
            timings=self.timings_,
            history=self.history_,
            n_iters=self.n_updates_,
            kernel_stats=self.kernel_stats_,
            appends=max(0, self.n_updates_ - 1),
            overwrite=overwrite,
        )
        sdir = Path(store.path) / _STREAM_DIR
        sdir.mkdir(parents=True, exist_ok=True)
        state: dict[str, object] = {
            "format": "repro-streaming-state",
            "version": 1,
            "ranks": [int(r) for r in self.ranks],
            "slice_rank": None if self.slice_rank is None else int(self.slice_rank),
            "sweeps_per_update": int(self.sweeps_per_update),
            "window": None if self.window is None else int(self.window),
            "decay": None if self.decay is None else float(self.decay),
            "drift_budget": self.drift_budget,
            "n_updates": int(self.n_updates_),
            "t_seen": int(self.t_seen_),
            "watchdog_triggers": int(self.watchdog_triggers_),
            "ewma": self._ewma,
            "baseline": self._baseline,
            "rng_state": self._rng.bit_generator.state,
        }
        _atomic_write_json(sdir / _STREAM_STATE, state)
        return store

    @classmethod
    def load(
        cls, path: "str | object", *, engine: ExecutionBackend | None = None
    ) -> "StreamingDTucker":
        """Resume a streaming model persisted with :meth:`save`.

        Restores the compressed window, factors, watchdog state and the
        RNG stream position; the projection caches are rebuilt once at load
        time (O(window) — a restart cost, not a per-update one), after
        which :meth:`partial_fit` continues with O(block) updates.  Streams
        saved by the retired ``"refit"`` and ``"sketch"`` modes resume in
        the one mode: the sidecar's ``update`` entry and sketch payloads
        are ignored.
        """
        import json
        from pathlib import Path

        from ..store.store import ModelStore

        store = ModelStore(path)
        sdir = Path(store.path) / _STREAM_DIR
        state_path = sdir / _STREAM_STATE
        if not state_path.exists():
            raise StoreFormatError(
                f"store at {store.path} has no {_STREAM_DIR}/ state; it was "
                "not saved by StreamingDTucker.save (use ModelStore directly)"
            )
        with open(state_path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        if state.get("format") != "repro-streaming-state":
            raise StoreFormatError(
                f"unrecognised streaming state at {state_path}"
            )
        config = store.config
        model = cls(
            [int(r) for r in state["ranks"]],
            slice_rank=state.get("slice_rank"),
            sweeps_per_update=int(state["sweeps_per_update"]),
            config=config,
            engine=engine,
        )
        ssvd = store.load_slice_svd()
        result = store.load_result()
        factors = [np.asarray(a, dtype=float) for a in result.factors]
        model.result_ = TuckerResult(
            core=np.asarray(result.core, dtype=float),
            factors=factors,
            elapsed=result.elapsed,
        )
        model._sws.append(ssvd, factors[0], factors[1])
        model.n_updates_ = int(state["n_updates"])
        model.t_seen_ = int(state.get("t_seen", ssvd.shape[-1]))
        model.watchdog_triggers_ = int(state.get("watchdog_triggers", 0))
        model._ewma = state.get("ewma")
        model._baseline = state.get("baseline")
        fit_meta = store.manifest.get("fit", {})
        model.history_ = [float(e) for e in fit_meta.get("history", [])]
        rng_state = state.get("rng_state")
        if rng_state is not None:
            model._rng.bit_generator.state = rng_state
        return model
