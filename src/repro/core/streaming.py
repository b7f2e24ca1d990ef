"""Streaming extension: incremental D-Tucker over a growing temporal mode.

The ICDE paper ends with extending D-Tucker beyond the one-shot setting as
future work (realised by the authors' later follow-ups).  This module
implements the streaming variant that falls out of the slice
representation: because the slice index runs in Fortran order over modes
``3..N``, the *last* mode varies slowest — so a new temporal block appended
along the last mode contributes a contiguous run of *new slices* and nothing
else changes.

Three update modes (``DTuckerConfig.update``):

``"refit"`` (default)
    Compress only the new block, append, then warm-start full ALS sweeps
    over the entire accumulated :class:`~repro.core.slice_svd.SliceSVD`.
    Bit-identical to the historical behaviour; per-update cost grows with
    the accumulated extent T.
``"incremental"``
    Carry a :class:`~repro.kernels.workspace.StreamingWorkspace` across
    updates: the per-slice projections ``A(1)ᵀU_l``, ``V_lᵀA(2)`` and the
    ``W`` stack of historical slices are cached and only the new block's
    rows are computed, so each update costs O(block) — not O(T).  The
    non-temporal factors stay fixed between updates (the drift watchdog
    refreshes them when the error budget is exceeded); the temporal and
    any intermediate factors are re-derived each update from the cached
    ``W`` tensor, whose cheap HOOI sweeps touch only J-sized quantities.
``"sketch"``
    Incremental, plus bounded frequent-directions sketches of the stacked
    ``[U_l Σ_l]`` / ``[Σ_l V_lᵀ]`` streams
    (:class:`~repro.linalg.FrequentDirections`).  Every update refreshes
    the non-temporal factors from the sketches and re-expresses the cached
    projections with the small rotation ``R = A_oldᵀ A_new`` — exact when
    the refresh stays in the old column space, with the residual tracked
    by the watchdog.

Windowing (``window=N`` — evict the oldest temporal steps in O(evicted))
and exponential decay (``decay=γ`` — folded into the stored ``Σ_l``
scaling) bound long-running services.  An EWMA drift watchdog
(``drift_budget``) triggers a full factor refresh over the live window
when the estimated error drifts beyond budget, and
:meth:`StreamingDTucker.ingest_queue` provides a bounded, blocking-put
ingest pipeline (backpressure) built on
:class:`~repro.engine.pipeline.IngestQueue`.  See ``docs/streaming.md``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from dataclasses import replace

from ..engine import ExecutionBackend, IngestQueue
from ..engine.array_api import resolve_device
from ..engine.trace import PhaseTrace
from ..exceptions import NotFittedError, RankError, ShapeError, StoreFormatError
from ..kernels.stats import KernelStats
from ..kernels.workspace import StreamingWorkspace, SweepWorkspace
from ..linalg.frequent_directions import FrequentDirections
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
from .sources import BlockSource, compress_source

__all__ = ["StreamingDTucker"]

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


def _sketch_rows(block: SliceSVD) -> tuple[np.ndarray, np.ndarray]:
    """The block's scaled basis columns as frequent-directions row batches.

    Mode 1 rows are the columns of ``[U_1 Σ_1 ⋯ U_L Σ_L]`` (each in
    ``R^{I1}``), mode 2 rows the columns of ``[V_1 Σ_1 ⋯ V_L Σ_L]`` — the
    exact matrices the batch initializer takes leading singular vectors of.
    """
    scaled_u = block.u * block.s[:, None, :]  # (L, I1, K)
    rows1 = scaled_u.transpose(0, 2, 1).reshape(-1, block.slice_shape[0])
    scaled_vt = block.s[:, :, None] * block.vt  # (L, K, I2)
    rows2 = scaled_vt.reshape(-1, block.slice_shape[1])
    return rows1, rows2


class StreamingDTucker:
    """Incrementally maintained Tucker decomposition of a temporal tensor.

    The temporal mode must be the *last* mode; slice modes are fixed to
    ``(0, 1)`` (transpose the data first if needed).

    Parameters
    ----------
    ranks:
        Target Tucker ranks, one per mode of the full (growing) tensor.
    slice_rank:
        Per-slice compression rank (default ``max(ranks[0], ranks[1])``).
    sweeps_per_update:
        ALS sweeps run after every :meth:`partial_fit` (small by design —
        warm starts converge in a few sweeps).
    seed:
        Seed for all randomness; overrides ``config.seed`` when not ``None``.
    config:
        Solver configuration (randomized-SVD knobs, tolerance, execution
        backend, and the streaming fields ``update`` / ``window`` /
        ``decay`` / ``sketch_size`` / ``drift_budget``); the ``max_iters``
        field is ignored in favour of ``sweeps_per_update``.
    engine:
        Optional live :class:`~repro.engine.ExecutionBackend` reused across
        updates (never closed by this class).
    update, window, decay, sketch_size, drift_budget:
        Per-instance overrides of the corresponding config fields (``None``
        defers to the config).  See the module docstring and
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
        Cache accounting accumulated across all updates; incremental modes
        add the ``stream:proj`` / ``stream:rotate`` counters (see
        :mod:`repro.kernels`).
    watchdog_triggers_ : int
        Full factor refreshes forced by the drift watchdog.
    traces_ : list of PhaseTrace
        Per-update (and per-watchdog-refresh) telemetry records.
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
        sketch_size: int | None = None,
        drift_budget: float | None = None,
    ) -> None:
        self.ranks = tuple(int(r) for r in ranks)
        if len(self.ranks) < 3:
            raise ShapeError(
                "StreamingDTucker needs an order >= 3 tensor "
                f"(got {len(self.ranks)} ranks); the last mode is temporal"
            )
        self.slice_rank = slice_rank
        self.sweeps_per_update = check_positive_int(
            sweeps_per_update, name="sweeps_per_update"
        )
        cfg = config if config is not None else DTuckerConfig()
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        overrides: dict[str, object] = {}
        if update is not None:
            overrides["update"] = update
        if window is not None:
            overrides["window"] = window
        if decay is not None:
            overrides["decay"] = decay
        if sketch_size is not None:
            overrides["sketch_size"] = sketch_size
        if drift_budget is not None:
            overrides["drift_budget"] = drift_budget
        if overrides:
            cfg = replace(cfg, **overrides)
        # Every update runs exactly sweeps_per_update warm sweeps.
        self.config = replace(cfg, max_iters=self.sweeps_per_update)
        self.update = self.config.update
        self.window = self.config.window
        self.decay = self.config.decay
        self.drift_budget = self.config.drift_budget
        if self.update == "refit" and (
            self.window is not None
            or (self.decay is not None and float(self.decay) < 1.0)
        ):
            raise ShapeError(
                'window/decay require update="incremental" or "sketch"; '
                'update="refit" always refits the full accumulated history'
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
        self.traces_: list[PhaseTrace] = []
        self._ssvd: SliceSVD | None = None
        self._factors: list[np.ndarray] | None = None
        self._sws: StreamingWorkspace | None = None
        self._fd1: FrequentDirections | None = None
        self._fd2: FrequentDirections | None = None
        self._ewma: float | None = None
        self._baseline: float | None = None

    # -- accessors -------------------------------------------------------------
    def _fitted(self) -> bool:
        if self.update == "refit":
            return self._ssvd is not None
        return self._sws is not None and self._sws.num_slices > 0

    def _require_fitted(self) -> None:
        if not self._fitted():
            raise NotFittedError(
                "no data ingested yet; call partial_fit(block) first"
            )

    @property
    def slice_svd_(self) -> SliceSVD:
        self._require_fitted()
        if self.update == "refit":
            assert self._ssvd is not None
            return self._ssvd
        assert self._sws is not None
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
        if self._fitted():
            accumulated = self.shape_
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

        with Timer() as t_approx:
            # One generator (self._rng) spans all updates, so every block's
            # sketch continues the same stream the one-shot fit would use.
            block_ssvd = compress_source(
                BlockSource([x]),
                k,
                config=self.config,
                engine=self.engine,
                rng=self._rng,
            )
        self.timings_.add("approximation", t_approx.seconds)

        if self.update == "refit":
            self._refit_update(block_ssvd)
        else:
            self._stream_update(x, block_ssvd)
        self.t_seen_ += int(x.shape[-1])
        self.n_updates_ += 1
        return self

    # -- refit mode (historical behaviour, bit-identical) ----------------------
    def _refit_update(self, block_ssvd: SliceSVD) -> None:
        if self._ssvd is None:
            self._ssvd = block_ssvd
        else:
            self._ssvd = self._ssvd.append(block_ssvd)

        ranks = self._effective_ranks(self._ssvd.shape)
        # One workspace per update: the accumulated SliceSVD is a fresh
        # object after append, but within the update the temporal re-init's
        # projections warm the sweep caches (the first sweep's V^T A(2)
        # stack is a cache hit instead of a recompute).
        ws = SweepWorkspace(
            self._ssvd,
            module=resolve_device(None, config=self.config),
            compute_dtype=(
                np.float32
                if self.config.precision == "float32"
                else np.float64
            ),
        )
        with Timer() as t_init:
            if self._factors is None:
                _, factors = initialize(self._ssvd, ranks)
            else:
                factors = [a.copy() for a in self._factors[:-1]]
                # The temporal factor's row count changed: re-derive it from
                # the projected slice stack, exactly like the init phase.
                ws.update_factor(0, factors[0])
                ws.update_factor(1, factors[1])
                w = ws.w()
                temporal_mode = self._ssvd.order - 1
                factors.append(
                    leading_left_singular_vectors(
                        unfold(w, temporal_mode), ranks[-1]
                    )
                )
        self.timings_.add("initialization", t_init.seconds)

        with Timer() as t_iter:
            outcome = self._pipeline.iterate(
                self._ssvd, ranks, factors, workspace=ws
            )
        self.timings_.add("iteration", t_iter.seconds)
        if outcome.kernel_stats is not None:
            self.kernel_stats_.merge(outcome.kernel_stats)

        self._factors = outcome.factors
        self.result_ = TuckerResult(
            core=outcome.core,
            factors=outcome.factors,
            elapsed=self.timings_.total,
        )
        self.history_.append(outcome.errors[-1] if outcome.errors else float("nan"))

    # -- incremental / sketch modes --------------------------------------------
    def _stream_update(self, x: np.ndarray, block_ssvd: SliceSVD) -> None:
        start = time.perf_counter()
        per_step = int(np.prod(x.shape[2:-1], dtype=np.int64)) if x.ndim > 3 else 1
        t_new = int(x.shape[-1])
        first = self._sws is None or self._sws.num_slices == 0
        if self._sws is None:
            # The workspace tallies straight into kernel_stats_, so the
            # stream:proj / stream:rotate counters accumulate like every
            # other kernel counter.
            self._sws = StreamingWorkspace(stats=self.kernel_stats_)
        sws = self._sws
        proj_hits0 = self.kernel_stats_.hits_for("stream:proj")
        proj_miss0 = self.kernel_stats_.misses_for("stream:proj")

        with Timer() as t_init:
            # Decay first: the stored Σ_l (and sketches) represent history,
            # which has aged by the incoming block's extent.
            if not first and self.decay is not None and float(self.decay) < 1.0:
                factor = float(self.decay) ** t_new
                sws.decay(factor)
                if self._fd1 is not None:
                    self._fd1.scale(factor)
                    assert self._fd2 is not None
                    self._fd2.scale(factor)

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
                if self.update == "sketch":
                    i1, i2 = block_ssvd.slice_shape
                    ell = self.config.sketch_size
                    if ell is None:
                        ell = 2 * block_ssvd.rank + int(self.config.oversampling)
                    self._fd1 = FrequentDirections(i1, min(int(ell), i1))
                    self._fd2 = FrequentDirections(i2, min(int(ell), i2))
                    rows1, rows2 = _sketch_rows(block_ssvd)
                    self._fd1.update(rows1)
                    self._fd2.update(rows2)
            else:
                if self.update == "sketch":
                    assert self._fd1 is not None and self._fd2 is not None
                    rows1, rows2 = _sketch_rows(block_ssvd)
                    self._fd1.update(rows1)
                    self._fd2.update(rows2)
                    sws.rotate(
                        self._fd1.leading_directions(eff[0]),
                        self._fd2.leading_directions(eff[1]),
                    )
                a1, a2 = sws.factors
            sws.append(block_ssvd, a1, a2)
        self.timings_.add("initialization", t_init.seconds)

        with Timer() as t_iter:
            err = self._trailing_sweeps(eff)
            self.history_.append(err)
            if self.drift_budget is not None:
                self._watchdog(err, eff)
        self.timings_.add("iteration", t_iter.seconds)

        trace = PhaseTrace(
            phase="stream:update",
            backend=self.config.backend,
            n_workers=1,
            seconds=time.perf_counter() - start,
        )
        trace.annotate_cache(
            hits=self.kernel_stats_.hits_for("stream:proj") - proj_hits0,
            misses=self.kernel_stats_.misses_for("stream:proj") - proj_miss0,
        )
        self.traces_.append(trace)

    def _trailing_sweeps(self, eff: Sequence[int]) -> float:
        """HOOI sweeps over the cached W: refresh modes >= 3 and the core.

        Every quantity touched lives in the tiny ``(J1, J2, …)`` projected
        space; the only T-sized object is the temporal unfolding
        ``(T, J1·J2·…)``, whose Gram-trick SVD costs O(T·J²) — the O(T·I²K)
        sweep work of a refit never happens here.
        """
        sws = self._sws
        assert sws is not None
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
        self._factors = [a1, a2] + [mats[n] for n in trailing]
        err = core_based_error(sws.norm_squared(), core)
        self.result_ = TuckerResult(
            core=core,
            factors=self._factors,
            elapsed=self.timings_.total,
        )
        return err

    def _watchdog(self, err: float, eff: Sequence[int]) -> None:
        """EWMA error budget: full factor refresh when drift exceeds it."""
        if self._baseline is None or self._ewma is None:
            self._baseline = err
            self._ewma = err
            return
        self._ewma = _EWMA_ALPHA * err + (1.0 - _EWMA_ALPHA) * self._ewma
        budget = self._baseline * (1.0 + float(self.drift_budget))
        if self._ewma <= budget:
            return
        start = time.perf_counter()
        refreshed = self._full_refresh(eff)
        self.watchdog_triggers_ += 1
        self.history_[-1] = refreshed
        self._baseline = refreshed
        self._ewma = refreshed
        trace = PhaseTrace(
            phase="stream:watchdog",
            backend=self.config.backend,
            n_workers=1,
            seconds=time.perf_counter() - start,
        )
        self.traces_.append(trace)

    def _full_refresh(self, eff: Sequence[int]) -> float:
        """Re-derive every factor from the live window (O(window), by budget).

        This is the selective-recompression escape hatch: fresh
        initialization plus full warm sweeps over the live slices, then the
        workspace's projection caches are rebuilt under the new factors and
        (in sketch mode) the frequent-directions sketches are reseeded from
        the live window so evicted history stops influencing refreshes.
        """
        sws = self._sws
        assert sws is not None
        live = sws.slice_svd()
        _, factors = initialize(live, eff)
        outcome = self._pipeline.iterate(live, tuple(eff), factors)
        if outcome.kernel_stats is not None:
            self.kernel_stats_.merge(outcome.kernel_stats)
        sws.recompute(outcome.factors[0], outcome.factors[1])
        if self.update == "sketch" and self._fd1 is not None:
            assert self._fd2 is not None
            fd1 = FrequentDirections(self._fd1.dim, self._fd1.sketch_size)
            fd2 = FrequentDirections(self._fd2.dim, self._fd2.sketch_size)
            rows1, rows2 = _sketch_rows(live)
            fd1.update(rows1)
            fd2.update(rows2)
            self._fd1, self._fd2 = fd1, fd2
        self._factors = outcome.factors
        err = outcome.errors[-1] if outcome.errors else float("nan")
        self.result_ = TuckerResult(
            core=outcome.core,
            factors=outcome.factors,
            elapsed=self.timings_.total,
        )
        return err

    # -- revision ----------------------------------------------------------------
    def revise(self, start_time: int, block: np.ndarray) -> "StreamingDTucker":
        """Overwrite previously ingested timesteps with corrected data.

        Late-arriving corrections are a fact of temporal stores.  The block
        covering timesteps ``[start_time, start_time + T)`` is re-compressed
        and spliced over the stale slices (exact norm bookkeeping via
        per-slice norms), then the factors are refreshed.  No other
        historical data is touched.  With a sliding window, ``start_time``
        indexes into the *live window* (0 = oldest retained step); in
        sketch mode the frequent-directions summaries keep the superseded
        slices' energy until the next watchdog refresh.

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
        rank = self.slice_svd_.rank
        with Timer() as t_approx:
            block_ssvd = compress_source(
                BlockSource([x]),
                rank,
                config=self.config,
                engine=self.engine,
                rng=self._rng,
            )
        self.timings_.add("approximation", t_approx.seconds)
        # Slices per timestep = product of the intermediate mode sizes.
        per_step = int(np.prod(accumulated[2:-1], dtype=np.int64)) if (
            len(accumulated) > 3
        ) else 1

        if self.update == "refit":
            assert self._ssvd is not None
            self._ssvd = self._ssvd.replace(t0 * per_step, block_ssvd)
            ranks = self._effective_ranks(self._ssvd.shape)
            assert self._factors is not None
            with Timer() as t_iter:
                outcome = self._pipeline.iterate(
                    self._ssvd, ranks, [a.copy() for a in self._factors]
                )
            self.timings_.add("iteration", t_iter.seconds)
            if outcome.kernel_stats is not None:
                self.kernel_stats_.merge(outcome.kernel_stats)
            self._factors = outcome.factors
            self.result_ = TuckerResult(
                core=outcome.core,
                factors=outcome.factors,
                elapsed=self.timings_.total,
            )
            self.history_.append(
                outcome.errors[-1] if outcome.errors else float("nan")
            )
            return self

        assert self._sws is not None
        self._sws.replace(t0 * per_step, block_ssvd)
        eff = self._effective_ranks(self._sws.shape)
        with Timer() as t_iter:
            err = self._trailing_sweeps(eff)
        self.timings_.add("iteration", t_iter.seconds)
        self.history_.append(err)
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
        update mode, window/decay bookkeeping, watchdog EWMA, RNG stream
        position and the frequent-directions sketches — so
        :meth:`load` resumes ingestion exactly where this instance stopped,
        without refitting.

        Returns
        -------
        ModelStore
        """
        self._require_fitted()
        from pathlib import Path

        from ..store.format import _atomic_save_array, _atomic_write_json
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
            "update": self.update,
            "window": None if self.window is None else int(self.window),
            "decay": None if self.decay is None else float(self.decay),
            "drift_budget": (
                None if self.drift_budget is None else float(self.drift_budget)
            ),
            "n_updates": int(self.n_updates_),
            "t_seen": int(self.t_seen_),
            "watchdog_triggers": int(self.watchdog_triggers_),
            "ewma": self._ewma,
            "baseline": self._baseline,
            "rng_state": self._rng.bit_generator.state,
        }
        for name, fd in (("sketch1", self._fd1), ("sketch2", self._fd2)):
            if fd is None:
                continue
            fd_state = fd.state()
            _atomic_save_array(sdir / f"{name}.npy", fd_state.pop("buffer"))
            state[name] = fd_state
        _atomic_write_json(sdir / _STREAM_STATE, state)
        return store

    @classmethod
    def load(
        cls, path: "str | object", *, engine: ExecutionBackend | None = None
    ) -> "StreamingDTucker":
        """Resume a streaming model persisted with :meth:`save`.

        Restores the compressed window, factors, sketches, watchdog state
        and the RNG stream position; for the incremental/sketch modes the
        projection caches are rebuilt once at load time (O(window) — a
        restart cost, not a per-update one), after which :meth:`partial_fit`
        continues with O(block) updates.
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
        model._factors = factors
        model.result_ = TuckerResult(
            core=np.asarray(result.core, dtype=float),
            factors=factors,
            elapsed=result.elapsed,
        )
        if model.update == "refit":
            model._ssvd = ssvd
        else:
            sws = StreamingWorkspace(stats=model.kernel_stats_)
            sws.append(ssvd, factors[0], factors[1])
            model._sws = sws
            for name, attr in (("sketch1", "_fd1"), ("sketch2", "_fd2")):
                meta = state.get(name)
                if meta is None:
                    continue
                buffer = np.load(sdir / f"{name}.npy")
                setattr(
                    model,
                    attr,
                    FrequentDirections.from_state({**meta, "buffer": buffer}),
                )
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
