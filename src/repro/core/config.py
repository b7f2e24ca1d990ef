"""Configuration object for the D-Tucker solver family.

Collecting the knobs in a frozen dataclass keeps the solver signatures
honest, makes configurations hashable/loggable, and gives ablation
benchmarks a single place to vary parameters.  :class:`DTuckerConfig` is
also the one route to a solver knob: every public entry point
(``DTucker``, ``decompose``, ``compress``, ``tucker_als``, the other
baselines, the streaming and sparse variants) accepts ``config=``, and a
variant of a config is ``dataclasses.replace(cfg, field=value)``.  Only
``seed=`` and :class:`~repro.core.streaming.StreamingDTucker`'s streaming
fields are also accepted as keywords.

All validation happens in ``__post_init__`` so a bad ``oversampling`` or
``tol`` fails at *config construction time* with a message naming the
field — never deep inside a phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import BackendError, ShapeError

__all__ = ["DTuckerConfig"]

#: Backend names accepted by :attr:`DTuckerConfig.backend` (``"auto"``
#: defers to the ``REPRO_BACKEND`` environment variable, then serial).
_BACKEND_CHOICES = ("auto", "serial", "thread", "process")

#: Strategies accepted by :attr:`DTuckerConfig.strategy` for the
#: approximation phase (see :mod:`repro.kernels.compress_plan`).
_STRATEGY_CHOICES = ("rsvd", "auto", "gram", "exact")

#: Compute precisions accepted by :attr:`DTuckerConfig.precision`.
_PRECISION_CHOICES = ("float64", "float32")

#: Scheduling policies accepted by :attr:`DTuckerConfig.schedule` (``"auto"``
#: lets the engine pick: dynamic when oversplitting can help, else static;
#: the ``REPRO_SCHEDULE`` environment variable overrides ``"auto"``).
_SCHEDULE_CHOICES = ("auto", "static", "dynamic")

#: Streaming update modes accepted by :attr:`DTuckerConfig.update` (see
#: :class:`repro.core.streaming.StreamingDTucker` and ``docs/streaming.md``).
_UPDATE_CHOICES = ("refit", "incremental", "sketch")


def _device_choices() -> tuple[str, ...]:
    # Imported lazily: engine.array_api is independent of config, but the
    # config module loads very early and should not pull the facade eagerly.
    from ..engine.array_api import DEVICE_NAMES

    return DEVICE_NAMES


@dataclass(frozen=True)
class DTuckerConfig:
    """Hyper-parameters of the three D-Tucker phases plus execution knobs.

    Attributes
    ----------
    oversampling:
        Extra test vectors for the randomized slice SVDs (approximation
        phase).  Larger values sharpen the compression at linear extra cost.
    power_iterations:
        Subspace iterations for the randomized slice SVDs.
    max_iters:
        ALS sweep budget for the iteration phase.
    tol:
        Convergence tolerance: sweeps stop when the change of the estimated
        reconstruction error between consecutive sweeps drops below ``tol``.
    exact_slice_svd:
        Use exact truncated SVDs per slice instead of randomized ones —
        slower, used as the accuracy reference in ablations.  Overrides
        ``strategy``.
    strategy:
        Slice-SVD algorithm for the approximation phase.  ``"rsvd"``
        (default) is the historical dispatch — randomized SVD with the
        small-short-side Gram shortcut.  Its slice factors are checked
        against the randomized-SVD error bound, not against earlier
        releases; for a fixed seed they are bit-identical across
        backends, chunkings, blockings, shards and devices.  ``"gram"``
        and ``"exact"`` force those algorithms; ``"auto"`` selects per
        input from a flop-cost model over ``(I1, I2, K, dtype)`` — see
        :func:`repro.kernels.compress_plan.plan_compression`.
    precision:
        Compute dtype for the approximation phase: ``"float64"``
        (default) or ``"float32"`` (roughly half the memory traffic; norms
        and error bookkeeping still accumulate in float64).  The
        compressed representation is always stored in float64.
    seed:
        Seed for all randomness (slice SVD test matrices).  ``None`` draws
        fresh entropy.
    verbose:
        Emit per-sweep log records via :mod:`logging` (logger ``repro``).
    backend:
        Execution backend for the per-slice/per-mode hot paths:
        ``"serial"``, ``"thread"``, ``"process"``, or ``"auto"`` (default —
        honours the ``REPRO_BACKEND`` environment override, else serial).
        See :mod:`repro.engine`.
    n_workers:
        Worker count for parallel backends; ``None`` defers to
        ``REPRO_WORKERS``, then the CPU count.
    chunk_size:
        Items per engine task; ``None`` splits work evenly across workers
        (one chunk total on the serial backend, reproducing the unchunked
        computation exactly).
    device:
        Array namespace / device the compute phases run on: ``"auto"``
        (default — honours the ``REPRO_DEVICE`` environment override, else
        CPU/NumPy), ``"cpu"`` / ``"numpy"`` (the host NumPy path),
        ``"cuda"`` (first available of torch-CUDA and CuPy), or
        an explicit namespace name (``"torch"``, ``"torch-cuda"``,
        ``"cupy"``, ``"array-api-strict"``).  Non-NumPy namespaces are
        optional extras resolved lazily; requesting one that is not
        installed raises :class:`~repro.exceptions.BackendError` with an
        actionable message.  See ``docs/devices.md``.
    schedule:
        Chunk-scheduling policy: ``"static"`` (one cost-balanced chunk per
        worker), ``"dynamic"`` (oversplit task queue drained
        work-stealing-style by the persistent pools), or ``"auto"``
        (default — dynamic exactly when more than one worker and more
        items than workers; honours the ``REPRO_SCHEDULE`` environment
        override).  Purely a performance knob: results are bit-identical
        under every policy.  See ``docs/performance.md``.
    update:
        Streaming update mode for :class:`~repro.core.streaming.StreamingDTucker`:
        ``"refit"`` (default — full ALS refit over all accumulated
        slices), ``"incremental"`` (cached projections carried across
        updates, O(block) per append), or
        ``"sketch"`` (incremental plus frequent-directions refresh of the
        non-temporal factors).  Ignored by the batch fit paths.  See
        ``docs/streaming.md``.
    window:
        Sliding-window length for streaming fits: keep only the newest
        ``window`` temporal steps, evicting the oldest in O(evicted).
        ``None`` (default) keeps the full history.
    decay:
        Exponential down-weighting ``γ ∈ (0, 1]`` per streamed temporal
        step, folded into the stored ``Σ_l`` scaling.  ``None`` (default)
        means no decay (equivalent to ``1.0``).
    sketch_size:
        Frequent-directions sketch rows ``ℓ`` for ``update="sketch"``;
        ``None`` (default) picks ``2·K + oversampling`` at first ingest.
    drift_budget:
        Relative error-drift budget for the streaming watchdog: when the
        EWMA of the per-update estimated error exceeds
        ``baseline · (1 + drift_budget)``, the solver performs a full
        factor refresh.  ``None`` (default) disables the watchdog.
    shards:
        Partition the input along the temporal mode into this many
        contiguous shards and fit them coordinator-style: compression runs
        shard-local and only the small ``(I1+I2+1)·K`` factor products
        cross shard boundaries.  ``None`` (default) and ``1`` keep the
        single-source path.  See ``docs/distributed.md``.
    """

    oversampling: int = 10
    power_iterations: int = 1
    max_iters: int = 50
    tol: float = 1e-4
    exact_slice_svd: bool = False
    strategy: str = "rsvd"
    precision: str = "float64"
    seed: int | None = None
    verbose: bool = False
    backend: str = "auto"
    n_workers: int | None = None
    chunk_size: int | None = None
    schedule: str = "auto"
    device: str = "auto"
    update: str = "refit"
    window: int | None = None
    decay: float | None = None
    sketch_size: int | None = None
    drift_budget: float | None = None
    shards: int | None = None

    def __post_init__(self) -> None:
        if int(self.oversampling) < 0:
            raise ShapeError(f"oversampling must be >= 0, got {self.oversampling}")
        if int(self.power_iterations) < 0:
            raise ShapeError(
                f"power_iterations must be >= 0, got {self.power_iterations}"
            )
        if int(self.max_iters) < 1:
            raise ShapeError(f"max_iters must be >= 1, got {self.max_iters}")
        if not float(self.tol) > 0.0:
            raise ShapeError(f"tol must be positive, got {self.tol}")
        if not isinstance(self.strategy, str) or self.strategy not in _STRATEGY_CHOICES:
            raise ShapeError(
                f"strategy must be one of {', '.join(_STRATEGY_CHOICES)}, "
                f"got {self.strategy!r}"
            )
        if not isinstance(self.precision, str) or self.precision not in _PRECISION_CHOICES:
            raise ShapeError(
                f"precision must be one of {', '.join(_PRECISION_CHOICES)}, "
                f"got {self.precision!r}"
            )
        if self.seed is not None and int(self.seed) != self.seed:
            raise ShapeError(f"seed must be an integer or None, got {self.seed!r}")
        if not isinstance(self.backend, str) or self.backend not in _BACKEND_CHOICES:
            raise BackendError(
                f"backend must be one of {', '.join(_BACKEND_CHOICES)}, "
                f"got {self.backend!r}"
            )
        if self.n_workers is not None and int(self.n_workers) < 1:
            raise ShapeError(f"n_workers must be >= 1 or None, got {self.n_workers}")
        if self.chunk_size is not None and int(self.chunk_size) < 1:
            raise ShapeError(f"chunk_size must be >= 1 or None, got {self.chunk_size}")
        if not isinstance(self.schedule, str) or self.schedule not in _SCHEDULE_CHOICES:
            raise BackendError(
                f"schedule must be one of {', '.join(_SCHEDULE_CHOICES)}, "
                f"got {self.schedule!r}"
            )
        if not isinstance(self.device, str) or self.device not in _device_choices():
            raise BackendError(
                f"device must be one of {', '.join(_device_choices())}, "
                f"got {self.device!r}"
            )
        if not isinstance(self.update, str) or self.update not in _UPDATE_CHOICES:
            raise ShapeError(
                f"update must be one of {', '.join(_UPDATE_CHOICES)}, "
                f"got {self.update!r}"
            )
        if self.window is not None and int(self.window) < 1:
            raise ShapeError(f"window must be >= 1 or None, got {self.window}")
        if self.decay is not None and not 0.0 < float(self.decay) <= 1.0:
            raise ShapeError(f"decay must be in (0, 1] or None, got {self.decay}")
        if self.sketch_size is not None and int(self.sketch_size) < 1:
            raise ShapeError(
                f"sketch_size must be >= 1 or None, got {self.sketch_size}"
            )
        if self.drift_budget is not None and not float(self.drift_budget) > 0.0:
            raise ShapeError(
                f"drift_budget must be positive or None, got {self.drift_budget}"
            )
        if self.shards is not None and int(self.shards) < 1:
            raise ShapeError(f"shards must be >= 1 or None, got {self.shards}")
