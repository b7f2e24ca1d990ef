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

#: Compute precisions accepted by :attr:`DTuckerConfig.precision`.
_PRECISION_CHOICES = ("float64", "float32")


@dataclass(frozen=True)
class DTuckerConfig:
    """Hyper-parameters of the three D-Tucker phases plus execution knobs.

    Attributes
    ----------
    oversampling:
        Extra test vectors for the randomized slice SVDs (approximation
        phase).  Larger values sharpen the compression at linear extra cost.
        With ``k = rank + oversampling``, a slab whose short side is at
        most ``2·k`` takes the Gram shortcut instead of a sketch; the
        other slabs take the randomized SVD (one rule, see
        :func:`repro.kernels.compress_plan.plan_compression`).  Slice
        factors are checked against the randomized-SVD error bound, and
        for a fixed seed they are bit-identical across backends,
        chunkings, blockings and shards.
    power_iterations:
        Subspace iterations for the randomized slice SVDs.  A one-shot
        fit (``DTucker.fit``, ``fit_from_file``, ``ShardCoordinator.fit``)
        compresses with none first and escalates to this many only when
        the compression residual dominates its error (see
        :mod:`repro.core.fit_pipeline`); streams, store appends and
        served queries always run this many.
    max_iters:
        ALS sweep budget for the iteration phase.
    tol:
        Convergence tolerance: sweeps stop when the change of the estimated
        reconstruction error between consecutive sweeps drops below ``tol``.
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
        Items per engine task; ``None`` makes one chunk on one worker
        (reproducing the unchunked computation exactly) and oversplits
        into equal-count chunks, ``OVERSPLIT`` per worker, on more.
        Results are bit-identical under every chunking.
    window:
        Sliding-window length for
        :class:`~repro.core.streaming.StreamingDTucker` (ignored by the
        batch fit paths; see ``docs/streaming.md``): keep only the newest
        ``window`` temporal steps, evicting the oldest in O(evicted).
        ``None`` (default) keeps the full history.
    decay:
        Exponential down-weighting ``γ ∈ (0, 1]`` per streamed temporal
        step, folded into the stored ``Σ_l`` scaling.  ``None`` (default)
        means no decay (equivalent to ``1.0``).
    drift_budget:
        Relative error-drift budget for the streaming watchdog: when the
        EWMA of the per-update estimated error exceeds
        ``baseline · (1 + drift_budget)``, the solver performs a full
        factor refresh.  The watchdog always runs; ``None`` (default)
        means :data:`repro.core.streaming.DRIFT_BUDGET` (0.05).
    """

    oversampling: int = 10
    power_iterations: int = 1
    max_iters: int = 50
    tol: float = 1e-4
    precision: str = "float64"
    seed: int | None = None
    verbose: bool = False
    backend: str = "auto"
    n_workers: int | None = None
    chunk_size: int | None = None
    window: int | None = None
    decay: float | None = None
    drift_budget: float | None = None

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
        if self.window is not None and int(self.window) < 1:
            raise ShapeError(f"window must be >= 1 or None, got {self.window}")
        if self.decay is not None and not 0.0 < float(self.decay) <= 1.0:
            raise ShapeError(f"decay must be in (0, 1] or None, got {self.decay}")
        if self.drift_budget is not None and not float(self.drift_budget) > 0.0:
            raise ShapeError(
                f"drift_budget must be positive or None, got {self.drift_budget}"
            )
