"""The single fit pipeline: compress → initialize → iterate, any source.

Every solver entry point — :meth:`DTucker.fit <repro.core.dtucker.DTucker.fit>`
(in-memory), :meth:`~repro.core.dtucker.DTucker.fit_from_file` (out-of-core),
:func:`~repro.core.sparse_dtucker.sparse_dtucker` (COO) and
:class:`~repro.core.streaming.StreamingDTucker` (temporal blocks) — is the
same three-phase algorithm over a different data source.  :class:`FitPipeline`
is that algorithm, written once: it drives :func:`~repro.core.sources
.compress_source` over any :class:`~repro.core.sources.SliceSource`, derives
starting factors, and owns the library's one and only
:func:`~repro.core.iteration.als_sweeps` call site (:meth:`FitPipeline.iterate`
— warm restarts, refits and streaming updates all go through it).

The entry points keep their historical signatures and semantics; they now
only adapt their inputs into a source and unpack the :class:`PipelineFit`
this module returns.

Power passes and the closing core
---------------------------------
A one-shot fit (:meth:`FitPipeline.fit`) compresses randomized-SVD slabs
with no power pass first.  After the sweeps it measures
:func:`residual_share`: when the compression residual, not the Tucker
ranks, dominates the error (``res / cfe > POWER_ESCALATION``), it frees
that compression and refits: it recompresses from the same draws with
``config.power_iterations`` passes, initializes and sweeps again.  The
decision (``power:hold`` / ``power:escalate``) and the signal
(``power:residual_share``) are in the fit's ``kernel_stats``.
Then one closing pass reads the source again and takes the exact core
``G = X ×ₙ Aₙᵀ`` (:func:`~repro.core.sources.exact_core`), so the fit
reports its exact error beside the compressed-domain estimate the ``tol``
test used.  Refits, streams and served queries have no raw data: they
keep the compressed-domain core and the stored ``power_iterations``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..engine import ExecutionBackend, backend_scope
from ..engine.trace import PhaseTrace
from ..exceptions import RankError, ShapeError
from ..kernels.stats import KernelStats
from ..metrics.timing import PhaseTimings, Timer
from ..tensor.norms import core_based_error
from ..tensor.random import default_rng
from ..validation import check_ranks
from .config import DTuckerConfig
from .initialization import initialize, random_initialize
from .iteration import IterationResult, als_sweeps
from .result import TuckerResult
from .slice_svd import SliceSVD
from .sources import SliceSource, compress_source, exact_core

__all__ = [
    "FitPipeline",
    "PipelineFit",
    "POWER_ESCALATION",
    "residual_share",
    "resolve_slice_rank",
]

logger = logging.getLogger("repro.core.dtucker")

#: The :func:`residual_share` above which a one-shot fit recompresses
#: with ``config.power_iterations`` power passes.  Measured without power
#: passes on the five paper stand-ins (seeds 1-10, small and default
#: scale): the inputs whose error a power pass does not move read at most
#: 3.48, airquality, which needs it, at least 8.25 (docs/performance.md).
POWER_ESCALATION = 5.5


def _orthonormalized(a: np.ndarray) -> np.ndarray:
    """``a``'s columns orthonormalized in float64, each keeping its direction.

    Sweeps in float32 leave factors orthonormal to float32 round-off only;
    ``‖X‖² − ‖G‖²`` is the exact error only for orthonormal factors.
    """
    q, r = np.linalg.qr(np.asarray(a, dtype=np.float64))
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


def residual_share(ssvd: SliceSVD, error: float) -> float:
    """The compression residual's share of a fit's error, ``res / cfe``.

    ``res = (‖X‖² − Σσ²)/‖X‖²`` is the energy the slice SVDs dropped (free
    from the stored norms) and ``cfe = error − res`` the compressed-domain
    part of the estimated ``error`` (the sweeps' last estimate).  A large
    share says that sharper slice SVDs, not other factors, would lower
    the error.  Finite: a ``cfe`` at round-off divides by ``eps``.
    """
    total = float(ssvd.norm_squared)
    res = max(total - float(np.vdot(ssvd.s, ssvd.s)), 0.0) / total
    return res / max(float(error) - res, float(np.finfo(np.float64).eps))


def resolve_slice_rank(
    shape: Sequence[int],
    j1: int,
    j2: int,
    slice_rank: int | None,
    *,
    strict: bool = True,
) -> int:
    """Resolve the per-slice compression rank ``K`` for a fit.

    The paper's choice is ``K = max(J1, J2)``; when one slice side is even
    smaller than that, ``K = min(I1, I2)`` makes the compression lossless,
    so the clamp never loses information.  ``strict=True`` (the one-shot
    solvers) rejects an explicit ``slice_rank`` below that floor;
    ``strict=False`` (streaming/sparse, historically lenient) accepts it.
    """
    i1, i2 = int(shape[0]), int(shape[1])
    needed = min(max(int(j1), int(j2)), min(i1, i2))
    if slice_rank is None:
        return needed
    k = int(slice_rank)
    if not strict:
        # Lenient callers pass K through untouched: an oversized explicit
        # rank then fails in compress_source with its uniform bound error.
        return k
    if k < needed:
        raise RankError(
            f"slice_rank={k} must be at least {needed} for ranks "
            f"({int(j1)}, {int(j2)}) on shape {tuple(int(d) for d in shape)}"
        )
    return min(k, min(i1, i2))


@dataclass
class PipelineFit:
    """Everything one :meth:`FitPipeline.fit` produced, ready to unpack.

    ``result`` is in the *source's* mode order — callers that permuted
    their tensor (``slice_modes``) permute it back themselves.
    """

    result: TuckerResult
    slice_svd: SliceSVD
    timings: PhaseTimings
    traces: list[PhaseTrace]
    kernel_stats: KernelStats | None
    history: list[float] = field(default_factory=list)
    converged: bool = False
    n_iters: int = 0
    #: Exact ``‖X − X̂‖²/‖X‖²`` of ``result`` (closing pass); ``history``
    #: holds the compressed-domain estimates the ``tol`` test used.
    exact_error: float | None = None
    #: The power passes ``slice_svd`` was compressed with: 0 for a fit
    #: that held, else ``config.power_iterations`` (``None``: no compression).
    power_iterations: int | None = None


class FitPipeline:
    """Compress → initialize → iterate over any :class:`SliceSource`.

    Parameters
    ----------
    ranks:
        Target Tucker ranks in the *source's* mode order, one per mode.
    slice_rank:
        Per-slice compression rank ``K`` (default ``max(ranks[0], ranks[1])``
        clamped to ``min(I1, I2)``).
    init:
        ``"svd"`` (paper) or ``"random"`` (ablation baseline).
    config:
        Solver configuration shared by all three phases.
    engine:
        Optional live :class:`~repro.engine.ExecutionBackend`, reused and
        never closed; ``None`` resolves per call from ``config``/environment.
    strict_slice_rank:
        ``True`` (the one-shot dense solvers) rejects an explicit
        ``slice_rank`` below the rank floor; ``False`` (sparse,
        historically lenient) accepts any positive value.

    Notes
    -----
    One :class:`numpy.random.Generator` threads through the whole fit
    (compression sketches first, then a random init if requested), so a
    fit is reproducible from ``config.seed`` alone regardless of source.
    """

    def __init__(
        self,
        ranks: Sequence[int],
        *,
        slice_rank: int | None = None,
        init: str = "svd",
        config: DTuckerConfig | None = None,
        engine: ExecutionBackend | None = None,
        strict_slice_rank: bool = True,
    ) -> None:
        self.ranks = tuple(int(r) for r in ranks)
        self.slice_rank = slice_rank
        if init not in ("svd", "random"):
            raise ShapeError(f"init must be 'svd' or 'random', got {init!r}")
        self.init = init
        self.config = config if config is not None else DTuckerConfig()
        self.engine = engine
        self.strict_slice_rank = strict_slice_rank

    # -- stages --------------------------------------------------------------
    def compress(
        self,
        source: SliceSource,
        *,
        batch_slices: int | None = None,
        rng: "int | np.random.Generator | None" = None,
        stats: KernelStats | None = None,
        engine: "ExecutionBackend | str | None" = None,
    ) -> SliceSVD:
        """Approximation stage: ``source`` compressed as :meth:`fit` first does.

        At the resolved ``K``, with :meth:`first_pass` (no power passes on
        a randomized-SVD plan).
        """
        k = resolve_slice_rank(
            source.shape,
            self.ranks[0],
            self.ranks[1],
            self.slice_rank,
            strict=self.strict_slice_rank,
        )
        return compress_source(
            source,
            k,
            batch_slices=batch_slices,
            config=self.first_pass(source, k),
            engine=engine if engine is not None else self.engine,
            rng=rng,
            stats=stats,
        )

    def first_pass(self, source: SliceSource, k: int) -> DTuckerConfig:
        """The config of a one-shot fit's first compression of ``source``.

        Power passes only matter to the randomized method: an rsvd plan
        starts without them (``config.power_iterations`` is then the
        escalation level); any other plan runs ``config`` as it is.
        """
        if self.config.power_iterations and source.plan(k, self.config).method == "rsvd":
            return replace(self.config, power_iterations=0)
        return self.config

    def iterate(
        self,
        ssvd: SliceSVD,
        rank_tuple: Sequence[int],
        factors: list[np.ndarray],
        *,
        config: DTuckerConfig | None = None,
        engine: "ExecutionBackend | str | None" = None,
        warm: bool = False,
    ) -> IterationResult:
        """Iteration stage — the library's single ``als_sweeps`` call site.

        ``warm``: ``factors`` are a previous answer's, refined rather than
        re-solved (see :func:`~repro.core.iteration.als_sweeps`).
        """
        return als_sweeps(
            ssvd,
            tuple(int(r) for r in rank_tuple),
            factors,
            config=config if config is not None else self.config,
            engine=engine if engine is not None else self.engine,
            warm=warm,
        )

    # -- composition ---------------------------------------------------------
    def fit(
        self,
        source: SliceSource,
        *,
        batch_slices: int | None = None,
        rng: "int | np.random.Generator | None" = None,
        save: "str | object | None" = None,
        overwrite: bool = False,
    ) -> PipelineFit:
        """Run all three phases on ``source`` and bundle the results.

        With ``save=`` the finished fit is additionally persisted as a
        :class:`~repro.store.ModelStore` directory at that path (identity
        mode permutation — the source's order *is* the stored order);
        ``overwrite`` allows replacing an existing store.
        """
        shape = tuple(int(d) for d in source.shape)
        rank_tuple = check_ranks(self.ranks, shape)
        k = resolve_slice_rank(
            shape,
            rank_tuple[0],
            rank_tuple[1],
            self.slice_rank,
            strict=self.strict_slice_rank,
        )
        gen = default_rng(rng if rng is not None else self.config.seed)
        sketch_state = gen.bit_generator.state
        timings = PhaseTimings()
        cfg = self.first_pass(source, k)
        escalable = cfg.power_iterations != self.config.power_iterations

        def approximate(config: DTuckerConfig) -> SliceSVD:
            with Timer() as t_approx:
                ssvd = compress_source(
                    source,
                    k,
                    batch_slices=batch_slices,
                    config=config,
                    engine=eng,
                    rng=gen,
                )
            timings.add("approximation", t_approx.seconds)
            if self.config.verbose:
                logger.info(
                    "approximation: %d slices of %s compressed to rank %d "
                    "with %d power passes (%.4fs)",
                    ssvd.num_slices, ssvd.slice_shape, ssvd.rank,
                    config.power_iterations, t_approx.seconds,
                )
            return ssvd

        def sweep(ssvd: SliceSVD, factors: list[np.ndarray]) -> IterationResult:
            with Timer() as t_iter:
                outcome = self.iterate(ssvd, rank_tuple, factors, engine=eng)
            timings.add("iteration", t_iter.seconds)
            if self.config.verbose:
                logger.info(
                    "iteration: %d sweeps, converged=%s, est. error %.4e (%.4fs)",
                    outcome.n_iters, outcome.converged,
                    outcome.errors[-1] if outcome.errors else float("nan"),
                    t_iter.seconds,
                )
                if outcome.kernel_stats is not None:
                    logger.info("iteration: %s", outcome.kernel_stats.summary())
            return outcome

        def start(ssvd: SliceSVD) -> list[np.ndarray]:
            with Timer() as t_init:
                if self.init == "svd":
                    _, factors = initialize(ssvd, rank_tuple)
                else:
                    _, factors = random_initialize(ssvd, rank_tuple, gen)
            timings.add("initialization", t_init.seconds)
            return factors

        scope = backend_scope(self.engine, config=self.config)
        with scope as eng, eng.collect() as traces:
            ssvd = approximate(cfg)
            outcome = sweep(ssvd, start(ssvd))
            history, n_iters = list(outcome.errors), outcome.n_iters

            share = residual_share(ssvd, outcome.errors[-1]) if escalable else None
            if share is not None and share > POWER_ESCALATION:
                # Refit from the same draws with the power passes, freeing
                # the first compression before the second one exists.
                ssvd = None
                gen.bit_generator.state = sketch_state
                cfg = self.config
                ssvd = approximate(cfg)
                outcome = sweep(ssvd, start(ssvd))
                history += outcome.errors
                n_iters += outcome.n_iters

            with Timer() as t_close, eng.phase("closing") as closing:
                factors = [_orthonormalized(a) for a in outcome.factors]
                # A float32 compression summed ‖X‖² over rounded values.
                core, norm_squared = self.close(
                    source,
                    factors,
                    norm=self.config.precision == "float32",
                    engine=eng,
                    stats=closing.counters,
                )
                if share is not None:
                    held = cfg.power_iterations == 0
                    closing.counters.record_miss(
                        "power:hold" if held else "power:escalate"
                    )
                    closing.counters.signals["power:residual_share"] = share
            timings.add("iteration", t_close.seconds)
        if norm_squared is None:
            norm_squared = ssvd.norm_squared
        exact = core_based_error(norm_squared, core)
        if self.config.verbose:
            logger.info("closing pass: exact error %.4e (%.4fs)", exact, t_close.seconds)

        # Each event was recorded once, in the phase that saw it.
        stats = KernelStats()
        for trace in traces:
            stats.merge(trace.counters)
        result = TuckerResult(
            core=core,
            factors=factors,
            elapsed=timings.total,
            trace_=traces,
        )
        fit = PipelineFit(
            result=result,
            slice_svd=ssvd,
            timings=timings,
            traces=traces,
            kernel_stats=stats,
            history=history,
            converged=outcome.converged,
            n_iters=n_iters,
            exact_error=exact,
            power_iterations=cfg.power_iterations,
        )
        if save is not None:
            # Imported lazily: repro.store builds on this module.
            from ..store import ModelStore

            ModelStore.save_fit(
                save, fit, config=self.config, overwrite=overwrite
            )
        return fit

    def close(
        self,
        source: SliceSource,
        factors: Sequence[np.ndarray],
        *,
        norm: bool,
        engine: ExecutionBackend,
        stats: KernelStats,
    ) -> tuple[np.ndarray, float | None]:
        """Closing stage: the exact core of ``factors`` in one read of ``source``.

        With ``norm``, also ``‖X‖²`` in float64 from the same read (else
        ``None``): a ``precision="float32"`` compression summed it over
        float32-rounded values, and ``‖X‖² − ‖G‖²`` is exact only with
        the values the core is projected from.  ``engine`` and ``stats``
        (the closing phase's counters) serve stages that fan the pass
        out, as the shard coordinator's does.
        """
        return exact_core(source, factors, norm=norm)

    def refit(
        self,
        ssvd: SliceSVD,
        rank_tuple: Sequence[int],
        *,
        config: DTuckerConfig | None = None,
        initial_factors: "Sequence[np.ndarray] | None" = None,
        warm: bool = False,
    ) -> tuple[TuckerResult, IterationResult, list[PhaseTrace]]:
        """Initialization + iteration on an existing compression.

        Answers a new decomposition request from the stored slices alone —
        no pass over the original tensor.  Returns the result (in the
        compression's mode order), the raw iteration outcome, and the
        engine traces of this request.

        ``initial_factors`` skips the built-in :func:`initialize` call and
        starts the ALS sweeps from the given column-orthonormal factors —
        the serving layer passes factors recombined from its dyadic range
        index (exact) or a cached warm start here.  ``warm`` says the
        given factors are a previous answer's: the sweeps refine them
        instead of re-solving each factor (see :meth:`iterate`).
        """
        cfg = config if config is not None else self.config
        scope = backend_scope(self.engine, config=cfg)
        with Timer() as t, scope as eng, eng.collect() as traces:
            if initial_factors is None:
                _, factors = initialize(ssvd, tuple(int(r) for r in rank_tuple))
            else:
                factors = list(initial_factors)
            outcome = self.iterate(
                ssvd, rank_tuple, factors, config=cfg, engine=eng, warm=warm
            )
        result = TuckerResult(
            core=outcome.core,
            factors=outcome.factors,
            elapsed=t.seconds,
            trace_=traces,
        )
        return result, outcome, traces
