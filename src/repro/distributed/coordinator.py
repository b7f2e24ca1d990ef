"""The shard coordinator: reduce-only fits over a :class:`ShardedSource`.

Two pieces live here, both built on the invariant that *only small factor
products ever cross a shard boundary*:

* :func:`distributed_als_sweeps` — the HOOI/ALS loop of
  :func:`~repro.core.iteration.als_sweeps`, re-expressed as a sequence of
  shard-local partial contractions plus a coordinator-side reduce.  Each
  shard owns the contiguous slice run of its temporal span
  ``[t_lo, t_hi)``; restricting the last-mode factor to those rows makes
  every per-mode TTM chain (and the core projection) *additive* over
  shards — except the last mode's own update, whose partials concatenate
  along the temporal axis instead.  Per reduce round a shard ships one
  ``J``-sized projected tensor and receives the current factor set:
  ``O((I1+I2+1)·K·J)`` traffic per sweep, independent of the slab width
  ``I1·I2·L``.  The shard fan-out rides
  :meth:`~repro.engine.base.ExecutionBackend.run_chunks`, so on the
  process backend the compressed triples upload into shared memory once
  and are reused by every round of every sweep.
* :class:`ShardCoordinator` — the fit driver: shard-local compression
  (the :meth:`~repro.distributed.sharded.ShardedSource.process_parts`
  descriptor fan-out), coordinator-side :func:`~repro.core.initialization
  .initialize` on the gathered stacked ``[U_lΣ_l]``/``[Σ_lV_lᵀ]``
  products, then distributed sweeps.  Per-shard kernel statistics merge
  into one :class:`~repro.kernels.stats.KernelStats`; the bytes shipped
  and reduce rounds surface as ``comm:`` counters and on the phase's
  :class:`~repro.engine.trace.PhaseTrace`.

Determinism: partials are reduced in shard order, so results are
reproducible run to run and shard-count to shard-count — but partial-sum
reassociation means they match the monolithic sweeps to floating-point
tolerance, not bit for bit.  (The *default* pipeline path — shard-local
compression followed by monolithic sweeps on the gathered triples — stays
bit-identical to the single-source fit; see ``docs/distributed.md``.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.fit_pipeline import FitPipeline, PipelineFit
from ..core.iteration import IterationResult
from ..core.slice_svd import SliceSVD
from ..core.sources import SliceSource
from ..engine import ExecutionBackend, backend_scope
from ..exceptions import ConvergenceError, ShapeError
from ..kernels.stats import KernelStats
from ..kernels.workspace import SweepWorkspace
from ..linalg.svd import leading_left_singular_vectors
from ..tensor.norms import core_based_error
from ..tensor.slices import slice_count
from ..tensor.unfold import unfold
from ..validation import check_ranks
from .sharded import ShardedSource

__all__ = ["ShardCoordinator", "distributed_als_sweeps"]


def _shard_sweep_kernel(
    u: np.ndarray,
    s: np.ndarray,
    vt: np.ndarray,
    norms: np.ndarray,
    tindex: np.ndarray,
    *,
    shape: tuple[int, ...],
    factors: "list[np.ndarray]",
    target: "int | None",
) -> np.ndarray:
    """One shard's partial contraction for one reduce round.

    Module-level so the process backend can pickle it.  The slab chunk it
    receives is the shard's run of compressed triples (plus per-slice
    norms and temporal indices); ``tindex`` recovers the temporal span, so
    the kernel can restrict the last-mode factor to the shard's rows.
    Returns a fresh ``J``-sized array — the only bytes shipped back.
    """
    t_lo, t_hi = int(tindex[0]), int(tindex[-1]) + 1
    slice_norms = np.asarray(norms, dtype=float)
    ssvd = SliceSVD(
        u=np.asarray(u),
        s=np.asarray(s),
        vt=np.asarray(vt),
        shape=tuple(shape[:-1]) + (t_hi - t_lo,),
        norm_squared=float(slice_norms.sum()),
        slice_norms_squared=slice_norms,
    )
    ws = SweepWorkspace(ssvd)
    facs = [np.asarray(f) for f in factors]
    facs[-1] = facs[-1][t_lo:t_hi]
    ws.bind_factors(facs)
    if target == 0:
        out = ws.project_trailing(ws.mode1_partial(), tag="z1")
    elif target == 1:
        out = ws.project_trailing(ws.mode2_partial(), tag="z2")
    elif target is None:
        out = ws.project_w_trailing()
    else:
        out = ws.project_w_trailing(skip=int(target))
    return np.ascontiguousarray(out)


def distributed_als_sweeps(
    ssvd: SliceSVD,
    rank_tuple: Sequence[int],
    factors: "Sequence[np.ndarray]",
    *,
    shard_bounds: Sequence[tuple[int, int]],
    config: DTuckerConfig | None = None,
    engine: "ExecutionBackend | str | None" = None,
) -> IterationResult:
    """ALS sweeps as shard-local partials plus coordinator-side reduces.

    ``shard_bounds`` are contiguous slice-index spans (one per shard)
    covering ``[0, L)`` and aligned to temporal-mode boundaries — exactly
    :attr:`~repro.distributed.sharded.ShardedSource.shard_bounds`.  Every
    sweep runs ``order + 1`` reduce rounds (one per factor update plus the
    core); per round each shard ships one projected tensor of
    ``O(∏ J_n)`` numbers and the coordinator broadcasts the current
    factors — never a slab.  Convergence monitoring, tolerances and the
    error history match :func:`~repro.core.iteration.als_sweeps`; the
    reduce reassociates partial sums, so values agree with the monolithic
    loop to floating-point tolerance (deterministically — shards always
    reduce in order).
    """
    cfg = config if config is not None else DTuckerConfig()
    shape = tuple(int(d) for d in ssvd.shape)
    order = len(shape)
    if order < 3:
        raise ShapeError(
            f"distributed sweeps shard the temporal mode; need order >= 3, "
            f"got shape {shape}"
        )
    ranks = check_ranks(rank_tuple, shape)
    count = slice_count(shape)
    per_step = count // shape[-1]
    plan = [(int(lo), int(hi)) for lo, hi in shard_bounds]
    expected = 0
    for lo, hi in plan:
        if lo != expected or hi <= lo:
            raise ShapeError(
                f"shard bounds {plan} must contiguously cover [0, {count})"
            )
        if lo % per_step or hi % per_step:
            raise ShapeError(
                f"shard bound ({lo}, {hi}) not aligned to the temporal "
                f"step of {per_step} slices"
            )
        expected = hi
    if expected != count:
        raise ShapeError(
            f"shard bounds {plan} must contiguously cover [0, {count})"
        )
    if len(factors) != order:
        raise ShapeError(
            f"expected {order} factors, got {len(factors)}"
        )
    facs = [np.ascontiguousarray(f, dtype=float) for f in factors]
    norms = np.ascontiguousarray(ssvd.slice_norms_squared, dtype=float)
    tindex = np.arange(count, dtype=np.int64) // per_step
    slabs = (ssvd.u, ssvd.s, ssvd.vt, norms, tindex)

    stats = KernelStats()
    comm_bytes = 0
    rounds = 0

    errors: list[float] = []
    converged = False
    sweep = 0
    core = None
    with backend_scope(engine, config=cfg) as eng, eng.phase(
        "iteration-distributed"
    ) as tr:

        def reduce_round(target: "int | None") -> np.ndarray:
            """Fan one round out to the shards and reduce the partials."""
            nonlocal comm_bytes, rounds
            broadcast = {"shape": shape, "factors": facs, "target": target}
            outs = eng.run_chunks(_shard_sweep_kernel, plan, slabs, broadcast)
            rounds += 1
            bcast = len(plan) * int(sum(f.nbytes for f in facs))
            stats.record_comm("bcast", bcast)
            shipped = 0
            for out in outs:
                stats.record_comm("ship", int(out.nbytes))
                shipped += int(out.nbytes)
            comm_bytes += bcast + shipped
            if target == order - 1:
                # The temporal mode's own update keeps that axis at full
                # size: shard partials are disjoint runs, so concatenate.
                return np.concatenate(outs, axis=order - 1)
            total = outs[0]
            for out in outs[1:]:
                total = total + out
            return total

        for sweep in range(1, int(cfg.max_iters) + 1):
            z1 = reduce_round(0)
            facs[0] = leading_left_singular_vectors(unfold(z1, 0), ranks[0])
            z2 = reduce_round(1)
            facs[1] = leading_left_singular_vectors(unfold(z2, 1), ranks[1])
            for n in range(2, order):
                zn = reduce_round(n)
                facs[n] = leading_left_singular_vectors(unfold(zn, n), ranks[n])
            core = reduce_round(None)
            err = core_based_error(ssvd.norm_squared, core)
            if not np.isfinite(err):
                raise ConvergenceError(
                    f"non-finite error estimate at sweep {sweep}"
                )
            errors.append(err)
            if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < float(
                cfg.tol
            ):
                converged = True
                break
        tr.annotate_comm(comm_bytes=comm_bytes, reduce_rounds=rounds)

    return IterationResult(
        core=core,
        factors=facs,
        errors=errors,
        converged=converged,
        n_iters=sweep,
        kernel_stats=stats,
    )


class _ShardedPipeline(FitPipeline):
    """A :class:`FitPipeline` whose iteration stage is the distributed sweeps."""

    def __init__(
        self,
        ranks: Sequence[int],
        shard_bounds: Sequence[tuple[int, int]],
        **kwargs,
    ) -> None:
        super().__init__(ranks, **kwargs)
        self.shard_bounds = shard_bounds

    def iterate(
        self,
        ssvd: SliceSVD,
        rank_tuple: Sequence[int],
        factors: list[np.ndarray],
        *,
        config: DTuckerConfig | None = None,
        engine: "ExecutionBackend | str | None" = None,
    ) -> IterationResult:
        """Iteration stage: reduce-only sweeps over ``shard_bounds``."""
        return distributed_als_sweeps(
            ssvd,
            rank_tuple,
            factors,
            shard_bounds=self.shard_bounds,
            config=config if config is not None else self.config,
            engine=engine if engine is not None else self.engine,
        )


class ShardCoordinator:
    """Drive a whole fit over shards, reducing only small factor products.

    The coordinator never touches a raw slab: compression runs shard-local
    through the member-descriptor fan-out, :func:`~repro.core
    .initialization.initialize` consumes the gathered stacked
    ``[U_lΣ_l]``/``[Σ_lV_lᵀ]`` products on the coordinator, and the sweeps
    run through :func:`distributed_als_sweeps`.  The fit itself *is*
    :meth:`FitPipeline.fit <repro.core.fit_pipeline.FitPipeline.fit>` —
    configuration, rank resolution, timings and stats merging included —
    with only the iteration stage swapped.

    Parameters
    ----------
    source:
        A :class:`~repro.distributed.sharded.ShardedSource`, or any
        :class:`~repro.core.sources.SliceSource` to be partitioned into
        ``shards`` (default ``config.shards``, else 1) temporal spans.
    ranks, slice_rank, init, config, engine:
        As on :class:`~repro.core.fit_pipeline.FitPipeline`.
    """

    def __init__(
        self,
        source: SliceSource,
        ranks: Sequence[int],
        *,
        slice_rank: int | None = None,
        init: str = "svd",
        config: DTuckerConfig | None = None,
        engine: "ExecutionBackend | str | None" = None,
        shards: int | None = None,
    ) -> None:
        cfg = config if config is not None else DTuckerConfig()
        if not isinstance(source, ShardedSource):
            n = shards if shards is not None else (cfg.shards or 1)
            source = ShardedSource.partition(source, max(1, int(n)))
        self.source = source
        self.pipeline = _ShardedPipeline(
            ranks,
            source.shard_bounds,
            slice_rank=slice_rank,
            init=init,
            config=cfg,
            engine=engine,
        )

    def compress(self, **kwargs) -> SliceSVD:
        """Shard-local compression of the coordinator's source."""
        return self.pipeline.compress(self.source, **kwargs)

    def fit(
        self,
        *,
        batch_slices: int | None = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> PipelineFit:
        """Compress shard-local, initialize on the reduce, sweep distributed."""
        return self.pipeline.fit(self.source, batch_slices=batch_slices, rng=rng)
