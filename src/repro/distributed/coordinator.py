"""The shard coordinator: reduce-only fits over a :class:`ShardedSource`.

Two pieces live here, both built on the invariant that *only small factor
products ever cross a shard boundary*:

* :func:`distributed_als_sweeps` — the one sweep loop of
  :mod:`repro.core.iteration`, fed by shard-local partial contractions
  plus a coordinator-side reduce instead of a local workspace.  Each
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
  member fan-out), coordinator-side :func:`~repro.core.initialization
  .initialize` on the gathered stacked ``[U_lΣ_l]``/``[Σ_lV_lᵀ]``
  products, then distributed sweeps.  The bytes shipped and the reduce
  rounds are ``comm:`` events in each phase's
  :attr:`~repro.engine.trace.PhaseTrace.counters`, which merge into the
  fit's :class:`~repro.kernels.stats.KernelStats`.

Determinism: partials are reduced in shard order, so results are
reproducible run to run and shard-count to shard-count — but partial-sum
reassociation means they match the monolithic sweeps to floating-point
tolerance, not bit for bit (one shard has nothing to reassociate and is
bit-identical).  (The *default* pipeline path — shard-local
compression followed by monolithic sweeps on the gathered triples — stays
bit-identical to the single-source fit; see ``docs/distributed.md``.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.fit_pipeline import FitPipeline, PipelineFit
from ..core.iteration import IterationResult, _sweep_loop
from ..core.slice_svd import SliceSVD
from ..core.sources import SliceSource, exact_core
from ..engine import ExecutionBackend, backend_scope
from ..exceptions import ShapeError
from ..kernels.stats import KernelStats
from ..kernels.workspace import SweepWorkspace
from ..tensor.slices import slice_count
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
    return np.ascontiguousarray(ws.contract(target))


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
    factors — never a slab.  The sweep loop itself (mode order, error
    estimate, tolerance test) is the one :func:`~repro.core.iteration
    .als_sweeps` runs; only the contraction differs.  The reduce
    reassociates partial sums, so values agree with the monolithic
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

    with backend_scope(engine, config=cfg) as eng, eng.phase(
        "iteration-distributed"
    ) as tr:
        stats = tr.counters

        def contract(target: "int | None") -> np.ndarray:
            """Fan one round out to the shards and reduce the partials."""
            broadcast = {"shape": shape, "factors": facs, "target": target}
            outs = eng.run_chunks(_shard_sweep_kernel, plan, slabs, broadcast)
            stats.record_comm("reduce", 0)
            stats.record_comm("bcast", len(plan) * int(sum(f.nbytes for f in facs)))
            for out in outs:
                stats.record_comm("ship", int(out.nbytes))
            if target == order - 1:
                # The temporal mode's own update keeps that axis at full
                # size: shard partials are disjoint runs, so concatenate.
                return np.concatenate(outs, axis=order - 1)
            total = outs[0]
            for out in outs[1:]:
                total = total + out
            return total

        result = _sweep_loop(contract, facs, ranks, ssvd.norm_squared, cfg)

    result.kernel_stats = stats
    return result


def _shard_core(
    task: "tuple[SliceSource, list[np.ndarray], bool]",
) -> tuple[np.ndarray, float | None]:
    """One shard's partial exact core (module level for the process backend)."""
    member, factors, norm = task
    return exact_core(member, factors, norm=norm)


class _ShardedPipeline(FitPipeline):
    """A :class:`FitPipeline` whose iteration and closing stages run per shard."""

    def __init__(
        self,
        ranks: Sequence[int],
        shard_bounds: Sequence[tuple[int, int]],
        **kwargs,
    ) -> None:
        super().__init__(ranks, **kwargs)
        self.shard_bounds = shard_bounds

    def close(
        self,
        source: SliceSource,
        factors: Sequence[np.ndarray],
        *,
        norm: bool,
        engine: ExecutionBackend,
        stats: KernelStats,
    ) -> tuple[np.ndarray, float | None]:
        """Closing stage: per-shard partial cores, summed in one reduce round.

        A shard's slices touch only its rows of the temporal factor, so
        its partial core is its own exact core with that factor
        restricted; workers read their member and ship back ``∏J``
        numbers (and, with ``norm``, the member's ``‖X‖²``).  Resident
        members are projected in this process.
        """
        steps = np.cumsum([0] + [int(m.shape[-1]) for m in source.members])
        tasks = [
            (member, [*factors[:-1], factors[-1][lo:hi]], norm)
            for member, lo, hi in zip(source.members, steps[:-1], steps[1:])
        ]
        if engine.name == "process" and source.resident:
            parts = [_shard_core(task) for task in tasks]
        else:
            parts = engine.map(_shard_core, tasks)
        stats.record_comm("reduce", 0)
        for (_, facs, _), (part, _) in zip(tasks, parts):
            stats.record_comm("bcast", int(sum(f.nbytes for f in facs)))
            stats.record_comm("ship", int(part.nbytes) + 8 * norm)
        total = parts[0][0]
        for part, _ in parts[1:]:
            total = total + part
        return total, sum(n for _, n in parts) if norm else None

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
    through the member fan-out, :func:`~repro.core
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
        ``shards`` (default 1) temporal spans.
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
        shards: int = 1,
    ) -> None:
        cfg = config if config is not None else DTuckerConfig()
        if not isinstance(source, ShardedSource):
            source = ShardedSource.partition(source, shards)
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
