"""The iteration phase: HOOI-style ALS sweeps in the compressed domain.

Each sweep updates every factor matrix in turn.  The classical HOOI update
for mode ``n`` is

.. math:: A^{(n)} \\leftarrow J_n \\text{ leading left singular vectors of }
          \\left(\\mathcal{X} \\times_{k \\ne n} A^{(k)T}\\right)_{(n)} ,

which on the raw tensor costs ``O(J · Π I_k)`` per mode.  D-Tucker computes
the same TTM chain from the slice SVDs (see :mod:`repro.core._ops`):

* modes 1 and 2 contract the *other* slice mode through the SVD factors
  (``U_l diag(s_l)(V_lᵀA(2))``), leaving an ``(I1, J2, I3…)``-shaped tensor;
* modes ``≥ 3`` start from the fully projected ``W ∈ R^{J1×J2×I3×…}``.

Convergence is monitored without reconstructing anything: for orthonormal
projected factors, ``||X − X̂||² = ||X||² − ||G||²``, and ``||X||²`` was
stored by the approximation phase.  The estimate therefore includes the
(small, fixed) slice-compression residual — exactly the quantity D-Tucker
can observe, and the one the error benchmarks validate against ground truth.

The contractions themselves run through a
:class:`~repro.kernels.workspace.SweepWorkspace`: slice projections are
cached and dirty-tracked on factor versions, the doubly-projected ``W`` is
built exactly once per sweep, TTM chains reuse planned orders and shared
prefixes, and the big intermediates land in preallocated buffers.  Results
are bit-identical to the uncached loop (kept as
:func:`repro.kernels.naive.naive_als_sweeps`); only the redundant work is
gone.  Cache statistics are folded into the phase's
:class:`~repro.engine.trace.PhaseTrace` and returned on the result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..engine import ExecutionBackend, backend_scope
from ..engine.array_api import resolve_device
from ..exceptions import ConvergenceError
from ..kernels.stats import KernelStats
from ..kernels.workspace import SweepWorkspace
from ..linalg.svd import leading_left_singular_vectors
from ..tensor.norms import core_based_error
from ..tensor.unfold import unfold
from ..validation import check_ranks
from .config import DTuckerConfig
from .slice_svd import SliceSVD

__all__ = ["IterationResult", "als_sweeps"]

logger = logging.getLogger("repro.core.iteration")


@dataclass
class IterationResult:
    """Outcome of the iteration phase.

    Attributes
    ----------
    core, factors:
        The final Tucker pieces (factors column-orthonormal).
    errors:
        Estimated reconstruction error after every sweep (compressed-domain
        estimate, see module docstring).
    converged:
        ``True`` when the error variation dropped below the tolerance within
        the sweep budget.
    n_iters:
        Number of completed sweeps.
    kernel_stats:
        Cache hit/miss and buffer-reuse counters accumulated by the sweep
        workspace during this call (``None`` only on legacy pickles).
    """

    core: np.ndarray
    factors: list[np.ndarray]
    errors: list[float] = field(default_factory=list)
    converged: bool = False
    n_iters: int = 0
    kernel_stats: KernelStats | None = None


def als_sweeps(
    ssvd: SliceSVD,
    ranks: int | Sequence[int],
    factors: Sequence[np.ndarray],
    *,
    config: DTuckerConfig | None = None,
    engine: ExecutionBackend | str | None = None,
    callback: Callable[[int, float], None] | None = None,
    workspace: SweepWorkspace | None = None,
) -> IterationResult:
    """Run compressed-domain ALS sweeps until convergence.

    Parameters
    ----------
    ssvd:
        Compressed tensor from the approximation phase.
    ranks:
        Target Tucker ranks.
    factors:
        Initial factor matrices (from :func:`repro.core.initialization.
        initialize` or any other source); not modified in place.
    config:
        Solver configuration; supplies the sweep budget (``max_iters``),
        tolerance (``tol``) and the execution knobs.
    engine:
        Execution backend spec — an instance (reused, not closed), a name,
        or ``None`` to resolve from ``config`` and the environment.  The
        per-mode slice contractions of every sweep are dispatched through
        it as chunked tasks.
    callback:
        Optional ``callback(sweep_index, error_estimate)`` invoked after
        every sweep — used by the convergence benchmark to timestamp sweeps.
    workspace:
        Optional :class:`~repro.kernels.workspace.SweepWorkspace` bound to
        ``ssvd``.  Passing one lets callers (e.g. the streaming solver)
        carry warm projection caches and scratch buffers across calls;
        when omitted a private workspace is created for this call.

    Returns
    -------
    IterationResult

    Raises
    ------
    ConvergenceError
        If the error estimate becomes non-finite (corrupt input), or if a
        provided ``workspace`` is bound to a different compressed tensor.
    """
    cfg = config if config is not None else DTuckerConfig()
    rank_tuple = check_ranks(ranks, ssvd.shape)
    order = len(rank_tuple)
    facs = [np.asarray(a, dtype=float) for a in factors]
    if len(facs) != order:
        raise ConvergenceError(
            f"expected {order} initial factors, got {len(facs)}"
        )

    if workspace is not None:
        ws = workspace
        stats_before = ws.stats.copy()
    else:
        module = resolve_device(None, config=cfg)
        ws = SweepWorkspace(
            ssvd,
            module=module,
            compute_dtype=(
                np.float32 if cfg.precision == "float32" else np.float64
            ),
        )
        # Empty snapshot: the construction-time device uploads (if any)
        # belong to this call's phase delta.
        stats_before = KernelStats()
    if ws.ssvd is not ssvd:
        raise ConvergenceError(
            "workspace is bound to a different SliceSVD; build a fresh "
            "SweepWorkspace for this compressed tensor"
        )

    errors: list[float] = []
    converged = False
    sweep = 0
    with backend_scope(engine, config=cfg) as eng, eng.phase("iteration") as tr:
        previous_engine = ws.engine
        ws.engine = eng
        try:
            ws.bind_factors(facs)
            for sweep in range(1, int(cfg.max_iters) + 1):
                # Mode 1: X ×_2 A(2)ᵀ ×_{k>=3} A(k)ᵀ, then leading left SVs.
                z1 = ws.project_trailing(ws.mode1_partial(), skip=None, tag="z1")
                facs[0] = leading_left_singular_vectors(unfold(z1, 0), rank_tuple[0])
                ws.update_factor(0, facs[0])

                # Mode 2: X ×_1 A(1)ᵀ ×_{k>=3} A(k)ᵀ.
                z2 = ws.project_trailing(ws.mode2_partial(), skip=None, tag="z2")
                facs[1] = leading_left_singular_vectors(unfold(z2, 1), rank_tuple[1])
                ws.update_factor(1, facs[1])

                # Modes >= 3: chains off the (cached, built-once) W tensor.
                for n in range(2, order):
                    zn = ws.project_w_trailing(skip=n)
                    facs[n] = leading_left_singular_vectors(
                        unfold(zn, n), rank_tuple[n]
                    )
                    ws.update_factor(n, facs[n])

                # Core and compressed-domain error estimate.  W is a cache
                # hit here (factors 0/1 unchanged since the skip chains).
                core = ws.project_w_trailing(skip=None)
                err = core_based_error(ssvd.norm_squared, core)
                if not np.isfinite(err):
                    raise ConvergenceError(
                        f"non-finite error estimate at sweep {sweep}; input corrupt?"
                    )
                errors.append(err)
                ws.finish_sweep()
                if callback is not None:
                    callback(sweep, err)
                if logger.isEnabledFor(logging.DEBUG):
                    logger.debug("sweep %d: estimated error %.6e", sweep, err)
                if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < float(cfg.tol):
                    converged = True
                    break
            # Kept fork: only device results need a (tallied) d2h download.
            if not ws.module.is_numpy:
                # Bring the finished pieces home: results are host arrays
                # regardless of where the sweeps ran.
                am = ws.module
                core = am.from_device(core)
                ws.stats.record_transfer("d2h", core.nbytes)
                for n, fac in enumerate(facs):
                    if type(fac) is not np.ndarray:
                        facs[n] = am.from_device(fac)
                        ws.stats.record_transfer("d2h", facs[n].nbytes)
        finally:
            ws.engine = previous_engine
            stats = ws.stats.delta(stats_before)
            tr.annotate_cache(
                hits=stats.hits,
                misses=stats.misses,
                bytes_reused=stats.bytes_reused,
            )
            tr.annotate_xfer(
                h2d_bytes=stats.bytes_h2d,
                d2h_bytes=stats.bytes_d2h,
                device=ws.module.name,
            )

    return IterationResult(
        core=core,
        factors=facs,
        errors=errors,
        converged=converged,
        n_iters=sweep,
        kernel_stats=stats,
    )
