"""The iteration phase: HOOI-style ALS sweeps in the compressed domain.

Each sweep updates every factor matrix in turn.  The classical HOOI update
for mode ``n`` is

.. math:: A^{(n)} \\leftarrow J_n \\text{ leading left singular vectors of }
          \\left(\\mathcal{X} \\times_{k \\ne n} A^{(k)T}\\right)_{(n)} ,

which on the raw tensor costs ``O(J · Π I_k)`` per mode.  D-Tucker computes
the same TTM chain from the slice SVDs (see
:meth:`~repro.kernels.workspace.SweepWorkspace.contract`):

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
gone.  The workspace records its cache statistics straight into the
phase's :attr:`~repro.engine.trace.PhaseTrace.counters`, which the result
returns as ``kernel_stats``.

There is one sweep loop, :func:`_sweep_loop`.  It owns the mode order, the
error estimate, the convergence test and the callbacks; a caller supplies
only ``contract(n)``, the TTM chain of mode ``n``.  :func:`als_sweeps`
contracts through its workspace,
:func:`~repro.distributed.coordinator.distributed_als_sweeps` through a
shard fan-out and reduce, and :func:`~repro.kernels.naive
.naive_als_sweeps` through uncached kernels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..engine import ExecutionBackend, backend_scope
from ..exceptions import ConvergenceError
from ..kernels.stats import KernelStats, record_into
from ..kernels.workspace import SweepWorkspace
from ..linalg.svd import leading_left_singular_vectors, refine_left_singular_vectors
from ..tensor.norms import core_based_error
from ..tensor.unfold import _unfold
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


def _sweep_loop(
    contract: Callable[[int | None], np.ndarray],
    facs: list[np.ndarray],
    ranks: Sequence[int],
    norm_squared: float,
    cfg: DTuckerConfig,
    *,
    warm: bool = False,
    stats: KernelStats | None = None,
    install: Callable[[int, np.ndarray], None] | None = None,
    callback: Callable[[int, float], None] | None = None,
) -> IterationResult:
    """The one HOOI sweep loop; callers differ only in how they contract.

    ``contract(n)`` returns mode ``n``'s TTM chain ``X̃ ×_{k≠n} A(k)ᵀ``
    (``contract(None)`` the core) for the factors in ``facs``; each sweep
    replaces ``facs[n]`` in place by the chain's leading left singular
    vectors and hands it to ``install(n, factor)``.  A ``warm`` solve
    starts from a previous answer's factors: it refines each factor from
    its current value (:func:`~repro.linalg.svd
    .refine_left_singular_vectors`, recording ``factor:warm`` /
    ``factor:eigh`` into ``stats``) instead of an eigensolve.  Everything
    else — mode order, the compressed-domain error estimate, the
    non-finite check, the ``tol`` test, ``callback`` and the debug log —
    lives here.  The chains come from checked inputs and are taken as
    given; a non-finite one raises :class:`ConvergenceError`.
    """

    def update(n: int, chain: np.ndarray) -> np.ndarray:
        # The unfolding dies with this frame, before the next contract(n).
        g = _unfold(chain, n)
        if not np.isfinite(g).all():
            raise ConvergenceError(
                f"non-finite mode-{n} contraction at sweep {sweep}; input corrupt?"
            )
        if warm:
            return refine_left_singular_vectors(g, ranks[n], facs[n], stats=stats)
        return leading_left_singular_vectors(g, ranks[n])

    errors: list[float] = []
    converged = False
    sweep = 0
    core = None
    for sweep in range(1, int(cfg.max_iters) + 1):
        for n in range(len(ranks)):
            facs[n] = update(n, contract(n))
            if install is not None:
                install(n, facs[n])
        core = contract(None)
        err = core_based_error(norm_squared, core)
        if not np.isfinite(err):
            raise ConvergenceError(
                f"non-finite error estimate at sweep {sweep}; input corrupt?"
            )
        errors.append(err)
        if callback is not None:
            callback(sweep, err)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("sweep %d: estimated error %.6e", sweep, err)
        if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < float(cfg.tol):
            converged = True
            break
    return IterationResult(
        core=core, factors=facs, errors=errors, converged=converged, n_iters=sweep
    )


def als_sweeps(
    ssvd: SliceSVD,
    ranks: int | Sequence[int],
    factors: Sequence[np.ndarray],
    *,
    config: DTuckerConfig | None = None,
    engine: ExecutionBackend | str | None = None,
    callback: Callable[[int, float], None] | None = None,
    workspace: SweepWorkspace | None = None,
    warm: bool = False,
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
    warm:
        ``factors`` are a previous answer's (a served query warm-started
        from an overlapping cached result): every factor update refines
        the factor it starts from with two subspace steps instead of an
        eigensolve, falling back to the eigensolve where the refinement
        cannot resolve the subspace.  The iteration phase's counters
        record each update as a ``factor:warm`` or ``factor:eigh`` miss.
        ``False`` (every fit, stream and cold start) keeps the eigensolve.

    Returns
    -------
    IterationResult

    Raises
    ------
    ConvergenceError
        If a contraction or the error estimate becomes non-finite (corrupt
        input), or if a provided ``workspace`` is bound to a different
        compressed tensor.
    """
    cfg = config if config is not None else DTuckerConfig()
    rank_tuple = check_ranks(ranks, ssvd.shape)
    order = len(rank_tuple)
    facs = [np.asarray(a, dtype=float) for a in factors]
    if len(facs) != order:
        raise ConvergenceError(
            f"expected {order} initial factors, got {len(facs)}"
        )

    if workspace is not None and workspace.ssvd is not ssvd:
        raise ConvergenceError(
            "workspace is bound to a different SliceSVD; build a fresh "
            "SweepWorkspace for this compressed tensor"
        )

    with backend_scope(engine, config=cfg) as eng, eng.phase("iteration") as tr:
        if workspace is None:
            workspace = SweepWorkspace(
                ssvd,
                compute_dtype=(
                    np.float32 if cfg.precision == "float32" else np.float64
                ),
            )
            # A private workspace records into the phase from construction on.
            tr.counters = workspace.stats
        ws = workspace
        previous_engine, ws.engine = ws.engine, eng
        try:
            with record_into(ws, tr.counters):
                ws.bind_factors(facs)

                def end_sweep(sweep: int, err: float) -> None:
                    ws.finish_sweep()
                    if callback is not None:
                        callback(sweep, err)

                result = _sweep_loop(
                    ws.contract,
                    facs,
                    rank_tuple,
                    ssvd.norm_squared,
                    cfg,
                    warm=warm,
                    stats=tr.counters,
                    install=ws.update_factor,
                    callback=end_sweep,
                )
        finally:
            ws.engine = previous_engine

    result.kernel_stats = tr.counters
    return result
