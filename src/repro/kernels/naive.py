"""Reference (uncached) ALS sweeps, kept for parity testing.

:func:`naive_als_sweeps` runs the one sweep loop of
:mod:`repro.core.iteration` with the contraction as the library computed it
before the sweep-level kernel layer existed: every per-mode contraction
recomputes its slice projections from scratch, and each sweep of an
order-``≥ 3`` tensor evaluates the doubly-projected ``W`` tensor *twice* —
once for the ``skip = n`` factor updates and once more for the core
projection, even though no factor changed in between.  Its mode-1/mode-2
partials run in the workspace's temporal blocks
(:func:`~repro.kernels.contractions.temporal_blocks`), so both sum the
same blocks in the same order.

It exists so the optimized path has a ground truth: ``tests/test_kernels.py``
asserts the :class:`~repro.kernels.workspace.SweepWorkspace`-backed
:func:`repro.core.als_sweeps` returns bit-identical factors, core and error
sequence on every backend, and ``benchmarks/bench_a8_sweep_kernels.py``
times the two against each other.  It is not part of the public API and
intentionally keeps the redundant work.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..engine import ExecutionBackend
from .contractions import (
    block_steps,
    fused_tensor,
    mode1_chunk,
    mode2_chunk,
    reduce_blocks,
    temporal_blocks,
)

__all__ = ["naive_als_sweeps", "mode1_partial", "mode2_partial"]


def mode1_partial(
    ssvd,
    a2: np.ndarray,
    *,
    engine: ExecutionBackend | None = None,
    span: "tuple[int, int] | None" = None,
) -> np.ndarray:
    """``X̃ ×_2 A(2)ᵀ`` as a tensor of shape ``(I1, J2, I3, …, IN)``.

    The slice projections ``V_lᵀA(2)`` are rebuilt on every call.  A
    ``span`` of whole last-mode steps gives that temporal block's partial.
    """
    rows = (ssvd.slice_shape[0], a2.shape[1])
    return fused_tensor(engine, mode1_chunk, ssvd, rows, span, a2=a2)


def mode2_partial(
    ssvd,
    a1: np.ndarray,
    *,
    engine: ExecutionBackend | None = None,
    span: "tuple[int, int] | None" = None,
) -> np.ndarray:
    """``X̃ ×_1 A(1)ᵀ`` as a tensor of shape ``(J1, I2, I3, …, IN)``.

    The slice projections ``A(1)ᵀU_l`` are rebuilt on every call.  A
    ``span`` of whole last-mode steps gives that temporal block's partial.
    """
    rows = (a1.shape[1], ssvd.slice_shape[1])
    return fused_tensor(engine, mode2_chunk, ssvd, rows, span, a1=a1)


def naive_als_sweeps(
    ssvd,
    ranks,
    factors: Sequence[np.ndarray],
    *,
    config=None,
    engine=None,
    callback: Callable[[int, float], None] | None = None,
):
    """Run the sweep loop over uncached contractions; mirrors ``als_sweeps``.

    Same signature subset and return type as
    :func:`repro.core.iteration.als_sweeps`; traces are recorded under the
    phase name ``"iteration-naive"`` so the two paths can be told apart in
    a shared engine's trace list.
    """
    # Function-level imports: this module is loaded by ``repro.kernels``,
    # which the core iteration module imports in turn.
    from ..core.config import DTuckerConfig
    from ..core.initialization import w_tensor
    from ..core.iteration import _sweep_loop
    from ..engine import backend_scope
    from ..exceptions import ConvergenceError
    from ..tensor.products import multi_mode_product
    from ..validation import check_ranks

    cfg = config or DTuckerConfig()
    rank_tuple = check_ranks(ranks, ssvd.shape)
    order = len(rank_tuple)
    facs = [np.asarray(a, dtype=float) for a in factors]
    if len(facs) != order:
        raise ConvergenceError(f"expected {order} initial factors, got {len(facs)}")

    with backend_scope(engine, config=cfg) as eng, eng.phase("iteration-naive"):
        w = None

        def trailing(tensor, skip, steps=None) -> np.ndarray:
            modes = [m for m in range(2, order) if m != skip]
            if not modes:
                return tensor
            mats = [facs[m] for m in modes]
            if steps is not None:
                mats[-1] = mats[-1][steps[0] : steps[1]]
            return multi_mode_product(tensor, mats, modes=modes, transpose=True)

        def contract(target: int | None) -> np.ndarray:
            nonlocal w
            if target in (0, 1):
                # The workspace's temporal blocking, on uncached partials.
                if target == 0:
                    partial, fac = mode1_partial, facs[1]
                    rows = ssvd.slice_shape[0] * fac.shape[1]
                else:
                    partial, fac = mode2_partial, facs[0]
                    rows = fac.shape[1] * ssvd.slice_shape[1]
                blocks = temporal_blocks(ssvd.shape, rows * fac.itemsize)
                if len(blocks) == 1:
                    return trailing(partial(ssvd, fac, engine=eng), None)
                return reduce_blocks(
                    blocks,
                    lambda lo, hi: trailing(
                        partial(ssvd, fac, engine=eng, span=(lo, hi)),
                        None,
                        block_steps(ssvd.shape, lo, hi),
                    ),
                )
            # The historical redundancy under test: W is built for the
            # first trailing mode and rebuilt for the core, although
            # factors 0/1 have not changed in between.
            if target is None or target == 2:
                w = w_tensor(ssvd, facs[0], facs[1], engine=eng)
            return trailing(w, target)

        return _sweep_loop(
            contract, facs, rank_tuple, ssvd.norm_squared, cfg, callback=callback
        )
