"""Reference (uncached) ALS sweep loop, kept for parity testing.

:func:`naive_als_sweeps` is the iteration loop exactly as the library ran
it before the sweep-level kernel layer existed: every per-mode contraction
recomputes its slice projections from scratch, and each sweep evaluates the
doubly-projected ``W`` tensor *twice* — once for the ``skip = n`` factor
updates and once more for the core projection, even though no factor
changed in between.

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

__all__ = ["naive_als_sweeps"]


def naive_als_sweeps(
    ssvd,
    ranks,
    factors: Sequence[np.ndarray],
    *,
    config=None,
    engine=None,
    callback: Callable[[int, float], None] | None = None,
):
    """Run the historical uncached sweep loop; mirrors ``als_sweeps``.

    Same signature subset and return type as
    :func:`repro.core.iteration.als_sweeps`; traces are recorded under the
    phase name ``"iteration-naive"`` so the two paths can be told apart in
    a shared engine's trace list.
    """
    # Function-level imports: this module is loaded by ``repro.kernels``,
    # which the core iteration module imports in turn.
    from ..core._ops import mode1_partial, mode2_partial, w_tensor
    from ..core.config import DTuckerConfig
    from ..core.iteration import IterationResult
    from ..engine import backend_scope
    from ..exceptions import ConvergenceError
    from ..linalg.svd import leading_left_singular_vectors
    from ..tensor.norms import core_based_error
    from ..tensor.products import multi_mode_product
    from ..tensor.unfold import unfold
    from ..validation import check_ranks

    def project_trailing(tensor, facs, *, skip):
        modes = [m for m in range(2, tensor.ndim) if m != skip]
        if not modes:
            return tensor
        return multi_mode_product(
            tensor, [facs[m] for m in modes], modes=modes, transpose=True
        )

    cfg = config or DTuckerConfig()
    rank_tuple = check_ranks(ranks, ssvd.shape)
    order = len(rank_tuple)
    facs = [np.asarray(a, dtype=float) for a in factors]
    if len(facs) != order:
        raise ConvergenceError(f"expected {order} initial factors, got {len(facs)}")

    errors: list[float] = []
    converged = False
    sweep = 0
    with backend_scope(engine, config=cfg) as eng, eng.phase("iteration-naive"):
        for sweep in range(1, int(cfg.max_iters) + 1):
            z1 = project_trailing(
                mode1_partial(ssvd, facs[1], engine=eng), facs, skip=None
            )
            facs[0] = leading_left_singular_vectors(unfold(z1, 0), rank_tuple[0])

            z2 = project_trailing(
                mode2_partial(ssvd, facs[0], engine=eng), facs, skip=None
            )
            facs[1] = leading_left_singular_vectors(unfold(z2, 1), rank_tuple[1])

            w = w_tensor(ssvd, facs[0], facs[1], engine=eng)
            for n in range(2, order):
                zn = project_trailing(w, facs, skip=n)
                facs[n] = leading_left_singular_vectors(unfold(zn, n), rank_tuple[n])

            # The historical redundancy under test: W is rebuilt although
            # factors 0/1 have not changed since the build above.
            w = w_tensor(ssvd, facs[0], facs[1], engine=eng)
            core = project_trailing(w, facs, skip=None)
            err = core_based_error(ssvd.norm_squared, core)
            if not np.isfinite(err):
                raise ConvergenceError(
                    f"non-finite error estimate at sweep {sweep}; input corrupt?"
                )
            errors.append(err)
            if callback is not None:
                callback(sweep, err)
            if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < float(cfg.tol):
                converged = True
                break

    return IterationResult(
        core=core,
        factors=facs,
        errors=errors,
        converged=converged,
        n_iters=sweep,
    )
