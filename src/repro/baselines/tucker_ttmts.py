"""Tucker-ttmts (Malik & Becker, NeurIPS 2018): sketched TTM chains.

Tucker-ts solves a sketched least squares problem per mode; Tucker-ttmts is
the cheaper sibling that instead *estimates the HOOI TTM chain* through the
sketch and proceeds exactly like HOOI:

.. math:: Y_{(n)} = X_{(n)} (\\otimes_{k \\ne n} A^{(k)})
          \\;\\approx\\; (S_1 X_{(n)}^T)^T \\, S_1 (\\otimes_{k \\ne n} A^{(k)}) ,

using that a CountSketch-style operator satisfies ``E[SᵀS] = I``.  The
factor update then takes the leading left singular vectors of the estimate
(so factors stay orthonormal throughout), and the core solves the same
fully sketched problem as Tucker-ts.  Per sweep this avoids every large
least squares solve — the trade-off is a noisier update direction.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.result import TuckerResult
from ..exceptions import ConvergenceError
from ..linalg.svd import leading_left_singular_vectors
from ..metrics.timing import PhaseTimings, Timer
from ..tensor.random import default_rng, random_orthonormal
from ..validation import as_tensor, check_ranks
from ._common import BaselineFit
from ._sketched import default_sketch_dims, sketch_tensor
from .tucker_ts import _solve_core

__all__ = ["tucker_ttmts"]

logger = logging.getLogger("repro.baselines.tucker_ttmts")


def tucker_ttmts(
    tensor: np.ndarray,
    ranks: int | Sequence[int],
    *,
    sketch_dims: tuple[int, int] | None = None,
    sketch_factor: int = 10,
    seed: int | None = None,
    config: DTuckerConfig | None = None,
) -> BaselineFit:
    """Tucker decomposition with TensorSketch-estimated TTM chains.

    Parameters
    ----------
    tensor:
        Dense tensor.
    ranks:
        Target Tucker ranks.
    sketch_dims, sketch_factor:
        As in :func:`repro.baselines.tucker_ts.tucker_ts`.
    seed:
        Seed for hash functions and initialization; overrides
        ``config.seed``.
    config:
        Solver configuration supplying the sweep budget and the tolerance
        on the sketched-residual change.

    Returns
    -------
    BaselineFit
        With phases ``sketch`` and ``iteration``; ``history`` holds sketched
        relative residuals.
    """
    cfg = config if config is not None else DTuckerConfig()
    if seed is None:
        seed = cfg.seed
    x = as_tensor(tensor, min_order=1, name="tensor")
    rank_tuple = check_ranks(ranks, x.shape)
    dims = sketch_dims or default_sketch_dims(rank_tuple, factor=sketch_factor)
    gen = default_rng(seed)
    timings = PhaseTimings()

    with Timer() as t_sketch:
        sk = sketch_tensor(x, dims, gen)
    timings.add("sketch", t_sketch.seconds)

    factors = [
        random_orthonormal(i, j, gen) for i, j in zip(x.shape, rank_tuple)
    ]

    history: list[float] = []
    converged = False
    sweep = 0
    with Timer() as t_iter:
        for sweep in range(1, int(cfg.max_iters) + 1):
            for n in range(x.ndim):
                kron_sketch = sk.mode_sketches[n].sketch_kron(
                    sk.descending_secondary(n, factors)
                )
                # Sketch-estimated TTM chain: (S1 X_(n)ᵀ)ᵀ (S1 ⊗A).
                y = sk.z_modes[n].T @ kron_sketch
                factors[n] = leading_left_singular_vectors(y, rank_tuple[n])
            core, residual = _solve_core(sk, factors, rank_tuple)
            if not np.isfinite(residual):
                raise ConvergenceError(
                    f"non-finite sketched residual at sweep {sweep}"
                )
            history.append(residual)
            logger.debug(
                "tucker_ttmts sweep %d: sketched residual %.6e", sweep, residual
            )
            if len(history) >= 2 and abs(history[-2] - history[-1]) < float(cfg.tol):
                converged = True
                break
    timings.add("iteration", t_iter.seconds)

    return BaselineFit(
        result=TuckerResult(core=core, factors=factors),
        timings=timings,
        history=history,
        converged=converged,
        n_iters=sweep,
        extras={
            "sketch_dim_1": float(dims[0]),
            "sketch_dim_2": float(dims[1]),
            "stored_nbytes": float(sk.stored_nbytes),
        },
    )
