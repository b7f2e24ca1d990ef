"""Tucker-ALS (HOOI) — the classical baseline, on the raw tensor.

Higher-Order Orthogonal Iteration (De Lathauwer et al. 2000; Kolda & Bader
2009, Alg. "HOOI"): every sweep replaces each factor with the leading left
singular vectors of the TTM chain ``X ×_{k≠n} A(k)ᵀ`` computed on the *full
tensor*.  This is the accuracy gold standard D-Tucker is measured against —
and the cost center, since each sweep touches all ``Π I_k`` entries per mode.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.result import TuckerResult
from ..exceptions import ConvergenceError, ShapeError
from ..linalg.svd import leading_left_singular_vectors
from ..metrics.timing import PhaseTimings, Timer
from ..tensor.norms import core_based_error, frobenius_norm_squared
from ..tensor.products import multi_mode_product
from ..tensor.random import default_rng, random_orthonormal
from ..tensor.unfold import unfold
from ..validation import as_tensor, check_ranks
from ._common import BaselineFit
from .hosvd import st_hosvd

__all__ = ["tucker_als"]

logger = logging.getLogger("repro.baselines.tucker_als")


def tucker_als(
    tensor: np.ndarray,
    ranks: int | Sequence[int],
    *,
    init: str = "hosvd",
    seed: int | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    config: DTuckerConfig | None = None,
) -> BaselineFit:
    """Tucker decomposition via HOOI on the dense tensor.

    Parameters
    ----------
    tensor:
        Dense tensor.
    ranks:
        Target Tucker ranks.
    init:
        ``"hosvd"`` (ST-HOSVD warm start, the standard choice) or
        ``"random"``.
    seed:
        Seed for random initialization; overrides ``config.seed``.
    initial_factors:
        Explicit starting factors; overrides ``init`` when given.
    config:
        Solver configuration supplying the sweep budget and tolerance —
        the same object every other entry point accepts.

    Returns
    -------
    BaselineFit
        With phases ``init`` and ``iteration`` and a per-sweep error history
        (exact, via the core-norm identity — HOOI projects the true tensor,
        so ``||X - X̂||² = ||X||² - ||G||²`` holds exactly here).
    """
    cfg = config if config is not None else DTuckerConfig()
    if seed is None:
        seed = cfg.seed
    x = as_tensor(tensor, min_order=1, name="tensor")
    rank_tuple = check_ranks(ranks, x.shape)
    timings = PhaseTimings()
    norm_sq = frobenius_norm_squared(x)

    with Timer() as t_init:
        if initial_factors is not None:
            factors = [np.asarray(a, dtype=float) for a in initial_factors]
            if len(factors) != x.ndim:
                raise ShapeError(
                    f"expected {x.ndim} initial factors, got {len(factors)}"
                )
        elif init == "hosvd":
            factors = st_hosvd(x, rank_tuple).result.factors
        elif init == "random":
            gen = default_rng(seed)
            factors = [
                random_orthonormal(i, j, gen)
                for i, j in zip(x.shape, rank_tuple)
            ]
        else:
            raise ShapeError(f"init must be 'hosvd' or 'random', got {init!r}")
    timings.add("init", t_init.seconds)

    errors: list[float] = []
    converged = False
    sweep = 0
    core = multi_mode_product(x, factors, transpose=True)
    with Timer() as t_iter:
        for sweep in range(1, int(cfg.max_iters) + 1):
            for n in range(x.ndim):
                y = multi_mode_product(
                    x,
                    [factors[k] for k in range(x.ndim) if k != n],
                    modes=[k for k in range(x.ndim) if k != n],
                    transpose=True,
                )
                factors[n] = leading_left_singular_vectors(
                    unfold(y, n), rank_tuple[n]
                )
            core = multi_mode_product(x, factors, transpose=True)
            err = core_based_error(norm_sq, core)
            if not np.isfinite(err):
                raise ConvergenceError(
                    f"non-finite error at sweep {sweep}; input corrupt?"
                )
            errors.append(err)
            logger.debug("HOOI sweep %d: error %.6e", sweep, err)
            if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < float(cfg.tol):
                converged = True
                break
    timings.add("iteration", t_iter.seconds)

    return BaselineFit(
        result=TuckerResult(core=core, factors=factors),
        timings=timings,
        history=errors,
        converged=converged,
        n_iters=sweep,
    )
