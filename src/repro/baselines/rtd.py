"""RTD: randomized Tucker decomposition (Che & Wei 2019 style).

A one-pass randomized algorithm: process the modes sequentially, replacing
the deterministic truncated SVD of ST-HOSVD with a Halko randomized SVD of
the (shrinking) partial core's unfolding.  No ALS refinement — this is the
"fast but no iteration" point in the accuracy/time trade-off space.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.result import TuckerResult
from ..exceptions import ShapeError
from ..linalg.rsvd import rsvd
from ..metrics.timing import PhaseTimings, Timer
from ..tensor.products import mode_product
from ..tensor.random import default_rng
from ..tensor.unfold import unfold
from ..validation import as_tensor, check_ranks
from ._common import BaselineFit

__all__ = ["rtd"]


def rtd(
    tensor: np.ndarray,
    ranks: int | Sequence[int],
    *,
    mode_order: Sequence[int] | None = None,
    seed: int | None = None,
    config: DTuckerConfig | None = None,
) -> BaselineFit:
    """Randomized sequentially truncated Tucker decomposition.

    Parameters
    ----------
    tensor:
        Dense tensor.
    ranks:
        Target Tucker ranks.
    mode_order:
        Processing order; defaults to largest mode first.
    seed:
        Seed for the Gaussian test matrices; overrides ``config.seed``.
    config:
        Solver configuration supplying the randomized-SVD parameters used
        for every mode.

    Returns
    -------
    BaselineFit
        One-pass fit with a single ``decomposition`` phase.
    """
    cfg = config if config is not None else DTuckerConfig()
    if seed is None:
        seed = cfg.seed
    x = as_tensor(tensor, min_order=1, name="tensor")
    rank_tuple = check_ranks(ranks, x.shape)
    if mode_order is None:
        order = sorted(range(x.ndim), key=lambda n: (-x.shape[n], n))
    else:
        order = [int(m) for m in mode_order]
        if sorted(order) != list(range(x.ndim)):
            raise ShapeError(
                f"mode_order must be a permutation of 0..{x.ndim - 1}, got {mode_order}"
            )
    gen = default_rng(seed)
    timings = PhaseTimings()
    factors: list[np.ndarray | None] = [None] * x.ndim
    with Timer() as t:
        g = x
        for n in order:
            u = rsvd(
                unfold(g, n),
                rank_tuple[n],
                oversampling=int(cfg.oversampling),
                power_iterations=int(cfg.power_iterations),
                rng=gen,
            )[0]
            factors[n] = u
            g = mode_product(g, u, n, transpose=True)
    timings.add("decomposition", t.seconds)
    assert all(f is not None for f in factors)
    return BaselineFit(
        result=TuckerResult(core=g, factors=list(factors)),  # type: ignore[arg-type]
        timings=timings,
    )
