"""Tucker-ts (Malik & Becker, NeurIPS 2018): sketched-least-squares ALS.

The exact ALS subproblem for mode ``n`` is the least squares problem

.. math:: \\min_A \\;\\big\\| (\\otimes_{k \\ne n} A^{(k)})\\, G_{(n)}^T A^T
          - X_{(n)}^T \\big\\|_F ,

whose design matrix has ``Π_{k≠n} I_k`` rows.  Tucker-ts sketches both sides
with a TensorSketch ``S1⁽ⁿ⁾``: the right-hand side ``S1⁽ⁿ⁾ X_(n)ᵀ`` is
precomputed *once*, and the design side ``S1⁽ⁿ⁾(⊗A) G_(n)ᵀ`` is recomputed
each sweep via the FFT trick without forming the Kronecker product.  The
core solves the analogous fully sketched problem with a second sketch
``S2``.  Factors are orthonormalized once at the end (QR, pushing ``R``
into the core), preserving this library's orthonormal-factor convention.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.result import TuckerResult
from ..exceptions import ConvergenceError
from ..linalg.qr import economy_qr
from ..metrics.timing import PhaseTimings, Timer
from ..tensor.products import mode_product
from ..tensor.random import default_rng
from ..tensor.unfold import tensorize, unfold
from ..validation import as_tensor, check_ranks
from ._common import BaselineFit
from ._sketched import SketchedTensor, default_sketch_dims, sketch_tensor

__all__ = ["tucker_ts"]

logger = logging.getLogger("repro.baselines.tucker_ts")


def _sketched_design(
    sk: SketchedTensor,
    mode: int,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
) -> np.ndarray:
    """``S1⁽ⁿ⁾ (⊗_{k≠n} A(k)) G_(n)ᵀ`` of shape ``(s1, J_n)``."""
    kron_sketch = sk.mode_sketches[mode].sketch_kron(
        sk.descending_secondary(mode, factors)
    )
    return kron_sketch @ unfold(core, mode).T


def _solve_core(sk: SketchedTensor, factors: Sequence[np.ndarray], ranks: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """Solve the fully sketched core problem; return ``(core, rel_residual)``."""
    design = sk.full_sketch.sketch_kron(sk.descending_all(factors))
    vec_g, *_ = np.linalg.lstsq(design, sk.z_full, rcond=None)
    residual = float(
        np.linalg.norm(design @ vec_g - sk.z_full) / np.linalg.norm(sk.z_full)
    )
    return tensorize(vec_g, ranks), residual


def tucker_ts(
    tensor: np.ndarray,
    ranks: int | Sequence[int],
    *,
    sketch_dims: tuple[int, int] | None = None,
    sketch_factor: int = 10,
    seed: int | None = None,
    config: DTuckerConfig | None = None,
) -> BaselineFit:
    """Tucker decomposition with TensorSketch-ed ALS least squares.

    Parameters
    ----------
    tensor:
        Dense tensor.
    ranks:
        Target Tucker ranks.
    sketch_dims:
        ``(s1, s2)``; defaults to :func:`repro.baselines._sketched.
        default_sketch_dims` scaled by ``sketch_factor``.
    sketch_factor:
        Multiplier for the default sketch sizes (accuracy vs time/space).
    seed:
        Seed for hash functions and initialization; overrides
        ``config.seed``.
    config:
        Solver configuration supplying the sweep budget and the tolerance
        on the sketched-residual change.

    Returns
    -------
    BaselineFit
        With phases ``sketch`` and ``iteration``; ``history`` holds the
        *sketched* relative residuals (not exact errors), and extras record
        the sketch sizes and stored bytes.
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

    # Gaussian init (the reference implementation's default); the sketched
    # LS solves fix the scale immediately in the first sweep.
    factors = [
        gen.standard_normal((i, j)) for i, j in zip(x.shape, rank_tuple)
    ]
    core = gen.standard_normal(rank_tuple)

    history: list[float] = []
    converged = False
    sweep = 0
    with Timer() as t_iter:
        for sweep in range(1, int(cfg.max_iters) + 1):
            for n in range(x.ndim):
                design = _sketched_design(sk, n, factors, core)
                at, *_ = np.linalg.lstsq(design, sk.z_modes[n], rcond=None)
                factors[n] = at.T
            core, residual = _solve_core(sk, factors, rank_tuple)
            if not np.isfinite(residual):
                raise ConvergenceError(
                    f"non-finite sketched residual at sweep {sweep}"
                )
            history.append(residual)
            logger.debug("tucker_ts sweep %d: sketched residual %.6e", sweep, residual)
            if len(history) >= 2 and abs(history[-2] - history[-1]) < float(cfg.tol):
                converged = True
                break
        # Orthonormalize factors, pushing the triangular parts into the core.
        for n in range(x.ndim):
            q, r = economy_qr(factors[n])
            factors[n] = q
            core = mode_product(core, r, n)
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
