"""MACH (Tsourakakis 2010): randomized element sampling, then Tucker.

MACH sparsifies the tensor by keeping each entry independently with
probability ``p`` (rescaled by ``1/p`` so the sample is unbiased:
``E[X_sampled] = X``) and then runs an exact Tucker solver on the much
sparser tensor.  The paper family uses it as the "sampling" competitor: its
preprocessing is cheap but accuracy degrades quickly as ``p`` shrinks,
especially on tensors without strong entrywise redundancy.

At this library's (laptop) scale the sampled tensor is kept as a dense
array with zeros — the HOOI pass is dense either way — while the *memory
figure* accounts for what a real deployment would store: ``nnz`` values plus
their indices (see :func:`repro.metrics.memory.mach_nbytes`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..metrics.memory import mach_nbytes
from ..metrics.timing import Timer
from ..tensor.random import default_rng
from ..validation import as_tensor, check_probability, check_ranks
from ._common import BaselineFit
from .tucker_als import tucker_als

__all__ = ["mach_tucker", "sample_tensor"]


def sample_tensor(
    tensor: np.ndarray,
    keep_probability: float,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, float]:
    """Bernoulli-sample ``tensor``, rescaling kept entries by ``1/p``.

    Returns
    -------
    tuple
        ``(sampled, realised_fraction)`` — the unbiased sparsified tensor
        and the realised fraction of kept entries.
    """
    x = as_tensor(tensor, min_order=1, name="tensor")
    p = check_probability(keep_probability, name="keep_probability")
    gen = default_rng(rng)
    mask = gen.random(x.shape) < p
    sampled = np.where(mask, x / p, 0.0)
    return sampled, float(mask.mean())


def mach_tucker(
    tensor: np.ndarray,
    ranks: int | Sequence[int],
    *,
    keep_probability: float = 0.1,
    seed: int | None = None,
    config: DTuckerConfig | None = None,
) -> BaselineFit:
    """Tucker decomposition of a Bernoulli-sampled tensor (MACH).

    Parameters
    ----------
    tensor:
        Dense tensor.
    ranks:
        Target Tucker ranks.
    keep_probability:
        Sampling rate ``p ∈ (0, 1]`` (the paper's ``S``).
    seed:
        Sampling seed; overrides ``config.seed``.
    config:
        Solver configuration; ``max_iters``/``tol`` reach the inner HOOI
        solve.

    Returns
    -------
    BaselineFit
        With phases ``sampling``, ``init``, ``iteration``; extras record the
        realised keep fraction and the bytes a sparse store would need.
    """
    cfg = config if config is not None else DTuckerConfig()
    if seed is None:
        seed = cfg.seed
    x = as_tensor(tensor, min_order=1, name="tensor")
    rank_tuple = check_ranks(ranks, x.shape)
    gen = default_rng(seed)
    with Timer() as t_sample:
        sampled, realised = sample_tensor(x, keep_probability, gen)
    inner = tucker_als(sampled, rank_tuple, config=cfg, init="hosvd")
    inner.timings.add("sampling", t_sample.seconds)
    inner.extras["keep_fraction"] = realised
    inner.extras["stored_nbytes"] = float(mach_nbytes(x.shape, realised))
    return inner
