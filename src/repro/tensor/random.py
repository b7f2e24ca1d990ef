"""Random tensors and random Tucker models used by tests and datasets.

All randomness in the library flows through :func:`default_rng` so that every
experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..validation import check_positive_int, check_ranks
from .products import tucker_to_tensor

__all__ = [
    "default_rng",
    "random_orthonormal",
    "random_tucker",
    "random_tensor",
    "drifting_tensor",
]


def default_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Passing an existing generator returns it unchanged, which lets helper
    functions thread one RNG through a pipeline without reseeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_orthonormal(
    rows: int, cols: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Sample a ``rows × cols`` matrix with orthonormal columns.

    Drawn as the Q factor of a Gaussian matrix, i.e. Haar-distributed on the
    Stiefel manifold.  Requires ``cols <= rows``.
    """
    r = check_positive_int(rows, name="rows")
    c = check_positive_int(cols, name="cols")
    if c > r:
        from ..exceptions import RankError

        raise RankError(f"cannot build {r}x{c} orthonormal columns (cols > rows)")
    gen = default_rng(rng)
    q, _ = np.linalg.qr(gen.standard_normal((r, c)))
    return q


def random_tucker(
    shape: Sequence[int],
    ranks: int | Sequence[int],
    rng: int | np.random.Generator | None = None,
    *,
    core_scale: float = 1.0,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sample a random Tucker model ``(core, factors)``.

    Factors are orthonormal; the core is i.i.d. Gaussian scaled by
    ``core_scale``.

    Returns
    -------
    tuple
        ``(core, factors)`` with ``core.shape == ranks`` and
        ``factors[n].shape == (shape[n], ranks[n])``.
    """
    dims = tuple(int(s) for s in shape)
    rank_tuple = check_ranks(ranks, dims)
    gen = default_rng(rng)
    core = core_scale * gen.standard_normal(rank_tuple)
    factors = [random_orthonormal(i, j, gen) for i, j in zip(dims, rank_tuple)]
    return core, factors


def random_tensor(
    shape: Sequence[int],
    ranks: int | Sequence[int],
    rng: int | np.random.Generator | None = None,
    *,
    noise: float = 0.0,
) -> np.ndarray:
    """Sample a dense tensor with exact Tucker rank ``ranks`` plus noise.

    Parameters
    ----------
    shape:
        Tensor shape.
    ranks:
        Tucker ranks of the noiseless part.
    noise:
        Standard deviation of additive i.i.d. Gaussian noise *relative* to
        the RMS magnitude of the noiseless tensor (``0`` = exact low rank).

    Returns
    -------
    numpy.ndarray
        The noisy tensor.
    """
    gen = default_rng(rng)
    core, factors = random_tucker(shape, ranks, gen)
    x = tucker_to_tensor(core, factors)
    if noise > 0.0:
        rms = float(np.sqrt(np.mean(x**2)))
        x = x + gen.standard_normal(x.shape) * (noise * rms)
    return x


def drifting_tensor(
    shape: Sequence[int],
    ranks: Sequence[int],
    rng: int | np.random.Generator | None = None,
    *,
    theta: float,
    noise: float = 0.0,
) -> np.ndarray:
    """An order-3 temporal tensor whose mode-1 factor drifts over time.

    Slice ``t`` is ``A(t) G_t Bᵀ`` with ``A(t) = A cos φ_t + A' sin φ_t``,
    ``φ_t = θ·t/T``: the mode-1 factor turns by ``theta`` radians over the
    last (temporal) mode into an orthogonal complement ``A'`` of ``A``
    (``theta=0`` is a stationary Tucker tensor).  ``G_t`` is the core's
    product with row ``t`` of a Gaussian temporal factor.  ``noise`` is
    relative to the RMS of the noiseless tensor, as in
    :func:`random_tensor`.  Requires ``2·ranks[0] <= shape[0]``.
    """
    i1, i2, t = (int(s) for s in shape)
    r1, r2, r3 = check_ranks(ranks, (i1 // 2, i2, t))
    gen = default_rng(rng)
    a = random_orthonormal(i1, 2 * r1, gen)
    b = random_orthonormal(i2, r2, gen)
    core = gen.standard_normal((r1, r2, r3))
    c = gen.standard_normal((t, r3))
    phi = float(theta) * np.arange(t) / t
    a_t = (
        np.cos(phi)[:, None, None] * a[:, :r1]
        + np.sin(phi)[:, None, None] * a[:, r1:]
    )
    x = np.einsum("tia,abk,tk,jb->ijt", a_t, core, c, b, optimize=True)
    if noise > 0.0:
        rms = float(np.sqrt(np.mean(x**2)))
        x = x + gen.standard_normal(x.shape) * (noise * rms)
    return x
