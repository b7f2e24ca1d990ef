"""Automatic rank selection from the compressed slice representation.

Choosing Tucker ranks is the perennial practical question.  Because the
:class:`~repro.core.slice_svd.SliceSVD` already carries (approximate)
per-mode spectra, ranks meeting a target reconstruction error can be chosen
*without touching the raw tensor*, using the classic (ST-)HOSVD truncation
argument: if the discarded tail energy of mode ``n``'s unfolding is
``t_n``, the rank-``(J_1,…,J_N)`` HOSVD error is at most ``Σ_n t_n``.
Splitting the error budget evenly across modes gives a simple, safe rule —
the same one `suggest_ranks` implements here on compressed data.

All estimates include the (fixed) slice-compression residual
``‖X‖² − ‖X̃‖²``, so they are calibrated against the *original* tensor.
"""

from __future__ import annotations

import numpy as np

from ..validation import check_probability
from .initialization import _scaled_left_blocks, _scaled_right_blocks, w_tensor
from .slice_svd import SliceSVD
from ..linalg.svd import leading_left_singular_vectors
from ..tensor.unfold import unfold

__all__ = ["mode_spectra", "suggest_ranks", "estimate_error"]


def _left_spectrum(blocks: np.ndarray) -> np.ndarray:
    """Descending singular values of a (possibly very wide) block matrix."""
    m, n = blocks.shape
    if n > 2 * m:
        g = blocks @ blocks.T
        w = np.linalg.eigvalsh((g + g.T) / 2.0)
        return np.sqrt(np.clip(w[::-1], 0.0, None))
    return np.linalg.svd(blocks, compute_uv=False)


def mode_spectra(ssvd: SliceSVD) -> list[np.ndarray]:
    """Per-mode singular-value estimates of the compressed tensor.

    Mode 1 uses the spectrum of ``[U_1Σ_1 ⋯ U_LΣ_L]`` (which shares the
    leading spectrum of the mode-1 unfolding because every ``V_l`` is
    orthonormal); mode 2 the ``V`` side; modes ``≥ 3`` the unfoldings of the
    small projected tensor ``W``, built with rank-``K`` bases so no energy
    beyond the compression itself is discarded.

    Returns
    -------
    list of numpy.ndarray
        Descending singular values per mode; entries are capped at the
        compression rank ``K`` for the slice modes.
    """
    spectra = [
        _left_spectrum(_scaled_left_blocks(ssvd)),
        _left_spectrum(_scaled_right_blocks(ssvd)),
    ]
    if ssvd.order > 2:
        i1, i2 = ssvd.slice_shape
        r1 = min(i1, ssvd.rank)
        r2 = min(i2, ssvd.rank)
        a1 = leading_left_singular_vectors(_scaled_left_blocks(ssvd), r1)
        a2 = leading_left_singular_vectors(_scaled_right_blocks(ssvd), r2)
        w = w_tensor(ssvd, a1, a2)
        for n in range(2, ssvd.order):
            spectra.append(np.linalg.svd(unfold(w, n), compute_uv=False))
    return spectra


def estimate_error(ssvd: SliceSVD, ranks: tuple[int, ...]) -> float:
    """Upper-bound estimate of the rank-``ranks`` reconstruction error.

    The HOSVD bound ``Σ_n (tail energy of mode n)`` plus the compression
    residual, normalised by ``‖X‖²``.  Being an upper bound, it is safe for
    budget checks (the realised ALS error is typically noticeably smaller).
    """
    spectra = mode_spectra(ssvd)
    if len(ranks) != len(spectra):
        from ..exceptions import RankError

        raise RankError(
            f"expected {len(spectra)} ranks for an order-{len(spectra)} "
            f"tensor, got {len(ranks)}"
        )
    tail = 0.0
    for s, j in zip(spectra, ranks):
        tail += float(np.sum(s[int(j):] ** 2))
    compression = max(ssvd.norm_squared - ssvd.approx_norm_squared(), 0.0)
    return float(min((tail + compression) / ssvd.norm_squared, 1.0))


def suggest_ranks(
    ssvd: SliceSVD,
    target_error: float,
    *,
    max_rank: int | None = None,
) -> tuple[int, ...]:
    """Smallest per-mode ranks whose estimated error meets ``target_error``.

    Parameters
    ----------
    ssvd:
        Compressed representation (its rank ``K`` caps the slice modes).
    target_error:
        Desired ``‖X − X̂‖²/‖X‖²`` in ``(0, 1]``.
    max_rank:
        Optional cap applied to every mode.

    Returns
    -------
    tuple of int
        One rank per mode.  If the budget is unreachable (e.g. smaller than
        the compression residual), the largest representable ranks are
        returned — callers can verify with :func:`estimate_error`.
    """
    eps = check_probability(target_error, name="target_error")
    spectra = mode_spectra(ssvd)
    order = len(spectra)
    compression = max(ssvd.norm_squared - ssvd.approx_norm_squared(), 0.0)
    budget = max(eps * ssvd.norm_squared - compression, 0.0) / order
    ranks = []
    for n, s in enumerate(spectra):
        energies = s**2
        # Smallest j with tail energy sum(energies[j:]) <= budget.
        tail = np.concatenate([np.cumsum(energies[::-1])[::-1], [0.0]])
        j = int(np.searchsorted(-tail, -budget))  # first index with tail <= budget
        j = max(j, 1)
        cap = ssvd.shape[n]
        if max_rank is not None:
            cap = min(cap, int(max_rank))
        ranks.append(min(j, cap, len(s)))
    return tuple(ranks)
