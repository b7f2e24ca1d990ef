"""QR-based orthonormalization helpers.

ALS sweeps repeatedly re-orthonormalize factor matrices; these helpers make
that a one-liner with a deterministic sign convention (positive diagonal of
``R``) and a safe fallback for rank-deficient inputs.
"""

from __future__ import annotations

import numpy as np

from ..validation import check_matrix

__all__ = ["economy_qr", "orthonormalize"]


def economy_qr(matrix):
    """Economy QR with the sign convention ``diag(R) >= 0``.

    Returns
    -------
    tuple
        ``(Q, R)`` with ``Q`` of shape ``(m, min(m, n))`` column-orthonormal
        and ``Q @ R == matrix`` up to round-off.
    """
    a = check_matrix(matrix, name="matrix")
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs, r * signs[:, None]


def orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Return an orthonormal basis for the column space of ``matrix``.

    For numerically rank-deficient inputs the QR basis can contain junk
    directions; callers that need a *spanning* basis should prefer
    :func:`repro.linalg.svd.leading_left_singular_vectors`.  This helper is
    the cheap option used inside ALS sweeps where inputs are well conditioned.
    """
    return economy_qr(matrix)[0]
