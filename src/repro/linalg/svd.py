"""Deterministic (truncated) SVD helpers.

These wrappers add four things over ``numpy.linalg.svd``:

* rank truncation with validation,
* a deterministic sign convention (the largest-magnitude entry of every left
  singular vector is made positive) so repeated runs and different code paths
  agree bit-for-bit up to round-off,
* an adaptive *Gram trick*: when a matrix is very wide, its left singular
  vectors are computed from the eigendecomposition of the small ``A Aᵀ``
  instead of a full SVD — the key to making D-Tucker's initialization phase
  cheap when the number of slices is large,
* a LAPACK-driver fallback: ``numpy.linalg.svd`` uses the fast
  divide-and-conquer driver (gesdd), which can fail to converge on
  near-degenerate inputs; :func:`robust_svd` retries with the slower but
  sturdier QR-iteration driver (gesvd) before giving up — mirroring the
  bad-slice fallback in
  :func:`repro.linalg.rsvd.batched_svd_via_gram`.

All entry points dispatch through the array-namespace facade
(:func:`repro.engine.array_api.array_module_of`) with one body each:
NumPy inputs reach the literal NumPy calls of
:class:`~repro.engine.array_api.NumpyModule`, while torch / CuPy /
array-API inputs stay in their namespace end to end.
"""

from __future__ import annotations

import numpy as np

from ..engine.array_api import array_module_of
from ..exceptions import RankError
from ..validation import check_matrix, check_positive_int

__all__ = [
    "sign_fix",
    "truncated_svd",
    "leading_left_singular_vectors",
    "robust_svd",
    "solve_gram",
]


def robust_svd(a, *, full_matrices: bool = False):
    """Thin SVD with a gesdd → gesvd LAPACK-driver fallback.

    NumPy's default divide-and-conquer driver (gesdd) is fast but can raise
    ``LinAlgError: SVD did not converge`` on near-degenerate matrices.  When
    that happens, retry on the host with SciPy's QR-iteration driver
    (gesvd), which is slower but converges on a strictly larger input
    class, and move the factors back to the caller's namespace.  Only the
    failure path differs — healthy inputs see the plain ``svd`` call.
    """
    am = array_module_of(a)
    try:
        return am.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        from scipy.linalg import svd as scipy_svd

        u, s, vt = scipy_svd(
            np.asarray(am.from_device(a), dtype=np.float64),
            full_matrices=full_matrices,
            lapack_driver="gesvd",
        )
        return am.to_device(u), am.to_device(s), am.to_device(vt)


def sign_fix(u, vt=None):
    """Apply a deterministic sign convention to SVD factors.

    The sign of each column of ``u`` is flipped so its largest-magnitude
    entry is positive; the corresponding row of ``vt`` (if given) is flipped
    too, preserving the product ``u @ diag(s) @ vt``.  Batch-safe: a stack
    ``u`` of shape ``(L, m, r)`` with ``vt`` of shape ``(L, r, n)`` is fixed
    slice by slice.
    """
    am = array_module_of(u, vt)
    u = am.asarray(u)
    signs = am.pivot_signs(u)
    u = u * signs[..., None, :]
    if vt is not None:
        vt = am.asarray(vt) * signs[..., :, None]
    return u, vt


def truncated_svd(matrix, rank: int):
    """Rank-``rank`` truncated SVD ``matrix ≈ U @ diag(s) @ Vt``.

    Parameters
    ----------
    matrix:
        Input of shape ``(m, n)``.
    rank:
        Number of singular triplets to keep; must satisfy
        ``1 <= rank <= min(m, n)``.

    Returns
    -------
    tuple
        ``(U, s, Vt)`` with shapes ``(m, rank)``, ``(rank,)``, ``(rank, n)``.
    """
    a = check_matrix(matrix, name="matrix")
    r = check_positive_int(rank, name="rank")
    if r > min(int(d) for d in a.shape):
        raise RankError(
            f"rank {r} exceeds min(matrix shape) = {min(int(d) for d in a.shape)}"
        )
    u, s, vt = robust_svd(a, full_matrices=False)
    u, vt = sign_fix(u[:, :r], vt[:r])
    return u, s[:r], vt


def _complete_basis(u, rank: int):
    """Extend ``u`` with orthonormal-complement columns up to ``rank``.

    Needed when more singular vectors are requested than the matrix has
    columns (a degenerate but legal Tucker geometry, e.g. rank ``J_n``
    exceeding ``Π_{k≠n} J_k``): the extra directions carry no energy, but
    downstream code relies on every factor having exactly ``J_n``
    orthonormal columns.
    """
    need = rank - int(u.shape[1])
    if need <= 0:
        return u[:, :rank]
    am = array_module_of(u)
    m = int(u.shape[0])
    ut = am.mT(u)
    projector = am.eye(m, dtype=am.np_dtype(u)) - am.matmul(u, ut)
    w, vecs = am.eigh((projector + am.mT(projector)) / 2.0)
    extra = am.flip(vecs, axis=1)[:, :need]
    extra = extra - am.matmul(u, am.matmul(ut, extra))
    extra, _ = am.qr(extra)
    return am.concatenate([u, extra], axis=1)


def leading_left_singular_vectors(matrix, rank: int):
    """Leading ``rank`` left singular vectors, via SVD or the Gram trick.

    When the matrix is wide (``n > 2 m``) the left singular vectors are the
    leading eigenvectors of ``A Aᵀ`` (size ``m × m``), which is much cheaper
    than an ``m × n`` SVD.  Otherwise a thin SVD is used.  Both paths apply
    :func:`sign_fix` so results from either branch agree.  If the matrix has
    fewer than ``rank`` columns, the basis is completed with orthonormal
    directions from the complement (see :func:`_complete_basis`).

    Parameters
    ----------
    matrix:
        Input of shape ``(m, n)``.
    rank:
        Number of vectors; must satisfy ``1 <= rank <= m``.
    """
    a = check_matrix(matrix, name="matrix")
    r = check_positive_int(rank, name="rank")
    m, n = (int(d) for d in a.shape)
    if r > m:
        raise RankError(f"rank {r} exceeds the row count {m}")
    am = array_module_of(a)
    if n > 2 * m:
        g = am.matmul(a, am.mT(a))
        g = (g + am.mT(g)) / 2.0
        w, v = am.eigh(g)
        # eigh returns ascending order; take the top-`r` eigenvectors.
        u = am.flip(v, axis=1)[:, :r]
    else:
        u = _complete_basis(robust_svd(a, full_matrices=False)[0], r)
    u, _ = sign_fix(u)
    return u


def solve_gram(gram_matrix, rhs, *, ridge: float = 0.0):
    """Solve ``(G + ridge·I) X = rhs`` for a symmetric PSD Gram matrix.

    Uses Cholesky when possible and falls back to the pseudo-inverse when the
    Gram matrix is numerically singular (e.g. a rank-deficient sketch).
    """
    g = check_matrix(gram_matrix, name="gram_matrix")
    if g.shape[0] != g.shape[1]:
        raise RankError(f"gram_matrix must be square, got {tuple(g.shape)}")
    am = array_module_of(g, rhs)
    b = am.astype(am.asarray(rhs), np.float64)
    a = g + ridge * am.eye(int(g.shape[0])) if ridge else g
    try:
        c = am.cholesky(a)
        y = am.solve(c, b)
        return am.solve(am.mT(c), y)
    except (np.linalg.LinAlgError, RuntimeError):  # torch's LinAlgError is a RuntimeError
        return am.matmul(am.pinv(a), b)
