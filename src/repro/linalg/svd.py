"""Deterministic (truncated) SVD helpers.

These wrappers add four things over ``numpy.linalg.svd``:

* rank truncation with validation,
* a deterministic sign convention (the largest-magnitude entry of every left
  singular vector is made positive) so repeated runs and different code paths
  agree bit-for-bit up to round-off,
* leading left singular vectors from one top-``r`` eigensolve of the
  short-side Gram matrix instead of a thin SVD — the key to making
  D-Tucker's initialization and factor updates cheap — and, for an update
  that starts from an almost-right answer, two subspace steps from that
  answer instead of the eigensolve,
* a LAPACK-driver fallback: ``numpy.linalg.svd`` uses the fast
  divide-and-conquer driver (gesdd), which can fail to converge on
  near-degenerate inputs; :func:`robust_svd` retries with the slower but
  sturdier QR-iteration driver (gesvd) before giving up — mirroring the
  bad-slice fallback in
  :func:`repro.linalg.rsvd.batched_svd_via_gram`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import RankError
from ..validation import check_matrix, check_positive_int

__all__ = [
    "sign_fix",
    "truncated_svd",
    "leading_left_singular_vectors",
    "refine_left_singular_vectors",
    "gram_leading_eigenvectors",
    "robust_svd",
    "solve_gram",
]


def robust_svd(a, *, full_matrices: bool = False):
    """Thin SVD with a gesdd → gesvd LAPACK-driver fallback.

    NumPy's default divide-and-conquer driver (gesdd) is fast but can raise
    ``LinAlgError: SVD did not converge`` on near-degenerate matrices.  When
    that happens, retry in float64 with SciPy's QR-iteration driver
    (gesvd), which is slower but converges on a strictly larger input
    class.  Only the failure path differs — healthy inputs see the plain
    ``svd`` call.
    """
    try:
        return np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        from scipy.linalg import svd as scipy_svd

        return scipy_svd(
            np.asarray(a, dtype=np.float64),
            full_matrices=full_matrices,
            lapack_driver="gesvd",
        )


#: Bytes of ``|U|`` that :func:`_pivot_signs` holds at a time.
_PIVOT_BYTES = 1 << 18


def _pivot_signs(u):
    """Sign of each column's largest-magnitude entry, zeros mapped to +1.

    ``u`` is a matrix ``(m, r)`` or a stack ``(L, m, r)``; the result has
    shape ``(r,)`` / ``(L, r)``.  A stack is scanned a few slices at a
    time (about ``_PIVOT_BYTES``), so ``|u|`` never exists whole.
    """
    stack = u[None] if u.ndim == 2 else u
    signs = np.empty((stack.shape[0], stack.shape[2]), dtype=u.dtype)
    step = max(1, _PIVOT_BYTES // max(1, stack[0].nbytes))
    for lo in range(0, stack.shape[0], step):
        part = stack[lo : lo + step]
        idx = np.argmax(np.abs(part), axis=-2)[:, None, :]
        signs[lo : lo + step] = np.sign(np.take_along_axis(part, idx, axis=-2)[:, 0])
    signs[signs == 0] = 1.0
    return signs[0] if u.ndim == 2 else signs


def sign_fix(u, vt=None, *, overwrite=False):
    """Apply a deterministic sign convention to SVD factors.

    The sign of each column of ``u`` is flipped so its largest-magnitude
    entry is positive; the corresponding row of ``vt`` (if given) is flipped
    too, preserving the product ``u @ diag(s) @ vt``.  Batch-safe: a stack
    ``u`` of shape ``(L, m, r)`` with ``vt`` of shape ``(L, r, n)`` is fixed
    slice by slice.  The inputs are left unchanged unless ``overwrite``:
    then C-contiguous arrays are flipped in place and returned, and any
    other layout, such as a truncated or column-reversed view, is flipped
    in a compact copy, so the result never keeps a larger base array
    alive (the compression kernels' factors, which nothing else holds).
    """
    own = np.ascontiguousarray if overwrite else np.array
    u = own(u)
    signs = _pivot_signs(u)
    u *= signs[..., None, :]
    if vt is not None:
        vt = own(vt)
        vt *= signs[..., :, None]
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
    m = int(u.shape[0])
    ut = u.swapaxes(-1, -2)
    projector = np.eye(m, dtype=u.dtype) - np.matmul(u, ut)
    _, extra = _eigh_top(projector, need)
    extra = extra - np.matmul(u, np.matmul(ut, extra))
    extra, _ = np.linalg.qr(extra)
    return np.concatenate([u, extra], axis=1)


def _eigh_top(a, k: int):
    """The ``k`` largest eigenpairs of symmetric ``a``, in ascending order.

    Reads one triangle of ``a``.  A full ``eigh`` and a slice: this stays
    in NumPy's own LAPACK, where SciPy's subset solver would load a second
    OpenBLAS whose thread team contends with NumPy's.  Input that is not
    finite raises ``LinAlgError`` or yields non-finite eigenvalues.
    """
    w, v = np.linalg.eigh(a)
    n = int(a.shape[-1])
    return w[n - k :], v[:, n - k :]


def _top_eigenvectors(gram, rank: int):
    """Top-``rank`` eigenvectors of a Gram matrix, largest first.

    Returns ``None`` when the Gram matrix cannot give them accurately: a
    non-finite eigenvalue (or an eigensolver failure), or
    ``λ_rank <= q·eps·λ_1`` for a ``q × q`` Gram.  Squaring the spectrum
    leaves singular values below ``~sqrt(eps)·σ_1`` without a meaningful
    direction (the guard of :func:`repro.linalg.rsvd.batched_svd_via_gram`);
    the factor ``q``, the backward-error scale of forming and solving the
    Gram, keeps the round-off eigenvalues of a rank-deficient matrix
    (about ``eps·λ_1``) below the threshold.
    """
    try:
        w, v = _eigh_top(gram, rank)
    except np.linalg.LinAlgError:
        return None
    w = np.asarray(w, dtype=np.float64)
    floor = int(gram.shape[0]) * float(np.finfo(gram.dtype).eps)
    if not np.isfinite(w).all() or w[0] <= floor * w[-1]:
        return None
    return v[:, ::-1]


def leading_left_singular_vectors(matrix, rank: int):
    """Leading ``rank`` left singular vectors from a top-``rank`` Gram eigensolve.

    An ``m × n`` matrix ``A`` takes one of three routes:

    * wide or square (``n >= m``): the top-``rank`` eigenvectors of the
      ``m × m`` Gram ``A Aᵀ``;
    * tall (``rank <= n < m``): the top-``rank`` eigenvectors ``V`` of the
      ``n × n`` Gram ``Aᵀ A``, lifted by the left singular vectors of the
      thin ``m × rank`` product ``A V`` (a Rayleigh–Ritz step, which keeps
      the result orthonormal to working precision);
    * fewer columns than ``rank`` (``n < rank``): a thin SVD, completed
      with orthonormal directions from the complement (see
      :func:`_complete_basis`).

    When the Gram spectrum is non-finite or reaches ``σ_rank <=
    sqrt(q·eps)·σ_1`` for the short side ``q`` (see
    :func:`_top_eigenvectors`), the first two routes fall back to the thin
    SVD of ``A``.  Every route applies :func:`sign_fix`.

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
    u = None
    if n >= m:
        u = _top_eigenvectors(np.matmul(a, a.swapaxes(-1, -2)), r)
    elif n >= r:
        v = _top_eigenvectors(np.matmul(a.swapaxes(-1, -2), a), r)
        if v is not None:
            u = robust_svd(np.matmul(a, v), full_matrices=False)[0]
    if u is None:
        u = _complete_basis(robust_svd(a, full_matrices=False)[0], r)
    u, _ = sign_fix(u)
    return u


#: Block-power steps of one :func:`refine_left_singular_vectors` call.
#: Over 400 ``serve_mixed`` operations (seed 1), one step took a spot-checked
#: answer from 1.0158 to 1.0394 of its direct fit and 3 of 302 warm solves
#: to a third sweep; two keep every spot check within 0.0012 of the
#: eigensolve's and every solve at two sweeps (docs/performance.md).
REFINE_STEPS = 2


def refine_left_singular_vectors(matrix, rank: int, prev, *, stats=None):
    """Leading ``rank`` left singular vectors refined from a previous answer.

    For a factor update whose previous factor ``prev`` (``m × rank``,
    orthonormal columns) is almost right — an ALS solve started from the
    factors of an overlapping answer — :data:`REFINE_STEPS` block-power
    steps with a Rayleigh–Ritz step each replace the ``m × m`` eigensolve
    of :func:`leading_left_singular_vectors`::

        Q = qr(A·(Aᵀ·U)),  B = Qᵀ·A,  B·Bᵀ = V·Θ·Vᵀ,  U = Q·V

    with ``Θ`` in descending order; only a ``rank × rank`` eigensolve is
    left.  Each step captures at least the energy ``‖Uᵀ·A‖²`` of the
    subspace it started from, and the iterates approach the leading
    subspace at the rate ``(σ_{rank+1} / σ_rank)²`` per step.

    ``matrix`` is taken as given (an internal sweep's unfolding, already
    float).  The refinement falls back to
    :func:`leading_left_singular_vectors` when ``prev`` is ``None`` or not
    ``m × rank``, when a Ritz value is non-finite, or when ``θ_rank <=
    rank·eps·θ_1`` (the guard of :func:`_top_eigenvectors`).  Every route
    applies :func:`sign_fix`.  With ``stats`` (a
    :class:`~repro.kernels.stats.KernelStats`), the call records one miss:
    ``factor:warm`` for a refinement, ``factor:eigh`` for a fallback.
    """
    a = matrix
    r = int(rank)
    u = None
    if prev is not None and tuple(prev.shape) == (int(a.shape[0]), r):
        u = prev
        at = a.swapaxes(-1, -2)
        for _ in range(REFINE_STEPS):
            q, _ = np.linalg.qr(np.matmul(a, np.matmul(at, u)))
            b = np.matmul(q.swapaxes(-1, -2), a)
            v = _top_eigenvectors(np.matmul(b, b.swapaxes(-1, -2)), r)
            if v is None:
                u = None
                break
            u = np.matmul(q, v)
    if stats is not None:
        stats.record_miss("factor:eigh" if u is None else "factor:warm")
    if u is None:
        return leading_left_singular_vectors(a, r)
    u, _ = sign_fix(u, overwrite=True)
    return u


def gram_leading_eigenvectors(gram, rank: int):
    """Leading ``rank`` eigenvectors of a Gram matrix ``A Aᵀ``, sign-fixed.

    The wide-matrix tail of :func:`leading_left_singular_vectors` for
    callers that accumulate ``A Aᵀ`` without forming ``A`` (the blockwise
    initialization Gram of :mod:`repro.core.initialization`): the same
    top-``rank`` eigensolve and sign convention, without the SVD fallback
    (there is no ``A`` to fall back to).  Only one triangle of ``gram`` is
    read.  The result keeps the Gram matrix's dtype.
    """
    _, v = _eigh_top(gram, rank)
    u, _ = sign_fix(v[:, ::-1])
    return u


def solve_gram(gram_matrix, rhs, *, ridge: float = 0.0):
    """Solve ``(G + ridge·I) X = rhs`` for a symmetric PSD Gram matrix.

    Uses Cholesky when possible and falls back to the pseudo-inverse when the
    Gram matrix is numerically singular (e.g. a rank-deficient sketch).
    float32 ``G`` and ``rhs`` solve in float32 (ridge included); any other
    combination solves in float64.
    """
    g = check_matrix(gram_matrix, name="gram_matrix")
    if g.shape[0] != g.shape[1]:
        raise RankError(f"gram_matrix must be square, got {tuple(g.shape)}")
    b = np.asarray(rhs)
    single = g.dtype == np.float32 and b.dtype == np.float32
    dtype = np.float32 if single else np.float64
    b = np.asarray(b, dtype=dtype)
    a = g + ridge * np.eye(int(g.shape[0]), dtype=dtype) if ridge else g
    try:
        c = np.linalg.cholesky(a)
        y = np.linalg.solve(c, b)
        return np.linalg.solve(c.swapaxes(-1, -2), y)
    except np.linalg.LinAlgError:
        return np.matmul(np.linalg.pinv(a), b)
