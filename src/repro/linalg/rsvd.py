"""Randomized SVD (Halko, Martinsson & Tropp 2011) — single and batched.

The approximation phase of D-Tucker runs one truncated SVD per slice matrix.
Because all slices share a shape, the whole phase vectorizes into *batched*
range finding and *batched* small SVDs (:func:`batched_rsvd`): one Gaussian
test matrix is shared across slices and every matmul/QR/SVD runs on an
``(L, I1, I2)`` stack in a handful of BLAS calls, which is dramatically
faster in NumPy than a Python loop over ``L`` slices.

Sharing the test matrix across slices does not change the per-slice error
analysis — the Halko bound conditions only on the Gaussian matrix being
independent of the *input*, which it is for every slice.  (It does correlate
errors *across* slices; the A2 ablation benchmark measures the end-to-end
effect and finds it negligible.)
"""

from __future__ import annotations

import numpy as np

from ..engine.array_api import array_module_of
from ..exceptions import RankError
from ..tensor.random import default_rng
from ..validation import check_matrix, check_positive_int
from .svd import sign_fix

__all__ = [
    "rsvd",
    "batched_rsvd",
    "batched_svd_via_gram",
    "randomized_range_finder",
]


def _as_compute_stack(stack: np.ndarray) -> np.ndarray:
    """Coerce a slice stack to a supported compute dtype.

    float32 inputs are kept in float32 (the reduced-precision compression
    path); everything else is coerced to float64, exactly as the historical
    ``dtype=float`` coercion did.  Non-NumPy stacks keep their namespace.
    """
    am = array_module_of(stack)
    a = am.asarray(stack)
    if am.np_dtype(a) != np.float32:
        a = am.astype(a, np.float64)
    return a


def randomized_range_finder(
    matrix: np.ndarray,
    size: int,
    *,
    power_iterations: int = 1,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Orthonormal basis approximating the range of ``matrix``.

    Parameters
    ----------
    matrix:
        Input of shape ``(m, n)``.
    size:
        Number of basis vectors (rank + oversampling), ``<= min(m, n)``.
    power_iterations:
        Number of subspace (power) iterations; each costs two extra passes
        but sharpens the spectrum for slowly decaying singular values.
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        Matrix ``Q`` of shape ``(m, size)`` with orthonormal columns.
    """
    a = check_matrix(matrix, name="matrix")
    k = check_positive_int(size, name="size")
    if k > min(int(d) for d in a.shape):
        raise RankError(
            f"size {k} exceeds min(matrix shape) {min(int(d) for d in a.shape)}"
        )
    gen = default_rng(rng)
    am = array_module_of(a)
    omega = am.standard_normal((int(a.shape[1]), k), am.np_dtype(a), gen)
    q, _ = am.qr(am.matmul(a, omega))
    for _ in range(max(0, int(power_iterations))):
        # QR after each half-pass for numerical stability of the power scheme.
        z, _ = am.qr(am.matmul(am.mT(a), q))
        q, _ = am.qr(am.matmul(a, z))
    return q


def rsvd(
    matrix: np.ndarray,
    rank: int,
    *,
    oversampling: int = 10,
    power_iterations: int = 1,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized truncated SVD ``matrix ≈ U @ diag(s) @ Vt``.

    Parameters
    ----------
    matrix:
        Input of shape ``(m, n)``.
    rank:
        Target rank ``r``.
    oversampling:
        Extra test vectors beyond ``rank`` (clipped so that
        ``rank + oversampling <= min(m, n)``).
    power_iterations:
        Subspace iterations for the range finder.
    rng:
        Seed or generator.

    Returns
    -------
    tuple
        ``(U, s, Vt)`` of shapes ``(m, r)``, ``(r,)``, ``(r, n)``.
    """
    a = check_matrix(matrix, name="matrix")
    r = check_positive_int(rank, name="rank")
    short = min(int(d) for d in a.shape)
    if r > short:
        raise RankError(f"rank {r} exceeds min(matrix shape) {short}")
    k = min(r + max(0, int(oversampling)), short)
    q = randomized_range_finder(
        a, k, power_iterations=power_iterations, rng=rng
    )
    am = array_module_of(a)
    b = am.matmul(am.mT(q), a)
    ub, s, vt = am.svd(b, full_matrices=False)
    u = am.matmul(q, ub[:, :r])
    u, vt_fixed = sign_fix(u, vt[:r])
    assert vt_fixed is not None
    return u, s[:r], vt_fixed


def batched_rsvd(
    stack: np.ndarray,
    rank: int,
    *,
    oversampling: int = 10,
    power_iterations: int = 1,
    rng: int | np.random.Generator | None = None,
    test_matrix: np.ndarray | None = None,
    sketch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized truncated SVD of every matrix in a ``(L, m, n)`` stack.

    One Gaussian test matrix is shared by all ``L`` inputs so the whole
    computation runs as batched BLAS (see the module docstring for why this
    is statistically sound).

    Parameters
    ----------
    stack:
        Array of shape ``(L, m, n)``: ``L`` matrices to factor.  float32
        stacks are factored in float32; anything else in float64.
    rank:
        Target rank, identical for every matrix.
    oversampling, power_iterations, rng:
        As in :func:`rsvd`.
    test_matrix:
        Pre-drawn Gaussian test matrix of shape ``(n, rank + oversampling)``
        (clipped to ``min(m, n)`` columns).  The execution engine draws it
        once and hands the *same* matrix to every slice chunk, so chunked
        parallel runs factor exactly the same sketch as a single batched
        call.  When given, ``rng`` is ignored.
    sketch:
        Precomputed range sketch ``Y = stack @ Ω`` of shape
        ``(L, m, size)``, e.g. computed on an accelerator next to the
        slab; the sketch product is then skipped here.  When given,
        ``test_matrix`` and ``rng`` are ignored.

    Returns
    -------
    tuple
        ``(U, s, Vt)`` of shapes ``(L, m, r)``, ``(L, r)``, ``(L, r, n)``.
    """
    a = _as_compute_stack(stack)
    if a.ndim != 3:
        raise RankError(f"stack must be 3-D (L, m, n), got shape {tuple(a.shape)}")
    am = array_module_of(a)
    # Batched BLAS on a strided view is several times slower than on a
    # contiguous buffer; one upfront copy pays for itself immediately.
    a = am.ascontiguousarray(a)
    _, m, n = (int(d) for d in a.shape)
    dtype = am.np_dtype(a)
    r = check_positive_int(rank, name="rank")
    if r > min(m, n):
        raise RankError(f"rank {r} exceeds min(m, n) = {min(m, n)}")
    k = min(r + max(0, int(oversampling)), min(m, n))
    if sketch is not None:
        y = am.astype(am.asarray(sketch), dtype)
        if y.ndim != 3 or tuple(int(d) for d in y.shape[:2]) != tuple(
            int(d) for d in a.shape[:2]
        ):
            raise RankError(
                f"sketch must have shape ({int(a.shape[0])}, {m}, size), "
                f"got {tuple(y.shape)}"
            )
        k = int(y.shape[2])
        if k > min(m, n):
            raise RankError(
                f"sketch has {k} columns, exceeding min(m, n) = {min(m, n)}"
            )
    else:
        if test_matrix is not None:
            omega = am.astype(am.asarray(test_matrix), dtype)
            if omega.ndim != 2 or int(omega.shape[0]) != n:
                raise RankError(
                    f"test_matrix must have shape ({n}, size), got {tuple(omega.shape)}"
                )
            k = int(omega.shape[1])
            if k > min(m, n):
                raise RankError(
                    f"test_matrix has {k} columns, exceeding min(m, n) = {min(m, n)}"
                )
        else:
            gen = default_rng(rng)
            omega = am.astype(am.standard_normal((n, k), np.float64, gen), dtype)
        y = am.matmul(a, omega)  # (L, m, k)
    q, _ = am.qr(y)
    for _ in range(max(0, int(power_iterations))):
        z, _ = am.qr(am.matmul(am.mT(a), q))
        q, _ = am.qr(am.matmul(a, z))
    b = am.matmul(am.mT(q), a)  # (L, k, n)
    ub, s, vt = am.svd(b, full_matrices=False)
    u = am.matmul(q, ub[:, :, :r])  # (L, m, r)
    u, vt = sign_fix(u, vt[:, :r, :])
    return u, s[:, :r], vt


def batched_svd_via_gram(
    stack: np.ndarray, rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD of every matrix in a stack via the small-side Gram matrix.

    For slices with one short side ``q = min(m, n)``, the eigendecomposition
    of the ``q × q`` Gram matrix is far cheaper than either a full batched
    SVD or a randomized one with comparable rank, and it is exact up to the
    Gram conditioning (singular values below ``~sqrt(eps)·s_max`` lose
    accuracy — harmless for truncation, where only leading components are
    kept).  :func:`repro.core.slice_svd.compress` selects this path
    automatically when the short side is small enough.

    Slices whose Gram matrix turns out near rank-deficient (a retained
    singular value at or below ``sqrt(eps) · s_max``, or any non-finite
    factor entry) are recomputed with a direct :func:`numpy.linalg.svd`
    instead of propagating the ill-conditioned Gram factors.

    Parameters
    ----------
    stack:
        Array of shape ``(L, m, n)``.  float32 stacks are factored in
        float32; anything else in float64.
    rank:
        Target rank ``r <= min(m, n)``.

    Returns
    -------
    tuple
        ``(U, s, Vt)`` of shapes ``(L, m, r)``, ``(L, r)``, ``(L, r, n)``.
    """
    a = _as_compute_stack(stack)
    if a.ndim != 3:
        raise RankError(f"stack must be 3-D (L, m, n), got shape {tuple(a.shape)}")
    am = array_module_of(a)
    a = am.ascontiguousarray(a)
    _, m, n = (int(d) for d in a.shape)
    dtype = am.np_dtype(a)
    r = check_positive_int(rank, name="rank")
    if r > min(m, n):
        raise RankError(f"rank {r} exceeds min(m, n) = {min(m, n)}")
    # Inversion floor: relative part guards the divide when trailing retained
    # singular values vanish; the absolute part only protects the all-zero
    # slice.  The float64 constants are the historical ones (bit-identity).
    if dtype == np.float32:
        rel_floor, abs_floor = float(np.finfo(np.float32).eps), 1e-30
    else:
        rel_floor, abs_floor = 1e-12, 1e-300
    at = am.mT(a)
    abs_floor = am.asarray(abs_floor, dtype=dtype)
    if n <= m:
        g = am.matmul(at, a)  # (L, n, n)
        w, vecs = am.eigh(g)
        s = am.sqrt(am.clip_min(am.flip(w, axis=1)[:, :r], 0.0))  # (L, r), descending
        v = am.flip(vecs, axis=2)[:, :, :r]  # (L, n, r)
        floor = am.maximum(s[:, :1] * rel_floor, abs_floor)
        u = am.matmul(a, v / am.maximum(s, floor)[:, None, :])
        vt = am.mT(v)
    else:
        g = am.matmul(a, at)  # (L, m, m)
        w, vecs = am.eigh(g)
        s = am.sqrt(am.clip_min(am.flip(w, axis=1)[:, :r], 0.0))
        u = am.flip(vecs, axis=2)[:, :, :r]  # (L, m, r)
        floor = am.maximum(s[:, :1] * rel_floor, abs_floor)
        vt = am.matmul(am.mT(u / am.maximum(s, floor)[:, None, :]), a)
    u, vt = sign_fix(u, vt)
    # Numerical guard: squaring the condition number in the Gram matrix makes
    # components with s <= ~sqrt(eps)·s_max meaningless (and a rank-deficient
    # slice divides by the floor, yielding garbage or non-finite columns).
    # Recompute exactly those slices with a direct SVD; the triage runs on
    # the host (a tiny boolean vector).
    tiny = float(np.sqrt(np.finfo(dtype).eps))
    u_ok = np.isfinite(am.from_device(u)).all(axis=(1, 2))
    vt_ok = np.isfinite(am.from_device(vt)).all(axis=(1, 2))
    s_host = am.from_device(s)
    bad = ~u_ok | ~vt_ok | (s_host[:, -1] <= tiny * s_host[:, 0])
    if np.any(bad):
        for idx in np.flatnonzero(bad):
            ud, sd, vtd = am.svd(a[int(idx)], full_matrices=False)
            ud, vtd_fixed = sign_fix(ud[:, :r], vtd[:r])
            assert vtd_fixed is not None
            u[int(idx)], s[int(idx)], vt[int(idx)] = ud, sd[:r], vtd_fixed
    return u, s, vt
