"""CountSketch and TensorSketch operators.

These power the Tucker-ts / Tucker-ttmts baselines (Malik & Becker,
*Low-Rank Tucker Decomposition of Large Tensors Using TensorSketch*,
NeurIPS 2018).  A :class:`CountSketch` maps ``R^n → R^m`` with a random hash
``h`` and signs ``s``:  ``(Sx)_j = Σ_{i : h(i)=j} s_i x_i``.  A
:class:`TensorSketch` composes one CountSketch per Kronecker factor so that

.. math:: S(x_1 ⊗ x_2 ⊗ … ⊗ x_p)

can be computed from the *small* per-factor sketches via circular
convolution (FFT), never materialising the Kronecker product.

Ordering convention
-------------------
``TensorSketch(dims)`` sketches vectors indexed in left-to-right Kronecker
order over ``dims`` — the *first* dimension varies slowest, exactly like
:func:`repro.tensor.products.kron_all`.  To sketch the rows of an unfolding
transpose ``X_(n)ᵀ`` (Fortran order over the secondary modes, lowest mode
fastest), pass the secondary dims in *descending* mode order, matching
:func:`repro.tensor.products.kron_secondary`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from ..engine.array_api import array_module_of
from ..exceptions import ShapeError
from ..tensor.random import default_rng
from ..validation import check_positive_int

__all__ = ["CountSketch", "TensorSketch"]


class CountSketch:
    """A CountSketch operator ``S : R^dim_in → R^dim_out``.

    Parameters
    ----------
    dim_in:
        Input dimensionality ``n``.
    dim_out:
        Sketch dimensionality ``m``.
    rng:
        Seed or generator.

    Attributes
    ----------
    hashes:
        Bucket assignment ``h ∈ [0, m)^n``.
    signs:
        Rademacher signs ``s ∈ {±1}^n``.
    """

    def __init__(
        self,
        dim_in: int,
        dim_out: int,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.dim_in = check_positive_int(dim_in, name="dim_in")
        self.dim_out = check_positive_int(dim_out, name="dim_out")
        gen = default_rng(rng)
        self.hashes = gen.integers(0, self.dim_out, size=self.dim_in)
        self.signs = gen.choice(np.array([-1.0, 1.0]), size=self.dim_in)
        self._operator: sparse.csr_matrix | None = None

    @property
    def operator(self) -> sparse.csr_matrix:
        """The sketch as a sparse ``(dim_out, dim_in)`` matrix (cached)."""
        if self._operator is None:
            self._operator = sparse.csr_matrix(
                (self.signs, (self.hashes, np.arange(self.dim_in))),
                shape=(self.dim_out, self.dim_in),
            )
        return self._operator

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Sketch a vector ``(n,)`` or the columns of a matrix ``(n, k)``.

        CountSketch is a scipy.sparse operator and therefore host-only;
        arrays from other namespaces are pulled back to NumPy first.
        """
        arr = np.asarray(array_module_of(x).from_device(x), dtype=float)
        if arr.shape[0] != self.dim_in:
            raise ShapeError(
                f"input has leading dimension {arr.shape[0]}, expected {self.dim_in}"
            )
        return self.operator @ arr

    def to_dense(self) -> np.ndarray:
        """Dense ``(dim_out, dim_in)`` sketch matrix — for tests only."""
        return self.operator.toarray()


class TensorSketch:
    """TensorSketch over ``R^{d_1} ⊗ … ⊗ R^{d_p}`` to ``R^dim_out``.

    Parameters
    ----------
    dims:
        Kronecker factor dimensionalities, *first slowest* (see module
        docstring for how to order them against a tensor unfolding).
    dim_out:
        Sketch dimensionality ``m``.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        dims: Sequence[int],
        dim_out: int,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if not dims:
            raise ShapeError("TensorSketch needs at least one factor dimension")
        self.dims = tuple(check_positive_int(d, name="dims[i]") for d in dims)
        self.dim_out = check_positive_int(dim_out, name="dim_out")
        gen = default_rng(rng)
        self.sketches = [CountSketch(d, self.dim_out, gen) for d in self.dims]
        self._composite: sparse.csr_matrix | None = None

    @property
    def dim_in(self) -> int:
        """Total input dimensionality ``prod(dims)``."""
        return int(np.prod(self.dims, dtype=np.int64))

    def _composite_hash_and_sign(self) -> tuple[np.ndarray, np.ndarray]:
        """Composite ``h(i) = Σ_k h_k(i_k) mod m`` and ``s(i) = Π_k s_k(i_k)``.

        Built by broadcasting over the factor index grids in C order, which
        matches the left-to-right (first-slowest) Kronecker convention.
        """
        h = np.zeros((1,), dtype=np.int64)
        s = np.ones((1,), dtype=float)
        for cs in self.sketches:
            h = (h[:, None] + cs.hashes[None, :]).reshape(-1)
            s = (s[:, None] * cs.signs[None, :]).reshape(-1)
        return h % self.dim_out, s

    @property
    def operator(self) -> sparse.csr_matrix:
        """The equivalent flat CountSketch as a sparse matrix (cached).

        Materialises arrays of length ``prod(dims)`` — the same order of
        memory as the data being sketched, which is acceptable at library
        scale but should not be used for astronomically large products.
        """
        if self._composite is None:
            h, s = self._composite_hash_and_sign()
            self._composite = sparse.csr_matrix(
                (s, (h, np.arange(self.dim_in))),
                shape=(self.dim_out, self.dim_in),
            )
        return self._composite

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Sketch a flat vector ``(prod dims,)`` or matrix ``(prod dims, k)``."""
        arr = np.asarray(array_module_of(x).from_device(x), dtype=float)
        if arr.shape[0] != self.dim_in:
            raise ShapeError(
                f"input has leading dimension {arr.shape[0]}, expected {self.dim_in}"
            )
        return self.operator @ arr

    def sketch_kron(self, matrices: Sequence[np.ndarray]) -> np.ndarray:
        """Compute ``S(kron(matrices))`` without forming the Kronecker product.

        Parameters
        ----------
        matrices:
            One matrix per factor, ``matrices[k].shape == (dims[k], r_k)``,
            in the same (first-slowest) order as ``dims``.

        Returns
        -------
        numpy.ndarray
            ``(dim_out, prod r_k)`` equal (up to round-off) to
            ``self.apply(kron_all(matrices))``.

        Notes
        -----
        Per column combination the identity is the classic FFT trick:
        ``S(a_1 ⊗ … ⊗ a_p) = ifft( Π_k fft(C_k a_k) )`` where the product is
        elementwise (circular convolution of the per-factor count sketches).
        All column combinations are produced at once by an einsum cascade.
        """
        if len(matrices) != len(self.dims):
            raise ShapeError(
                f"expected {len(self.dims)} matrices, got {len(matrices)}"
            )
        ffts = []
        for cs, mat in zip(self.sketches, matrices):
            a = np.asarray(mat, dtype=float)
            if a.ndim != 2 or a.shape[0] != cs.dim_in:
                raise ShapeError(
                    f"matrix of shape {a.shape} does not match factor dim {cs.dim_in}"
                )
            ffts.append(np.fft.rfft(cs.apply(a), n=self.dim_out, axis=0))
        # Combine column indices in C order (first factor slowest), matching
        # the kron_all convention.
        prod = ffts[0]  # (m_f, r_1)
        for f in ffts[1:]:
            prod = np.einsum("mi,mj->mij", prod, f).reshape(prod.shape[0], -1)
        return np.fft.irfft(prod, n=self.dim_out, axis=0)
