"""The approximation phase: per-slice randomized SVD compression.

:class:`SliceSVD` is D-Tucker's compressed tensor representation.  A dense
order-``N`` tensor ``X ∈ R^{I1×…×IN}`` is viewed as ``L = I3⋯IN`` slice
matrices ``X_l ∈ R^{I1×I2}`` (see :mod:`repro.tensor.slices`) and each slice
is replaced by a rank-``K`` truncated SVD ``X_l ≈ U_l diag(s_l) V_lᵀ``.

Storage drops from ``I1·I2·L`` numbers to ``(I1+I2+1)·K·L`` — the memory
headline of the paper — and, crucially, both the initialization and the
iteration phase can run *entirely* on the triples ``(U_l, s_l, V_l)``
because the mode-1/mode-2 unfoldings of ``X`` are block-concatenations of
slices and the higher-mode structure lives in the slice index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import ExecutionBackend
from ..exceptions import RankError, ShapeError
from ..kernels.compress_plan import slab_norms
from ..kernels.stats import KernelStats
from ..linalg.svd import sign_fix
from ..metrics.memory import array_nbytes
from ..tensor.norms import relative_error
from ..tensor.slices import from_slices, slice_count, slice_stack
from ..validation import as_tensor, check_positive_int
from .config import DTuckerConfig

__all__ = ["SliceSVD", "compress", "exact_compress"]


@dataclass
class SliceSVD:
    """Compressed slice representation of a dense tensor.

    Attributes
    ----------
    u:
        Left factors, shape ``(L, I1, K)``.
    s:
        Singular values, shape ``(L, K)`` (non-negative, descending per slice).
    vt:
        Right factors (transposed), shape ``(L, K, I2)``.
    shape:
        Full shape of the original tensor.
    norm_squared:
        Exact ``||X||_F²`` of the original tensor, retained so the iteration
        phase can estimate reconstruction errors without ever touching ``X``
        again.
    slice_norms_squared:
        Optional exact per-slice ``||X_l||_F²`` of shape ``(L,)``.  When
        present (every compressor in this library provides it), slice
        ranges can be *replaced* with exact norm bookkeeping — see
        :meth:`replace`.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    shape: tuple[int, ...]
    norm_squared: float
    slice_norms_squared: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.vt = np.asarray(self.vt, dtype=float)
        self.shape = tuple(int(d) for d in self.shape)
        if self.u.ndim != 3 or self.s.ndim != 2 or self.vt.ndim != 3:
            raise ShapeError(
                "SliceSVD arrays must have shapes (L, I1, K), (L, K), (L, K, I2); "
                f"got {self.u.shape}, {self.s.shape}, {self.vt.shape}"
            )
        l, i1, k = self.u.shape
        if self.s.shape != (l, k) or self.vt.shape[:2] != (l, k):
            raise ShapeError(
                f"inconsistent SliceSVD arrays: u {self.u.shape}, "
                f"s {self.s.shape}, vt {self.vt.shape}"
            )
        expected_l = slice_count(self.shape)
        if l != expected_l:
            raise ShapeError(
                f"{l} slices inconsistent with tensor shape {self.shape} "
                f"(expected {expected_l})"
            )
        if (i1, self.vt.shape[2]) != self.shape[:2]:
            raise ShapeError(
                f"slice dims ({i1}, {self.vt.shape[2]}) do not match "
                f"tensor shape {self.shape}"
            )
        if float(self.norm_squared) < 0.0:
            raise ShapeError("norm_squared must be non-negative")
        if self.slice_norms_squared is not None:
            norms = np.asarray(self.slice_norms_squared, dtype=float)
            if norms.shape != (l,):
                raise ShapeError(
                    f"slice_norms_squared must have shape ({l},), got {norms.shape}"
                )
            if (norms < 0).any():
                raise ShapeError("slice_norms_squared must be non-negative")
            total = float(norms.sum())
            scale = max(self.norm_squared, total, 1.0)
            if abs(total - self.norm_squared) > 1e-6 * scale:
                raise ShapeError(
                    f"slice_norms_squared sum {total!r} inconsistent with "
                    f"norm_squared {self.norm_squared!r}"
                )
            self.slice_norms_squared = norms

    # -- basic geometry ----------------------------------------------------
    @property
    def num_slices(self) -> int:
        """Number of slices ``L``."""
        return self.u.shape[0]

    @property
    def rank(self) -> int:
        """Per-slice compression rank ``K``."""
        return self.u.shape[2]

    @property
    def slice_shape(self) -> tuple[int, int]:
        """Shape ``(I1, I2)`` of every slice."""
        return self.u.shape[1], self.vt.shape[2]

    @property
    def order(self) -> int:
        """Order ``N`` of the original tensor."""
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        """Bytes of the compressed representation."""
        return array_nbytes(self.u, self.s, self.vt)

    @property
    def compression_ratio(self) -> float:
        """Dense-tensor bytes divided by the compressed bytes.

        Computed from shapes alone, so store manifests and ``repro
        inspect`` can report it without loading payloads.
        """
        dense = float(np.prod(self.shape, dtype=np.int64)) * self.u.itemsize
        return dense / float(self.nbytes)

    # -- persistence ---------------------------------------------------------
    def to_dir(self, path: "str | object") -> "object":
        """Write this representation as a memory-mappable payload directory.

        The inverse of :meth:`from_dir`; see
        :func:`repro.store.write_slice_svd_dir` for the layout.  Returns the
        directory path written.
        """
        from ..store.format import write_slice_svd_dir

        return write_slice_svd_dir(self, path)

    @classmethod
    def from_dir(cls, path: "str | object", *, mmap: bool = False) -> "SliceSVD":
        """Load a representation written by :meth:`to_dir`.

        With ``mmap=True`` the arrays are read-only memory maps — pages are
        only read when touched, and one mapping can serve many threads.
        """
        from ..store.format import read_slice_svd_dir

        return read_slice_svd_dir(path, mmap=mmap)

    # -- reconstruction -----------------------------------------------------
    def reconstruct_slices(self) -> np.ndarray:
        """Dense slice stack ``(L, I1, I2)`` from the stored SVD triples."""
        return self.u @ (self.s[:, :, None] * self.vt)

    def reconstruct(self) -> np.ndarray:
        """Dense tensor of ``self.shape`` (for evaluation, not solving)."""
        stack = np.moveaxis(self.reconstruct_slices(), 0, 2)
        return from_slices(stack, self.shape)

    def approx_norm_squared(self) -> float:
        """``||X̃||_F²`` of the compressed approximation: ``Σ_l Σ_k s_lk²``."""
        return float(np.sum(self.s**2))

    def compression_error(self, reference: np.ndarray) -> float:
        """Relative error of the compression itself vs the original tensor."""
        return relative_error(reference, self.reconstruct()) ** 2

    # -- transformations ----------------------------------------------------
    def truncate(self, rank: int) -> "SliceSVD":
        """A new representation with the leading ``rank <= K`` triples."""
        r = check_positive_int(rank, name="rank")
        if r > self.rank:
            raise RankError(f"cannot truncate rank {self.rank} to {r}")
        norms = self.slice_norms_squared
        return SliceSVD(
            u=self.u[:, :, :r].copy(),
            s=self.s[:, :r].copy(),
            vt=self.vt[:, :r, :].copy(),
            shape=self.shape,
            norm_squared=self.norm_squared,
            slice_norms_squared=None if norms is None else norms.copy(),
        )

    def append(self, other: "SliceSVD") -> "SliceSVD":
        """Concatenate ``other`` along the *last* tensor mode (streaming).

        Because the slice index runs in Fortran order over modes ``3..N``,
        the last mode varies slowest — so new data appended along the last
        mode corresponds exactly to new slices appended at the end.  All
        other mode dimensionalities and the slice rank must match.
        """
        if other.slice_shape != self.slice_shape or other.rank != self.rank:
            raise ShapeError(
                f"cannot append SliceSVD with slice shape {other.slice_shape} "
                f"rank {other.rank} to one with {self.slice_shape} rank {self.rank}"
            )
        if self.order != other.order or self.shape[:-1] != other.shape[:-1]:
            raise ShapeError(
                f"append requires equal shapes except the last mode; "
                f"got {self.shape} and {other.shape}"
            )
        new_shape = self.shape[:-1] + (self.shape[-1] + other.shape[-1],)
        if self.slice_norms_squared is not None and other.slice_norms_squared is not None:
            norms = np.concatenate(
                [self.slice_norms_squared, other.slice_norms_squared]
            )
        else:
            norms = None
        return SliceSVD(
            u=np.concatenate([self.u, other.u], axis=0),
            s=np.concatenate([self.s, other.s], axis=0),
            vt=np.concatenate([self.vt, other.vt], axis=0),
            shape=new_shape,
            norm_squared=self.norm_squared + other.norm_squared,
            slice_norms_squared=norms,
        )

    def replace(self, start: int, block: "SliceSVD") -> "SliceSVD":
        """Replace the contiguous slice range starting at ``start`` by ``block``.

        The use case is late-arriving data corrections in a temporal store:
        a revised block is re-compressed and spliced over the stale slices.
        Exact norm bookkeeping requires per-slice norms on *both* operands
        (all compressors in this library provide them).

        Parameters
        ----------
        start:
            First slice index to overwrite (``0 <= start`` and
            ``start + block.num_slices <= L``).
        block:
            Replacement slices: same slice shape and rank; its ``shape``
            beyond the slice plane is ignored (only the count matters).

        Returns
        -------
        SliceSVD
            A new representation with the range replaced and ``norm_squared``
            updated exactly; ``self`` is unchanged.
        """
        if block.slice_shape != self.slice_shape or block.rank != self.rank:
            raise ShapeError(
                f"cannot splice slice shape {block.slice_shape} rank "
                f"{block.rank} into {self.slice_shape} rank {self.rank}"
            )
        if self.slice_norms_squared is None or block.slice_norms_squared is None:
            raise ShapeError(
                "replace requires per-slice norms on both operands; "
                "re-compress with a current version of this library"
            )
        lo = int(start)
        hi = lo + block.num_slices
        if not 0 <= lo < hi <= self.num_slices:
            raise ShapeError(
                f"slice range [{lo}, {hi}) out of bounds for {self.num_slices} slices"
            )
        u = self.u.copy()
        s = self.s.copy()
        vt = self.vt.copy()
        norms = self.slice_norms_squared.copy()
        u[lo:hi] = block.u
        s[lo:hi] = block.s
        vt[lo:hi] = block.vt
        removed = float(norms[lo:hi].sum())
        norms[lo:hi] = block.slice_norms_squared
        return SliceSVD(
            u=u,
            s=s,
            vt=vt,
            shape=self.shape,
            norm_squared=self.norm_squared - removed + block.norm_squared,
            slice_norms_squared=norms,
        )


def compress(
    tensor: np.ndarray,
    rank: int,
    *,
    config: DTuckerConfig | None = None,
    engine: ExecutionBackend | str | None = None,
    rng: int | np.random.Generator | None = None,
    stats: KernelStats | None = None,
) -> SliceSVD:
    """Run the approximation phase: compress ``tensor`` into a :class:`SliceSVD`.

    Parameters
    ----------
    tensor:
        Dense order-``N >= 2`` tensor.
    rank:
        Per-slice truncation rank ``K`` (D-Tucker uses ``max(J1, J2)``).
    config:
        Solver configuration; supplies ``oversampling``,
        ``power_iterations``, ``precision``, ``seed`` and the
        execution knobs (``backend``, ``n_workers``, ``chunk_size``).
    engine:
        Execution backend spec — an
        :class:`~repro.engine.ExecutionBackend` instance (reused, not
        closed), a backend name, or ``None`` to resolve from ``config``
        and the environment.
    rng:
        Seed or generator for the randomized path; overrides
        ``config.seed`` when given.
    stats:
        Optional :class:`~repro.kernels.stats.KernelStats` accumulating the
        planner decision (``plan:<method>``) and test-matrix draws
        (``sketch``) of this call.

    Notes
    -----
    Equivalent to ``compress_source(DenseSource(tensor), rank, ...)`` —
    kept as a convenience entry point.  The source serves the tensor as a
    strided slice-stack view and the planner picks the Gram shortcut or
    the randomized SVD per slab (see
    :func:`~repro.kernels.compress_plan.plan_compression`).
    :func:`exact_compress` is the exact reference it is checked against.

    Returns
    -------
    SliceSVD
        The compressed representation, including the exact ``||X||_F²``.
    """
    # Imported lazily: sources.py needs SliceSVD from this module.
    from .sources import DenseSource, compress_source

    return compress_source(
        DenseSource(tensor),
        rank,
        config=config,
        engine=engine,
        rng=rng,
        stats=stats,
    )


def exact_compress(tensor: np.ndarray, rank: int) -> SliceSVD:
    """Truncated exact SVD of every slice: the reference for :func:`compress`.

    Factors each slice of ``tensor`` with ``numpy.linalg.svd`` and keeps
    the leading ``rank`` triples (sign-fixed like every compressor here),
    in the same slice order and with the same float64 slice norms as
    :func:`compress`.  At ``rank = min(I1, I2)`` the representation is
    lossless.  It is a test and ablation oracle, not a pipeline mode: the
    whole slice stack is copied into one float64 array, and nothing in
    the planner, the engine, stores, streams or shards calls it.
    """
    x = as_tensor(tensor, min_order=2, name="tensor")
    k = check_positive_int(rank, name="rank")
    i1, i2 = x.shape[:2]
    if k > min(i1, i2):
        raise RankError(f"rank {rank} invalid for slice shape ({i1}, {i2})")
    stack = np.ascontiguousarray(np.asarray(slice_stack(x), dtype=np.float64))
    norms = slab_norms(stack)
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    u, vt = sign_fix(u[:, :, :k], vt[:, :k, :], overwrite=True)
    return SliceSVD(
        u=u,
        s=s[:, :k],
        vt=vt,
        shape=x.shape,
        norm_squared=float(norms.sum()),
        slice_norms_squared=norms,
    )
