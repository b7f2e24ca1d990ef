"""Tests for the sparse-tensor substrate and sparse D-Tucker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.sparse_dtucker import compress_sparse, sparse_dtucker
from repro.exceptions import RankError, ShapeError
from repro.sparse import SparseTensor
from repro.tensor.random import random_tensor
from repro.tensor.unfold import unfold


@pytest.fixture
def sparse_lowrank(rng) -> tuple[SparseTensor, np.ndarray]:
    # A low-rank tensor with most entries zeroed in a structured way:
    # zero out random fibers so sparsity does not destroy the rank.
    x = random_tensor((20, 16, 10), (3, 2, 2), rng=rng, noise=0.0)
    mask = rng.random((20, 16, 10)) < 0.4
    y = np.where(mask, x, 0.0)
    return SparseTensor.from_dense(y), y


class TestSparseTensorConstruction:
    def test_from_dense_roundtrip(self, tensor3: np.ndarray) -> None:
        st = SparseTensor.from_dense(tensor3)
        np.testing.assert_allclose(st.to_dense(), tensor3)

    def test_threshold(self) -> None:
        x = np.array([[0.1, 2.0], [3.0, 0.05]])
        st = SparseTensor.from_dense(x, threshold=0.5)
        assert st.nnz == 2

    def test_duplicates_coalesced(self) -> None:
        st = SparseTensor(
            coords=np.array([[0, 0], [0, 0], [1, 1]]),
            values=np.array([1.0, 2.0, 5.0]),
            shape=(2, 2),
        )
        assert st.nnz == 2
        assert st.to_dense()[0, 0] == 3.0

    def test_cancelling_duplicates_dropped(self) -> None:
        st = SparseTensor(
            coords=np.array([[0, 0], [0, 0]]),
            values=np.array([1.0, -1.0]),
            shape=(2, 2),
        )
        assert st.nnz == 0

    def test_out_of_bounds(self) -> None:
        with pytest.raises(ShapeError):
            SparseTensor(
                coords=np.array([[2, 0]]), values=np.array([1.0]), shape=(2, 2)
            )

    def test_bad_coord_shape(self) -> None:
        with pytest.raises(ShapeError):
            SparseTensor(
                coords=np.array([[0, 0, 0]]), values=np.array([1.0]), shape=(2, 2)
            )

    def test_nan_rejected(self) -> None:
        with pytest.raises(ShapeError):
            SparseTensor(
                coords=np.array([[0, 0]]), values=np.array([np.nan]), shape=(2, 2)
            )

    def test_random_density(self) -> None:
        st = SparseTensor.random((20, 20, 20), 0.1, rng=0)
        assert st.density == pytest.approx(0.1, abs=0.01)

    def test_norm_squared(self, tensor3) -> None:
        st = SparseTensor.from_dense(tensor3)
        assert st.norm_squared() == pytest.approx(float(np.sum(tensor3**2)))

    def test_nbytes_scales_with_nnz(self) -> None:
        a = SparseTensor.random((30, 30, 30), 0.01, rng=0)
        b = SparseTensor.random((30, 30, 30), 0.1, rng=0)
        assert a.nbytes < b.nbytes


class TestSparseUnfoldAndSlices:
    def test_unfold_matches_dense(self, tensor3) -> None:
        st = SparseTensor.from_dense(tensor3)
        for n in range(3):
            np.testing.assert_allclose(
                st.unfold(n).toarray(), unfold(tensor3, n)
            )

    def test_unfold_order2(self, rng) -> None:
        m = rng.standard_normal((5, 7))
        st = SparseTensor.from_dense(m)
        np.testing.assert_allclose(st.unfold(0).toarray(), m)
        np.testing.assert_allclose(st.unfold(1).toarray(), m.T)

    def test_slice_matrices_match_dense(self, tensor4) -> None:
        from repro.tensor.slices import to_slices

        st = SparseTensor.from_dense(tensor4)
        slices = st.slice_matrices()
        dense_stack = to_slices(tensor4)
        assert len(slices) == dense_stack.shape[2]
        for l, s in enumerate(slices):
            np.testing.assert_allclose(s.toarray(), dense_stack[:, :, l])

    def test_empty_slices_present(self) -> None:
        st = SparseTensor(
            coords=np.array([[0, 0, 2]]), values=np.array([1.0]), shape=(3, 3, 4)
        )
        slices = st.slice_matrices()
        assert len(slices) == 4
        assert slices[0].nnz == 0 and slices[2].nnz == 1


class TestCompressSparse:
    def test_matches_dense_compress(self, sparse_lowrank) -> None:
        from repro.core.slice_svd import compress

        st, dense = sparse_lowrank
        a = compress_sparse(st, 4, rng=0)
        b = compress(dense, 4, config=DTuckerConfig(exact_slice_svd=True))
        # Same reconstruction quality (not identical factors — different
        # algorithms), both near-exact at this rank on rank-<=4 slices.
        assert abs(a.compression_error(dense) - b.compression_error(dense)) < 1e-4

    def test_norm_exact(self, sparse_lowrank) -> None:
        st, dense = sparse_lowrank
        ssvd = compress_sparse(st, 3, rng=0)
        assert ssvd.norm_squared == pytest.approx(float(np.sum(dense**2)))

    def test_zero_slice_safe(self) -> None:
        st = SparseTensor(
            coords=np.array([[0, 0, 1]]), values=np.array([2.0]), shape=(4, 4, 3)
        )
        ssvd = compress_sparse(st, 2, rng=0)
        assert np.isfinite(ssvd.u).all()
        np.testing.assert_allclose(ssvd.s[0], 0.0)
        np.testing.assert_allclose(ssvd.s[2], 0.0)

    def test_rank_too_large(self) -> None:
        st = SparseTensor.random((5, 4, 3), 0.5, rng=0)
        with pytest.raises(RankError):
            compress_sparse(st, 5)


class TestSparseDTucker:
    def test_recovers_structured_sparse(self, sparse_lowrank) -> None:
        st, dense = sparse_lowrank
        fit = sparse_dtucker(st, (6, 6, 6), seed=0)
        hooi_err = _hooi_error(dense, (6, 6, 6))
        assert fit.result_.error(dense) <= hooi_err * 1.3 + 1e-3

    def test_phases_and_metadata(self, sparse_lowrank) -> None:
        st, _ = sparse_lowrank
        fit = sparse_dtucker(st, (3, 2, 2), seed=0)
        assert set(fit.timings_.phases) == {
            "approximation", "initialization", "iteration",
        }
        assert len(fit.history_) == fit.n_iters_

    def test_exact_lowrank_dense_equivalent(self, rng) -> None:
        x = random_tensor((20, 16, 10), (3, 2, 2), rng=rng, noise=0.0)
        st = SparseTensor.from_dense(x)
        fit = sparse_dtucker(st, (3, 2, 2), seed=0)
        assert fit.result_.error(x) < 1e-10

    def test_compression_cheaper_than_densify(self) -> None:
        # The point of the extension: compression bytes track nnz.
        st = SparseTensor.random((60, 50, 20), 0.02, rng=0)
        fit = sparse_dtucker(st, (4, 4, 4), seed=0)
        assert st.nbytes < 8 * 60 * 50 * 20  # COO much smaller than dense
        assert fit.slice_svd_.shape == (60, 50, 20)


def _hooi_error(x: np.ndarray, ranks: tuple[int, ...]) -> float:
    from repro.baselines.tucker_als import tucker_als

    return tucker_als(x, ranks).result.error(x)
