"""Tests for slice replacement (SliceSVD.replace) and streaming revision."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slice_svd import compress, exact_compress
from repro.core.streaming import StreamingDTucker
from repro.exceptions import NotFittedError, ShapeError
from repro.tensor.random import random_tensor


class TestSliceNorms:
    def test_compress_records_exact_slice_norms(self, rng) -> None:
        x = rng.standard_normal((10, 8, 6))
        ssvd = compress(x, 4, rng=0)
        assert ssvd.slice_norms_squared is not None
        for l in range(6):
            assert ssvd.slice_norms_squared[l] == pytest.approx(
                float(np.sum(x[:, :, l] ** 2))
            )

    def test_norm_is_sum_of_slice_norms(self, rng) -> None:
        x = rng.standard_normal((10, 8, 6))
        ssvd = compress(x, 4, rng=0)
        assert ssvd.norm_squared == pytest.approx(
            float(ssvd.slice_norms_squared.sum())
        )

    def test_inconsistent_norms_rejected(self, rng) -> None:
        from repro.core.slice_svd import SliceSVD

        x = rng.standard_normal((5, 4, 3))
        ssvd = compress(x, 2, rng=0)
        with pytest.raises(ShapeError, match="inconsistent"):
            SliceSVD(
                u=ssvd.u,
                s=ssvd.s,
                vt=ssvd.vt,
                shape=ssvd.shape,
                norm_squared=ssvd.norm_squared,
                slice_norms_squared=ssvd.slice_norms_squared * 2.0,
            )

    def test_wrong_length_rejected(self, rng) -> None:
        from repro.core.slice_svd import SliceSVD

        x = rng.standard_normal((5, 4, 3))
        ssvd = compress(x, 2, rng=0)
        with pytest.raises(ShapeError):
            SliceSVD(
                u=ssvd.u,
                s=ssvd.s,
                vt=ssvd.vt,
                shape=ssvd.shape,
                norm_squared=ssvd.norm_squared,
                slice_norms_squared=np.ones(5),
            )

    def test_io_roundtrip_preserves_norms(self, rng, tmp_path) -> None:
        from repro.store import read_slice_svd_archive, write_slice_svd_archive

        x = rng.standard_normal((8, 6, 4))
        ssvd = compress(x, 3, rng=0)
        back = read_slice_svd_archive(write_slice_svd_archive(ssvd, tmp_path / "c"))
        np.testing.assert_array_equal(
            back.slice_norms_squared, ssvd.slice_norms_squared
        )

    def test_sparse_compress_records_norms(self, rng) -> None:
        from repro.core.sparse_dtucker import compress_sparse
        from repro.sparse import SparseTensor

        x = rng.standard_normal((8, 6, 4))
        x[np.abs(x) < 0.5] = 0.0
        st = SparseTensor.from_dense(x)
        ssvd = compress_sparse(st, 3, rng=0)
        for l in range(4):
            assert ssvd.slice_norms_squared[l] == pytest.approx(
                float(np.sum(x[:, :, l] ** 2))
            )

    def test_out_of_core_records_norms(self, rng, tmp_path) -> None:
        from repro.core.sources import NpySource, compress_source

        x = rng.standard_normal((8, 6, 4))
        p = tmp_path / "x.npy"
        np.save(p, x)
        ssvd = compress_source(NpySource(p), 3, rng=0)
        assert ssvd.slice_norms_squared is not None
        assert ssvd.norm_squared == pytest.approx(float(np.sum(x * x)))


class TestReplace:
    def test_replace_matches_recompression(self, rng) -> None:
        x = random_tensor((10, 8, 6), (3, 2, 2), rng=rng, noise=0.1)
        revised = x.copy()
        revised[:, :, 2:4] = rng.standard_normal((10, 8, 2))
        whole = exact_compress(revised, 4)
        block = exact_compress(revised[:, :, 2:4], 4)
        spliced = exact_compress(x, 4).replace(2, block)
        np.testing.assert_allclose(spliced.u, whole.u, atol=1e-9)
        np.testing.assert_allclose(spliced.s, whole.s, atol=1e-9)
        assert spliced.norm_squared == pytest.approx(whole.norm_squared)

    def test_replace_is_pure(self, rng) -> None:
        x = rng.standard_normal((10, 8, 6))
        ssvd = compress(x, 3, rng=0)
        before = ssvd.s.copy()
        block = compress(x[:, :, :2] * 2.0, 3, rng=1)
        ssvd.replace(0, block)
        np.testing.assert_array_equal(ssvd.s, before)

    def test_out_of_bounds(self, rng) -> None:
        x = rng.standard_normal((10, 8, 6))
        ssvd = compress(x, 3, rng=0)
        block = compress(x[:, :, :3], 3, rng=0)
        with pytest.raises(ShapeError):
            ssvd.replace(4, block)  # 4 + 3 > 6

    def test_incompatible_rank(self, rng) -> None:
        x = rng.standard_normal((10, 8, 6))
        ssvd = compress(x, 3, rng=0)
        block = compress(x[:, :, :2], 2, rng=0)
        with pytest.raises(ShapeError):
            ssvd.replace(0, block)

    def test_requires_slice_norms(self, rng) -> None:
        from repro.core.slice_svd import SliceSVD

        x = rng.standard_normal((10, 8, 6))
        full = compress(x, 3, rng=0)
        legacy = SliceSVD(
            u=full.u, s=full.s, vt=full.vt, shape=full.shape,
            norm_squared=full.norm_squared,
        )
        block = compress(x[:, :, :2], 3, rng=0)
        with pytest.raises(ShapeError, match="per-slice norms"):
            legacy.replace(0, block)


class TestStreamingRevise:
    def test_revise_improves_on_corrected_data(self, rng) -> None:
        x = random_tensor((14, 12, 20), (3, 3, 3), rng=rng, noise=0.02)
        corrupted = x.copy()
        corrupted[..., 5:8] = rng.standard_normal((14, 12, 3)) * 2.0

        s = StreamingDTucker(ranks=(3, 3, 3), seed=0, sweeps_per_update=8)
        s.partial_fit(corrupted)
        err_corrupted = s.result_.error(x)
        s.revise(5, x[..., 5:8])
        err_revised = s.result_.error(x)
        assert err_revised < err_corrupted
        assert err_revised < 0.01

    def test_revise_norm_bookkeeping(self, rng) -> None:
        x = random_tensor((10, 8, 12), (2, 2, 2), rng=rng, noise=0.05)
        s = StreamingDTucker(ranks=(2, 2, 2), seed=0)
        s.partial_fit(x)
        new_block = rng.standard_normal((10, 8, 4))
        s.revise(3, new_block)
        expected = x.copy()
        expected[..., 3:7] = new_block
        assert s.slice_svd_.norm_squared == pytest.approx(
            float(np.sum(expected**2))
        )

    def test_revise_order4_slice_mapping(self, rng) -> None:
        x = random_tensor((8, 7, 3, 6), (2, 2, 2, 2), rng=rng, noise=0.05)
        s = StreamingDTucker(ranks=(2, 2, 2, 2), seed=0)
        s.partial_fit(x)
        new_block = rng.standard_normal((8, 7, 3, 2))
        s.revise(1, new_block)
        expected = x.copy()
        expected[..., 1:3] = new_block
        assert s.slice_svd_.norm_squared == pytest.approx(
            float(np.sum(expected**2))
        )

    def test_revise_before_fit(self) -> None:
        s = StreamingDTucker(ranks=(2, 2, 2))
        with pytest.raises(NotFittedError):
            s.revise(0, np.ones((4, 4, 2)))

    def test_revise_out_of_range(self, rng) -> None:
        x = random_tensor((10, 8, 6), (2, 2, 2), rng=rng)
        s = StreamingDTucker(ranks=(2, 2, 2), seed=0).partial_fit(x)
        with pytest.raises(ShapeError):
            s.revise(5, np.ones((10, 8, 3)))

    def test_revise_wrong_shape(self, rng) -> None:
        x = random_tensor((10, 8, 6), (2, 2, 2), rng=rng)
        s = StreamingDTucker(ranks=(2, 2, 2), seed=0).partial_fit(x)
        with pytest.raises(ShapeError):
            s.revise(0, np.ones((10, 7, 2)))
