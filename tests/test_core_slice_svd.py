"""Tests for the approximation phase (SliceSVD compression)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.slice_svd import SliceSVD, compress
from repro.exceptions import RankError, ShapeError
from repro.tensor.norms import frobenius_norm_squared
from repro.tensor.random import random_tensor


@pytest.fixture
def compressed(lowrank3: np.ndarray) -> SliceSVD:
    return compress(lowrank3, 4, rng=0)


class TestCompress:
    def test_geometry(self, compressed: SliceSVD, lowrank3: np.ndarray) -> None:
        assert compressed.shape == lowrank3.shape
        assert compressed.num_slices == 8
        assert compressed.rank == 4
        assert compressed.slice_shape == (12, 10)
        assert compressed.order == 3

    def test_exact_on_lowrank_slices(self, compressed, lowrank3) -> None:
        # Each slice of a rank-(3,2,2) tensor has matrix rank <= 2,
        # so rank-4 compression is lossless.
        np.testing.assert_allclose(compressed.reconstruct(), lowrank3, atol=1e-8)

    def test_norm_squared_exact(self, compressed, lowrank3) -> None:
        assert compressed.norm_squared == pytest.approx(
            frobenius_norm_squared(lowrank3)
        )

    def test_approx_norm_matches_for_lossless(self, compressed, lowrank3) -> None:
        assert compressed.approx_norm_squared() == pytest.approx(
            frobenius_norm_squared(lowrank3), rel=1e-9
        )

    def test_compression_error_zero_for_lossless(self, compressed, lowrank3) -> None:
        assert compressed.compression_error(lowrank3) < 1e-12

    def test_compression_error_positive_for_noisy(self, rng) -> None:
        x = random_tensor((12, 10, 8), (3, 2, 2), rng=rng, noise=0.3)
        ss = compress(x, 3, rng=0)
        assert ss.compression_error(x) > 1e-4

    def test_exact_vs_randomized_agree_on_easy_input(self, lowrank3) -> None:
        a = compress(lowrank3, 4, rng=0)
        b = compress(lowrank3, 4, config=DTuckerConfig(exact_slice_svd=True))
        np.testing.assert_allclose(a.reconstruct(), b.reconstruct(), atol=1e-7)

    def test_exact_path_uses_sign_convention(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, config=DTuckerConfig(exact_slice_svd=True))
        for l in range(ss.num_slices):
            idx = np.argmax(np.abs(ss.u[l]), axis=0)
            assert (ss.u[l][idx, np.arange(3)] >= 0).all()

    def test_order2_tensor(self, rng) -> None:
        m = rng.standard_normal((15, 12))
        ss = compress(m, 5, rng=0)
        assert ss.num_slices == 1
        s_ref = np.linalg.svd(m, compute_uv=False)[:5]
        np.testing.assert_allclose(np.sort(ss.s[0])[::-1], ss.s[0])
        np.testing.assert_allclose(ss.s[0], s_ref, rtol=1e-4)

    def test_order4_tensor(self, rng) -> None:
        x = random_tensor((8, 7, 3, 4), (2, 2, 2, 2), rng=rng)
        ss = compress(x, 3, rng=0)
        assert ss.num_slices == 12
        np.testing.assert_allclose(ss.reconstruct(), x, atol=1e-7)

    def test_rank_exceeds_slice(self, rng) -> None:
        with pytest.raises(RankError):
            compress(rng.standard_normal((5, 4, 3)), 5)

    def test_gram_path_selected_for_thin_slices(self, rng) -> None:
        # 40x6 slices with rank 3: the Gram path must give near-exact SVDs.
        x = rng.standard_normal((40, 6, 5))
        ss = compress(x, 3, config=DTuckerConfig(oversampling=10), rng=0)
        for l in range(5):
            s_ref = np.linalg.svd(x[:, :, l], compute_uv=False)[:3]
            np.testing.assert_allclose(ss.s[l], s_ref, rtol=1e-8)

    def test_seed_reproducible(self, lowrank3) -> None:
        a = compress(lowrank3, 3, rng=7)
        b = compress(lowrank3, 3, rng=7)
        np.testing.assert_array_equal(a.u, b.u)


class TestSliceSVDValidation:
    def test_inconsistent_arrays(self) -> None:
        with pytest.raises(ShapeError):
            SliceSVD(
                u=np.zeros((2, 5, 3)),
                s=np.zeros((2, 4)),
                vt=np.zeros((2, 3, 6)),
                shape=(5, 6, 2),
                norm_squared=1.0,
            )

    def test_slice_count_mismatch(self) -> None:
        with pytest.raises(ShapeError):
            SliceSVD(
                u=np.zeros((3, 5, 2)),
                s=np.zeros((3, 2)),
                vt=np.zeros((3, 2, 6)),
                shape=(5, 6, 2),
                norm_squared=1.0,
            )

    def test_negative_norm(self) -> None:
        with pytest.raises(ShapeError):
            SliceSVD(
                u=np.zeros((2, 5, 2)),
                s=np.zeros((2, 2)),
                vt=np.zeros((2, 2, 6)),
                shape=(5, 6, 2),
                norm_squared=-1.0,
            )


class TestTruncate:
    def test_truncation_keeps_leading(self, compressed: SliceSVD) -> None:
        t = compressed.truncate(2)
        assert t.rank == 2
        np.testing.assert_array_equal(t.s, compressed.s[:, :2])
        np.testing.assert_array_equal(t.u, compressed.u[:, :, :2])

    def test_truncate_preserves_norm(self, compressed: SliceSVD) -> None:
        assert compressed.truncate(2).norm_squared == compressed.norm_squared

    def test_truncate_too_far(self, compressed: SliceSVD) -> None:
        with pytest.raises(RankError):
            compressed.truncate(10)

    def test_truncate_full_is_copy(self, compressed: SliceSVD) -> None:
        t = compressed.truncate(compressed.rank)
        np.testing.assert_array_equal(t.u, compressed.u)
        assert t.u is not compressed.u


class TestAppend:
    def test_append_along_last_mode(self, rng) -> None:
        x = random_tensor((10, 8, 6), (3, 2, 2), rng=rng)
        a = compress(x[:, :, :4], 3, rng=0)
        b = compress(x[:, :, 4:], 3, rng=1)
        merged = a.append(b)
        assert merged.shape == (10, 8, 6)
        assert merged.num_slices == 6
        np.testing.assert_allclose(merged.reconstruct(), x, atol=1e-7)

    def test_append_order4(self, rng) -> None:
        x = random_tensor((6, 5, 3, 4), (2, 2, 2, 2), rng=rng)
        a = compress(x[..., :2], 2, rng=0)
        b = compress(x[..., 2:], 2, rng=1)
        merged = a.append(b)
        assert merged.shape == (6, 5, 3, 4)
        np.testing.assert_allclose(merged.reconstruct(), x, atol=1e-7)

    def test_norm_accumulates(self, rng) -> None:
        x = random_tensor((10, 8, 6), (3, 2, 2), rng=rng)
        a = compress(x[:, :, :4], 3, rng=0)
        b = compress(x[:, :, 4:], 3, rng=1)
        assert a.append(b).norm_squared == pytest.approx(
            frobenius_norm_squared(x)
        )

    def test_incompatible_rank(self, rng) -> None:
        x = rng.standard_normal((10, 8, 4))
        a = compress(x, 3, rng=0)
        b = compress(x, 2, rng=0)
        with pytest.raises(ShapeError):
            a.append(b)

    def test_incompatible_shape(self, rng) -> None:
        a = compress(rng.standard_normal((10, 8, 4)), 3, rng=0)
        b = compress(rng.standard_normal((10, 7, 4)), 3, rng=0)
        with pytest.raises(ShapeError):
            a.append(b)


class TestNbytes:
    def test_matches_formula(self, compressed: SliceSVD) -> None:
        from repro.metrics.memory import slice_svd_nbytes

        assert compressed.nbytes == slice_svd_nbytes((12, 10, 8), 4)

    def test_smaller_than_dense(self, compressed: SliceSVD, lowrank3) -> None:
        assert compressed.nbytes < lowrank3.nbytes
