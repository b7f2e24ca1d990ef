"""Additional property-based tests: streaming, persistence, sparse, refit.

These complement ``test_properties.py`` with invariants that span the
extension modules: streaming must agree with batch compression, archives
must round-trip bit-exactly, sparse and dense compression must agree on the
same data, and refit must be deterministic.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DTuckerConfig
from repro.core.slice_svd import compress
from repro.sparse.coo import SparseTensor


@st.composite
def order3_shapes(draw) -> tuple[int, int, int]:
    return (
        draw(st.integers(3, 8)),
        draw(st.integers(3, 8)),
        draw(st.integers(2, 8)),
    )


class TestAppendEquivalence:
    @given(shape=order3_shapes(), split_seed=st.integers(0, 1000))
    @settings(max_examples=15)
    def test_split_compress_append_is_lossless_consistent(
        self, shape, split_seed
    ) -> None:
        """Compressing two halves and appending equals compressing whole
        (exact SVD path, so no RNG stream differences)."""
        rng = np.random.default_rng(split_seed)
        x = rng.standard_normal(shape)
        t = shape[2]
        cut = 1 + split_seed % max(t - 1, 1)
        k = min(shape[0], shape[1])
        whole = compress(x, k, config=DTuckerConfig(exact_slice_svd=True))
        merged = compress(x[..., :cut], k, config=DTuckerConfig(exact_slice_svd=True)).append(
            compress(x[..., cut:], k, config=DTuckerConfig(exact_slice_svd=True))
        )
        np.testing.assert_allclose(merged.u, whole.u, atol=1e-9)
        np.testing.assert_allclose(merged.s, whole.s, atol=1e-9)
        assert merged.shape == whole.shape
        assert np.isclose(merged.norm_squared, whole.norm_squared)


class TestArchiveRoundtrip:
    @given(shape=order3_shapes(), seed=st.integers(0, 1000))
    @settings(max_examples=10)
    def test_slice_svd_bits_preserved(self, shape, seed, tmp_path_factory) -> None:
        from repro.store import read_slice_svd_archive, write_slice_svd_archive

        x = np.random.default_rng(seed).standard_normal(shape)
        k = max(1, min(shape[0], shape[1]) - 1)
        ssvd = compress(x, k, rng=seed)
        path = tmp_path_factory.mktemp("io") / "c.npz"
        back = read_slice_svd_archive(write_slice_svd_archive(ssvd, path))
        np.testing.assert_array_equal(back.u, ssvd.u)
        np.testing.assert_array_equal(back.s, ssvd.s)
        np.testing.assert_array_equal(back.vt, ssvd.vt)


class TestSparseDenseAgreement:
    @given(shape=order3_shapes(), seed=st.integers(0, 1000))
    @settings(max_examples=10)
    def test_sparse_compression_matches_dense_reconstruction(
        self, shape, seed
    ) -> None:
        """Sparse compression of a (fully stored) tensor reconstructs the
        same tensor as dense exact compression."""
        from repro.core.sparse_dtucker import compress_sparse

        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        st_tensor = SparseTensor.from_dense(x)
        k = min(shape[0], shape[1])
        sparse_ssvd = compress_sparse(
            st_tensor, k, config=DTuckerConfig(oversampling=k), rng=seed
        )
        # Full rank ⇒ lossless regardless of the algorithm.
        np.testing.assert_allclose(sparse_ssvd.reconstruct(), x, atol=1e-6)

    @given(shape=order3_shapes(), seed=st.integers(0, 1000))
    @settings(max_examples=10)
    def test_coo_roundtrip(self, shape, seed) -> None:
        x = np.random.default_rng(seed).standard_normal(shape)
        x[x < 0.5] = 0.0
        st_tensor = SparseTensor.from_dense(x)
        np.testing.assert_array_equal(st_tensor.to_dense(), x)
        assert st_tensor.nnz == int(np.count_nonzero(x))


class TestRefitDeterminism:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=10)
    def test_refit_is_pure(self, seed) -> None:
        """refit() must not mutate solver state: calling it twice with the
        same ranks gives identical results."""
        from repro.core.dtucker import DTucker
        from repro.tensor.random import random_tensor

        x = random_tensor((10, 9, 8), (3, 3, 3), rng=seed, noise=0.1)
        model = DTucker(ranks=(3, 3, 3), slice_rank=4, seed=seed).fit(x)
        a = model.refit(ranks=(2, 2, 2))
        b = model.refit(ranks=(2, 2, 2))
        np.testing.assert_array_equal(a.core, b.core)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)
