"""Tests for out-of-core compression: ``compress_source`` over an ``NpySource``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.slice_svd import compress
from repro.core.sources import (
    NpySource,
    batched_slice_view,
    clear_memmap_cache,
    compress_source,
)
from repro.exceptions import RankError, ShapeError
from repro.kernels import KernelStats
from repro.tensor.random import random_tensor
from repro.tensor.slices import slice_count, to_slices


@pytest.fixture(autouse=True)
def _fresh_memmap_cache():
    # Handles are cached process-wide (keyed on path + mtime); start and
    # end each test with an empty cache so tmp-file lifetimes stay local.
    clear_memmap_cache()
    yield
    clear_memmap_cache()


@pytest.fixture
def npy_tensor(tmp_path, rng):
    x = random_tensor((18, 14, 5, 4), (3, 3, 2, 2), rng=rng, noise=0.05)
    path = tmp_path / "x.npy"
    np.save(path, x)
    return path, x


class TestBatchedSliceView:
    def test_matches_to_slices(self, npy_tensor) -> None:
        path, x = npy_tensor
        mmap = np.load(path, mmap_mode="r")
        stack = to_slices(x)
        view = batched_slice_view(mmap, 3, 9)
        for offset, l in enumerate(range(3, 9)):
            np.testing.assert_array_equal(view[offset], stack[:, :, l])

    def test_full_range(self, npy_tensor) -> None:
        path, x = npy_tensor
        mmap = np.load(path, mmap_mode="r")
        view = batched_slice_view(mmap, 0, 20)
        np.testing.assert_array_equal(view, np.moveaxis(to_slices(x), 2, 0))

    def test_order2(self, tmp_path, rng) -> None:
        m = rng.standard_normal((6, 5))
        p = tmp_path / "m.npy"
        np.save(p, m)
        view = batched_slice_view(np.load(p, mmap_mode="r"), 0, 1)
        np.testing.assert_array_equal(view[0], m)

    def test_bad_range(self, npy_tensor) -> None:
        path, _ = npy_tensor
        mmap = np.load(path, mmap_mode="r")
        with pytest.raises(ShapeError):
            batched_slice_view(mmap, 5, 3)
        with pytest.raises(ShapeError):
            batched_slice_view(mmap, 0, 21)


class TestCompressNpy:
    def test_matches_in_memory_gram_path(self, tmp_path, rng) -> None:
        # Thin slices force the deterministic Gram path in both, so results
        # are bit-comparable.
        x = random_tensor((40, 6, 8), (3, 3, 2), rng=rng, noise=0.1)
        p = tmp_path / "x.npy"
        np.save(p, x)
        a = compress_source(NpySource(p), 3, batch_slices=3)
        b = compress(x, 3)
        np.testing.assert_allclose(a.u, b.u, atol=1e-10)
        np.testing.assert_allclose(a.s, b.s, atol=1e-10)
        assert a.norm_squared == pytest.approx(b.norm_squared)

    def test_randomized_path_quality(self, npy_tensor) -> None:
        path, x = npy_tensor
        ssvd = compress_source(NpySource(path), 4, batch_slices=7, rng=0)
        assert ssvd.shape == x.shape
        assert ssvd.compression_error(x) < 0.02

    def test_norm_exact_across_batches(self, npy_tensor) -> None:
        path, x = npy_tensor
        ssvd = compress_source(NpySource(path), 3, batch_slices=6, rng=0)
        assert ssvd.norm_squared == pytest.approx(float(np.sum(x * x)))

    def test_batch_size_does_not_change_gram_result(self, tmp_path, rng) -> None:
        x = random_tensor((30, 5, 12), (3, 3, 2), rng=rng, noise=0.1)
        p = tmp_path / "x.npy"
        np.save(p, x)
        a = compress_source(NpySource(p), 3, batch_slices=1)
        b = compress_source(NpySource(p), 3, batch_slices=12)
        np.testing.assert_allclose(a.s, b.s, atol=1e-10)

    def test_end_to_end_decomposition(self, npy_tensor) -> None:
        from repro.core.initialization import initialize
        from repro.core.iteration import als_sweeps

        path, x = npy_tensor
        ssvd = compress_source(NpySource(path), 3, rng=0)
        _, factors = initialize(ssvd, (3, 3, 2, 2))
        out = als_sweeps(ssvd, (3, 3, 2, 2), factors)
        from repro.tensor.products import tucker_to_tensor

        err = np.linalg.norm(
            tucker_to_tensor(out.core, out.factors) - x
        ) ** 2 / np.linalg.norm(x) ** 2
        assert err < 0.02

    def test_rank_too_large(self, npy_tensor) -> None:
        path, _ = npy_tensor
        with pytest.raises(RankError):
            compress_source(NpySource(path), 15)

    def test_order1_rejected(self, tmp_path) -> None:
        p = tmp_path / "v.npy"
        np.save(p, np.ones(5))
        with pytest.raises(ShapeError):
            compress_source(NpySource(p), 1)


class TestBatchRemainders:
    """Batch sizes that do not divide L evenly, including B > L."""

    # L = 20 slices in the npy_tensor fixture.
    @pytest.mark.parametrize("batch_slices", [1, 3, 7, 19, 20, 21, 1000])
    def test_uneven_batches_cover_all_slices(
        self, npy_tensor, batch_slices
    ) -> None:
        path, x = npy_tensor
        ssvd = compress_source(
            NpySource(path), 3, batch_slices=batch_slices, rng=0
        )
        assert ssvd.num_slices == slice_count(x.shape)
        assert ssvd.norm_squared == pytest.approx(float(np.sum(x * x)))
        assert ssvd.compression_error(x) < 0.05

    @pytest.mark.parametrize("batch_slices", [3, 7, 1000])
    def test_batching_invariance(self, npy_tensor, batch_slices) -> None:
        # Per-batch omegas come from one stream in batch order, so the
        # result is a function of the seed only, not of the batch size's
        # remainder structure... except that each batch draws its *own*
        # matrix, so only the full-coverage invariants are batch-free.
        path, x = npy_tensor
        ssvd = compress_source(
            NpySource(path), 3, batch_slices=batch_slices, rng=0
        )
        one = compress_source(
            NpySource(path), 3, batch_slices=batch_slices, rng=0
        )
        np.testing.assert_array_equal(ssvd.u, one.u)
        np.testing.assert_array_equal(ssvd.s, one.s)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends_bitwise_equal(self, npy_tensor, backend) -> None:
        path, _ = npy_tensor
        ref = compress_source(
            NpySource(path), 3, batch_slices=7, rng=0, engine="serial"
        )
        got = compress_source(
            NpySource(path), 3, batch_slices=7, rng=0, engine=backend
        )
        np.testing.assert_array_equal(got.u, ref.u)
        np.testing.assert_array_equal(got.s, ref.s)
        np.testing.assert_array_equal(got.vt, ref.vt)
        np.testing.assert_array_equal(
            got.slice_norms_squared, ref.slice_norms_squared
        )


class TestPlannerIntegration:
    @pytest.mark.parametrize("method", ["gram", "rsvd"])
    def test_strategies_cover_and_reconstruct(self, npy_tensor, method) -> None:
        # Both methods of the one rule: the (18, 14) slices take the Gram
        # shortcut when 14 <= 2·(3 + oversampling).
        path, x = npy_tensor
        stats = KernelStats()
        ssvd = compress_source(
            NpySource(path), 3, batch_slices=7, rng=0, stats=stats,
            config=DTuckerConfig(oversampling=10 if method == "gram" else 2),
        )
        assert set(stats.plan_decisions()) == {method}
        assert ssvd.shape == x.shape
        assert ssvd.compression_error(x) < 0.05

    def test_sketch_draws_at_most_one_per_batch(self, npy_tensor) -> None:
        path, x = npy_tensor
        stats = KernelStats()
        ssvd = compress_source(
            NpySource(path), 3, batch_slices=6, rng=0, stats=stats
        )
        n_batches = -(-slice_count(x.shape) // 6)
        assert sum(stats.plan_decisions().values()) == n_batches
        assert stats.sketch_draws <= n_batches
        assert ssvd.num_slices == slice_count(x.shape)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_float32_path(self, npy_tensor, backend) -> None:
        path, x = npy_tensor
        ssvd = compress_source(
            NpySource(path), 3, batch_slices=7, rng=0, engine=backend,
            config=DTuckerConfig(precision="float32"),
        )
        assert ssvd.u.dtype == np.float64  # storage is always float64
        assert ssvd.norm_squared == pytest.approx(
            float(np.sum(x * x)), rel=1e-5
        )
        assert ssvd.compression_error(x) < 0.05

    def test_thin_slices_take_gram(self, tmp_path, rng) -> None:
        # Thin slices (16 <= 2·(3 + 10)) take the sketch-free Gram
        # shortcut in every batch, bit-identical to the in-memory run.
        x = random_tensor((40, 16, 9), (3, 3, 2), rng=rng, noise=0.1)
        p = tmp_path / "x.npy"
        np.save(p, x)
        stats = KernelStats()
        a = compress_source(NpySource(p), 3, batch_slices=4, stats=stats)
        b = compress(x, 3)
        assert stats.plan_decisions() == {"gram": 3}
        assert stats.sketch_draws == 0
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.vt, b.vt)

    def test_io_annotated_on_trace(self, npy_tensor) -> None:
        from repro.engine import backend_scope

        path, _ = npy_tensor
        with backend_scope("serial") as eng:
            compress_source(NpySource(path), 3, batch_slices=6, rng=0, engine=eng)
            traces = list(eng.traces)
        (trace,) = [t for t in traces if t.phase == "approximation-ooc"]
        assert trace.io_seconds > 0.0
        assert trace.io_wait_seconds >= 0.0
        assert "io=" in trace.summary()


class TestFitFromFile:
    def test_matches_in_memory_quality(self, npy_tensor) -> None:
        from repro.core.dtucker import DTucker

        path, x = npy_tensor
        model = DTucker(ranks=(3, 3, 2, 2), seed=0).fit_from_file(path)
        in_memory = DTucker(ranks=(3, 3, 2, 2), seed=0).fit(x)
        assert model.result_.error(x) <= in_memory.result_.error(x) * 1.1 + 1e-4

    def test_attributes_populated(self, npy_tensor) -> None:
        from repro.core.dtucker import DTucker

        path, x = npy_tensor
        model = DTucker(ranks=(3, 3, 2, 2), seed=0).fit_from_file(
            path, batch_slices=5
        )
        assert set(model.timings_.phases) == {
            "approximation", "initialization", "iteration",
        }
        assert model.permutation_ == (0, 1, 2, 3)
        assert model.slice_svd_.shape == x.shape
        assert model.history_

    def test_refit_after_file_fit(self, npy_tensor) -> None:
        from repro.core.dtucker import DTucker

        path, x = npy_tensor
        model = DTucker(ranks=(3, 3, 2, 2), slice_rank=4, seed=0).fit_from_file(path)
        small = model.refit(ranks=(2, 2, 2, 2))
        assert small.ranks == (2, 2, 2, 2)

    def test_slice_modes_restriction(self, npy_tensor) -> None:
        from repro.core.dtucker import DTucker
        from repro.exceptions import ShapeError

        path, _ = npy_tensor
        with pytest.raises(ShapeError, match="slice_modes"):
            DTucker(ranks=2, slice_modes="largest").fit_from_file(path)

    def test_exact_svd_matches_in_memory_fit(self, npy_tensor) -> None:
        from repro.core.dtucker import DTucker

        path, x = npy_tensor
        cfg = DTuckerConfig(seed=0)
        got = DTucker(ranks=(3, 3, 2, 2), config=cfg).fit_from_file(path)
        ref = DTucker(ranks=(3, 3, 2, 2), config=cfg).fit(x)
        for name in ("u", "s", "vt"):
            np.testing.assert_array_equal(
                getattr(got.slice_svd_, name), getattr(ref.slice_svd_, name)
            )

    def test_rank_validation(self, npy_tensor) -> None:
        from repro.core.dtucker import DTucker
        from repro.exceptions import RankError

        path, _ = npy_tensor
        with pytest.raises(RankError):
            DTucker(ranks=(3, 3, 2, 2), slice_rank=1).fit_from_file(path)
