"""Tests for the data-source layer and the unified fit pipeline."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    BlockSource,
    DenseSource,
    DTucker,
    DTuckerConfig,
    FitPipeline,
    NpySource,
    SliceSource,
    SparseSource,
    compress,
    compress_source,
)
from repro.core.fit_pipeline import resolve_slice_rank
from repro.core.sources import (
    _gathered_slice_loop,
    batched_slice_view,
    clear_memmap_cache,
)
from repro.core.sparse_dtucker import compress_sparse
from repro.core.streaming import StreamingDTucker
from repro.exceptions import RankError, ShapeError
from repro.kernels import KernelStats
from repro.sparse import SparseTensor
from repro.tensor.random import random_tensor
from repro.tensor.slices import to_slices

BACKENDS = ["serial", "thread", "process"]


@pytest.fixture
def tensor(rng):
    return random_tensor((18, 14, 5, 4), (3, 3, 2, 2), rng=rng, noise=0.05)


@pytest.fixture
def npy_path(tmp_path, tensor):
    path = tmp_path / "x.npy"
    np.save(path, tensor)
    return path


def _stack(x):
    return np.moveaxis(to_slices(x), 2, 0)


class TestProtocol:
    def test_adapters_satisfy_protocol(self, tensor, npy_path) -> None:
        sparse = SparseTensor.from_dense(np.where(np.abs(tensor) > 1, tensor, 0.0))
        for src in (
            DenseSource(tensor),
            NpySource(npy_path),
            SparseSource(sparse),
            BlockSource([tensor]),
        ):
            assert isinstance(src, SliceSource)
            assert src.shape == tensor.shape
            assert src.slice_count == 20
            batch = src.read_batch(2, 7)
            assert batch.shape == (5, 18, 14)

    def test_descriptors_pickle_and_reopen(self, tensor, npy_path) -> None:
        sparse = SparseTensor.from_dense(np.where(np.abs(tensor) > 1, tensor, 0.0))
        for src in (
            DenseSource(tensor),
            NpySource(npy_path),
            SparseSource(sparse),
            BlockSource([tensor[..., :2], tensor[..., 2:]]),
        ):
            reopened = pickle.loads(pickle.dumps(src.descriptor())).open()
            assert reopened.shape == src.shape
            np.testing.assert_array_equal(
                reopened.read_batch(0, 3), src.read_batch(0, 3)
            )

    def test_npy_source_rejects_vectors(self, tmp_path) -> None:
        path = tmp_path / "v.npy"
        np.save(path, np.arange(5.0))
        with pytest.raises(ShapeError):
            NpySource(path)

    def test_sparse_source_rejects_dense(self, tensor) -> None:
        with pytest.raises(ShapeError):
            SparseSource(tensor)

    def test_block_source_rejects_mismatched_blocks(self, tensor) -> None:
        with pytest.raises(ShapeError):
            BlockSource([tensor, tensor[:, :-1]])
        with pytest.raises(ShapeError):
            BlockSource([])

    def test_rank_bound_error(self, tensor) -> None:
        with pytest.raises(RankError, match="exceeds min"):
            compress_source(DenseSource(tensor), 15)


class TestBatchedGather:
    """The fancy-index gather must be bit-identical to the per-slice loop."""

    @pytest.mark.parametrize(
        "shape",
        [(6, 5, 7), (5, 4, 3, 2), (4, 3, 2, 2, 3)],
    )
    def test_matches_loop_bitwise(self, rng, shape) -> None:
        x = rng.standard_normal(shape)
        count = int(np.prod(shape[2:]))
        for start, stop in [(0, count), (1, count - 1), (3, 4), (0, 1)]:
            if not 0 <= start < stop <= count:
                continue
            fast = batched_slice_view(x, start, stop)
            slow = _gathered_slice_loop(x, start, stop)
            np.testing.assert_array_equal(fast, slow)
            assert fast.flags["C_CONTIGUOUS"]
            assert fast.dtype == np.float64

    def test_matches_loop_on_memmap(self, rng, tmp_path) -> None:
        x = rng.standard_normal((5, 4, 3, 4))
        path = tmp_path / "x.npy"
        np.save(path, x)
        mm = np.load(path, mmap_mode="r")
        np.testing.assert_array_equal(
            batched_slice_view(mm, 2, 9), _gathered_slice_loop(x, 2, 9)
        )

    def test_matches_to_slices(self, rng) -> None:
        x = rng.standard_normal((6, 5, 4, 3))
        np.testing.assert_array_equal(
            batched_slice_view(x, 0, 12), _stack(x)
        )

    def test_non_ndarray_falls_back_to_loop(self, rng) -> None:
        class ArrayLike:
            def __init__(self, a):
                self._a = a
                self.shape = a.shape

            def __getitem__(self, key):
                return self._a[key]

        x = rng.standard_normal((4, 3, 5))
        np.testing.assert_array_equal(
            batched_slice_view(ArrayLike(x), 1, 4),
            batched_slice_view(x, 1, 4),
        )


class TestMemmapHandleCache:
    """Satellite: one cached read-only handle per file, not one per batch."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_one_open_across_batches(
        self, npy_path, tensor, monkeypatch, backend
    ) -> None:
        clear_memmap_cache()
        opens = []
        real_load = np.load

        def counting_load(path, *args, **kwargs):
            if kwargs.get("mmap_mode"):
                opens.append(str(path))
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        cfg = DTuckerConfig(seed=0, backend=backend, n_workers=2)
        ssvd = compress_source(
            NpySource(npy_path), 3, batch_slices=3, config=cfg
        )
        assert ssvd.num_slices == 20
        # 7 batches, 1 open: the probe populates the cache, batches hit it.
        assert len(opens) == 1
        clear_memmap_cache()

    def test_lru_cap_bounds_handles_and_counts_evictions(
        self, tmp_path, rng, monkeypatch
    ) -> None:
        """Satellite: the handle cache is LRU-bounded (fd-exhaustion guard).

        With a cap of 2, opening three distinct files must evict the
        least-recently-used handle, keep the cache at the cap, and tally
        the eviction; re-reading the evicted file is a fresh miss.
        """
        from repro.core.sources import memmap_cache_stats

        monkeypatch.setenv("REPRO_MEMMAP_HANDLES", "2")
        clear_memmap_cache()
        paths = []
        for i in range(3):
            path = tmp_path / f"m{i}.npy"
            np.save(path, rng.standard_normal((4, 3, 2)))
            paths.append(path)
        sources = [NpySource(p) for p in paths]  # 3 misses, 1 eviction
        stats = memmap_cache_stats()
        assert stats["capacity"] == 2
        assert stats["size"] == 2
        assert stats["misses"] == 3
        assert stats["evictions"] == 1
        sources[0].read_batch(0, 2)  # evicted: re-open, evict another
        stats = memmap_cache_stats()
        assert stats["misses"] == 4
        assert stats["evictions"] == 2
        assert stats["size"] == 2
        sources[0].read_batch(0, 2)  # hot again: a hit, no new handle
        assert memmap_cache_stats()["hits"] >= 1
        clear_memmap_cache()
        assert memmap_cache_stats()["size"] == 0
        assert memmap_cache_stats()["evictions"] == 0

    def test_rewritten_file_is_remapped(self, tmp_path, rng) -> None:
        clear_memmap_cache()
        path = tmp_path / "x.npy"
        a = rng.standard_normal((6, 5, 4))
        np.save(path, a)
        first = NpySource(path).read_batch(0, 4)
        np.testing.assert_array_equal(first, _stack(a)[:4])
        b = rng.standard_normal((6, 5, 4))
        np.save(path, b)
        import os

        os.utime(path, ns=(1, 1))  # force a distinct mtime_ns
        second = NpySource(path).read_batch(0, 4)
        np.testing.assert_array_equal(second, _stack(b)[:4])
        clear_memmap_cache()


class TestCrossSourceParity:
    """Same tensor through different sources → identical factors."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_npy_sparse_gram_bitwise(
        self, tensor, npy_path, backend
    ) -> None:
        # The gram method is sketch-free, so factors cannot depend on the
        # batching; the factor kernels contiguize internally, so they cannot
        # depend on the source's memory layout either.  Factors must agree
        # bit for bit; the per-slice norm accumulation runs on each source's
        # native layout, so norms agree only to rounding.
        cfg = DTuckerConfig(seed=0, strategy="gram", backend=backend, n_workers=2)
        sparse = SparseTensor.from_dense(tensor)
        results = [
            compress_source(DenseSource(tensor), 3, config=cfg),
            compress_source(NpySource(npy_path), 3, batch_slices=6, config=cfg),
            compress_source(SparseSource(sparse), 3, batch_slices=6, config=cfg),
        ]
        ref = results[0]
        for other in results[1:]:
            np.testing.assert_array_equal(other.u, ref.u)
            np.testing.assert_array_equal(other.s, ref.s)
            np.testing.assert_array_equal(other.vt, ref.vt)
            np.testing.assert_allclose(
                other.slice_norms_squared, ref.slice_norms_squared, rtol=1e-12
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_npy_block_rsvd_bitwise(
        self, tensor, npy_path, backend
    ) -> None:
        # One whole-tensor batch everywhere → one omega draw from the same
        # stream position → identical sketches.
        cfg = DTuckerConfig(seed=7, backend=backend, n_workers=2)
        dense = compress_source(DenseSource(tensor), 3, config=cfg)
        npy = compress_source(
            NpySource(npy_path), 3, batch_slices=20, config=cfg
        )
        block = compress_source(
            BlockSource([tensor[..., :1], tensor[..., 1:]]), 3, config=cfg
        )
        for other in (npy, block):
            np.testing.assert_array_equal(other.u, dense.u)
            np.testing.assert_array_equal(other.s, dense.s)
            np.testing.assert_array_equal(other.vt, dense.vt)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_npy_order4_rsvd_bitwise(self, tmp_path, backend) -> None:
        # The smallest order-4 shape on the randomized path (short side
        # > 2·(rank + oversampling)).  Its dense slice view is strided along
        # two trailing modes; the sketch must still see the same C-ordered
        # slices as the .npy gather, so the factors agree bit for bit.
        x = np.random.default_rng(0).standard_normal((23, 23, 2, 2))
        path = tmp_path / "x4.npy"
        np.save(path, x)
        cfg = DTuckerConfig(seed=7, backend=backend, n_workers=2)
        dense = compress_source(DenseSource(x), 1, config=cfg)
        npy = compress_source(NpySource(path), 1, batch_slices=4, config=cfg)
        np.testing.assert_array_equal(npy.u, dense.u)
        np.testing.assert_array_equal(npy.s, dense.s)
        np.testing.assert_array_equal(npy.vt, dense.vt)

    def test_wrapper_entry_points_match_compress_source(self, tensor) -> None:
        cfg = DTuckerConfig(seed=3)
        via_compress = compress(tensor, 3, config=cfg)
        via_source = compress_source(DenseSource(tensor), 3, config=cfg)
        np.testing.assert_array_equal(via_compress.u, via_source.u)

        sparse = SparseTensor.from_dense(tensor)
        via_sparse = compress_sparse(sparse, 3, config=cfg)
        via_sparse_source = compress_source(SparseSource(sparse), 3, config=cfg)
        np.testing.assert_array_equal(via_sparse.u, via_sparse_source.u)


class TestStreamingParity:
    def test_streaming_blocks_match_one_shot_quality(self, rng) -> None:
        x = random_tensor((16, 12, 20), (3, 3, 4), rng=rng, noise=0.02)
        one_shot = DTucker(ranks=(3, 3, 4), seed=0).fit(x)
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        for t0 in range(0, 20, 5):
            s.partial_fit(x[..., t0 : t0 + 5])
        # Documented tolerance: warm-started streaming sweeps land within
        # 1e-3 absolute of the one-shot reconstruction error.
        assert abs(s.result_.error(x) - one_shot.result_.error(x)) < 1e-3

    def test_block_source_one_shot_equals_dense(self, rng) -> None:
        x = random_tensor((16, 12, 20), (3, 3, 4), rng=rng, noise=0.02)
        blocks = [x[..., :5], x[..., 5:12], x[..., 12:]]
        cfg = DTuckerConfig(seed=0)
        via_blocks = compress_source(BlockSource(blocks), 3, config=cfg)
        via_dense = compress_source(DenseSource(x), 3, config=cfg)
        np.testing.assert_array_equal(via_blocks.u, via_dense.u)
        np.testing.assert_array_equal(via_blocks.s, via_dense.s)
        np.testing.assert_array_equal(via_blocks.vt, via_dense.vt)


class TestPipelineEconomy:
    def test_at_most_one_sketch_per_batch(self, npy_path) -> None:
        stats = KernelStats()
        # oversampling=2 keeps the cost model in the rsvd regime on these
        # small (18, 14) slices (2·(K + p) < min(I1, I2)).
        cfg = DTuckerConfig(seed=0, oversampling=2)
        compress_source(
            NpySource(npy_path), 3, batch_slices=3, config=cfg, stats=stats
        )
        n_batches = 7  # ceil(20 / 3)
        assert stats.misses_for("sketch") <= n_batches
        assert stats.misses_for("plan:rsvd") == n_batches

    def test_shared_sketch_draws_once(self, tensor) -> None:
        stats = KernelStats()
        sparse = SparseTensor.from_dense(tensor)
        compress_sparse(sparse, 3, batch_slices=3, config=DTuckerConfig(seed=0), stats=stats)
        assert stats.misses_for("sketch") == 1

    def test_dense_single_batch_single_sketch(self, tensor) -> None:
        stats = KernelStats()
        compress(tensor, 3, config=DTuckerConfig(seed=0, oversampling=2), stats=stats)
        assert stats.misses_for("sketch") == 1

    def test_fit_pipeline_w_reuse(self, tensor) -> None:
        pipeline = FitPipeline((3, 3, 2, 2), config=DTuckerConfig(seed=0))
        fit = pipeline.fit(DenseSource(tensor))
        assert fit.kernel_stats is not None
        assert fit.kernel_stats.w_evals_per_sweep() <= 1.0
        assert fit.kernel_stats.misses_for("sketch") <= 1


class TestFitPipeline:
    def test_matches_dtucker_fit_bitwise(self, tensor) -> None:
        model = DTucker(ranks=(3, 3, 2, 2), seed=0).fit(tensor)
        fit = FitPipeline(
            (3, 3, 2, 2), config=DTuckerConfig(seed=0)
        ).fit(DenseSource(tensor))
        np.testing.assert_array_equal(fit.result.core, model.result_.core)
        for a, b in zip(fit.result.factors, model.result_.factors):
            np.testing.assert_array_equal(a, b)
        assert fit.n_iters == model.n_iters_
        assert fit.history == model.history_

    def test_npy_source_matches_fit_from_file(self, tensor, npy_path) -> None:
        model = DTucker(ranks=(3, 3, 2, 2), seed=0).fit_from_file(
            npy_path, batch_slices=3
        )
        fit = FitPipeline(
            (3, 3, 2, 2), config=DTuckerConfig(seed=0)
        ).fit(NpySource(npy_path), batch_slices=3)
        np.testing.assert_array_equal(fit.result.core, model.result_.core)

    def test_refit_matches_dtucker_refit(self, tensor) -> None:
        model = DTucker(ranks=(4, 4, 2, 2), slice_rank=6, seed=0).fit(tensor)
        pipeline = FitPipeline((4, 4, 2, 2), config=DTuckerConfig(seed=0))
        result, outcome, traces = pipeline.refit(model.slice_svd_, (3, 3, 2, 2))
        expected = model.refit((3, 3, 2, 2))
        np.testing.assert_array_equal(result.core, expected.core)
        assert outcome.n_iters > 0
        assert traces

    def test_rejects_bad_init(self) -> None:
        with pytest.raises(ShapeError):
            FitPipeline((3, 3, 2), init="bogus")

    def test_resolve_slice_rank_policies(self) -> None:
        # strict: floor enforced, explicit rank clamped to min(I1, I2)
        assert resolve_slice_rank((10, 8, 5), 3, 4, None) == 4
        assert resolve_slice_rank((10, 8, 5), 3, 4, 20) == 8
        with pytest.raises(RankError, match="must be at least"):
            resolve_slice_rank((10, 8, 5), 3, 4, 2)
        # lenient: explicit rank passes through untouched
        assert resolve_slice_rank((10, 8, 5), 3, 4, 2, strict=False) == 2
        assert resolve_slice_rank((10, 8, 5), 3, 4, 20, strict=False) == 20
        assert resolve_slice_rank((10, 8, 5), 3, 4, None, strict=False) == 4
