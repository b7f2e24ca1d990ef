"""Tests for the compression planner (``repro.kernels.compress_plan``).

Three contracts matter here:

* the planner applies the one slice-SVD rule: the Gram shortcut when
  ``min(I1, I2) <= 2·(rank + oversampling)``, randomized SVD otherwise;
* each method stays bit-identical to the raw linalg kernels, whatever the
  chunking, the blocking and the backend;
* the float32 path trades precision for speed without corrupting the
  float64-accumulated norms or the final accuracy beyond tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.slice_svd import compress
from repro.engine import Prefetcher, backend_scope
from repro.exceptions import RankError, ShapeError
from repro.kernels import (
    BufferPool,
    CompressionPlan,
    KernelStats,
    estimate_costs,
    execute_plan,
    plan_compression,
    plan_from_config,
    slab_norms,
)
from repro.linalg.rsvd import batched_rsvd, batched_svd_via_gram
from repro.tensor.random import default_rng, random_tensor
from repro.tensor.slices import to_slices


def _stack(shape, *, seed=0):
    """A (L, I1, I2) slab of random slices."""
    return default_rng(seed).standard_normal(shape)


class TestPlanDecisions:
    @pytest.mark.parametrize(
        "i1,i2,rank,expected",
        [
            (256, 30, 8, "gram"),    # m <= 2 * (rank + oversampling)
            (256, 256, 8, "rsvd"),
            (256, 36, 8, "gram"),    # boundary: m == 2 * k_nom
            (256, 37, 8, "rsvd"),
        ],
    )
    def test_legacy_dispatch(self, i1, i2, rank, expected) -> None:
        plan = plan_compression(i1, i2, rank, oversampling=10)
        assert plan.method == expected
        assert plan_compression(i2, i1, rank, oversampling=10).method == expected

    @pytest.mark.parametrize(
        "i1,i2,rank,method",
        [
            (120, 90, 10, "rsvd"),    # boats
            (160, 120, 10, "rsvd"),   # walking
            (400, 54, 10, "rsvd"),    # stock
            (2000, 376, 6, "rsvd"),   # airquality
            (96, 96, 8, "rsvd"),      # hsi
        ],
    )
    def test_paper_slabs_keep_their_methods(self, i1, i2, rank, method) -> None:
        # The fit_paper slab shapes keep the methods the default chose before.
        assert plan_compression(i1, i2, rank).method == method

    def test_k_eff_capped_at_short_side(self) -> None:
        plan = plan_compression(100, 12, 8, oversampling=10)
        assert plan.k_eff == 12

    def test_compute_dtype(self) -> None:
        assert plan_compression(20, 20, 4).compute_dtype == np.float64
        assert (
            plan_compression(20, 20, 4, precision="float32").compute_dtype
            == np.float32
        )

    def test_invalid_rank(self) -> None:
        with pytest.raises(RankError):
            plan_compression(20, 10, 11)
        with pytest.raises(RankError):
            plan_compression(20, 10, 0)

    def test_invalid_strategy(self) -> None:
        # One rule: the planner takes no strategy.
        with pytest.raises(TypeError, match="strategy"):
            plan_compression(20, 20, 4, strategy="auto")  # type: ignore[call-arg]

    def test_invalid_precision(self) -> None:
        with pytest.raises(ShapeError):
            plan_compression(20, 20, 4, precision="float16")

    def test_plan_from_config(self) -> None:
        cfg = DTuckerConfig(precision="float32", oversampling=5)
        plan = plan_from_config(256, 256, 8, cfg)
        assert plan.method == "rsvd"
        assert plan.k_eff == 13
        assert plan.compute_dtype == np.float32


class TestEstimateCosts:
    def test_all_positive(self) -> None:
        costs = estimate_costs(100, 80, 5)
        assert all(v > 0 for v in costs.values())

    def test_symmetric_in_orientation(self) -> None:
        assert estimate_costs(100, 40, 5) == estimate_costs(40, 100, 5)

    def test_rsvd_wins_squarish(self) -> None:
        costs = estimate_costs(256, 256, 8, oversampling=10)
        assert set(costs) == {"gram", "rsvd"}
        assert costs["rsvd"] < costs["gram"]

    def test_gram_wins_short_side(self) -> None:
        costs = estimate_costs(512, 48, 8, oversampling=10)
        assert costs["gram"] < costs["rsvd"]


class TestDefaultPathRegression:
    """The default float64 path must keep matching the raw linalg kernels."""

    def test_rsvd_regime_pinned(self) -> None:
        x = default_rng(3).standard_normal((50, 46, 4))
        rank, over = 5, 10
        ssvd = compress(x, rank, rng=0)
        stack = np.ascontiguousarray(np.moveaxis(to_slices(x), 2, 0))
        omega = default_rng(0).standard_normal((46, rank + over))
        u, s, vt = batched_rsvd(stack, rank, test_matrix=omega)
        np.testing.assert_array_equal(ssvd.u, u)
        np.testing.assert_array_equal(ssvd.s, s)
        np.testing.assert_array_equal(ssvd.vt, vt)

    def test_gram_regime_pinned(self) -> None:
        x = default_rng(3).standard_normal((50, 14, 4))
        ssvd = compress(x, 4, rng=0)
        stack = np.ascontiguousarray(np.moveaxis(to_slices(x), 2, 0))
        u, s, vt = batched_svd_via_gram(stack, 4)
        np.testing.assert_array_equal(ssvd.u, u)
        np.testing.assert_array_equal(ssvd.s, s)
        np.testing.assert_array_equal(ssvd.vt, vt)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_default_config_is_noop(self, backend) -> None:
        """An explicit default config routes through the same code path."""
        x = random_tensor((30, 28, 5), (4, 4, 2), rng=2, noise=0.05)
        with backend_scope(backend, config=DTuckerConfig(n_workers=2)) as eng:
            a = compress(x, 4, rng=0, engine=eng)
            b = compress(x, 4, rng=0, engine=eng, config=DTuckerConfig())
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.vt, b.vt)


class TestFloat32Path:
    def test_end_to_end_accuracy(self) -> None:
        x = random_tensor((40, 36, 6), (4, 4, 3), rng=5, noise=0.01)
        f64 = compress(x, 4, rng=0)
        f32 = compress(x, 4, config=DTuckerConfig(precision="float32"), rng=0)
        # SliceSVD storage is always float64, whatever the compute dtype.
        assert f32.u.dtype == np.float64
        assert f32.compression_error(x) < f64.compression_error(x) + 1e-2

    def test_norms_accumulated_in_float64(self) -> None:
        x = default_rng(1).standard_normal((30, 25, 4))
        f32 = compress(x, 3, config=DTuckerConfig(precision="float32"), rng=0)
        exact = float(np.sum(x * x))
        # float64 accumulation over the float32-cast data: relative error is
        # bounded by the cast (~1e-7), far tighter than fp32 accumulation.
        assert f32.norm_squared == pytest.approx(exact, rel=1e-5)

    def test_batched_npy_source_error_gap(self, tmp_path) -> None:
        # A batched out-of-core compression in float32 stays within 1e-2
        # (relative error) of the same compression in float64.
        from repro.core.sources import NpySource, compress_source

        x = random_tensor((24, 18, 4, 3), (3, 3, 2, 2), rng=0, noise=0.05)
        np.save(tmp_path / "x.npy", x)
        f64, f32 = (
            compress_source(
                NpySource(tmp_path / "x.npy"), 3, batch_slices=4, rng=0,
                config=DTuckerConfig(precision=precision),
            )
            for precision in ("float64", "float32")
        )
        gap = abs(np.sqrt(f32.compression_error(x)) - np.sqrt(f64.compression_error(x)))
        assert gap <= 1e-2

    def test_slab_norms_dtype(self) -> None:
        stack = default_rng(2).standard_normal((5, 10, 8)).astype(np.float32)
        norms = slab_norms(stack)
        assert norms.dtype == np.float64
        np.testing.assert_allclose(
            norms, [float(np.sum(s.astype(np.float64) ** 2)) for s in stack],
            rtol=1e-6,
        )

    def test_slab_norms_float64_bit_exact(self) -> None:
        stack = np.ascontiguousarray(default_rng(2).standard_normal((5, 10, 8)))
        np.testing.assert_array_equal(
            slab_norms(stack),
            np.einsum("lij,lij->l", stack, stack, optimize=True),
        )


class TestGramGuard:
    """Near-rank-deficient slices must fall back to the direct SVD."""

    def _deficient_stack(self, dtype=np.float64):
        # Exactly rank-1 slices; requesting rank 3 drives the Gram
        # eigenproblem into its null space.
        gen = default_rng(11)
        stack = np.stack(
            [np.outer(gen.standard_normal(20), gen.standard_normal(12))
             for _ in range(4)]
        )
        return stack.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_factors_finite(self, dtype) -> None:
        u, s, vt = batched_svd_via_gram(self._deficient_stack(dtype), 3)
        assert np.isfinite(u).all()
        assert np.isfinite(s).all()
        assert np.isfinite(vt).all()

    def test_fallback_is_exact(self) -> None:
        stack = self._deficient_stack()
        u, s, vt = batched_svd_via_gram(stack, 3)
        for l in range(stack.shape[0]):
            ref_s = np.linalg.svd(stack[l], compute_uv=False)[:3]
            np.testing.assert_allclose(s[l], ref_s, atol=1e-10)
            # Leading (non-degenerate) singular triple reconstructs.
            np.testing.assert_allclose(
                s[l, 0] * np.outer(u[l, :, 0], vt[l, 0]), stack[l], atol=1e-8
            )

    def test_well_conditioned_unaffected(self) -> None:
        stack = np.ascontiguousarray(default_rng(4).standard_normal((3, 30, 10)))
        u, s, vt = batched_svd_via_gram(stack, 4)
        # Guard must not trigger: s[-1]/s[0] of a Gaussian slice is O(1).
        assert (s[:, -1] > np.sqrt(np.finfo(np.float64).eps) * s[:, 0]).all()
        for l in range(3):
            np.testing.assert_allclose(
                u[l].T @ u[l], np.eye(4), atol=1e-10
            )


class TestExecutePlan:
    def test_matches_direct_kernels(self) -> None:
        stack = np.ascontiguousarray(default_rng(6).standard_normal((6, 32, 30)))
        omega = default_rng(0).standard_normal((30, 14))
        plan = plan_compression(32, 30, 4)
        assert plan.method == "rsvd"
        with backend_scope("serial") as eng:
            u, s, vt, norms = execute_plan(eng, stack, 4, plan, omega=omega)
        ru, rs, rvt = batched_rsvd(stack, 4, test_matrix=omega)
        np.testing.assert_array_equal(u, ru)
        np.testing.assert_array_equal(s, rs)
        np.testing.assert_array_equal(vt, rvt)
        np.testing.assert_array_equal(norms, slab_norms(stack))

    def test_pool_reuse_and_parity(self) -> None:
        stack = np.ascontiguousarray(default_rng(8).standard_normal((5, 30, 28)))
        omega = default_rng(0).standard_normal((28, 13))
        plan = plan_compression(30, 28, 3)
        pool = BufferPool()
        with backend_scope("serial") as eng:
            first = execute_plan(eng, stack, 3, plan, omega=omega, pool=pool)
            assert pool.bytes_reused == 0
            second = execute_plan(eng, stack, 3, plan, omega=omega, pool=pool)
            assert pool.bytes_reused > 0
            bare = execute_plan(eng, stack, 3, plan, omega=omega)
        for a, b, c in zip(first, second, bare):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_records_stats(self) -> None:
        stack = np.ascontiguousarray(default_rng(9).standard_normal((4, 30, 28)))
        plan = plan_compression(30, 28, 3)
        stats = KernelStats()
        with backend_scope("serial") as eng:
            execute_plan(eng, stack, 3, plan, rng=0, stats=stats)
        assert stats.plan_decisions() == {"rsvd": 1}
        assert stats.sketch_draws == 1

    def test_non_3d_rejected(self) -> None:
        plan = plan_compression(10, 10, 2)
        with backend_scope("serial") as eng:
            with pytest.raises(ShapeError):
                execute_plan(eng, np.zeros((10, 10)), 2, plan)

    def test_bad_omega_shape_rejected(self) -> None:
        plan = plan_compression(30, 28, 3)
        assert plan.method == "rsvd"
        with backend_scope("serial") as eng:
            with pytest.raises(ShapeError):
                execute_plan(
                    eng, np.zeros((2, 30, 28)), 3, plan,
                    omega=np.zeros((28, 3)),
                )


class TestBlocks:
    """Chunks are factored in cache-sized blocks; the boundaries are invisible."""

    #: Block budgets in slices of the test slab: one-slice blocks, blocks
    #: of three (7 slices -> 3 + 3 + 1), and a budget below one slice.
    CASES = {"one-slice": 1.0, "uneven": 3.0, "sub-slice": 0.25}

    @staticmethod
    def _strided_stack() -> np.ndarray:
        # (L, I1, I2) view with the slice index fastest, as DenseSource serves.
        return np.moveaxis(default_rng(12).standard_normal((30, 28, 7)), 2, 0)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("method", ["gram", "rsvd"])
    def test_blocking_is_bit_invisible(
        self, monkeypatch, method, precision, backend
    ) -> None:
        from repro.kernels import compress_plan

        stack = self._strided_stack()
        # The Gram boundary of the (30, 28) slices: 28 = 2·(3 + 11).
        over = 11 if method == "gram" else 10
        plan = plan_compression(
            30, 28, 3, precision=precision, oversampling=over
        )
        assert plan.method == method
        omega = default_rng(0).standard_normal((28, plan.k_eff))
        slice_bytes = 30 * 28 * plan.compute_dtype.itemsize
        assert compress_plan.block_slices(30, 28, plan.compute_dtype) >= 7
        with backend_scope("serial") as eng:
            ref = execute_plan(eng, stack, 3, plan, omega=omega)
        with backend_scope(backend, config=DTuckerConfig(n_workers=2)) as eng:
            for slices in self.CASES.values():
                monkeypatch.setattr(
                    compress_plan, "_BLOCK_BYTES", int(slices * slice_bytes)
                )
                got = execute_plan(eng, stack, 3, plan, omega=omega, pool=BufferPool())
                for a, b in zip(got[:3], ref[:3]):
                    assert a.dtype == plan.compute_dtype
                    np.testing.assert_array_equal(a, b)
                np.testing.assert_allclose(got[3], ref[3], rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_copy_matches_single_copy(self, dtype) -> None:
        from repro.kernels.compress_plan import _copies_by_row, _copy_block

        strided = self._strided_stack()
        assert _copies_by_row(strided)
        assert not _copies_by_row(strided[:3])
        assert not _copies_by_row(np.ascontiguousarray(strided))
        # Fortran-ordered slices, as an order-4 DenseSource serves them.
        fortran = np.asfortranarray(np.moveaxis(strided, 0, 2))
        assert not _copies_by_row(np.moveaxis(fortran, 2, 0))
        blk = np.empty(strided.shape, dtype=dtype)
        _copy_block(blk, strided)
        np.testing.assert_array_equal(blk, strided.astype(dtype))

    def test_pooled_buffer_only_on_serial(self) -> None:
        # Concurrent thread chunks must never share the pooled block slot.
        stack = self._strided_stack()
        plan = plan_compression(30, 28, 3)
        pool = BufferPool()
        with backend_scope("thread", config=DTuckerConfig(n_workers=2)) as eng:
            execute_plan(eng, stack, 3, plan, rng=0, pool=pool)
        assert len(pool) == 0
        with backend_scope("serial") as eng:
            execute_plan(eng, stack, 3, plan, rng=0, pool=pool)
        assert len(pool) == 1

    def test_block_slices(self, monkeypatch) -> None:
        from repro.kernels import compress_plan

        monkeypatch.setattr(compress_plan, "_BLOCK_BYTES", 3 * 30 * 28 * 8)
        assert compress_plan.block_slices(30, 28, np.float64) == 3
        assert compress_plan.block_slices(30, 28, np.float32) == 6
        assert compress_plan.block_slices(300, 280, np.float64) == 1

    def test_peak_memory_below_half_the_tensor(self) -> None:
        # A strided order-3 tensor is compressed block by block: no
        # whole-slab copy, cast or sketch is ever materialised.
        import tracemalloc

        from repro.core.sources import DenseSource, compress_source

        x = default_rng(13).standard_normal((256, 256, 96))
        tracemalloc.start()
        try:
            compress_source(
                DenseSource(x), 8, config=DTuckerConfig(seed=0, backend="serial")
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * x.nbytes

    @pytest.mark.parametrize("method", ["gram", "rsvd"])
    def test_factors_allocated_once(self, monkeypatch, method) -> None:
        # A serial multi-block slab writes every block's (U, s, Vt, norms)
        # straight into the final arrays: no per-block list, no concat.
        import tracemalloc

        from repro.kernels import compress_plan

        stack = self._strided_stack()
        stack = np.concatenate([stack] * 40, axis=0)  # 280 slices of 30x28
        # The Gram boundary of the (30, 28) slices: 28 = 2·(10 + 4).
        plan = plan_compression(
            30, 28, 10, oversampling=4 if method == "gram" else 2
        )
        assert plan.method == method
        omega = default_rng(0).standard_normal((28, plan.k_eff))
        block = 8
        monkeypatch.setattr(
            compress_plan, "_BLOCK_BYTES", block * 30 * 28 * plan.compute_dtype.itemsize
        )

        def peak_of(slab):
            with backend_scope("serial") as eng:
                tracemalloc.start()
                try:
                    out = execute_plan(eng, slab, 10, plan, omega=omega)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            return out, peak

        _, one_block = peak_of(stack[:block])
        out, peak = peak_of(stack)
        out_bytes = sum(a.nbytes for a in out)
        buffer_bytes = block * 30 * 28 * 8
        assert peak <= out_bytes + buffer_bytes + one_block


class TestCompressStats:
    def test_default_path_records_too(self) -> None:
        x = default_rng(2).standard_normal((40, 10, 4))
        stats = KernelStats()
        compress(x, 3, rng=0, stats=stats)
        assert stats.plan_decisions() == {"gram": 1}
        assert stats.sketch_draws == 0


class TestPrefetcher:
    def test_yields_in_order(self) -> None:
        with Prefetcher(lambda i: i * i, range(10)) as pf:
            assert list(pf) == [i * i for i in range(10)]

    def test_len(self) -> None:
        pf = Prefetcher(lambda i: i, [1, 2, 3])
        assert len(pf) == 3
        pf.close()

    def test_empty(self) -> None:
        with Prefetcher(lambda i: i, []) as pf:
            assert list(pf) == []

    def test_exception_propagates(self) -> None:
        def boom(i):
            if i == 2:
                raise ValueError("bad item")
            return i

        with Prefetcher(boom, range(5)) as pf:
            it = iter(pf)
            assert next(it) == 0
            assert next(it) == 1
            with pytest.raises(ValueError, match="bad item"):
                next(it)

    def test_single_iteration_guard(self) -> None:
        with Prefetcher(lambda i: i, [1, 2]) as pf:
            list(pf)
            with pytest.raises(RuntimeError, match="once"):
                list(pf)

    def test_counters_accumulate(self) -> None:
        import time

        def slow(i):
            time.sleep(0.005)
            return i

        with Prefetcher(slow, range(4)) as pf:
            out = list(pf)
        assert out == [0, 1, 2, 3]
        assert pf.produce_seconds >= 4 * 0.005
        assert pf.wait_seconds >= 0.0

    def test_overlap_hides_io(self) -> None:
        import time

        def produce(i):
            time.sleep(0.02)
            return i

        with Prefetcher(produce, range(4)) as pf:
            for _ in pf:
                time.sleep(0.03)  # consumer slower than producer
        # All but the first gather should have been hidden behind compute.
        assert pf.wait_seconds < pf.produce_seconds

    def test_depth_validated(self) -> None:
        with pytest.raises(ValueError):
            Prefetcher(lambda i: i, [1], depth=0)

    def test_close_cancels_pending(self) -> None:
        pf = Prefetcher(lambda i: i, range(100))
        it = iter(pf)
        next(it)
        pf.close()  # must not hang


class TestConfigPlannerFields:
    def test_defaults(self) -> None:
        cfg = DTuckerConfig()
        assert not hasattr(cfg, "strategy")
        assert cfg.precision == "float64"

    def test_invalid_strategy(self) -> None:
        # One slice-SVD rule: every strategy is a TypeError; the exact
        # reference is repro.core.slice_svd.exact_compress, not a mode.
        for strategy in ("rsvd", "auto", "gram", "exact"):
            with pytest.raises(TypeError, match="strategy"):
                DTuckerConfig(strategy=strategy)  # type: ignore[call-arg]

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_valid_precisions(self, precision) -> None:
        assert DTuckerConfig(precision=precision).precision == precision

    def test_invalid_precision(self) -> None:
        with pytest.raises(ShapeError):
            DTuckerConfig(precision="bf16")

    def test_plan_is_frozen(self) -> None:
        plan = plan_compression(10, 10, 2)
        assert isinstance(plan, CompressionPlan)
        with pytest.raises(AttributeError):
            plan.method = "gram"  # type: ignore[misc]
