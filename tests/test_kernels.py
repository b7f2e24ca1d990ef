"""Tests for the sweep-level kernel layer (``repro.kernels``).

The central contract: the cached/workspace-backed iteration path must be
**bit-identical** to the historical uncached loop on every backend and
tensor order — the kernel layer may only remove redundant work, never
change a single floating-point operation's inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.initialization import initialize
from repro.core.iteration import als_sweeps
from repro.core.slice_svd import compress
from repro.engine import backend_scope
from repro.exceptions import ConvergenceError
from repro.kernels import (
    BufferPool,
    KernelStats,
    SweepWorkspace,
    naive_als_sweeps,
    plan_ttm_chain,
)
from repro.kernels.contractions import (
    mode1_chunk,
    mode1_from_projection_chunk,
    mode2_chunk,
    mode2_from_projection_chunk,
    project_left_chunk,
    project_right_chunk,
    w_chunk,
    w_from_projections_chunk,
)
from repro.tensor.random import random_tensor

CASES = [
    ((12, 11, 8), (3, 3, 2)),          # order 3
    ((9, 8, 6, 5), (3, 3, 2, 2)),      # order 4
    ((7, 6, 5, 4, 3), (2, 2, 2, 2, 2)),  # order 5
]


def _problem(shape, ranks, *, rng=1, noise=0.02):
    x = random_tensor(shape, ranks, rng=rng, noise=noise)
    ssvd = compress(x, max(ranks[:2]) + 2, rng=0)
    _, factors = initialize(ssvd, ranks)
    return ssvd, factors


class TestWorkspaceParity:
    """Workspace path == naive path, bit for bit, everywhere."""

    @pytest.mark.parametrize("shape,ranks", CASES)
    def test_serial_parity(self, shape, ranks) -> None:
        ssvd, factors = _problem(shape, ranks)
        cfg = DTuckerConfig(max_iters=6, tol=1e-300)
        ref = naive_als_sweeps(ssvd, ranks, factors, config=cfg)
        got = als_sweeps(ssvd, ranks, factors, config=cfg)
        np.testing.assert_array_equal(got.core, ref.core)
        for a, b in zip(got.factors, ref.factors):
            np.testing.assert_array_equal(a, b)
        assert got.errors == ref.errors

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("shape,ranks", CASES)
    def test_backend_parity(self, backend, shape, ranks) -> None:
        ssvd, factors = _problem(shape, ranks)
        cfg = DTuckerConfig(max_iters=4, tol=1e-300)
        ref = naive_als_sweeps(ssvd, ranks, factors, config=cfg)
        with backend_scope(backend, config=DTuckerConfig(n_workers=2, chunk_size=3)) as eng:
            got = als_sweeps(ssvd, ranks, factors, config=cfg, engine=eng)
        np.testing.assert_array_equal(got.core, ref.core)
        for a, b in zip(got.factors, ref.factors):
            np.testing.assert_array_equal(a, b)
        assert got.errors == ref.errors

    def test_workspace_reuse_across_calls_is_identical(self) -> None:
        # A warm workspace (second run on the same ssvd/factors) must give
        # exactly the same answer as a cold one.
        ssvd, factors = _problem(*CASES[1])
        cfg = DTuckerConfig(max_iters=3, tol=1e-300)
        ws = SweepWorkspace(ssvd)
        first = als_sweeps(ssvd, (3, 3, 2, 2), factors, config=cfg, workspace=ws)
        warm = als_sweeps(ssvd, (3, 3, 2, 2), factors, config=cfg, workspace=ws)
        cold = als_sweeps(ssvd, (3, 3, 2, 2), factors, config=cfg)
        np.testing.assert_array_equal(warm.core, cold.core)
        np.testing.assert_array_equal(first.core, cold.core)

    def test_workspace_bound_elsewhere_rejected(self) -> None:
        ssvd, factors = _problem(*CASES[0])
        other_ssvd, _ = _problem(*CASES[0], rng=2)
        ws = SweepWorkspace(other_ssvd)
        with pytest.raises(ConvergenceError):
            als_sweeps(ssvd, (3, 3, 2), factors, workspace=ws)


class TestKernelStats:
    @pytest.mark.parametrize("shape,ranks", CASES)
    def test_w_built_once_per_sweep(self, shape, ranks) -> None:
        # The historical loop evaluated W twice per sweep; the workspace
        # must do it exactly once (the CI perf-smoke guard).
        ssvd, factors = _problem(shape, ranks)
        cfg = DTuckerConfig(max_iters=5, tol=1e-300)
        out = als_sweeps(ssvd, ranks, factors, config=cfg)
        assert out.kernel_stats is not None
        assert out.kernel_stats.sweeps == out.n_iters
        assert out.kernel_stats.w_evals_per_sweep() <= 1.0

    def test_projection_cache_hit_rates(self) -> None:
        # Steady state: au misses once per sweep (factor-0 update), av once
        # (factor-1 update); both are hit at least once per sweep.
        ssvd, factors = _problem(*CASES[1])
        cfg = DTuckerConfig(max_iters=6, tol=1e-300)
        out = als_sweeps(ssvd, (3, 3, 2, 2), factors, config=cfg)
        st = out.kernel_stats
        assert st.misses_for("au") == st.sweeps
        # av additionally misses once in sweep 1 (initial factors).
        assert st.misses_for("av") == st.sweeps + 1
        assert st.hits_for("au") >= st.sweeps
        assert st.hits_for("w") >= st.sweeps

    def test_chain_prefix_reuse_for_higher_orders(self) -> None:
        ssvd, factors = _problem(*CASES[2])
        cfg = DTuckerConfig(max_iters=4, tol=1e-300)
        out = als_sweeps(ssvd, (2, 2, 2, 2, 2), factors, config=cfg)
        assert out.kernel_stats.hits_for("chain") > 0

    def test_buffer_bytes_reused_after_first_sweep(self) -> None:
        ssvd, factors = _problem(*CASES[1])
        cfg = DTuckerConfig(max_iters=4, tol=1e-300)
        out = als_sweeps(ssvd, (3, 3, 2, 2), factors, config=cfg)
        assert out.kernel_stats.bytes_reused > 0

    def test_stats_delta_and_merge(self) -> None:
        a = KernelStats()
        a.record_miss("w")
        a.record_hit("au")
        snap = a.copy()
        a.record_hit("w")
        a.sweeps += 1
        d = a.delta(snap)
        assert d.hits_for("w") == 1 and d.misses_for("w") == 0
        assert d.sweeps == 1
        b = KernelStats()
        b.merge(a)
        b.merge(d)
        assert b.hits_for("w") == 2
        assert b.w_evals == 1

    def test_trace_carries_cache_counters(self) -> None:
        ssvd, factors = _problem(*CASES[0])
        cfg = DTuckerConfig(max_iters=3, tol=1e-300)
        with backend_scope("serial") as eng:
            als_sweeps(ssvd, (3, 3, 2), factors, config=cfg, engine=eng)
            trace = next(t for t in eng.traces if t.phase == "iteration")
        assert trace.counters.hits > 0
        assert trace.counters.misses > 0
        assert "cache=" in trace.summary()


class TestPlanner:
    def test_plan_tracks_evolving_shape(self) -> None:
        # Greedy against the evolving intermediate: the strongest shrink
        # goes first, and shrink ratios are re-read per step, not from the
        # original shape.
        order = plan_ttm_chain((10, 10, 100, 4), ((100, 2), (4, 3)), (2, 3), True)
        # Mode 2 shrinks by 50x, mode 3 by 4/3: mode 2 first.
        assert order == (0, 1)

    def test_plan_matches_executed_product(self) -> None:
        # The planned order must agree with what multi_mode_product does —
        # validated by checking the contraction result against the slow
        # unordered reference.
        from repro.tensor.products import mode_product, multi_mode_product

        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 6, 7, 8))
        mats = [rng.standard_normal((7, 3)), rng.standard_normal((8, 2))]
        got = multi_mode_product(x, mats, modes=[2, 3], transpose=True)
        ref = mode_product(mode_product(x, mats[0], 2, transpose=True), mats[1], 3, transpose=True)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


class TestBufferPool:
    def test_reuse_on_matching_shape(self) -> None:
        pool = BufferPool()
        a = pool.take("x", (4, 5))
        b = pool.take("x", (4, 5))
        assert a is b
        assert pool.bytes_reused == a.nbytes
        assert len(pool) == 1

    def test_reallocates_on_shape_change(self) -> None:
        pool = BufferPool()
        a = pool.take("x", (4, 5))
        b = pool.take("x", (6, 5))
        assert a is not b
        assert b.shape == (6, 5)
        assert pool.bytes_reused == 0

    def test_clear_drops_buffers(self) -> None:
        pool = BufferPool()
        pool.take("x", (4, 5))
        pool.clear()
        assert len(pool) == 0
        assert pool.nbytes == 0


class TestContractionKernels:
    """Fused kernels == projection-cached kernels, with and without out=."""

    def _triples(self):
        rng = np.random.default_rng(3)
        L, i1, i2, k, j1, j2 = 6, 9, 8, 4, 3, 3
        u = rng.standard_normal((L, i1, k))
        s = rng.standard_normal((L, k))
        vt = rng.standard_normal((L, k, i2))
        a1 = rng.standard_normal((i1, j1))
        a2 = rng.standard_normal((i2, j2))
        return u, s, vt, a1, a2

    def test_w_kernels_agree(self) -> None:
        u, s, vt, a1, a2 = self._triples()
        fused = w_chunk(u, s, vt, a1=a1, a2=a2)
        au = project_left_chunk(u, a1=a1)
        av = project_right_chunk(vt, a2=a2)
        cached = w_from_projections_chunk(au, s, av)
        np.testing.assert_array_equal(fused, cached)
        out = np.empty_like(fused)
        np.testing.assert_array_equal(
            w_from_projections_chunk(au, s, av, out=out), fused
        )

    def test_mode1_kernels_agree(self) -> None:
        u, s, vt, a1, a2 = self._triples()
        fused = mode1_chunk(u, s, vt, a2=a2)
        av = project_right_chunk(vt, a2=a2)
        np.testing.assert_array_equal(
            mode1_from_projection_chunk(u, s, av), fused
        )

    def test_mode2_kernels_agree(self) -> None:
        u, s, vt, a1, a2 = self._triples()
        fused = mode2_chunk(u, s, vt, a1=a1)
        au = project_left_chunk(u, a1=a1)
        np.testing.assert_array_equal(
            mode2_from_projection_chunk(au, s, vt), fused
        )

    def test_chunked_equals_oneshot(self) -> None:
        u, s, vt, a1, a2 = self._triples()
        full = w_chunk(u, s, vt, a1=a1, a2=a2)
        parts = [
            w_chunk(u[i : i + 2], s[i : i + 2], vt[i : i + 2], a1=a1, a2=a2)
            for i in range(0, u.shape[0], 2)
        ]
        np.testing.assert_array_equal(np.concatenate(parts, axis=0), full)



class TestComputeDtype:
    """The workspace computes in its compute dtype, with no silent upcast."""

    def test_float64_default_is_identity(self) -> None:
        ssvd, _ = _problem(*CASES[0])
        ws = SweepWorkspace(ssvd)
        # No cast, no copy: the views alias the stored representation.
        assert ws._u is ssvd.u or ws._u.base is ssvd.u
        assert ws.compute_dtype == np.float64

    def test_every_cached_projection_is_float32(self) -> None:
        ssvd, factors = _problem(*CASES[0])
        ws = SweepWorkspace(ssvd, compute_dtype=np.float32)
        ws.bind_factors(factors)
        assert ws.factor(0).dtype == np.float32
        assert ws.factor(1).dtype == np.float32
        assert ws.au().dtype == np.float32
        assert ws.av().dtype == np.float32
        assert ws.w().dtype == np.float32
        assert ws.mode1_partial().dtype == np.float32
        assert ws.mode2_partial().dtype == np.float32
        assert ws.project_w_trailing(skip=None).dtype == np.float32
        assert ws.project_w_trailing(skip=2).dtype == np.float32
        z1 = ws.project_trailing(ws.mode1_partial(), skip=None, tag="z1")
        assert z1.dtype == np.float32

    def test_float32_factor_updates_stay_float32(self) -> None:
        ssvd, factors = _problem(*CASES[0])
        ws = SweepWorkspace(ssvd, compute_dtype=np.float32)
        ws.bind_factors(factors)
        # A float64 factor update (e.g. from an SVD on a float64 unfolding)
        # must not leak float64 into the cached projections.
        ws.update_factor(0, np.asarray(factors[0], dtype=np.float64))
        assert ws.factor(0).dtype == np.float32
        assert ws.au().dtype == np.float32
        assert ws.w().dtype == np.float32

    def test_pool_allocates_compute_dtype(self) -> None:
        pool = BufferPool()
        buf64 = pool.take("t", (4, 5), np.float64)
        buf32 = pool.take("t", (4, 5), np.float32)
        assert buf64.dtype == np.float64
        assert buf32.dtype == np.float32


class TestFloat32Contract:
    """float32 in gives float32 out, in every contraction kernel."""

    def test_contraction_kernels(self) -> None:
        rng = np.random.default_rng(0)

        def f32(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        u, s, vt = f32(5, 9, 4), f32(5, 4), f32(5, 4, 7)
        a1, a2 = f32(9, 3), f32(7, 2)
        au = project_left_chunk(u, a1=a1)
        av = project_right_chunk(vt, a2=a2)
        outs = [
            au,
            av,
            w_from_projections_chunk(au, s, av),
            mode1_from_projection_chunk(u, s, av),
            mode2_from_projection_chunk(au, s, vt),
        ]
        assert [o.dtype for o in outs] == [np.float32] * 5

def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemoryContract:
    """The sweep kernels work on the stored layout: no copy of the U stack."""

    def test_project_left_into_out_allocates_less_than_u(self) -> None:
        rng = np.random.default_rng(4)
        u = rng.standard_normal((300, 60, 10))
        a1 = rng.standard_normal((60, 4))
        out = np.empty((300, 4, 10))
        got, peak = _traced_peak(lambda: project_left_chunk(u, a1=a1, out=out))
        assert got is out
        assert peak < u.nbytes
        np.testing.assert_array_equal(out, project_left_chunk(u, a1=a1))

    def test_initialize_never_builds_the_scaled_block_matrix(self) -> None:
        # Wide case: the (I1, K·L) matrix [U_1 S_1 … U_L S_L] is 6.4 MB; the
        # blockwise Gram keeps the working set at one block of slices.
        from repro.core.slice_svd import SliceSVD

        rng = np.random.default_rng(5)
        l, i1, i2, k = 2000, 50, 40, 8
        u = np.linalg.qr(rng.standard_normal((l, i1, k)))[0]
        vt = np.swapaxes(np.linalg.qr(rng.standard_normal((l, i2, k)))[0], 1, 2)
        s = np.sort(rng.uniform(0.5, 2.0, (l, k)), axis=1)[:, ::-1]
        norms = (s * s).sum(axis=1)
        ssvd = SliceSVD(
            u=u, s=s, vt=vt, shape=(i1, i2, 40, 50),
            norm_squared=float(norms.sum()), slice_norms_squared=norms,
        )
        (_, factors), peak = _traced_peak(lambda: initialize(ssvd, (4, 4, 3, 3)))
        assert peak < i1 * k * l * 8
        blocks = np.moveaxis(u * s[:, None, :], 0, 1).reshape(i1, -1)
        from repro.linalg.svd import leading_left_singular_vectors

        ref = leading_left_singular_vectors(blocks, 4)
        np.testing.assert_allclose(factors[0], ref, atol=1e-10)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_dispatch_writes_the_callers_out(self, backend) -> None:
        from repro.kernels.contractions import dispatch_slices

        rng = np.random.default_rng(6)
        u = rng.standard_normal((240, 50, 8))
        a1 = rng.standard_normal((50, 6))
        ref = project_left_chunk(u, a1=a1)
        out = np.empty_like(ref)
        with backend_scope(backend, config=DTuckerConfig(n_workers=2)) as eng:
            got, peak = _traced_peak(
                lambda: dispatch_slices(
                    eng, project_left_chunk, 240, (u,), {"a1": a1}, out=out
                )
            )
        assert got is out
        np.testing.assert_array_equal(out, ref)
        if backend != "process":
            # In-process chunks write their rows of ``out`` in place; only
            # process workers return fresh chunks that are copied in.
            assert peak < out.nbytes


class TestModeProductOut:
    def test_out_matches_allocating_path(self) -> None:
        from repro.tensor.products import mode_product

        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 6, 7))
        a = rng.standard_normal((6, 3))
        ref = mode_product(x, a, 1, transpose=True)
        buf = np.empty((3, 5, 7))
        got = mode_product(x, a, 1, transpose=True, out=buf)
        np.testing.assert_array_equal(got, ref)

    def test_out_shape_mismatch_raises(self) -> None:
        from repro.exceptions import ShapeError
        from repro.tensor.products import mode_product

        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 6, 7))
        a = rng.standard_normal((6, 3))
        with pytest.raises(ShapeError):
            mode_product(x, a, 1, transpose=True, out=np.empty((5, 3, 7)))


class TestStreamingWorkspace:
    def test_streaming_accumulates_kernel_stats(self) -> None:
        from repro.core.streaming import StreamingDTucker

        rng = np.random.default_rng(0)
        model = StreamingDTucker((3, 3, 2), sweeps_per_update=2, seed=0)
        model.partial_fit(rng.standard_normal((10, 9, 4)))
        model.partial_fit(rng.standard_normal((10, 9, 3)))
        stats = model.kernel_stats_
        # No refresh on this stream: each update read the cached W once and
        # projected only its own slices, reusing the first block's 4.
        assert model.watchdog_triggers_ == 0
        assert stats.hits_for("w") == 2
        assert (stats.hits_for("stream:proj"), stats.misses_for("stream:proj")) == (4, 7)
