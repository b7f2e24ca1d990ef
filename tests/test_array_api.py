"""Tests for the pluggable array-namespace layer (``repro.engine.array_api``).

Strategy: torch/CuPy are optional extras that are typically absent in CI,
so the generic :class:`ArrayModule` code paths are exercised here through a
*pseudo-device* — a generic (non-subclassed) module wrapped around NumPy
itself, with the native-capability flags forced off.  That runs exactly the
emulation code a torch/strict namespace would run (``permute_dims`` reshape,
generic einsum contraction, ``concat``-based ``out=``), while every result
can be compared elementwise against the literal NumPy expression.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.linalg.svd as svd_module

from repro.core.config import DTuckerConfig
from repro.core.initialization import initialize
from repro.core.iteration import als_sweeps
from repro.core.slice_svd import compress
from repro.engine import SerialBackend
from repro.engine.array_api import (
    DEVICE_NAMES,
    NUMPY,
    ArrayModule,
    array_module_of,
    get_module,
    probe_namespaces,
    resolve_device,
)
from repro.engine.array_api import _MODULES
from repro.engine.trace import PhaseTrace
from repro.exceptions import BackendError
from repro.kernels import BufferPool, KernelStats, SweepWorkspace
from repro.kernels.compress_plan import (
    estimate_costs,
    estimate_device_costs,
    execute_plan,
    plan_compression,
    plan_from_config,
)
from repro.tensor.random import random_tensor


@pytest.fixture
def generic():
    """A generic ArrayModule over NumPy with all native shortcuts disabled.

    Runs the exact emulation branches a capability-poor namespace (the
    array-API standard) would take, on arrays we can compare bit-for-bit.
    """
    am = ArrayModule("generic-test", np)
    am.caps["native_einsum"] = False
    am.caps["native_kron"] = False
    return am


@pytest.fixture
def registered_generic(generic):
    """Temporarily register the generic module as a resolvable device."""
    _MODULES["generic-test"] = generic
    yield generic
    _MODULES.pop("generic-test", None)


# ---------------------------------------------------------------------------
# resolution & probing
# ---------------------------------------------------------------------------


class TestResolution:
    def test_default_is_numpy(self) -> None:
        am = resolve_device(None)
        assert am is NUMPY
        assert am.is_numpy

    def test_cpu_and_numpy_aliases(self) -> None:
        assert resolve_device("cpu") is NUMPY
        assert resolve_device("numpy") is NUMPY
        assert get_module("numpy") is NUMPY
        assert get_module("cpu") is NUMPY

    def test_module_passthrough(self, generic) -> None:
        assert resolve_device(generic) is generic

    def test_config_device_flows(self) -> None:
        cfg = DTuckerConfig(device="cpu")
        assert resolve_device(None, config=cfg) is NUMPY
        assert resolve_device("auto", config=cfg) is NUMPY

    def test_env_var_flows(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_DEVICE", "cpu")
        assert resolve_device(None) is NUMPY
        monkeypatch.setenv("REPRO_DEVICE", "nonsense")
        with pytest.raises(BackendError):
            resolve_device(None)

    def test_unknown_name_raises(self) -> None:
        with pytest.raises(BackendError, match="unknown device"):
            resolve_device("quantum")

    def test_config_rejects_unknown_device(self) -> None:
        with pytest.raises(BackendError):
            DTuckerConfig(device="quantum")

    def test_device_names_cover_config_choices(self) -> None:
        for name in ("auto", "cpu", "cuda", "numpy", "torch", "cupy"):
            assert name in DEVICE_NAMES

    def test_probe_reports_numpy(self) -> None:
        probed = probe_namespaces(refresh=True)
        assert probed["numpy"] is True
        assert set(probed) == {"numpy", "torch", "cupy", "array_api_strict"}

    def test_missing_namespace_message_is_actionable(self) -> None:
        probed = probe_namespaces()
        if probed["torch"]:  # pragma: no cover - torch present in some envs
            pytest.skip("torch installed; the missing-extra path is moot")
        with pytest.raises(BackendError, match="torch"):
            resolve_device("torch")

    def test_cuda_without_accelerator_raises(self) -> None:
        probed = probe_namespaces()
        if probed["torch"] or probed["cupy"]:  # pragma: no cover
            pytest.skip("a CUDA-capable namespace is importable here")
        with pytest.raises(BackendError, match="cuda"):
            resolve_device("cuda")

    def test_array_module_of_host_inputs(self) -> None:
        assert array_module_of(np.ones(3)) is NUMPY
        assert array_module_of([1, 2], 3.0, None) is NUMPY
        assert array_module_of() is NUMPY


# ---------------------------------------------------------------------------
# generic facade vs literal NumPy
# ---------------------------------------------------------------------------


EINSUM_CASES = [
    # The contraction patterns the kernels actually dispatch.
    ("lij,jk->lik", [(4, 5, 3), (3, 2)]),
    ("ji,ljk->lik", [(5, 2), (4, 5, 3)]),
    ("lij,lj,ljk->lik", [(4, 5, 3), (4, 3), (4, 3, 2)]),
    ("aj,lak->ljk", [(5, 2), (4, 5, 3)]),
    ("ij,ij->", [(6, 7), (6, 7)]),
    ("lij->l", [(4, 3, 2)]),
]


class TestGenericFacade:
    @pytest.mark.parametrize("subscripts,shapes", EINSUM_CASES)
    def test_generic_einsum_matches_numpy(self, generic, subscripts, shapes) -> None:
        rng = np.random.default_rng(0)
        ops = [rng.standard_normal(s) for s in shapes]
        want = np.einsum(subscripts, *ops)
        got = generic.einsum(subscripts, *ops)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_generic_einsum_out(self, generic) -> None:
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((4, 5, 3)), rng.standard_normal((3, 2))
        out = np.empty((4, 5, 2))
        res = generic.einsum("lij,jk->lik", a, b, out=out)
        assert res is out
        np.testing.assert_allclose(out, np.einsum("lij,jk->lik", a, b))

    @pytest.mark.parametrize(
        "shape,new",
        [((6, 4), (4, 6)), ((3, 4, 5), (12, 5)), ((3, 4, 5), (5, -1)), ((2, 3, 4, 5), (6, 20))],
    )
    def test_forder_reshape(self, generic, shape, new) -> None:
        x = np.arange(int(np.prod(shape)), dtype=float).reshape(shape)
        want = np.reshape(x, new, order="F")
        got = generic.reshape(x, new, order="F")
        np.testing.assert_array_equal(got, want)

    def test_corder_reshape(self, generic) -> None:
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(
            generic.reshape(x, (6, 4)), x.reshape(6, 4)
        )

    def test_axis_moves(self, generic) -> None:
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(generic.moveaxis(x, 0, 2), np.moveaxis(x, 0, 2))
        np.testing.assert_array_equal(generic.swapaxes(x, 0, 1), np.swapaxes(x, 0, 1))
        np.testing.assert_array_equal(generic.mT(x), np.swapaxes(x, -1, -2))

    def test_kron_emulation(self, generic) -> None:
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
        np.testing.assert_allclose(generic.kron(a, b), np.kron(a, b))

    def test_concatenate_out(self, generic) -> None:
        parts = [np.ones((2, 3)), 2.0 * np.ones((3, 3))]
        out = np.empty((5, 3))
        res = generic.concatenate(parts, axis=0, out=out)
        assert res is out
        np.testing.assert_array_equal(out, np.concatenate(parts, axis=0))

    def test_take_flat_and_diagonal(self, generic) -> None:
        x = np.arange(20.0).reshape(4, 5)
        idx = np.array([0, 7, 19])
        np.testing.assert_array_equal(generic.take_flat(x, idx), x.ravel()[idx])
        np.testing.assert_array_equal(generic.diagonal(x), np.diagonal(x))

    def test_transfers_round_trip_and_copy(self, generic) -> None:
        x = np.arange(12.0).reshape(3, 4)
        dev = generic.to_device(x)
        back = generic.from_device(dev)
        np.testing.assert_array_equal(back, x)
        back[0, 0] = -1.0  # independent copy: the "device" array is untouched
        assert dev[0, 0] == 0.0

    def test_to_device_dtype_cast(self, generic) -> None:
        x = np.arange(6.0)
        assert generic.to_device(x, dtype=np.float32).dtype == np.float32

    def test_host_rng_determinism(self, generic) -> None:
        draw_a = generic.standard_normal((3, 4), np.float64, np.random.default_rng(7))
        draw_b = np.random.default_rng(7).standard_normal((3, 4))
        np.testing.assert_array_equal(generic.from_device(draw_a), draw_b)

    def test_float64_accumulators(self, generic) -> None:
        x = np.random.default_rng(3).standard_normal((50, 40)).astype(np.float32)
        assert generic.sum_float64(x) == pytest.approx(float(x.astype(np.float64).sum()))
        assert generic.vdot_float64(x) == pytest.approx(
            float(np.vdot(x.astype(np.float64), x.astype(np.float64)))
        )

    def test_numpy_module_is_literal(self) -> None:
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 4))
        u1, s1, v1 = NUMPY.svd(a, full_matrices=False)
        u2, s2, v2 = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(v1, v2)
        b = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(NUMPY.matmul(a, b), a @ b)
        out = np.empty((6, 3))
        NUMPY.gemm_into(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_eigh_top_is_the_top_of_the_full_eigh(self, generic, dtype) -> None:
        rng = np.random.default_rng(5)
        b = rng.standard_normal((30, 40))
        g = (b @ b.T).astype(dtype)
        w_full, v_full = np.linalg.eigh(g)
        # Only the lower triangle is read.
        lower = np.tril(g) + np.triu(np.full_like(g, 7.0), 1)
        for am in (generic, NUMPY):
            w, v = am.eigh_top(lower, 4)
            assert w.dtype == v.dtype == dtype
            np.testing.assert_array_equal(w, w_full[-4:])
            np.testing.assert_array_equal(v, v_full[:, -4:])

    def test_nbytes_and_np_dtype(self, generic) -> None:
        x = np.zeros((3, 5), dtype=np.float32)
        assert generic.nbytes(x) == x.nbytes
        assert generic.np_dtype(x) == np.float32


# ---------------------------------------------------------------------------
# transfer accounting
# ---------------------------------------------------------------------------


class TestXferAccounting:
    def test_kernel_stats_record_transfer(self) -> None:
        stats = KernelStats()
        stats.record_transfer("h2d", 1024)
        stats.record_transfer("h2d", 1024)
        stats.record_transfer("d2h", 512)
        assert stats.bytes_h2d == 2048
        assert stats.bytes_d2h == 512
        assert stats.counts["xfer:h2d"][1] == 2
        assert stats.counts["xfer:d2h"][1] == 1
        assert "xfer=" in stats.summary()

    def test_kernel_stats_delta_and_copy(self) -> None:
        stats = KernelStats()
        stats.record_transfer("h2d", 100)
        before = stats.copy()
        stats.record_transfer("h2d", 50)
        stats.record_transfer("d2h", 25)
        d = stats.delta(before)
        assert d.bytes_h2d == 50
        assert d.bytes_d2h == 25

    def test_phase_trace_xfer_summary(self) -> None:
        tr = PhaseTrace(phase="iteration", backend="serial", n_workers=1)
        tr.counters.record_transfer("h2d", 3 * 2**20)
        tr.counters.record_transfer("d2h", 2**20)
        tr.device = "generic-test"
        line = tr.summary()
        assert "device=generic-test" in line
        assert "xfer=3.0MiB>/1.0MiB<" in line

    def test_phase_trace_cpu_has_no_xfer_segment(self) -> None:
        tr = PhaseTrace(phase="iteration", backend="serial", n_workers=1)
        assert "xfer=" not in tr.summary()


# ---------------------------------------------------------------------------
# device-aware planning
# ---------------------------------------------------------------------------


class TestDevicePlanning:
    def test_cpu_plan_is_unchanged(self) -> None:
        plan = plan_compression(64, 48, 8)
        assert plan.device == "cpu"
        assert plan.device_costs == {}
        assert plan.as_dict()["device"] == "cpu"

    def test_estimate_device_costs_ranking(self) -> None:
        # Compute-dominated: a big exact SVD amortises the transfer.
        big = estimate_device_costs(
            2048, 2048, 32, method_cost=estimate_costs(2048, 2048, 32)["exact"]
        )
        assert big["cuda"] < big["cpu"]
        # Transfer-dominated: a tiny gram factorization is not worth the trip.
        small = estimate_device_costs(
            16, 16, 4, method_cost=estimate_costs(16, 16, 4)["gram"]
        )
        assert small["cpu"] < small["cuda"]

    def test_device_costs_scale_with_slices(self) -> None:
        one = estimate_device_costs(128, 96, 8, method_cost=1e6, n_slices=1)
        ten = estimate_device_costs(128, 96, 8, method_cost=1e6, n_slices=10)
        assert ten["cpu"] == pytest.approx(10 * one["cpu"])
        assert ten["cuda"] == pytest.approx(10 * one["cuda"])

    def test_auto_strategy_places_by_cost(self) -> None:
        heavy = plan_compression(
            2048, 2048, 32, strategy="auto", exact_slice_svd=True, device="cuda"
        )
        assert heavy.device == "cuda"
        assert set(heavy.device_costs) == {"cpu", "cuda"}
        light = plan_compression(16, 16, 4, strategy="auto", device="cuda")
        assert light.device == "cpu"
        assert light.device_costs  # the offer was considered, not ignored

    def test_explicit_strategy_honours_offered_device(self) -> None:
        plan = plan_compression(16, 16, 4, strategy="gram", device="cuda")
        assert plan.device == "cuda"

    def test_auto_device_spec_normalises_to_cpu(self) -> None:
        for spec in ("auto", "numpy", ""):
            assert plan_compression(32, 32, 4, device=spec).device == "cpu"

    def test_plan_from_config_default_is_cpu(self) -> None:
        plan = plan_from_config(32, 24, 4, DTuckerConfig())
        assert plan.device == "cpu"

    def test_execute_plan_on_pseudo_device(self, registered_generic) -> None:
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, 20, 16))
        for strategy in ("exact", "gram", "rsvd"):
            cpu_plan = plan_compression(20, 16, 4, strategy=strategy)
            dev_plan = plan_compression(
                20, 16, 4, strategy=strategy, device="generic-test"
            )
            assert dev_plan.device == "generic-test"
            with SerialBackend() as eng:
                u0, s0, v0, n0 = execute_plan(eng, stack, 4, cpu_plan, rng=11)
                stats = KernelStats()
                u1, s1, v1, n1 = execute_plan(
                    eng, stack, 4, dev_plan, rng=11, stats=stats
                )
            np.testing.assert_array_equal(n1, n0)  # norms accumulate on host
            np.testing.assert_allclose(s1, s0, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(
                np.einsum("lik,lk,lkj->lij", u1, s1, v1),
                np.einsum("lik,lk,lkj->lij", u0, s0, v0),
                rtol=1e-7,
                atol=1e-9,
            )
            assert stats.bytes_h2d >= stack.nbytes
            assert stats.bytes_d2h > 0
            assert all(type(arr) is np.ndarray for arr in (u1, s1, v1))


# ---------------------------------------------------------------------------
# device-resident sweeps
# ---------------------------------------------------------------------------


def _problem(shape=(12, 11, 8), ranks=(3, 3, 2)):
    x = random_tensor(shape, ranks, rng=1, noise=0.02)
    ssvd = compress(x, max(ranks[:2]) + 2, rng=0)
    _, factors = initialize(ssvd, ranks)
    return ssvd, ranks, factors


class TestDeviceSweeps:
    def test_workspace_uploads_are_tallied(self, generic) -> None:
        ssvd, ranks, factors = _problem()
        ws = SweepWorkspace(ssvd, module=generic)
        assert ws.engine is None  # device slabs run inline
        expected = ssvd.u.nbytes + ssvd.s.nbytes + ssvd.vt.nbytes
        assert ws.stats.bytes_h2d == expected
        ws.bind_factors(factors)
        assert ws.stats.bytes_h2d == expected + sum(f.nbytes for f in factors)

    def test_device_sweeps_match_numpy(self, registered_generic) -> None:
        ssvd, ranks, factors = _problem()
        cpu = als_sweeps(ssvd, ranks, factors, config=DTuckerConfig(max_iters=4))
        ws = SweepWorkspace(ssvd, module=registered_generic)
        dev = als_sweeps(
            ssvd, ranks, factors, config=DTuckerConfig(max_iters=4), workspace=ws
        )
        # Same math through the generic branches: equal to round-off.
        np.testing.assert_allclose(dev.core, cpu.core, rtol=1e-9, atol=1e-11)
        for a, b in zip(dev.factors, cpu.factors):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dev.errors, cpu.errors, rtol=1e-9)
        # Results land on the host, with the downloads tallied.
        assert type(dev.core) is np.ndarray
        assert all(type(f) is np.ndarray for f in dev.factors)
        assert dev.kernel_stats.bytes_d2h > 0

    def test_env_device_reaches_als_sweeps(self, registered_generic, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_DEVICE", "generic-test")
        ssvd, ranks, factors = _problem()
        res = als_sweeps(ssvd, ranks, factors, config=DTuckerConfig(max_iters=2))
        assert res.kernel_stats.bytes_h2d > 0
        assert res.kernel_stats.bytes_d2h > 0
        assert type(res.core) is np.ndarray


# ---------------------------------------------------------------------------
# float32 compute-dtype discipline (regression: silent float64 upcasts)
# ---------------------------------------------------------------------------


class TestComputeDtype:
    def test_float64_default_is_identity(self) -> None:
        ssvd, ranks, factors = _problem()
        ws = SweepWorkspace(ssvd)
        # No cast, no copy: the views alias the stored representation.
        assert ws._u is ssvd.u or ws._u.base is ssvd.u
        assert ws.compute_dtype == np.float64

    def test_every_cached_projection_is_float32(self) -> None:
        ssvd, ranks, factors = _problem()
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
        ssvd, ranks, factors = _problem()
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
    """float32 in gives float32 out, in every helper the float32 path uses."""

    @staticmethod
    def _f32(*shape, seed=0):
        return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)

    def test_single_matrix_helpers(self) -> None:
        from repro.linalg.rsvd import randomized_range_finder, rsvd
        from repro.linalg.svd import leading_left_singular_vectors, solve_gram

        a = self._f32(30, 20)
        assert all(f.dtype == np.float32 for f in rsvd(a, 4, rng=0))
        assert randomized_range_finder(a, 6, rng=0).dtype == np.float32
        # Thin-SVD branch, wide (Gram) branch, and basis completion.
        assert leading_left_singular_vectors(a, 5).dtype == np.float32
        assert leading_left_singular_vectors(self._f32(6, 40), 3).dtype == np.float32
        assert leading_left_singular_vectors(self._f32(8, 3), 6).dtype == np.float32
        g = a.T @ a
        rhs = self._f32(20, 2, seed=1)
        assert solve_gram(g, rhs).dtype == np.float32
        assert solve_gram(g, rhs, ridge=0.5).dtype == np.float32
        np.testing.assert_allclose(
            solve_gram(g, rhs, ridge=0.5),
            solve_gram(g.astype(float), rhs.astype(float), ridge=0.5),
            rtol=1e-3, atol=1e-4,
        )

    def test_contraction_kernels(self) -> None:
        from repro.kernels.contractions import (
            mode1_from_projection_chunk,
            mode2_from_projection_chunk,
            project_left_chunk,
            project_right_chunk,
            w_from_projections_chunk,
        )

        u, s, vt = self._f32(5, 9, 4), self._f32(5, 4), self._f32(5, 4, 7)
        a1, a2 = self._f32(9, 3, seed=1), self._f32(7, 2, seed=2)
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

    def test_blockwise_gram_on_a_float32_fit(self) -> None:
        # SliceSVD stores float64, so a precision="float32" fit initializes
        # from float64 slices; its float32 sweep workspace casts the stacks
        # once, and the blockwise Gram keeps whatever dtype it is given.
        from repro.core.dtucker import DTucker
        from repro.core.initialization import scaled_gram
        from repro.linalg.svd import gram_leading_eigenvectors

        x = random_tensor((20, 18, 30), (3, 3, 2), rng=0, noise=0.01)
        model = DTucker((3, 3, 2), config=DTuckerConfig(precision="float32", seed=0))
        sv = model.fit(x).slice_svd_
        ws = SweepWorkspace(sv, compute_dtype=np.float32)
        for stack, right in ((ws._u, False), (ws._vt, True)):
            g32 = scaled_gram(stack, ws._s, right=right)
            assert g32.dtype == np.float32
            assert gram_leading_eigenvectors(g32, 3).dtype == np.float32
            g64 = scaled_gram(sv.vt if right else sv.u, sv.s, right=right)
            assert g64.dtype == np.float64
            np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-3)


# ---------------------------------------------------------------------------
# one compute path
# ---------------------------------------------------------------------------


class TestOneComputePath:
    def test_robust_svd_falls_back_to_gesvd_off_numpy(self, generic, monkeypatch) -> None:
        a = np.random.default_rng(8).standard_normal((9, 6))
        calls = []

        def flaky_svd(arr, full_matrices=False):
            calls.append(arr)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return ArrayModule.svd(generic, arr, full_matrices=full_matrices)

        monkeypatch.setattr(generic, "svd", flaky_svd)
        monkeypatch.setattr(svd_module, "array_module_of", lambda *arrays: generic)
        u, s, vt = svd_module.robust_svd(a)
        assert len(calls) == 1  # gesdd tried once, then gesvd on the host
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-10)
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), atol=1e-10)

    def test_only_namespace_observing_sites_branch_on_is_numpy(self) -> None:
        # Each of these chooses by the namespace it observes rather than
        # repeating math for NumPy; any other fork duplicates a facade body.
        allowed = sorted([
            ("engine/array_api.py", "def is_numpy"),  # ArrayModule
            ("engine/array_api.py", "def is_numpy"),  # NumpyModule
            ("kernels/workspace.py", "__init__"),  # engine bypass
            ("kernels/workspace.py", "update_factor"),  # h2d accounting
            ("core/iteration.py", "als_sweeps"),  # d2h download
            ("kernels/compress_plan.py", "plan_from_config"),  # device label
            ("validation.py", "as_tensor"),  # boundary input checking
        ])
        root = Path(svd_module.__file__).resolve().parents[1]
        found = []

        def walk(node, func, rel):
            for child in ast.iter_child_nodes(node):
                inner = func
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if child.name == "is_numpy":
                        found.append((rel, "def is_numpy"))
                    inner = child.name
                elif isinstance(child, ast.Attribute) and child.attr == "is_numpy":
                    found.append((rel, func))
                walk(child, inner, rel)

        for path in sorted(root.rglob("*.py")):
            walk(ast.parse(path.read_text()), None, path.relative_to(root).as_posix())
        assert sorted(found) == allowed
