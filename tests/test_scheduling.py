"""Tests for the cost-aware scheduling layer (`repro.engine` + cost models).

Pins the four contracts of the scheduler:

* **bit-identity** — factors/cores/compressions are identical under every
  ``schedule`` on every backend, for orders 3–5, remainder chunk plans and
  the single-worker degenerate cases;
* **planning** — ``plan_dynamic_chunks`` oversplits correctly, cost-aware
  boundaries balance skewed work, explicit ``chunk_size`` pins granularity
  under both policies, and undersubscribing plans warn;
* **telemetry** — dynamic dispatches surface schedule labels, per-worker
  busy time, queue wait, steal counts and the imbalance ratio;
* **BLAS capping** — ``limit_blas_threads`` is no-op-safe on both the
  threadpoolctl path and the ctypes fallback.
"""

from __future__ import annotations

import logging
import sys
import types

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker
from repro.core.slice_svd import compress
from repro.engine import (
    OVERSPLIT,
    ArrayCost,
    CommCost,
    CostModel,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    UniformCost,
    as_cost_array,
    chunk_costs,
    chunked,
    combine_costs,
    plan_chunks,
    plan_dynamic_chunks,
    resolve_backend,
    resolve_schedule,
)
from repro.engine import blas as blas_module
from repro.exceptions import BackendError, ShapeError
from repro.tensor.random import random_tensor

BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def _scale_chunk(rows: np.ndarray, *, scale: float, out=None) -> np.ndarray:
    """Module-level kernel (picklable) whose output encodes item identity."""
    return np.multiply(rows, scale, out=out)


def _square(x: float) -> float:
    return x * x


# -- schedule resolution -----------------------------------------------------

class TestResolveSchedule:
    def test_explicit_pass_through(self) -> None:
        assert resolve_schedule("static", 8, 100) == "static"
        assert resolve_schedule("dynamic", 1, 2) == "dynamic"

    @pytest.mark.parametrize("spec", [None, "auto"])
    def test_auto_needs_workers_and_oversplit_room(self, spec) -> None:
        assert resolve_schedule(spec, 4, 100) == "dynamic"
        assert resolve_schedule(spec, 1, 100) == "static"
        assert resolve_schedule(spec, 4, 4) == "static"
        assert resolve_schedule(spec, 4, 3) == "static"

    def test_invalid_rejected(self) -> None:
        with pytest.raises(BackendError):
            resolve_schedule("eager", 4, 10)

    def test_backend_constructor_validates(self) -> None:
        with pytest.raises(BackendError):
            SerialBackend(schedule="eager")

    def test_config_validates(self) -> None:
        with pytest.raises(BackendError):
            DTuckerConfig(schedule="eager")
        assert DTuckerConfig(schedule="dynamic").schedule == "dynamic"

    def test_env_override(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("REPRO_SCHEDULE", "static")
        with resolve_backend("thread", config=DTuckerConfig(n_workers=2)) as eng:
            assert eng.schedule == "static"

    def test_env_invalid(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("REPRO_SCHEDULE", "eager")
        with pytest.raises(BackendError):
            resolve_backend("serial")

    def test_config_schedule_flows_to_backend(self) -> None:
        cfg = DTuckerConfig(schedule="dynamic", n_workers=2)
        with resolve_backend("thread", config=cfg) as eng:
            assert eng.schedule == "dynamic"


# -- cost models -------------------------------------------------------------

class TestCostModels:
    def test_none_is_dropped(self) -> None:
        assert as_cost_array(None, 5) is None

    def test_uniform_model_is_flat(self) -> None:
        np.testing.assert_array_equal(
            as_cost_array(UniformCost(), 5), np.ones(5)
        )

    def test_array_cost_slices(self) -> None:
        model = ArrayCost([3.0, 1.0, 2.0, 5.0])
        np.testing.assert_array_equal(
            model.slice(1, 3).item_costs(2), [1.0, 2.0]
        )

    def test_as_cost_array_validates(self) -> None:
        with pytest.raises(ShapeError):
            as_cost_array([1.0, 2.0], 3)  # wrong length
        with pytest.raises(ShapeError):
            as_cost_array([1.0, -2.0], 2)  # negative
        with pytest.raises(ShapeError):
            as_cost_array([[1.0], [2.0]], 2)  # not 1-D

    def test_all_zero_treated_as_uniform(self) -> None:
        assert as_cost_array([0.0, 0.0, 0.0], 3) is None

    @pytest.mark.parametrize(
        "spec",
        [
            np.array([1.0, 2.0, 3.0]),
            [1.0, 2.0, 3.0],
            (1.0, 2.0, 3.0),
            np.array([1, 2, 3]),
        ],
        ids=["ndarray", "list", "tuple", "int-ndarray"],
    )
    def test_array_likes_are_weights(self, spec) -> None:
        out = as_cost_array(spec, 3)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "model, expected",
        [
            (UniformCost(2.0), [2.0, 2.0, 2.0]),
            (ArrayCost(np.array([3.0, 1.0, 2.0])), [3.0, 1.0, 2.0]),
            (CommCost(np.array([10.0, 20.0, 30.0]), 0.5), [5.0, 10.0, 15.0]),
            (CommCost(np.float64(4.0), 2.0), [8.0, 8.0, 8.0]),
        ],
        ids=["uniform", "array", "comm", "comm-scalar"],
    )
    def test_each_cost_model_class(self, model, expected) -> None:
        np.testing.assert_array_equal(as_cost_array(model, 3), expected)

    def test_models_are_duck_typed(self) -> None:
        class Ramp:
            def item_costs(self, n_items: int) -> np.ndarray:
                return np.arange(1.0, n_items + 1.0)

        np.testing.assert_array_equal(as_cost_array(Ramp(), 3), [1.0, 2.0, 3.0])
        # CostModel is a static-typing protocol only: no runtime isinstance
        # check (and its cost) sits on the dispatch path.
        with pytest.raises(TypeError):
            isinstance(UniformCost(), CostModel)

    @pytest.mark.parametrize(
        "spec, n",
        [
            (np.array([1.0, 2.0]), 3),
            ([1.0, np.nan], 2),
            ((1.0, np.inf), 2),
            (np.array([1.0, -1.0]), 2),
            (np.ones((2, 1)), 2),
            (ArrayCost(np.array([1.0, 2.0])), 3),
            (CommCost(np.array([1.0, 2.0])), 3),
            (ArrayCost(np.array([1.0, -2.0])), 2),
        ],
        ids=[
            "short-ndarray", "nan-list", "inf-tuple", "negative", "2-d",
            "array-model-length", "comm-model-length", "negative-model",
        ],
    )
    def test_shape_errors(self, spec, n) -> None:
        with pytest.raises(ShapeError):
            as_cost_array(spec, n)

    def test_combine_costs(self) -> None:
        out = combine_costs([1.0, 2.0], [10.0, 0.0], io_weight=0.5)
        np.testing.assert_allclose(out, [6.0, 2.0])


# -- chunk planning ----------------------------------------------------------

class TestDynamicPlanning:
    def test_single_worker_single_chunk(self) -> None:
        assert plan_dynamic_chunks(10, 1) == [(0, 10)]

    def test_oversplits_up_to_factor(self) -> None:
        plan = plan_dynamic_chunks(100, 4)
        assert len(plan) == 4 * OVERSPLIT
        assert plan[0][0] == 0 and plan[-1][1] == 100
        assert all(plan[i][1] == plan[i + 1][0] for i in range(len(plan) - 1))

    def test_fewer_items_than_tasks(self) -> None:
        plan = plan_dynamic_chunks(5, 4)
        assert len(plan) == 5
        assert all(b - a == 1 for a, b in plan)

    def test_explicit_chunk_size_pins_granularity(self) -> None:
        assert plan_dynamic_chunks(10, 4, chunk_size=4) == plan_chunks(
            10, 4, chunk_size=4
        )

    def test_cost_balanced_boundaries(self) -> None:
        costs = np.array([100.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        plan = plan_dynamic_chunks(6, 2, costs=costs, oversplit=1)
        weights = chunk_costs(plan, costs)
        # The heavy head is isolated instead of dragging half the range.
        assert plan[0] == (0, 1)
        assert weights[0] == 100.0

    def test_uniform_costs_match_equal_count(self) -> None:
        uniform = np.ones(11)
        assert plan_chunks(11, 3, costs=uniform) == plan_chunks(11, 3)

    def test_undersubscription_warns(
        self, caplog: pytest.LogCaptureFixture
    ) -> None:
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            plan = plan_chunks(10, 4, chunk_size=10)
        assert plan == [(0, 10)]
        assert any("idle" in rec.getMessage() for rec in caplog.records)

    def test_well_subscribed_explicit_size_is_silent(
        self, caplog: pytest.LogCaptureFixture
    ) -> None:
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            plan_chunks(10, 4, chunk_size=2)
        assert not caplog.records


# -- bit-identity across backends and schedules ------------------------------

def _reference(kind: str, x: np.ndarray, ranks: tuple[int, ...]):
    cfg = DTuckerConfig(seed=0, backend="serial")
    if kind == "compress":
        return compress(x, 3, config=cfg)
    return DTucker(ranks, config=cfg).fit(x)


def _assert_compress_equal(got, ref) -> None:
    np.testing.assert_array_equal(got.u, ref.u)
    np.testing.assert_array_equal(got.s, ref.s)
    np.testing.assert_array_equal(got.vt, ref.vt)


class TestBitIdentity:
    #: Orders 3-5; the trailing-mode products are deliberately not multiples
    #: of the worker counts so every plan carries a remainder chunk.
    SHAPES = {
        3: ((18, 12, 7), (3, 3, 2)),
        4: ((14, 10, 3, 3), (3, 3, 2, 2)),
        5: ((12, 9, 3, 2, 2), (3, 3, 2, 2, 2)),
    }

    @pytest.mark.parametrize("order", [3, 4, 5])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_compress_matches_serial_static(
        self, order: int, backend: str, schedule: str
    ) -> None:
        shape, ranks = self.SHAPES[order]
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ref = _reference("compress", x, ranks)
        cfg = DTuckerConfig(
            seed=0, backend=backend, n_workers=3, schedule=schedule
        )
        _assert_compress_equal(compress(x, 3, config=cfg), ref)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_fit_matches_serial_static(
        self, backend: str, schedule: str
    ) -> None:
        shape, ranks = self.SHAPES[4]
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ref = _reference("fit", x, ranks)
        cfg = DTuckerConfig(
            seed=0, backend=backend, n_workers=3, schedule=schedule
        )
        got = DTucker(ranks, config=cfg).fit(x)
        np.testing.assert_array_equal(got.result_.core, ref.result_.core)
        for a, b in zip(got.result_.factors, ref.result_.factors):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_single_worker_dynamic_degenerates_to_static(
        self, backend: str
    ) -> None:
        shape, ranks = self.SHAPES[3]
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ref = _reference("compress", x, ranks)
        cfg = DTuckerConfig(
            seed=0, backend=backend, n_workers=1, schedule="dynamic"
        )
        _assert_compress_equal(compress(x, 3, config=cfg), ref)

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_remainder_chunk_size_parity(self, schedule: str) -> None:
        shape, ranks = self.SHAPES[3]
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ref = _reference("compress", x, ranks)
        cfg = DTuckerConfig(
            seed=0, backend="thread", n_workers=3, chunk_size=3,
            schedule=schedule,  # 7 slices / chunk_size 3 -> remainder chunk
        )
        _assert_compress_equal(compress(x, 3, config=cfg), ref)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_chunked_with_costs_preserves_order(self, backend: str) -> None:
        """Skewed costs + LPT submission still reduce in range order."""
        rows = np.arange(23, dtype=float).reshape(23, 1)
        costs = np.r_[np.full(3, 50.0), np.ones(20)]
        with BACKENDS[backend](n_workers=3) as eng:
            got = chunked(
                eng, _scale_chunk, 23, slabs=(rows,),
                broadcast={"scale": 2.0}, out=np.empty_like(rows),
                costs=costs, schedule="dynamic",
            )
        np.testing.assert_array_equal(got, rows * 2.0)

    def test_map_with_costs_preserves_order(self) -> None:
        costs = [5.0, 1.0, 9.0, 1.0, 2.0, 7.0]
        with ThreadBackend(n_workers=3) as eng:
            got = eng.map(
                _square, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                costs=costs, schedule="dynamic",
            )
        assert got == [1.0, 4.0, 9.0, 16.0, 25.0, 36.0]

    def test_process_map_with_costs_preserves_order(self) -> None:
        costs = [5.0, 1.0, 9.0, 1.0]
        with ProcessBackend(n_workers=2) as eng:
            got = eng.map(
                _square, [1.0, 2.0, 3.0, 4.0], costs=costs, schedule="dynamic"
            )
        assert got == [1.0, 4.0, 9.0, 16.0]


# -- telemetry ---------------------------------------------------------------

class TestTelemetry:
    def test_dynamic_dispatch_records_schedule_and_balance(self) -> None:
        rows = np.arange(40, dtype=float).reshape(40, 1)
        with ThreadBackend(n_workers=2) as eng:
            with eng.phase("bench") as trace:
                chunked(
                    eng, _scale_chunk, 40, slabs=(rows,),
                    broadcast={"scale": 1.0}, out=np.empty_like(rows),
                    schedule="dynamic",
                )
        assert trace.schedules == ["dynamic"]
        assert trace.n_tasks == 2 * OVERSPLIT
        assert trace.steals >= 0
        assert trace.queue_wait_seconds >= 0.0
        assert trace.busy_seconds_per_worker
        assert trace.imbalance_ratio() >= 1.0
        assert "sched=dynamic" in trace.summary()
        assert "imbalance=" in trace.summary()

    def test_static_dispatch_records_schedule(self) -> None:
        rows = np.ones((8, 2))
        with ThreadBackend(n_workers=2) as eng:
            with eng.phase("bench") as trace:
                chunked(
                    eng, _scale_chunk, 8, slabs=(rows,),
                    broadcast={"scale": 1.0}, out=np.empty_like(rows),
                    schedule="static",
                )
        assert trace.schedules == ["static"]
        assert trace.steals == 0 or trace.steals > 0  # tallied, never None

    def test_serial_single_chunk_skips_dispatch_label(self) -> None:
        rows = np.ones((8, 2))
        with SerialBackend() as eng:
            with eng.phase("bench") as trace:
                chunked(
                    eng, _scale_chunk, 8, slabs=(rows,),
                    broadcast={"scale": 1.0}, out=np.empty_like(rows),
                )
        assert trace.schedules == []
        assert trace.n_tasks == 1
        assert trace.busy_seconds_per_worker  # serial still reports busy time


# -- BLAS thread capping -----------------------------------------------------

def _stub_threadpoolctl(calls: list) -> types.ModuleType:
    stub = types.ModuleType("threadpoolctl")

    class _Limits:
        def __init__(self, limits=None, user_api=None):
            calls.append((limits, user_api))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            calls.append("exit")
            return False

    stub.threadpool_limits = _Limits
    stub.threadpool_info = lambda: [
        {"user_api": "blas", "num_threads": 6},
        {"user_api": "openmp", "num_threads": 2},
    ]
    return stub


class TestBlasCapping:
    def test_noop_safe_without_threadpoolctl(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """The ctypes path never raises, whatever the probe found."""
        monkeypatch.setattr(blas_module, "_THREADPOOLCTL", None)
        with blas_module.limit_blas_threads(2) as applied:
            assert applied in (True, False)
        # Twice in a row: the cached probe result stays consistent.
        with blas_module.limit_blas_threads(1) as applied_again:
            assert applied_again == applied

    def test_noop_when_no_controls_at_all(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        monkeypatch.setattr(blas_module, "_THREADPOOLCTL", None)
        monkeypatch.setattr(blas_module, "_CONTROLS", None)
        with blas_module.limit_blas_threads(2) as applied:
            assert applied is False
        assert blas_module.current_blas_threads() is None

    def test_prefers_threadpoolctl(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        calls: list = []
        monkeypatch.setitem(
            sys.modules, "threadpoolctl", _stub_threadpoolctl(calls)
        )
        monkeypatch.setattr(blas_module, "_THREADPOOLCTL", False)  # re-probe
        try:
            with blas_module.limit_blas_threads(3) as applied:
                assert applied is True
            assert calls == [(3, "blas"), "exit"]
            assert blas_module.current_blas_threads() == 6
        finally:
            monkeypatch.setattr(blas_module, "_THREADPOOLCTL", False)

    def test_broken_threadpoolctl_degrades(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        stub = types.ModuleType("threadpoolctl")  # no threadpool_limits
        monkeypatch.setitem(sys.modules, "threadpoolctl", stub)
        monkeypatch.setattr(blas_module, "_THREADPOOLCTL", False)
        try:
            assert blas_module._threadpoolctl() is None
            with blas_module.limit_blas_threads(2):
                pass  # must not raise on the fallback path
        finally:
            monkeypatch.setattr(blas_module, "_THREADPOOLCTL", False)

    def test_floor_of_one_thread(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        calls: list = []
        monkeypatch.setitem(
            sys.modules, "threadpoolctl", _stub_threadpoolctl(calls)
        )
        monkeypatch.setattr(blas_module, "_THREADPOOLCTL", False)
        try:
            with blas_module.limit_blas_threads(0):
                pass
            assert calls[0] == (1, "blas")
        finally:
            monkeypatch.setattr(blas_module, "_THREADPOOLCTL", False)
