"""Tests for the engine's one chunk plan (`repro.engine.chunking`).

Pins the four contracts of the plan:

* **bit-identity** — factors/cores/compressions are identical under the
  default oversplit plan and under one chunk per worker, on every
  backend, for orders 3–5, remainder chunk plans and the single-worker
  case;
* **planning** — ``plan_chunks`` makes one chunk on one worker and
  ``OVERSPLIT`` equal-count chunks per worker on more, an explicit
  ``chunk_size`` pins the plan, undersubscribing plans warn, and no
  schedule or cost knob is left to set;
* **load balance** — on a skewed GIL-releasing workload the default plan
  beats one chunk per worker by >= 1.3x, and parallel dispatches surface
  per-worker busy time, queue wait, steal counts and the imbalance ratio;
* **BLAS capping** — ``limit_blas_threads`` is no-op-safe on both the
  threadpoolctl path and the ctypes fallback.
"""

from __future__ import annotations

import dataclasses
import inspect
import logging
import math
import statistics
import sys
import time
import types

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker
from repro.core.slice_svd import compress
from repro.engine import (
    OVERSPLIT,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    chunked,
    plan_chunks,
    resolve_backend,
)
from repro.engine import blas as blas_module
from repro.tensor.random import random_tensor
from repro.tensor.slices import slice_count

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


# -- chunk planning ----------------------------------------------------------

class TestDynamicPlanning:
    def test_single_worker_single_chunk(self) -> None:
        assert plan_chunks(10, 1) == [(0, 10)]

    def test_oversplits_up_to_factor(self) -> None:
        plan = plan_chunks(100, 4)
        assert len(plan) == 4 * OVERSPLIT
        assert plan[0][0] == 0 and plan[-1][1] == 100
        assert all(plan[i][1] == plan[i + 1][0] for i in range(len(plan) - 1))
        sizes = {b - a for a, b in plan}
        assert max(sizes) - min(sizes) <= 1  # equal counts

    def test_fewer_items_than_tasks(self) -> None:
        plan = plan_chunks(5, 4)
        assert len(plan) == 5
        assert all(b - a == 1 for a, b in plan)

    def test_explicit_chunk_size_pins_granularity(self) -> None:
        assert plan_chunks(10, 4, chunk_size=4) == [(0, 4), (4, 8), (8, 10)]
        assert plan_chunks(10, 1, chunk_size=4) == [(0, 4), (4, 8), (8, 10)]

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


class TestOnePlan:
    """The plan comes from the item and worker counts alone: no knob picks it."""

    @pytest.mark.parametrize(
        "fn",
        [
            chunked,
            plan_chunks,
            ExecutionBackend.map,
            SerialBackend.map_completed,
            ThreadBackend.map_completed,
            ProcessBackend.map_completed,
            SerialBackend.__init__,
            ThreadBackend.__init__,
            ProcessBackend.__init__,
        ],
        ids=[
            "chunked", "plan_chunks", "map", "serial-map", "thread-map",
            "process-map", "serial-init", "thread-init", "process-init",
        ],
    )
    def test_no_schedule_or_cost_parameter(self, fn) -> None:
        params = set(inspect.signature(fn).parameters)
        assert not params & {"schedule", "costs"}, fn.__qualname__

    def test_config_and_cli_carry_no_schedule(self) -> None:
        assert "schedule" not in {f.name for f in dataclasses.fields(DTuckerConfig)}
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["decompose", "x.npy", "--ranks", "2", "--schedule", "dynamic"]
            )

    def test_schedule_environment_is_ignored(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        rows = np.arange(24, dtype=float).reshape(24, 1)
        monkeypatch.setenv("REPRO_SCHEDULE", "static")
        cfg = DTuckerConfig(n_workers=2)
        with resolve_backend("thread", config=cfg) as eng, eng.phase("env") as trace:
            chunked(
                eng, _scale_chunk, 24, slabs=(rows,),
                broadcast={"scale": 1.0}, out=np.empty_like(rows),
            )
        assert trace.n_tasks == 2 * OVERSPLIT


# -- bit-identity across backends and plans ----------------------------------

def _reference(kind: str, x: np.ndarray, ranks: tuple[int, ...]):
    cfg = DTuckerConfig(seed=0, backend="serial")
    if kind == "compress":
        return compress(x, 3, config=cfg)
    return DTucker(ranks, config=cfg).fit(x)


def _assert_compress_equal(got, ref) -> None:
    np.testing.assert_array_equal(got.u, ref.u)
    np.testing.assert_array_equal(got.s, ref.s)
    np.testing.assert_array_equal(got.vt, ref.vt)


#: The two chunkings every bit-identity case runs on three workers, by the
#: names of the policies that used to produce them: "static" is one chunk
#: per worker (pinned with chunk_size = ceil(L / 3)), "dynamic" the default
#: oversplit plan.
PLANS = ["static", "dynamic"]


def _plan_config(plan: str, backend: str, shape: tuple[int, ...]) -> DTuckerConfig:
    size = math.ceil(slice_count(shape) / 3) if plan == "static" else None
    return DTuckerConfig(seed=0, backend=backend, n_workers=3, chunk_size=size)


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
    @pytest.mark.parametrize("plan", PLANS)
    def test_compress_matches_serial_static(
        self, order: int, backend: str, plan: str
    ) -> None:
        shape, ranks = self.SHAPES[order]
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ref = _reference("compress", x, ranks)
        cfg = _plan_config(plan, backend, shape)
        _assert_compress_equal(compress(x, 3, config=cfg), ref)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("plan", PLANS)
    def test_fit_matches_serial_static(self, backend: str, plan: str) -> None:
        shape, ranks = self.SHAPES[4]
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ref = _reference("fit", x, ranks)
        cfg = _plan_config(plan, backend, shape)
        got = DTucker(ranks, config=cfg).fit(x)
        np.testing.assert_array_equal(got.result_.core, ref.result_.core)
        for a, b in zip(got.result_.factors, ref.result_.factors):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_single_worker_dynamic_degenerates_to_static(
        self, backend: str
    ) -> None:
        """On one worker the default plan is the single unchunked chunk."""
        shape, ranks = self.SHAPES[3]
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ref = _reference("compress", x, ranks)
        cfg = DTuckerConfig(seed=0, backend=backend, n_workers=1)
        with BACKENDS[backend](n_workers=1) as eng, eng.collect() as traces:
            got = compress(x, 3, config=cfg, engine=eng)
        assert sum(t.n_tasks for t in traces) == 1
        _assert_compress_equal(got, ref)

    @pytest.mark.parametrize("plan", PLANS)
    def test_remainder_chunk_size_parity(self, plan: str) -> None:
        shape, ranks = self.SHAPES[3]
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ref = _reference("compress", x, ranks)
        # 7 slices: chunk_size 3 (one chunk per worker) and 2 both leave a
        # remainder chunk.
        cfg = DTuckerConfig(
            seed=0, backend="thread", n_workers=3,
            chunk_size=3 if plan == "static" else 2,
        )
        _assert_compress_equal(compress(x, 3, config=cfg), ref)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_chunked_preserves_order(self, backend: str) -> None:
        """Chunks finishing out of order still land in their own rows."""
        rows = np.arange(23, dtype=float).reshape(23, 1)
        with BACKENDS[backend](n_workers=3) as eng:
            got = chunked(
                eng, _scale_chunk, 23, slabs=(rows,),
                broadcast={"scale": 2.0}, out=np.empty_like(rows),
            )
        np.testing.assert_array_equal(got, rows * 2.0)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_map_preserves_order(self, backend: str) -> None:
        with BACKENDS[backend](n_workers=3) as eng:
            got = eng.map(_square, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert got == [1.0, 4.0, 9.0, 16.0, 25.0, 36.0]


# -- load balance ------------------------------------------------------------

#: Skewed latency workload: per-item cost units, seconds = cost * SCALE.  The
#: heavy items sit together at the front — the adversarial layout for one
#: chunk per worker, whose first chunk then holds all of them.
N_ITEMS, HEAVY_COUNT, HEAVY, LIGHT = 32, 8, 8.0, 1.0
SCALE = 0.004  # ~350 ms of total stall per dispatch
N_WORKERS = 4


def latency_kernel(
    costs: np.ndarray, *, scale: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-item GIL-releasing stall proportional to cost, then a tiny op.

    ``time.sleep`` stands in for a storage wait (it releases the GIL like a
    real read), so the speedup does not depend on the core count.
    """
    if out is None:
        out = np.empty_like(costs)
    for i in range(costs.shape[0]):
        time.sleep(float(costs[i]) * scale)
        out[i] = costs[i] * 2.0 + 1.0
    return out


class TestSkewedLatencyGuard:
    REPEATS = 3

    def _timed(self, eng, costs, chunk_size, scale=SCALE):
        t0 = time.perf_counter()
        out = chunked(
            eng, latency_kernel, len(costs), slabs=(costs,),
            broadcast={"scale": scale}, out=np.empty_like(costs),
            chunk_size=chunk_size,
        )
        return out, time.perf_counter() - t0

    def test_default_plan_beats_one_chunk_per_worker(self) -> None:
        costs = np.full(N_ITEMS, LIGHT)
        costs[:HEAVY_COUNT] = HEAVY
        per_worker = math.ceil(N_ITEMS / N_WORKERS)
        default_s, pinned_s = [], []
        with ThreadBackend(n_workers=N_WORKERS) as eng:
            self._timed(eng, costs, None, scale=0.0)  # start the pool
            for _ in range(self.REPEATS):
                out_default, sec = self._timed(eng, costs, None)
                default_s.append(sec)
                out_pinned, sec = self._timed(eng, costs, per_worker)
                pinned_s.append(sec)
                np.testing.assert_array_equal(out_default, out_pinned)
        speedup = statistics.median(pinned_s) / statistics.median(default_s)
        assert speedup >= 1.3, (default_s, pinned_s)


class TestTelemetry:
    def test_parallel_dispatch_records_balance(self) -> None:
        rows = np.arange(40, dtype=float).reshape(40, 1)
        with ThreadBackend(n_workers=2) as eng:
            with eng.phase("bench") as trace:
                chunked(
                    eng, _scale_chunk, 40, slabs=(rows,),
                    broadcast={"scale": 1.0}, out=np.empty_like(rows),
                )
        assert trace.n_tasks == 2 * OVERSPLIT
        assert trace.steals == 2 * OVERSPLIT - len(trace.tasks_per_worker)
        assert trace.queue_wait_seconds >= 0.0
        assert trace.busy_seconds_per_worker
        assert trace.imbalance_ratio() >= 1.0
        assert "imbalance=" in trace.summary()
        assert "sched=" not in trace.summary()

    def test_serial_single_chunk_skips_dispatch_label(self) -> None:
        rows = np.ones((8, 2))
        with SerialBackend() as eng:
            with eng.phase("bench") as trace:
                chunked(
                    eng, _scale_chunk, 8, slabs=(rows,),
                    broadcast={"scale": 1.0}, out=np.empty_like(rows),
                )
        assert trace.n_tasks == 1
        assert trace.steals == 0
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
