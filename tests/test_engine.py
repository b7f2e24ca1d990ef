"""Tests for the pluggable execution engine (`repro.engine`).

Covers the three backends (parity against serial for fixed seeds), the
chunk-planning policy and its edge cases, backend resolution (names, env
override, instance ownership), phase tracing, the ``FitLike`` protocol,
recovery from a dead process worker, and ``config=`` as the one route to
a solver knob on every entry point.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import mach_tucker, rtd, tucker_als, tucker_ts, tucker_ttmts
from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker
from repro.core.iteration import als_sweeps
from repro.core.protocol import FitLike
from repro.core.result import TuckerResult
from repro.core.slice_svd import compress
from repro.core.sparse_dtucker import compress_sparse, sparse_dtucker
from repro.core.streaming import StreamingDTucker
from repro.engine import (
    BACKEND_NAMES,
    OVERSPLIT,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_scope,
    chunked,
    format_traces,
    plan_chunks,
    resolve_backend,
)
from repro.exceptions import BackendError, ShapeError
from repro.tensor.random import random_tensor


def _double_chunk(rows: np.ndarray, *, scale: float, out=None) -> np.ndarray:
    """Module-level kernel (picklable) for chunked-dispatch tests."""
    return np.multiply(rows, scale, out=out)


def _pair_chunk(rows: np.ndarray, *, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Two outputs, written into ``out=`` rows (fresh arrays without one)."""
    plus, total = (None, None) if out is None else out
    axes = tuple(range(1, rows.ndim))
    return np.add(rows, 1.0, out=plus), np.sum(rows, axis=axes, out=total)


def _die(*args, **kwargs) -> None:
    """Kill the worker process running this task (no cleanup, no reply)."""
    os._exit(1)


class TestPlanChunks:
    def test_serial_single_chunk(self) -> None:
        assert plan_chunks(17, 1) == [(0, 17)]

    def test_even_split(self) -> None:
        # A parallel plan oversplits: OVERSPLIT equal chunks per worker.
        n = 2 * 2 * OVERSPLIT
        assert plan_chunks(n, 2) == [(i, i + 2) for i in range(0, n, 2)]

    def test_uneven_split_covers_range(self) -> None:
        plan = plan_chunks(10, 3)
        assert plan[0][0] == 0 and plan[-1][1] == 10
        assert all(a < b for a, b in plan)
        # Contiguous, non-overlapping.
        assert all(plan[i][1] == plan[i + 1][0] for i in range(len(plan) - 1))

    def test_fewer_items_than_workers(self) -> None:
        plan = plan_chunks(2, 8)
        assert plan == [(0, 1), (1, 2)]  # no empty chunks

    def test_explicit_chunk_size_with_remainder(self) -> None:
        assert plan_chunks(7, 4, chunk_size=3) == [(0, 3), (3, 6), (6, 7)]

    def test_zero_items(self) -> None:
        assert plan_chunks(0, 4) == []

    def test_invalid(self) -> None:
        with pytest.raises(ShapeError):
            plan_chunks(-1, 2)
        with pytest.raises(ShapeError):
            plan_chunks(4, 0)
        with pytest.raises(ShapeError):
            plan_chunks(4, 2, chunk_size=0)


class TestResolveBackend:
    def test_names(self) -> None:
        assert set(BACKEND_NAMES) == {"serial", "thread", "process"}
        for name in BACKEND_NAMES:
            with backend_scope(name) as eng:
                assert eng.name == name

    def test_unknown_name(self) -> None:
        with pytest.raises(BackendError):
            resolve_backend("gpu")

    def test_instance_passthrough_not_closed(self) -> None:
        eng = SerialBackend()
        with backend_scope(eng) as inner:
            assert inner is eng
        # A user-supplied instance survives the scope (ownership rule).
        assert eng.map(lambda v: v + 1, [1, 2]) == [2, 3]

    def test_auto_honours_env(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        eng = resolve_backend("auto")
        try:
            assert isinstance(eng, ThreadBackend)
        finally:
            eng.close()
        monkeypatch.delenv("REPRO_BACKEND")
        eng = resolve_backend(None)
        assert isinstance(eng, SerialBackend)

    def test_workers_from_env(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("REPRO_WORKERS", "3")
        eng = resolve_backend("thread")
        try:
            assert eng.n_workers == 3
        finally:
            eng.close()
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        with pytest.raises(BackendError):
            resolve_backend("thread")

    def test_serial_is_always_single_worker(self) -> None:
        assert SerialBackend(n_workers=8).n_workers == 1

    def test_config_supplies_defaults(self) -> None:
        cfg = DTuckerConfig(backend="thread", n_workers=2, chunk_size=5)
        with backend_scope(config=cfg) as eng:
            assert isinstance(eng, ThreadBackend)
            assert eng.n_workers == 2
            assert eng.chunk_size == 5


class TestChunkedDispatch:
    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_matches_inline(self, name: str, rng: np.random.Generator) -> None:
        slab = rng.standard_normal((13, 4, 3))
        with backend_scope(name, config=DTuckerConfig(n_workers=2, chunk_size=4)) as eng:
            out = chunked(
                eng,
                _double_chunk,
                slab.shape[0],
                slabs=(slab,),
                broadcast={"scale": 2.0},
                out=np.empty_like(slab),
            )
        np.testing.assert_array_equal(out, slab * 2.0)

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_tuple_outputs_concat_positionwise(
        self, name: str, rng: np.random.Generator
    ) -> None:
        slab = rng.standard_normal((9, 5))
        out = (np.full((9, 5), np.nan), np.full(9, np.nan))
        with backend_scope(name, config=DTuckerConfig(n_workers=3, chunk_size=2)) as eng:
            got = chunked(eng, _pair_chunk, slab.shape[0], slabs=(slab,), out=out)
        assert got is out
        np.testing.assert_array_equal(out[0], slab + 1.0)
        np.testing.assert_array_equal(out[1], slab.sum(axis=1))

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_deferred_out_for_a_lone_chunk(
        self, name: str, rng: np.random.Generator
    ) -> None:
        # A callable ``out`` is only called when the plan has several
        # chunks; a lone chunk's own result is returned as is.
        slab = rng.standard_normal((6, 4))
        calls = []

        def alloc():
            calls.append(1)
            return np.empty_like(slab)

        with backend_scope(name, config=DTuckerConfig(n_workers=2)) as eng:
            got = chunked(
                eng, _double_chunk, 6, slabs=(slab,),
                broadcast={"scale": 2.0}, out=alloc,
            )
        assert len(calls) == (0 if name == "serial" else 1)
        np.testing.assert_array_equal(got, slab * 2.0)

    def test_fewer_items_than_workers(self, rng: np.random.Generator) -> None:
        slab = rng.standard_normal((2, 3, 3))
        with backend_scope("thread", config=DTuckerConfig(n_workers=8)) as eng:
            out = chunked(
                eng,
                _double_chunk,
                2,
                slabs=(slab,),
                broadcast={"scale": -1.0},
                out=np.empty_like(slab),
            )
        np.testing.assert_array_equal(out, -slab)

    def test_indivisible_chunking(self, rng: np.random.Generator) -> None:
        slab = rng.standard_normal((7, 2))
        with backend_scope("process", config=DTuckerConfig(n_workers=2, chunk_size=3)) as eng:
            out = chunked(
                eng,
                _double_chunk,
                7,
                slabs=(slab,),
                broadcast={"scale": 3.0},
                out=np.empty_like(slab),
            )
        np.testing.assert_array_equal(out, slab * 3.0)

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_map_preserves_order(self, name: str) -> None:
        with backend_scope(name, config=DTuckerConfig(n_workers=2)) as eng:
            assert eng.map(abs, [-3, 1, -2, 0]) == [3, 1, 2, 0]


class TestWorkerCrash:
    @pytest.mark.parametrize("dispatch", ["map", "run_chunks"])
    def test_dead_worker_raises_backend_error_and_recovers(
        self, dispatch: str
    ) -> None:
        shm = Path("/dev/shm")
        before = set(shm.iterdir()) if shm.is_dir() else set()
        slab = np.arange(12.0).reshape(6, 2)
        plan = [(0, 3), (3, 6)]
        eng = ProcessBackend(n_workers=2)
        try:
            eng.run_chunks(_double_chunk, plan, [slab], {"scale": 2.0})
            published = [descr[0] for _, _, descr in eng._slabs.values()]
            assert published
            with pytest.raises(BackendError, match="worker died") as info:
                if dispatch == "map":
                    eng.map(_die, [0, 1, 2])
                else:
                    eng.run_chunks(_die, plan, [slab], {})
            assert isinstance(info.value.__cause__, BrokenProcessPool)
            # The same backend serves the next dispatch on a fresh pool.
            assert eng.map(abs, [-3, 1, -2]) == [3, 1, 2]
            parts = eng.run_chunks(_double_chunk, plan, [slab], {"scale": 2.0})
            np.testing.assert_array_equal(np.concatenate(parts), slab * 2.0)
        finally:
            eng.close()
        for name in published:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        if shm.is_dir():
            assert set(shm.iterdir()) - before == set()


class TestSharedSlabLifetime:
    """A published segment lives only as long as the array it mirrors."""

    def test_twenty_fits_hold_no_more_segments_than_one(self) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 2), rng=5, noise=0.05)
        cfg = DTuckerConfig(seed=0, backend="process", n_workers=2)
        eng = ProcessBackend(n_workers=2)
        try:
            live = []
            for _ in range(20):
                model = DTucker((3, 3, 2), config=cfg, engine=eng).fit(x)
                live.append(len(eng._slabs))
            assert live[0] > 0
            assert max(live) <= live[0], live
            published = [descr[0] for _, _, descr in eng._slabs.values()]
            del model
            # The last model held the only arrays still published.
            assert len(eng._slabs) < live[-1]
        finally:
            eng.close()
        assert not eng._slabs
        for name in published:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segment_is_unlinked_when_its_array_is_collected(self) -> None:
        eng = ProcessBackend(n_workers=2)
        try:
            slab = np.arange(12.0).reshape(6, 2)
            eng.run_chunks(_double_chunk, [(0, 3), (3, 6)], [slab], {"scale": 2.0})
            (name,) = [descr[0] for _, _, descr in eng._slabs.values()]
            del slab
            assert not eng._slabs
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            eng.close()


#: Two-worker process dispatches in a fresh interpreter.  ``map_first``
#: starts the pool before any segment exists, so the workers are forked
#: before anything in the parent has touched the resource tracker.
_TRACKER_SCRIPT = """
import sys
import numpy as np
from repro.engine import ProcessBackend, chunked

def square(x):
    return x * x

def scale(rows, *, factor, out=None):
    return np.multiply(rows, factor, out=out)

with ProcessBackend(n_workers=2) as eng:
    if sys.argv[1] == "map_first":
        assert eng.map(square, [1.0, 2.0, 3.0]) == [1.0, 4.0, 9.0]
    for _ in range(3):
        rows = np.arange(40.0).reshape(40, 1)
        got = chunked(eng, scale, 40, slabs=(rows,), broadcast={"factor": 2.0},
                      out=np.empty_like(rows))
        assert np.array_equal(got, rows * 2.0)
        del rows
"""


class TestResourceTracker:
    """Workers never report the parent's shared-memory segments as leaked."""

    @pytest.mark.parametrize("order", ["map_first", "chunks_first"])
    def test_process_dispatch_leaves_no_tracker_warning(self, order) -> None:
        out = subprocess.run(
            [sys.executable, "-c", _TRACKER_SCRIPT, order],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert "resource_tracker" not in out.stderr, out.stderr


class TestBackendParity:
    """Serial, thread and process backends must agree bit-for-bit."""

    def test_compress_parity(self) -> None:
        x = random_tensor((14, 12, 9), (4, 3, 3), rng=7, noise=0.05)
        ref = compress(x, 4, rng=0)
        for name in ("thread", "process"):
            with backend_scope(name, config=DTuckerConfig(n_workers=2, chunk_size=3)) as eng:
                got = compress(x, 4, engine=eng, rng=0)
            np.testing.assert_array_equal(got.u, ref.u)
            np.testing.assert_array_equal(got.s, ref.s)
            np.testing.assert_array_equal(got.vt, ref.vt)

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_dtucker_factors_parity(self, name: str) -> None:
        x = random_tensor((12, 11, 8), (3, 3, 2), rng=3, noise=0.01)
        cfg = DTuckerConfig(seed=5)
        ref = DTucker((3, 3, 2), config=cfg).fit(x).result_
        par = DTucker(
            (3, 3, 2),
            config=DTuckerConfig(seed=5, backend=name, n_workers=2, chunk_size=4),
        ).fit(x).result_
        np.testing.assert_array_equal(par.core, ref.core)
        for a, b in zip(par.factors, ref.factors):
            np.testing.assert_array_equal(a, b)


class TestPhaseTraces:
    def test_dtucker_attaches_traces(self) -> None:
        x = random_tensor((10, 9, 8), (3, 3, 3), rng=2, noise=0.0)
        model = DTucker(
            (3, 3, 3), config=DTuckerConfig(seed=0, backend="serial")
        ).fit(x)
        phases = [t.phase for t in model.result_.trace_]
        assert "approximation" in phases
        assert "iteration" in phases
        text = format_traces(model.result_.trace_)
        assert "approximation" in text and "backend=serial" in text

    def test_trace_records_tasks_and_chunks(self) -> None:
        x = random_tensor((10, 9, 16), (3, 3, 3), rng=2, noise=0.0)
        with backend_scope("thread", config=DTuckerConfig(n_workers=2, chunk_size=4)) as eng:
            compress(x, 3, engine=eng, rng=0)
            (trace,) = eng.traces
        assert trace.backend == "thread"
        assert trace.n_workers == 2
        assert trace.n_tasks == 4  # 16 slices / chunk_size 4
        assert trace.chunk_sizes == [4]  # distinct sizes, first-seen order
        assert sum(trace.tasks_per_worker.values()) == trace.n_tasks
        assert trace.seconds >= 0.0

    def test_persistent_engine_accumulates_per_fit(self) -> None:
        x = random_tensor((9, 8, 7), (2, 2, 2), rng=1, noise=0.0)
        eng = SerialBackend()
        m1 = DTucker((2, 2, 2), seed=0, engine=eng).fit(x)
        m2 = DTucker((2, 2, 2), seed=0, engine=eng).fit(x)
        # Each fit only keeps its own slice of the shared engine's history.
        assert len(m1.trace_) == len(m2.trace_)
        assert len(eng.traces) == len(m1.trace_) + len(m2.trace_)
        eng.close()


class TestFitLikeProtocol:
    def test_tucker_result_is_fitlike(self) -> None:
        x = random_tensor((8, 7, 6), (2, 2, 2), rng=0, noise=0.0)
        res = DTucker((2, 2, 2), seed=0).fit(x).result_
        assert isinstance(res, FitLike)
        assert res.elapsed > 0.0
        assert np.isfinite(res.error(x))

    def test_baseline_fit_is_fitlike(self) -> None:
        x = random_tensor((8, 7, 6), (2, 2, 2), rng=0, noise=0.0)
        fit = tucker_als(x, (2, 2, 2), config=DTuckerConfig(max_iters=2, seed=0))
        assert isinstance(fit, FitLike)
        assert fit.core.shape == (2, 2, 2)
        assert len(fit.factors) == 3
        assert fit.elapsed >= 0.0
        assert np.isfinite(fit.error(x))

    def test_protocol_surfaces_agree(self) -> None:
        x = random_tensor((8, 7, 6), (2, 2, 2), rng=0, noise=0.0)
        fit = tucker_als(x, (2, 2, 2), config=DTuckerConfig(max_iters=2, seed=0))
        assert fit.error(x) == fit.result.error(x)
        assert fit.core is fit.result.core


class TestDeprecationShims:
    @pytest.mark.parametrize(
        "entry",
        [
            DTucker,
            DTucker.refit,
            als_sweeps,
            compress,
            compress_sparse,
            sparse_dtucker,
            StreamingDTucker,
            tucker_als,
            tucker_ts,
            tucker_ttmts,
            mach_tucker,
            rtd,
        ],
        ids=lambda entry: entry.__qualname__,
    )
    def test_config_is_the_only_route_to_a_field(self, entry) -> None:
        fields = {f.name for f in dataclasses.fields(DTuckerConfig)}
        # The config fields that stay first-class keywords.
        allowed = {"seed"}
        if entry is StreamingDTucker:
            allowed |= {"window", "decay", "drift_budget"}
        params = set(inspect.signature(entry).parameters)
        assert (params & fields) - allowed == set()

    def test_baseline_config_path_is_warning_free(self) -> None:
        x = random_tensor((8, 7, 6), (2, 2, 2), rng=0, noise=0.0)
        cfg = DTuckerConfig(seed=0, max_iters=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            tucker_als(x, (2, 2, 2), config=cfg)
            mach_tucker(x, (2, 2, 2), config=cfg)
            rtd(x, (2, 2, 2), config=cfg)
            tucker_ts(x, (2, 2, 2), config=cfg)
            tucker_ttmts(x, (2, 2, 2), config=cfg)

    def test_seed_stays_first_class(self) -> None:
        x = random_tensor((8, 7, 6), (2, 2, 2), rng=0, noise=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            a = rtd(x, (2, 2, 2), seed=11)
            b = rtd(x, (2, 2, 2), config=DTuckerConfig(seed=11))
        np.testing.assert_array_equal(a.core, b.core)


class TestConfigBackendFields:
    def test_invalid_backend_name_rejected(self) -> None:
        with pytest.raises(BackendError):
            DTuckerConfig(backend="cluster")

    @pytest.mark.parametrize(
        "kwargs", [{"n_workers": 0}, {"chunk_size": 0}, {"n_workers": -2}]
    )
    def test_invalid_execution_knobs(self, kwargs: dict) -> None:
        with pytest.raises(ShapeError):
            DTuckerConfig(**kwargs)


class TestEnvBackendEndToEnd:
    def test_suite_level_override(self, monkeypatch: pytest.MonkeyPatch) -> None:
        # REPRO_BACKEND switches a default-config fit without code changes.
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        x = random_tensor((10, 9, 8), (3, 3, 3), rng=4, noise=0.0)
        model = DTucker((3, 3, 3), seed=0).fit(x)
        assert all(t.backend == "thread" for t in model.trace_)
        monkeypatch.delenv("REPRO_BACKEND")
        monkeypatch.delenv("REPRO_WORKERS")
        ref = DTucker((3, 3, 3), seed=0).fit(x)
        np.testing.assert_array_equal(model.result_.core, ref.result_.core)
