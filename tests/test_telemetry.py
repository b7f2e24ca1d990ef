"""Telemetry is recorded once and long-lived objects keep it bounded.

* ``TestRecordedOnce``: every counter event lands in exactly one phase's
  ``PhaseTrace.counters``, so a fit's ``kernel_stats`` is the sum of its
  traces' counters — on every fit path.
* ``TestBoundedTelemetry``: an engine, a served model and a stream that
  live through 2,000 operations keep at most ``TELEMETRY_HISTORY`` recent
  entries, while their running totals stay exact; threads sharing one
  engine each collect only the phases they close, and each thread's
  dispatches are recorded in the phase it opened.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import DTucker, DTuckerConfig, ModelStore, StreamingDTucker
from repro.distributed import ShardCoordinator, ShardedSource, write_npy_shards
from repro.engine import SerialBackend
from repro.engine.trace import TELEMETRY_HISTORY
from repro.kernels.stats import KernelStats
from repro.tensor.random import random_tensor

RANKS = (3, 3, 2)


@pytest.fixture
def tensor() -> np.ndarray:
    return random_tensor((14, 12, 24), RANKS, rng=3, noise=0.05)


def summed(traces) -> KernelStats:
    total = KernelStats()
    for trace in traces:
        total.merge(trace.counters)
    return total


def assert_sum_matches(traces, stats: KernelStats) -> None:
    total = summed(traces)
    for name in ("hits", "misses", "bytes_reused", "bytes_comm"):
        assert getattr(total, name) == getattr(stats, name), name

    def comm(s: KernelStats) -> dict:
        return {n: p for n, p in s.counts.items() if n.startswith("comm:")}

    assert comm(total) == comm(stats)


class TestRecordedOnce:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_dtucker_fit(self, tensor, backend) -> None:
        cfg = DTuckerConfig(seed=0, backend=backend, n_workers=2)
        model = DTucker(RANKS, config=cfg).fit(tensor)
        assert [t.phase for t in model.trace_] == [
            "approximation", "iteration", "closing",
        ]
        assert_sum_matches(model.trace_, model.kernel_stats_)
        stats = model.kernel_stats_
        assert sum(stats.plan_decisions().values()) == 1
        assert stats.w_evals == stats.sweeps == model.n_iters_

    def test_fit_from_file(self, tensor, tmp_path) -> None:
        np.save(tmp_path / "x.npy", tensor)
        model = DTucker(RANKS, config=DTuckerConfig(seed=0)).fit_from_file(
            tmp_path / "x.npy", batch_slices=5
        )
        assert_sum_matches(model.trace_, model.kernel_stats_)
        # One planner decision per batch of 5 slices.
        assert sum(model.kernel_stats_.plan_decisions().values()) == 5

    def test_shard_coordinator_fit(self, tensor, tmp_path) -> None:
        source = ShardedSource.from_manifest(
            write_npy_shards(tmp_path / "s", tensor, 3)
        )
        cfg = DTuckerConfig(seed=0, backend="process", n_workers=2)
        fit = ShardCoordinator(source, RANKS, config=cfg).fit()
        assert_sum_matches(fit.traces, fit.kernel_stats)
        # One gather of the shard-local compression, order + 1 reduce
        # rounds per distributed sweep, and one for the closing core.
        rounds = [t.counters.misses_for("comm:reduce") for t in fit.traces]
        assert rounds == [1, fit.n_iters * (len(RANKS) + 1), 1]
        assert fit.kernel_stats.bytes_comm > 0

    def test_incremental_stream(self, tensor) -> None:
        s = StreamingDTucker(
            RANKS, seed=0, window=16, drift_budget=1e-9
        )
        noise = np.random.default_rng(1).standard_normal(tensor.shape)
        for t0 in range(0, 24, 4):
            # Blocks drift from low-rank to noise, so the watchdog fires.
            s.partial_fit((tensor + noise * t0 / 8)[..., t0:t0 + 4])
        assert s.watchdog_triggers_ > 0
        assert_sum_matches(s.traces_, s.kernel_stats_)
        proj = sum(t.counters.misses_for("stream:proj") for t in s.traces_)
        assert proj == s.kernel_stats_.misses_for("stream:proj")

    def test_caller_stats_get_the_phase_merged_once(self, tensor) -> None:
        from repro.core.sources import DenseSource, compress_source

        stats = KernelStats()
        engine = SerialBackend()
        with engine.collect() as traces:
            compress_source(DenseSource(tensor), 3, engine=engine, stats=stats)
        (trace,) = traces
        assert trace.counters.counts == stats.counts
        assert trace.counters.bytes_reused == stats.bytes_reused


class TestBoundedTelemetry:
    N_OPS = 2000

    def test_long_lived_objects_stay_bounded_and_exact(
        self, tensor, tmp_path
    ) -> None:
        engine = SerialBackend()
        cfg = DTuckerConfig(seed=0, max_iters=2)
        DTucker(RANKS, config=cfg).fit(tensor).save(tmp_path / "m")
        served = ModelStore(tmp_path / "m").open(engine=engine, use_index=False)
        stream = StreamingDTucker(
            RANKS, config=cfg, engine=engine, window=8
        )
        fitter = DTucker(RANKS, config=cfg, engine=engine)
        steps = tensor.shape[-1]
        ranges = [(t0, t0 + 6) for t0 in range(steps - 6)]
        n_queries = hits = 0
        seconds = 0.0
        for i in range(self.N_OPS):
            kind = i % 3
            if kind == 0:
                # Every other query repeats the previous range (a cache hit).
                t0, t1 = ranges[(i // 6) % len(ranges)]
                served.query_time_range(t0, t1)
                record = served.stats.records[-1]
                hits += record.cache == "hit"
                seconds += record.seconds
                n_queries += 1
            elif kind == 1:
                t0 = (i // 3) % (steps - 2)
                stream.partial_fit(tensor[..., t0:t0 + 2])
            else:
                fitter.fit(tensor)
                # A fit's traces are its own phases, however long the
                # engine's history has run.
                assert [t.phase for t in fitter.trace_] == [
                    "approximation",
                    "iteration",
                    "closing",
                ]
        served.close()

        assert len(engine.traces) == TELEMETRY_HISTORY
        assert len(served.stats.records) == TELEMETRY_HISTORY
        assert len(stream.traces_) == TELEMETRY_HISTORY
        stats = served.stats
        assert stats.n_queries == n_queries
        assert stats.by_kind() == {"time_range": n_queries}
        assert 0 < stats.cache_hits == stats.by_cache()["hit"] == hits < n_queries
        assert sum(stats.by_cache().values()) == n_queries
        assert stats.total_seconds == pytest.approx(seconds, rel=1e-12)
        assert f"queries={n_queries} " in stats.summary()
        assert stream.n_updates_ == len(range(1, self.N_OPS, 3))

    def test_collect_on_a_shared_engine_keeps_each_threads_phases(self) -> None:
        engine = SerialBackend()
        n_threads, n_phases = 6, 300
        collected: dict[int, list[str]] = {}

        def work(i: int) -> None:
            with engine.collect() as traces:
                for _ in range(n_phases):
                    with engine.phase(f"t{i}"):
                        pass
            collected[i] = [t.phase for t in traces]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert collected == {i: [f"t{i}"] * n_phases for i in range(n_threads)}
        assert len(engine.traces) == TELEMETRY_HISTORY


    def test_threads_sharing_an_engine_record_tasks_in_their_own_phase(self) -> None:
        # Each thread's dispatches land in the phase that thread opened:
        # the open phase is per thread, like the collect() sinks.  The
        # tasks sleep (releasing the GIL, as BLAS kernels do) so the
        # threads' phases overlap.
        engine = SerialBackend()
        n_threads, n_phases, n_items = 4, 50, 4
        counts: dict[int, list[int]] = {}
        start = threading.Barrier(n_threads)

        def task(v: int) -> int:
            time.sleep(1e-4)
            return v

        def work(i: int) -> None:
            seen = []
            start.wait(timeout=60)
            for _ in range(n_phases):
                with engine.phase(f"t{i}") as trace:
                    engine.map(task, range(n_items))
                seen.append(trace.n_tasks)
            counts[i] = seen

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(counts) == n_threads
        wrong = [n for seen in counts.values() for n in seen if n != n_items]
        assert not wrong
