"""Tests for the streaming D-Tucker extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import StreamingDTucker
from repro.exceptions import NotFittedError, RankError, ShapeError
from repro.tensor.random import random_tensor
from tests.conftest import assert_orthonormal


@pytest.fixture
def temporal(rng) -> np.ndarray:
    return random_tensor((16, 12, 20), (3, 3, 4), rng=rng, noise=0.02)


class TestPartialFit:
    def test_single_block_matches_batch_quality(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0).partial_fit(temporal)
        assert s.result_.error(temporal) < 0.01

    def test_incremental_blocks(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        for t0 in range(0, 20, 5):
            s.partial_fit(temporal[..., t0 : t0 + 5])
        assert s.shape_ == (16, 12, 20)
        assert s.n_updates_ == 4
        assert s.result_.error(temporal) < 0.01

    def test_factors_orthonormal(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        s.partial_fit(temporal[..., :10]).partial_fit(temporal[..., 10:])
        for f in s.result_.factors:
            assert_orthonormal(f)

    def test_temporal_rank_clipped_while_short(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        s.partial_fit(temporal[..., :2])  # only 2 timesteps so far
        assert s.result_.ranks[-1] == 2
        s.partial_fit(temporal[..., 2:10])
        assert s.result_.ranks[-1] == 4

    def test_history_and_timings_grow(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        s.partial_fit(temporal[..., :10])
        s.partial_fit(temporal[..., 10:])
        assert len(s.history_) == 2
        assert s.timings_.total > 0
        assert "approximation" in s.timings_

    def test_mismatched_block_shape(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        s.partial_fit(temporal[..., :10])
        with pytest.raises(ShapeError):
            s.partial_fit(np.ones((16, 11, 5)))

    def test_wrong_block_order(self) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4))
        with pytest.raises(ShapeError):
            s.partial_fit(np.ones((16, 12)))

    def test_order2_ranks_rejected(self) -> None:
        with pytest.raises(ShapeError):
            StreamingDTucker(ranks=(3, 3))

    def test_slice_rank_too_large(self) -> None:
        s = StreamingDTucker(ranks=(3, 3, 2), slice_rank=10)
        with pytest.raises(RankError):
            s.partial_fit(np.ones((4, 4, 6)))

    def test_accessors_before_fit(self) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4))
        with pytest.raises(NotFittedError):
            _ = s.shape_
        with pytest.raises(NotFittedError):
            _ = s.slice_svd_

    def test_order4_streaming(self, rng) -> None:
        x = random_tensor((8, 7, 4, 6), (2, 2, 2, 2), rng=rng, noise=0.02)
        s = StreamingDTucker(ranks=(2, 2, 2, 2), seed=0)
        s.partial_fit(x[..., :3]).partial_fit(x[..., 3:])
        assert s.shape_ == (8, 7, 4, 6)
        assert s.result_.error(x) < 0.02

    @pytest.mark.parametrize("update", ["refit", "incremental"])
    def test_each_update_scans_its_block_once(
        self, temporal, monkeypatch, update
    ) -> None:
        import repro.validation as validation

        # Counts the NaN/Inf scans of the ingested block; the update's
        # own small factor-sized arrays are validated too and not counted.
        scans = []
        real = validation._all_finite

        def counting(a):
            if a.ndim == 3 and a.shape[:2] == (16, 12):
                scans.append(a.shape)
            return real(a)

        monkeypatch.setattr(validation, "_all_finite", counting)
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update=update)
        s.partial_fit(temporal[..., :10])
        assert scans == [(16, 12, 10)]
        s.revise(2, temporal[..., 2:5])
        assert scans == [(16, 12, 10), (16, 12, 3)]

    def test_streaming_matches_batch_error(self, temporal) -> None:
        from repro.core.dtucker import DTucker

        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, sweeps_per_update=10)
        s.partial_fit(temporal[..., :10]).partial_fit(temporal[..., 10:])
        batch = DTucker(ranks=(3, 3, 4), seed=0).fit(temporal)
        stream_err = s.result_.error(temporal)
        batch_err = batch.result_.error(temporal)
        assert stream_err <= batch_err + 5e-3


def _stream_blocks(x: np.ndarray, step: int):
    for t0 in range(0, x.shape[-1], step):
        yield x[..., t0 : t0 + step]


class TestRefitBitIdentity:
    """update="refit" is the historical behaviour on every backend."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends_bit_identical(self, temporal, backend) -> None:
        from repro.core.config import DTuckerConfig

        def run(name: str):
            s = StreamingDTucker(
                ranks=(3, 3, 4),
                config=DTuckerConfig(seed=0, backend=name, n_workers=2),
            )
            for block in _stream_blocks(temporal, 5):
                s.partial_fit(block)
            return s

        ref = run("serial")
        got = run(backend)
        np.testing.assert_array_equal(got.result_.core, ref.result_.core)
        for a, b in zip(got.result_.factors, ref.result_.factors):
            np.testing.assert_array_equal(a, b)
        # Scalar error estimates may differ in reduction order only.
        np.testing.assert_allclose(got.history_, ref.history_, rtol=1e-9)

    def test_refit_is_default_and_rejects_window(self) -> None:
        assert StreamingDTucker(ranks=(3, 3, 4)).update == "refit"
        with pytest.raises(ShapeError):
            StreamingDTucker(ranks=(3, 3, 4), window=8)
        with pytest.raises(ShapeError):
            StreamingDTucker(ranks=(3, 3, 4), decay=0.9)
        # decay=1.0 is a no-op and therefore fine under refit.
        StreamingDTucker(ranks=(3, 3, 4), decay=1.0)


class TestFailedIngestLeavesStateUntouched:
    """A rejected block must not consume RNG draws or bump accumulators."""

    @pytest.mark.parametrize("update", ["refit", "incremental", "sketch"])
    def test_bad_block_is_a_true_no_op(self, temporal, update) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update=update)
        s.partial_fit(temporal[..., :10])
        rng_before = repr(s._rng.bit_generator.state)
        ssvd_before = s.slice_svd_
        updates_before = s.n_updates_
        history_before = list(s.history_)

        with pytest.raises(ShapeError):
            s.partial_fit(np.ones((16, 11, 5)))  # wrong mode-2 size
        with pytest.raises(ShapeError):
            s.partial_fit(np.ones((16, 12)))  # wrong order

        assert s.n_updates_ == updates_before
        assert s.history_ == history_before
        assert repr(s._rng.bit_generator.state) == rng_before
        after = s.slice_svd_
        np.testing.assert_array_equal(after.u, ssvd_before.u)
        np.testing.assert_array_equal(after.s, ssvd_before.s)

        # The survivor stream is unperturbed: a fresh model that never saw
        # the bad block produces bit-identical results.
        clean = StreamingDTucker(ranks=(3, 3, 4), seed=0, update=update)
        clean.partial_fit(temporal[..., :10])
        s.partial_fit(temporal[..., 10:])
        clean.partial_fit(temporal[..., 10:])
        np.testing.assert_array_equal(s.result_.core, clean.result_.core)

    def test_oversized_slice_rank_before_first_fit(self) -> None:
        s = StreamingDTucker(ranks=(3, 3, 2), slice_rank=10, update="incremental")
        rng_before = repr(s._rng.bit_generator.state)
        with pytest.raises(RankError):
            s.partial_fit(np.ones((4, 4, 6)))
        assert s.n_updates_ == 0
        assert repr(s._rng.bit_generator.state) == rng_before
        with pytest.raises(NotFittedError):
            _ = s.slice_svd_


class TestOBlockCost:
    """KernelStats guard: per update, only the new block's rows are computed."""

    def test_proj_misses_stay_at_block_size(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        block_steps = 4
        misses = []
        hits = []
        for block in _stream_blocks(temporal, block_steps):
            m0 = s.kernel_stats_.misses_for("stream:proj")
            h0 = s.kernel_stats_.hits_for("stream:proj")
            s.partial_fit(block)
            misses.append(s.kernel_stats_.misses_for("stream:proj") - m0)
            hits.append(s.kernel_stats_.hits_for("stream:proj") - h0)
        # O(block): every update computes exactly the new block's slices,
        # regardless of how much history has accumulated ...
        assert misses == [block_steps] * len(misses)
        # ... while the reused (cached) rows grow with the extent.
        assert hits == [0, 4, 8, 12, 16]

    def test_traces_record_cache_deltas(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        s.partial_fit(temporal[..., :10]).partial_fit(temporal[..., 10:])
        updates = [t for t in s.traces_ if t.phase == "stream:update"]
        assert len(updates) == 2
        first, second = (u.counters for u in updates)
        assert first.misses_for("stream:proj") == 10
        assert first.hits_for("stream:proj") == 0
        assert second.misses_for("stream:proj") == 10
        assert second.hits_for("stream:proj") == 10

    def test_order4_counts_slices_not_steps(self, rng) -> None:
        x = random_tensor((8, 7, 4, 6), (2, 2, 2, 2), rng=rng, noise=0.02)
        s = StreamingDTucker(ranks=(2, 2, 2, 2), seed=0, update="incremental")
        s.partial_fit(x[..., :3])
        assert s.kernel_stats_.misses_for("stream:proj") == 12  # 4 * 3 slices
        s.partial_fit(x[..., 3:])
        assert s.kernel_stats_.misses_for("stream:proj") == 24


class TestStreamingAccuracy:
    """Online modes track the refit solution on stationary data."""

    @pytest.mark.parametrize("update", ["incremental", "sketch"])
    def test_error_close_to_refit(self, temporal, update) -> None:
        refit = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        online = StreamingDTucker(ranks=(3, 3, 4), seed=0, update=update)
        for block in _stream_blocks(temporal, 5):
            refit.partial_fit(block)
            online.partial_fit(block)
        assert online.result_.error(temporal) <= refit.result_.error(temporal) + 5e-3

    def test_revise_streaming(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        for block in _stream_blocks(temporal, 5):
            s.partial_fit(block)
        corrected = temporal.copy()
        corrected[..., 5:10] = temporal[..., 5:10] + 0.01
        s.revise(5, corrected[..., 5:10])
        assert s.shape_ == (16, 12, 20)
        assert s.result_.error(corrected) < 0.02


class TestWindow:
    def test_extent_never_exceeds_window(self, temporal) -> None:
        s = StreamingDTucker(
            ranks=(3, 3, 4), seed=0, update="incremental", window=8
        )
        for block in _stream_blocks(temporal, 4):
            s.partial_fit(block)
            assert s.shape_[-1] <= 8
        assert s.shape_ == (16, 12, 8)
        assert s.t_seen_ == 20

    def test_window_matches_scratch_fit_of_tail(self, temporal) -> None:
        s = StreamingDTucker(
            ranks=(3, 3, 4), seed=0, update="incremental", window=8
        )
        for block in _stream_blocks(temporal, 4):
            s.partial_fit(block)
        tail = temporal[..., 12:]
        scratch = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        scratch.partial_fit(tail)
        # Same live data, same ranks: both models reconstruct the tail
        # comparably well (factor bases differ — the windowed model's were
        # initialized on evicted history).
        assert s.result_.error(tail) <= scratch.result_.error(tail) + 1e-2

    def test_block_larger_than_window(self, temporal) -> None:
        s = StreamingDTucker(
            ranks=(3, 3, 4), seed=0, update="incremental", window=4
        )
        s.partial_fit(temporal)  # 20 steps at once, window keeps last 4
        assert s.shape_ == (16, 12, 4)
        tail = temporal[..., -4:]
        assert s.result_.error(tail) < 0.05


class TestDecay:
    def test_decay_scales_historical_energy(self, temporal) -> None:
        plain = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        decayed = StreamingDTucker(
            ranks=(3, 3, 4), seed=0, update="incremental", decay=0.5
        )
        for block in _stream_blocks(temporal, 10):
            plain.partial_fit(block)
            decayed.partial_fit(block)
        n_plain = plain.slice_svd_.slice_norms_squared
        n_dec = decayed.slice_svd_.slice_norms_squared
        # Old slices aged by 10 steps: norms^2 scale by (0.5**10)**2 ...
        np.testing.assert_allclose(n_dec[:10], n_plain[:10] * 0.5 ** 20, rtol=1e-10)
        # ... while the newest block is still at full weight.
        np.testing.assert_allclose(n_dec[10:], n_plain[10:], rtol=1e-10)

    def test_decay_monotone_in_gamma(self, temporal) -> None:
        """Smaller γ leaves less historical energy in the live window."""
        totals = []
        for gamma in (1.0, 0.9, 0.5):
            s = StreamingDTucker(
                ranks=(3, 3, 4), seed=0, update="incremental", decay=gamma
            )
            for block in _stream_blocks(temporal, 5):
                s.partial_fit(block)
            totals.append(s.slice_svd_.norm_squared)
        assert totals[0] > totals[1] > totals[2]

    def test_decay_one_is_noop(self, temporal) -> None:
        base = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        one = StreamingDTucker(
            ranks=(3, 3, 4), seed=0, update="incremental", decay=1.0
        )
        for block in _stream_blocks(temporal, 10):
            base.partial_fit(block)
            one.partial_fit(block)
        np.testing.assert_array_equal(base.result_.core, one.result_.core)


class TestWatchdog:
    def test_triggers_on_drift(self, rng) -> None:
        stale = random_tensor((16, 12, 12), (3, 3, 4), rng=rng, noise=0.01)
        shifted = random_tensor(
            (16, 12, 12), (3, 3, 4), rng=np.random.default_rng(99), noise=0.01
        )
        s = StreamingDTucker(
            ranks=(3, 3, 4),
            seed=0,
            update="incremental",
            drift_budget=0.5,
            window=12,
        )
        for block in _stream_blocks(stale, 4):
            s.partial_fit(block)
        assert s.watchdog_triggers_ == 0
        # Distribution shift: the frozen factors no longer span the data.
        for block in _stream_blocks(shifted, 4):
            s.partial_fit(block)
        assert s.watchdog_triggers_ >= 1
        assert any(t.phase == "stream:watchdog" for t in s.traces_)
        # The refresh actually helped: a twin without a watchdog keeps the
        # stale factors and ends up much worse on the shifted window.
        twin = StreamingDTucker(
            ranks=(3, 3, 4), seed=0, update="incremental", window=12
        )
        for block in _stream_blocks(stale, 4):
            twin.partial_fit(block)
        for block in _stream_blocks(shifted, 4):
            twin.partial_fit(block)
        assert s.history_[-1] < 0.7 * twin.history_[-1]

    def test_no_watchdog_without_budget(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        for block in _stream_blocks(temporal, 5):
            s.partial_fit(block)
        assert s.watchdog_triggers_ == 0
        assert all(t.phase != "stream:watchdog" for t in s.traces_)


class TestIngestQueue:
    def test_backpressure_queue_feeds_partial_fit(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        with s.ingest_queue(depth=1) as q:
            for block in _stream_blocks(temporal, 5):
                q.put(block)
            q.join()
            assert q.n_put == q.n_done == 4
        assert s.n_updates_ == 4
        assert s.shape_ == (16, 12, 20)
        ingest = [t for t in s.traces_ if t.phase == "stream:ingest"]
        assert len(ingest) == 1
        assert ingest[0].n_tasks == 4

    def test_queue_matches_direct_calls(self, temporal) -> None:
        direct = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        for block in _stream_blocks(temporal, 5):
            direct.partial_fit(block)
        queued = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        with queued.ingest_queue() as q:
            for block in _stream_blocks(temporal, 5):
                q.put(block)
        np.testing.assert_array_equal(
            direct.result_.core, queued.result_.core
        )

    def test_consumer_error_reraises_on_put_or_join(self, temporal) -> None:
        from repro.engine import IngestQueue

        def boom(block) -> None:
            raise ValueError("bad block")

        q = IngestQueue(boom, depth=1)
        q.put(temporal[..., :5])
        with pytest.raises(ValueError, match="bad block"):
            q.join()
        with pytest.raises(RuntimeError):
            q.put(temporal[..., :5])  # closed after the failure

    def test_model_queue_surfaces_fit_errors(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        q = s.ingest_queue()
        q.put(temporal[..., :5])
        with pytest.raises(ShapeError):
            q.put(np.ones((16, 11, 5)))
            q.join()

    def test_invalid_depth(self, temporal) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4))
        with pytest.raises(ValueError):
            s.ingest_queue(depth=0)


class TestSaveLoad:
    @pytest.mark.parametrize("update", ["refit", "incremental"])
    def test_resume_is_bit_identical(self, temporal, tmp_path, update) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update=update)
        s.partial_fit(temporal[..., :5]).partial_fit(temporal[..., 5:10])
        s.save(tmp_path / "model")

        loaded = StreamingDTucker.load(tmp_path / "model")
        assert loaded.update == update
        assert loaded.n_updates_ == 2
        assert loaded.t_seen_ == 10
        np.testing.assert_allclose(loaded.history_, s.history_)

        # Resuming the stream gives exactly what the live instance gives:
        # same RNG position, same caches (rebuilt), same factors.
        s.partial_fit(temporal[..., 10:])
        loaded.partial_fit(temporal[..., 10:])
        np.testing.assert_array_equal(loaded.result_.core, s.result_.core)
        for a, b in zip(loaded.result_.factors, s.result_.factors):
            np.testing.assert_array_equal(a, b)

    def test_sketch_round_trip_restores_sketches(self, temporal, tmp_path) -> None:
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="sketch")
        s.partial_fit(temporal[..., :10]).partial_fit(temporal[..., 10:15])
        s.save(tmp_path / "model")
        loaded = StreamingDTucker.load(tmp_path / "model")
        assert loaded._fd1 is not None and loaded._fd2 is not None
        np.testing.assert_array_equal(
            loaded._fd1.sketch(), s._fd1.sketch()
        )
        assert loaded._fd1.n_inserted == s._fd1.n_inserted
        # Resume: the loaded model rebuilds exact projections, the live one
        # carries rotated (approximate) caches — close, not bit-equal.
        s.partial_fit(temporal[..., 15:])
        loaded.partial_fit(temporal[..., 15:])
        np.testing.assert_allclose(
            loaded.result_.core, s.result_.core, atol=1e-4
        )

    def test_window_and_watchdog_state_survive(self, temporal, tmp_path) -> None:
        s = StreamingDTucker(
            ranks=(3, 3, 4),
            seed=0,
            update="incremental",
            window=8,
            decay=0.9,
            drift_budget=5.0,
        )
        for block in _stream_blocks(temporal, 4):
            s.partial_fit(block)
        s.save(tmp_path / "model")
        loaded = StreamingDTucker.load(tmp_path / "model")
        assert loaded.window == 8
        assert loaded.decay == 0.9
        assert loaded.drift_budget == 5.0
        assert loaded.shape_ == (16, 12, 8)
        assert loaded.t_seen_ == 20
        assert loaded._baseline == s._baseline
        assert loaded._ewma == s._ewma

    def test_save_requires_fit(self, tmp_path) -> None:
        with pytest.raises(NotFittedError):
            StreamingDTucker(ranks=(3, 3, 4)).save(tmp_path / "model")

    def test_load_rejects_plain_store(self, temporal, tmp_path) -> None:
        from repro.core.dtucker import DTucker
        from repro.exceptions import StoreFormatError
        from repro.store import ModelStore

        model = DTucker(ranks=(3, 3, 4), seed=0).fit(temporal)
        ModelStore.save(
            tmp_path / "plain",
            slice_svd=model.slice_svd_,
            result=model.result_,
            config=model.config,
        )
        with pytest.raises(StoreFormatError):
            StreamingDTucker.load(tmp_path / "plain")

    def test_saved_store_serves_queries(self, temporal, tmp_path) -> None:
        from repro.store import ModelStore

        s = StreamingDTucker(ranks=(3, 3, 4), seed=0, update="incremental")
        s.partial_fit(temporal)
        s.save(tmp_path / "model")
        store = ModelStore(tmp_path / "model")
        assert store.shape == (16, 12, 20)
        np.testing.assert_allclose(
            store.load_result().core, s.result_.core
        )

    def test_append_parity_with_model_store(self, temporal, tmp_path) -> None:
        """Resumed streaming append == ModelStore.append, slice for slice."""
        from repro.store import ModelStore

        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        s.partial_fit(temporal[..., :10])
        s.save(tmp_path / "a")
        s.save(tmp_path / "b")

        loaded = StreamingDTucker.load(tmp_path / "a")
        rng = np.random.default_rng(0)
        rng.bit_generator.state = loaded._rng.bit_generator.state
        loaded.partial_fit(temporal[..., 10:])

        store = ModelStore(tmp_path / "b").append(temporal[..., 10:], rng=rng)

        # Same RNG stream, same stored slice rank: the compressed
        # representations agree bit for bit.
        got = store.load_slice_svd()
        want = loaded.slice_svd_
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.s, want.s)
        np.testing.assert_array_equal(got.vt, want.vt)
        assert got.shape == want.shape == (16, 12, 20)
        # Factor refreshes differ (warm start vs re-init) but land on
        # equally good decompositions.
        err_stream = loaded.result_.error(temporal)
        err_store = store.load_result().error(temporal)
        assert abs(err_stream - err_store) < 5e-3


class TestIncrementalFlatnessGuard:
    """Incremental per-update latency stays flat as the stream grows.

    The A13 smoke's flatness gate as a guard, with its bound (1.3x from
    T = 64 to T = 768, on the stationary 128 x 96 stream of 16-step
    blocks), judged on the median of 3 repeats: one cold run on a shared
    2-core host read 1.45-1.73x in 1 of 4 runs.
    """

    REPEATS = 3
    BOUND = 1.3
    EXTENTS = (64, 768)
    BLOCK = 16
    #: Updates whose fastest latency stands for an extent (as in A13).
    TAIL = 6

    def _growth(self, x: np.ndarray) -> float:
        import time

        from repro.core.config import DTuckerConfig

        model = StreamingDTucker(
            (6, 6, 8), slice_rank=10, sweeps_per_update=15,
            config=DTuckerConfig(seed=0, tol=1e-12), update="incremental",
        )
        latencies, at = [], {}
        for t0 in range(0, self.EXTENTS[-1], self.BLOCK):
            start = time.perf_counter()
            model.partial_fit(x[:, :, t0 : t0 + self.BLOCK])
            latencies.append(time.perf_counter() - start)
            if t0 + self.BLOCK in self.EXTENTS:
                at[t0 + self.BLOCK] = min(latencies[-self.TAIL :])
        return at[self.EXTENTS[-1]] / at[self.EXTENTS[0]]

    def test_update_latency_is_flat(self) -> None:
        import statistics

        x = random_tensor((128, 96, self.EXTENTS[-1]), (6, 6, 8), rng=0, noise=0.02)
        growth = [self._growth(x) for _ in range(self.REPEATS)]
        assert statistics.median(growth) <= self.BOUND, growth
