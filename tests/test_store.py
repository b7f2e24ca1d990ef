"""Tests for the persistent model store and the serving layer."""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker
from repro.core.fit_pipeline import FitPipeline
from repro.core.result import TuckerResult
from repro.core.slice_svd import SliceSVD, compress
from repro.core.sources import DenseSource
from repro.exceptions import ShapeError, StoreError, StoreFormatError
from repro.store import (
    MANIFEST_NAME,
    ModelStore,
    ServedModel,
    read_manifest,
    read_slice_svd_archive,
    read_tucker_archive,
    write_slice_svd_archive,
    write_tucker_archive,
)
from repro.tensor.random import random_tensor, random_tucker


@pytest.fixture
def temporal(rng: np.random.Generator) -> np.ndarray:
    """Low-rank + noise tensor whose last mode plays the temporal role."""
    return random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.05)


def fitted_store(x: np.ndarray, path: Path, **kwargs: object) -> tuple[DTucker, ModelStore]:
    model = DTucker(ranks=(3, 3, 3), seed=0, **kwargs).fit(x)
    return model, model.save(path)


class TestSaveAndManifest:
    def test_roundtrip_bit_identity(self, temporal, tmp_path) -> None:
        model, store = fitted_store(temporal, tmp_path / "m")
        served = store.open()
        np.testing.assert_array_equal(
            served.result.core, model.result_.core
        )
        for a, b in zip(served.result.factors, model.result_.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(served.slice_svd.u, model.slice_svd_.u)
        np.testing.assert_array_equal(
            served.reconstruct(), model.result_.reconstruct()
        )
        served.close()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_roundtrip_identical_across_backends(
        self, temporal, tmp_path, backend
    ) -> None:
        """fit → save → load → reconstruct is bit-identical on every backend."""
        reference = DTucker(ranks=(3, 3, 3), seed=0).fit(temporal)
        model = DTucker(
            ranks=(3, 3, 3),
            seed=0,
            config=DTuckerConfig(backend=backend, n_workers=2),
        ).fit(temporal)
        store = model.save(tmp_path / backend)
        with ModelStore(store.path).open() as served:
            np.testing.assert_array_equal(
                served.reconstruct(), reference.result_.reconstruct()
            )

    def test_manifest_metadata_without_payloads(self, temporal, tmp_path) -> None:
        model, store = fitted_store(temporal, tmp_path / "m")
        fresh = ModelStore(store.path)
        assert fresh.shape == temporal.shape
        assert fresh.ranks == (3, 3, 3)
        assert fresh.slice_rank == model.slice_svd_.rank
        assert fresh.nbytes > 0
        assert fresh.compression_ratio == pytest.approx(
            model.compression_ratio_
        )
        assert fresh.config == model.config
        assert fresh.manifest["fit"]["history"] == model.history_

    def test_refuses_overwrite_by_default(self, temporal, tmp_path) -> None:
        model, store = fitted_store(temporal, tmp_path / "m")
        with pytest.raises(StoreError, match="overwrite"):
            model.save(store.path)
        model.save(store.path, overwrite=True)  # explicit opt-in works

    def test_missing_store(self, tmp_path) -> None:
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path / "nothing")

    def test_corrupt_manifest_typed_error(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        (store.path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StoreFormatError, match="JSON"):
            read_manifest(store.path)

    def test_foreign_manifest_rejected(self, tmp_path) -> None:
        p = tmp_path / "m"
        p.mkdir()
        (p / MANIFEST_NAME).write_text(json.dumps({"format": "something.else"}))
        with pytest.raises(StoreFormatError, match="model store"):
            read_manifest(p)

    def test_future_version_rejected(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        manifest = json.loads((store.path / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (store.path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="upgrade"):
            read_manifest(store.path)

    def test_missing_key_typed_error_not_keyerror(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        manifest = json.loads((store.path / MANIFEST_NAME).read_text())
        del manifest["ranks"]
        (store.path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="ranks"):
            read_manifest(store.path)

    def test_store_with_retired_device_key_opens_and_answers(
        self, temporal, tmp_path
    ) -> None:
        """Manifests written before DTuckerConfig lost ``device`` carry it."""
        model, store = fitted_store(temporal, tmp_path / "m")
        with store.open(warm_start=False) as served:
            expected = served.query_time_range(2, 8)
        manifest = json.loads((store.path / MANIFEST_NAME).read_text())
        manifest["config"]["device"] = "auto"
        (store.path / MANIFEST_NAME).write_text(json.dumps(manifest))
        old = ModelStore(store.path)
        assert old.config == model.config
        with old.open(warm_start=False) as served:
            got = served.query_time_range(2, 8)
        np.testing.assert_array_equal(got.core, expected.core)
        for a, b in zip(got.factors, expected.factors):
            np.testing.assert_array_equal(a, b)

    def test_store_with_retired_schedule_key_opens_and_answers(
        self, temporal, tmp_path
    ) -> None:
        """Manifests written before DTuckerConfig lost ``schedule`` carry it."""
        model, store = fitted_store(temporal, tmp_path / "m")
        with store.open(warm_start=False) as served:
            expected = served.query_time_range(2, 8)
        manifest = json.loads((store.path / MANIFEST_NAME).read_text())
        manifest["config"]["schedule"] = "dynamic"
        (store.path / MANIFEST_NAME).write_text(json.dumps(manifest))
        old = ModelStore(store.path)
        assert old.config == model.config
        with old.open(warm_start=False) as served:
            got = served.query_time_range(2, 8)
        np.testing.assert_array_equal(got.core, expected.core)
        for a, b in zip(got.factors, expected.factors):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("shards", 3),
            ("shards", None),
            ("exact_slice_svd", False),
            ("exact_slice_svd", True),
        ],
    )
    def test_store_with_retired_sharding_or_exact_key_opens_and_answers(
        self, temporal, tmp_path, key, value
    ) -> None:
        """Manifests written before DTuckerConfig lost ``shards`` and
        ``exact_slice_svd`` carry them; both are dropped on open."""
        model, store = fitted_store(temporal, tmp_path / "m")
        with store.open(warm_start=False) as served:
            expected = served.query_time_range(2, 8)
        manifest = json.loads((store.path / MANIFEST_NAME).read_text())
        manifest["config"][key] = value
        (store.path / MANIFEST_NAME).write_text(json.dumps(manifest))
        old = ModelStore(store.path)
        assert old.config == model.config
        with old.open(warm_start=False) as served:
            got = served.query_time_range(2, 8)
        np.testing.assert_array_equal(got.core, expected.core)
        for a, b in zip(got.factors, expected.factors):
            np.testing.assert_array_equal(a, b)

    def test_unknown_config_key_still_rejected(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        manifest = json.loads((store.path / MANIFEST_NAME).read_text())
        manifest["config"]["gpu_count"] = 2
        (store.path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="gpu_count"):
            ModelStore(store.path).config
        with pytest.raises(StoreFormatError, match="gpu_count"):
            ModelStore(store.path).open()

    def test_pipeline_save_emits_store(self, temporal, tmp_path) -> None:
        pipeline = FitPipeline((3, 3, 3), config=DTuckerConfig(seed=0))
        fit = pipeline.fit(DenseSource(temporal), save=tmp_path / "p")
        with ModelStore(tmp_path / "p").open() as served:
            np.testing.assert_array_equal(
                served.reconstruct(), fit.result.reconstruct()
            )


def _answer(store: ModelStore, t0: int, t1: int) -> TuckerResult:
    with store.open(warm_start=False, cache_size=0) as served:
        return served.query_time_range(t0, t1)


class TestParentFormatSliceSvdModes:
    """Stores written while the config carried a slice-SVD mode still open.

    Every earlier manifest records ``strategy`` (``rsvd``, ``auto``,
    ``gram`` or ``exact``); the oldest record ``exact_slice_svd: true``
    instead.  Each opens, answers exactly like the unedited store, and
    appends with the one slice-SVD rule.
    """

    PARENT_CONFIGS = {
        "rsvd": {"strategy": "rsvd"},
        "auto": {"strategy": "auto"},
        "gram": {"strategy": "gram"},
        "exact": {"strategy": "exact"},
        "exact_slice_svd": {"exact_slice_svd": True},
    }

    @pytest.mark.parametrize("mode", list(PARENT_CONFIGS))
    def test_opens_answers_and_appends_with_the_one_rule(
        self, rng, tmp_path, mode
    ) -> None:
        x = random_tensor((14, 12, 16), (3, 3, 3), rng=rng, noise=0.05)
        model = DTucker(ranks=(3, 3, 3), seed=0).fit(x[..., :10])
        ref = model.save(tmp_path / "ref")
        old = model.save(tmp_path / "old")
        manifest = json.loads((old.path / MANIFEST_NAME).read_text())
        manifest["config"].update(self.PARENT_CONFIGS[mode])
        (old.path / MANIFEST_NAME).write_text(json.dumps(manifest))

        old = ModelStore(old.path)
        assert old.config == model.config
        want, got = (_answer(store, 2, 8) for store in (ref, old))
        np.testing.assert_array_equal(got.core, want.core)
        for a, b in zip(got.factors, want.factors):
            np.testing.assert_array_equal(a, b)

        want = ref.append(x[..., 10:], rng=1).load_slice_svd()
        got = old.append(x[..., 10:], rng=1).load_slice_svd()
        for name in ("u", "s", "vt", "slice_norms_squared"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        appended = ModelStore(old.path)
        assert appended.config == model.config
        assert "strategy" not in appended.manifest["config"]

    def test_stream_with_a_strategy_resumes(self, rng, tmp_path) -> None:
        from repro.core.streaming import StreamingDTucker

        x = random_tensor((16, 12, 20), (3, 3, 3), rng=rng, noise=0.05)
        stream = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        stream.partial_fit(x[..., :5]).partial_fit(x[..., 5:10])
        stream.save(tmp_path / "s")
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        manifest["config"]["strategy"] = "auto"
        (tmp_path / "s" / MANIFEST_NAME).write_text(json.dumps(manifest))

        loaded = StreamingDTucker.load(tmp_path / "s")
        np.testing.assert_array_equal(loaded.result_.core, stream.result_.core)
        loaded.partial_fit(x[..., 10:])
        stream.partial_fit(x[..., 10:])
        assert loaded.shape_ == (16, 12, 20)
        np.testing.assert_array_equal(loaded.result_.core, stream.result_.core)


class TestServedQueries:
    def test_reconstruct_subtensor(self, temporal, tmp_path) -> None:
        model, store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            block = served.reconstruct([(2, 7), None, (1, 9)])
            np.testing.assert_array_equal(
                block, model.result_.reconstruct()[2:7, :, 1:9]
            )

    def test_reconstruct_bad_range(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            with pytest.raises(StoreError, match="mode 0"):
                served.reconstruct([(0, 99), None, None])
            with pytest.raises(StoreError, match="3 index ranges"):
                served.reconstruct([(0, 2)])

    def test_query_time_range_matches_full_refit_accuracy(
        self, temporal, tmp_path
    ) -> None:
        """A served range query is as accurate as refitting from scratch."""
        model, store = fitted_store(temporal, tmp_path / "m")
        t0, t1 = 2, 9
        sub = temporal[..., t0:t1]
        with store.open() as served:
            local = served.query_time_range(t0, t1)
        direct = DTucker(ranks=(3, 3, 3), seed=0).fit(sub)
        assert local.shape == sub.shape
        # The recombined answer must land within the fitted model's own
        # reconstruction-error bound (generous slack: both are ~noise level).
        budget = max(2.0 * direct.result_.error(sub), 1.5 * model.history_[-1])
        assert local.error(sub) <= budget

    def test_query_time_range_full_extent_matches_refit(
        self, temporal, tmp_path
    ) -> None:
        model, store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            local = served.query_time_range(0, temporal.shape[-1])
        refit = model.refit()
        np.testing.assert_allclose(
            local.reconstruct(), refit.reconstruct(), atol=1e-10
        )

    def test_query_out_of_range(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            with pytest.raises(StoreError, match="time range"):
                served.query_time_range(5, 99)

    def test_query_rank_clipped_to_range(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            local = served.query_time_range(4, 6)  # extent 2 < rank 3
        assert local.ranks == (3, 3, 2)

    def test_order4_time_geometry(self, rng, tmp_path) -> None:
        x = random_tensor((8, 7, 4, 6), (2, 2, 2, 2), rng=rng, noise=0.05)
        model = DTucker(ranks=(2, 2, 2, 2), seed=0).fit(x)
        store = model.save(tmp_path / "m4")
        with store.open() as served:
            local = served.query_time_range(1, 4)
            sub = x[..., 1:4]
            assert local.shape == sub.shape
            direct = DTucker(ranks=(2, 2, 2, 2), seed=0).fit(sub)
            assert local.error(sub) <= 2.0 * direct.result_.error(sub) + 1e-6

    def test_permuted_store_round_trips(self, temporal, tmp_path) -> None:
        """slice_modes permutation survives save/open; answers stay aligned."""
        model = DTucker(ranks=(3, 3, 3), seed=0, slice_modes=(1, 0)).fit(temporal)
        store = model.save(tmp_path / "perm")
        with store.open() as served:
            assert served.shape == temporal.shape
            np.testing.assert_array_equal(
                served.reconstruct(), model.result_.reconstruct()
            )
            local = served.query_time_range(0, temporal.shape[-1])
            np.testing.assert_allclose(
                local.reconstruct(), model.refit().reconstruct(), atol=1e-10
            )

    def test_temporal_mode_in_slice_plane_rejected(self, temporal, tmp_path) -> None:
        model = DTucker(ranks=(3, 3, 3), seed=0, slice_modes=(0, 2)).fit(temporal)
        store = model.save(tmp_path / "m")
        with store.open() as served:
            with pytest.raises(StoreError, match="temporal"):
                served.query_time_range(0, 2)

    def test_served_refit_new_ranks(self, temporal, tmp_path) -> None:
        model, store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            smaller = served.refit((2, 2, 2))
        np.testing.assert_allclose(
            smaller.reconstruct(), model.refit((2, 2, 2)).reconstruct(),
            atol=1e-10,
        )

    def test_telemetry_records_queries(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            served.reconstruct()
            served.query_time_range(0, 4)
            served.query_time_range(4, 8)
            stats = served.stats
            assert stats.n_queries == 3
            assert stats.by_kind() == {"reconstruct": 1, "time_range": 2}
            assert stats.total_seconds >= 0.0
            assert "queries=3" in stats.summary()


class TestConcurrentServing:
    def test_concurrent_readers_bit_identical(self, temporal, tmp_path) -> None:
        """N threads on one ServedModel return exactly the serial answers."""
        _, store = fitted_store(temporal, tmp_path / "m")
        steps = temporal.shape[-1]
        jobs = [(t, min(t + 4, steps)) for t in range(0, steps - 1, 2)] * 3
        with store.open() as served:
            serial = [served.query_time_range(t0, t1).reconstruct() for t0, t1 in jobs]
            with ThreadPoolExecutor(max_workers=6) as pool:
                concurrent = list(
                    pool.map(
                        lambda j: served.query_time_range(*j).reconstruct(), jobs
                    )
                )
            threads_seen = {
                r.thread for r in served.stats.records if r.kind == "time_range"
            }
        for a, b in zip(serial, concurrent):
            np.testing.assert_array_equal(a, b)
        assert len(threads_seen) > 1  # genuinely served from multiple threads

    def test_concurrent_mixed_queries(self, temporal, tmp_path) -> None:
        model, store = fitted_store(temporal, tmp_path / "m")
        full = model.result_.reconstruct()

        def job(i: int) -> None:
            with_store = i % 2 == 0
            if with_store:
                t0 = i % 5
                local = served.query_time_range(t0, t0 + 3)
                assert local.shape == temporal.shape[:-1] + (3,)
            else:
                lo = i % 4
                block = served.reconstruct([(lo, lo + 3), None, None])
                np.testing.assert_array_equal(block, full[lo : lo + 3])

        with store.open() as served:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(job, range(24)))
            assert served.stats.n_queries == 24

    def test_close_releases_engines(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        served = store.open()
        served.query_time_range(0, 4)
        served.close()
        with pytest.raises(StoreError, match="closed"):
            served.query_time_range(0, 4)


class TestFreshProcess:
    def test_saved_model_serves_in_new_process(self, temporal, tmp_path) -> None:
        """Acceptance: fit once, reopen elsewhere, answer within the error bound."""
        model, store = fitted_store(temporal, tmp_path / "m")
        np.save(tmp_path / "x.npy", temporal)
        code = (
            "import sys, numpy as np\n"
            "from repro.store import ModelStore\n"
            "x = np.load(sys.argv[2])\n"
            "with ModelStore(sys.argv[1]).open() as served:\n"
            "    local = served.query_time_range(2, 9)\n"
            "    err = local.error(x[..., 2:9])\n"
            "    bound = served.estimated_error\n"
            "print(err, bound)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(store.path), str(tmp_path / "x.npy")],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        err, bound = (float(v) for v in out.stdout.split())
        assert bound == pytest.approx(model.history_[-1])
        # A local query on fewer timesteps can only fit better (plus slack).
        assert err <= 1.5 * bound


class TestAppend:
    def test_append_extends_without_recompression(self, rng, tmp_path) -> None:
        combined = random_tensor((14, 12, 14), (3, 3, 3), rng=rng, noise=0.05)
        x, block = combined[..., :10], combined[..., 10:]
        model = DTucker(ranks=(3, 3, 3), seed=0).fit(x)
        store = model.save(tmp_path / "m")
        store.append(block, rng=1)
        assert store.shape == (14, 12, 14)
        assert store.manifest["appends"] == 1
        with store.open() as served:
            assert served.shape == (14, 12, 14)
            local = served.query_time_range(10, 14)
            assert local.error(block) < 0.1  # appended range is answerable
            full = served.refit((3, 3, 3))
            assert full.error(combined) < 0.1

    def test_append_shape_mismatch(self, temporal, tmp_path) -> None:
        _, store = fitted_store(temporal, tmp_path / "m")
        with pytest.raises(StoreError, match="every mode but the last"):
            store.append(np.zeros((5, 5, 2)))

    def test_append_rejected_when_temporal_mode_permuted(
        self, temporal, tmp_path
    ) -> None:
        model = DTucker(ranks=(3, 3, 3), seed=0, slice_modes=(0, 2)).fit(temporal)
        store = model.save(tmp_path / "m")
        with pytest.raises(StoreError, match="temporal"):
            store.append(temporal[..., :2])


class TestEstimatorPersistence:
    def test_save_load_refit_equivalent(self, temporal, tmp_path) -> None:
        model, _ = fitted_store(temporal, tmp_path / "m")
        back = DTucker.load(tmp_path / "m")
        assert back.permutation_ == model.permutation_
        assert back.history_ == model.history_
        assert back.converged_ == model.converged_
        assert back.compression_ratio_ == pytest.approx(model.compression_ratio_)
        np.testing.assert_array_equal(
            back.result_.reconstruct(), model.result_.reconstruct()
        )
        np.testing.assert_allclose(
            back.refit((2, 2, 2)).reconstruct(),
            model.refit((2, 2, 2)).reconstruct(),
            atol=1e-10,
        )

    def test_load_restores_timings_summary(self, temporal, tmp_path) -> None:
        model, _ = fitted_store(temporal, tmp_path / "m")
        back = DTucker.load(tmp_path / "m")
        assert back.timings_.phases == pytest.approx(model.timings_.phases)


class TestDirRoundtrips:
    def test_slice_svd_to_from_dir(self, lowrank3, tmp_path) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        ssvd.to_dir(tmp_path / "s")
        for mmap in (False, True):
            back = SliceSVD.from_dir(tmp_path / "s", mmap=mmap)
            np.testing.assert_array_equal(back.u, ssvd.u)
            np.testing.assert_array_equal(back.s, ssvd.s)
            np.testing.assert_array_equal(back.vt, ssvd.vt)
            assert back.shape == ssvd.shape
            assert back.norm_squared == ssvd.norm_squared
            np.testing.assert_array_equal(
                back.slice_norms_squared, ssvd.slice_norms_squared
            )

    def test_tucker_to_from_dir(self, rng, tmp_path) -> None:
        core, factors = random_tucker((6, 5, 4), (3, 2, 2), rng)
        result = TuckerResult(core=core, factors=factors, elapsed=1.25)
        result.to_dir(tmp_path / "t")
        for mmap in (False, True):
            back = TuckerResult.from_dir(tmp_path / "t", mmap=mmap)
            np.testing.assert_array_equal(back.core, result.core)
            for a, b in zip(back.factors, result.factors):
                np.testing.assert_array_equal(a, b)
            assert back.elapsed == 1.25

    def test_foreign_dir_rejected(self, tmp_path) -> None:
        p = tmp_path / "d"
        p.mkdir()
        (p / "meta.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(StoreFormatError, match="slice-SVD"):
            SliceSVD.from_dir(p)
        with pytest.raises(StoreFormatError, match="Tucker"):
            TuckerResult.from_dir(p)

    def test_missing_payload_typed_error(self, lowrank3, tmp_path) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        ssvd.to_dir(tmp_path / "s")
        (tmp_path / "s" / "vt.npy").unlink()
        with pytest.raises(StoreFormatError, match="vt.npy"):
            SliceSVD.from_dir(tmp_path / "s")

    def test_size_properties(self, lowrank3) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        dense = lowrank3.size * lowrank3.itemsize
        assert ssvd.compression_ratio == pytest.approx(dense / ssvd.nbytes)
        core, factors = random_tucker((12, 10, 8), (3, 2, 2), np.random.default_rng(0))
        result = TuckerResult(core=core, factors=factors)
        assert result.nbytes == core.nbytes + sum(a.nbytes for a in factors)


class TestArchiveErrors:
    def test_missing_factor_key_typed(self, rng, tmp_path) -> None:
        """Truncated Tucker archives raise StoreFormatError, not KeyError."""
        core, factors = random_tucker((6, 5, 4), (3, 2, 2), rng)
        p = tmp_path / "t.npz"
        np.savez(p, format=np.array("repro.tucker.v1"), core=core, factor_0=factors[0])
        with pytest.raises(StoreFormatError, match="factor_1"):
            read_tucker_archive(p)

    def test_missing_slice_key_typed(self, lowrank3, tmp_path) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        p = tmp_path / "s.npz"
        np.savez(
            p,
            format=np.array("repro.slice_svd.v1"),
            u=ssvd.u,
            s=ssvd.s,
            shape=np.array(ssvd.shape),
            norm_squared=np.array(ssvd.norm_squared),
        )
        with pytest.raises(StoreFormatError, match="vt"):
            read_slice_svd_archive(p)

    def test_not_a_zipfile_typed(self, tmp_path) -> None:
        p = tmp_path / "junk.npz"
        p.write_bytes(b"this is not an archive")
        with pytest.raises(StoreFormatError, match="cannot read"):
            read_slice_svd_archive(p)

    def test_errors_still_catchable_as_shape_error(self, rng, tmp_path) -> None:
        """Back-compat: historical except ShapeError handlers keep working."""
        core, factors = random_tucker((5, 4, 3), (2, 2, 2), rng)
        p = write_tucker_archive(TuckerResult(core=core, factors=factors), tmp_path / "t")
        with pytest.raises(ShapeError):
            read_slice_svd_archive(p)


class TestDeprecatedWrappers:
    def test_import_is_silent(self) -> None:
        """Importing repro must emit no DeprecationWarning."""
        out = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro, repro.store",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert out.returncode == 0, out.stderr


class TestPublicSurface:
    def test_reexports(self) -> None:
        import repro

        assert repro.ModelStore is ModelStore
        assert repro.ServedModel is ServedModel
        for name in (
            "ModelStore",
            "ServedModel",
            "ServingStats",
            "StoreError",
            "StoreFormatError",
        ):
            assert name in repro.__all__

    def test_write_then_open_via_top_level(self, temporal, tmp_path) -> None:
        import repro

        model = repro.DTucker(ranks=(3, 3, 3), seed=0).fit(temporal)
        store = model.save(tmp_path / "m")
        assert isinstance(store, repro.ModelStore)
        with repro.ModelStore(tmp_path / "m").open() as served:
            assert isinstance(served, repro.ServedModel)
