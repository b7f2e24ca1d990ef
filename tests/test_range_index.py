"""Tests for the dyadic range index, the serving cache, and batched queries."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker
from repro.exceptions import StoreError, StoreFormatError
from repro.store import (
    ModelStore,
    RangeIndex,
    auto_min_span,
    dyadic_cover,
    merge_scaled_bases,
    read_range_index_dir,
    slice_content_fingerprint,
    write_range_index_dir,
)
from repro.store.range_index import slices_per_step
from repro.tensor.random import random_tensor

RANKS = (4, 4, 4)


@pytest.fixture
def temporal(rng: np.random.Generator) -> np.ndarray:
    """Low-rank + noise tensor whose last mode plays the temporal role."""
    return random_tensor((12, 10, 32), (3, 3, 3), rng=rng, noise=0.05)


def fitted_store(x: np.ndarray, path: Path, **kwargs: object) -> ModelStore:
    ranks = tuple(min(r, d) for r, d in zip(RANKS, x.shape))
    model = DTucker(ranks=ranks, seed=0, **kwargs).fit(x)
    return model.save(path)


# -- dyadic cover and merge arithmetic ---------------------------------------

class TestDyadicCover:
    @pytest.mark.parametrize(
        "t0,t1", [(0, 1), (0, 32), (3, 29), (5, 6), (16, 32), (1, 31), (7, 25)]
    )
    def test_exact_disjoint_ordered_aligned(self, t0: int, t1: int) -> None:
        segments = dyadic_cover(t0, t1)
        covered = []
        for start, span in segments:
            assert span >= 1 and span & (span - 1) == 0  # power of two
            assert start % span == 0  # segment-tree aligned
            covered.extend(range(start, start + span))
        assert covered == list(range(t0, t1))  # exact, disjoint, in order

    def test_segment_count_logarithmic(self) -> None:
        for t0, t1 in [(0, 1024), (1, 1023), (511, 513), (37, 997)]:
            n = len(dyadic_cover(t0, t1))
            assert n <= 2 * int(np.log2(t1 - t0)) + 2

    def test_aligned_range_is_one_segment(self) -> None:
        assert dyadic_cover(0, 32) == [(0, 32)]
        assert dyadic_cover(16, 24) == [(16, 8)]

    @pytest.mark.parametrize("t0,t1", [(-1, 4), (4, 4), (5, 3)])
    def test_rejects_bad_ranges(self, t0: int, t1: int) -> None:
        with pytest.raises(ValueError):
            dyadic_cover(t0, t1)


class TestMergeAndMinSpan:
    def test_merge_preserves_gram_matrix(self, rng: np.random.Generator) -> None:
        blocks = [rng.standard_normal((9, w)) for w in (4, 7, 3)]
        merged = merge_scaled_bases(blocks)
        stacked = np.concatenate(blocks, axis=1)
        assert merged.shape[1] <= min(stacked.shape)
        np.testing.assert_allclose(
            merged @ merged.T, stacked @ stacked.T, atol=1e-10
        )

    def test_merge_is_deterministic(self, rng: np.random.Generator) -> None:
        blocks = [rng.standard_normal((6, 5)), rng.standard_normal((6, 4))]
        np.testing.assert_array_equal(
            merge_scaled_bases(blocks), merge_scaled_bases(list(blocks))
        )

    def test_auto_min_span_reaches_target_width(self) -> None:
        # Width rank*per_step*span must reach max(i1, i2); floor is 2.
        assert auto_min_span(12, 10, 4, 1) == 4
        assert auto_min_span(90, 70, 8, 1) == 16
        assert auto_min_span(4, 4, 8, 1) == 2
        assert auto_min_span(64, 8, 4, 4) == 4

    def test_slices_per_step(self) -> None:
        assert slices_per_step((12, 10, 32)) == 1
        assert slices_per_step((5, 4, 3, 6)) == 3


class TestRangeIndex:
    def test_node_bases_exact_vs_raw_blocks(self, temporal, tmp_path) -> None:
        """A merged node's Gram matrix equals the raw stacked blocks'."""
        store = fitted_store(temporal, tmp_path / "m")
        ssvd = store.load_slice_svd()
        index = RangeIndex(ssvd, 1, min_span=4)
        raw1, raw2 = index._leaf(0, 8)
        p1, p2 = index.node(0, 8)
        np.testing.assert_allclose(p1 @ p1.T, raw1 @ raw1.T, atol=1e-8)
        np.testing.assert_allclose(p2 @ p2.T, raw2 @ raw2.T, atol=1e-8)

    def test_memoization_and_counter(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        ssvd = store.load_slice_svd()
        events: list[bool] = []
        index = RangeIndex(ssvd, 1, min_span=4, counter=events.append)
        index.node(0, 8)
        assert events[0] is False  # computed
        n = index.n_nodes
        index.node(0, 8)
        assert events[-1] is True  # served from the table
        assert index.n_nodes == n

    def test_build_materializes_all_keys(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        ssvd = store.load_slice_svd()
        index = RangeIndex.build(ssvd, 1, min_span=8)
        assert index.n_nodes == len(index.node_keys())
        assert index.nbytes > 0

    def test_cover_bounds_checked(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        index = RangeIndex(store.load_slice_svd(), 1)
        with pytest.raises(ValueError, match="outside"):
            index.cover(0, 33)

    def test_concurrent_node_computation_single_value(
        self, temporal, tmp_path
    ) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        index = RangeIndex(store.load_slice_svd(), 1, min_span=4)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: index.node(0, 16), range(8)))
        first = results[0]
        for p1, p2 in results[1:]:
            assert p1 is first[0] or np.array_equal(p1, first[0])
            assert p2 is first[1] or np.array_equal(p2, first[1])


# -- persisted payload format ------------------------------------------------

class TestIndexPayload:
    def test_write_read_roundtrip(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        index = store.build_index(min_span=8)
        payload = read_range_index_dir(store.path / "index")
        assert payload["extent"] == 32
        assert payload["min_span"] == 8
        assert payload["fingerprint"] == store.content_fingerprint
        snapshot = index.nodes_snapshot()
        assert set(payload["nodes"]) == set(snapshot)
        for key, (p1, p2) in snapshot.items():
            np.testing.assert_array_equal(payload["nodes"][key][0], p1)
            np.testing.assert_array_equal(payload["nodes"][key][1], p2)

    def test_open_uses_persisted_nodes(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index(min_span=8)
        with store.open() as served:
            served.query_time_range(0, 32)
            # The aligned [0, 32) cover is one persisted node: a pure hit.
            counters = served.stats.counters
            assert counters.hits_for("node") >= 1
            assert counters.misses_for("node") == 0

    def test_corrupt_meta_is_typed_error(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index()
        (store.path / "index" / "meta.json").write_text("{not json")
        with pytest.raises(StoreFormatError):
            read_range_index_dir(store.path / "index")

    def test_foreign_format_rejected(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index()
        meta_path = store.path / "index" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = "something.else"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreFormatError, match="range index"):
            read_range_index_dir(store.path / "index")

    def test_misaligned_node_rejected(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index(min_span=8)
        meta_path = store.path / "index" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["nodes"][0][0] = 3  # start no longer aligned to its span
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreFormatError):
            read_range_index_dir(store.path / "index")

    def test_stale_fingerprint_rejected_at_open(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index()
        meta_path = store.path / "index" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["fingerprint"] = "0" * len(meta["fingerprint"])
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreFormatError, match="stale"):
            ModelStore(store.path).open()

    def test_describe_flags_stale_index(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index()
        meta_path = store.path / "index" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["fingerprint"] = "0" * len(meta["fingerprint"])
        meta_path.write_text(json.dumps(meta))
        assert "STALE" in ModelStore(store.path).describe()

    def test_drop_index(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index()
        assert store.has_index
        store.drop_index()
        assert not store.has_index
        with store.open() as served:  # serving falls back to lazy nodes
            served.query_time_range(0, 8)

    def test_save_without_index_drops_stale_payload(
        self, temporal, tmp_path
    ) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index()
        ranks = tuple(min(r, d) for r, d in zip(RANKS, temporal.shape))
        DTucker(ranks=ranks, seed=1).fit(temporal).save(
            store.path, overwrite=True
        )
        assert not ModelStore(store.path).has_index


# -- bit-identity of the serving paths ---------------------------------------

class TestBitIdentity:
    QUERIES = [(0, 8), (8, 24), (3, 29), (30, 32)]

    def _answers(self, store: ModelStore, **open_kwargs: object):
        with store.open(warm_start=False, **open_kwargs) as served:
            return [served.query_time_range(a, b) for a, b in self.QUERIES]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_indexed_vs_unindexed(self, temporal, tmp_path, backend) -> None:
        """Persisted index, lazy index, and no index: identical bits."""
        store = fitted_store(
            temporal,
            tmp_path / backend,
            config=DTuckerConfig(backend=backend, n_workers=2),
        )
        plain = self._answers(store, use_index=False, cache_size=0)
        lazy = self._answers(store)
        store.build_index()
        persisted = self._answers(store)
        for a, b, c in zip(plain, lazy, persisted):
            np.testing.assert_array_equal(a.core, b.core)
            np.testing.assert_array_equal(a.core, c.core)
            for fa, fb in zip(a.factors, b.factors):
                np.testing.assert_array_equal(fa, fb)
            for fa, fc in zip(a.factors, c.factors):
                np.testing.assert_array_equal(fa, fc)

    def test_exact_cache_hit_returns_same_object(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            first = served.query_time_range(2, 14)
            again = served.query_time_range(2, 14)
            assert again is first
            assert served.stats.cache_hits == 1

    def test_warm_start_close_but_flagged(self, temporal, tmp_path) -> None:
        """Warm-started answers converge to tolerance and are recorded.

        A warm start seeds ALS from an overlapping range's factors, so it
        reaches the same objective but not necessarily the same bits —
        which is exactly why it is telemetry-flagged and separately
        switchable (``warm_start=False`` restores determinism).
        """
        store = fitted_store(temporal, tmp_path / "m")
        sub = temporal[..., 4:28]
        with store.open(use_index=False, cache_size=0, warm_start=False) as served:
            cold = served.query_time_range(4, 28)
        with store.open() as served:
            served.query_time_range(0, 24)  # overlapping seed entry
            warm = served.query_time_range(4, 28)
            assert served.stats.warm_starts == 1
            assert served.stats.by_cache()["warm"] == 1
        assert warm.error(sub) == pytest.approx(cold.error(sub), rel=0.05)


# -- LRU cache behaviour -----------------------------------------------------

class TestQueryCache:
    def test_eviction_bounds(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        with store.open(cache_size=3) as served:
            assert served.cache_size == 3
            for t0 in range(5):
                served.query_time_range(t0, t0 + 4)
            assert served.cached_queries == 3
            # Oldest entries were evicted: re-asking recomputes, not hits.
            hits_before = served.stats.cache_hits
            served.query_time_range(0, 4)
            assert served.stats.cache_hits == hits_before

    def test_cache_disabled(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        with store.open(cache_size=0, warm_start=False) as served:
            a = served.query_time_range(0, 8)
            b = served.query_time_range(0, 8)
            assert a is not b
            assert served.cached_queries == 0
            np.testing.assert_array_equal(a.core, b.core)

    def test_rank_override_distinct_keys(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        with store.open(warm_start=False) as served:
            a = served.query_time_range(0, 16)
            b = served.query_time_range(0, 16, ranks=(2, 2, 2))
            assert a.ranks != b.ranks
            assert served.cached_queries == 2
            assert served.stats.cache_hits == 0

    def test_clear_cache(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            served.query_time_range(0, 8)
            assert served.cached_queries == 1
            served.clear_cache()
            assert served.cached_queries == 0


# -- batched queries ---------------------------------------------------------

class TestQueryMany:
    def test_order_and_dedup(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        ranges = [(0, 8), (8, 16), (0, 8), (16, 32)]
        with store.open() as served:
            answers = served.query_many(ranges)
            assert len(answers) == len(ranges)
            assert answers[0] is answers[2]  # duplicates share one answer
            for (t0, t1), local in zip(ranges, answers):
                assert local.shape[-1] == t1 - t0

    def test_matches_individual_queries(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        ranges = [(0, 8), (4, 20), (20, 32)]
        with store.open(warm_start=False) as served:
            individual = [served.query_time_range(a, b) for a, b in ranges]
        with store.open(warm_start=False) as served:
            batched = served.query_many(ranges, max_workers=3)
        for a, b in zip(individual, batched):
            np.testing.assert_array_equal(a.core, b.core)
            for fa, fb in zip(a.factors, b.factors):
                np.testing.assert_array_equal(fa, fb)

    def test_concurrent_mixed_workload(self, temporal, tmp_path) -> None:
        """query_many, query_time_range and reconstruct racing on one model."""
        store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            expected = served.reconstruct()
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(served.query_many, [(0, 8), (8, 24)]),
                    pool.submit(served.query_time_range, 3, 29),
                    pool.submit(served.reconstruct),
                    pool.submit(served.query_many, [(0, 8), (3, 29)]),
                ]
                results = [f.result() for f in futures]
            np.testing.assert_array_equal(results[2], expected)
            assert served.stats.n_queries >= 4

    def test_rejects_bad_ranges_before_work(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            with pytest.raises(StoreError):
                served.query_many([(0, 8), (30, 99)])
            assert served.stats.n_queries == 0

    def test_closed_model_raises(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        served = store.open()
        served.query_many([(0, 8)])
        served.close()
        with pytest.raises(StoreError, match="closed"):
            served.query_many([(0, 8)])


# -- append integration ------------------------------------------------------

class TestAppendIndex:
    def test_append_extends_index(self, temporal, rng, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index(min_span=8)
        block = random_tensor((12, 10, 16), (3, 3, 3), rng=rng, noise=0.05)
        store.append(block)
        assert store.has_index
        payload = read_range_index_dir(store.path / "index")
        assert payload["extent"] == 48
        assert payload["fingerprint"] == store.content_fingerprint
        # Answers through the refreshed index match a from-scratch open.
        with store.open(warm_start=False) as served:
            indexed = served.query_time_range(24, 44)
        with store.open(use_index=False, cache_size=0, warm_start=False) as served:
            plain = served.query_time_range(24, 44)
        np.testing.assert_array_equal(indexed.core, plain.core)

    def test_append_without_index_stays_absent(
        self, temporal, rng, tmp_path
    ) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        block = random_tensor((12, 10, 16), (3, 3, 3), rng=rng, noise=0.05)
        store.append(block)
        assert not store.has_index

    def test_append_with_corrupt_index_raises(
        self, temporal, rng, tmp_path
    ) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        store.build_index()
        (store.path / "index" / "meta.json").write_text("{not json")
        block = random_tensor((12, 10, 16), (3, 3, 3), rng=rng, noise=0.05)
        with pytest.raises(StoreFormatError):
            store.append(block)


# -- serving stats -----------------------------------------------------------

class TestServingStats:
    def test_summary_includes_cache_breakdown(self, temporal, tmp_path) -> None:
        store = fitted_store(temporal, tmp_path / "m")
        with store.open() as served:
            served.query_time_range(0, 8)
            served.query_time_range(0, 8)
            summary = served.stats.summary()
        assert "cache=1h/1m" in summary
        assert "nodes=" in summary

    def test_record_is_thread_safe(self) -> None:
        from repro.store import ServingStats

        stats = ServingStats()

        def spam(i: int) -> None:
            for _ in range(200):
                stats.record("time_range", 0.0, 1, cache="hit")

        threads = [threading.Thread(target=spam, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.n_queries == 1600
        assert stats.cache_hits == 1600


# -- CLI ---------------------------------------------------------------------

class TestCli:
    @pytest.fixture
    def store_dir(self, temporal, tmp_path) -> Path:
        path = tmp_path / "store"
        np.save(tmp_path / "x.npy", temporal)
        assert (
            main(
                [
                    "fit",
                    str(tmp_path / "x.npy"),
                    "--ranks",
                    "3,3,3",
                    "--save",
                    str(path),
                    "--index",
                ]
            )
            == 0
        )
        return path

    def test_fit_index_persists(self, store_dir, capsys) -> None:
        assert ModelStore(store_dir).has_index
        assert main(["inspect", str(store_dir)]) == 0
        assert "range index" in capsys.readouterr().out

    def test_query_ranges_batch(self, store_dir, capsys) -> None:
        assert (
            main(["query", str(store_dir), "--ranges", "0:8,8:16,0:8"]) == 0
        )
        out = capsys.readouterr().out
        assert out.count("time range [") == 3
        assert "cache" in out

    def test_query_block_reconstructs(self, store_dir, capsys) -> None:
        assert main(["query", str(store_dir), "--block", "0:5,:,2:4"]) == 0
        assert "shape=(5, 10, 2)" in capsys.readouterr().out

    def test_query_requires_one_mode(self, store_dir, capsys) -> None:
        assert main(["query", str(store_dir)]) == 2
        assert (
            main(
                [
                    "query",
                    str(store_dir),
                    "--time-range",
                    "0:8",
                    "--ranges",
                    "0:8",
                ]
            )
            == 2
        )

    def test_index_build_and_drop(self, store_dir, capsys) -> None:
        assert main(["index", str(store_dir), "--drop"]) == 0
        assert not ModelStore(store_dir).has_index
        assert main(["index", str(store_dir), "--min-span", "8"]) == 0
        assert ModelStore(store_dir).has_index
        out = capsys.readouterr().out
        assert "min_span 8" in out
