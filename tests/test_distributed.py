"""Tests for the distributed layer: sharded sources + reduce-only coordinator.

Covers the three distribution guarantees:

* **Bit-identity** — a fit through a :class:`ShardedSource` (partitioned
  or manifest-backed, even/uneven shard counts) equals the equivalent
  single-source fit bit for bit on every backend, because compression is
  shard-local with a shared sketch and slice-local kernels.
* **Reduce-only traffic** — on the process backend only the stacked
  factor products cross shard boundaries: ``comm:ship`` accounts exactly
  ``(I1+I2+1)·K`` numbers (plus one norm) per slice, never a raw slab.
* **Spawn-safety** — every source pickles itself into a
  ``spawn``-start-method subprocess (the strictest pickling regime),
  reads back identical bytes and compresses to identical factors.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import sys
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DenseSource,
    DTuckerConfig,
    FitPipeline,
    NpySource,
    SparseSource,
    compress_source,
)
from repro.core.iteration import als_sweeps
from repro.core.initialization import initialize
from repro.distributed import (
    GroupSource,
    ShardCoordinator,
    ShardedSource,
    SliceSpanSource,
    distributed_als_sweeps,
    partition_extent,
    write_manifest,
    write_npy_shards,
)
from repro.exceptions import BackendError, ShapeError
from repro.kernels import KernelStats, factor_nbytes
from repro.sparse import SparseTensor
from repro.tensor.random import random_tensor

BACKENDS = ["serial", "thread", "process"]

#: Temporal extent 7 is deliberately prime: every shard count but 1 and 7
#: produces a remainder shard, exercising the uneven-extent path.
SHAPE = (18, 14, 3, 7)
RANKS = (3, 3, 2, 2)


@pytest.fixture
def tensor(rng):
    return random_tensor(SHAPE, RANKS, rng=rng, noise=0.05)


@pytest.fixture
def npy_path(tmp_path, tensor):
    path = tmp_path / "x.npy"
    np.save(path, tensor)
    return path


@pytest.fixture
def manifest_dir(tmp_path, tensor):
    d = tmp_path / "shards"
    write_npy_shards(d, tensor, 3)
    return d


def _read_and_compress(payload):
    """Spawn-subprocess worker: unpickle a source, read a batch, compress it."""
    blob, start, stop, config = payload
    source = pickle.loads(blob)
    batch = np.ascontiguousarray(source.read_batch(start, stop), dtype=np.float64)
    ssvd = compress_source(source, 2, config=config, batch_slices=4)
    return batch, (ssvd.u, ssvd.s, ssvd.vt, ssvd.slice_norms_squared)


class TestPartitionExtent:
    def test_even_and_remainder_spans(self) -> None:
        assert partition_extent(8, 2) == [(0, 4), (4, 8)]
        assert partition_extent(7, 2) == [(0, 4), (4, 7)]
        assert partition_extent(7, 4) == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_more_shards_than_extent_clamps(self) -> None:
        assert partition_extent(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_spans_cover_exactly(self) -> None:
        for t in (1, 5, 12, 13):
            for n in (1, 2, 3, 5):
                spans = partition_extent(t, n)
                assert spans[0][0] == 0 and spans[-1][1] == t
                for (_, a), (b, _) in zip(spans, spans[1:]):
                    assert a == b


class TestShardedSource:
    def test_geometry_and_reads_match_dense(self, tensor) -> None:
        dense = DenseSource(tensor)
        sharded = ShardedSource.partition(DenseSource(tensor), 3)
        assert sharded.shape == tensor.shape
        assert sharded.slice_count == dense.slice_count
        assert sharded.shard_bounds == [(0, 9), (9, 15), (15, 21)]
        for lo, hi in [(0, 21), (2, 11), (9, 15), (8, 16), (20, 21)]:
            np.testing.assert_array_equal(
                sharded.read_batch(lo, hi), dense.read_batch(lo, hi)
            )

    def test_span_source_is_an_index_shift(self, tensor) -> None:
        span = SliceSpanSource(DenseSource(tensor), 2, 5)
        assert span.shape == tensor.shape[:-1] + (3,)
        np.testing.assert_array_equal(
            span.read_batch(0, span.slice_count),
            DenseSource(tensor[..., 2:5]).read_batch(0, 9),
        )

    def test_members_must_agree_on_lead_modes(self, tensor) -> None:
        with pytest.raises(ShapeError):
            ShardedSource(
                [DenseSource(tensor), DenseSource(tensor[:-1])]
            )
        with pytest.raises(ShapeError):
            ShardedSource([])

    def test_order_two_cannot_shard(self, rng) -> None:
        with pytest.raises(ShapeError):
            ShardedSource.partition(DenseSource(rng.standard_normal((6, 5))), 2)

    def test_manifest_round_trip(self, tensor, manifest_dir) -> None:
        source = ShardedSource.from_manifest(manifest_dir)
        assert source.shape == tensor.shape
        assert not source.resident
        np.testing.assert_array_equal(
            source.read_batch(0, source.slice_count),
            DenseSource(tensor).read_batch(0, 21),
        )
        # The manifest file itself also resolves.
        again = ShardedSource.from_manifest(manifest_dir / "manifest.json")
        assert again.shard_bounds == source.shard_bounds

    def test_manifest_rejects_unknown_format_and_kind(self, tmp_path) -> None:
        bad = tmp_path / "bad"
        write_manifest(bad, [{"kind": "npy", "path": "x.npy"}])
        data = json.loads((bad / "manifest.json").read_text())
        data["format"] = "something-else"
        (bad / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(ShapeError):
            ShardedSource.from_manifest(bad)
        worse = tmp_path / "worse"
        write_manifest(worse, [{"kind": "parquet", "path": "x.parquet"}])
        with pytest.raises(ShapeError):
            ShardedSource.from_manifest(worse)

    def test_group_members_are_gated_on_their_packages(self, tmp_path) -> None:
        # Without the backing package the member must fail loudly with
        # BackendError (nothing is ever installed on the user's behalf);
        # with it installed, the member serves slices like any other.
        for kind, modname in (("zarr", "zarr"), ("hdf5", "h5py")):
            try:
                __import__(modname)
            except ImportError:
                with pytest.raises(BackendError):
                    GroupSource(kind, tmp_path / f"missing.{kind}", "x")
        with pytest.raises(ShapeError):
            GroupSource("parquet", tmp_path / "x.parquet")


class TestSpawnDescriptors:
    def test_every_descriptor_survives_spawn(
        self, tensor, npy_path, manifest_dir, tmp_path
    ) -> None:
        """Pickle each source itself into a fresh ``spawn`` child.

        ``spawn`` is the strictest start method — nothing is inherited, so
        the pickle alone must carry the source.  The child's batch bytes
        and its compression (sparse: both the ``O(nnz)`` kernel and the
        densified planner path) must equal the parent's.
        """
        sparse = SparseTensor.from_dense(
            np.where(np.abs(tensor) > 1, tensor, 0.0)
        )
        half = np.ascontiguousarray(tensor[..., 4:])
        np.save(tmp_path / "tail.npy", half)
        serial = DTuckerConfig(seed=5, backend="serial")
        densified = DTuckerConfig(seed=5, backend="serial", precision="float32")
        cases = [
            (DenseSource(tensor[..., 0]), serial),
            (DenseSource(tensor), serial),
            (NpySource(npy_path), serial),
            (SparseSource(sparse), serial),
            (SparseSource(sparse), densified),
            (SliceSpanSource(NpySource(npy_path), 1, 5), serial),
            (ShardedSource.partition(DenseSource(tensor), 2), serial),
            (ShardedSource.from_manifest(manifest_dir), serial),
            (
                ShardedSource(
                    [DenseSource(tensor[..., :4]), NpySource(tmp_path / "tail.npy")]
                ),
                serial,
            ),
        ]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            for source, config in cases:
                stop = min(5, source.slice_count)
                blob = pickle.dumps(source)
                batch, factors = pool.apply(
                    _read_and_compress, ((blob, 0, stop, config),)
                )
                np.testing.assert_array_equal(
                    batch,
                    np.ascontiguousarray(
                        source.read_batch(0, stop), dtype=np.float64
                    ),
                )
                ref = compress_source(source, 2, config=config, batch_slices=4)
                for got, want in zip(
                    factors, (ref.u, ref.s, ref.vt, ref.slice_norms_squared)
                ):
                    np.testing.assert_array_equal(got, want)

    def test_group_source_pickles_without_its_handle(
        self, tensor, monkeypatch, tmp_path
    ) -> None:
        """A zarr member round-trips as its recipe and re-opens on read."""

        class Handle:
            """An open array handle that, like a file handle, never pickles."""

            def __init__(self, array):
                self._array = array
                self.shape, self.dtype, self.ndim = array.shape, array.dtype, array.ndim

            def __getitem__(self, key):
                return self._array[key]

            def __reduce__(self):
                raise TypeError("an open handle cannot be pickled")

        opens = []

        def fake_open(path, mode):
            opens.append((path, mode))
            return {"x": Handle(tensor)}

        monkeypatch.setitem(
            sys.modules, "zarr", types.SimpleNamespace(open=fake_open)
        )
        source = GroupSource("zarr", tmp_path / "t.zarr", "x")
        expected = np.ascontiguousarray(source.read_batch(0, 5))
        back = pickle.loads(pickle.dumps(source))
        assert len(opens) == 1
        assert back.shape == tensor.shape
        np.testing.assert_array_equal(back.read_batch(0, 5), expected)
        assert len(opens) == 2


class TestShardParity:
    """Satellite: sharded fits are bit-identical to single-source fits."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_partitioned_fit_bitwise_equals_dense(
        self, tensor, backend, n_shards
    ) -> None:
        cfg = DTuckerConfig(seed=11, backend=backend, n_workers=2)
        pipe = FitPipeline(RANKS, config=cfg)
        ref = pipe.fit(DenseSource(tensor))
        fit = pipe.fit(ShardedSource.partition(DenseSource(tensor), n_shards))
        np.testing.assert_array_equal(fit.result.core, ref.result.core)
        for a, b in zip(fit.result.factors, ref.result.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            fit.slice_svd.u, ref.slice_svd.u
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_manifest_fit_bitwise_equals_dense(
        self, tensor, manifest_dir, backend
    ) -> None:
        cfg = DTuckerConfig(seed=11, backend=backend, n_workers=2)
        pipe = FitPipeline(RANKS, config=cfg)
        ref = pipe.fit(DenseSource(tensor))
        fit = pipe.fit(ShardedSource.from_manifest(manifest_dir))
        np.testing.assert_array_equal(fit.result.core, ref.result.core)
        for a, b in zip(fit.result.factors, ref.result.factors):
            np.testing.assert_array_equal(a, b)

    def test_sharding_is_not_a_config_field(self) -> None:
        with pytest.raises(TypeError):
            DTuckerConfig(shards=3)

    def test_config_rejects_nonpositive_shards(self, tensor) -> None:
        for n in (0, -2, 1.5):
            with pytest.raises(ShapeError, match="n_shards"):
                ShardedSource.partition(DenseSource(tensor), n)
            with pytest.raises(ShapeError, match="n_shards"):
                ShardCoordinator(DenseSource(tensor), RANKS, shards=n)


class TestCommCounters:
    def test_ship_bytes_are_exactly_the_factor_products(
        self, tensor, manifest_dir
    ) -> None:
        """The reduce-only invariant: comm:ship == (I1+I2+1)·K per slice.

        The (18, 14) slices take the Gram shortcut (14 <= 2·(3 + 10)),
        which draws no test matrix, so *all* counted comm is the shipped
        factor products — the total must equal the closed-form
        ``factor_nbytes`` for the whole tensor, orders of magnitude below
        the raw slab bytes.
        """
        i1, i2 = SHAPE[:2]
        k = 3
        source = ShardedSource.from_manifest(manifest_dir)
        stats = KernelStats()
        cfg = DTuckerConfig(seed=5, backend="process", n_workers=2)
        compress_source(source, k, config=cfg, stats=stats)
        assert stats.plan_decisions() == {"gram": 1}
        count = source.slice_count
        expected = factor_nbytes(i1, i2, k, n_slices=count)
        assert stats.bytes_comm == expected
        assert stats.misses_for("comm:ship") == len(source.members)
        raw = count * i1 * i2 * np.dtype(np.float64).itemsize
        assert stats.bytes_comm < raw

    def test_rsvd_adds_one_sketch_broadcast_per_task(
        self, rng, tmp_path
    ) -> None:
        # Slices wide enough that the planner picks the randomized method
        # (tiny slabs dispatch to the cheaper Gram path, which draws no
        # test matrix and so broadcasts nothing).
        wide = random_tensor((64, 48, 6), (3, 3, 2), rng=rng, noise=0.05)
        write_npy_shards(tmp_path / "wide", wide, 3)
        source = ShardedSource.from_manifest(tmp_path / "wide")
        stats = KernelStats()
        cfg = DTuckerConfig(seed=5, backend="process", n_workers=2)
        compress_source(source, 3, config=cfg, stats=stats)
        n_members = len(source.members)
        assert stats.misses_for("comm:ship") == n_members
        assert stats.misses_for("comm:bcast") == n_members
        ship = factor_nbytes(64, 48, 3, n_slices=source.slice_count)
        assert stats.bytes_comm > ship  # sketches ride on top

    def test_trace_annotates_comm(self, tensor, manifest_dir) -> None:
        from repro.engine import backend_scope

        source = ShardedSource.from_manifest(manifest_dir)
        cfg = DTuckerConfig(seed=5, backend="process", n_workers=2)
        with backend_scope("process", config=cfg) as eng:
            compress_source(source, 3, config=cfg, engine=eng)
            trace = eng.traces[-1]
        assert trace.phase == "approximation-sharded"
        assert trace.counters.bytes_comm > 0
        assert trace.counters.misses_for("comm:reduce") == 1


class TestMixedResidency:
    def test_resident_member_ships_only_its_batches(
        self, rng, tmp_path, monkeypatch
    ) -> None:
        """A resident member's tasks carry their own slices, not the member.

        Every task touching the in-memory member used to pickle it whole
        (5 tasks carried 2.46 MB for its 0.48 MB); now all its tasks
        together carry the member's bytes once, plus the test matrices.
        """
        import repro.distributed.sharded as sharded_mod

        dense = rng.standard_normal((60, 50, 20))
        on_disk = rng.standard_normal((60, 50, 12))
        np.save(tmp_path / "m.npy", on_disk)
        shipped = []
        real = sharded_mod.store_parts

        def measuring(engine, fn, tasks, rows, out):
            shipped.extend(len(pickle.dumps(task)) for task in tasks)
            return real(engine, fn, tasks, rows, out)

        monkeypatch.setattr(sharded_mod, "store_parts", measuring)
        source = ShardedSource([DenseSource(dense), NpySource(tmp_path / "m.npy")])
        cfg = DTuckerConfig(seed=3, backend="process", n_workers=2)
        got = compress_source(source, 5, config=cfg, batch_slices=4)
        assert len(shipped) == 8
        assert sum(shipped) <= 1.2 * dense.nbytes
        # Same slices as the in-process compression of the same source.
        want = compress_source(
            source, 5, config=DTuckerConfig(seed=3, backend="serial"), batch_slices=4
        )
        for a, b in ((got.u, want.u), (got.s, want.s), (got.vt, want.vt)):
            np.testing.assert_array_equal(a, b)


def _sweep_problem(shape, ranks, backend="serial"):
    cfg = DTuckerConfig(seed=11, backend=backend, n_workers=2, tol=1e-10)
    x = random_tensor(shape, ranks, rng=5, noise=0.5)
    ssvd = compress_source(DenseSource(x), 3, config=cfg)
    _, factors = initialize(ssvd, ranks)
    return ssvd, factors, cfg


#: One compressed problem per order for the partition property (order 3:
#: one slice per timestep; order 4: three).
_PARTITION_CASES = {
    3: ((12, 10, 9), (3, 3, 2)),
    4: ((10, 9, 3, 8), (3, 3, 2, 2)),
}
_PARTITION_PROBLEMS: dict = {}


class TestOneSweepLoop:
    """The distributed sweep is the one sweep loop over a sharded contraction."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("shape,ranks", [(SHAPE, RANKS), ((16, 12, 9), (3, 3, 2))])
    def test_one_shard_bitwise_equals_monolithic(self, backend, shape, ranks) -> None:
        # One shard reassociates nothing, so it is the monolithic sweep.
        ssvd, factors, cfg = _sweep_problem(shape, ranks, backend)
        ref = als_sweeps(ssvd, ranks, factors, config=cfg)
        out = distributed_als_sweeps(
            ssvd, ranks, factors, shard_bounds=[(0, ssvd.num_slices)], config=cfg
        )
        np.testing.assert_array_equal(out.core, ref.core)
        for a, b in zip(out.factors, ref.factors):
            np.testing.assert_array_equal(a, b)
        assert out.errors == ref.errors
        assert (out.n_iters, out.converged) == (ref.n_iters, ref.converged)

    @given(order=st.sampled_from([3, 4]), data=st.data())
    def test_any_temporal_partition_matches_monolithic(self, order, data) -> None:
        shape, ranks = _PARTITION_CASES[order]
        if order not in _PARTITION_PROBLEMS:
            ssvd, factors, cfg = _sweep_problem(shape, ranks)
            ref = als_sweeps(ssvd, ranks, factors, config=cfg)
            _PARTITION_PROBLEMS[order] = (ssvd, factors, cfg, ref)
        ssvd, factors, cfg, ref = _PARTITION_PROBLEMS[order]
        extent = shape[-1]
        per_step = ssvd.num_slices // extent
        cuts = data.draw(
            st.lists(st.integers(1, extent - 1), unique=True, max_size=extent - 1)
        )
        edges = [0, *sorted(cuts), extent]
        bounds = [(lo * per_step, hi * per_step) for lo, hi in zip(edges, edges[1:])]
        out = distributed_als_sweeps(
            ssvd, ranks, factors, shard_bounds=bounds, config=cfg
        )
        assert out.n_iters == ref.n_iters
        np.testing.assert_allclose(out.core, ref.core, rtol=1e-9, atol=1e-12)
        for a, b in zip(out.factors, ref.factors):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(out.errors, ref.errors, rtol=1e-9)


class TestDistributedSweeps:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_monolithic_sweeps(self, tensor, backend) -> None:
        cfg = DTuckerConfig(seed=11, backend=backend, n_workers=2)
        source = ShardedSource.partition(DenseSource(tensor), 3)
        ssvd = compress_source(source, 3, config=cfg)
        _, factors = initialize(ssvd, RANKS)
        ref = als_sweeps(ssvd, RANKS, factors, config=cfg)
        out = distributed_als_sweeps(
            ssvd,
            RANKS,
            factors,
            shard_bounds=source.shard_bounds,
            config=cfg,
        )
        assert out.n_iters == ref.n_iters
        assert out.converged == ref.converged
        np.testing.assert_allclose(out.core, ref.core, rtol=1e-9, atol=1e-12)
        for a, b in zip(out.factors, ref.factors):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(out.errors, ref.errors, rtol=1e-9)

    def test_reduce_rounds_and_comm_accounting(self, tensor) -> None:
        from repro.engine import backend_scope

        cfg = DTuckerConfig(seed=11, backend="serial")
        source = ShardedSource.partition(DenseSource(tensor), 2)
        ssvd = compress_source(source, 3, config=cfg)
        _, factors = initialize(ssvd, RANKS)
        with backend_scope("serial", config=cfg) as eng:
            out = distributed_als_sweeps(
                ssvd,
                RANKS,
                factors,
                shard_bounds=source.shard_bounds,
                config=cfg,
                engine=eng,
            )
            trace = eng.traces[-1]
        order = len(SHAPE)
        # One round per factor update plus one for the core, per sweep.
        rounds = trace.counters.misses_for("comm:reduce")
        assert rounds == out.n_iters * (order + 1)
        assert trace.counters.bytes_comm > 0
        assert out.kernel_stats is not None
        assert out.kernel_stats.misses_for("comm:ship") == rounds * 2

    def test_rejects_misaligned_or_gapped_bounds(self, tensor) -> None:
        cfg = DTuckerConfig(seed=11, backend="serial")
        ssvd = compress_source(DenseSource(tensor), 3, config=cfg)
        _, factors = initialize(ssvd, RANKS)
        count = ssvd.num_slices
        for bad in ([(0, 10), (10, count)], [(0, 9), (12, count)], [(0, 9)]):
            with pytest.raises(ShapeError):
                distributed_als_sweeps(
                    ssvd, RANKS, factors, shard_bounds=bad, config=cfg
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_coordinator_fit_end_to_end(
        self, tensor, manifest_dir, backend
    ) -> None:
        cfg = DTuckerConfig(seed=11, backend=backend, n_workers=2)
        ref = FitPipeline(RANKS, config=cfg).fit(DenseSource(tensor))
        coordinator = ShardCoordinator(
            ShardedSource.from_manifest(manifest_dir), RANKS, config=cfg
        )
        fit = coordinator.fit()
        assert fit.n_iters >= 1
        np.testing.assert_allclose(
            fit.result.core, ref.result.core, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(fit.history, ref.history, rtol=1e-9)
        # The compression is still bitwise: only the sweeps reassociate.
        np.testing.assert_array_equal(fit.slice_svd.u, ref.slice_svd.u)

    def test_coordinator_partitions_plain_sources(self, tensor) -> None:
        cfg = DTuckerConfig(seed=11, backend="serial")
        default = ShardCoordinator(DenseSource(tensor), RANKS, config=cfg)
        assert default.source.shard_bounds == [(0, 21)]
        coordinator = ShardCoordinator(
            DenseSource(tensor), RANKS, config=cfg, shards=3
        )
        assert coordinator.source.shard_bounds == [(0, 9), (9, 15), (15, 21)]
        fit = coordinator.fit()
        assert fit.converged or fit.n_iters >= 1
