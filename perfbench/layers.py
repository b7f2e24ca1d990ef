"""The layer boundaries the traced run times, and the per-layer metrics.

Each :class:`~tracing.Target` wraps one public function of a layer.  The
``after`` hooks read counters the program already exposes (``KernelStats``
deltas, ``PhaseTrace`` records, ``ServingStats`` records, store manifests).
Counts repeat exactly for a seed; times are seconds summed over the traced
operations (``trace.ops``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Span, Target, self_times

__all__ = ["LAYERS", "TARGETS", "layer_metrics"]

#: Layer tag → the modules it stands for (spans carry the tag).
LAYERS = {
    "sources": "core.sources + kernels.compress_plan",
    "linalg": "linalg",
    "init": "core.initialization",
    "als": "core.iteration + kernels.workspace",
    "distributed": "distributed",
    "store": "store.store + store.format",
    "served": "store.served + store.range_index",
    "streaming": "core.streaming",
}


# -- hooks -------------------------------------------------------------------

def _with_stats(kwargs: dict) -> dict:
    # compress_source records planner decisions and sketch draws only into a
    # caller-supplied KernelStats; hand it one when the caller passed none.
    if kwargs.get("stats") is None:
        from repro.kernels.stats import KernelStats

        kwargs = dict(kwargs, stats=KernelStats())
    return kwargs


def _compress_after(before, args, kwargs, result) -> dict:
    from repro import DTuckerConfig
    from repro.kernels.compress_plan import plan_from_config

    source, rank = args[0], int(args[1])
    delta = kwargs["stats"].delta(before)
    i1, i2 = (int(d) for d in source.shape[:2])
    plan = plan_from_config(i1, i2, rank, kwargs.get("config") or DTuckerConfig())
    return {
        "slices": int(source.slice_count),
        "sketch_draws": delta.sketch_draws,
        "decisions": delta.plan_decisions(),
        "slab": f"{i1}x{i2}k{rank}:{plan.method}",
        "predicted_flops": float(plan.costs[plan.method]) * int(source.slice_count),
    }


def _als_after(_, args, kwargs, result) -> dict:
    ks = result.kernel_stats
    return {
        "sweeps": ks.sweeps,
        "w_evals": ks.w_evals,
        "hits": ks.hits,
        "misses": ks.misses,
        "bytes_reused": ks.bytes_reused,
    }


def _engine_attrs(traces, main_ids: tuple[str, ...]) -> dict:
    busy: dict[str, float] = defaultdict(float)
    out = {
        "tasks": 0,
        "queue_wait_s": 0.0,
        "steals": 0,
        "io_s": 0.0,
        "io_wait_s": 0.0,
        "reduce_rounds": 0,
    }
    for t in traces:
        out["tasks"] += t.n_tasks
        out["queue_wait_s"] += t.queue_wait_seconds
        out["steals"] += t.steals
        out["io_s"] += t.io_seconds
        out["io_wait_s"] += t.io_wait_seconds
        out["reduce_rounds"] += t.reduce_rounds
        for worker, seconds in t.busy_seconds_per_worker.items():
            key = "main" if worker in main_ids else worker
            busy[key] += seconds
    out["busy"] = dict(busy)
    return out


def _main_ids() -> tuple[str, ...]:
    import os

    return ("main", f"pid:{os.getpid()}")


def _dtucker_after(_, args, kwargs, model) -> dict:
    return {"engine": _engine_attrs(model.trace_, _main_ids())}


def _coordinator_after(_, args, kwargs, fit) -> dict:
    return {
        "engine": _engine_attrs(fit.traces, _main_ids()),
        "comm_bytes": fit.kernel_stats.bytes_comm,
    }


def _save_after(_, args, kwargs, store) -> dict:
    return {"bytes_written": store.nbytes}


def _stream_before(args, kwargs):
    model = args[0]
    ks = model.kernel_stats_
    return ks.hits_for("stream:proj"), ks.misses_for("stream:proj"), model.watchdog_triggers_


def _stream_after(before, args, kwargs, result) -> dict:
    hits, misses, triggers = before
    ks = result.kernel_stats_
    return {
        "proj_cached_rows": ks.hits_for("stream:proj") - hits,
        "proj_computed_rows": ks.misses_for("stream:proj") - misses,
        "watchdog_triggers": result.watchdog_triggers_ - triggers,
    }


def _query_before(args, kwargs):
    counters = args[0].stats.counters
    return counters.hits_for("node"), counters.misses_for("node")


def _query_after(before, args, kwargs, result) -> dict:
    served = args[0]
    record = served.stats.records[-1]
    counters = served.stats.counters
    return {
        "cache": record.cache,
        "served_s": record.seconds,
        "node_hits": counters.hits_for("node") - before[0],
        "node_misses": counters.misses_for("node") - before[1],
    }


def _snapshot_stats(args, kwargs):
    return kwargs["stats"].copy()


TARGETS = [
    Target("repro.core.dtucker:DTucker.fit", None, after=_dtucker_after),
    Target(
        "repro.core.sources:compress_source",
        "sources",
        prepare=_with_stats,
        before=_snapshot_stats,
        after=_compress_after,
    ),
    Target("repro.linalg.svd:leading_left_singular_vectors", "linalg"),
    Target("repro.linalg.rsvd:batched_rsvd", "linalg"),
    Target("repro.linalg.rsvd:rsvd", "linalg"),
    Target("repro.core.initialization:initialize", "init"),
    Target("repro.core.initialization:initialize_from_factors", "init"),
    Target("repro.core.iteration:als_sweeps", "als", after=_als_after),
    Target("repro.distributed.sharded:ShardedSource.from_manifest", "distributed"),
    Target(
        "repro.distributed.coordinator:ShardCoordinator.fit",
        "distributed",
        after=_coordinator_after,
    ),
    Target("repro.distributed.coordinator:distributed_als_sweeps", "distributed"),
    Target("repro.store.store:ModelStore.save", "store", after=_save_after),
    Target("repro.store.store:ModelStore.append", "store"),
    Target("repro.store.store:ModelStore.open", "store"),
    Target("repro.store.store:ModelStore.build_index", "store"),
    Target("repro.store.range_index:RangeIndex.build", "store"),
    Target(
        "repro.store.served:ServedModel.query_time_range",
        "served",
        before=_query_before,
        after=_query_after,
    ),
    Target("repro.store.range_index:RangeIndex.range_blocks", "served"),
    Target(
        "repro.core.streaming:StreamingDTucker.partial_fit",
        "streaming",
        before=_stream_before,
        after=_stream_after,
    ),
]


# -- metrics -----------------------------------------------------------------

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], overhead: float, n_ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name → (value, unit)``.

    A layer that the workload never enters reports 0.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def outermost(names: set[str]) -> list[Span]:
        out = []
        for s in spans:
            if s.name not in names:
                continue
            parent = s.parent
            while parent is not None and by_id[parent].name not in names:
                parent = by_id[parent].parent
            if parent is None:
                out.append(s)
        return out

    def seconds(*names: str) -> float:
        return sum(s.seconds for s in outermost(set(names)))

    def calls(*names: str) -> int:
        return len(outermost(set(names)))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    m: dict[str, tuple[float, str]] = {}

    # core.sources + kernels.compress_plan
    compress = [s for s in spans if s.name == "compress_source"]
    m["sources.compress_s"] = (seconds("compress_source"), "s")
    m["sources.slices"] = (attr_sum("compress_source", "slices"), "count")
    m["sources.sketch_draws"] = (attr_sum("compress_source", "sketch_draws"), "count")
    for method in ("rsvd", "gram", "exact"):
        total = sum(s.attrs.get("decisions", {}).get(method, 0) for s in compress)
        m[f"plan.decisions.{method}"] = (total, "count")
    per_slab: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for s in compress:
        per_slab[s.attrs["slab"]][0] += s.attrs["predicted_flops"]
        per_slab[s.attrs["slab"]][1] += s.seconds
    ratios = [flops / 1e9 / secs for flops, secs in per_slab.values() if secs > 0]
    m["plan.predict_ratio"] = (_median(ratios), "Gflop/s")
    m["plan.predict_spread"] = (max(ratios) / min(ratios) if ratios else 0.0, "ratio")
    m["plan.slab_shapes"] = (len(per_slab), "count")

    # linalg
    m["linalg.lsv_s"] = (seconds("leading_left_singular_vectors"), "s")
    m["linalg.lsv_calls"] = (calls("leading_left_singular_vectors"), "count")
    m["linalg.rsvd_s"] = (seconds("batched_rsvd", "rsvd"), "s")
    m["linalg.rsvd_calls"] = (calls("batched_rsvd", "rsvd"), "count")

    # core.initialization
    m["init.s"] = (seconds("initialize", "initialize_from_factors"), "s")
    m["init.calls"] = (calls("initialize", "initialize_from_factors"), "count")

    # core.iteration + kernels.workspace
    sweeps = attr_sum("als_sweeps", "sweeps")
    hits, misses = attr_sum("als_sweeps", "hits"), attr_sum("als_sweeps", "misses")
    m["als.s"] = (seconds("als_sweeps"), "s")
    m["als.sweeps"] = (sweeps, "count")
    m["als.w_evals_per_sweep"] = (attr_sum("als_sweeps", "w_evals") / sweeps if sweeps else 0.0, "ratio")
    m["als.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["als.cache_lookups"] = (hits + misses, "count")
    m["als.bytes_reused_mb"] = (attr_sum("als_sweeps", "bytes_reused") / 2**20, "MB")

    # engine (from the PhaseTrace records of the fit entry points)
    engines = [s.attrs["engine"] for s in spans if "engine" in s.attrs]
    busy: dict[str, float] = defaultdict(float)
    for e in engines:
        for worker, secs in e["busy"].items():
            busy[worker] += secs
    main = busy.pop("main", 0.0)
    workers = sorted(busy.values(), reverse=True)
    m["engine.tasks"] = (sum(e["tasks"] for e in engines), "count")
    m["engine.busy_s.main"] = (main, "s")
    m["engine.busy_s.w0"] = (workers[0] if workers else 0.0, "s")
    m["engine.busy_s.w1"] = (workers[1] if len(workers) > 1 else 0.0, "s")
    m["engine.imbalance"] = (
        max(workers) / statistics.mean(workers) if len(workers) > 1 else 1.0,
        "ratio",
    )
    for key, unit in (("queue_wait_s", "s"), ("steals", "count"), ("io_s", "s"), ("io_wait_s", "s")):
        m[f"engine.{key}"] = (sum(e[key] for e in engines), unit)

    # distributed
    m["shard.open_s"] = (seconds("ShardedSource.from_manifest"), "s")
    m["shard.sweeps_s"] = (seconds("distributed_als_sweeps"), "s")
    m["shard.reduce_rounds"] = (
        sum(s.attrs["engine"]["reduce_rounds"] for s in spans if s.name == "ShardCoordinator.fit"),
        "count",
    )
    m["shard.comm_mb"] = (attr_sum("ShardCoordinator.fit", "comm_bytes") / 2**20, "MB")

    # store.store + store.format
    m["store.save_s"] = (seconds("ModelStore.save"), "s")
    m["store.append_s"] = (seconds("ModelStore.append"), "s")
    m["store.open_s"] = (seconds("ModelStore.open"), "s")
    m["store.index_build_s"] = (seconds("ModelStore.build_index", "RangeIndex.build"), "s")
    m["store.bytes_written_mb"] = (attr_sum("ModelStore.save", "bytes_written") / 2**20, "MB")

    # store.served + store.range_index
    queries = [s for s in spans if s.name == "ServedModel.query_time_range"]
    for tag in ("hit", "warm", "miss"):
        m[f"serve.{tag}_ms"] = (
            _median([s.attrs["served_s"] * 1e3 for s in queries if s.attrs["cache"] == tag]),
            "ms",
        )
    hit_count = sum(1 for s in queries if s.attrs["cache"] == "hit")
    m["serve.cache_hit_ratio"] = (hit_count / len(queries) if queries else 0.0, "ratio")
    m["serve.cache_lookups"] = (len(queries), "count")
    m["serve.warm_starts"] = (sum(1 for s in queries if s.attrs["cache"] == "warm"), "count")
    m["serve.node_hits"] = (attr_sum("ServedModel.query_time_range", "node_hits"), "count")
    m["serve.node_misses"] = (attr_sum("ServedModel.query_time_range", "node_misses"), "count")

    # core.streaming
    updates = [s for s in spans if s.name == "StreamingDTucker.partial_fit"]
    m["stream.partial_fit_ms"] = (_median([s.seconds * 1e3 for s in updates]), "ms")
    for key in ("proj_computed_rows", "proj_cached_rows", "watchdog_triggers"):
        m[f"stream.{key}"] = (attr_sum("StreamingDTucker.partial_fit", key), "count")

    # self time per layer; what no layer covers is the residual
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (sum(selfs[s.id] for s in spans if s.layer == layer), "s")
    m["residual_s"] = (sum(selfs[s.id] for s in spans if s.layer in (None, "op")), "s")
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.ops"] = (n_ops, "count")
    m["trace.spans"] = (len(spans), "count")
    return m
