"""The four workloads: inputs made from the seed, the timed operation, the checks.

Every workload is a closed loop with one client: the runner sends operation
``i + 1`` only after operation ``i`` returned.  A workload object is driven
by ``run.py`` in this order::

    setup()          # timed, repeated; the system state the loop starts from
    prepare()        # untimed: checker references (error_ratio baselines)
    reset()          # untimed: restore the state setup() left
    make_input(i)    # untimed: the operation's input
    op(i, arg)       # timed
    check(i, out)    # untimed: raises CheckFailed, returns an error ratio or None
    finish()         # untimed: end-of-run checks, returns error ratios
    peak_op()        # one extra untimed operation, run under measure_peak
    report()         # workload-specific named metrics
    close()          # release processes, files, shared memory

Correctness is judged against independent references: ``repro.st_hosvd`` on
the same dense tensor for fits and the stream window, and a direct
``DTucker`` fit of the raw sub-tensor for served answers.  The error itself
is computed here from the dense data, not from the solver's own estimate.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro import (
    DenseSource,
    DTucker,
    DTuckerConfig,
    FitPipeline,
    ModelStore,
    ProcessBackend,
    ShardCoordinator,
    ShardedSource,
    StreamingDTucker,
    st_hosvd,
)
from repro.datasets import boats_like, load_dataset
from repro.distributed import write_npy_shards

__all__ = ["WORKLOADS", "CheckFailed", "Workload", "percentile_tail"]

#: An output whose error exceeds its reference by more than this factor fails.
MAX_ERROR_RATIO = 1.10

PAPER_DATASETS = ("boats", "walking", "stock", "airquality", "hsi")

#: Operation index of the extra, untimed operation run under measure_peak.
PEAK_OP = -1

SERIAL = DTuckerConfig(backend="serial")


class CheckFailed(Exception):
    """An output failed its correctness check."""


def _project(x: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """``x ×_n mats[n]`` over every mode (each matrix maps mode size → rows)."""
    for n, m in enumerate(mats):
        x = np.moveaxis(np.tensordot(m, x, axes=(1, n)), 0, n)
    return x


def rel_error(x: np.ndarray, core: np.ndarray, factors: list[np.ndarray]) -> float:
    """``‖X − G ×_n A_n‖_F / ‖X‖_F`` without forming the reconstruction."""
    factors = [np.asarray(a) for a in factors]
    xx = float(np.vdot(x, x))
    cross = float(np.vdot(_project(x, [a.T for a in factors]), core))
    gg = float(np.vdot(core, _project(core, [a.T @ a for a in factors])))
    return math.sqrt(max(xx - 2.0 * cross + gg, 0.0) / xx)


def reference_error(x: np.ndarray, ranks) -> float:
    ref = st_hosvd(x, ranks).result
    return rel_error(x, ref.core, ref.factors)


def _ratio(x: np.ndarray, result, reference: float, what: str) -> float:
    ratio = rel_error(x, result.core, result.factors) / reference
    if not ratio <= MAX_ERROR_RATIO:
        raise CheckFailed(f"{what}: error ratio {ratio:.4f} > {MAX_ERROR_RATIO}")
    return ratio


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """The highest of p99.9/p99/p95/p90/p75/p50 with ≥ 10 samples beyond it."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(samples, pct))
    return 0.0, float("nan")


def _timing(samples: list[float], scale: float, unit: str) -> dict:
    if not samples:
        return {"value": None, "unit": unit, "n": 0}
    return {"value": statistics.median(samples) * scale, "unit": unit, "n": len(samples)}


def _tail(samples: list[float], scale: float, unit: str) -> dict:
    pct, value = percentile_tail(samples)
    if not pct:
        return {"value": None, "unit": unit, "n": len(samples), "note": "fewer than 11 samples"}
    return {"value": value * scale, "unit": unit, "n": len(samples), "percentile": pct}


class Workload:
    name = ""
    #: Operation kind whose median latency is the end-to-end ``op_p50_ms``.
    primary = ""
    #: Fixed operation count of the traced run (counts then repeat exactly).
    trace_ops = 1
    #: Operations run untimed before the timed loop, so that buffers, caches
    #: and the page cache reach their steady state first.
    warmup_ops = 0
    #: Process workers the workload runs (for the thread-budget check).
    workers = 1

    def __init__(self, seed: int, workdir: Path, nproc: int) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.nproc = nproc
        self.latencies: dict[str, list[float]] = {}
        self.input_bytes = 0

    def kind(self, i: int) -> str:
        return self.primary

    def setup(self) -> None: ...

    def prepare(self) -> list[float]:
        return []

    def reset(self) -> None: ...

    def make_input(self, i: int):
        return None

    def op(self, i: int, arg): ...

    def check(self, i: int, out) -> float | None:
        return None

    def finish(self) -> list[float]:
        return []

    def peak_op(self):
        arg = self.make_input(PEAK_OP)
        return lambda: self.op(PEAK_OP, arg)

    def report(self) -> dict:
        return {}

    def close(self) -> None: ...


# -- fit_paper -----------------------------------------------------------------

class FitPaper(Workload):
    """Serial in-memory ``DTucker.fit`` on the five paper stand-ins; one op = one pass."""

    name = "fit_paper"
    primary = "fit"

    def setup(self) -> None:
        self.data = [load_dataset(n, "default", seed=self.seed) for n in PAPER_DATASETS]
        self.input_bytes = sum(int(d.tensor.nbytes) for d in self.data)

    def prepare(self) -> list[float]:
        self.refs = [reference_error(d.tensor, d.ranks) for d in self.data]
        self.per_dataset: dict[str, list[float]] = {d.name: [] for d in self.data}
        self.sweeps: dict[str, int] = {}
        return []

    def op(self, i: int, arg):
        models = []
        for d in self.data:
            t0 = time.perf_counter()
            models.append(DTucker(d.ranks, seed=self.seed, config=SERIAL).fit(d.tensor))
            if i != PEAK_OP:
                self.per_dataset[d.name].append(time.perf_counter() - t0)
        return models

    def check(self, i: int, models) -> float:
        ratios = []
        for d, ref, model in zip(self.data, self.refs, models):
            ratios.append(_ratio(d.tensor, model.result_, ref, d.name))
            self.sweeps[d.name] = model.n_iters_
        return max(ratios)

    def report(self) -> dict:
        out = {"fit_s": _timing(self.latencies.get("fit", []), 1.0, "s")}
        for name, samples in self.per_dataset.items():
            out[f"fit_s.{name}"] = _timing(samples, 1.0, "s")
        out["als_sweeps"] = self.sweeps
        out["shapes"] = {d.name: [list(d.shape), list(d.ranks)] for d in self.data}
        return out


# -- serve_mixed ----------------------------------------------------------------

class ServeMixed(Workload):
    """Seeded time-range queries on a stored, indexed boats model, with rare appends."""

    name = "serve_mixed"
    primary = "query"
    trace_ops = 80
    warmup_ops = 20
    #: One operation in this many is ModelStore.append + ModelStore.open.
    write_every = 100
    block = 16
    min_len = 16
    #: Distinct recent ranges remembered for repeats and overlaps.
    recent = 2
    #: Served answers spot-checked against direct fits, at most.
    max_spot_checks = 8

    def kind(self, i: int) -> str:
        return "append" if i % self.write_every == self.write_every // 2 else "query"

    def setup(self) -> None:
        d = load_dataset("boats", "default", seed=self.seed)
        self.x0, self.ranks = d.tensor, d.ranks
        self.input_bytes = int(self.x0.nbytes)
        self.model = DTucker(self.ranks, seed=self.seed, config=SERIAL).fit(self.x0)
        self.pristine = self.workdir / "pristine"
        shutil.rmtree(self.pristine, ignore_errors=True)
        store = ModelStore.save(
            self.pristine,
            slice_svd=self.model.slice_svd_,
            result=self.model.result_,
            config=self.model.config,
            permutation=self.model.permutation_,
            history=self.model.history_,
            converged=self.model.converged_,
            n_iters=self.model.n_iters_,
        )
        store.build_index()
        self.served = store.open()

    def prepare(self) -> list[float]:
        self.served.close()
        ref = reference_error(self.x0, self.ranks)
        return [_ratio(self.x0, self.model.result_, ref, "setup fit")]

    def reset(self) -> None:
        live = self.workdir / "live"
        shutil.rmtree(live, ignore_errors=True)
        shutil.copytree(self.pristine, live)
        self.store = ModelStore(live)
        self.served = self.store.open()
        self.extent = int(self.x0.shape[-1])
        self.blocks: list[np.ndarray] = []
        self.spot: list[tuple[int, int, object]] = []
        self.tags = {"hit": 0, "warm": 0, "miss": 0}
        self.rng = np.random.default_rng([self.seed, 1])
        self.golden = float(self.rng.random())
        self.n_fresh = 0
        self.slots: list[str] = []
        self.history: deque = deque(maxlen=self.recent)

    def _fresh(self) -> tuple[int, int]:
        # Log-uniform lengths from a golden-ratio sequence: every run sees
        # nearly the same length mix, so the latency quantiles stay steady.
        u = (self.golden + 0.6180339887498949 * self.n_fresh) % 1.0
        self.n_fresh += 1
        hi = self.extent
        length = int(round(self.min_len * (hi / self.min_len) ** u))
        length = min(max(length, self.min_len), hi)
        t0 = int(self.rng.integers(0, hi - length + 1))
        return t0, t0 + length

    def _next_range(self) -> tuple[int, int]:
        if not self.slots:
            # 20% exact repeats, 20% overlapping ranges, 60% fresh, in
            # shuffled blocks of ten so the mix is the same in every run.
            self.slots = list(self.rng.permutation(["repeat"] * 2 + ["overlap"] * 2 + ["fresh"] * 6))
        slot = self.slots.pop()
        if slot == "fresh" or not self.history:
            return self._fresh()
        # Repeat the latest range and overlap the one before it: the lengths
        # of computed queries then follow the fresh sequence in every run.
        if slot == "repeat":
            return self.history[-1]
        t0, t1 = self.history[-2 if len(self.history) > 1 else -1]
        length = t1 - t0
        shift = int(self.rng.integers(1, max(2, length // 4 + 1)))
        if t1 + shift <= self.extent:
            return t0 + shift, t1 + shift
        if t0 - shift >= 0:
            return t0 - shift, t1 - shift
        return t0, t1 - shift  # the full extent: shrink it instead

    def make_input(self, i: int):
        if self.kind(i) == "append":
            k = len(self.blocks)
            return boats_like(*self.x0.shape[:2], self.block, seed=[self.seed, 2, k])
        self.current = self._next_range()
        return self.current

    def op(self, i: int, arg):
        if self.kind(i) == "append":
            self.store.append(arg, rng=self.seed)
            served = self.store.open()
            self.served.close()
            self.served = served
            return arg
        return self.served.query_time_range(*arg)

    def check(self, i: int, out) -> None:
        if self.kind(i) == "append":
            self.blocks.append(out)
            self.extent += out.shape[-1]
            self.history.clear()
            if self.served.shape[-1] != self.extent:
                raise CheckFailed(f"append: extent {self.served.shape[-1]} != {self.extent}")
            return None
        record = self.served.stats.records[-1]
        t0, t1 = self.current
        self.tags[record.cache] = self.tags.get(record.cache, 0) + 1
        if out.core.shape[-1] != min(self.ranks[-1], t1 - t0):
            raise CheckFailed(f"query [{t0}, {t1}): core shape {out.core.shape}")
        if (t0, t1) not in self.history:
            self.history.append((t0, t1))
        # The first computed answer in each window of 50 operations.
        if record.cache != "hit" and len(self.spot) <= i // 50 and len(self.spot) < self.max_spot_checks:
            self.spot.append((t0, t1, out))
        return None

    def finish(self) -> list[float]:
        full = np.concatenate([self.x0, *self.blocks], axis=2) if self.blocks else self.x0
        ratios = []
        for t0, t1, answer in self.spot:
            sub = np.ascontiguousarray(full[..., t0:t1])
            ranks = tuple(answer.ranks)
            direct = DTucker(ranks, seed=self.seed, config=SERIAL).fit(sub).result_
            ref = rel_error(sub, direct.core, direct.factors)
            ratios.append(_ratio(sub, answer, ref, f"served [{t0}, {t1})"))
        return ratios

    def peak_op(self):
        # A fresh model, so the query is a cold miss whatever ran before.
        self.served.close()
        self.served = self.store.open()
        length = 256
        t0 = int(np.random.default_rng([self.seed, 3]).integers(0, self.extent - length + 1))
        return lambda: self.served.query_time_range(t0, t0 + length)

    def report(self) -> dict:
        queries = self.latencies.get("query", [])
        appends = self.latencies.get("append", [])
        n = max(1, sum(self.tags.values()))
        return {
            "query_p50_ms": _timing(queries, 1e3, "ms"),
            "query_tail_ms": _tail(queries, 1e3, "ms"),
            "append_p50_ms": _timing(appends, 1e3, "ms"),
            "cache_mix": {tag: {"count": c, "share": c / n} for tag, c in self.tags.items()},
            "spot_checks": len(self.spot),
            "extent": self.extent,
        }

    def close(self) -> None:
        served = getattr(self, "served", None)
        if served is not None:
            served.close()


# -- stream_ingest --------------------------------------------------------------

class StreamIngest(Workload):
    """Incremental windowed streaming of a stationary low-rank 128×96×T stream."""

    name = "stream_ingest"
    primary = "update"
    trace_ops = 64
    warmup_ops = 100
    shape = (128, 96)
    ranks = (6, 6, 8)
    block = 16
    window = 512
    noise = 0.1
    #: Distinct noise blocks cycled through the stream (drawn once in setup so
    #: that making an input costs far less than the update it feeds).
    noise_bank = 37

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        self.a = np.linalg.qr(rng.standard_normal((self.shape[0], self.ranks[0])))[0]
        self.b = np.linalg.qr(rng.standard_normal((self.shape[1], self.ranks[1])))[0]
        self.g = 10.0 * rng.standard_normal(self.ranks)
        self.bank = self.noise * rng.standard_normal((self.noise_bank, *self.shape, self.block))
        self._start_stream()

    def _block(self, k: int) -> np.ndarray:
        c = np.random.default_rng([self.seed, 5, k]).standard_normal((self.block, self.ranks[2]))
        signal = _project(self.g, [self.a, self.b, c])
        return signal + self.bank[k % self.noise_bank]

    def _start_stream(self) -> None:
        self.stream = StreamingDTucker(
            self.ranks,
            slice_rank=10,
            update="incremental",
            window=self.window,
            seed=self.seed,
            config=SERIAL,
        )
        steps = self.window // self.block
        self.live: deque = deque(maxlen=steps)
        for k in range(steps):
            x = self._block(k)
            self.stream.partial_fit(x)
            self.live.append(x)
        self.k = steps
        self.input_bytes = int(self.live[0].nbytes) * steps

    def _window_ratio(self, what: str) -> float:
        window = np.concatenate(list(self.live), axis=2)
        result = self.stream.result_
        if result.factors[-1].shape[0] != window.shape[-1]:
            raise CheckFailed(f"{what}: window of {result.factors[-1].shape[0]} steps")
        return _ratio(window, result, reference_error(window, self.ranks), what)

    def prepare(self) -> list[float]:
        return [self._window_ratio("window after setup")]

    def reset(self) -> None:
        self._start_stream()

    def make_input(self, i: int):
        x = self._block(self.k)
        self.k += 1
        self.live.append(x)
        return x

    def op(self, i: int, x):
        return self.stream.partial_fit(x)

    def check(self, i: int, out) -> None:
        err = out.history_[-1]
        if not (math.isfinite(err) and err < 0.5):
            raise CheckFailed(f"update {i}: estimated error {err}")
        return None

    def finish(self) -> list[float]:
        return [self._window_ratio("final window")]

    def report(self) -> dict:
        updates = self.latencies.get("update", [])
        return {
            "update_p50_ms": _timing(updates, 1e3, "ms"),
            "update_tail_ms": _tail(updates, 1e3, "ms"),
            "blocks_ingested": self.stream.n_updates_,
            "watchdog_triggers": self.stream.watchdog_triggers_,
        }


# -- fit_sharded ----------------------------------------------------------------

def _noop(x: int) -> int:
    return x


class FitSharded(Workload):
    """The fit_paper boats problem read from 4 .npy shards and fit on worker processes."""

    name = "fit_sharded"
    primary = "fit"
    trace_ops = 2
    warmup_ops = 1
    shards = 4

    def __init__(self, seed: int, workdir: Path, nproc: int) -> None:
        super().__init__(seed, workdir, nproc)
        self.workers = max(1, min(2, nproc))
        self.backend = None

    def _warm_pool(self) -> None:
        self.backend.map(_noop, list(range(self.workers)))

    def setup(self) -> None:
        d = load_dataset("boats", "default", seed=self.seed)
        self.x, self.ranks = d.tensor, d.ranks
        self.input_bytes = int(self.x.nbytes)
        shard_dir = self.workdir / "shards"
        shutil.rmtree(shard_dir, ignore_errors=True)
        self.manifest = write_npy_shards(shard_dir, self.x, self.shards)
        self.close()
        self.backend = ProcessBackend(n_workers=self.workers)
        self._warm_pool()
        self.config = DTuckerConfig(seed=self.seed, backend="process", n_workers=self.workers)

    def prepare(self) -> list[float]:
        self.ref = reference_error(self.x, self.ranks)
        self.ref_ssvd = FitPipeline(self.ranks, config=SERIAL).compress(
            DenseSource(self.x), rng=self.seed
        )
        self.comm_mb = 0.0
        return []

    def op(self, i: int, arg):
        source = ShardedSource.from_manifest(self.manifest)
        return ShardCoordinator(
            source, self.ranks, config=self.config, engine=self.backend
        ).fit()

    def check(self, i: int, fit) -> float:
        ssvd = fit.slice_svd
        same = all(
            np.array_equal(getattr(ssvd, k), getattr(self.ref_ssvd, k)) for k in ("u", "s", "vt")
        )
        self.comm_mb = fit.kernel_stats.bytes_comm / 2**20
        # ProcessBackend keeps every array it shared alive until close();
        # restarting the pool between operations (untimed) releases them, so
        # a long run does not fill shared memory.
        self.backend.close()
        self._warm_pool()
        if not same:
            raise CheckFailed("sharded compression differs from the unsharded one")
        return _ratio(self.x, fit.result, self.ref, "sharded fit")

    def peak_op(self):
        return lambda: self.op(PEAK_OP, None)

    def report(self) -> dict:
        return {
            "fit_s": _timing(self.latencies.get("fit", []), 1.0, "s"),
            "shards": self.shards,
            "workers": self.workers,
            "comm_mb_per_fit": self.comm_mb,
            "page_cache": "warm: shards are written in setup and not dropped",
            "peak_alloc_scope": "coordinator process only; worker allocations are not traced",
        }

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None


WORKLOADS = {w.name: w for w in (FitPaper, ServeMixed, StreamIngest, FitSharded)}
