"""A15 — distributed sharded fitting: shard-local compression, reduce-only bytes.

One workload, two acceptance gates:

* **bytes** — compressing a directory of ``.npy`` shards on the process
  backend must ship only the stacked ``[U_lΣ_l]``/``[Σ_lV_lᵀ]`` factor
  products across shard boundaries: the ``comm:`` counters must total
  **< 5 %** of the raw-slab bytes (the closed-form invariant is
  ``(I1+I2+1)·K`` numbers per slice against ``I1·I2``).
* **speedup** — on a *skewed, latency-bound* shard layout (member reads
  stall proportionally to their slice counts, the way remote or cold
  storage does; one shard holds most of the extent), the two-worker
  coordinator must finish the compression **>= 1.3x** faster than the
  single-process run.  The stalls release the GIL/CPU, so the measured
  win is core-count independent and reproducible in single-CPU CI
  containers.

Both worker counts must return bit-identical compressed triples — and
they match the unsharded in-memory compression bit for bit too, because
shards share one sketch and the per-slice kernels are slice-local.

The full run adds an informative distributed-sweeps section reporting the
reduce rounds and per-sweep comm volume of
:func:`repro.distributed.distributed_als_sweeps`.

The machine-readable report lands at ``BENCH_shard.json`` in the repo
root.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_a15_sharded.py           # full
    PYTHONPATH=src python benchmarks/bench_a15_sharded.py --smoke   # CI

``--smoke`` runs the gated workload only (two repeats) and exits non-zero
when either gate or the bit-identity contract regresses.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_shard.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import DenseSource, DTuckerConfig, NpySource, compress_source  # noqa: E402
from repro.core.initialization import initialize  # noqa: E402
from repro.distributed import ShardedSource, distributed_als_sweeps  # noqa: E402
from repro.engine import ProcessBackend  # noqa: E402
from repro.kernels import KernelStats, factor_nbytes  # noqa: E402
from repro.tensor.random import random_tensor  # noqa: E402

SEED = 0

#: Slab geometry: wide slices so the factor-product payload sits far
#: below the raw-slab bytes ((I1+I2+1)·K / (I1·I2) ≈ 3.1 % here).
I1, I2, T = 256, 256, 48
RANK = 4
RANKS = (4, 4, 4)

#: Skewed shard layout: one member owns most of the temporal extent — the
#: adversarial case for an equal-count split, and the common one when one
#: site accumulated most of the history.  The pool queue gives the long
#: member task to one worker while the other drains the short ones, which
#: earns the two-worker win.
SHARD_EXTENTS = (28, 8, 6, 6)

#: Per-slice read stall (seconds): emulates remote/cold-storage latency.
#: Total stall ≈ 0.38 s sequential, ≈ 0.22 s on two workers (the long task).
SLEEP_PER_SLICE = 0.008


class SlowNpySource(NpySource):
    """An ``.npy`` member whose reads stall like cold/remote storage.

    ``time.sleep`` releases the GIL and burns no CPU, so the benchmark's
    parallel win measures scheduling quality, not core count.  Like its
    base class it pickles as its path (plus the stall), so worker tasks
    carry the member itself.
    """

    def __init__(self, path, sleep_per_slice: float = SLEEP_PER_SLICE) -> None:
        super().__init__(path)
        self._sleep = float(sleep_per_slice)

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        time.sleep(self._sleep * (int(stop) - int(start)))
        return super().read_batch(start, stop)


def _make_workload(directory: Path) -> tuple[np.ndarray, ShardedSource]:
    """Write the skewed shard directory and open it with injected latency."""
    rng = np.random.default_rng(SEED)
    tensor = random_tensor((I1, I2, T), RANKS, rng=rng, noise=0.05)
    members = []
    lo = 0
    for i, extent in enumerate(SHARD_EXTENTS):
        path = directory / f"shard{i:03d}.npy"
        np.save(path, np.ascontiguousarray(tensor[..., lo:lo + extent]))
        members.append(SlowNpySource(path))
        lo += extent
    assert lo == T
    return tensor, ShardedSource(members)


def _timed_compress(
    source: ShardedSource, worker_counts: tuple[int, ...], *, repeats: int
) -> tuple[list[float], list[object], KernelStats]:
    """Best-of-``repeats`` wall clock of one sharded compression per worker count.

    The variants alternate within every repeat (1w, 2w, 1w, 2w, ...), so
    drift of the host's speed over the run lands on both sides alike.
    Returns the best times and last results in ``worker_counts`` order,
    and the counters of the first variant's warm-up run.
    """
    stats = KernelStats()
    with ExitStack() as stack:
        runs = []
        for i, n in enumerate(worker_counts):
            cfg = DTuckerConfig(seed=SEED, backend="process", n_workers=n)
            engine = stack.enter_context(ProcessBackend(n_workers=n))
            # Warm the pool (fork + import cost must not pollute the timing).
            compress_source(
                source, RANK, config=cfg, engine=engine,
                stats=stats if i == 0 else None,
            )
            runs.append((cfg, engine))
        best = [float("inf")] * len(runs)
        results: list[object] = [None] * len(runs)
        for _ in range(max(1, int(repeats))):
            for i, (cfg, engine) in enumerate(runs):
                t0 = time.perf_counter()
                results[i] = compress_source(source, RANK, config=cfg, engine=engine)
                best[i] = min(best[i], time.perf_counter() - t0)
    return best, results, stats


def run_engine_section(*, repeats: int = 3) -> dict:
    """The gated workload: skewed shards, 1 vs 2 workers, byte accounting."""
    with tempfile.TemporaryDirectory(prefix="bench_a15_") as tmp:
        tensor, source = _make_workload(Path(tmp))
        count = source.slice_count
        raw_bytes = count * I1 * I2 * np.dtype(np.float64).itemsize
        ship_bytes = factor_nbytes(I1, I2, RANK, n_slices=count)

        (single_s, double_s), (ssvd_1, ssvd_2), stats = _timed_compress(
            source, (1, 2), repeats=repeats
        )

        # Unsharded in-memory reference: the bit-identity contract.
        ref = compress_source(
            DenseSource(tensor),
            RANK,
            config=DTuckerConfig(seed=SEED, backend="serial"),
        )
        bit_identical = bool(
            np.array_equal(ssvd_1.u, ssvd_2.u)
            and np.array_equal(ssvd_1.s, ssvd_2.s)
            and np.array_equal(ssvd_1.vt, ssvd_2.vt)
            and np.array_equal(ssvd_1.u, ref.u)
            and np.array_equal(ssvd_1.s, ref.s)
            and np.array_equal(ssvd_1.vt, ref.vt)
        )
    return {
        "shape": [I1, I2, T],
        "rank": RANK,
        "shard_extents": list(SHARD_EXTENTS),
        "sleep_per_slice": SLEEP_PER_SLICE,
        "single_seconds": single_s,
        "two_worker_seconds": double_s,
        "speedup": single_s / double_s,
        "raw_slab_bytes": int(raw_bytes),
        "factor_ship_bytes": int(ship_bytes),
        "measured_comm_bytes": int(stats.bytes_comm),
        "ship_tasks": stats.misses_for("comm:ship"),
        "bytes_ratio": stats.bytes_comm / raw_bytes,
        "bit_identical": bit_identical,
    }


def run_sweeps_section() -> dict:
    """Informative: reduce rounds and comm volume of distributed sweeps."""
    rng = np.random.default_rng(SEED)
    tensor = random_tensor((I1, I2, T), RANKS, rng=rng, noise=0.05)
    cfg = DTuckerConfig(seed=SEED, backend="serial")
    source = ShardedSource.partition(DenseSource(tensor), len(SHARD_EXTENTS))
    ssvd = compress_source(source, RANK, config=cfg)
    _, factors = initialize(ssvd, RANKS)
    t0 = time.perf_counter()
    outcome = distributed_als_sweeps(
        ssvd, RANKS, factors, shard_bounds=source.shard_bounds, config=cfg
    )
    seconds = time.perf_counter() - t0
    comm = outcome.kernel_stats
    order = len(ssvd.shape)
    return {
        "n_shards": len(SHARD_EXTENTS),
        "sweeps": outcome.n_iters,
        "converged": outcome.converged,
        "seconds": seconds,
        "reduce_rounds": comm.misses_for("comm:reduce"),
        "rounds_per_sweep": order + 1,
        "comm_bytes": int(comm.bytes_comm),
        "comm_bytes_per_sweep": int(comm.bytes_comm / max(1, outcome.n_iters)),
    }


def run_all(*, repeats: int = 3) -> dict:
    return {
        "benchmark": "A15_sharded",
        "seed": SEED,
        "backend": "process",
        "engine": run_engine_section(repeats=repeats),
        "sweeps": run_sweeps_section(),
    }


def _check(report_engine: dict) -> int:
    """Shared acceptance gate: reduce-only bytes, two-worker win, identity."""
    if not report_engine["bit_identical"]:
        print(
            "[A15] FAIL: sharded compression differs across worker counts "
            "or from the unsharded reference — bit-identity broken",
            file=sys.stderr,
        )
        return 1
    ratio = report_engine["bytes_ratio"]
    if ratio >= 0.05:
        print(
            f"[A15] FAIL: shard-boundary traffic is {ratio:.1%} of the raw "
            "slab bytes (gate: < 5%) — a slab is crossing the boundary",
            file=sys.stderr,
        )
        return 1
    speedup = report_engine["speedup"]
    if speedup < 1.3:
        print(
            f"[A15] FAIL: two-worker speedup {speedup:.2f}x below the 1.3x "
            "target on the skewed shard layout",
            file=sys.stderr,
        )
        return 1
    return 0


def smoke() -> int:
    """Fast CI guard: the gated workload only."""
    if "fork" not in multiprocessing.get_all_start_methods():
        # The latency-injecting member classes live in this script; only
        # fork workers inherit them.  POSIX CI always has fork.
        print("[A15 smoke] SKIP: no fork start method on this platform")
        return 0
    report = run_engine_section(repeats=2)
    print(
        f"[A15 smoke] single={report['single_seconds'] * 1e3:.1f}ms "
        f"two-worker={report['two_worker_seconds'] * 1e3:.1f}ms "
        f"speedup={report['speedup']:.2f}x "
        f"bytes={report['measured_comm_bytes']}/{report['raw_slab_bytes']} "
        f"({report['bytes_ratio']:.2%}) "
        f"bit_identical={report['bit_identical']}"
    )
    rc = _check(report)
    if rc == 0:
        print(
            "[A15 smoke] OK: < 5% of raw bytes shipped, >= 1.3x on two workers"
        )
    return rc


def _format(report: dict) -> str:
    eng = report["engine"]
    sw = report["sweeps"]
    return "\n".join(
        [
            f"engine: {tuple(eng['shape'])} rank={eng['rank']} shards="
            f"{tuple(eng['shard_extents'])} stall={eng['sleep_per_slice']}s/slice",
            f"  single        {eng['single_seconds'] * 1e3:8.1f} ms",
            f"  two-worker    {eng['two_worker_seconds'] * 1e3:8.1f} ms  "
            f"speedup={eng['speedup']:.2f}x",
            f"  comm {eng['measured_comm_bytes']} B of {eng['raw_slab_bytes']} B "
            f"raw ({eng['bytes_ratio']:.2%}); factor payload "
            f"{eng['factor_ship_bytes']} B over {eng['ship_tasks']} ships; "
            f"bit_identical={eng['bit_identical']}",
            f"sweeps: {sw['n_shards']} shards, {sw['sweeps']} sweeps "
            f"(converged={sw['converged']}) in {sw['seconds'] * 1e3:.1f} ms",
            f"  {sw['reduce_rounds']} reduce rounds "
            f"({sw['rounds_per_sweep']}/sweep), {sw['comm_bytes']} B total "
            f"({sw['comm_bytes_per_sweep']} B/sweep)",
        ]
    )


# -- pytest entry points (collected via `pytest benchmarks/`) ----------------

def test_a15_engine_small(benchmark) -> None:
    """Quick-scale gated workload: bytes, speedup and bit-identity."""
    if "fork" not in multiprocessing.get_all_start_methods():
        import pytest

        pytest.skip("latency-injecting members need fork workers")

    def run() -> dict:
        return run_engine_section(repeats=2)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report["bit_identical"]
    assert report["bytes_ratio"] < 0.05, report
    assert report["speedup"] >= 1.3, report


def test_a15_report(benchmark) -> None:
    """Full comparison; writes BENCH_shard.json at the repo root."""
    if "fork" not in multiprocessing.get_all_start_methods():
        import pytest

        pytest.skip("latency-injecting members need fork workers")

    def run() -> dict:
        return run_all()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    text = _format(report)
    from _util import write_result

    path = write_result("A15_sharded", text)
    print(f"\n[A15] sharded -> {path} and {JSON_PATH}\n{text}")
    assert _check(report["engine"]) == 0


# -- standalone CLI ----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: gated workload only (< 5% bytes, >= 1.3x)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per variant"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    report = run_all(repeats=args.repeats)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(_format(report))
    print(f"wrote {JSON_PATH}")
    return _check(report["engine"])


if __name__ == "__main__":
    raise SystemExit(main())
