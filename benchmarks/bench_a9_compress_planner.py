"""A9 — adaptive compression planner: fixed rsvd vs auto vs float32.

Times the approximation phase three ways on synthetic order-3 and order-4
tensors (Serial backend, fixed seed):

* **fixed** — the historical default ``strategy="rsvd"`` (randomized SVD
  whenever the short slice side exceeds twice the sketch width);
* **auto** — ``strategy="auto"``: the flop model of
  :func:`repro.kernels.compress_plan.estimate_costs` picks per-shape among
  the exact, Gram and randomized methods;
* **float32** — ``strategy="auto"`` with ``precision="float32"`` (norms
  still accumulate in float64).

The shapes are chosen in the regime the planner targets: slices with one
short-ish side (``I2 = 48``) where the legacy dispatch still pays for a
full randomized pipeline but the Gram route is cheaper.  Each variant's
reconstruction error against the original tensor is recorded next to its
runtime, and the machine-readable ``BENCH_compress.json`` lands at the
repo root.  The planner acceptance target is a >= 1.5x compression-phase
speedup for auto over fixed on at least one configuration, with the
float32 error within 1e-2 of the float64 baseline.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_a9_compress_planner.py           # full
    PYTHONPATH=src python benchmarks/bench_a9_compress_planner.py --smoke   # CI

``--smoke`` is the fast perf-regression guard used by CI: it compresses a
small on-disk tensor batch-by-batch and exits non-zero if the planner ever
draws more than one Gaussian test matrix per batch (i.e. the shared-sketch
amortisation regressed), if the float32 path drifts from the float64
result by more than 1e-2, or if compressing a strided in-memory order-3
tensor allocates at its peak half the tensor's bytes or more (the kernels
must work on cache-sized block copies, never on whole-slab copies).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_compress.json"

#: (label, shape, tucker ranks of the synthetic, slice rank).  Slices are
#: (512, 48): short side 48 > 2*(8+10), so the legacy dispatch runs the
#: full randomized pipeline while the cost model routes to the Gram path.
CASES = [
    ("order3", (512, 48, 200), (8, 8, 5), 8),
    ("order4", (256, 40, 12, 8), (8, 8, 4, 3), 8),
]
SEED = 0

SMOKE_SHAPE = (24, 18, 4, 3)
SMOKE_RANK = 3
SMOKE_BATCH = 4
#: Strided in-memory tensor of the peak-allocation guard (48 MiB) and the
#: bound on the traced allocation peak, as a fraction of its bytes.
PEAK_SHAPE = (256, 256, 96)
PEAK_BOUND = 0.5


def _setup(shape, ranks):
    from repro.tensor.random import random_tensor

    return random_tensor(shape, ranks, rng=SEED, noise=0.05)


def _variants(slice_rank):
    """The three timed configurations (label -> DTuckerConfig)."""
    from repro.core.config import DTuckerConfig

    return {
        "fixed": DTuckerConfig(seed=SEED, backend="serial"),
        "auto": DTuckerConfig(seed=SEED, backend="serial", strategy="auto"),
        "float32": DTuckerConfig(
            seed=SEED, backend="serial", strategy="auto", precision="float32"
        ),
    }


def _timed_round_robin(fns: dict, *, repeats: int = 5):
    """Best-of-``repeats`` wall clock per callable, interleaved.

    Alternating the variants within each repeat cancels machine throughput
    drift; the minimum over repeats is the standard stable estimator.
    """
    outs = {name: None for name in fns}
    secs = {name: float("inf") for name in fns}
    for _ in range(max(1, int(repeats))):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            outs[name] = fn()
            secs[name] = min(secs[name], time.perf_counter() - t0)
    return outs, secs


def run_case(label, shape, ranks, slice_rank, *, repeats: int = 5) -> dict:
    """Time the three variants on one synthetic tensor."""
    from repro.core.slice_svd import compress
    from repro.kernels import KernelStats, plan_from_config

    x = _setup(shape, ranks)
    variants = _variants(slice_rank)

    fns = {
        name: (lambda cfg=cfg: compress(x, slice_rank, config=cfg))
        for name, cfg in variants.items()
    }
    for fn in fns.values():  # warm-up (BLAS pools, imports)
        fn()
    outs, secs = _timed_round_robin(fns, repeats=repeats)

    i1, i2 = shape[:2]
    report = {"case": label, "shape": list(shape), "slice_rank": slice_rank}
    for name, cfg in variants.items():
        stats = KernelStats()
        compress(x, slice_rank, config=cfg, stats=stats)
        report[name] = {
            "seconds": secs[name],
            "rel_error": float(np.sqrt(outs[name].compression_error(x))),
            "method": plan_from_config(i1, i2, slice_rank, cfg).method,
            "plan_decisions": stats.plan_decisions(),
            "sketch_draws": stats.sketch_draws,
        }
    report["speedup_auto_vs_fixed"] = secs["fixed"] / secs["auto"]
    report["speedup_float32_vs_fixed"] = secs["fixed"] / secs["float32"]
    report["float32_error_gap"] = abs(
        report["float32"]["rel_error"] - report["fixed"]["rel_error"]
    )
    return report


def run_all(*, repeats: int = 5) -> dict:
    cases = [
        run_case(label, shape, ranks, k, repeats=repeats)
        for label, shape, ranks, k in CASES
    ]
    return {
        "benchmark": "A9_compress_planner",
        "seed": SEED,
        "backend": "serial",
        "cases": cases,
        "best_speedup_auto_vs_fixed": max(
            c["speedup_auto_vs_fixed"] for c in cases
        ),
    }


def smoke() -> int:
    """Fast CI guard: sketch amortisation + float32 accuracy."""
    import tempfile
    import tracemalloc

    from repro.core.config import DTuckerConfig
    from repro.core.sources import DenseSource, NpySource, compress_source
    from repro.kernels import KernelStats
    from repro.tensor.slices import slice_count

    x = _setup(SMOKE_SHAPE, (3, 3, 2, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.npy"
        np.save(path, x)
        stats = KernelStats()
        f64 = compress_source(
            NpySource(path),
            SMOKE_RANK,
            batch_slices=SMOKE_BATCH,
            rng=SEED,
            stats=stats,
        )
        f32 = compress_source(
            NpySource(path),
            SMOKE_RANK,
            batch_slices=SMOKE_BATCH,
            rng=SEED,
            config=DTuckerConfig(strategy="auto", precision="float32"),
        )
    n_batches = -(-slice_count(x.shape) // SMOKE_BATCH)
    draws = stats.sketch_draws
    gap = abs(
        np.sqrt(f32.compression_error(x)) - np.sqrt(f64.compression_error(x))
    )
    big = np.random.default_rng(SEED).standard_normal(PEAK_SHAPE)
    tracemalloc.start()
    try:
        compress_source(
            DenseSource(big), 8, config=DTuckerConfig(seed=SEED, backend="serial")
        )
        peak_ratio = tracemalloc.get_traced_memory()[1] / big.nbytes
    finally:
        tracemalloc.stop()
    print(
        f"[A9 smoke] batches={n_batches} sketch_draws={draws} "
        f"decisions={stats.plan_decisions()} float32_error_gap={gap:.2e} "
        f"dense_peak_alloc={peak_ratio:.3f}x tensor"
    )
    if draws > n_batches:
        print(
            "[A9 smoke] FAIL: more than one test-matrix draw per batch — "
            "the shared-sketch amortisation regressed",
            file=sys.stderr,
        )
        return 1
    if gap > 1e-2:
        print(
            f"[A9 smoke] FAIL: float32 error drifted {gap:.2e} > 1e-2 from "
            "the float64 baseline",
            file=sys.stderr,
        )
        return 1
    if peak_ratio >= PEAK_BOUND:
        print(
            f"[A9 smoke] FAIL: compressing a strided {PEAK_SHAPE} tensor "
            f"peaked at {peak_ratio:.2f}x its bytes >= {PEAK_BOUND}x — a "
            "whole-slab copy is back in the compression kernels",
            file=sys.stderr,
        )
        return 1
    print(
        "[A9 smoke] OK: <= 1 sketch draw per batch, float32 within 1e-2, "
        f"dense peak alloc < {PEAK_BOUND}x tensor"
    )
    return 0


def _format(report: dict) -> str:
    lines = []
    for case in report["cases"]:
        lines.append(
            f"{case['case']}: shape={tuple(case['shape'])} "
            f"slice_rank={case['slice_rank']}"
        )
        for name in ("fixed", "auto", "float32"):
            v = case[name]
            lines.append(
                f"  {name:8s} {v['seconds'] * 1e3:9.2f} ms  "
                f"rel_error={v['rel_error']:.2e}  method={v['method']}"
            )
        lines.append(
            f"  speedup: auto={case['speedup_auto_vs_fixed']:.2f}x "
            f"float32={case['speedup_float32_vs_fixed']:.2f}x  "
            f"float32_error_gap={case['float32_error_gap']:.2e}"
        )
    lines.append(
        f"best auto-vs-fixed speedup: "
        f"{report['best_speedup_auto_vs_fixed']:.2f}x"
    )
    return "\n".join(lines)


# -- pytest entry points (collected via `pytest benchmarks/`) ----------------

def test_a9_planner_small(benchmark) -> None:
    """Planner variants agree to tolerance at a quick scale."""

    def run() -> dict:
        return run_case("small", (96, 30, 40), (5, 5, 4), 5, repeats=2)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report["auto"]["rel_error"] < 0.5
    assert report["float32_error_gap"] < 1e-2
    assert report["auto"]["sketch_draws"] <= 1


def test_a9_report(benchmark) -> None:
    """Full-size comparison; writes BENCH_compress.json at the repo root."""

    def run() -> dict:
        return run_all()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    text = _format(report)
    from _util import write_result

    path = write_result("A9_compress_planner", text)
    print(f"\n[A9] compression planner -> {path} and {JSON_PATH}\n{text}")
    for case in report["cases"]:
        assert case["float32_error_gap"] < 1e-2
    # Acceptance target of the planner layer.
    assert report["best_speedup_auto_vs_fixed"] >= 1.5, report


# -- standalone CLI ----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: sketch draws per batch and float32 accuracy",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per variant"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    report = run_all(repeats=args.repeats)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(_format(report))
    print(f"wrote {JSON_PATH}")
    best = report["best_speedup_auto_vs_fixed"]
    if best < 1.5:
        print(
            f"[A9] WARNING: best auto-vs-fixed speedup {best:.2f}x below "
            "the 1.5x target on this machine",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
