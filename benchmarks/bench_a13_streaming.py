"""A13 — streaming ingest: O(block) incremental updates vs full refit.

One section: a stationary low-rank temporal tensor is streamed block by
block into three :class:`repro.core.streaming.StreamingDTucker` instances —
``update="refit"`` (the historical behaviour: full warm ALS over all
accumulated slices per ingest), ``update="incremental"`` (projection
caches carried across updates, only the new block's rows computed) and
``update="sketch"`` (incremental plus frequent-directions factor
refreshes).  At each target extent T the steady-state per-update latency
(median of the last few ingests) and the final estimated error are
recorded.

Gates (full run):

* per-update latency is **flat** for incremental and sketch —
  ``time(FLAT_EXTENT) / time(T_min) <= 1.3`` over the 64 -> 1024 span —
  while refit **grows** ``>= 4x`` over the full 64 -> 2048 range (the
  longer span lets the O(T) sweep cost dominate refit's fixed per-block
  compression cost, which is extent-independent for every mode);
* final error of both online modes stays within ``1.05x`` of refit.

The full run's machine-readable report lands at ``BENCH_stream.json`` in
the repo root.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_a13_streaming.py           # full
    PYTHONPATH=src python benchmarks/bench_a13_streaming.py --smoke   # CI

``--smoke`` streams to smaller extents and gates the incremental mode
only: ``>= 2x`` incremental-over-refit per-update latency at the largest
smoke extent.  It prints its report (flat growth included) and writes no
file.  Its flatness gate (<= 1.3x) is the pytest guard
``tests/test_core_streaming.py::TestIncrementalFlatnessGuard``, judged on
the median of 3 repeats: one cold run failed it in 1 of 4 runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_stream.json"

SEED = 0
SHAPE_SLICES = (128, 96)  # (I1, I2) of every temporal slice
RANKS = (6, 6, 8)
SLICE_RANK = 10
BLOCK_STEPS = 16
SWEEPS_PER_UPDATE = 15
EXTENTS = (64, 256, 1024, 2048)

#: Span for the online-flatness gate (the refit-growth gate uses the full
#: extent range: its O(T) term needs the longer run to dominate the fixed
#: per-block compression cost).
FLAT_EXTENT = 1024
SMOKE_EXTENTS = (64, 768)

#: Updates whose latency forms the steady-state median at each extent.
TIMED_TAIL = 6

FLAT_LIMIT = 1.3
REFIT_GROWTH_FLOOR = 4.0
ERROR_LIMIT = 1.05
SMOKE_SPEEDUP_FLOOR = 2.0


def make_stream(t_max: int) -> np.ndarray:
    """A stationary low-rank temporal tensor (fixed Tucker structure + noise)."""
    from repro.tensor.random import default_rng, random_tensor

    rng = default_rng(SEED)
    return random_tensor(SHAPE_SLICES + (t_max,), RANKS, rng=rng, noise=0.02)


def stream_mode(x: np.ndarray, mode: str, extents: tuple[int, ...]) -> dict:
    """Ingest ``x`` block by block; record steady-state latency per extent.

    One model instance streams the full range; at each target extent the
    median of the last ``TIMED_TAIL`` per-update wall-clock times is taken
    — by then the accumulated extent ≈ the target, so refit's O(T) cost is
    fully visible while the online modes only ever touch the block.
    """
    from repro.core.streaming import StreamingDTucker

    from repro.core.config import DTuckerConfig

    # A tiny tolerance pins every refit update to exactly
    # SWEEPS_PER_UPDATE sweeps (no early stopping), so the per-update
    # latency reflects a fixed sweep budget at every extent.
    model = StreamingDTucker(
        RANKS,
        slice_rank=SLICE_RANK,
        sweeps_per_update=SWEEPS_PER_UPDATE,
        config=DTuckerConfig(seed=SEED, tol=1e-12),
        update=mode,
    )
    targets = sorted(extents)
    out: dict = {"per_update_ms": {}, "error": {}}
    latencies: list[float] = []
    t_done = 0
    for t0 in range(0, targets[-1], BLOCK_STEPS):
        block = x[:, :, t0 : t0 + BLOCK_STEPS]
        start = time.perf_counter()
        model.partial_fit(block)
        latencies.append(time.perf_counter() - start)
        t_done += block.shape[-1]
        if t_done in targets:
            tail = latencies[-TIMED_TAIL:]
            # min over the tail: the noise-robust latency statistic —
            # scheduling hiccups only ever add time.
            out["per_update_ms"][str(t_done)] = min(tail) * 1e3
            out["error"][str(t_done)] = float(model.history_[-1])
    if mode != "refit":
        stats = model.kernel_stats_
        out["proj_cached_rows"] = stats.hits_for("stream:proj")
        out["proj_computed_rows"] = stats.misses_for("stream:proj")
    return out


def run_section(extents: tuple[int, ...] = EXTENTS) -> dict:
    x = make_stream(max(extents))
    report: dict = {
        "slice_shape": list(SHAPE_SLICES),
        "ranks": list(RANKS),
        "block_steps": BLOCK_STEPS,
        "slice_rank": SLICE_RANK,
        "sweeps_per_update": SWEEPS_PER_UPDATE,
        "extents": list(extents),
    }
    for mode in ("refit", "incremental", "sketch"):
        report[mode] = stream_mode(x, mode, extents)
    t_min, t_max = str(min(extents)), str(max(extents))
    # Online flatness is judged on the 64 -> 1024 span; refit growth over
    # the full range, where the O(T) term dwarfs the fixed per-block cost.
    t_flat = str(FLAT_EXTENT) if FLAT_EXTENT in extents else t_max
    for mode in ("refit", "incremental", "sketch"):
        times = report[mode]["per_update_ms"]
        report[mode]["growth"] = times[t_max] / times[t_min]
        report[mode]["flat_growth"] = times[t_flat] / times[t_min]
    report["flat_extent"] = int(t_flat)
    report["speedup_incremental_vs_refit"] = (
        report["refit"]["per_update_ms"][t_max]
        / report["incremental"]["per_update_ms"][t_max]
    )
    report["speedup_sketch_vs_refit"] = (
        report["refit"]["per_update_ms"][t_max]
        / report["sketch"]["per_update_ms"][t_max]
    )
    refit_err = report["refit"]["error"][t_max]
    report["error_ratio_incremental"] = (
        report["incremental"]["error"][t_max] / refit_err
    )
    report["error_ratio_sketch"] = report["sketch"]["error"][t_max] / refit_err
    return report


def check_full(report: dict) -> int:
    failures = []
    t_flat = report["flat_extent"]
    for mode in ("incremental", "sketch"):
        if report[mode]["flat_growth"] > FLAT_LIMIT:
            failures.append(
                f"{mode} per-update growth {report[mode]['flat_growth']:.2f}x "
                f"to T={t_flat} exceeds the {FLAT_LIMIT}x flatness limit"
            )
    if report["refit"]["growth"] < REFIT_GROWTH_FLOOR:
        failures.append(
            f"refit per-update growth {report['refit']['growth']:.2f}x is "
            f"below the {REFIT_GROWTH_FLOOR}x floor (workload too small to "
            "expose the O(T) cost)"
        )
    for mode in ("incremental", "sketch"):
        ratio = report[f"error_ratio_{mode}"]
        if ratio > ERROR_LIMIT:
            failures.append(
                f"{mode} final error is {ratio:.3f}x refit "
                f"(limit {ERROR_LIMIT}x)"
            )
    for msg in failures:
        print(f"[A13] FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


def check_smoke(report: dict) -> int:
    failures = []
    t_max = str(max(report["extents"]))
    speedup = (
        report["refit"]["per_update_ms"][t_max]
        / report["incremental"]["per_update_ms"][t_max]
    )
    if speedup < SMOKE_SPEEDUP_FLOOR:
        failures.append(
            f"incremental-over-refit per-update speedup {speedup:.2f}x at "
            f"T={t_max} is below the {SMOKE_SPEEDUP_FLOOR}x smoke floor"
        )
    for msg in failures:
        print(f"[A13] FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _format(report: dict) -> str:
    lines = [
        "A13 streaming ingest: per-update latency (ms) by accumulated extent",
        f"  slices {tuple(report['slice_shape'])}, ranks "
        f"{tuple(report['ranks'])}, blocks of {report['block_steps']} steps",
    ]
    extents = [str(t) for t in report["extents"]]
    header = "  mode         " + "".join(f"T={t:>6} " for t in extents) + " growth"
    lines.append(header)
    for mode in ("refit", "incremental", "sketch"):
        times = report[mode]["per_update_ms"]
        row = f"  {mode:<12} " + "".join(f"{times[t]:8.2f} " for t in extents)
        row += f" {report[mode]['growth']:5.2f}x"
        lines.append(row)
    lines.append(
        f"  speedup at T={extents[-1]}: incremental "
        f"{report['speedup_incremental_vs_refit']:.2f}x, sketch "
        f"{report['speedup_sketch_vs_refit']:.2f}x over refit"
    )
    lines.append(
        f"  final error vs refit: incremental "
        f"{report['error_ratio_incremental']:.4f}x, sketch "
        f"{report['error_ratio_sketch']:.4f}x"
    )
    return "\n".join(lines)


def run_all() -> dict:
    return {"benchmark": "A13_streaming", "stream": run_section()}


def smoke() -> int:
    # The smoke prints its report and leaves the committed full-run
    # BENCH_stream.json untouched.
    report = run_section(SMOKE_EXTENTS)
    print(_format(report))
    return check_smoke(report)


# -- pytest entry points (collected via `pytest benchmarks/`) ----------------

def test_a13_stream_small(benchmark) -> None:
    """Quick-scale section: gate the incremental win."""

    def run() -> dict:
        return run_section(SMOKE_EXTENTS)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert check_smoke(report) == 0, report


def test_a13_report(benchmark) -> None:
    """Full comparison; writes BENCH_stream.json at the repo root."""

    def run() -> dict:
        return run_all()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    text = _format(report["stream"])
    from _util import write_result

    path = write_result("A13_streaming", text)
    print(f"\n[A13] streaming -> {path} and {JSON_PATH}\n{text}")
    assert check_full(report["stream"]) == 0


# -- standalone CLI ----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: smaller extents, 2x incremental-over-refit gate",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    report = run_all()
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(_format(report["stream"]))
    print(f"wrote {JSON_PATH}")
    return check_full(report["stream"])


if __name__ == "__main__":
    raise SystemExit(main())
