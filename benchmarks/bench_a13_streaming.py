"""A13 — streaming ingest: the one update mode against a from-scratch fit.

:class:`repro.core.streaming.StreamingDTucker` has one update mode:
projection caches carried across updates, so an update computes only the
new block's rows (O(block)), with the EWMA drift watchdog at its default
budget re-deriving every factor when the error drifts.  Two sections:

* **drift** — 128×96 slices, blocks of 16 steps, ranks (6, 6, 8), slice
  rank 10, noise 0.1, whose mode-1 factor turns by θ ∈ {0, 0.3, 1.0} rad
  over the stream (:func:`repro.tensor.random.drifting_tensor`; θ = 0 is
  stationary).  Per stream: the true error over a from-scratch
  :class:`~repro.core.dtucker.DTucker` fit of the whole tensor, the median
  per-update latency, the watchdog refreshes and the total ingest time.
* **scaling** — the stationary stream, with the steady-state per-update
  latency (fastest of the last few updates) at each accumulated extent T,
  beside a from-scratch fit of the accumulated tensor at that extent.

Gates (full run):

* error — every stream's true error within ``1.05x`` of the from-scratch
  fit's;
* flatness — per-update latency grows ``<= 1.3x`` from T = 64 to 1024.

The full run's machine-readable report lands at ``BENCH_stream.json`` in
the repo root.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_a13_streaming.py           # full
    PYTHONPATH=src python benchmarks/bench_a13_streaming.py --smoke   # CI

``--smoke`` streams to T = 768 and gates the error (``1.05x`` on all three
streams) and one update against a from-scratch fit of the accumulated
tensor at T = 768 (``>= 2x``).  It prints its report and writes no file.
The flatness gate's smoke form is the pytest guard
``tests/test_core_streaming.py::TestIncrementalFlatnessGuard`` (median of
3 repeats: one cold run failed it in 1 of 4 runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
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
NOISE = 0.1
THETAS = (0.0, 0.3, 1.0)

DRIFT_EXTENT = 1024
EXTENTS = (64, 256, 1024, 2048)
#: Span of the flatness gate.
FLAT_EXTENT = 1024
SMOKE_EXTENT = 768
SMOKE_EXTENTS = (64, SMOKE_EXTENT)

#: Updates whose fastest latency stands for an extent.
TIMED_TAIL = 6

FLAT_LIMIT = 1.3
ERROR_LIMIT = 1.05
SMOKE_SPEEDUP_FLOOR = 2.0


def make_stream(t_max: int, theta: float) -> np.ndarray:
    """The 128×96×t_max stream whose mode-1 factor turns by ``theta``."""
    from repro.tensor.random import drifting_tensor

    return drifting_tensor(
        SHAPE_SLICES + (t_max,), RANKS, SEED, theta=theta, noise=NOISE
    )


def true_error(x: np.ndarray, result) -> float:
    """``‖X − X̂‖² / ‖X‖²`` without forming ``X̂`` (orthonormal factors)."""
    from repro.tensor.products import multi_mode_product

    projected = multi_mode_product(
        x, result.factors, list(range(x.ndim)), transpose=True
    )
    norm = float(np.vdot(x, x))
    cross = float(np.vdot(projected, result.core))
    return (norm - 2.0 * cross + float(np.vdot(result.core, result.core))) / norm


def scratch_fit(x: np.ndarray) -> tuple[float, float]:
    """A from-scratch ``DTucker`` fit of ``x``: (seconds, true error)."""
    from repro.core.config import DTuckerConfig
    from repro.core.dtucker import DTucker

    model = DTucker(RANKS, slice_rank=SLICE_RANK, config=DTuckerConfig(seed=SEED))
    start = time.perf_counter()
    model.fit(x)
    seconds = time.perf_counter() - start
    return seconds, true_error(x, model.result_)


def stream(x: np.ndarray, extents: tuple[int, ...] = ()) -> dict:
    """Ingest ``x`` block by block with the one update mode.

    Records every update's latency, the fastest of the last
    ``TIMED_TAIL`` at each extent in ``extents``, and the final true
    error, refresh count and projection counters.
    """
    from repro.core.config import DTuckerConfig
    from repro.core.streaming import StreamingDTucker

    model = StreamingDTucker(
        RANKS, slice_rank=SLICE_RANK, config=DTuckerConfig(seed=SEED)
    )
    latencies: list[float] = []
    at: dict[str, float] = {}
    for t0 in range(0, x.shape[-1], BLOCK_STEPS):
        start = time.perf_counter()
        model.partial_fit(x[:, :, t0 : t0 + BLOCK_STEPS])
        latencies.append(time.perf_counter() - start)
        t_done = t0 + BLOCK_STEPS
        if t_done in extents:
            # min over the tail: scheduling hiccups only ever add time.
            at[str(t_done)] = min(latencies[-TIMED_TAIL:]) * 1e3
    stats = model.kernel_stats_
    return {
        "per_update_ms": at,
        "update_p50_ms": statistics.median(latencies) * 1e3,
        "ingest_s": sum(latencies),
        "refreshes": model.watchdog_triggers_,
        "error": true_error(x, model.result_),
        "proj_cached_rows": stats.hits_for("stream:proj"),
        "proj_computed_rows": stats.misses_for("stream:proj"),
    }


def run_drift(t_max: int) -> dict:
    """The drift table: one stream per θ against its from-scratch fit."""
    out: dict = {}
    for theta in THETAS:
        x = make_stream(t_max, theta)
        row = stream(x)
        del row["per_update_ms"]
        _, scratch_err = scratch_fit(x)
        row["scratch_error"] = scratch_err
        row["error_ratio"] = row["error"] / scratch_err
        out[str(theta)] = row
    return out


def run_scaling(extents: tuple[int, ...]) -> dict:
    """Per-update latency by extent beside a from-scratch fit at each extent."""
    x = make_stream(max(extents), 0.0)
    report = stream(x, extents)
    scratch_ms = {}
    for t in extents:
        seconds, _ = scratch_fit(x[:, :, :t])
        scratch_ms[str(t)] = seconds * 1e3
    report["scratch_fit_ms"] = scratch_ms
    times = report["per_update_ms"]
    t_min, t_max = str(min(extents)), str(max(extents))
    t_flat = str(FLAT_EXTENT) if FLAT_EXTENT in extents else t_max
    report["extents"] = list(extents)
    report["flat_extent"] = int(t_flat)
    report["growth"] = times[t_max] / times[t_min]
    report["flat_growth"] = times[t_flat] / times[t_min]
    report["speedup_vs_scratch"] = scratch_ms[t_max] / times[t_max]
    return report


def run_section(drift_extent: int, extents: tuple[int, ...]) -> dict:
    # Warm the code paths so the first timed stream does not pay them.
    stream(make_stream(4 * BLOCK_STEPS, 0.0))
    return {
        "slice_shape": list(SHAPE_SLICES),
        "ranks": list(RANKS),
        "block_steps": BLOCK_STEPS,
        "slice_rank": SLICE_RANK,
        "noise": NOISE,
        "drift_extent": drift_extent,
        "drift": run_drift(drift_extent),
        "scaling": run_scaling(extents),
    }


def _error_failures(report: dict) -> list[str]:
    return [
        f"theta={theta}: true error {row['error_ratio']:.4f}x a from-scratch "
        f"fit (limit {ERROR_LIMIT}x)"
        for theta, row in report["drift"].items()
        if row["error_ratio"] > ERROR_LIMIT
    ]


def _report_failures(failures: list[str]) -> int:
    for msg in failures:
        print(f"[A13] FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


def check_full(report: dict) -> int:
    failures = _error_failures(report)
    scaling = report["scaling"]
    if scaling["flat_growth"] > FLAT_LIMIT:
        failures.append(
            f"per-update growth {scaling['flat_growth']:.2f}x to "
            f"T={scaling['flat_extent']} exceeds the {FLAT_LIMIT}x flatness limit"
        )
    return _report_failures(failures)


def check_smoke(report: dict) -> int:
    failures = _error_failures(report)
    scaling = report["scaling"]
    t_max = max(scaling["extents"])
    if scaling["speedup_vs_scratch"] < SMOKE_SPEEDUP_FLOOR:
        failures.append(
            f"one update is only {scaling['speedup_vs_scratch']:.2f}x faster "
            f"than a from-scratch fit at T={t_max} (floor {SMOKE_SPEEDUP_FLOOR}x)"
        )
    return _report_failures(failures)


def _format(report: dict) -> str:
    lines = [
        "A13 streaming ingest: one update mode vs a from-scratch DTucker fit",
        f"  slices {tuple(report['slice_shape'])}, ranks "
        f"{tuple(report['ranks'])}, slice rank {report['slice_rank']}, "
        f"noise {report['noise']}, blocks of {report['block_steps']} steps",
        f"  drift, T={report['drift_extent']}:",
        "    theta  error/scratch  update p50 ms  refreshes  ingest s",
    ]
    for theta, row in report["drift"].items():
        lines.append(
            f"    {theta:>5}  {row['error_ratio']:13.4f}  "
            f"{row['update_p50_ms']:13.1f}  {row['refreshes']:9d}  "
            f"{row['ingest_s']:8.2f}"
        )
    scaling = report["scaling"]
    extents = [str(t) for t in scaling["extents"]]
    lines.append(
        "  scaling (stationary):  " + "".join(f"T={t:>6} " for t in extents)
    )
    lines.append(
        "  update ms              "
        + "".join(f"{scaling['per_update_ms'][t]:8.2f} " for t in extents)
        + f" growth {scaling['growth']:.2f}x"
    )
    lines.append(
        "  scratch fit ms         "
        + "".join(f"{scaling['scratch_fit_ms'][t]:8.1f} " for t in extents)
    )
    lines.append(
        f"  one update is {scaling['speedup_vs_scratch']:.1f}x faster than a "
        f"from-scratch fit at T={extents[-1]}"
    )
    return "\n".join(lines)


def run_all() -> dict:
    return {
        "benchmark": "A13_streaming",
        "stream": run_section(DRIFT_EXTENT, EXTENTS),
    }


def smoke() -> int:
    # The smoke prints its report and leaves the committed full-run
    # BENCH_stream.json untouched.
    report = run_section(SMOKE_EXTENT, SMOKE_EXTENTS)
    print(_format(report))
    return check_smoke(report)


# -- pytest entry points (collected via `pytest benchmarks/`) ----------------

def test_a13_stream_small(benchmark) -> None:
    """Smoke-scale section: error and speed gates."""

    def run() -> dict:
        return run_section(SMOKE_EXTENT, SMOKE_EXTENTS)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert check_smoke(report) == 0, report


def test_a13_report(benchmark) -> None:
    """Full run; writes BENCH_stream.json at the repo root."""

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
        help="fast CI guard: T=768, error and one-update-vs-scratch gates",
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
