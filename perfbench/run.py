"""Run one benchmark workload against the ``repro`` package and print its metrics.

    python3 perfbench/run.py --workload fit_paper --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer ones, and the spans are written as Chrome trace-event JSON
under ``.perfbench/``.  The line before it is a report: the environment and
the workload's named metrics (``fit_s``, ``query_p50_ms``, …) with their
sample counts.  Workloads, metrics and the layer each metric should move
are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread per process, set before NumPy loads: fit_paper is the
# single-threaded baseline, and fit_sharded's two workers × one thread stay
# within the two-core budget.  REPRO_* overrides would change what is run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fit_paper", "serve_mixed", "stream_ingest", "fit_sharded")
#: setup_s is the median of this many independent set-ups.
SETUPS = 3


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level >= best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # older NumPy: show_config has no dict mode
        return "unknown"


def environment(workload, blas_threads) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": _nproc(),
        "blas": _blas_name(np),
        "blas_threads": blas_threads,
        "process_workers": workload.workers,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "last_level_cache": _last_level_cache(),
        "input_bytes": workload.input_bytes,
    }


class Run:
    """Counts attempted and failed operations and collects error ratios."""

    def __init__(self, workload, check_failed: type[Exception]) -> None:
        self.wl = workload
        self.check_failed = check_failed
        self.attempted = 0
        self.failed = 0
        self.ratios: list[float] = []

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        print(f"FAILED {what}: {exc}", file=sys.stderr)
        if not isinstance(exc, self.check_failed):
            traceback.print_exception(exc, file=sys.stderr)

    def checked(self, what: str, fn) -> None:
        try:
            self.ratios.extend(r for r in fn() if r is not None)
        except Exception as exc:
            self.fail(what, exc)

    def one_op(self, i: int, timed: bool = True, tracer=None) -> float | None:
        """Run operation ``i`` (input made untimed), check it, return its seconds."""
        wl = self.wl
        self.attempted += 1
        try:
            arg = wl.make_input(i)
            t0 = time.perf_counter()
            if tracer is not None:
                out = tracer.run_op(i, lambda: wl.op(i, arg))
            else:
                out = wl.op(i, arg)
            dt = time.perf_counter() - t0
        except Exception as exc:
            self.fail(f"op {i}", exc)
            return None
        if timed:
            wl.latencies.setdefault(wl.kind(i), []).append(dt)
        self.checked(f"check of op {i}", lambda: [wl.check(i, out)])
        return dt


def reset(wl) -> None:
    """Restore the workload's start state and write its files to disk.

    Without the flush the kernel writes the set-up's dirty pages back about
    30 s later, in the middle of the timed loop.
    """
    wl.reset()
    for path in wl.workdir.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def measure(run: Run, seconds: float) -> None:
    """Closed loop until ``seconds`` of operation time are measured."""
    for i in range(run.wl.warmup_ops):
        run.one_op(i, timed=False)
    spent, i = 0.0, run.wl.warmup_ops
    wall_cap = time.perf_counter() + 2.0 * seconds + 20.0
    while spent < seconds and time.perf_counter() < wall_cap:
        dt = run.one_op(i)
        spent += dt if dt is not None else 0.0
        i += 1


def end_to_end(run: Run, setup_times: list[float], peak_bytes: int) -> dict:
    wl = run.wl
    samples = wl.latencies.get(wl.primary, [])
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "op_p50_ms": {
            "value": statistics.median(samples) * 1e3 if samples else None,
            "unit": "ms",
        },
        "error_ratio": {"value": max(run.ratios) if run.ratios else None, "unit": "ratio"},
        "peak_alloc_mb": {"value": peak_bytes / 2**20, "unit": "MB"},
    }


def traced(run: Run, outdir: Path, seed: int) -> dict:
    """Untimed-vs-traced replay of the same operations; per-layer metrics."""
    import layers
    import tracing

    wl = run.wl
    n = wl.trace_ops
    reset(wl)
    plain = [run.one_op(i, timed=False) for i in range(n)]
    reset(wl)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer, layers.TARGETS):
        spans_ops = [run.one_op(i, timed=False, tracer=tracer) for i in range(n)]
    run.checked("end-of-run checks", wl.finish)
    plain_s = sum(d for d in plain if d is not None)
    traced_s = sum(d for d in spans_ops if d is not None)
    overhead = traced_s / plain_s if plain_s > 0 else 0.0
    metrics = layers.layer_metrics(tracer.spans, overhead, n)
    path = outdir / f"trace-{wl.name}-seed{seed}.json"
    tracing.write_chrome_trace(
        str(path),
        tracer.spans,
        {"workload": wl.name, "seed": seed, "layers": layers.LAYERS},
    )
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "trace_file": str(path.relative_to(ROOT)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from repro.engine.blas import current_blas_threads
    from repro.metrics.peak_memory import measure_peak

    import workloads

    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir))
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, _nproc())
    run = Run(wl, workloads.CheckFailed)
    try:
        blas_threads = current_blas_threads() or 1
        if wl.workers * blas_threads > _nproc():
            print(
                f"error: {wl.workers} workers x {blas_threads} BLAS threads "
                f"exceeds nproc={_nproc()}",
                file=sys.stderr,
            )
            return 3
        setup_times = []
        for _ in range(SETUPS):
            wl.close()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        run.checked("set-up checks", wl.prepare)

        if args.trace:
            result = traced(run, outdir, args.seed)
            metrics = result["metrics"]
            report = {"trace_file": result["trace_file"]}
        else:
            reset(wl)
            measure(run, args.seconds)
            run.checked("end-of-run checks", wl.finish)
            peak_fn = wl.peak_op()
            _, peak_bytes = measure_peak(peak_fn)
            metrics = end_to_end(run, setup_times, peak_bytes)
            report = {
                "setup_s": {"value": metrics["setup_s"]["value"], "unit": "s", "n": SETUPS},
                "failed_frac": {
                    "value": run.failed / max(1, run.attempted),
                    "unit": "ratio",
                    "n": run.attempted,
                },
                **wl.report(),
                "error_ratio": {**metrics["error_ratio"], "n": len(run.ratios)},
                "peak_alloc_mb": {**metrics["peak_alloc_mb"], "n": 1},
            }
        report = {
            "workload": wl.name,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(wl, blas_threads),
            **report,
        }
        print(json.dumps({"report": report}))
        correct = run.failed == 0 and all(m["value"] is not None for m in metrics.values())
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": run.attempted,
                    "failed": run.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop the helper process shared memory starts, and wait for it to end."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
