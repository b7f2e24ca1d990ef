"""A10 — cost-aware scheduling: static vs dynamic work-stealing execution.

Two sections, both on the thread backend with >= 4 workers:

* **engine** (the acceptance gate): a skewed *latency-bound* workload —
  each item performs a GIL-releasing stall proportional to its cost, the
  way non-resident slice batches wait on storage rather than the ALU.  A
  few heavy items sit at the front of the range, so the static equal-count
  plan hands one worker nearly all the work while the oversplit dynamic
  queue drains work-stealing-style into a balanced finish.  Because the
  stalls release the GIL, the measured speedup is core-count independent
  and reproducible inside single-CPU CI containers.  Three variants run:

  - ``static`` — one equal-count chunk per worker (costs unknown);
  - ``dynamic`` — oversplit queue, no cost model (pure work stealing);
  - ``dynamic+costs`` — oversplit queue with per-item costs, so chunk
    boundaries are cost-balanced and the heaviest chunks are submitted
    first (longest processing time first).

  The gate is ``>= 1.3x`` for the best dynamic variant over static, and
  all three variants must return bit-identical outputs.

* **solver** (informative, full run only): the approximation phase on a
  sparse tensor with strongly mixed per-slice nnz, static vs dynamic,
  reporting wall clock, imbalance ratio, and steal counts from the phase
  traces.  No gate — a compute-bound section needs real spare cores to
  speed up, which CI containers do not promise.

The machine-readable report lands at ``BENCH_schedule.json`` in the repo
root.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_a10_scheduling.py           # full
    PYTHONPATH=src python benchmarks/bench_a10_scheduling.py --smoke   # CI

``--smoke`` runs the engine section only (two repeats, same 1.3x gate)
and exits non-zero when the dynamic win or the bit-identity contract
regresses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_schedule.json"

SEED = 0
N_WORKERS = 4

#: Engine-section workload: per-item cost units (seconds = cost * SCALE).
#: The heavy items are contiguous at the front — the adversarial layout for
#: an equal-count static split, and a common one in practice (e.g. the
#: densest slices of a time-evolving tensor clustered at one end).
N_ITEMS = 32
HEAVY_COUNT = 8
HEAVY, LIGHT = 8.0, 1.0
SCALE = 0.004  # seconds per cost unit -> ~350 ms of total stall per run

#: Solver-section sparse tensor: a few near-dense slices, many near-empty.
SOLVER_SHAPE = (96, 64, 24)
SOLVER_HEAVY_SLICES = 4
SOLVER_RANK = 6


def skewed_costs(n_items: int = N_ITEMS, heavy_count: int = HEAVY_COUNT) -> np.ndarray:
    costs = np.full(int(n_items), LIGHT)
    costs[: int(heavy_count)] = HEAVY
    return costs


def latency_kernel(
    costs: np.ndarray, *, scale: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-item GIL-releasing stall proportional to cost, then a tiny op.

    Emulates an IO-latency-bound fetch+process loop: ``time.sleep`` stands
    in for the storage wait (it releases the GIL exactly like a real read),
    and the arithmetic afterwards is the per-item result the schedules must
    reproduce bit for bit.
    """
    if out is None:
        out = np.empty_like(costs)
    for i in range(costs.shape[0]):
        time.sleep(float(costs[i]) * scale)
        out[i] = costs[i] * 2.0 + 1.0
    return out


def _run_engine_variant(engine, costs, schedule, *, with_costs, scale=SCALE):
    from repro.engine import chunked

    with engine.phase(f"a10-{schedule}{'+costs' if with_costs else ''}") as trace:
        t0 = time.perf_counter()
        out = chunked(
            engine,
            latency_kernel,
            len(costs),
            slabs=(costs,),
            broadcast={"scale": scale},
            out=np.empty_like(costs),
            costs=costs if with_costs else None,
            schedule=schedule,
        )
        seconds = time.perf_counter() - t0
    return out, seconds, trace


def run_engine_section(*, repeats: int = 3, n_workers: int = N_WORKERS) -> dict:
    """Time the three scheduling variants on the skewed latency workload."""
    from repro.engine import ThreadBackend

    costs = skewed_costs()
    variants = {
        "static": ("static", False),
        "dynamic": ("dynamic", False),
        "dynamic+costs": ("dynamic", True),
    }
    report: dict = {
        "n_items": N_ITEMS,
        "n_workers": int(n_workers),
        "heavy_count": HEAVY_COUNT,
        "cost_skew": HEAVY / LIGHT,
    }
    outs: dict[str, np.ndarray] = {}
    with ThreadBackend(n_workers=n_workers) as engine:
        # Warm the pool so the first timed variant does not pay thread spawn.
        _run_engine_variant(engine, costs, "static", with_costs=False, scale=0.0)
        best: dict[str, dict] = {}
        for _ in range(max(1, int(repeats))):
            for name, (schedule, with_costs) in variants.items():
                out, seconds, trace = _run_engine_variant(
                    engine, costs, schedule, with_costs=with_costs
                )
                outs[name] = out
                if name not in best or seconds < best[name]["seconds"]:
                    best[name] = {
                        "seconds": seconds,
                        "imbalance_ratio": trace.imbalance_ratio(),
                        "steals": trace.steals,
                        "queue_wait_seconds": trace.queue_wait_seconds,
                        "n_tasks": trace.n_tasks,
                    }
    report.update(best)
    report["bit_identical"] = bool(
        np.array_equal(outs["static"], outs["dynamic"])
        and np.array_equal(outs["static"], outs["dynamic+costs"])
    )
    static = best["static"]["seconds"]
    report["speedup_dynamic_vs_static"] = static / best["dynamic"]["seconds"]
    report["speedup_dynamic_costs_vs_static"] = (
        static / best["dynamic+costs"]["seconds"]
    )
    report["best_dynamic_speedup"] = max(
        report["speedup_dynamic_vs_static"],
        report["speedup_dynamic_costs_vs_static"],
    )
    return report


def _skewed_sparse():
    """A sparse tensor whose per-slice nnz spans ~40x: the cost-model case."""
    from repro.sparse import SparseTensor

    rng = np.random.default_rng(SEED)
    dense = np.zeros(SOLVER_SHAPE)
    for l in range(SOLVER_SHAPE[2]):
        density = 0.8 if l < SOLVER_HEAVY_SLICES else 0.02
        mask = rng.random(SOLVER_SHAPE[:2]) < density
        dense[..., l][mask] = rng.standard_normal(int(mask.sum()))
    return SparseTensor.from_dense(dense)


def run_solver_section(*, n_workers: int = N_WORKERS) -> dict:
    """Static vs dynamic on a real mixed-nnz sparse compression (no gate)."""
    from repro.core.sparse_dtucker import compress_sparse
    from repro.engine import ThreadBackend

    tensor = _skewed_sparse()
    nnz = tensor.slice_nnz()
    report: dict = {
        "shape": list(SOLVER_SHAPE),
        "rank": SOLVER_RANK,
        "n_workers": int(n_workers),
        "slice_nnz_min": int(nnz.min()),
        "slice_nnz_max": int(nnz.max()),
    }
    results = {}
    for schedule in ("static", "dynamic"):
        with ThreadBackend(
            n_workers=n_workers, schedule=schedule
        ) as engine, engine.collect() as phases:
            t0 = time.perf_counter()
            ssvd = compress_sparse(tensor, SOLVER_RANK, engine=engine, rng=SEED)
            seconds = time.perf_counter() - t0
            traces = [t for t in phases if t.n_tasks > 1]
            report[schedule] = {
                "seconds": seconds,
                "imbalance_ratio": max(
                    (t.imbalance_ratio() for t in traces), default=1.0
                ),
                "steals": sum(t.steals for t in traces),
                "schedules": sorted({s for t in traces for s in t.schedules}),
            }
            results[schedule] = ssvd
    a, b = results["static"], results["dynamic"]
    report["bit_identical"] = bool(
        np.array_equal(a.u, b.u)
        and np.array_equal(a.s, b.s)
        and np.array_equal(a.vt, b.vt)
    )
    report["speedup_dynamic_vs_static"] = (
        report["static"]["seconds"] / report["dynamic"]["seconds"]
    )
    return report


def run_all(*, repeats: int = 3) -> dict:
    return {
        "benchmark": "A10_scheduling",
        "seed": SEED,
        "backend": "thread",
        "engine": run_engine_section(repeats=repeats),
        "solver": run_solver_section(),
    }


def _check(report_engine: dict) -> int:
    """Shared acceptance gate: dynamic win and bit-identity."""
    if not report_engine["bit_identical"]:
        print(
            "[A10] FAIL: static and dynamic schedules returned different "
            "results — the bit-identity contract is broken",
            file=sys.stderr,
        )
        return 1
    best = report_engine["best_dynamic_speedup"]
    if best < 1.3:
        print(
            f"[A10] FAIL: best dynamic-over-static speedup {best:.2f}x "
            "below the 1.3x target on the skewed latency workload",
            file=sys.stderr,
        )
        return 1
    return 0


def smoke() -> int:
    """Fast CI guard: engine section only, same gate."""
    report = run_engine_section(repeats=2)
    print(
        f"[A10 smoke] static={report['static']['seconds'] * 1e3:.1f}ms "
        f"(imbalance={report['static']['imbalance_ratio']:.2f}) "
        f"dynamic={report['dynamic']['seconds'] * 1e3:.1f}ms "
        f"(imbalance={report['dynamic']['imbalance_ratio']:.2f}, "
        f"steals={report['dynamic']['steals']}) "
        f"best_speedup={report['best_dynamic_speedup']:.2f}x "
        f"bit_identical={report['bit_identical']}"
    )
    rc = _check(report)
    if rc == 0:
        print("[A10 smoke] OK: dynamic >= 1.3x on the skewed workload")
    return rc


def _format(report: dict) -> str:
    eng = report["engine"]
    lines = [
        f"engine: {eng['n_items']} items, {eng['heavy_count']} heavy "
        f"({eng['cost_skew']:.0f}x), {eng['n_workers']} workers",
    ]
    for name in ("static", "dynamic", "dynamic+costs"):
        v = eng[name]
        lines.append(
            f"  {name:14s} {v['seconds'] * 1e3:8.1f} ms  "
            f"imbalance={v['imbalance_ratio']:5.2f}  steals={v['steals']:3d}  "
            f"tasks={v['n_tasks']}"
        )
    lines.append(
        f"  speedup: dynamic={eng['speedup_dynamic_vs_static']:.2f}x  "
        f"dynamic+costs={eng['speedup_dynamic_costs_vs_static']:.2f}x  "
        f"bit_identical={eng['bit_identical']}"
    )
    sol = report["solver"]
    lines.append(
        f"solver: sparse {tuple(sol['shape'])} rank={sol['rank']} "
        f"nnz/slice {sol['slice_nnz_min']}..{sol['slice_nnz_max']}"
    )
    for name in ("static", "dynamic"):
        v = sol[name]
        lines.append(
            f"  {name:14s} {v['seconds'] * 1e3:8.1f} ms  "
            f"imbalance={v['imbalance_ratio']:5.2f}  steals={v['steals']:3d}"
        )
    lines.append(
        f"  speedup: dynamic={sol['speedup_dynamic_vs_static']:.2f}x  "
        f"bit_identical={sol['bit_identical']}"
    )
    return "\n".join(lines)


# -- pytest entry points (collected via `pytest benchmarks/`) ----------------

def test_a10_engine_small(benchmark) -> None:
    """Quick-scale engine section: gate the dynamic win and bit-identity."""

    def run() -> dict:
        return run_engine_section(repeats=2)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report["bit_identical"]
    assert report["best_dynamic_speedup"] >= 1.3, report


def test_a10_report(benchmark) -> None:
    """Full comparison; writes BENCH_schedule.json at the repo root."""

    def run() -> dict:
        return run_all()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    text = _format(report)
    from _util import write_result

    path = write_result("A10_scheduling", text)
    print(f"\n[A10] scheduling -> {path} and {JSON_PATH}\n{text}")
    assert report["solver"]["bit_identical"]
    assert _check(report["engine"]) == 0


# -- standalone CLI ----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: engine section only, 1.3x gate",
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
    if not report["solver"]["bit_identical"]:
        print("[A10] FAIL: solver results differ across schedules", file=sys.stderr)
        return 1
    return _check(report["engine"])


if __name__ == "__main__":
    raise SystemExit(main())
