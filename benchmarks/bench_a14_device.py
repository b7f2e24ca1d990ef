"""A14 — pluggable array-API layer: dispatch overhead, placement, parity.

Every compute function has one body written against the
:class:`ArrayModule` facade, so the two timing sections below run the
*same* function bodies and differ only in the module the sweep workspace
is bound to.  Four sections, none of which require an accelerator to be
installed:

* **numpy overhead** — the facade-dispatched sweep loop
  (:func:`repro.core.iteration.als_sweeps` through ``SweepWorkspace``) on
  :class:`NumpyModule` against the naive reference loop
  (:func:`repro.kernels.naive.naive_als_sweeps`).  The results must be
  **bit-identical** (``NumpyModule`` is a literal delegation layer) and
  the dispatched loop must not be slower — the facade may only remove
  work, never add a measurable per-call cost.
* **pseudo-device overhead** — the same sweeps with the workspace bound
  to the capability-poor generic :class:`ArrayModule` (no native einsum
  or kron) wrapped around NumPy.  That routes the full device plumbing —
  construction-time uploads, inline slab execution (engine bypass),
  result downloads, and the transfer accounting —
  while the arithmetic stays NumPy, isolating the facade's plumbing cost
  from kernel speed.  Records the pseudo-device/NumpyModule runtime
  ratio, checks parity, and verifies the ``xfer:h2d`` / ``xfer:d2h``
  accounting fires.
* **placement ranking** — :func:`repro.kernels.compress_plan.
  estimate_device_costs` across a slab-geometry grid: compute-dominated
  slabs must rank the device first, transfer-dominated slabs the CPU.
* **torch parity** (optional) — when torch is importable, a CPU-torch fit
  must match the NumPy fit within 1e-6 (the host-drawn sketch makes the
  randomness identical); skipped silently otherwise.

The machine-readable report lands at ``BENCH_device.json`` in the repo
root.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_a14_device.py           # full
    PYTHONPATH=src python benchmarks/bench_a14_device.py --smoke   # CI

``--smoke`` is the fast CI guard: bit-identity of the NumPy path, the
placement ranking on the two extreme geometries, and the transfer
accounting on a pseudo-device sweep — exit non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_device.json"

SEED = 0
SHAPE = (48, 44, 30)
RANKS = (8, 8, 6)
SWEEPS = 6

#: (label, i1, i2, rank, method) — the placement grid.  The first two are
#: transfer-dominated (tiny slab, cheap method), the last two compute-
#: dominated (the exact SVD's m^3 term swamps the slab bytes).
PLACEMENT_GRID = [
    ("tiny-gram", 16, 16, 4, "gram", "cpu"),
    ("skinny-rsvd", 256, 24, 6, "rsvd", "cpu"),
    ("big-exact", 2048, 2048, 32, "exact", "cuda"),
    ("wide-exact", 1024, 4096, 16, "exact", "cuda"),
]


def _problem(shape=SHAPE, ranks=RANKS):
    from repro.core.initialization import initialize
    from repro.core.slice_svd import compress
    from repro.tensor.random import random_tensor

    x = random_tensor(shape, ranks, rng=1, noise=0.02)
    ssvd = compress(x, max(ranks[:2]) + 2, rng=SEED)
    _, factors = initialize(ssvd, ranks)
    return ssvd, factors


def _generic_module():
    from repro.engine.array_api import ArrayModule

    am = ArrayModule("generic-bench", np)
    am.caps["native_einsum"] = False
    am.caps["native_kron"] = False
    return am


def _best_of(fn, repeats: int) -> tuple[object, float]:
    out, best = None, float("inf")
    for _ in range(max(1, int(repeats))):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def run_numpy_overhead(*, repeats: int = 5) -> dict:
    """Facade-dispatched sweeps on NumpyModule vs the naive reference loop."""
    from repro.core.config import DTuckerConfig
    from repro.core.iteration import als_sweeps
    from repro.kernels import naive_als_sweeps

    ssvd, factors = _problem()
    cfg = DTuckerConfig(seed=SEED, backend="serial", max_iters=SWEEPS, tol=1e-300)

    def dispatched():
        return als_sweeps(ssvd, RANKS, factors, config=cfg)

    def naive():
        return naive_als_sweeps(ssvd, RANKS, factors, config=cfg)

    dispatched()  # warm-up
    naive()
    res_d, sec_d = _best_of(dispatched, repeats)
    res_n, sec_n = _best_of(naive, repeats)
    identical = bool(
        np.array_equal(res_d.core, res_n.core)
        and all(np.array_equal(a, b) for a, b in zip(res_d.factors, res_n.factors))
    )
    return {
        "dispatched_seconds": sec_d,
        "naive_seconds": sec_n,
        "overhead_ratio": sec_d / sec_n,
        "bit_identical": identical,
    }


def run_generic_overhead(*, repeats: int = 5) -> dict:
    """The same sweep bodies on NumpyModule vs the generic emulating module."""
    from repro.core.config import DTuckerConfig
    from repro.core.iteration import als_sweeps
    from repro.kernels import SweepWorkspace

    ssvd, factors = _problem()
    cfg = DTuckerConfig(seed=SEED, backend="serial", max_iters=SWEEPS, tol=1e-300)

    def native():
        return als_sweeps(ssvd, RANKS, factors, config=cfg)

    def generic():
        ws = SweepWorkspace(ssvd, module=_generic_module())
        return als_sweeps(ssvd, RANKS, factors, config=cfg, workspace=ws)

    native()  # warm-up
    generic()
    res_nat, sec_nat = _best_of(native, repeats)
    res_gen, sec_gen = _best_of(generic, repeats)
    max_dev = max(
        float(np.max(np.abs(res_gen.core - res_nat.core))),
        max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(res_gen.factors, res_nat.factors)
        ),
    )
    stats = res_gen.kernel_stats
    return {
        "native_seconds": sec_nat,
        "generic_seconds": sec_gen,
        "generic_ratio": sec_gen / sec_nat,
        "max_deviation": max_dev,
        "bytes_h2d": stats.bytes_h2d,
        "bytes_d2h": stats.bytes_d2h,
    }


def run_placement() -> dict:
    """Cost-model placement across the slab-geometry grid."""
    from repro.kernels.compress_plan import estimate_costs, estimate_device_costs

    rows = []
    for label, i1, i2, rank, method, expect in PLACEMENT_GRID:
        costs = estimate_device_costs(
            i1, i2, rank, method_cost=estimate_costs(i1, i2, rank)[method]
        )
        placed = min(costs, key=costs.get)
        rows.append(
            {
                "case": label,
                "i1": i1,
                "i2": i2,
                "rank": rank,
                "method": method,
                "cpu_cost": costs["cpu"],
                "cuda_cost": costs["cuda"],
                "placed": placed,
                "expected": expect,
                "ok": placed == expect,
            }
        )
    return {"grid": rows, "all_ok": all(r["ok"] for r in rows)}


def run_torch_parity() -> dict | None:
    """CPU-torch fit vs NumPy fit; ``None`` when torch is absent."""
    from repro.engine.array_api import probe_namespaces

    if not probe_namespaces()["torch"]:
        return None
    from dataclasses import replace

    from repro.core.config import DTuckerConfig
    from repro.core.dtucker import DTucker
    from repro.tensor.random import random_tensor

    x = random_tensor(SHAPE, RANKS, rng=1, noise=0.02)
    base = DTuckerConfig(seed=SEED, backend="serial", max_iters=SWEEPS)
    cpu = DTucker(RANKS, config=base).fit(x)
    torch_cfg = replace(base, device="torch")
    dev = DTucker(RANKS, config=torch_cfg).fit(x)
    max_dev = max(
        float(np.max(np.abs(dev.result_.core - cpu.result_.core))),
        max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(dev.result_.factors, cpu.result_.factors)
        ),
    )
    return {"max_deviation": max_dev, "within_1e6": max_dev < 1e-6}


def run_all(*, repeats: int = 5) -> dict:
    report = {
        "benchmark": "A14_device_layer",
        "seed": SEED,
        "shape": list(SHAPE),
        "ranks": list(RANKS),
        "numpy_overhead": run_numpy_overhead(repeats=repeats),
        "generic_overhead": run_generic_overhead(repeats=repeats),
        "placement": run_placement(),
    }
    torch_parity = run_torch_parity()
    report["torch_parity"] = torch_parity if torch_parity else "torch not installed"
    return report


def smoke() -> int:
    """Fast CI guard: bit-identity, placement ranking, xfer accounting."""
    from repro.core.config import DTuckerConfig
    from repro.core.iteration import als_sweeps
    from repro.kernels import SweepWorkspace, naive_als_sweeps

    ssvd, factors = _problem((16, 14, 10), (4, 4, 3))
    cfg = DTuckerConfig(seed=SEED, backend="serial", max_iters=3, tol=1e-300)
    res_d = als_sweeps(ssvd, (4, 4, 3), factors, config=cfg)
    res_n = naive_als_sweeps(ssvd, (4, 4, 3), factors, config=cfg)
    if not np.array_equal(res_d.core, res_n.core):
        print("[A14 smoke] FAIL: NumPy path is not bit-identical", file=sys.stderr)
        return 1

    placement = run_placement()
    if not placement["all_ok"]:
        bad = [r["case"] for r in placement["grid"] if not r["ok"]]
        print(f"[A14 smoke] FAIL: placement ranking wrong for {bad}", file=sys.stderr)
        return 1

    ws = SweepWorkspace(ssvd, module=_generic_module())
    res_g = als_sweeps(ssvd, (4, 4, 3), factors, config=cfg, workspace=ws)
    stats = res_g.kernel_stats
    if stats.bytes_h2d == 0 or stats.bytes_d2h == 0:
        print(
            "[A14 smoke] FAIL: pseudo-device sweep recorded no transfers "
            f"(h2d={stats.bytes_h2d} d2h={stats.bytes_d2h})",
            file=sys.stderr,
        )
        return 1
    dev = float(np.max(np.abs(res_g.core - res_d.core)))
    if dev > 1e-9:
        print(f"[A14 smoke] FAIL: generic sweep deviates {dev:.2e}", file=sys.stderr)
        return 1
    print(
        "[A14 smoke] OK: bit-identical NumPy path, placement ranking, "
        f"xfer accounting (h2d={stats.bytes_h2d}B d2h={stats.bytes_d2h}B)"
    )
    return 0


def _format(report: dict) -> str:
    lines = []
    ov = report["numpy_overhead"]
    lines.append(
        f"numpy path : dispatched={ov['dispatched_seconds'] * 1e3:.2f} ms "
        f"naive={ov['naive_seconds'] * 1e3:.2f} ms "
        f"ratio={ov['overhead_ratio']:.2f} bit_identical={ov['bit_identical']}"
    )
    gv = report["generic_overhead"]
    lines.append(
        f"generic    : native={gv['native_seconds'] * 1e3:.2f} ms "
        f"generic={gv['generic_seconds'] * 1e3:.2f} ms "
        f"ratio={gv['generic_ratio']:.2f} max_dev={gv['max_deviation']:.1e} "
        f"xfer={gv['bytes_h2d']}B>/{gv['bytes_d2h']}B<"
    )
    for row in report["placement"]["grid"]:
        lines.append(
            f"placement  : {row['case']:12s} ({row['i1']}x{row['i2']} "
            f"k={row['rank']} {row['method']}) -> {row['placed']} "
            f"({'ok' if row['ok'] else 'EXPECTED ' + row['expected']})"
        )
    tp = report["torch_parity"]
    if isinstance(tp, dict):
        lines.append(
            f"torch      : max_dev={tp['max_deviation']:.1e} "
            f"within_1e-6={tp['within_1e6']}"
        )
    else:
        lines.append(f"torch      : {tp}")
    return "\n".join(lines)


# -- pytest entry points (collected via `pytest benchmarks/`) ----------------

def test_a14_smoke(benchmark) -> None:
    """Bit-identity + placement + xfer accounting at a quick scale."""

    def run() -> int:
        return smoke()

    assert benchmark.pedantic(run, rounds=1, iterations=1) == 0


def test_a14_report(benchmark) -> None:
    """Full comparison; writes BENCH_device.json at the repo root."""

    def run() -> dict:
        return run_all(repeats=3)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    text = _format(report)
    from _util import write_result

    path = write_result("A14_device_layer", text)
    print(f"\n[A14] device layer -> {path} and {JSON_PATH}\n{text}")
    assert report["numpy_overhead"]["bit_identical"]
    assert report["placement"]["all_ok"]
    assert report["generic_overhead"]["max_deviation"] < 1e-8
    tp = report["torch_parity"]
    if isinstance(tp, dict):
        assert tp["within_1e6"], tp


# -- standalone CLI ----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: bit-identity, placement ranking, xfer accounting",
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
    ok = (
        report["numpy_overhead"]["bit_identical"]
        and report["placement"]["all_ok"]
        and report["generic_overhead"]["max_deviation"] < 1e-8
    )
    if not ok:
        print("[A14] FAIL: see report above", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
