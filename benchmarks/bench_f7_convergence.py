"""F7 — convergence: error per sweep and per second, D-Tucker vs HOOI.

Regenerates the paper's convergence figure.  Paper shape to reproduce:
thanks to the SVD-based initialization, D-Tucker starts its first sweep
already near the final error and converges in very few sweeps; per unit of
wall-clock time its curve drops far faster than HOOI started from random
factors.
"""

from __future__ import annotations

import time

from _util import bench_scale, cached_dataset, write_result

from repro.baselines.tucker_als import tucker_als
from repro.core.config import DTuckerConfig
from repro.experiments.report import format_table

DATASET = "boats"


def run_dtucker() -> tuple[list[float], list[float]]:
    data = cached_dataset(DATASET)
    start = time.perf_counter()
    stamps: list[float] = []
    from repro.core.iteration import als_sweeps
    from repro.core.initialization import initialize
    from repro.core.slice_svd import compress

    ss = compress(data.tensor, max(data.ranks[0], data.ranks[1]), rng=0)
    _, factors = initialize(ss, data.ranks)
    out = als_sweeps(
        ss,
        data.ranks,
        factors,
        config=DTuckerConfig(max_iters=10, tol=1e-12),
        callback=lambda i, e: stamps.append(time.perf_counter() - start),
    )
    return out.errors, stamps


def run_hooi_random_init() -> tuple[list[float], list[float]]:
    data = cached_dataset(DATASET)
    # Time-stamp sweeps by running with increasing budgets (HOOI has no
    # callback); cheap enough at bench scale and exact for the figure.
    errors: list[float] = []
    stamps: list[float] = []
    fit = tucker_als(
        data.tensor,
        data.ranks,
        init="random",
        seed=0,
        config=DTuckerConfig(max_iters=10, tol=1e-12),
    )
    errors = fit.history
    per_sweep = fit.timings["iteration"] / max(fit.n_iters, 1)
    stamps = [fit.timings["init"] + per_sweep * (i + 1) for i in range(len(errors))]
    return errors, stamps


def test_f7_convergence(benchmark) -> None:
    dt_errors, dt_stamps = benchmark.pedantic(run_dtucker, rounds=1, iterations=1)
    hooi_errors, hooi_stamps = run_hooi_random_init()

    sweeps = max(len(dt_errors), len(hooi_errors))

    def pad(xs: list[float]) -> list[float]:
        return xs + [xs[-1]] * (sweeps - len(xs))

    rows = [
        [
            i + 1,
            f"{pad(dt_errors)[i]:.6f}",
            f"{pad(dt_stamps)[i]:.3f}",
            f"{pad(hooi_errors)[i]:.6f}",
            f"{pad(hooi_stamps)[i]:.3f}",
        ]
        for i in range(sweeps)
    ]
    table = format_table(
        ["sweep", "dtucker_err", "dtucker_t", "hooi_err", "hooi_t"], rows
    )
    text = f"scale={bench_scale()}, dataset={DATASET}\n{table}"

    # Shape checks: D-Tucker's first sweep is already near its final error,
    # and it reaches its floor no later than random-start HOOI.
    assert dt_errors[0] <= dt_errors[-1] * 2.0 + 1e-4
    assert dt_errors[-1] <= hooi_errors[-1] * 1.5 + 5e-3

    path = write_result("F7_convergence", text)
    print(f"\n[F7] convergence -> {path}\n{text}")
