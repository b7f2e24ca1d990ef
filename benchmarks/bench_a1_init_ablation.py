"""A1 — ablation: SVD-based initialization vs random initialization.

Measures the value of D-Tucker's initialization phase (DESIGN.md §5.1):
sweeps-to-converge, time, and final error with the paper's SVD start vs a
random orthonormal start, on every dataset.  Expected shape: the SVD start
converges in a fraction of the sweeps at equal or better error.
"""

from __future__ import annotations

import pytest
from _util import PAPER_DATASETS, bench_scale, cached_dataset, write_result

from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker
from repro.experiments.report import format_table

ROWS: list[list[object]] = []


@pytest.mark.parametrize("dataset", PAPER_DATASETS)
@pytest.mark.parametrize("init", ["svd", "random"])
def test_a1_init(benchmark, dataset: str, init: str) -> None:
    data = cached_dataset(dataset)

    def run() -> DTucker:
        return DTucker(
            data.ranks,
            init=init,
            seed=0,
            config=DTuckerConfig(max_iters=50, tol=1e-6),
        ).fit(data.tensor)

    model = benchmark.pedantic(run, rounds=1, iterations=1)
    ROWS.append(
        [
            dataset,
            init,
            model.n_iters_,
            f"{model.timings_.total:.4f}",
            f"{model.history_[0]:.6f}",
            f"{model.history_[-1]:.6f}",
        ]
    )


def test_a1_report(benchmark) -> None:
    def build() -> str:
        table = format_table(
            ["dataset", "init", "sweeps", "time_s", "sweep1_error", "final_error"],
            ROWS,
        )
        return f"scale={bench_scale()}\n{table}"

    text = benchmark(build)
    # Shape check: the SVD start's *first-sweep* error already matches its
    # final error (the initialization did the work), is never worse than the
    # random start's first sweep, and final errors agree.  Sweeps-to-
    # tolerance is reported but not asserted — it is noisy near flat optima.
    by_key = {(r[0], r[1]): r for r in ROWS}
    for dataset in PAPER_DATASETS:
        svd_row, rand_row = by_key[(dataset, "svd")], by_key[(dataset, "random")]
        svd_first, svd_final = float(svd_row[4]), float(svd_row[5])
        rand_first, rand_final = float(rand_row[4]), float(rand_row[5])
        assert svd_first <= rand_first * 1.02 + 1e-6, dataset
        assert svd_first <= svd_final * 1.5 + 1e-3, dataset
        assert svd_final <= rand_final * 1.2 + 1e-4, dataset
    path = write_result("A1_init_ablation", text)
    print(f"\n[A1] init ablation -> {path}\n{text}")
