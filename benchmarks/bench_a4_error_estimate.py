"""A4 — calibration of the compressed-domain error estimate (DESIGN.md §5.4).

D-Tucker never reconstructs the tensor to check convergence; it estimates
``‖X − X̂‖²/‖X‖²`` as ``(‖X‖² − ‖G‖²)/‖X‖²`` from the stored norm and the
current core.  The estimate folds in the (fixed) slice-compression
residual, but it is not a bound on the true error: the residual's cross
term with the projection can take either sign (on stock the estimate
sits below the true error).  This benchmark measures the calibration gap
per dataset, the closing pass's exact error (``DTucker.exact_error_``),
plus the HOSVD rank-selection estimate of
:func:`repro.core.rank_selection.estimate_error` against the realised
error.
"""

from __future__ import annotations

import pytest
from _util import PAPER_DATASETS, bench_scale, cached_dataset, write_result

from repro.core.dtucker import DTucker
from repro.core.rank_selection import estimate_error
from repro.experiments.report import format_table

ROWS: list[list[object]] = []


@pytest.mark.parametrize("dataset", PAPER_DATASETS)
def test_a4_estimate(benchmark, dataset: str) -> None:
    data = cached_dataset(dataset)

    def run() -> tuple[float, float, float, float]:
        model = DTucker(data.ranks, seed=0).fit(data.tensor)
        true_err = model.result_.error(data.tensor)
        estimated = model.history_[-1]
        permuted_ranks = tuple(data.ranks[p] for p in model.permutation_)
        hosvd_bound = estimate_error(model.slice_svd_, permuted_ranks)
        return true_err, estimated, model.exact_error_, hosvd_bound

    true_err, estimated, exact, hosvd_bound = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    ROWS.append(
        [
            dataset,
            f"{true_err:.6f}",
            f"{exact:.6f}",
            f"{estimated:.6f}",
            f"{hosvd_bound:.6f}",
            f"{estimated - true_err:+.6f}",
        ]
    )
    # The convergence estimate tracks truth to within the compression
    # residual; the closing pass reports the truth; the HOSVD bound is a
    # genuine upper bound.
    assert estimated == pytest.approx(true_err, abs=max(0.02, 0.3 * true_err))
    assert exact == pytest.approx(true_err, rel=1e-8)
    assert hosvd_bound >= true_err - 1e-6


def test_a4_report(benchmark) -> None:
    def build() -> str:
        table = format_table(
            ["dataset", "true_error", "exact_error", "estimate", "hosvd_bound", "gap"],
            ROWS,
        )
        return f"scale={bench_scale()}\n{table}"

    text = benchmark(build)
    path = write_result("A4_error_estimate", text)
    print(f"\n[A4] error-estimate calibration -> {path}\n{text}")
