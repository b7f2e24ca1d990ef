"""A2 — ablation: randomized-SVD parameters of the approximation phase.

Sweeps oversampling ``p`` and power iterations ``q`` (DESIGN.md §5.2) and
records approximation-phase time, compression error, and end-to-end
decomposition error.  Every row compresses at the fits' slice rank with
its settings held fixed — :func:`repro.core.slice_svd.compress` runs
exactly ``q`` power passes, where ``DTucker.fit`` would start at ``q = 0``
and escalate only on its residual rule — then runs the same
initialization and ALS sweeps on the slices.  The ``exact`` row
compresses with the reference :func:`repro.core.slice_svd
.exact_compress` (a truncated SVD of every slice).  Expected shape:
``q`` buys most of the accuracy, extra oversampling has diminishing
returns, and the end-to-end error is insensitive once the compression error
sits below the target rank's noise floor — justifying the paper's cheap
randomized compression.
"""

from __future__ import annotations

import time

import pytest
from _util import bench_scale, cached_dataset, write_result

from repro.core.config import DTuckerConfig
from repro.core.fit_pipeline import resolve_slice_rank
from repro.core.initialization import initialize
from repro.core.iteration import als_sweeps
from repro.core.result import TuckerResult
from repro.core.slice_svd import compress, exact_compress
from repro.experiments.report import format_table

DATASET = "boats"
SETTINGS: tuple[tuple[str, dict], ...] = (
    ("p=5,q=0", {"oversampling": 5, "power_iterations": 0}),
    ("p=10,q=0", {"oversampling": 10, "power_iterations": 0}),
    ("p=5,q=1", {"oversampling": 5, "power_iterations": 1}),
    ("p=10,q=1", {"oversampling": 10, "power_iterations": 1}),
    ("p=10,q=2", {"oversampling": 10, "power_iterations": 2}),
)

ROWS: list[list[object]] = []


def _record(label: str, data, seconds: float, ssvd) -> None:
    """Initialize and sweep on ``ssvd``; append the row of ``label``."""
    _, factors = initialize(ssvd, data.ranks)
    sweeps = als_sweeps(ssvd, data.ranks, factors, config=DTuckerConfig())
    result = TuckerResult(core=sweeps.core, factors=sweeps.factors)
    ROWS.append(
        [
            label,
            f"{seconds:.4f}",
            f"{ssvd.compression_error(data.tensor):.6f}",
            f"{result.error(data.tensor):.6f}",
        ]
    )


def _timed(make) -> tuple[float, object]:
    start = time.perf_counter()
    ssvd = make()
    return time.perf_counter() - start, ssvd


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s[0])
def test_a2_rsvd(benchmark, setting: tuple[str, dict]) -> None:
    label, kwargs = setting
    data = cached_dataset(DATASET)
    rank = resolve_slice_rank(data.tensor.shape, *data.ranks[:2], None)
    config = DTuckerConfig(seed=0, **kwargs)

    seconds, ssvd = benchmark.pedantic(
        lambda: _timed(lambda: compress(data.tensor, rank, config=config)),
        rounds=1,
        iterations=1,
    )
    _record(label, data, seconds, ssvd)


def test_a2_exact(benchmark) -> None:
    data = cached_dataset(DATASET)
    rank = resolve_slice_rank(data.tensor.shape, *data.ranks[:2], None)

    seconds, ssvd = benchmark.pedantic(
        lambda: _timed(lambda: exact_compress(data.tensor, rank)),
        rounds=1,
        iterations=1,
    )
    _record("exact", data, seconds, ssvd)


def test_a2_report(benchmark) -> None:
    def build() -> str:
        table = format_table(
            ["setting", "approx_time_s", "compression_err", "tucker_err"], ROWS
        )
        return f"scale={bench_scale()}, dataset={DATASET}\n{table}"

    text = benchmark(build)
    by_label = {r[0]: r for r in ROWS}
    # Shape checks: a power pass strictly tightens compression; the exact
    # SVD is the accuracy floor; end-to-end error is insensitive across
    # settings.
    assert float(by_label["p=10,q=1"][2]) < float(by_label["p=10,q=0"][2])
    assert float(by_label["p=5,q=1"][2]) < float(by_label["p=5,q=0"][2])
    comp_errs = [float(r[2]) for r in ROWS]
    assert min(comp_errs) == pytest.approx(float(by_label["exact"][2]), rel=0.3)
    tucker_errs = [float(r[3]) for r in ROWS]
    assert max(tucker_errs) <= min(tucker_errs) * 1.5 + 1e-4
    path = write_result("A2_rsvd_ablation", text)
    print(f"\n[A2] rSVD ablation -> {path}\n{text}")
