"""A2 — ablation: randomized-SVD parameters of the approximation phase.

Sweeps oversampling ``p`` and power iterations ``q`` (DESIGN.md §5.2) and
records approximation-phase time, compression error, and end-to-end
decomposition error, including the exact-SVD reference.  Expected shape:
``q`` buys most of the accuracy, extra oversampling has diminishing
returns, and the end-to-end error is insensitive once the compression error
sits below the target rank's noise floor — justifying the paper's cheap
randomized compression.
"""

from __future__ import annotations

import pytest
from _util import bench_scale, cached_dataset, write_result

from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker
from repro.experiments.report import format_table

DATASET = "boats"
SETTINGS: tuple[tuple[str, dict], ...] = (
    ("p=5,q=0", {"oversampling": 5, "power_iterations": 0}),
    ("p=10,q=0", {"oversampling": 10, "power_iterations": 0}),
    ("p=5,q=1", {"oversampling": 5, "power_iterations": 1}),
    ("p=10,q=1", {"oversampling": 10, "power_iterations": 1}),
    ("p=10,q=2", {"oversampling": 10, "power_iterations": 2}),
    ("exact", {"exact_slice_svd": True}),
)

ROWS: list[list[object]] = []


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s[0])
def test_a2_rsvd(benchmark, setting: tuple[str, dict]) -> None:
    label, kwargs = setting
    data = cached_dataset(DATASET)

    def run() -> DTucker:
        return DTucker(
            data.ranks, seed=0, config=DTuckerConfig(**kwargs)
        ).fit(data.tensor)

    model = benchmark.pedantic(run, rounds=1, iterations=1)
    compression_err = model.slice_svd_.compression_error(data.tensor)
    end_to_end = model.result_.error(data.tensor)
    ROWS.append(
        [
            label,
            f"{model.timings_['approximation']:.4f}",
            f"{compression_err:.6f}",
            f"{end_to_end:.6f}",
        ]
    )


def test_a2_report(benchmark) -> None:
    def build() -> str:
        table = format_table(
            ["setting", "approx_time_s", "compression_err", "tucker_err"], ROWS
        )
        return f"scale={bench_scale()}, dataset={DATASET}\n{table}"

    text = benchmark(build)
    by_label = {r[0]: r for r in ROWS}
    # Shape checks: power iteration tightens compression; the exact SVD is
    # the accuracy floor; end-to-end error is insensitive across settings.
    assert float(by_label["p=10,q=1"][2]) <= float(by_label["p=10,q=0"][2]) + 1e-9
    comp_errs = [float(r[2]) for r in ROWS]
    assert min(comp_errs) == pytest.approx(float(by_label["exact"][2]), rel=0.3)
    tucker_errs = [float(r[3]) for r in ROWS]
    assert max(tucker_errs) <= min(tucker_errs) * 1.5 + 1e-4
    path = write_result("A2_rsvd_ablation", text)
    print(f"\n[A2] rSVD ablation -> {path}\n{text}")
