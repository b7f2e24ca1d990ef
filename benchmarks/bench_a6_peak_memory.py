"""A6 — peak resident memory needed to decompose.

The paper's "memory-efficient" claim, measured directly: how much memory
must be resident to produce a Tucker decomposition?  Every baseline needs
the dense tensor in RAM (counted) plus its transient allocations
(tracemalloc, which traces NumPy buffers — see
:mod:`repro.metrics.peak_memory`).  D-Tucker can run its approximation
phase **out of core** (`compress_source(NpySource(path), ...)`,
memory-mapped, slice batches) and its remaining phases on the compressed
representation only — so the tensor never counts against it.

Expected shape: D-Tucker's peak is a fraction of the tensor size; every
baseline's peak is ≥ 1× the tensor.  Timing in this file is meaningless
(tracemalloc overhead); use F1 for time.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from _util import bench_scale, cached_dataset, write_result

from repro.core.initialization import initialize
from repro.core.iteration import als_sweeps
from repro.core.sources import NpySource, compress_source
from repro.experiments.harness import run_method
from repro.experiments.report import format_table
from repro.metrics.peak_memory import measure_peak

DATASET = "boats"
BASELINES = ("tucker_als", "st_hosvd", "mach", "rtd")

ROWS: list[list[object]] = []


def _record(method: str, peak: int, tensor_nbytes: int) -> None:
    ROWS.append([method, peak, f"{peak / tensor_nbytes:.2f}"])


def test_a6_dtucker_out_of_core(benchmark, tmp_path_factory) -> None:
    data = cached_dataset(DATASET)
    path = Path(tempfile.mkdtemp(prefix="repro_a6_")) / "tensor.npy"
    np.save(path, data.tensor)

    def run():
        def solve():
            ssvd = compress_source(
                NpySource(path), max(data.ranks[:2]), batch_slices=32, rng=0
            )
            _, factors = initialize(ssvd, data.ranks)
            return als_sweeps(ssvd, data.ranks, factors)

        return measure_peak(solve)

    (_, peak) = benchmark.pedantic(run, rounds=1, iterations=1)
    # The tensor lives on disk: only the traced allocations are resident.
    _record("dtucker (out-of-core)", peak, data.tensor.nbytes)


@pytest.mark.parametrize("method", BASELINES)
def test_a6_baseline_peak(benchmark, method: str) -> None:
    data = cached_dataset(DATASET)

    def run():
        return measure_peak(
            lambda: run_method(
                method,
                data.tensor,
                data.ranks,
                dataset=DATASET,
                seed=0,
                compute_error=False,
            )
        )

    (_, transient) = benchmark.pedantic(run, rounds=1, iterations=1)
    # The dense tensor must be resident for these methods; count it.
    _record(method, transient + data.tensor.nbytes, data.tensor.nbytes)


def test_a6_report(benchmark) -> None:
    data = cached_dataset(DATASET)

    def build() -> str:
        table = format_table(
            ["method", "peak_resident_bytes", "peak / tensor_size"], ROWS
        )
        return (
            f"scale={bench_scale()}, dataset={DATASET}, "
            f"tensor={data.tensor.nbytes}B\n{table}"
        )

    text = benchmark(build)
    by_method = {r[0]: int(r[1]) for r in ROWS}
    dt = by_method["dtucker (out-of-core)"]
    # Shape: D-Tucker decomposes with less resident memory than the tensor
    # itself; every baseline needs at least the tensor.
    assert dt < data.tensor.nbytes, by_method
    for method in BASELINES:
        assert dt < by_method[method], (method, by_method)
    path = write_result("A6_peak_memory", text)
    print(f"\n[A6] peak resident memory -> {path}\n{text}")
