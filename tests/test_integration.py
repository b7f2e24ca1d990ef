"""Integration tests: whole-library flows across modules.

Each test exercises a realistic end-to-end path a downstream user would
take, combining datasets, the D-Tucker core, baselines, and the harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DTucker,
    StreamingDTucker,
    decompose,
    hosvd,
    mach_tucker,
    rtd,
    st_hosvd,
    tucker_als,
    tucker_ts,
    tucker_ttmts,
)
from repro.datasets import load_dataset
from repro.experiments import run_grid, storage_ratio_over


class TestMethodAgreement:
    """All exact-ish methods must agree on clean low-rank data."""

    def test_all_methods_near_noise_floor(self, rng) -> None:
        from repro.tensor.random import random_tensor

        x = random_tensor((18, 16, 14), (3, 3, 3), rng=rng, noise=0.05)
        ranks = (3, 3, 3)
        noise_floor = tucker_als(x, ranks).result.error(x)
        errors = {
            "dtucker": DTucker(ranks, seed=0).fit(x).result_.error(x),
            "hosvd": hosvd(x, ranks).result.error(x),
            "st_hosvd": st_hosvd(x, ranks).result.error(x),
            "rtd": rtd(x, ranks, seed=0).result.error(x),
            "tucker_ts": tucker_ts(x, ranks, seed=0).result.error(x),
            "tucker_ttmts": tucker_ttmts(x, ranks, seed=0).result.error(x),
        }
        for name, err in errors.items():
            assert err < max(3 * noise_floor, noise_floor + 0.01), (name, err)

    def test_mach_is_worst_but_bounded(self, rng) -> None:
        from repro.tensor.random import random_tensor

        x = random_tensor((18, 16, 14), (3, 3, 3), rng=rng, noise=0.05)
        e = mach_tucker(x, (3, 3, 3), keep_probability=0.3, seed=0).result.error(x)
        assert e < 0.5


class TestDatasetFlows:
    @pytest.mark.parametrize("name", ["boats", "stock", "airquality", "hsi"])
    def test_dtucker_on_each_dataset(self, name: str) -> None:
        data = load_dataset(name, "tiny", seed=0)
        model = DTucker(data.ranks, seed=0).fit(data.tensor)
        hooi = tucker_als(data.tensor, data.ranks)
        # Comparable accuracy: within 20% relative of HOOI (plus floor).
        assert model.result_.error(data.tensor) <= hooi.result.error(
            data.tensor
        ) * 1.2 + 1e-3

    def test_storage_always_smaller_than_dense(self) -> None:
        for name in ("boats", "stock", "hsi"):
            data = load_dataset(name, "tiny", seed=0)
            model = DTucker(data.ranks, seed=0).fit(data.tensor)
            assert model.slice_svd_.nbytes < data.tensor.nbytes


class TestReuseFlow:
    def test_one_compress_many_ranks(self, rng) -> None:
        """The memory-efficiency story: compress once, answer many requests."""
        from repro.tensor.random import random_tensor

        x = random_tensor((20, 18, 16), (4, 4, 4), rng=rng, noise=0.02)
        model = DTucker(ranks=(4, 4, 4), slice_rank=6, seed=0).fit(x)
        errors = {}
        for r in (2, 3, 4):
            errors[r] = model.refit(ranks=(r, r, r)).error(x)
        # Error must be non-increasing in rank.
        assert errors[4] <= errors[3] <= errors[2]

    def test_streaming_then_query(self, rng) -> None:
        from repro.tensor.random import random_tensor

        x = random_tensor((16, 14, 24), (3, 3, 4), rng=rng, noise=0.02)
        s = StreamingDTucker(ranks=(3, 3, 4), seed=0)
        for t0 in range(0, 24, 6):
            s.partial_fit(x[..., t0 : t0 + 6])
        assert s.result_.error(x) < 0.01
        assert s.slice_svd_.nbytes < x.nbytes


class TestHarnessHeadlines:
    def test_paper_shape_holds_on_small_scale(self) -> None:
        """The qualitative claims: less storage than every competitor,
        comparable error to HOOI."""
        recs = run_grid(
            ["airquality"],
            ["dtucker", "tucker_als", "rtd"],
            scale="small",
            seed=0,
        )
        ratios = storage_ratio_over(recs)["airquality"]
        assert all(r > 1.0 for r in ratios.values())
        by_method = {r.method: r for r in recs}
        assert by_method["dtucker"].error <= by_method["tucker_als"].error * 1.5 + 1e-3

    def test_airquality_speedup(self) -> None:
        # The shape class where slice compression shines: one pass over six
        # big slices vs HOOI's repeated full-tensor TTMs.  Each method's
        # time is the median of 3 runs, so one cold or preempted run of
        # either side cannot decide the comparison.
        runs = [
            run_grid(
                ["airquality"], ["dtucker", "tucker_als"], scale="small", seed=0,
                compute_error=False,
            )
            for _ in range(3)
        ]
        median = {
            method: float(np.median(
                [r.total_seconds for recs in runs for r in recs if r.method == method]
            ))
            for method in ("dtucker", "tucker_als")
        }
        assert median["tucker_als"] / median["dtucker"] > 1.0


class TestFunctionalApi:
    def test_decompose_roundtrip(self, rng) -> None:
        from repro.tensor.random import random_tensor

        x = random_tensor((15, 12, 10), (3, 2, 2), rng=rng, noise=0.0)
        model = decompose(x, (3, 2, 2), seed=0)
        np.testing.assert_allclose(model.reconstruct(), x, atol=1e-6)

    def test_public_exports_importable(self) -> None:
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
