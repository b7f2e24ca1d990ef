"""Edge-case and robustness tests across the library.

Failure injection and unusual-but-legal inputs: float32 tensors, constant
tensors, rank-1 everything, single-slice tensors, tensors with zero
slices, and logging/verbose paths.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import DTucker, tucker_als
from repro.core.config import DTuckerConfig
from repro.core.slice_svd import compress
from repro.tensor.random import random_tensor


class TestDtypes:
    def test_float32_input_accepted(self, rng) -> None:
        x = random_tensor((12, 10, 8), (2, 2, 2), rng=rng).astype(np.float32)
        model = DTucker(ranks=2, seed=0).fit(x)
        assert model.result_.error(x.astype(np.float64)) < 1e-4

    def test_integer_input_promoted(self) -> None:
        x = np.arange(2 * 3 * 4).reshape(2, 3, 4)
        model = DTucker(ranks=(2, 2, 2), seed=0).fit(x)
        assert model.result_.core.dtype == np.float64


class TestDegenerateTensors:
    def test_constant_tensor(self) -> None:
        x = np.full((8, 7, 6), 3.0)
        model = DTucker(ranks=(1, 1, 1), seed=0).fit(x)
        assert model.result_.error(x) < 1e-10

    def test_rank_one_everything(self, rng) -> None:
        a = rng.standard_normal(9)
        b = rng.standard_normal(8)
        c = rng.standard_normal(7)
        x = np.einsum("i,j,k->ijk", a, b, c)
        model = DTucker(ranks=1, seed=0).fit(x)
        assert model.result_.error(x) < 1e-10

    def test_tensor_with_zero_slices(self, rng) -> None:
        x = random_tensor((10, 8, 6), (2, 2, 2), rng=rng)
        x[:, :, 2] = 0.0  # one completely empty slice
        model = DTucker(ranks=(2, 2, 2), seed=0).fit(x)
        assert np.isfinite(model.result_.core).all()
        assert model.result_.error(x) < 0.05

    def test_single_timestep(self, rng) -> None:
        x = rng.standard_normal((10, 8, 1))
        model = DTucker(ranks=(3, 3, 1), seed=0).fit(x)
        assert model.result_.ranks == (3, 3, 1)

    def test_mode_of_size_one(self, rng) -> None:
        x = rng.standard_normal((10, 1, 8))
        model = DTucker(ranks=(3, 1, 3), seed=0).fit(x)
        assert model.result_.error(x) < 1.0

    def test_tiny_tensor(self, rng) -> None:
        x = rng.standard_normal((2, 2, 2))
        model = DTucker(ranks=1, seed=0).fit(x)
        assert model.result_.ranks == (1, 1, 1)


class TestRankExtremes:
    def test_full_ranks_reconstruct_exactly(self, rng) -> None:
        x = rng.standard_normal((6, 5, 4))
        model = DTucker(ranks=(6, 5, 4), slice_rank=5, seed=0).fit(x)
        assert model.result_.error(x) < 1e-12

    def test_rank_exceeding_secondary_product(self, rng) -> None:
        # J3 > J1*J2: legal but degenerate; factors must stay well formed.
        x = random_tensor((8, 7, 9), (2, 2, 4), rng=rng, noise=0.05)
        model = DTucker(ranks=(1, 2, 4), seed=0).fit(x)
        a3 = model.result_.factors[2]
        assert a3.shape == (9, 4)
        np.testing.assert_allclose(a3.T @ a3, np.eye(4), atol=1e-8)

    def test_hooi_same_degenerate_geometry(self, rng) -> None:
        x = random_tensor((8, 7, 9), (2, 2, 4), rng=rng, noise=0.05)
        fit = tucker_als(x, (1, 2, 4))
        a3 = fit.result.factors[2]
        np.testing.assert_allclose(a3.T @ a3, np.eye(4), atol=1e-8)


class TestLogging:
    def test_verbose_fit_logs(self, rng, caplog) -> None:
        x = random_tensor((12, 10, 8), (2, 2, 2), rng=rng)
        with caplog.at_level(logging.INFO, logger="repro.core.dtucker"):
            DTucker(ranks=2, seed=0, config=DTuckerConfig(verbose=True)).fit(x)
        messages = " ".join(r.message for r in caplog.records)
        assert "approximation" in messages and "iteration" in messages

    def test_debug_sweep_logs(self, rng, caplog) -> None:
        from repro.core.initialization import initialize
        from repro.core.iteration import als_sweeps

        x = random_tensor((12, 10, 8), (2, 2, 2), rng=rng)
        ssvd = compress(x, 2, rng=0)
        _, factors = initialize(ssvd, (2, 2, 2))
        with caplog.at_level(logging.DEBUG, logger="repro.core.iteration"):
            als_sweeps(
                ssvd, (2, 2, 2), factors, config=DTuckerConfig(max_iters=2, tol=1e-16)
            )
        assert any("sweep" in r.message for r in caplog.records)


class TestReportHelpers:
    def test_human_bytes_units(self) -> None:
        from repro.experiments.report import _human_bytes

        assert _human_bytes(512) == "512.0B"
        assert _human_bytes(2048) == "2.0KiB"
        assert _human_bytes(3 * 1024**2) == "3.0MiB"
        assert _human_bytes(5 * 1024**3) == "5.0GiB"
