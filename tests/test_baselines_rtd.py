"""Tests for the randomized Tucker (RTD) baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rtd import rtd
from repro.core.config import DTuckerConfig
from repro.exceptions import ShapeError
from repro.tensor.random import random_tensor
from tests.conftest import assert_orthonormal


class TestRtd:
    def test_exact_on_lowrank(self, lowrank3) -> None:
        fit = rtd(lowrank3, (3, 2, 2), seed=0)
        assert fit.result.error(lowrank3) < 1e-8

    def test_orthonormal(self, lowrank3) -> None:
        for f in rtd(lowrank3, (3, 2, 2), seed=0).result.factors:
            assert_orthonormal(f)

    def test_one_pass(self, lowrank3) -> None:
        fit = rtd(lowrank3, (3, 2, 2), seed=0)
        assert fit.n_iters == 0 and fit.converged

    def test_close_to_sthosvd_on_noise(self, rng) -> None:
        from repro.baselines.hosvd import st_hosvd

        x = random_tensor((16, 14, 12), (3, 3, 3), rng=rng, noise=0.2)
        e_det = st_hosvd(x, (3, 3, 3)).result.error(x)
        e_rand = rtd(x, (3, 3, 3), seed=0, config=DTuckerConfig(power_iterations=2)).result.error(x)
        assert e_rand <= 1.2 * e_det + 1e-12

    def test_seed_reproducible(self, lowrank3) -> None:
        a = rtd(lowrank3, (3, 2, 2), seed=4)
        b = rtd(lowrank3, (3, 2, 2), seed=4)
        np.testing.assert_array_equal(a.result.core, b.result.core)

    def test_mode_order_override(self, lowrank3) -> None:
        fit = rtd(lowrank3, (3, 2, 2), mode_order=[2, 1, 0], seed=0)
        assert fit.result.error(lowrank3) < 1e-8

    def test_invalid_mode_order(self, lowrank3) -> None:
        with pytest.raises(ShapeError):
            rtd(lowrank3, (3, 2, 2), mode_order=[0, 1])

    def test_order4(self, rng) -> None:
        x = random_tensor((8, 7, 5, 4), (2, 2, 2, 2), rng=rng, noise=0.01)
        assert rtd(x, 2, seed=0).result.error(x) < 0.01
