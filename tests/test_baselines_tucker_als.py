"""Tests for the HOOI baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.tucker_als import tucker_als
from repro.core.config import DTuckerConfig
from repro.exceptions import ShapeError
from repro.tensor.random import random_tensor, random_tucker
from repro.tensor.products import tucker_to_tensor
from tests.conftest import assert_orthonormal


class TestTuckerAls:
    def test_exact_on_lowrank(self, lowrank3: np.ndarray) -> None:
        fit = tucker_als(lowrank3, (3, 2, 2))
        assert fit.result.error(lowrank3) < 1e-10

    def test_orthonormal_factors(self, lowrank3) -> None:
        fit = tucker_als(lowrank3, (3, 2, 2))
        for f in fit.result.factors:
            assert_orthonormal(f)

    def test_history_nonincreasing(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.3)
        fit = tucker_als(
            x, (3, 3, 3), init="random", seed=0,
            config=DTuckerConfig(tol=1e-12, max_iters=8),
        )
        assert (np.diff(fit.history) <= 1e-10).all()

    def test_history_matches_final_error(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.1)
        fit = tucker_als(x, (3, 3, 3))
        assert fit.history[-1] == pytest.approx(fit.result.error(x), abs=1e-10)

    def test_max_iters_budget(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.3)
        fit = tucker_als(
            x, (3, 3, 3), init="random", seed=0,
            config=DTuckerConfig(max_iters=2, tol=1e-16),
        )
        assert fit.n_iters == 2 and not fit.converged

    def test_random_init(self, lowrank3) -> None:
        fit = tucker_als(
            lowrank3, (3, 2, 2), init="random", seed=0,
            config=DTuckerConfig(max_iters=60),
        )
        assert fit.result.error(lowrank3) < 1e-8

    def test_explicit_initial_factors(self, rng) -> None:
        x = random_tensor((12, 10, 8), (3, 2, 2), rng=rng)
        _, factors = random_tucker((12, 10, 8), (3, 2, 2), rng)
        fit = tucker_als(x, (3, 2, 2), initial_factors=factors)
        assert fit.result.error(x) < 1e-8

    def test_wrong_initial_factor_count(self, lowrank3, rng) -> None:
        _, factors = random_tucker((12, 10), (3, 2), rng)
        with pytest.raises(ShapeError):
            tucker_als(lowrank3, (3, 2, 2), initial_factors=factors)

    def test_invalid_init_name(self, lowrank3) -> None:
        with pytest.raises(ShapeError):
            tucker_als(lowrank3, (3, 2, 2), init="bogus")

    def test_timing_phases(self, lowrank3) -> None:
        fit = tucker_als(lowrank3, (3, 2, 2))
        assert set(fit.timings.phases) == {"init", "iteration"}

    def test_order4(self, rng) -> None:
        x = random_tensor((8, 7, 5, 4), (2, 2, 2, 2), rng=rng, noise=0.01)
        fit = tucker_als(x, 2)
        assert fit.result.error(x) < 0.01

    def test_matches_best_rank1_for_matrices(self, rng) -> None:
        # Tucker of a matrix at rank (1,1) is the best rank-1 approximation.
        m = rng.standard_normal((10, 8))
        fit = tucker_als(m, (1, 1), config=DTuckerConfig(max_iters=100, tol=1e-14))
        s = np.linalg.svd(m, compute_uv=False)
        expected_err = float(np.sum(s[1:] ** 2) / np.sum(s**2))
        assert fit.result.error(m) == pytest.approx(expected_err, abs=1e-8)
