"""Tests for Frobenius norms and error measures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.tensor.norms import (
    core_based_error,
    fit_score,
    frobenius_norm,
    frobenius_norm_squared,
    reconstruction_error,
    relative_error,
)
from repro.tensor.products import multi_mode_product
from repro.tensor.random import random_tensor, random_tucker


class TestFrobenius:
    def test_matches_numpy(self, tensor3: np.ndarray) -> None:
        assert frobenius_norm(tensor3) == pytest.approx(np.linalg.norm(tensor3))

    def test_squared_consistent(self, tensor3: np.ndarray) -> None:
        assert frobenius_norm_squared(tensor3) == pytest.approx(
            frobenius_norm(tensor3) ** 2
        )

    @given(st.floats(0.1, 10.0))
    def test_scaling(self, c: float) -> None:
        x = np.ones((3, 4, 2))
        assert frobenius_norm(c * x) == pytest.approx(c * frobenius_norm(x))

    def test_zero(self) -> None:
        assert frobenius_norm(np.zeros((2, 3))) == 0.0

    def test_float32_squared_norm_accumulates_in_float64(self) -> None:
        x = np.random.default_rng(3).standard_normal((50, 40)).astype(np.float32)
        x64 = x.astype(np.float64).ravel()
        got = frobenius_norm_squared(x)
        assert isinstance(got, float)
        # A float32 accumulator is off by ~6e-9 relative here.
        assert got == pytest.approx(float(x64 @ x64), rel=1e-12)


class TestRelativeError:
    def test_exact_match_is_zero(self, tensor3: np.ndarray) -> None:
        assert relative_error(tensor3, tensor3.copy()) == 0.0

    def test_zero_estimate_is_one(self, tensor3: np.ndarray) -> None:
        assert relative_error(tensor3, np.zeros_like(tensor3)) == pytest.approx(1.0)

    def test_shape_mismatch(self) -> None:
        with pytest.raises(ShapeError):
            relative_error(np.ones((2, 3)), np.ones((3, 2)))

    def test_zero_reference(self) -> None:
        with pytest.raises(ShapeError):
            relative_error(np.zeros((2, 2)), np.ones((2, 2)))

    def test_triangle_like_bound(self, rng) -> None:
        x = rng.standard_normal((4, 5))
        y = rng.standard_normal((4, 5))
        assert relative_error(x, y) <= 1.0 + np.linalg.norm(y) / np.linalg.norm(x)


class TestPaperMetrics:
    def test_reconstruction_error_is_squared(self, tensor3, rng) -> None:
        y = tensor3 + 0.1 * rng.standard_normal(tensor3.shape)
        assert reconstruction_error(tensor3, y) == pytest.approx(
            relative_error(tensor3, y) ** 2
        )

    def test_fit_complement(self, tensor3, rng) -> None:
        y = tensor3 + 0.1 * rng.standard_normal(tensor3.shape)
        assert fit_score(tensor3, y) == pytest.approx(
            1.0 - relative_error(tensor3, y)
        )


class TestCoreBasedError:
    def test_matches_direct_error_for_projection(self, rng) -> None:
        # Project X onto orthonormal factors; Pythagoras must hold exactly.
        x = random_tensor((10, 9, 8), (3, 3, 3), rng=rng, noise=0.2)
        _, factors = random_tucker((10, 9, 8), (4, 4, 4), rng)
        core = multi_mode_product(x, factors, transpose=True)
        from repro.tensor.products import tucker_to_tensor

        direct = reconstruction_error(x, tucker_to_tensor(core, factors))
        estimated = core_based_error(frobenius_norm_squared(x), core)
        assert estimated == pytest.approx(direct, abs=1e-10)

    def test_clipped_at_zero(self) -> None:
        # ||G|| slightly exceeding ||X|| (round-off) must not go negative.
        assert core_based_error(1.0, np.array([[1.0000001]])) == 0.0

    def test_rejects_nonpositive_norm(self) -> None:
        with pytest.raises(ShapeError):
            core_based_error(0.0, np.ones((2, 2)))

    @given(st.floats(0.01, 0.99))
    def test_range(self, frac: float) -> None:
        # A core carrying `frac` of the energy gives error 1 - frac.
        core = np.array([np.sqrt(frac)])
        assert core_based_error(1.0, core) == pytest.approx(1.0 - frac)
