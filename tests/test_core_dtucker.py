"""Tests for the DTucker estimator (all three phases end to end)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker, decompose
from repro.exceptions import NotFittedError, RankError, ShapeError
from repro.tensor.random import random_tensor
from tests.conftest import assert_orthonormal


@pytest.fixture
def noisy3(rng) -> np.ndarray:
    return random_tensor((20, 16, 12), (4, 3, 3), rng=rng, noise=0.05)


class TestFit:
    def test_basic(self, noisy3: np.ndarray) -> None:
        model = DTucker(ranks=(4, 3, 3), seed=0).fit(noisy3)
        assert model.result_.ranks == (4, 3, 3)
        assert model.result_.error(noisy3) < 0.01

    def test_factors_orthonormal(self, noisy3) -> None:
        model = DTucker(ranks=(4, 3, 3), seed=0).fit(noisy3)
        for f in model.result_.factors:
            assert_orthonormal(f)

    def test_timings_cover_three_phases(self, noisy3) -> None:
        model = DTucker(ranks=(4, 3, 3), seed=0).fit(noisy3)
        assert set(model.timings_.phases) == {
            "approximation", "initialization", "iteration",
        }
        assert model.timings_.total > 0

    def test_history_recorded(self, noisy3) -> None:
        model = DTucker(ranks=(4, 3, 3), seed=0).fit(noisy3)
        assert len(model.history_) == model.n_iters_
        assert model.history_[-1] == pytest.approx(
            model.result_.error(noisy3), abs=5e-3
        )

    def test_scalar_rank(self, noisy3) -> None:
        model = DTucker(ranks=3, seed=0).fit(noisy3)
        assert model.result_.ranks == (3, 3, 3)

    def test_seed_reproducible(self, noisy3) -> None:
        a = DTucker(ranks=(4, 3, 3), seed=9).fit(noisy3)
        b = DTucker(ranks=(4, 3, 3), seed=9).fit(noisy3)
        np.testing.assert_array_equal(a.result_.core, b.result_.core)

    def test_order4(self, rng) -> None:
        x = random_tensor((10, 9, 5, 4), (2, 2, 2, 2), rng=rng, noise=0.02)
        model = DTucker(ranks=2, seed=0).fit(x)
        assert model.result_.error(x) < 0.01

    def test_order2(self, rng) -> None:
        m = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 15))
        model = DTucker(ranks=(4, 4), seed=0).fit(m)
        assert model.result_.error(m) < 1e-10

    def test_exact_slice_svd_option(self, noisy3) -> None:
        model = DTucker(ranks=(4, 3, 3), config=DTuckerConfig(exact_slice_svd=True)).fit(noisy3)
        assert model.result_.error(noisy3) < 0.01

    def test_random_init_option(self, noisy3) -> None:
        model = DTucker(
            ranks=(4, 3, 3), init="random", seed=0,
            config=DTuckerConfig(max_iters=60),
        ).fit(
            noisy3
        )
        assert model.result_.error(noisy3) < 0.01

    def test_invalid_init(self) -> None:
        with pytest.raises(ShapeError):
            DTucker(ranks=3, init="bogus")

    def test_rank_exceeds_mode(self, noisy3) -> None:
        with pytest.raises(RankError):
            DTucker(ranks=(25, 3, 3)).fit(noisy3)

    def test_explicit_slice_rank(self, noisy3) -> None:
        model = DTucker(ranks=(4, 3, 3), slice_rank=8, seed=0).fit(noisy3)
        assert model.slice_svd_.rank == 8

    def test_slice_rank_too_small(self, noisy3) -> None:
        with pytest.raises(RankError):
            DTucker(ranks=(4, 3, 3), slice_rank=2).fit(noisy3)

    def test_rejects_nan(self) -> None:
        x = np.ones((4, 4, 4))
        x[0, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            DTucker(ranks=2).fit(x)


class TestSliceModes:
    def test_explicit_pair(self, rng) -> None:
        # Mode layout (time, h, w): slice over the two spatial modes.
        x = random_tensor((12, 20, 16), (3, 4, 3), rng=rng, noise=0.02)
        model = DTucker(ranks=(3, 4, 3), slice_modes=(1, 2), seed=0).fit(x)
        assert model.permutation_ == (1, 2, 0)
        assert model.result_.error(x) < 0.01
        assert model.result_.shape == (12, 20, 16)

    def test_largest(self, rng) -> None:
        x = random_tensor((6, 30, 25), (2, 4, 4), rng=rng, noise=0.02)
        model = DTucker(ranks=(2, 4, 4), slice_modes="largest", seed=0).fit(x)
        assert model.permutation_[:2] == (1, 2)
        assert model.result_.error(x) < 0.01

    def test_result_in_original_order(self, rng) -> None:
        x = random_tensor((6, 30, 25), (2, 4, 4), rng=rng, noise=0.0)
        model = DTucker(ranks=(2, 4, 4), slice_modes="largest", seed=0).fit(x)
        assert [f.shape[0] for f in model.result_.factors] == [6, 30, 25]
        assert model.result_.ranks == (2, 4, 4)

    def test_invalid_pair(self) -> None:
        with pytest.raises(ShapeError):
            DTucker(ranks=2, slice_modes=(0, 0)).fit(np.zeros((3, 3, 3)) + 1.0)

    def test_invalid_string(self) -> None:
        with pytest.raises(ShapeError):
            DTucker(ranks=2, slice_modes="biggest").fit(np.ones((3, 3, 3)))


class TestRefit:
    def test_lower_rank_reuses_compression(self, rng) -> None:
        x = random_tensor((20, 16, 12), (4, 3, 3), rng=rng, noise=0.0)
        model = DTucker(ranks=(4, 3, 3), slice_rank=6, seed=0).fit(x)
        small = model.refit(ranks=(2, 2, 2))
        assert small.ranks == (2, 2, 2)
        # Self-consistent: refit at the original ranks reproduces the error.
        again = model.refit()
        assert again.error(x) == pytest.approx(model.result_.error(x), abs=1e-8)

    def test_refit_rank_exceeds_slice_rank(self, noisy3) -> None:
        model = DTucker(ranks=(4, 3, 3), seed=0).fit(noisy3)
        with pytest.raises(RankError):
            model.refit(ranks=(10, 10, 3))

    def test_refit_before_fit(self) -> None:
        with pytest.raises(NotFittedError):
            DTucker(ranks=3).refit()

    def test_refit_with_permutation(self, rng) -> None:
        x = random_tensor((6, 30, 25), (2, 4, 4), rng=rng, noise=0.0)
        model = DTucker(
            ranks=(2, 4, 4), slice_modes="largest", slice_rank=6, seed=0
        ).fit(x)
        r = model.refit(ranks=(2, 3, 3))
        assert r.ranks == (2, 3, 3)
        assert r.shape == (6, 30, 25)


class TestAccessors:
    def test_not_fitted_errors(self) -> None:
        model = DTucker(ranks=3)
        with pytest.raises(NotFittedError):
            _ = model.compression_ratio_
        with pytest.raises(NotFittedError):
            model.reconstruct()

    def test_reconstruct(self, noisy3) -> None:
        model = DTucker(ranks=(4, 3, 3), seed=0).fit(noisy3)
        np.testing.assert_allclose(
            model.reconstruct(), model.result_.reconstruct()
        )

    def test_compression_ratio_positive(self, noisy3) -> None:
        model = DTucker(ranks=(4, 3, 3), seed=0).fit(noisy3)
        assert model.compression_ratio_ > 1.0


class TestDecompose:
    def test_functional_api(self, noisy3) -> None:
        model = decompose(noisy3, (4, 3, 3), seed=0)
        assert isinstance(model, DTucker)
        assert model.result_.error(noisy3) < 0.01
