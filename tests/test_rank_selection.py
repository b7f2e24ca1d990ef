"""Tests for compressed-domain rank selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rank_selection import estimate_error, mode_spectra, suggest_ranks
from repro.core.slice_svd import compress, exact_compress
from repro.exceptions import RankError, ShapeError
from repro.tensor.random import random_tensor
from repro.tensor.unfold import unfold


class TestModeSpectra:
    def test_matches_true_spectra_on_exact_compression(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.1)
        ssvd = exact_compress(x, 12)  # K = min(I1, I2): lossless
        spectra = mode_spectra(ssvd)
        for n in (0, 1):
            true_s = np.linalg.svd(unfold(x, n), compute_uv=False)
            k = len(spectra[n])
            np.testing.assert_allclose(spectra[n], true_s[:k], rtol=1e-6)

    def test_descending(self, lowrank3) -> None:
        for s in mode_spectra(compress(lowrank3, 3, rng=0)):
            assert (np.diff(s) <= 1e-9).all()

    def test_order2(self, rng) -> None:
        m = rng.standard_normal((12, 9))
        spectra = mode_spectra(exact_compress(m, 9))
        assert len(spectra) == 2
        true_s = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(spectra[0][: len(true_s)], true_s, rtol=1e-6)

    def test_energy_bounded_by_tensor(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.2)
        ssvd = compress(x, 5, rng=0)
        total = float(np.sum(x**2))
        for s in mode_spectra(ssvd):
            assert np.sum(s**2) <= total * (1 + 1e-9)


class TestEstimateError:
    def test_upper_bounds_true_hosvd_error(self, rng) -> None:
        from repro.baselines.hosvd import hosvd

        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.15)
        ssvd = exact_compress(x, 10)
        ranks = (3, 3, 3)
        estimated = estimate_error(ssvd, ranks)
        true_err = hosvd(x, ranks).result.error(x)
        assert estimated >= true_err - 1e-9

    def test_zero_for_full_ranks_exact(self, lowrank3) -> None:
        ssvd = exact_compress(lowrank3, 10)
        assert estimate_error(ssvd, (12, 10, 8)) < 1e-10

    def test_monotone_in_rank(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.2)
        ssvd = compress(x, 8, rng=0)
        errs = [estimate_error(ssvd, (r, r, r)) for r in (1, 2, 3, 5)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_wrong_rank_count(self, lowrank3) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        with pytest.raises(RankError):
            estimate_error(ssvd, (3, 3))

    def test_capped_at_one(self, rng) -> None:
        x = rng.standard_normal((10, 9, 8))
        ssvd = compress(x, 2, rng=0)
        assert estimate_error(ssvd, (1, 1, 1)) <= 1.0


class TestSuggestRanks:
    def test_meets_target_on_lowrank(self, lowrank3) -> None:
        ssvd = exact_compress(lowrank3, 8)
        ranks = suggest_ranks(ssvd, 0.01)
        assert estimate_error(ssvd, ranks) <= 0.01
        # The tensor is exactly rank (3, 2, 2); suggestions must not exceed
        # the true ranks by much.
        assert ranks <= (4, 3, 3)

    def test_tighter_target_larger_ranks(self, rng) -> None:
        x = random_tensor((16, 14, 12), (4, 4, 4), rng=rng, noise=0.2)
        ssvd = exact_compress(x, 10)
        loose = suggest_ranks(ssvd, 0.5)
        tight = suggest_ranks(ssvd, 0.05)
        assert all(t >= l for t, l in zip(tight, loose))

    def test_max_rank_cap(self, rng) -> None:
        x = random_tensor((16, 14, 12), (4, 4, 4), rng=rng, noise=0.2)
        ssvd = compress(x, 10, rng=0)
        ranks = suggest_ranks(ssvd, 0.0001, max_rank=3)
        assert all(r <= 3 for r in ranks)

    def test_always_at_least_one(self, rng) -> None:
        x = rng.standard_normal((8, 7, 6))
        ssvd = compress(x, 4, rng=0)
        assert all(r >= 1 for r in suggest_ranks(ssvd, 0.99))

    def test_invalid_target(self, lowrank3) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        with pytest.raises(ShapeError):
            suggest_ranks(ssvd, 0.0)
        with pytest.raises(ShapeError):
            suggest_ranks(ssvd, 1.5)

    def test_end_to_end_error_meets_target(self, rng) -> None:
        """The suggested ranks, fed to DTucker, actually meet the budget."""
        from repro.core.dtucker import DTucker

        x = random_tensor((18, 16, 14), (4, 3, 3), rng=rng, noise=0.1)
        ssvd = exact_compress(x, 12)
        target = 0.05
        ranks = suggest_ranks(ssvd, target)
        model = DTucker(ranks=ranks, seed=0).fit(x)
        assert model.result_.error(x) <= target
