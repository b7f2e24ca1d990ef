"""Tests for the SVD-based initialization phase."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.dtucker import DTucker
from repro.core.initialization import initialize, random_initialize, scaled_gram
from repro.core.slice_svd import compress
from repro.exceptions import RankError
from repro.kernels import SweepWorkspace
from repro.linalg.svd import gram_leading_eigenvectors
from repro.tensor.norms import core_based_error, frobenius_norm_squared
from repro.tensor.products import tucker_to_tensor
from repro.tensor.random import random_tensor
from tests.conftest import assert_orthonormal


class TestInitialize:
    def test_shapes(self, lowrank3: np.ndarray) -> None:
        ss = compress(lowrank3, 3, rng=0)
        core, factors = initialize(ss, (3, 2, 2))
        assert core.shape == (3, 2, 2)
        assert [f.shape for f in factors] == [(12, 3), (10, 2), (8, 2)]

    def test_factors_orthonormal(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, rng=0)
        _, factors = initialize(ss, (3, 2, 2))
        for f in factors:
            assert_orthonormal(f)

    def test_exact_recovery_on_exact_lowrank(self, lowrank3) -> None:
        # For an exactly rank-(3,2,2) tensor, the initialization alone must
        # already be an exact decomposition.
        ss = compress(lowrank3, 3, rng=0)
        core, factors = initialize(ss, (3, 2, 2))
        recon = tucker_to_tensor(core, factors)
        np.testing.assert_allclose(recon, lowrank3, atol=1e-7)

    def test_good_start_on_noisy_tensor(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.1)
        ss = compress(x, 3, rng=0)
        core, _ = initialize(ss, (3, 3, 3))
        err = core_based_error(frobenius_norm_squared(x), core)
        # Initialization should land near the noise floor already.
        assert err < 0.05

    def test_order4(self, rng) -> None:
        x = random_tensor((8, 7, 5, 4), (2, 2, 2, 2), rng=rng)
        ss = compress(x, 2, rng=0)
        core, factors = initialize(ss, (2, 2, 2, 2))
        assert core.shape == (2, 2, 2, 2)
        np.testing.assert_allclose(
            tucker_to_tensor(core, factors), x, atol=1e-6
        )

    def test_order2(self, rng) -> None:
        m = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 9))
        ss = compress(m, 4, rng=0)
        core, factors = initialize(ss, (4, 4))
        np.testing.assert_allclose(tucker_to_tensor(core, factors), m, atol=1e-7)

    def test_rank_exceeding_mode_rejected(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, rng=0)
        with pytest.raises(RankError):
            initialize(ss, (13, 2, 2))

    def test_asymmetric_ranks(self, rng) -> None:
        x = random_tensor((12, 10, 8), (4, 2, 3), rng=rng)
        ss = compress(x, 4, rng=0)
        core, factors = initialize(ss, (4, 2, 3))
        assert core.shape == (4, 2, 3)
        np.testing.assert_allclose(tucker_to_tensor(core, factors), x, atol=1e-6)


class TestRandomInitialize:
    def test_shapes_and_orthonormality(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, rng=0)
        core, factors = random_initialize(ss, (3, 2, 2), rng=0)
        assert core.shape == (3, 2, 2)
        for f in factors:
            assert_orthonormal(f)

    def test_reproducible(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, rng=0)
        _, f1 = random_initialize(ss, (3, 2, 2), rng=5)
        _, f2 = random_initialize(ss, (3, 2, 2), rng=5)
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a, b)

    def test_worse_than_svd_init(self, rng) -> None:
        # The whole point of the initialization phase: the SVD start has a
        # (much) lower starting error than the random start.
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.05)
        ss = compress(x, 3, rng=0)
        core_svd, _ = initialize(ss, (3, 3, 3))
        core_rand, _ = random_initialize(ss, (3, 3, 3), rng=0)
        nsq = frobenius_norm_squared(x)
        assert core_based_error(nsq, core_svd) < core_based_error(nsq, core_rand)


class TestFloat32Contract:
    def test_blockwise_gram_on_a_float32_fit(self) -> None:
        # SliceSVD stores float64, so a precision="float32" fit initializes
        # from float64 slices; its float32 sweep workspace casts the stacks
        # once, and the blockwise Gram keeps whatever dtype it is given.
        x = random_tensor((20, 18, 30), (3, 3, 2), rng=0, noise=0.01)
        model = DTucker((3, 3, 2), config=DTuckerConfig(precision="float32", seed=0))
        sv = model.fit(x).slice_svd_
        ws = SweepWorkspace(sv, compute_dtype=np.float32)
        for stack, right in ((ws._u, False), (ws._vt, True)):
            g32 = scaled_gram(stack, ws._s, right=right)
            assert g32.dtype == np.float32
            assert gram_leading_eigenvectors(g32, 3).dtype == np.float32
            g64 = scaled_gram(sv.vt if right else sv.u, sv.s, right=right)
            assert g64.dtype == np.float64
            np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-3)
