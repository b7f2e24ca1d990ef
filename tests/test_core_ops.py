"""Direct tests of the compressed-domain TTM kernels.

``w_tensor`` (initialization), the uncached mode partials of the reference
sweep (``repro.kernels.naive``) and the per-slice projection kernels
(``repro.kernels.contractions``) must each agree with the corresponding
dense TTM chain when the compression is exact (full slice rank) — these
are the identities the whole iteration phase stands on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.initialization import w_tensor
from repro.core.slice_svd import compress, exact_compress
from repro.kernels.contractions import project_left_chunk, project_right_chunk
from repro.kernels.naive import mode1_partial, mode2_partial
from repro.tensor.products import mode_product
from repro.tensor.random import random_orthonormal


@pytest.fixture
def setup(rng):
    x = rng.standard_normal((9, 7, 4, 3))
    ssvd = exact_compress(x, 7)  # full rank: lossless
    a1 = random_orthonormal(9, 3, rng)
    a2 = random_orthonormal(7, 2, rng)
    return x, ssvd, a1, a2


class TestProjections:
    def test_project_left_shape_and_value(self, setup) -> None:
        x, ssvd, a1, _ = setup
        au = project_left_chunk(ssvd.u, a1=a1)
        assert au.shape == (12, 3, 7)
        for l in range(12):
            np.testing.assert_allclose(au[l], a1.T @ ssvd.u[l], atol=1e-12)

    def test_project_right_shape_and_value(self, setup) -> None:
        x, ssvd, _, a2 = setup
        av = project_right_chunk(ssvd.vt, a2=a2)
        assert av.shape == (12, 7, 2)
        for l in range(12):
            np.testing.assert_allclose(av[l], ssvd.vt[l] @ a2, atol=1e-12)


class TestWTensor:
    def test_equals_dense_double_projection(self, setup) -> None:
        x, ssvd, a1, a2 = setup
        w = w_tensor(ssvd, a1, a2)
        expected = mode_product(
            mode_product(x, a1, 0, transpose=True), a2, 1, transpose=True
        )
        assert w.shape == (3, 2, 4, 3)
        np.testing.assert_allclose(w, expected, atol=1e-8)

    def test_order2(self, rng) -> None:
        m = rng.standard_normal((8, 6))
        ssvd = exact_compress(m, 6)
        a1 = random_orthonormal(8, 2, rng)
        a2 = random_orthonormal(6, 2, rng)
        np.testing.assert_allclose(
            w_tensor(ssvd, a1, a2), a1.T @ m @ a2, atol=1e-8
        )


class TestPartials:
    def test_mode1_partial_equals_dense(self, setup) -> None:
        x, ssvd, _, a2 = setup
        z = mode1_partial(ssvd, a2)
        expected = mode_product(x, a2, 1, transpose=True)
        assert z.shape == (9, 2, 4, 3)
        np.testing.assert_allclose(z, expected, atol=1e-8)

    def test_mode2_partial_equals_dense(self, setup) -> None:
        x, ssvd, a1, _ = setup
        z = mode2_partial(ssvd, a1)
        expected = mode_product(x, a1, 0, transpose=True)
        assert z.shape == (3, 7, 4, 3)
        np.testing.assert_allclose(z, expected, atol=1e-8)

    def test_partials_consistent_with_w(self, setup) -> None:
        # Projecting the mode-1 partial with A(1)ᵀ must give W.
        x, ssvd, a1, a2 = setup
        via_partial = mode_product(mode1_partial(ssvd, a2), a1, 0, transpose=True)
        np.testing.assert_allclose(via_partial, w_tensor(ssvd, a1, a2), atol=1e-8)


class TestLossyConsistency:
    def test_kernels_agree_with_reconstructed_tensor(self, rng) -> None:
        # With lossy compression the kernels must match the TTM chains of
        # the *reconstructed* tensor X̃ exactly (that is what they compute).
        x = rng.standard_normal((10, 8, 5))
        ssvd = compress(x, 3, rng=0)
        xt = ssvd.reconstruct()
        a1 = random_orthonormal(10, 2, rng)
        a2 = random_orthonormal(8, 2, rng)
        np.testing.assert_allclose(
            w_tensor(ssvd, a1, a2),
            mode_product(mode_product(xt, a1, 0, transpose=True), a2, 1, transpose=True),
            atol=1e-8,
        )
        np.testing.assert_allclose(
            mode1_partial(ssvd, a2),
            mode_product(xt, a2, 1, transpose=True),
            atol=1e-8,
        )
