"""Tests for randomized SVD (single, batched, and Gram-side paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import RankError
from repro.linalg.rsvd import (
    batched_rsvd,
    batched_svd_via_gram,
    randomized_range_finder,
    rsvd,
)
from tests.conftest import assert_orthonormal


def lowrank(rng: np.random.Generator, m: int, n: int, r: int) -> np.ndarray:
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


class TestRangeFinder:
    def test_orthonormal(self, rng) -> None:
        q = randomized_range_finder(rng.standard_normal((20, 15)), 5, rng=0)
        assert_orthonormal(q)

    def test_captures_range_of_lowrank(self, rng) -> None:
        a = lowrank(rng, 30, 20, 4)
        q = randomized_range_finder(a, 6, rng=0)
        np.testing.assert_allclose(q @ (q.T @ a), a, atol=1e-8)

    def test_size_too_large(self, rng) -> None:
        with pytest.raises(RankError):
            randomized_range_finder(rng.standard_normal((5, 4)), 5)


class TestRsvd:
    def test_exact_on_lowrank(self, rng) -> None:
        a = lowrank(rng, 40, 30, 5)
        u, s, vt = rsvd(a, 5, rng=0)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-7)

    def test_orthonormal_factors(self, rng) -> None:
        u, _, vt = rsvd(rng.standard_normal((20, 15)), 4, rng=0)
        assert_orthonormal(u)
        assert_orthonormal(vt.T)

    def test_near_optimal_on_decaying_spectrum(self, rng) -> None:
        # Singular values decaying geometrically: rSVD error within a small
        # factor of the optimal (Eckart-Young) truncation error.
        u0 = np.linalg.qr(rng.standard_normal((50, 20)))[0]
        v0 = np.linalg.qr(rng.standard_normal((40, 20)))[0]
        s0 = 2.0 ** -np.arange(20)
        a = u0 @ np.diag(s0) @ v0.T
        u, s, vt = rsvd(a, 5, power_iterations=2, rng=0)
        err = np.linalg.norm(a - u @ np.diag(s) @ vt)
        optimal = np.linalg.norm(s0[5:])
        assert err <= 3.0 * optimal

    def test_seed_reproducible(self, rng) -> None:
        a = rng.standard_normal((15, 12))
        u1, s1, v1 = rsvd(a, 4, rng=42)
        u2, s2, v2 = rsvd(a, 4, rng=42)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(v1, v2)

    def test_rank_too_large(self, rng) -> None:
        with pytest.raises(RankError):
            rsvd(rng.standard_normal((6, 4)), 5)

    def test_oversampling_clipped(self, rng) -> None:
        # rank + oversampling exceeding min shape must not crash.
        a = rng.standard_normal((8, 6))
        u, s, vt = rsvd(a, 5, oversampling=100, rng=0)
        assert u.shape == (8, 5)


class TestBatchedRsvd:
    def test_matches_per_slice(self, rng) -> None:
        stack = np.stack([lowrank(rng, 15, 12, 3) for _ in range(4)])
        u, s, vt = batched_rsvd(stack, 3, rng=0)
        for l in range(4):
            np.testing.assert_allclose(
                u[l] @ np.diag(s[l]) @ vt[l], stack[l], atol=1e-7
            )

    def test_sign_convention(self, rng) -> None:
        stack = rng.standard_normal((3, 10, 8))
        u, _, _ = batched_rsvd(stack, 2, rng=0)
        for l in range(3):
            idx = np.argmax(np.abs(u[l]), axis=0)
            assert (u[l][idx, np.arange(2)] > 0).all()

    def test_orthonormal_per_slice(self, rng) -> None:
        stack = rng.standard_normal((3, 10, 8))
        u, _, vt = batched_rsvd(stack, 2, rng=0)
        for l in range(3):
            assert_orthonormal(u[l])
            assert_orthonormal(vt[l].T)

    def test_non3d_rejected(self, rng) -> None:
        with pytest.raises(RankError):
            batched_rsvd(rng.standard_normal((5, 5)), 2)

    def test_noncontiguous_input_ok(self, rng) -> None:
        base = rng.standard_normal((10, 8, 4))
        stack = np.moveaxis(base, 2, 0)  # strided view
        u, s, vt = batched_rsvd(stack, 2, rng=0)
        u2, s2, vt2 = batched_rsvd(np.ascontiguousarray(stack), 2, rng=0)
        np.testing.assert_allclose(u, u2)


class TestBatchedSvdViaGram:
    def test_matches_exact_svd_tall(self, rng) -> None:
        stack = rng.standard_normal((5, 20, 6))
        u, s, vt = batched_svd_via_gram(stack, 4)
        for l in range(5):
            s_ref = np.linalg.svd(stack[l], compute_uv=False)[:4]
            np.testing.assert_allclose(s[l], s_ref, rtol=1e-8)
            np.testing.assert_allclose(
                u[l] @ np.diag(s[l]) @ vt[l],
                stack[l]
                - (stack[l] - u[l] @ (u[l].T @ stack[l])),  # projection onto U
                atol=1e-8,
            )

    def test_matches_exact_svd_wide(self, rng) -> None:
        stack = rng.standard_normal((5, 6, 20))
        u, s, vt = batched_svd_via_gram(stack, 4)
        for l in range(5):
            s_ref = np.linalg.svd(stack[l], compute_uv=False)[:4]
            np.testing.assert_allclose(s[l], s_ref, rtol=1e-8)

    def test_orthonormal(self, rng) -> None:
        stack = rng.standard_normal((4, 15, 7))
        u, _, vt = batched_svd_via_gram(stack, 3)
        for l in range(4):
            assert_orthonormal(u[l], atol=1e-6)
            assert_orthonormal(vt[l].T, atol=1e-6)

    def test_exact_reconstruction_at_full_rank(self, rng) -> None:
        stack = np.stack([lowrank(rng, 12, 5, 2) for _ in range(3)])
        u, s, vt = batched_svd_via_gram(stack, 5)
        recon = u @ (s[:, :, None] * vt)
        np.testing.assert_allclose(recon, stack, atol=1e-7)

    def test_rank_deficient_slice_safe(self) -> None:
        # A zero slice must not produce NaNs.
        stack = np.zeros((2, 6, 4))
        stack[1] = np.random.default_rng(0).standard_normal((6, 4))
        u, s, vt = batched_svd_via_gram(stack, 3)
        assert np.isfinite(u).all() and np.isfinite(s).all() and np.isfinite(vt).all()
        np.testing.assert_allclose(s[0], 0.0, atol=1e-12)

    def test_rank_too_large(self, rng) -> None:
        with pytest.raises(RankError):
            batched_svd_via_gram(rng.standard_normal((2, 5, 4)), 5)


DTYPES = pytest.mark.parametrize(
    "dtype", [np.float64, np.float32], ids=["float64", "float32"]
)


def _spectrum_stack(
    shape: tuple[int, int], spectrum: np.ndarray, n_slices: int, seed: int
) -> np.ndarray:
    """``n_slices`` matrices ``U·diag(spectrum)·Vᵀ``, random orthonormal U, V."""
    m, n = shape
    gen = np.random.default_rng(seed)
    out = np.empty((n_slices, m, n))
    for l in range(n_slices):
        u = np.linalg.qr(gen.standard_normal((m, spectrum.size)))[0]
        v = np.linalg.qr(gen.standard_normal((n, spectrum.size)))[0]
        out[l] = (u * spectrum) @ v.T
    return out


class TestSliceSvdOracle:
    """Every slice's error against the exact-SVD optimum (Halko et al. 2011).

    With ``τ = ‖σ_{r+1..}‖`` the exact-SVD tail of a slice and a sketch of
    ``k = r + p`` columns, ``p >= 2``, Halko, Martinsson & Tropp (Thm 10.5)
    bound the range error ``E‖A − QQᵀA‖_F² <= (1 + r/(p−1))·τ²``.
    Truncating ``QᵀA`` to rank ``r`` adds at most ``τ²`` (HMT §9.4), so

        E‖A − U·Σ·Vᵀ‖_F <= sqrt(2 + r/(p − 1)) · τ.

    When the sketch spans the short side (``k = min(m, n)``) the range is
    exact and the bound is ``τ`` itself.  Power passes only sharpen the
    range; every ``power_iterations`` is held to this ``q = 0`` bound.  The
    floor ``c·eps·‖A‖_F`` with ``c = max(m, n)`` — LAPACK's backward-error
    scale for an ``m × n`` factorization — admits the rounding of the
    factorization and of the reconstruction.  Seeds are fixed, so each
    case is one draw held to the expected-error bound.
    """

    #: The five fit_paper slab shapes (I1, I2) at their slice ranks.
    PAPER_SLABS = {
        "boats": ((120, 90), 10),
        "walking": ((160, 120), 10),
        "stock": ((400, 54), 10),
        "airquality": ((2000, 376), 6),
        "hsi": ((96, 96), 8),
    }

    @staticmethod
    def _check(stack: np.ndarray, rank: int, *, power_iterations: int, seed: int = 0):
        l, m, n = stack.shape
        k = min(rank + 10, m, n)
        omega = np.random.default_rng(seed).standard_normal((n, k))
        u, s, vt = batched_rsvd(
            stack, rank, power_iterations=power_iterations, test_matrix=omega
        )
        assert u.dtype == s.dtype == vt.dtype == stack.dtype
        eps = float(np.finfo(stack.dtype).eps)
        factor = 1.0 if k == min(m, n) else np.sqrt(2.0 + rank / (k - rank - 1))
        a64 = stack.astype(np.float64)
        recon = np.asarray(u, np.float64) @ (
            np.asarray(s, np.float64)[:, :, None] * np.asarray(vt, np.float64)
        )
        for i in range(l):
            assert np.isfinite(u[i]).all() and np.isfinite(vt[i]).all()
            sigma = np.linalg.svd(a64[i], compute_uv=False)
            tail = float(np.linalg.norm(sigma[rank:]))
            err = float(np.linalg.norm(a64[i] - recon[i]))
            floor = max(m, n) * eps * float(np.linalg.norm(a64[i]))
            assert err <= factor * tail + floor, (i, err, factor * tail, floor)

    @DTYPES
    @pytest.mark.parametrize("power_iterations", [0, 1, 2])
    @pytest.mark.parametrize("slab", list(PAPER_SLABS))
    def test_paper_slab_shapes(self, slab, power_iterations, dtype) -> None:
        (m, n), rank = self.PAPER_SLABS[slab]
        # A polynomially decaying spectrum keeps the tail well below ‖A‖_F,
        # so the bound is far from trivially met.
        spectrum = 1.0 / (1.0 + np.arange(min(m, n))) ** 1.5
        stack = _spectrum_stack((m, n), spectrum, 2, seed=1).astype(dtype)
        self._check(stack, rank, power_iterations=power_iterations)

    @DTYPES
    @pytest.mark.parametrize("power_iterations", [0, 1, 2])
    @pytest.mark.parametrize("decade", [0.5, 1.0], ids=["half-decade", "decade"])
    @pytest.mark.parametrize("rank", [5, 10, 20])
    def test_steep_spectrum(self, rank, decade, power_iterations, dtype) -> None:
        # σ_i = 10^{-i/2} and 10^{-i}: the tail falls below sqrt(eps)·σ_1.
        spectrum = 10.0 ** (-decade * np.arange(90))
        stack = _spectrum_stack((120, 90), spectrum, 3, seed=2).astype(dtype)
        self._check(stack, rank, power_iterations=power_iterations)

    @DTYPES
    @pytest.mark.parametrize("power_iterations", [0, 1, 2])
    def test_rank_deficient_and_zero_slices(self, power_iterations, dtype) -> None:
        gen = np.random.default_rng(3)
        stack = np.zeros((3, 60, 45))
        stack[0] = gen.standard_normal((60, 3)) @ gen.standard_normal((3, 45))
        stack[2] = gen.standard_normal((60, 45))
        stack = stack.astype(dtype)
        self._check(stack, 8, power_iterations=power_iterations)
        _, s, vt = batched_rsvd(stack, 8, power_iterations=power_iterations, rng=0)
        assert np.all(s[1] == 0.0)
