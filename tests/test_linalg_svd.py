"""Tests for deterministic SVD helpers."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import RankError, ShapeError
from repro.linalg.rsvd import randomized_range_finder, rsvd
from repro.kernels.stats import KernelStats
from repro.linalg.svd import (
    _eigh_top,
    leading_left_singular_vectors,
    refine_left_singular_vectors,
    robust_svd,
    sign_fix,
    solve_gram,
    truncated_svd,
)
from tests.conftest import assert_orthonormal


class TestSignFix:
    def test_largest_entry_positive(self, rng) -> None:
        u = rng.standard_normal((8, 3))
        fixed, _ = sign_fix(u)
        idx = np.argmax(np.abs(fixed), axis=0)
        assert (fixed[idx, np.arange(3)] > 0).all()

    def test_product_preserved(self, rng) -> None:
        a = rng.standard_normal((6, 4))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        uf, vtf = sign_fix(u, vt)
        np.testing.assert_allclose(uf @ np.diag(s) @ vtf, a, atol=1e-10)

    def test_idempotent(self, rng) -> None:
        u = rng.standard_normal((8, 3))
        once, _ = sign_fix(u)
        twice, _ = sign_fix(once)
        np.testing.assert_array_equal(once, twice)

    def test_zero_column_sign_one(self) -> None:
        u = np.zeros((3, 1))
        fixed, _ = sign_fix(u)
        np.testing.assert_array_equal(fixed, u)

    def test_inputs_unchanged(self, rng) -> None:
        u = -np.abs(rng.standard_normal((8, 3)))
        vt = rng.standard_normal((3, 5))
        u_kept, vt_kept = u.copy(), vt.copy()
        uf, vtf = sign_fix(u, vt)
        np.testing.assert_array_equal(u, u_kept)
        np.testing.assert_array_equal(vt, vt_kept)
        np.testing.assert_array_equal(uf, -u_kept)
        np.testing.assert_array_equal(vtf, -vt_kept)

    def test_overwrite_flips_in_place(self, rng) -> None:
        u = -np.abs(rng.standard_normal((2, 8, 3)))
        vt = rng.standard_normal((2, 3, 5))
        want_u, want_vt = sign_fix(u, vt)
        uf, vtf = sign_fix(u, vt, overwrite=True)
        assert uf is u and vtf is vt
        np.testing.assert_array_equal(u, want_u)
        np.testing.assert_array_equal(vt, want_vt)


class TestTruncatedSvd:
    def test_exact_on_lowrank(self, rng) -> None:
        a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10))
        u, s, vt = truncated_svd(a, 3)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-9)

    def test_shapes(self, rng) -> None:
        u, s, vt = truncated_svd(rng.standard_normal((8, 6)), 2)
        assert u.shape == (8, 2) and s.shape == (2,) and vt.shape == (2, 6)

    def test_descending_singular_values(self, rng) -> None:
        _, s, _ = truncated_svd(rng.standard_normal((8, 6)), 4)
        assert (np.diff(s) <= 0).all()

    def test_best_rank_k_error(self, rng) -> None:
        # Eckart-Young: truncation error equals the tail singular values.
        a = rng.standard_normal((10, 8))
        full_s = np.linalg.svd(a, compute_uv=False)
        u, s, vt = truncated_svd(a, 3)
        err = np.linalg.norm(a - u @ np.diag(s) @ vt)
        assert err == pytest.approx(np.linalg.norm(full_s[3:]), rel=1e-9)

    def test_rank_too_large(self, rng) -> None:
        with pytest.raises(RankError):
            truncated_svd(rng.standard_normal((4, 6)), 5)

    def test_rank_zero(self, rng) -> None:
        with pytest.raises(ShapeError):
            truncated_svd(rng.standard_normal((4, 6)), 0)


class TestLeadingLeftSingularVectors:
    def test_orthonormal(self, rng) -> None:
        assert_orthonormal(
            leading_left_singular_vectors(rng.standard_normal((10, 7)), 3)
        )

    def test_gram_and_svd_paths_agree(self, rng) -> None:
        # Wide matrix triggers the Gram path; compare against the SVD path
        # on the same data (transposed twice to force the other branch).
        a = rng.standard_normal((6, 50))
        via_gram = leading_left_singular_vectors(a, 3)
        u_ref = np.linalg.svd(a, full_matrices=False)[0][:, :3]
        from repro.linalg.svd import sign_fix as sf

        u_ref, _ = sf(u_ref)
        np.testing.assert_allclose(np.abs(via_gram), np.abs(u_ref), atol=1e-8)

    def test_spans_dominant_subspace(self, rng) -> None:
        u_true = np.linalg.qr(rng.standard_normal((20, 2)))[0]
        a = u_true @ np.diag([5.0, 3.0]) @ rng.standard_normal((2, 15))
        u = leading_left_singular_vectors(a, 2)
        # Projection of the true basis onto the recovered one is identity.
        np.testing.assert_allclose(np.abs(u.T @ u_true), np.abs(u_true.T @ u).T, atol=1e-8)
        assert np.linalg.norm(u @ (u.T @ a) - a) < 1e-8

    def test_rank_exceeds_rows(self, rng) -> None:
        with pytest.raises(RankError):
            leading_left_singular_vectors(rng.standard_normal((3, 10)), 4)


class TestSolveGram:
    def test_spd_solve(self, rng) -> None:
        a = rng.standard_normal((8, 8))
        g = a @ a.T + np.eye(8)
        b = rng.standard_normal((8, 3))
        x = solve_gram(g, b)
        np.testing.assert_allclose(g @ x, b, atol=1e-8)

    def test_ridge(self, rng) -> None:
        g = np.eye(4)
        b = np.ones((4, 1))
        x = solve_gram(g, b, ridge=1.0)
        np.testing.assert_allclose(x, b / 2.0)

    def test_singular_falls_back_to_pinv(self) -> None:
        g = np.zeros((3, 3))
        b = np.ones((3, 1))
        x = solve_gram(g, b)
        np.testing.assert_allclose(x, np.zeros((3, 1)))

    def test_nonsquare_rejected(self, rng) -> None:
        with pytest.raises(RankError):
            solve_gram(rng.standard_normal((3, 4)), np.ones(3))

    @given(st.integers(1, 6))
    def test_identity(self, n: int) -> None:
        b = np.arange(float(n))
        np.testing.assert_allclose(solve_gram(np.eye(n), b), b)


class TestRobustSvd:
    def test_healthy_input_is_the_literal_numpy_call(self, rng) -> None:
        a = rng.standard_normal((10, 7))
        u1, s1, vt1 = robust_svd(a)
        u2, s2, vt2 = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(vt1, vt2)

    def test_gesdd_failure_falls_back_to_gesvd(self, rng, monkeypatch) -> None:
        a = rng.standard_normal((9, 6))
        calls = {"n": 0}
        real_svd = np.linalg.svd

        def flaky_svd(*args, **kwargs):
            calls["n"] += 1
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", flaky_svd)
        u, s, vt = robust_svd(a)
        monkeypatch.setattr(np.linalg, "svd", real_svd)
        assert calls["n"] == 1  # gesdd was tried exactly once
        # The gesvd factors reconstruct the input and agree with the
        # (restored) reference decomposition up to round-off.
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-10)
        _, s_ref, _ = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_allclose(s, s_ref, atol=1e-10)
        assert_orthonormal(u)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_one_gesdd_failure_falls_back_to_gesvd_in_float64(
        self, rng, monkeypatch, dtype
    ) -> None:
        a = rng.standard_normal((9, 6)).astype(dtype)
        calls = []
        real_svd = np.linalg.svd

        def flaky_svd(arr, *args, **kwargs):
            calls.append(arr)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(arr, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky_svd)
        u, s, vt = robust_svd(a)
        assert len(calls) == 1  # gesdd tried once; gesvd is SciPy's, not np's
        assert u.dtype == s.dtype == vt.dtype == np.float64
        a64 = a.astype(np.float64)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a64, atol=1e-10)
        np.testing.assert_allclose(s, real_svd(a64, compute_uv=False), atol=1e-10)

    def test_persistent_failure_propagates(self, monkeypatch) -> None:
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", broken)
        monkeypatch.setattr(
            "scipy.linalg.svd",
            lambda *a, **k: (_ for _ in ()).throw(
                np.linalg.LinAlgError("gesvd failed too")
            ),
        )
        with pytest.raises(np.linalg.LinAlgError):
            robust_svd(np.eye(3))

    def test_full_matrices_shapes(self, rng) -> None:
        a = rng.standard_normal((8, 5))
        u, s, vt = robust_svd(a, full_matrices=True)
        assert u.shape == (8, 8) and s.shape == (5,) and vt.shape == (5, 5)


class TestEighTop:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_is_the_top_of_the_full_eigh(self, dtype) -> None:
        b = np.random.default_rng(5).standard_normal((30, 40))
        g = (b @ b.T).astype(dtype)
        w_full, v_full = np.linalg.eigh(g)
        # Only the lower triangle is read.
        lower = np.tril(g) + np.triu(np.full_like(g, 7.0), 1)
        w, v = _eigh_top(lower, 4)
        assert w.dtype == v.dtype == dtype
        np.testing.assert_array_equal(w, w_full[-4:])
        np.testing.assert_array_equal(v, v_full[:, -4:])


class TestFloat32Contract:
    """float32 in gives float32 out, in every single-matrix helper."""

    @staticmethod
    def _f32(*shape, seed=0):
        return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)

    def test_single_matrix_helpers(self) -> None:
        a = self._f32(30, 20)
        assert all(f.dtype == np.float32 for f in rsvd(a, 4, rng=0))
        assert randomized_range_finder(a, 6, rng=0).dtype == np.float32
        # Thin-SVD branch, wide (Gram) branch, and basis completion.
        assert leading_left_singular_vectors(a, 5).dtype == np.float32
        assert leading_left_singular_vectors(self._f32(6, 40), 3).dtype == np.float32
        assert leading_left_singular_vectors(self._f32(8, 3), 6).dtype == np.float32
        g = a.T @ a
        rhs = self._f32(20, 2, seed=1)
        assert solve_gram(g, rhs).dtype == np.float32
        assert solve_gram(g, rhs, ridge=0.5).dtype == np.float32
        np.testing.assert_allclose(
            solve_gram(g, rhs, ridge=0.5),
            solve_gram(g.astype(float), rhs.astype(float), ridge=0.5),
            rtol=1e-3, atol=1e-4,
        )


# ---------------------------------------------------------------------------
# Leading left singular vectors from the top-r Gram eigensolve
# ---------------------------------------------------------------------------


def count_full_svd_calls(monkeypatch) -> list[tuple[int, int]]:
    """Record each thin SVD ``leading_left_singular_vectors`` takes of its input.

    That SVD is the fallback (and the ``n < rank`` route); the tall route's
    SVD of the thin ``A·V`` product is not counted.  Returns the list the
    recorded input shapes are appended to.
    """
    from repro.linalg import svd as svd_module

    real = svd_module.robust_svd
    lsv_code = svd_module.leading_left_singular_vectors.__code__
    calls: list[tuple[int, int]] = []

    def counting(a, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code is lsv_code and a is caller.f_locals["a"]:
            calls.append(tuple(a.shape))
        return real(a, **kwargs)

    monkeypatch.setattr(svd_module, "robust_svd", counting)
    return calls


def matrix_with_spectrum(m: int, n: int, s, dtype, seed: int) -> np.ndarray:
    """``Q1 · diag(s) · Q2ᵀ`` with random orthonormal ``Q1``, ``Q2``."""
    rng = np.random.default_rng(seed)
    q = len(s)
    q1 = np.linalg.qr(rng.standard_normal((m, q)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, q)))[0]
    return ((q1 * np.asarray(s, dtype=np.float64)) @ q2.T).astype(dtype)


@st.composite
def gapped_problems(draw):
    """A tall, square, wide or ``n < rank`` matrix with a spectral gap at ``rank``."""
    kind = draw(st.sampled_from(["tall", "square", "wide", "few_columns"]))
    if kind == "few_columns":
        r = draw(st.integers(2, 6))
        n = draw(st.integers(1, r - 1))
        m = draw(st.integers(r, 24))
    else:
        r = draw(st.integers(1, 6))
        if kind == "tall":
            n = draw(st.integers(r, 14))
            m = draw(st.integers(n + 1, 40))
        elif kind == "square":
            m = n = draw(st.integers(r, 20))
        else:
            m = draw(st.integers(r, 16))
            n = draw(st.integers(m + 1, 40))
    q = min(m, n)
    spread = draw(st.floats(1.0, 10.0))  # σ_1 / σ_r
    gap = draw(st.floats(0.0, 0.7))  # σ_{r+1} / σ_r
    head = np.geomspace(spread, 1.0, min(r, q))
    tail = gap * np.geomspace(1.0, 0.1, q - min(r, q)) if q > r else np.zeros(0)
    seed = draw(st.integers(0, 2**31 - 1))
    return m, n, r, np.concatenate([head, tail]), seed


class TestLeadingVectorsOracle:
    """``leading_left_singular_vectors`` against ``np.linalg.svd`` of the same matrix.

    The Gram routes square the spectrum: forming and solving a ``q × q``
    Gram perturbs it by ``c·eps·σ_1²`` with ``c = O(max(m, n))``, so by
    Davis–Kahan the projector onto the leading ``p = min(rank, n)`` vectors
    is off by at most ``c·eps·σ_1² / (σ_p² − σ_{p+1}²)``.  This holds
    ``c = 10·max(m, n)``, in the input's own precision (a survey of 3,000
    random problems of these shapes peaked at ``c = 3.6·max(m, n)``).  The
    columns are orthonormal to ``10·m·eps`` and each has its
    largest-magnitude entry positive.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @given(problem=gapped_problems())
    def test_matches_the_svd_subspace(self, dtype, problem) -> None:
        m, n, r, s, seed = problem
        a = matrix_with_spectrum(m, n, s, dtype, seed)
        u = leading_left_singular_vectors(a, r)
        assert u.shape == (m, r) and u.dtype == dtype
        eps = float(np.finfo(dtype).eps)

        u_ref, s_ref, _ = np.linalg.svd(a.astype(np.float64), full_matrices=False)
        p = min(r, n)
        s_next = s_ref[p] if p < len(s_ref) else 0.0
        u64 = u.astype(np.float64)
        dist = np.linalg.norm(
            u64[:, :p] @ u64[:, :p].T - u_ref[:, :p] @ u_ref[:, :p].T, 2
        )
        gap = s_ref[p - 1] ** 2 - s_next**2
        assert dist <= 10 * max(m, n) * eps * s_ref[0] ** 2 / gap
        assert np.abs(u64.T @ u64 - np.eye(r)).max() <= 10 * m * eps
        pivots = u[np.argmax(np.abs(u), axis=0), np.arange(r)]
        assert np.all(pivots > 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("shape", [(60, 20), (30, 30), (20, 60)], ids=["tall", "square", "wide"])
    def test_healthy_input_takes_no_full_svd(self, monkeypatch, dtype, shape) -> None:
        calls = count_full_svd_calls(monkeypatch)
        a = matrix_with_spectrum(*shape, np.geomspace(10.0, 0.1, 20), dtype, seed=0)
        leading_left_singular_vectors(a, 5)
        assert calls == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("shape", [(60, 20), (30, 30), (20, 60)], ids=["tall", "square", "wide"])
    @pytest.mark.parametrize("tail", [0.0, 0.1], ids=["rank_deficient", "below_sqrt_eps"])
    def test_ill_conditioned_gram_falls_back_to_the_svd(
        self, monkeypatch, dtype, shape, tail
    ) -> None:
        # σ_5 is 0, or 0.1·sqrt(eps)·σ_1: the Gram cannot resolve it.
        eps = float(np.finfo(dtype).eps)
        s = np.array([4.0, 3.0, 2.0, 1.0, tail * np.sqrt(eps) * 4.0])
        a = matrix_with_spectrum(*shape, s, dtype, seed=1)
        calls = count_full_svd_calls(monkeypatch)
        u = leading_left_singular_vectors(a, 5)
        assert calls == [shape]
        u_ref, _ = sign_fix(np.linalg.svd(a, full_matrices=False)[0][:, :5])
        np.testing.assert_array_equal(u, u_ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("shape", [(40, 12), (12, 40)], ids=["tall", "wide"])
    def test_non_finite_gram_falls_back_to_the_svd(self, monkeypatch, dtype, shape) -> None:
        # Entries near sqrt(max) overflow the Gram, not the SVD.
        big = np.sqrt(np.finfo(dtype).max)
        a = matrix_with_spectrum(*shape, np.geomspace(4.0, 1.0, 12), np.float64, seed=2)
        a = (a * big).astype(dtype)
        assert np.isfinite(a).all()
        calls = count_full_svd_calls(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            u = leading_left_singular_vectors(a, 3)
        assert calls == [shape]
        assert np.isfinite(u).all()
        assert_orthonormal(u.astype(np.float64), atol=10 * shape[0] * np.finfo(dtype).eps)


def orthonormal_start(m: int, r: int, seed: int) -> np.ndarray:
    """A random ``m × r`` matrix with orthonormal columns."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((m, r)))[0]


def captured_energy(u: np.ndarray, a: np.ndarray) -> float:
    """``‖Uᵀ·A‖²``: the energy of ``A`` in the span of ``U``."""
    return float(np.linalg.norm(u.T @ a) ** 2)


class TestWarmRefineOracle:
    """``refine_left_singular_vectors`` against the mathematics.

    Each block-power step with its Rayleigh–Ritz step captures at least the
    energy of the subspace it started from (a fallback takes the eigensolve,
    which captures the most), so a refined factor never loses captured
    energy; repeated refinement converges to the eigensolve's subspace at
    ``(σ_{r+1}/σ_r)²`` per step, down to the same Davis–Kahan round-off
    bound as :class:`TestLeadingVectorsOracle`.
    """

    @given(problem=gapped_problems(), start=st.integers(0, 2**31 - 1), near=st.booleans())
    def test_captured_energy_never_drops(self, problem, start, near) -> None:
        m, n, r, s, seed = problem
        a = matrix_with_spectrum(m, n, s, np.float64, seed)
        prev = orthonormal_start(m, r, start)
        if near:  # an almost-right start, as a served warm solve has
            prev = np.linalg.qr(leading_left_singular_vectors(a, r) + 0.1 * prev)[0]
        u = refine_left_singular_vectors(a, r, prev)
        total = float(np.linalg.norm(a) ** 2)
        assert captured_energy(u, a) >= captured_energy(prev, a) - 1e-12 * total
        assert np.abs(u.T @ u - np.eye(r)).max() <= 1e-12
        pivots = u[np.argmax(np.abs(u), axis=0), np.arange(r)]
        assert np.all(pivots > 0)

    @pytest.mark.parametrize("shape", [(60, 20), (30, 30), (20, 60)], ids=["tall", "square", "wide"])
    @pytest.mark.parametrize("gap", [0.3, 0.7])
    def test_repeated_refinement_reaches_the_eigensolve_subspace(self, shape, gap) -> None:
        m, n = shape
        r = 5
        s = np.concatenate(
            [np.geomspace(4.0, 1.0, r), gap * np.geomspace(1.0, 0.1, min(m, n) - r)]
        )
        a = matrix_with_spectrum(m, n, s, np.float64, seed=3)
        u_ref = leading_left_singular_vectors(a, r)
        u = orthonormal_start(m, r, seed=4)
        stats = KernelStats()
        for _ in range(40):
            u = refine_left_singular_vectors(a, r, u, stats=stats)
        assert stats.misses_for("factor:eigh") == 0
        dist = np.linalg.norm(u @ u.T - u_ref @ u_ref.T, 2)
        eps = float(np.finfo(np.float64).eps)
        assert dist <= 10 * max(m, n) * eps * s[0] ** 2 / (s[r - 1] ** 2 - s[r] ** 2)

    def test_records_one_warm_update_per_call(self) -> None:
        a = matrix_with_spectrum(40, 30, np.geomspace(10.0, 0.1, 30), np.float64, seed=5)
        stats = KernelStats()
        u = refine_left_singular_vectors(a, 4, orthonormal_start(40, 4, 6), stats=stats)
        assert stats.counts == {"factor:warm": [0, 1]}
        assert u.shape == (40, 4) and u.dtype == np.float64

    @pytest.mark.parametrize("prev", [None, (40, 3), (39, 4)], ids=["missing", "narrow", "short"])
    def test_missing_or_misshapen_start_takes_the_eigensolve(self, prev) -> None:
        a = matrix_with_spectrum(40, 30, np.geomspace(10.0, 0.1, 30), np.float64, seed=5)
        start = None if prev is None else orthonormal_start(*prev, seed=6)
        stats = KernelStats()
        u = refine_left_singular_vectors(a, 4, start, stats=stats)
        np.testing.assert_array_equal(u, leading_left_singular_vectors(a, 4))
        assert stats.counts == {"factor:eigh": [0, 1]}

    def test_unresolved_ritz_values_take_the_eigensolve(self) -> None:
        # Rank 3 < 4 requested: θ_4 is round-off, below 4·eps·θ_1.
        a = matrix_with_spectrum(40, 30, np.array([3.0, 2.0, 1.0]), np.float64, seed=7)
        stats = KernelStats()
        u = refine_left_singular_vectors(a, 4, orthonormal_start(40, 4, 8), stats=stats)
        np.testing.assert_array_equal(u, leading_left_singular_vectors(a, 4))
        assert stats.counts == {"factor:eigh": [0, 1]}

    def test_non_finite_ritz_values_take_the_eigensolve(self) -> None:
        # Entries near sqrt(max) overflow A·(Aᵀ·U), not the eigensolve's SVD fallback.
        big = np.sqrt(np.finfo(np.float64).max)
        a = matrix_with_spectrum(40, 12, np.geomspace(4.0, 1.0, 12), np.float64, seed=2) * big
        stats = KernelStats()
        with np.errstate(over="ignore", invalid="ignore"):
            u = refine_left_singular_vectors(a, 3, orthonormal_start(40, 3, 9), stats=stats)
            expected = leading_left_singular_vectors(a, 3)
        np.testing.assert_array_equal(u, expected)
        assert stats.counts == {"factor:eigh": [0, 1]}

    def test_float32_stays_float32(self) -> None:
        a = matrix_with_spectrum(30, 20, np.geomspace(10.0, 0.1, 20), np.float32, seed=1)
        prev = orthonormal_start(30, 4, 2).astype(np.float32)
        u = refine_left_singular_vectors(a, 4, prev)
        assert u.dtype == np.float32
        assert_orthonormal(u.astype(np.float64), atol=10 * 30 * np.finfo(np.float32).eps)


def count_warm_updates(monkeypatch) -> list[int]:
    """Record every factor update the sweep loop refines from its start.

    Returns the list that one ``1`` per
    :func:`refine_left_singular_vectors` call of the sweep loop is appended to.
    """
    from repro.core import iteration

    real = iteration.refine_left_singular_vectors
    calls: list[int] = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(iteration, "refine_left_singular_vectors", counting)
    return calls


def factor_updates(stats) -> dict[str, int]:
    """The ``factor:*`` update counts of a :class:`KernelStats`, nonzero only."""
    counts = {n: stats.misses_for(n) for n in ("factor:warm", "factor:eigh")}
    return {n: c for n, c in counts.items() if c}


class TestLeadingVectorsPathGuard:
    """Factor updates on healthy input never take the thin-SVD fallback.

    A small boats-like fit and served time-range queries (whose ALS runs on
    the stored slices) make every eigensolve through
    ``leading_left_singular_vectors``; none may reach the SVD of its input.
    Only a warm-tagged served query refines factors from its start: every
    fit, refit, stream and served miss keeps the eigensolve and records no
    ``factor:*`` update.
    """

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_fit_and_served_query_take_the_gram_route(
        self, monkeypatch, tmp_path, precision
    ) -> None:
        from repro import DTucker, DTuckerConfig
        from repro.datasets import boats_like

        x = boats_like(30, 24, 48, seed=0)
        config = DTuckerConfig(seed=0, precision=precision, backend="serial")
        calls = count_full_svd_calls(monkeypatch)
        model = DTucker((5, 5, 4), config=config).fit(x)
        with model.save(tmp_path / "m").open() as served:
            answer = served.query_time_range(8, 40)
            warm = served.query_time_range(10, 42)
            assert served.stats.records[-1].cache == "warm"
        assert model.n_iters_ >= 1 and answer.shape == warm.shape == (30, 24, 32)
        assert calls == []

    def test_fits_streams_and_misses_take_no_warm_update(self, monkeypatch, tmp_path) -> None:
        from repro import (
            DenseSource,
            DTucker,
            DTuckerConfig,
            ShardCoordinator,
            StreamingDTucker,
        )
        from repro.datasets import boats_like

        x = boats_like(30, 24, 48, seed=0)
        config = DTuckerConfig(seed=0, backend="serial")
        warm_calls = count_warm_updates(monkeypatch)
        model = DTucker((5, 5, 4), config=config).fit(x)
        refit = model.refit((4, 4, 3))
        np.save(tmp_path / "x.npy", x)
        from_file = DTucker((5, 5, 4), config=config).fit_from_file(tmp_path / "x.npy")
        sharded = ShardCoordinator(DenseSource(x), (5, 5, 4), config=config, shards=2).fit()
        stream = StreamingDTucker((5, 5, 4), window=32, config=config)
        for t in range(0, 48, 8):
            stream.partial_fit(x[:, :, t : t + 8])
        with model.save(tmp_path / "m").open() as served:
            miss = served.query_time_range(8, 40)
            assert served.stats.records[-1].cache == "miss"
            assert "updates=" not in served.stats.summary()
        assert warm_calls == []
        for stats in (
            model.kernel_stats_,
            from_file.kernel_stats_,
            sharded.kernel_stats,
            stream.kernel_stats_,
            *(t.counters for t in refit.trace_),
            *(t.counters for t in miss.trace_),
        ):
            assert factor_updates(stats) == {}

    def test_warm_query_refines_every_update(self, monkeypatch, tmp_path) -> None:
        from repro import DTucker, DTuckerConfig
        from repro.datasets import boats_like

        x = boats_like(30, 24, 48, seed=0)
        model = DTucker((5, 5, 4), config=DTuckerConfig(seed=0, backend="serial")).fit(x)
        with model.save(tmp_path / "m").open() as served:
            served.query_time_range(8, 40)
            warm_calls = count_warm_updates(monkeypatch)
            answer = served.query_time_range(10, 42)
            assert served.stats.records[-1].cache == "warm"
            (iteration,) = [t for t in answer.trace_ if t.phase == "iteration"]
            updates = factor_updates(iteration.counters)
            sweeps = iteration.counters.sweeps
            # Every update is refined or counted as a fallback, and the
            # serving telemetry carries the same counts.
            assert sum(updates.values()) == len(warm_calls) == 3 * sweeps > 0
            assert updates == {"factor:warm": 3 * sweeps}
            assert factor_updates(served.stats.counters) == updates
            assert f"updates={3 * sweeps}w/0e" in served.stats.summary()
            assert f"updates={3 * sweeps}w/0e" in iteration.summary()
