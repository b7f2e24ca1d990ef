"""Property-based (hypothesis) tests on cross-module invariants.

These tests generate random problem geometries and assert algebraic
invariants that must hold for *every* input: unfolding identities, energy
conservation under orthonormal projections, monotonicity of ALS, and
consistency between the compressed and dense computation paths.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DTuckerConfig
from repro.core.initialization import initialize
from repro.core.iteration import als_sweeps
from repro.core.slice_svd import compress, exact_compress
from repro.tensor.norms import frobenius_norm_squared
from repro.tensor.products import (
    kron_secondary,
    mode_product,
    multi_mode_product,
    tucker_to_tensor,
)
from repro.tensor.random import random_tensor, random_tucker
from repro.tensor.slices import from_slices, to_slices
from repro.tensor.unfold import fold, unfold


# Geometry strategies kept small: properties are about structure, not scale.
orders = st.integers(2, 4)


@st.composite
def tensor_shapes(draw) -> tuple[int, ...]:
    order = draw(orders)
    return tuple(draw(st.integers(2, 6)) for _ in range(order))


@st.composite
def tucker_problems(draw) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    shape = draw(tensor_shapes())
    ranks = tuple(draw(st.integers(1, d)) for d in shape)
    seed = draw(st.integers(0, 2**16))
    return shape, ranks, seed


class TestUnfoldingInvariants:
    @given(tucker_problems())
    def test_unfold_preserves_norm(self, problem) -> None:
        shape, _, seed = problem
        x = np.random.default_rng(seed).standard_normal(shape)
        for n in range(len(shape)):
            assert np.isclose(
                np.linalg.norm(unfold(x, n)), np.linalg.norm(x.ravel())
            )

    @given(tucker_problems())
    def test_fold_unfold_roundtrip(self, problem) -> None:
        shape, _, seed = problem
        x = np.random.default_rng(seed).standard_normal(shape)
        for n in range(len(shape)):
            np.testing.assert_array_equal(fold(unfold(x, n), n, shape), x)

    @given(tucker_problems())
    def test_slices_roundtrip(self, problem) -> None:
        shape, _, seed = problem
        x = np.random.default_rng(seed).standard_normal(shape)
        np.testing.assert_array_equal(from_slices(to_slices(x), shape), x)


class TestTuckerAlgebra:
    @given(tucker_problems())
    @settings(max_examples=15)
    def test_unfolding_identity(self, problem) -> None:
        shape, ranks, seed = problem
        rng = np.random.default_rng(seed)
        core, factors = random_tucker(shape, ranks, rng)
        y = tucker_to_tensor(core, factors)
        for n in range(len(shape)):
            rhs = factors[n] @ unfold(core, n) @ kron_secondary(factors, n).T
            np.testing.assert_allclose(unfold(y, n), rhs, atol=1e-9)

    @given(tucker_problems())
    @settings(max_examples=15)
    def test_projection_never_gains_energy(self, problem) -> None:
        # ||X x_n Q^T||_F <= ||X||_F for orthonormal Q.
        shape, ranks, seed = problem
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        _, factors = random_tucker(shape, ranks, rng)
        projected = multi_mode_product(x, factors, transpose=True)
        assert frobenius_norm_squared(projected) <= frobenius_norm_squared(x) + 1e-9

    @given(tucker_problems())
    @settings(max_examples=15)
    def test_mode_product_norm_bound(self, problem) -> None:
        shape, _, seed = problem
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        n = int(rng.integers(0, len(shape)))
        a = rng.standard_normal((3, shape[n]))
        spectral = np.linalg.svd(a, compute_uv=False)[0]
        assert (
            np.linalg.norm(mode_product(x, a, n).ravel())
            <= spectral * np.linalg.norm(x.ravel()) + 1e-9
        )


class TestCompressedPathConsistency:
    @given(tucker_problems())
    @settings(max_examples=10)
    def test_exact_compression_reconstructs(self, problem) -> None:
        shape, _, seed = problem
        x = np.random.default_rng(seed).standard_normal(shape)
        k = min(shape[0], shape[1])
        ss = exact_compress(x, k)
        np.testing.assert_allclose(ss.reconstruct(), x, atol=1e-8)

    @given(tucker_problems())
    @settings(max_examples=10)
    def test_energy_never_exceeds_original(self, problem) -> None:
        shape, _, seed = problem
        x = np.random.default_rng(seed).standard_normal(shape)
        k = max(1, min(shape[0], shape[1]) - 1)
        ss = compress(x, k, rng=seed)
        assert ss.approx_norm_squared() <= frobenius_norm_squared(x) * (1 + 1e-9)

    @given(tucker_problems())
    @settings(max_examples=10)
    def test_init_plus_sweeps_recovers_exact_lowrank(self, problem) -> None:
        shape, ranks, seed = problem
        x = random_tensor(shape, ranks, rng=seed, noise=0.0)
        if np.linalg.norm(x.ravel()) < 1e-9:
            return  # degenerate random core, nothing to recover
        k = min(max(ranks[0], ranks[1]), min(shape[:2]))
        ss = exact_compress(x, k)
        core, factors = initialize(ss, ranks)
        out = als_sweeps(ss, ranks, factors, config=DTuckerConfig(max_iters=10))
        np.testing.assert_allclose(
            tucker_to_tensor(out.core, out.factors), x, atol=1e-5 * max(1.0, np.abs(x).max())
        )

    @given(tucker_problems())
    @settings(max_examples=10)
    def test_sweep_errors_monotone(self, problem) -> None:
        shape, ranks, seed = problem
        x = np.random.default_rng(seed).standard_normal(shape)
        k = min(max(ranks[0], ranks[1]), min(shape[:2]))
        ss = exact_compress(x, k)
        _, factors = initialize(ss, ranks)
        out = als_sweeps(
            ss, ranks, factors, config=DTuckerConfig(max_iters=6, tol=1e-15)
        )
        assert all(
            later <= earlier + 1e-8
            for earlier, later in zip(out.errors, out.errors[1:])
        )

    @given(tucker_problems())
    @settings(max_examples=10)
    def test_factors_always_orthonormal(self, problem) -> None:
        shape, ranks, seed = problem
        x = np.random.default_rng(seed).standard_normal(shape)
        k = min(max(ranks[0], ranks[1]), min(shape[:2]))
        ss = exact_compress(x, k)
        _, factors = initialize(ss, ranks)
        out = als_sweeps(ss, ranks, factors, config=DTuckerConfig(max_iters=3))
        for f in out.factors:
            np.testing.assert_allclose(
                f.T @ f, np.eye(f.shape[1]), atol=1e-8
            )
