"""Tests for the compressed-domain ALS iteration phase."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core.config import DTuckerConfig
from repro.core.initialization import initialize, random_initialize
from repro.core.iteration import als_sweeps
from repro.core.slice_svd import compress
from repro.exceptions import ConvergenceError
from repro.tensor.products import tucker_to_tensor
from repro.tensor.random import random_tensor
from tests.conftest import assert_orthonormal


class TestAlsSweeps:
    def test_converges_on_lowrank(self, lowrank3: np.ndarray) -> None:
        ss = compress(lowrank3, 3, rng=0)
        _, factors = initialize(ss, (3, 2, 2))
        out = als_sweeps(ss, (3, 2, 2), factors)
        assert out.converged
        assert out.errors[-1] < 1e-8

    def test_factors_orthonormal(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, rng=0)
        _, factors = initialize(ss, (3, 2, 2))
        out = als_sweeps(ss, (3, 2, 2), factors)
        for f in out.factors:
            assert_orthonormal(f)

    def test_error_monotone_nonincreasing(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.2)
        ss = compress(x, 3, rng=0)
        _, factors = random_initialize(ss, (3, 3, 3), rng=1)
        out = als_sweeps(
            ss, (3, 3, 3), factors, config=DTuckerConfig(max_iters=10, tol=1e-12)
        )
        diffs = np.diff(out.errors)
        assert (diffs <= 1e-9).all(), out.errors

    def test_recovers_from_random_init(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.0)
        ss = compress(x, 3, rng=0)
        _, factors = random_initialize(ss, (3, 3, 3), rng=1)
        out = als_sweeps(ss, (3, 3, 3), factors, config=DTuckerConfig(max_iters=50))
        np.testing.assert_allclose(
            tucker_to_tensor(out.core, out.factors), x, atol=1e-5
        )

    def test_sweep_budget_respected(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.3)
        ss = compress(x, 3, rng=0)
        _, factors = random_initialize(ss, (3, 3, 3), rng=1)
        out = als_sweeps(
            ss, (3, 3, 3), factors, config=DTuckerConfig(max_iters=2, tol=1e-16)
        )
        assert out.n_iters == 2
        assert not out.converged
        assert len(out.errors) == 2

    def test_callback_invoked_per_sweep(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, rng=0)
        _, factors = initialize(ss, (3, 2, 2))
        seen: list[tuple[int, float]] = []
        out = als_sweeps(
            ss, (3, 2, 2), factors, callback=lambda i, e: seen.append((i, e))
        )
        assert [i for i, _ in seen] == list(range(1, out.n_iters + 1))
        assert [e for _, e in seen] == out.errors

    def test_order4(self, rng) -> None:
        x = random_tensor((8, 7, 5, 4), (2, 2, 2, 2), rng=rng, noise=0.05)
        ss = compress(x, 2, rng=0)
        _, factors = initialize(ss, (2, 2, 2, 2))
        out = als_sweeps(ss, (2, 2, 2, 2), factors)
        assert out.errors[-1] < 0.02

    def test_order2(self, rng) -> None:
        m = rng.standard_normal((15, 4)) @ rng.standard_normal((4, 12))
        ss = compress(m, 4, rng=0)
        _, factors = initialize(ss, (4, 4))
        out = als_sweeps(ss, (4, 4), factors)
        np.testing.assert_allclose(
            tucker_to_tensor(out.core, out.factors), m, atol=1e-6
        )

    def test_wrong_factor_count(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, rng=0)
        _, factors = initialize(ss, (3, 2, 2))
        with pytest.raises(ConvergenceError):
            als_sweeps(ss, (3, 2, 2), factors[:2])

    def test_error_estimate_matches_true_error(self, rng) -> None:
        # The compressed-domain estimate must track the true reconstruction
        # error up to the (small) compression residual.
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.1)
        ss = compress(
            x, 3, config=DTuckerConfig(oversampling=10, power_iterations=2), rng=0
        )
        _, factors = initialize(ss, (3, 3, 3))
        out = als_sweeps(ss, (3, 3, 3), factors)
        from repro.tensor.norms import reconstruction_error

        true_err = reconstruction_error(x, tucker_to_tensor(out.core, out.factors))
        assert out.errors[-1] == pytest.approx(true_err, abs=5e-3)

    def test_input_factors_not_mutated(self, lowrank3) -> None:
        ss = compress(lowrank3, 3, rng=0)
        _, factors = initialize(ss, (3, 2, 2))
        snapshots = [f.copy() for f in factors]
        als_sweeps(ss, (3, 2, 2), factors)
        for f, snap in zip(factors, snapshots):
            np.testing.assert_array_equal(f, snap)


class TestOneSweepLoop:
    def test_error_estimate_is_computed_by_one_loop(self) -> None:
        # The sweep loop owns the convergence estimate.  Every other ALS
        # sweep in the library supplies only its contraction, so a new
        # ``core_based_error`` call site means a second loop has appeared.
        # Streaming's trailing sweeps and the dense HOOI baseline are
        # different loops by design; a one-shot fit's closing pass takes
        # the exact error of its exact core once, after the sweeps.
        root = Path(repro.__file__).resolve().parent
        found = []

        def walk(node, func, rel):
            for child in ast.iter_child_nodes(node):
                inner = func
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = child.name
                elif isinstance(child, ast.Call):
                    callee = child.func
                    name = getattr(callee, "id", getattr(callee, "attr", None))
                    if name == "core_based_error":
                        found.append((rel, func))
                walk(child, inner, rel)

        for path in sorted(root.rglob("*.py")):
            walk(ast.parse(path.read_text()), None, path.relative_to(root).as_posix())
        assert sorted(found) == [
            ("baselines/tucker_als.py", "tucker_als"),
            ("core/fit_pipeline.py", "fit"),
            ("core/iteration.py", "_sweep_loop"),
            ("core/streaming.py", "_trailing_sweeps"),
        ]
