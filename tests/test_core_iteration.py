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


def _poisoned(ss, value=np.nan):
    """A copy of ``ss`` with one singular value of its last slice set to ``value``."""
    from dataclasses import replace

    s = ss.s.copy()
    s[-1, 0] = value
    return replace(ss, s=s)


def _served_warm_problem(tmp_path):
    """A served boats store, a cached answer and the warm start it gives [10, 42)."""
    from repro import DTucker
    from repro.core.initialization import initialize_from_factors
    from repro.datasets import boats_like

    x = boats_like(30, 24, 64, seed=0)
    model = DTucker((5, 5, 4), config=DTuckerConfig(seed=0, backend="serial")).fit(x)
    served = model.save(tmp_path / "m").open()
    cached = served.query_time_range(8, 40)
    local = served.slice_range(10, 42)
    _, start = initialize_from_factors(local, (5, 5, 4), *cached.factors[:2])
    return served, local, start


class TestWarmSolve:
    """A warm solve (factors refined from their start) against the cold one.

    Both run from the same initial factors to the ``tol`` stop; the warm
    solve must land within 1e-3 relative of the cold solve's error in at
    most one more sweep, and — because every refinement captures at least
    the energy of the factor it starts from — its error never rises.
    """

    @staticmethod
    def _pair(ss, ranks, start, config=None):
        cold = als_sweeps(ss, ranks, start, config=config)
        warm = als_sweeps(ss, ranks, start, config=config, warm=True)
        return cold, warm

    @pytest.mark.parametrize(
        "shape,ranks",
        [((20, 16, 12), (4, 4, 3)), ((12, 10, 6, 5), (3, 3, 2, 2))],
        ids=["order3", "order4"],
    )
    def test_warm_matches_cold_from_the_same_start(self, shape, ranks) -> None:
        x = random_tensor(shape, ranks, rng=0, noise=0.1)
        ss = compress(x, max(ranks[:2]), rng=0)
        _, start = initialize(ss, ranks)
        cold, warm = self._pair(ss, ranks, start)
        assert cold.converged and warm.converged
        assert warm.errors[-1] == pytest.approx(cold.errors[-1], rel=1e-3)
        assert warm.n_iters <= cold.n_iters + 1
        assert warm.kernel_stats.misses_for("factor:warm") == len(ranks) * warm.n_iters
        assert cold.kernel_stats.misses_for("factor:warm") == 0

    def test_warm_matches_cold_on_a_served_store(self, tmp_path) -> None:
        served, local, start = _served_warm_problem(tmp_path)
        with served:
            cold, warm = self._pair(local, (5, 5, 4), start, served.config)
        assert warm.errors[-1] == pytest.approx(cold.errors[-1], rel=1e-3)
        assert warm.n_iters <= cold.n_iters + 1

    def test_warm_error_never_rises(self, rng) -> None:
        x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.2)
        ss = compress(x, 3, rng=0)
        _, start = random_initialize(ss, (3, 3, 3), rng=1)
        out = als_sweeps(
            ss, (3, 3, 3), start, config=DTuckerConfig(max_iters=10, tol=1e-12), warm=True
        )
        assert (np.diff(out.errors) <= 1e-9).all(), out.errors

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_slices_raise_from_the_loop(self, lowrank3, warm, value) -> None:
        ss = compress(lowrank3, 3, rng=0)
        _, start = initialize(ss, (3, 2, 2))
        with pytest.raises(ConvergenceError, match="non-finite"):
            als_sweeps(_poisoned(ss, value), (3, 2, 2), start, warm=warm)


class TestValidateOnce:
    """The sweep path takes its arrays as given; the query boundary checks them."""

    def test_a_warm_query_validates_nothing_in_its_sweeps(self, monkeypatch, tmp_path) -> None:
        import sys

        from repro import validation

        real = validation.as_tensor
        callers: list[set[str]] = []

        def counting(*args, **kwargs):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names)
            return real(*args, **kwargs)

        served, _, _ = _served_warm_problem(tmp_path)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counting)
        with served:
            served.query_time_range(10, 42)
            assert served.stats.records[-1].cache == "warm"
        # Only the initialization from the cached factors checks its
        # operands (five calls); the two sweeps' 3 updates, 6 TTM steps and
        # 2 error estimates each used to.
        assert [c for c in callers if "_sweep_loop" in c] == []
        assert len(callers) <= 5
        assert all("initialize_from_factors" in c for c in callers)

    @pytest.mark.parametrize("kind", ["miss", "warm"])
    def test_a_corrupt_payload_raises_a_typed_error(self, tmp_path, kind) -> None:
        from repro import DTucker
        from repro.datasets import boats_like
        from repro.exceptions import ReproError

        x = boats_like(30, 24, 64, seed=0)
        model = DTucker((5, 5, 4), config=DTuckerConfig(seed=0, backend="serial")).fit(x)
        store = model.save(tmp_path / "m")
        s = np.load(tmp_path / "m" / "slices" / "s.npy", mmap_mode="r+")
        s[60, 0] = np.nan
        s.flush()
        del s
        with store.open() as served:
            served.query_time_range(0, 32)
            # [0, 61) overlaps the cached [0, 32) by more than half: warm.
            t0, t1 = (40, 64) if kind == "miss" else (0, 61)
            with pytest.raises(ReproError, match="non-finite"):
                served.query_time_range(t0, t1)
            # The model keeps answering ranges its clean slices cover.
            assert served.query_time_range(0, 32).shape == (30, 24, 32)
