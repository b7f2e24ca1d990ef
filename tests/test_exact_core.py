"""A one-shot fit's closing pass, its power-pass escalation and its NaN scan.

:meth:`repro.FitPipeline.fit` (behind ``DTucker.fit``, ``fit_from_file``
and ``ShardCoordinator.fit``) compresses randomized-SVD slabs without a
power pass, refits with ``config.power_iterations`` passes when the
compression residual dominates the error, and closes with the exact core
``G = X ×ₙ Aₙᵀ`` of its factors.  The suites here check that:

* the reported exact error equals the error of the dense reconstruction
  (an oracle independent of the fit's bookkeeping), on every input path;
* NaN/Inf anywhere, the last block included, is rejected by the
  compression read before any fitted attribute is set, while finite
  entries whose squares overflow still pass;
* the escalation follows its rule, identically on every backend and for
  sharded and monolithic fits, and a refit is the ``q``-pass compression
  of the same draws.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    DenseSource,
    DTucker,
    DTuckerConfig,
    FitPipeline,
    ShardCoordinator,
    ShardedSource,
)
from repro.core.fit_pipeline import POWER_ESCALATION, residual_share
from repro.core.sources import compress_source, exact_core
from repro.core.slice_svd import compress, exact_compress
from repro.datasets import load_dataset
from repro.distributed import write_npy_shards
from repro.exceptions import ShapeError
from repro.kernels import compress_plan
from repro.tensor.random import random_tensor

#: One problem per order 3-5: (shape, ranks).
ORDERS = [
    ((30, 25, 20), (4, 4, 3)),
    ((14, 12, 6, 5), (3, 3, 2, 2)),
    ((10, 9, 4, 3, 3), (3, 3, 2, 2, 2)),
]
ORDER_IDS = ["order3", "order4", "order5"]


def _tensor(shape, ranks, dtype) -> np.ndarray:
    return random_tensor(shape, ranks, rng=1, noise=0.2).astype(dtype)


def _assert_exact(error: float, result, x: np.ndarray) -> None:
    # The dense oracle in float64: a float32 tensor's values, widened.
    want = result.error(x.astype(np.float64))
    assert error == pytest.approx(want, rel=1e-10)


def _projected(x: np.ndarray, factors) -> np.ndarray:
    g = np.asarray(x, dtype=np.float64)
    for n, a in enumerate(factors):
        g = np.moveaxis(np.tensordot(a.T, g, axes=(1, n)), 0, n)
    return g


#: (tensor dtype, compression precision): a float64 tensor compressed in
#: float32 still reports the error of its float64 values.
DTYPES = [
    (np.float64, "float64"),
    (np.float32, "float32"),
    (np.float64, "float32"),
]
DTYPE_IDS = ["f64", "f32", "f64-as-f32"]


class TestExactErrorOracle:
    """The reported exact error is the dense reconstruction's, to 1e-10."""

    @pytest.mark.parametrize("dtype,precision", DTYPES, ids=DTYPE_IDS)
    @pytest.mark.parametrize("shape,ranks", ORDERS, ids=ORDER_IDS)
    def test_dense(self, shape, ranks, dtype, precision) -> None:
        x = _tensor(shape, ranks, dtype)
        model = DTucker(
            ranks, config=DTuckerConfig(seed=0, precision=precision)
        ).fit(x)
        _assert_exact(model.exact_error_, model.result_, x)
        np.testing.assert_allclose(
            model.result_.core,
            _projected(x, model.result_.factors),
            rtol=1e-10,
            atol=1e-12 * np.abs(model.result_.core).max(),
        )

    @pytest.mark.parametrize("dtype,precision", DTYPES, ids=DTYPE_IDS)
    @pytest.mark.parametrize("shape,ranks", ORDERS, ids=ORDER_IDS)
    def test_npy(self, tmp_path, shape, ranks, dtype, precision) -> None:
        x = _tensor(shape, ranks, dtype)
        np.save(tmp_path / "x.npy", x)
        model = DTucker(
            ranks, config=DTuckerConfig(seed=0, precision=precision)
        ).fit_from_file(tmp_path / "x.npy", batch_slices=7)
        _assert_exact(model.exact_error_, model.result_, x)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("dtype,precision", DTYPES, ids=DTYPE_IDS)
    @pytest.mark.parametrize("shape,ranks", ORDERS, ids=ORDER_IDS)
    def test_sharded(self, tmp_path, shape, ranks, dtype, precision, backend) -> None:
        x = _tensor(shape, ranks, dtype)
        manifest = write_npy_shards(tmp_path / "s", x, 3)
        cfg = DTuckerConfig(
            seed=0, backend=backend, n_workers=2, precision=precision
        )
        coordinated = ShardCoordinator(
            ShardedSource.from_manifest(manifest), ranks, config=cfg
        ).fit()
        _assert_exact(coordinated.exact_error, coordinated.result, x)
        # One reduce round of per-shard partial cores closes the fit.
        closing = coordinated.traces[-1]
        assert closing.phase == "closing"
        assert closing.counters.misses_for("comm:reduce") == 1
        piped = FitPipeline(ranks, config=cfg).fit(
            ShardedSource.from_manifest(manifest)
        )
        _assert_exact(piped.exact_error, piped.result, x)

    def test_views_and_blocks_agree(self, monkeypatch) -> None:
        # An in-memory tensor is contracted through one GEMM over the
        # array; any other source block by block.  Both give the same core
        # and the same ``‖X‖²``, wherever the blocks and the shards fall.
        shape, ranks = (40, 30, 50), (3, 3, 3)
        x = _tensor(shape, ranks, np.float64)
        rng = np.random.default_rng(2)
        factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip(shape, ranks)]
        whole, norm = exact_core(DenseSource(x), factors)
        monkeypatch.setattr(compress_plan, "_BLOCK_BYTES", 4 * 40 * 30 * 8)
        blocked, blocked_norm = exact_core(
            ShardedSource.partition(DenseSource(x), 3), factors
        )
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(whole, _projected(x, factors), rtol=1e-12, atol=1e-12)
        assert blocked_norm == pytest.approx(norm, rel=1e-14)
        assert norm == pytest.approx(float(np.vdot(x, x)), rel=1e-14)

    def test_store_keeps_the_exact_error(self, tmp_path) -> None:
        shape, ranks = ORDERS[0]
        model = DTucker(ranks, config=DTuckerConfig(seed=0)).fit(
            _tensor(shape, ranks, np.float64)
        )
        model.save(tmp_path / "m")
        back = DTucker.load(tmp_path / "m")
        assert back.exact_error_ == model.exact_error_
        assert back.config == model.config
        assert back.power_iterations_ == model.power_iterations_


#: Enough slices for several 4 MiB compression blocks: 300 slices of 32 KiB.
BIG = (64, 64, 300)


def _poisoned(value: float) -> np.ndarray:
    x = random_tensor(BIG, (4, 4, 3), rng=3, noise=0.1)
    assert compress_plan.block_slices(64, 64, np.float64) < BIG[2] - 128
    x[-1, -1, -1] = value  # slice 299: the last block only
    return x


def _fitted_attributes(model) -> list[str]:
    return [k for k in vars(model) if k.endswith("_")]


class TestNonFiniteInput:
    """NaN/Inf is rejected by the compression read, in whichever block it is."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dense(self, value) -> None:
        model = DTucker((4, 4, 3), config=DTuckerConfig(seed=0))
        with pytest.raises(ShapeError, match="non-finite"):
            model.fit(_poisoned(value))
        assert _fitted_attributes(model) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_npy(self, tmp_path, value) -> None:
        np.save(tmp_path / "x.npy", _poisoned(value))
        model = DTucker((4, 4, 3), config=DTuckerConfig(seed=0))
        with pytest.raises(ShapeError, match="non-finite"):
            model.fit_from_file(tmp_path / "x.npy", batch_slices=64)
        assert _fitted_attributes(model) == []

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sharded(self, tmp_path, backend) -> None:
        manifest = write_npy_shards(tmp_path / "s", _poisoned(np.nan), 3)
        cfg = DTuckerConfig(seed=0, backend=backend, n_workers=2)
        with pytest.raises(ShapeError, match="non-finite"):
            ShardCoordinator(
                ShardedSource.from_manifest(manifest), (4, 4, 3), config=cfg
            ).fit()

    def test_overflowing_squares_are_accepted(self) -> None:
        # 1e200 is finite; its square is not.  The block's norm overflows,
        # the exact scan of the block finds every entry finite, and the
        # compression goes on, as input validation lets it.
        x = random_tensor((12, 10, 8), (3, 3, 2), rng=4, noise=0.1)
        x[2, 3, 7] = 1e200
        with np.errstate(over="ignore"):
            ssvd = exact_compress(x, 3)
        assert np.isinf(ssvd.slice_norms_squared[7])
        assert np.isfinite(ssvd.slice_norms_squared[:7]).all()
        assert ssvd.s[7, 0] == pytest.approx(1e200)


def _stand_in(name: str, seed: int = 1):
    d = load_dataset(name, "small", seed=seed)
    return d.tensor, d.ranks


def _share(fit) -> float:
    return fit.kernel_stats.signals["power:residual_share"]


def _escalated(fit) -> bool:
    stats = fit.kernel_stats
    held, escalated = stats.misses_for("power:hold"), stats.misses_for("power:escalate")
    assert held + escalated == 1
    return bool(escalated)


class TestPowerEscalation:
    """Power passes run only where the compression residual dominates."""

    @pytest.mark.parametrize(
        "name,escalates",
        [("boats", False), ("walking", False), ("stock", False),
         ("airquality", True), ("hsi", False)],
    )
    def test_rule_on_the_stand_ins(self, name, escalates) -> None:
        # Margins measured at seeds 1-10 (docs/performance.md): at most
        # 3.48 for the inputs a power pass does not help, at least 8.25
        # for airquality, around the threshold of 5.5.
        x, ranks = _stand_in(name)
        fit = FitPipeline(ranks, config=DTuckerConfig(seed=1)).fit(DenseSource(x))
        assert _escalated(fit) == escalates
        assert (_share(fit) > POWER_ESCALATION) == escalates
        assert fit.power_iterations == (1 if escalates else 0)
        # The signal is the residual share of the held compression's fit.
        if not escalates:
            assert _share(fit) == residual_share(fit.slice_svd, fit.history[-1])

    @pytest.mark.parametrize("name", ["airquality", "hsi"])
    def test_decision_is_the_same_everywhere(self, tmp_path, name) -> None:
        x, ranks = _stand_in(name)
        manifest = write_npy_shards(tmp_path / "s", x, 2)
        decisions = {}
        for backend in ("serial", "thread", "process"):
            cfg = DTuckerConfig(seed=1, backend=backend, n_workers=2)
            mono = FitPipeline(ranks, config=cfg).fit(DenseSource(x))
            sharded = ShardCoordinator(
                ShardedSource.from_manifest(manifest), ranks, config=cfg
            ).fit()
            decisions[backend] = (_escalated(mono), _escalated(sharded))
            np.testing.assert_array_equal(sharded.slice_svd.u, mono.slice_svd.u)
        assert len(set(decisions.values())) == 1
        assert set(next(iter(decisions.values()))) == {name == "airquality"}

    def test_escalation_recompresses_the_same_draws(self) -> None:
        x, ranks = _stand_in("airquality")
        cfg = DTuckerConfig(seed=1)
        fit = FitPipeline(ranks, config=cfg).fit(DenseSource(x))
        assert _escalated(fit)
        # The refit's slices are the q = 1 compression of the seed's draws,
        # and the sweeps of both compressions are in the history.
        k = max(ranks[0], ranks[1])
        ref = compress_source(DenseSource(x), k, config=cfg)
        np.testing.assert_array_equal(fit.slice_svd.u, ref.u)
        np.testing.assert_array_equal(fit.slice_svd.s, ref.s)
        assert len(fit.history) == fit.n_iters == fit.kernel_stats.sweeps
        assert sum(fit.kernel_stats.plan_decisions().values()) == 2

    def test_held_fit_keeps_the_no_pass_compression(self, tmp_path) -> None:
        x, ranks = _stand_in("boats")
        cfg = DTuckerConfig(seed=1)
        model = DTucker(ranks, config=cfg).fit(x)
        assert model.power_iterations_ == 0
        assert model.config.power_iterations == 1
        k = max(ranks[0], ranks[1])
        ref = compress(x, k, config=DTuckerConfig(seed=1, power_iterations=0))
        np.testing.assert_array_equal(model.slice_svd_.u, ref.u)
        # The pipeline's compression stage is the fit's first compression.
        stage = FitPipeline(ranks, config=cfg).compress(DenseSource(x), rng=1)
        np.testing.assert_array_equal(stage.u, ref.u)
        # A saved store records the passes that ran beside the config, so
        # appends match and a loaded model keeps its escalation level.
        store = model.save(tmp_path / "m")
        assert store.power_iterations == 0
        assert store.config == cfg
        back = DTucker.load(tmp_path / "m")
        assert back.config == cfg and back.power_iterations_ == 0
        block = x[..., :5].copy()
        store.append(block, rng=7)
        want = compress(
            np.transpose(block, store.permutation),
            store.slice_rank,
            config=replace(cfg, power_iterations=0),
            rng=7,
        )
        appended = store.load_slice_svd()
        np.testing.assert_array_equal(appended.u[-want.num_slices:], want.u)
        assert store.power_iterations == 0

    @pytest.mark.parametrize(
        "config",
        # oversampling=54: 2·(6 + 54) reaches the 120-row short side, so
        # the one slice-SVD rule takes the Gram shortcut.
        [DTuckerConfig(seed=1, power_iterations=0), DTuckerConfig(seed=1, oversampling=54)],
        ids=["no-passes", "gram"],
    )
    def test_nothing_to_escalate(self, config) -> None:
        x, ranks = _stand_in("airquality")
        fit = FitPipeline(ranks, config=config).fit(DenseSource(x))
        if config.oversampling == 54:
            assert fit.kernel_stats.plan_decisions() == {"gram": 1}
        assert fit.power_iterations == config.power_iterations
        assert "power:residual_share" not in fit.kernel_stats.signals
        assert not fit.kernel_stats.misses_for("power:escalate")
