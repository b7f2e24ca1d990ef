"""Tests for DTuckerConfig validation."""

from __future__ import annotations

import pytest

from repro.core.config import DTuckerConfig
from repro.exceptions import ShapeError


class TestDTuckerConfig:
    def test_defaults(self) -> None:
        cfg = DTuckerConfig()
        assert cfg.oversampling == 10
        assert cfg.power_iterations == 1
        assert cfg.max_iters == 50
        assert cfg.tol == 1e-4
        assert not hasattr(cfg, "exact_slice_svd")
        assert not hasattr(cfg, "shards")
        assert cfg.seed is None
        assert not hasattr(cfg, "strategy")
        assert cfg.precision == "float64"

    def test_frozen(self) -> None:
        cfg = DTuckerConfig()
        with pytest.raises(AttributeError):
            cfg.tol = 1.0  # type: ignore[misc]

    def test_hashable(self) -> None:
        assert hash(DTuckerConfig()) == hash(DTuckerConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"oversampling": -1},
            {"power_iterations": -2},
            {"max_iters": 0},
            {"tol": 0.0},
            {"tol": -1e-3},
            {"n_workers": 0},
            {"precision": "float16"},
        ],
    )
    def test_invalid(self, kwargs: dict) -> None:
        with pytest.raises(ShapeError):
            DTuckerConfig(**kwargs)
