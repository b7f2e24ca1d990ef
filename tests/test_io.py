"""Tests for the ``.npz`` interchange archives of SliceSVD and TuckerResult."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slice_svd import compress
from repro.exceptions import ShapeError
from repro.core.result import TuckerResult
from repro.store import (
    read_slice_svd_archive,
    read_tucker_archive,
    write_slice_svd_archive,
    write_tucker_archive,
)
from repro.tensor.random import random_tucker


class TestSliceSvdRoundtrip:
    def test_roundtrip(self, lowrank3, tmp_path) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        path = write_slice_svd_archive(ssvd, tmp_path / "c")
        assert path.suffix == ".npz"
        back = read_slice_svd_archive(path)
        np.testing.assert_array_equal(back.u, ssvd.u)
        np.testing.assert_array_equal(back.s, ssvd.s)
        np.testing.assert_array_equal(back.vt, ssvd.vt)
        assert back.shape == ssvd.shape
        assert back.norm_squared == ssvd.norm_squared

    def test_loaded_object_is_usable(self, lowrank3, tmp_path) -> None:
        from repro.core.initialization import initialize
        from repro.core.iteration import als_sweeps

        ssvd = compress(lowrank3, 3, rng=0)
        back = read_slice_svd_archive(write_slice_svd_archive(ssvd, tmp_path / "c.npz"))
        _, factors = initialize(back, (3, 2, 2))
        out = als_sweeps(back, (3, 2, 2), factors)
        assert out.errors[-1] < 1e-8

    def test_suffix_appended(self, lowrank3, tmp_path) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        path = write_slice_svd_archive(ssvd, tmp_path / "plain")
        assert path.name == "plain.npz"

    def test_wrong_format_rejected(self, lowrank3, tmp_path) -> None:
        core, factors = random_tucker((5, 4, 3), (2, 2, 2), np.random.default_rng(0))
        result = TuckerResult(core=core, factors=factors)
        p = write_tucker_archive(result, tmp_path / "t")
        with pytest.raises(ShapeError, match="slice-SVD"):
            read_slice_svd_archive(p)

    def test_garbage_archive_rejected(self, tmp_path) -> None:
        p = tmp_path / "junk.npz"
        np.savez(p, a=np.ones(3))
        with pytest.raises(ShapeError):
            read_slice_svd_archive(p)


class TestTuckerRoundtrip:
    def test_roundtrip(self, rng, tmp_path) -> None:
        core, factors = random_tucker((6, 5, 4), (3, 2, 2), rng)
        result = TuckerResult(core=core, factors=factors)
        back = read_tucker_archive(write_tucker_archive(result, tmp_path / "t"))
        np.testing.assert_array_equal(back.core, result.core)
        for a, b in zip(back.factors, result.factors):
            np.testing.assert_array_equal(a, b)

    def test_reconstruction_identical(self, rng, tmp_path) -> None:
        core, factors = random_tucker((6, 5, 4), (3, 2, 2), rng)
        result = TuckerResult(core=core, factors=factors)
        back = read_tucker_archive(write_tucker_archive(result, tmp_path / "t.npz"))
        np.testing.assert_array_equal(back.reconstruct(), result.reconstruct())

    def test_wrong_format_rejected(self, lowrank3, tmp_path) -> None:
        ssvd = compress(lowrank3, 3, rng=0)
        p = write_slice_svd_archive(ssvd, tmp_path / "c")
        with pytest.raises(ShapeError, match="Tucker"):
            read_tucker_archive(p)

    def test_order4(self, rng, tmp_path) -> None:
        core, factors = random_tucker((4, 3, 5, 2), (2, 2, 2, 2), rng)
        result = TuckerResult(core=core, factors=factors)
        back = read_tucker_archive(write_tucker_archive(result, tmp_path / "t4"))
        assert back.order == 4


class TestEndToEndPersistence:
    def test_compress_once_decompose_later(self, rng, tmp_path) -> None:
        """The deployment flow: session 1 compresses, session 2 decomposes."""
        from repro.core.dtucker import DTucker

        from repro.tensor.random import random_tensor

        x = random_tensor((18, 16, 12), (3, 3, 3), rng=rng, noise=0.02)
        model = DTucker(ranks=(3, 3, 3), slice_rank=5, seed=0).fit(x)
        archive = write_slice_svd_archive(model.slice_svd_, tmp_path / "session1")

        # "Session 2": no access to x.
        ssvd = read_slice_svd_archive(archive)
        from repro.core.initialization import initialize
        from repro.core.iteration import als_sweeps

        _, factors = initialize(ssvd, (3, 3, 3))
        out = als_sweeps(ssvd, (3, 3, 3), factors)
        assert out.errors[-1] == pytest.approx(model.history_[-1], abs=1e-8)
