"""Tests for the out-of-core `compress` CLI command."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.store import read_slice_svd_archive
from repro.tensor.random import random_tensor


@pytest.fixture
def npy_file(tmp_path, rng):
    x = random_tensor((20, 15, 8), (3, 3, 2), rng=rng, noise=0.05)
    p = tmp_path / "x.npy"
    np.save(p, x)
    return p, x


class TestCompressCommand:
    def test_writes_loadable_archive(self, npy_file, tmp_path, capsys) -> None:
        path, x = npy_file
        out = tmp_path / "compressed"
        assert main(
            ["compress", str(path), "--rank", "3", "-o", str(out)]
        ) == 0
        ssvd = read_slice_svd_archive(tmp_path / "compressed.npz")
        assert ssvd.shape == x.shape
        assert ssvd.rank == 3
        assert ssvd.compression_error(x) < 0.02

    def test_reports_compression(self, npy_file, tmp_path, capsys) -> None:
        path, _ = npy_file
        main(["compress", str(path), "--rank", "3", "-o", str(tmp_path / "c")])
        output = capsys.readouterr().out
        assert "smaller than dense" in output

    @pytest.mark.parametrize("strategy", ["auto", "gram", "exact"])
    def test_strategy_flag(self, npy_file, tmp_path, strategy) -> None:
        path, x = npy_file
        out = tmp_path / "c"
        assert main(
            [
                "compress", str(path), "--rank", "3",
                "--strategy", strategy, "-o", str(out),
            ]
        ) == 0
        ssvd = read_slice_svd_archive(tmp_path / "c.npz")
        assert ssvd.compression_error(x) < 0.02

    def test_precision_flag(self, npy_file, tmp_path) -> None:
        path, x = npy_file
        assert main(
            [
                "compress", str(path), "--rank", "3",
                "--precision", "float32", "-o", str(tmp_path / "c"),
            ]
        ) == 0
        ssvd = read_slice_svd_archive(tmp_path / "c.npz")
        assert ssvd.compression_error(x) < 0.02

    def test_trace_prints_planner_line(self, npy_file, tmp_path, capsys) -> None:
        path, _ = npy_file
        assert main(
            [
                "compress", str(path), "--rank", "3", "--batch-slices", "3",
                "--strategy", "auto", "--trace", "-o", str(tmp_path / "c"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "planner" in out
        assert "sketch_draws=" in out
        assert "approximation-ooc" in out

    def test_batch_slices_option(self, npy_file, tmp_path) -> None:
        path, x = npy_file
        main(
            [
                "compress", str(path), "--rank", "3",
                "--batch-slices", "2", "-o", str(tmp_path / "c"),
            ]
        )
        ssvd = read_slice_svd_archive(tmp_path / "c.npz")
        assert ssvd.num_slices == 8


class TestSuggestRanksFromArchive:
    def test_uses_archive_without_tensor(self, npy_file, tmp_path, capsys) -> None:
        path, x = npy_file
        archive = tmp_path / "c"
        main(["compress", str(path), "--rank", "5", "-o", str(archive)])
        capsys.readouterr()
        code = main(
            ["suggest-ranks", str(tmp_path / "c.npz"), "--target-error", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert str(x.shape) in out and "suggested" in out
