"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import _parse_ranks, main
from repro.tensor.random import random_tensor


@pytest.fixture
def tensor_file(tmp_path, rng):
    x = random_tensor((14, 12, 10), (3, 3, 3), rng=rng, noise=0.05)
    path = tmp_path / "x.npy"
    np.save(path, x)
    return path


class TestParseRanks:
    def test_single(self) -> None:
        assert _parse_ranks("7") == 7

    def test_tuple(self) -> None:
        assert _parse_ranks("3,4,5") == (3, 4, 5)

    def test_spaces(self) -> None:
        assert _parse_ranks("3, 4, 5") == (3, 4, 5)


class TestDatasetsCommand:
    def test_lists_all(self, capsys) -> None:
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("boats", "stock", "airquality", "hsi", "synthetic"):
            assert name in out


class TestGenerateCommand:
    def test_writes_npy(self, tmp_path, capsys) -> None:
        out = tmp_path / "boats.npy"
        assert main(
            ["generate", "boats", "--scale", "tiny", "-o", str(out)]
        ) == 0
        x = np.load(out)
        assert x.shape == (24, 18, 40)


class TestDecomposeCommand:
    def test_basic(self, tensor_file, capsys) -> None:
        assert main(["decompose", str(tensor_file), "--ranks", "3,3,3"]) == 0
        out = capsys.readouterr().out
        assert "method=dtucker" in out and "error" in out

    def test_other_method(self, tensor_file, capsys) -> None:
        assert main(
            ["decompose", str(tensor_file), "--ranks", "3", "--method", "st_hosvd"]
        ) == 0
        assert "method=st_hosvd" in capsys.readouterr().out

    def test_unknown_method(self, tensor_file) -> None:
        assert main(
            ["decompose", str(tensor_file), "--ranks", "3", "--method", "nope"]
        ) == 2

    def test_saves_artifacts(self, tensor_file, tmp_path, capsys) -> None:
        result_path = tmp_path / "result.npz"
        comp_path = tmp_path / "compressed.npz"
        code = main(
            [
                "decompose", str(tensor_file), "--ranks", "3,3,3",
                "-o", str(result_path), "--save-compressed", str(comp_path),
            ]
        )
        assert code == 0
        from repro.store import read_slice_svd_archive, read_tucker_archive

        result = read_tucker_archive(result_path)
        assert result.ranks == (3, 3, 3)
        ssvd = read_slice_svd_archive(comp_path)
        assert ssvd.shape == (14, 12, 10)

    def test_output_requires_dtucker(self, tensor_file, tmp_path) -> None:
        assert main(
            [
                "decompose", str(tensor_file), "--ranks", "3",
                "--method", "hosvd", "-o", str(tmp_path / "r.npz"),
            ]
        ) == 2

    def test_precision_flag(self, tensor_file, capsys) -> None:
        assert main(
            [
                "decompose", str(tensor_file), "--ranks", "3,3,3",
                "--precision", "float32",
            ]
        ) == 0
        assert "error" in capsys.readouterr().out

    def test_invalid_strategy_rejected(self, tensor_file, capsys) -> None:
        # One slice-SVD rule: --strategy is not a flag any more.
        for strategy in ("rsvd", "auto", "gram", "exact"):
            with pytest.raises(SystemExit) as exc:
                main(
                    [
                        "decompose", str(tensor_file), "--ranks", "3",
                        "--strategy", strategy,
                    ]
                )
            assert exc.value.code == 2
            assert "--strategy" in capsys.readouterr().err

    def test_trace_prints_planner_line(self, tensor_file, capsys) -> None:
        assert main(
            [
                "decompose", str(tensor_file), "--ranks", "3,3,3", "--trace",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "planner:" in out
        assert "sketch_draws=" in out

    def test_dataset_uri(self, capsys) -> None:
        assert main(
            ["decompose", "dataset:synthetic:tiny", "--ranks", "3"]
        ) == 0


class TestCompareCommand:
    def test_subset(self, tensor_file, capsys) -> None:
        assert main(
            [
                "compare", str(tensor_file), "--ranks", "3",
                "--methods", "dtucker,st_hosvd",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "dtucker" in out and "st_hosvd" in out

    def test_unknown_method(self, tensor_file) -> None:
        assert main(
            ["compare", str(tensor_file), "--ranks", "3", "--methods", "bogus"]
        ) == 2


class TestSuggestRanksCommand:
    def test_prints_suggestion(self, tensor_file, capsys) -> None:
        assert main(
            ["suggest-ranks", str(tensor_file), "--target-error", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "suggested" in out and "estimated err" in out

    def test_max_rank(self, tensor_file, capsys) -> None:
        assert main(
            [
                "suggest-ranks", str(tensor_file),
                "--target-error", "0.0001", "--max-rank", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "(2, 2, 2)" in out


class TestErrorHandling:
    def test_unknown_dataset_clean_exit(self, capsys) -> None:
        code = main(["generate", "nope", "-o", "/tmp/never.npy"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_clean_exit(self, capsys) -> None:
        code = main(["decompose", "/no/such/file.npy", "--ranks", "3"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_ranks_clean_exit(self, tensor_file, capsys) -> None:
        code = main(["decompose", str(tensor_file), "--ranks", "99,99,99"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_compress_rank_too_large_clean_exit(self, tensor_file, tmp_path, capsys) -> None:
        code = main(
            ["compress", str(tensor_file), "--rank", "99", "-o", str(tmp_path / "c")]
        )
        assert code == 1


class TestStreamCommand:
    @pytest.fixture
    def block_dir(self, tmp_path, rng):
        x = random_tensor((16, 12, 15), (3, 3, 4), rng=rng, noise=0.02)
        root = tmp_path / "blocks"
        root.mkdir()
        for i, t0 in enumerate(range(0, 15, 5)):
            np.save(root / f"block_{i:03d}.npy", x[..., t0 : t0 + 5])
        return root

    def test_directory_ingest(self, block_dir, capsys) -> None:
        assert main(["stream", str(block_dir), "--ranks", "3,3,4"]) == 0
        out = capsys.readouterr().out
        assert "streaming 3 blocks (drift_budget=0.05)" in out
        assert "ingested 3 blocks, 15 steps total" in out
        assert "projection reuse:" in out

    def test_update_flag_is_gone(self, block_dir, capsys) -> None:
        # One update mode: --update is not a flag any more.
        with pytest.raises(SystemExit):
            main(["stream", str(block_dir), "--ranks", "3,3,4", "--update", "refit"])
        assert "--update" in capsys.readouterr().err

    def test_window_and_decay_flags(self, block_dir, capsys) -> None:
        assert main(
            [
                "stream",
                str(block_dir),
                "--ranks",
                "3,3,4",
                "--window",
                "8",
                "--decay",
                "0.9",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "window=8" in out and "decay=0.9" in out
        assert "extent 8" in out  # the window caps the live extent

    def test_save_then_inspect(self, block_dir, tmp_path, capsys) -> None:
        store = tmp_path / "store"
        assert main(
            [
                "stream",
                str(block_dir),
                "--ranks",
                "3,3,4",
                "--save",
                str(store),
            ]
        ) == 0
        assert "store  :" in capsys.readouterr().out
        assert (store / "streaming" / "state.json").exists()
        assert main(["inspect", str(store)]) == 0

    def test_stdin_source(self, block_dir, capsys, monkeypatch) -> None:
        import io

        paths = "\n".join(str(p) for p in sorted(block_dir.glob("*.npy")))
        monkeypatch.setattr("sys.stdin", io.StringIO(paths + "\n"))
        assert main(["stream", "-", "--ranks", "3,3,4"]) == 0
        assert "ingested 3 blocks" in capsys.readouterr().out

    def test_missing_directory(self, tmp_path) -> None:
        with pytest.raises(SystemExit):
            main(["stream", str(tmp_path / "nope"), "--ranks", "3,3,4"])

    def test_empty_directory(self, tmp_path) -> None:
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["stream", str(empty), "--ranks", "3,3,4"])
