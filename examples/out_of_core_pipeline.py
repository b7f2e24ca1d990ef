"""A full memory-frugal pipeline: disk tensor → archive → many answers.

Scenario: a tensor too large to keep resident lives on disk as ``.npy``.
The pipeline

1. compresses it **out of core** (memory-mapped, slice batches — the full
   tensor is never loaded),
2. persists the compressed representation to a small ``.npz`` archive,
3. in a "later session", loads the archive and answers several
   decomposition requests — including automatic rank selection for a
   target error — without touching the original file again.

Run:
    python examples/out_of_core_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    NpySource,
    als_sweeps,
    compress_source,
    estimate_error,
    initialize,
    suggest_ranks,
)
from repro.core.result import TuckerResult
from repro.datasets import boats_like
from repro.store import read_slice_svd_archive, write_slice_svd_archive


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_ooc_"))
    tensor_path = workdir / "video.npy"
    archive_path = workdir / "video_compressed.npz"

    # --- session 1: acquire data, compress out of core, persist -----------
    video = boats_like(96, 72, 800, seed=11)
    np.save(tensor_path, video)
    dense_mb = tensor_path.stat().st_size / 1e6
    print(f"tensor on disk: {video.shape}, {dense_mb:.1f} MB")
    del video  # from here on, the dense tensor is never resident

    ssvd = compress_source(NpySource(tensor_path), 12, batch_slices=64, rng=0)
    write_slice_svd_archive(ssvd, archive_path)
    archive_mb = archive_path.stat().st_size / 1e6
    print(
        f"compressed archive: {archive_mb:.1f} MB on disk "
        f"({dense_mb / archive_mb:.1f}x smaller), "
        f"{ssvd.nbytes / 1e6:.1f} MB in memory"
    )

    # --- session 2: answer requests from the archive alone -----------------
    ssvd = read_slice_svd_archive(archive_path)

    print("\nrank selection for target errors:")
    for target in (0.05, 0.01, 0.005):
        ranks = suggest_ranks(ssvd, target, max_rank=12)
        print(
            f"  target {target:0.3f}: ranks {ranks} "
            f"(bound {estimate_error(ssvd, ranks):.4f})"
        )

    print("\ndecomposition requests (compressed-domain ALS):")
    for ranks in ((12, 12, 10), (8, 8, 6), (4, 4, 4)):
        core, factors = initialize(ssvd, ranks)
        out = als_sweeps(ssvd, ranks, factors)
        result = TuckerResult(core=out.core, factors=out.factors)
        print(
            f"  ranks {str(ranks):>12s}: est. error {out.errors[-1]:.5f}, "
            f"{out.n_iters} sweeps, model {result.nbytes / 1e3:.0f} KB"
        )

    print(f"\nartifacts kept in {workdir}")


if __name__ == "__main__":
    main()
