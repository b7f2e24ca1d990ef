"""A fit's peak memory is its compressed size plus a few blocks, on every input path.

D-Tucker is memory-efficient because nothing it holds grows with the raw
tensor: the compression reads one cache-sized block of slices at a time,
and the iteration phase contracts the mode-1/mode-2 partials one temporal
block at a time.  These tests measure a whole fit with :mod:`tracemalloc`
(:func:`repro.metrics.measure_peak`) and bound its *transient* memory —
the peak minus the :class:`~repro.core.slice_svd.SliceSVD` the fit returns
— by a multiple of the 4 MiB block budget, for an in-memory order-3 and
order-4 tensor, a ``.npy`` file and a sharded coordinator fit (serial and
process backends).  A float32
fit additionally holds the float32 compute copy of its slice factors
(half the SliceSVD's bytes), which its bound adds.

:class:`TestBlockedContraction` checks the blocked mode-1/mode-2
contractions against a dense oracle and across backends, and
:class:`TestFiniteScan` the blockwise NaN/Inf scan of input validation.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import DTucker, DTuckerConfig, ShardCoordinator, ShardedSource, validation
from repro.core.initialization import initialize
from repro.core.iteration import als_sweeps
from repro.core.slice_svd import compress
from repro.distributed import write_npy_shards
from repro.engine import backend_scope
from repro.exceptions import ShapeError
from repro.kernels import compress_plan, contractions
from repro.kernels.naive import naive_als_sweeps
from repro.kernels.workspace import SweepWorkspace
from repro.metrics.peak_memory import measure_peak
from repro.tensor.random import random_tensor
from repro.tensor.slices import SliceRuns, slice_stack, to_slices
from repro.validation import as_tensor

#: The block budget: one compression block, one partial block.
BLOCK = 4 << 20
#: Transient memory allowed beyond the SliceSVD: one compression block and
#: its factorization temporaries, or one partial block and its chain.
BLOCKS = 4

SERIAL = DTuckerConfig(seed=0, backend="serial")


def test_block_budgets() -> None:
    assert compress_plan._BLOCK_BYTES == BLOCK
    assert contractions._PARTIAL_BYTES == BLOCK


def _transient(fit, *, float32: bool = False) -> tuple[object, int]:
    """``fit()``'s result and its peak minus the slice factors it holds."""
    fit()  # warm: first-call imports and caches are not the fit's memory
    gc.collect()
    model, peak = measure_peak(fit)
    ssvd = getattr(model, "slice_svd_", None) or model.slice_svd
    held = ssvd.u.nbytes + ssvd.s.nbytes + ssvd.vt.nbytes
    held += ssvd.slice_norms_squared.nbytes
    if float32:
        held += (ssvd.u.nbytes + ssvd.s.nbytes + ssvd.vt.nbytes) // 2
    return model, peak - held


def _order3(i1: int = 240, dtype=np.float64) -> np.ndarray:
    # L = 1200 slices of I1 x 12: the (L, I1, J2) mode-1 partial is about
    # as large as the SliceSVD itself (23 MB at I1 = 240 in float64).
    rng = np.random.default_rng(0)
    return rng.standard_normal((i1, 12, 1200)).astype(dtype)


class TestFitPeakBound:
    """Peak − SliceSVD ≤ ``BLOCKS`` × 4 MiB on every input path."""

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_large_l_order3_dense(self, precision) -> None:
        # A float32 partial is half the bytes: a taller slice keeps it large.
        x = _order3() if precision == "float64" else _order3(400, np.float32)
        cfg = DTuckerConfig(seed=0, backend="serial", precision=precision)
        _, extra = _transient(
            lambda: DTucker((10, 10, 5), config=cfg).fit(x),
            float32=precision == "float32",
        )
        assert extra <= BLOCKS * BLOCK, extra / BLOCK

    def test_order4_dense(self) -> None:
        # A C-order order-4 tensor's slice stack is no view: compression
        # gathers each block from the mode-3 runs, never the whole tensor.
        x = np.random.default_rng(1).standard_normal((60, 60, 20, 60))
        _, extra = _transient(lambda: DTucker((8, 8, 5, 5), config=SERIAL).fit(x))
        assert extra <= BLOCKS * BLOCK, extra / BLOCK

    def test_npy_out_of_core(self, tmp_path) -> None:
        path = tmp_path / "x.npy"
        np.save(path, _order3())
        _, extra = _transient(
            lambda: DTucker((10, 10, 5), config=SERIAL).fit_from_file(path)
        )
        assert extra <= BLOCKS * BLOCK, extra / BLOCK

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sharded_coordinator(self, tmp_path, backend) -> None:
        # Process: the coordinator only (workers' allocations are not
        # traced).  Serial: one batch straddles every member, served as
        # their pieces rather than a concatenated copy.
        manifest = write_npy_shards(tmp_path / "shards", _order3(), 8)
        cfg = DTuckerConfig(seed=0, backend=backend, n_workers=2)
        with backend_scope(backend, config=cfg) as engine:
            fit, extra = _transient(
                lambda: ShardCoordinator(
                    ShardedSource.from_manifest(manifest), (10, 10, 5),
                    config=cfg, engine=engine,
                ).fit()
            )
        assert extra <= BLOCKS * BLOCK, extra / BLOCK
        assert fit.kernel_stats.bytes_comm > 0


class TestCompressionPeak:
    def test_large_l_order3_compression(self) -> None:
        # One 4 MiB block buffer, its U stack (I2 = 12 against K = 10: most
        # of a block) and small temporaries: 8.3 MiB measured.  The sign
        # convention flips U in place and finds its pivots a few slices at
        # a time; np.abs(U) and U * signs used to add two U-sized
        # temporaries (14.5 MiB before).
        x = _order3()
        f = lambda: compress(x, 10, config=SERIAL)  # noqa: E731
        f()
        gc.collect()
        ssvd, peak = measure_peak(f)
        held = ssvd.u.nbytes + ssvd.s.nbytes + ssvd.vt.nbytes
        held += ssvd.slice_norms_squared.nbytes
        assert peak - held <= 9 << 20, (peak - held) / 2**20


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the partial budget so a small problem runs several blocks."""
    monkeypatch.setattr(contractions, "_PARTIAL_BYTES", 2048)
    return 2048


def _problem(shape=(14, 12, 9, 10), ranks=(3, 4, 2, 3)):
    x = random_tensor(shape, ranks, rng=3, noise=0.05)
    ssvd = compress(x, 5, rng=0)
    _, factors = initialize(ssvd, ranks)
    return ssvd, factors, ranks


def _oracle(ssvd, factors, target: int) -> np.ndarray:
    """``X̃ ×_{k≠target} A(k)ᵀ`` on the reconstructed dense tensor."""
    x = ssvd.reconstruct()
    letters = "abcdefgh"[: x.ndim]
    out = letters
    operands = [x]
    spec = letters
    for m, a in enumerate(factors):
        if m == target:
            continue
        new = letters[m].upper()
        spec += f",{letters[m]}{new}"
        operands.append(a)
        out = out.replace(letters[m], new)
    return np.einsum(f"{spec}->{out}", *operands)


class TestBlockedContraction:
    @pytest.mark.parametrize("target", [0, 1])
    def test_several_blocks_match_the_dense_oracle(self, small_blocks, target) -> None:
        ssvd, factors, _ = _problem()
        ws = SweepWorkspace(ssvd)
        ws.bind_factors(factors)
        a, b = ws._partial_spec(target)[2]
        assert len(contractions.temporal_blocks(ssvd.shape, a * b * 8)) >= 3
        np.testing.assert_allclose(
            ws.contract(target), _oracle(ssvd, factors, target), atol=1e-10
        )

    def test_float32_blocks_match_the_dense_oracle(self, small_blocks) -> None:
        ssvd, factors, _ = _problem()
        ws = SweepWorkspace(ssvd, compute_dtype=np.float32)
        ws.bind_factors(factors)
        a, b = ws._partial_spec(0)[2]
        assert len(contractions.temporal_blocks(ssvd.shape, a * b * 4)) >= 3
        got = ws.contract(0)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, _oracle(ssvd, factors, 0), atol=1e-4)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_and_naive_are_bitwise_equal(self, small_blocks, backend) -> None:
        ssvd, factors, ranks = _problem()
        cfg = DTuckerConfig(max_iters=4, tol=1e-300)
        ref = als_sweeps(ssvd, ranks, factors, config=cfg, engine="serial")
        naive = naive_als_sweeps(ssvd, ranks, factors, config=cfg)
        with backend_scope(backend, config=DTuckerConfig(n_workers=2, chunk_size=7)) as eng:
            got = als_sweeps(ssvd, ranks, factors, config=cfg, engine=eng)
        for other in (naive, got):
            np.testing.assert_array_equal(other.core, ref.core)
            for p, q in zip(other.factors, ref.factors):
                np.testing.assert_array_equal(p, q)
            assert other.errors == ref.errors

    @pytest.mark.parametrize("target", [0, 1])
    def test_one_block_is_the_unblocked_computation(self, target) -> None:
        ssvd, factors, _ = _problem()
        ws = SweepWorkspace(ssvd)
        ws.bind_factors(factors)
        a, b = ws._partial_spec(target)[2]
        assert contractions.temporal_blocks(ssvd.shape, a * b * 8) == [
            (0, ssvd.num_slices)
        ]
        partial = ws.mode1_partial() if target == 0 else ws.mode2_partial()
        np.testing.assert_array_equal(
            ws.contract(target), ws.project_trailing(partial)
        )

    def test_blocked_sweeps_match_unblocked_to_round_off(self, monkeypatch) -> None:
        ssvd, factors, ranks = _problem()
        cfg = DTuckerConfig(max_iters=5, tol=1e-300)
        ref = als_sweeps(ssvd, ranks, factors, config=cfg)
        monkeypatch.setattr(contractions, "_PARTIAL_BYTES", 2048)
        got = als_sweeps(ssvd, ranks, factors, config=cfg)
        np.testing.assert_allclose(got.core, ref.core, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.errors, ref.errors, rtol=1e-12)

    def test_als_stays_monotone(self, small_blocks) -> None:
        ssvd, factors, ranks = _problem()
        result = als_sweeps(ssvd, ranks, factors, config=DTuckerConfig(max_iters=8, tol=1e-300))
        errors = np.asarray(result.errors)
        assert np.all(np.diff(errors) <= 1e-12 * errors[0])


class TestSliceRuns:
    """A slice stack that is no single view is served as runs, not copied."""

    @pytest.mark.parametrize("shape", [(4, 3, 5, 2), (4, 3, 2, 3, 2)])
    def test_every_range_matches_the_slice_stack(self, shape) -> None:
        x = np.random.default_rng(2).standard_normal(shape)
        stack = slice_stack(x)
        assert isinstance(stack, SliceRuns)
        ref = np.moveaxis(to_slices(x), 2, 0)
        for lo in range(ref.shape[0]):
            for hi in range(lo + 1, ref.shape[0] + 1):
                np.testing.assert_array_equal(np.asarray(stack[lo:hi]), ref[lo:hi])

    def test_concat_of_views_and_runs(self) -> None:
        rng = np.random.default_rng(3)
        pieces = [
            slice_stack(rng.standard_normal((4, 3, 5, 2))),
            slice_stack(rng.standard_normal((4, 3, 6)))[1:4],
            slice_stack(rng.standard_normal((4, 3, 2, 2))),
        ]
        ref = np.concatenate([np.asarray(p) for p in pieces])
        stack = SliceRuns.concat(pieces)
        assert stack.shape == ref.shape
        for lo in range(ref.shape[0]):
            for hi in range(lo + 1, ref.shape[0] + 1):
                np.testing.assert_array_equal(np.asarray(stack[lo:hi]), ref[lo:hi])

    def test_order3_and_fortran_stacks_stay_views(self) -> None:
        x = np.zeros((4, 3, 5))
        assert np.shares_memory(slice_stack(x), x)
        f = np.asfortranarray(np.zeros((4, 3, 5, 2)))
        assert np.shares_memory(slice_stack(f), f)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_order4_compression_matches_serial(self, backend) -> None:
        x = random_tensor((16, 14, 6, 5), (3, 3, 2, 2), rng=4, noise=0.05)
        ref = compress(x, 4, rng=0)
        with backend_scope(backend, config=DTuckerConfig(n_workers=2, chunk_size=7)) as eng:
            got = compress(x, 4, engine=eng, rng=0)
        for name in ("u", "s", "vt", "slice_norms_squared"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


class TestFiniteScan:
    """The NaN/Inf scan runs in bounded blocks and still sees every entry."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_nan_in_the_last_block_is_rejected(self, layout) -> None:
        x = np.zeros((8, 9, 5 * validation._FINITE_BLOCK // 72 + 5))
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "strided":
            x = x[:, :, ::2]
        x[-1, -1, -1] = np.nan
        assert x.size > 2 * validation._FINITE_BLOCK
        with pytest.raises(ShapeError, match="non-finite"):
            as_tensor(x)

    def test_scan_temporary_is_bounded(self) -> None:
        x = np.zeros((16, 16, 4 * validation._FINITE_BLOCK // 256))
        _, peak = measure_peak(lambda: as_tensor(x))
        assert peak <= validation._FINITE_BLOCK + 4096
