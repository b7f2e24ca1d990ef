"""Namespace-purity tests: ``linalg/`` and ``tensor/`` under array-api-strict.

``array_api_strict`` is the reference implementation of the array-API
standard: it rejects every NumPy-ism (no ``einsum``, no ``order=`` reshape,
no implicit host round-trips, no mixing with ``np.ndarray``).  Running the
compute layers through it proves their single facade bodies — the same
code the default NumPy path runs — touch only standard operations, the
property that makes torch/CuPy support a matter of capability wiring, not
per-function porting.

The whole module is skipped when the package is absent (it is an optional
CI extra, never a runtime dependency).
"""

from __future__ import annotations

import numpy as np
import pytest

strict_xp = pytest.importorskip("array_api_strict")

from repro.engine.array_api import array_module_of, get_module  # noqa: E402
from repro.linalg.rsvd import batched_rsvd, batched_svd_via_gram  # noqa: E402
from repro.linalg.svd import (  # noqa: E402
    leading_left_singular_vectors,
    robust_svd,
    sign_fix,
    truncated_svd,
)
from repro.tensor.norms import core_based_error  # noqa: E402
from repro.tensor.products import mode_product, multi_mode_product  # noqa: E402
from repro.tensor.unfold import fold, unfold  # noqa: E402


@pytest.fixture
def am():
    return get_module("array-api-strict")


def _pair(shape, seed=0):
    """A host array and its strict-namespace twin."""
    host = np.random.default_rng(seed).standard_normal(shape)
    return host, strict_xp.asarray(host)


class TestDispatch:
    def test_strict_arrays_select_the_strict_module(self, am) -> None:
        _, dev = _pair((3, 4))
        assert array_module_of(dev) is am
        assert not am.is_numpy

    def test_round_trip(self, am) -> None:
        host, dev = _pair((5, 6))
        np.testing.assert_array_equal(am.from_device(dev), host)


class TestLinalgPurity:
    def test_sign_fix(self, am) -> None:
        host, dev = _pair((8, 4), seed=1)
        u_h, _ = sign_fix(host.copy())
        u_d, _ = sign_fix(dev)
        np.testing.assert_allclose(am.from_device(u_d), u_h, atol=1e-12)

    def test_truncated_svd(self, am) -> None:
        host, dev = _pair((12, 9), seed=2)
        u_h, s_h, vt_h = truncated_svd(host, 4)
        u_d, s_d, vt_d = truncated_svd(dev, 4)
        np.testing.assert_allclose(am.from_device(s_d), s_h, atol=1e-10)
        np.testing.assert_allclose(am.from_device(u_d), u_h, atol=1e-9)
        np.testing.assert_allclose(am.from_device(vt_d), vt_h, atol=1e-9)

    def test_leading_left_singular_vectors(self, am) -> None:
        host, dev = _pair((10, 14), seed=3)
        a_h = leading_left_singular_vectors(host, 3)
        a_d = leading_left_singular_vectors(dev, 3)
        np.testing.assert_allclose(am.from_device(a_d), a_h, atol=1e-9)

    def test_robust_svd(self, am) -> None:
        host, dev = _pair((7, 5), seed=4)
        u_h, s_h, vt_h = robust_svd(host)
        u_d, s_d, vt_d = robust_svd(dev)
        np.testing.assert_allclose(am.from_device(s_d), s_h, atol=1e-10)

    def test_batched_rsvd(self, am) -> None:
        host, dev = _pair((3, 16, 12), seed=5)
        sketch_h = np.random.default_rng(99).standard_normal((3, 16, 6))
        u_h, s_h, vt_h = batched_rsvd(host, 4, sketch=sketch_h)
        u_d, s_d, vt_d = batched_rsvd(dev, 4, sketch=strict_xp.asarray(sketch_h))
        np.testing.assert_allclose(am.from_device(s_d), s_h, atol=1e-9)
        np.testing.assert_allclose(am.from_device(u_d), u_h, atol=1e-8)
        np.testing.assert_allclose(am.from_device(vt_d), vt_h, atol=1e-8)

    def test_batched_svd_via_gram(self, am) -> None:
        host, dev = _pair((3, 10, 6), seed=6)
        u_h, s_h, vt_h = batched_svd_via_gram(host, 4)
        u_d, s_d, vt_d = batched_svd_via_gram(dev, 4)
        np.testing.assert_allclose(am.from_device(s_d), s_h, atol=1e-9)
        np.testing.assert_allclose(am.from_device(u_d), u_h, atol=1e-7)
        np.testing.assert_allclose(am.from_device(vt_d), vt_h, atol=1e-7)


class TestTensorPurity:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_unfold_fold_round_trip(self, am, mode) -> None:
        host, dev = _pair((4, 5, 6), seed=7)
        m_h = unfold(host, mode)
        m_d = unfold(dev, mode)
        np.testing.assert_array_equal(am.from_device(m_d), m_h)
        back = fold(m_d, mode, (4, 5, 6))
        np.testing.assert_array_equal(am.from_device(back), host)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_mode_product(self, am, mode) -> None:
        host, dev = _pair((4, 5, 6), seed=8)
        mat = np.random.default_rng(9).standard_normal((3, (4, 5, 6)[mode]))
        want = mode_product(host, mat, mode)
        got = mode_product(dev, strict_xp.asarray(mat), mode)
        np.testing.assert_allclose(am.from_device(got), want, atol=1e-12)

    def test_multi_mode_product(self, am) -> None:
        host, dev = _pair((4, 5, 6), seed=10)
        mats = [
            np.random.default_rng(11 + m).standard_normal((2, d))
            for m, d in enumerate((4, 5, 6))
        ]
        want = multi_mode_product(host, mats)
        got = multi_mode_product(dev, [strict_xp.asarray(m) for m in mats])
        np.testing.assert_allclose(am.from_device(got), want, atol=1e-12)

    def test_core_based_error(self, am) -> None:
        host, dev = _pair((3, 3, 2), seed=12)
        norm_sq = float(np.vdot(host, host)) * 2.0
        want = core_based_error(norm_sq, host)
        got = core_based_error(norm_sq, dev)
        assert got == pytest.approx(want, rel=1e-12)
