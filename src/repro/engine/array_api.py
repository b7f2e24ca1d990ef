"""Pluggable array-namespace facade: one device/namespace abstraction.

Every compute layer (``linalg/``, ``tensor/``, ``kernels/``,
``core/iteration``) dispatches its array operations through an
:class:`ArrayModule` — a thin facade over a concrete array namespace
(NumPy, torch, CuPy, or any array-API-standard namespace such as
``array_api_strict``).  The contract has three parts:

* **One body, bit-identical on NumPy.**  Every compute function has one
  body written against the facade; none keeps a NumPy copy beside it.
  :class:`NumpyModule` methods are *literal* delegations to the NumPy
  calls the library ran before the facade existed (``np.linalg.svd``,
  ``np.einsum(..., optimize=True)``, ``np.dot(a, b, out=out)``, the
  fancy-index gather of :meth:`~ArrayModule.pivot_signs`, …), so a NumPy
  array dispatched through the facade executes the identical BLAS/LAPACK
  kernels and produces bit-identical results — the property the default
  ``device="cpu"`` path is pinned to.
* **Lazy discovery.**  Non-NumPy namespaces are optional extras: nothing
  here imports torch/CuPy at module load.  :func:`probe_namespaces`
  reports what is importable; :func:`resolve_device` materialises a
  module only when a caller actually asks for one and raises
  :class:`~repro.exceptions.BackendError` with an actionable message
  otherwise.
* **Capability adaptation.**  Namespaces differ (torch has no
  ``out=``-einsum, the array-API standard has no ``einsum``/``kron`` and
  forbids negative-step slicing).  The generic :class:`ArrayModule`
  implements the missing pieces from standard building blocks
  (``matmul``/``reshape``/``permute``), so compute code written against
  the facade runs unchanged on every namespace.  The ``caps`` mapping
  records what is native vs. emulated for introspection.

Dispatch is *by input*: :func:`array_module_of` maps array types to
modules (a torch tensor selects the torch module for its device, a CuPy
array the CuPy module, everything else NumPy), so threading a device
through the stack means converting the inputs once (``to_device``) — the
kernels then follow the arrays.

Transfers
---------
``to_device`` / ``from_device`` are the only host↔device crossing points.
They are deliberately explicit so callers can account for them: the
kernels record ``xfer:h2d`` / ``xfer:d2h`` events with bytes moved on
:class:`~repro.kernels.stats.KernelStats`, surfaced per phase on
:class:`~repro.engine.trace.PhaseTrace`.
"""

from __future__ import annotations

import os
from typing import Any, Sequence

import numpy as np

from ..exceptions import BackendError

__all__ = [
    "ArrayModule",
    "NumpyModule",
    "NUMPY",
    "DEVICE_NAMES",
    "ENV_DEVICE",
    "array_module_of",
    "get_module",
    "probe_namespaces",
    "resolve_device",
]

#: Environment variable consulted by ``device="auto"`` resolution.
ENV_DEVICE = "REPRO_DEVICE"

#: Specs accepted by ``device=`` arguments.  ``"cpu"`` is NumPy;
#: ``"cuda"`` picks the first available CUDA namespace (torch, then CuPy);
#: the explicit namespace names exist for tests and CPU-only torch runs.
DEVICE_NAMES: tuple[str, ...] = (
    "auto",
    "cpu",
    "cuda",
    "numpy",
    "torch",
    "torch-cuda",
    "cupy",
    "array-api-strict",
)


def _flat_positions(xp_arange, idx, n_cols: int):
    """Row-major flat positions of ``(idx[j], j)`` pairs in an ``(m, r)`` matrix."""
    return idx * n_cols + xp_arange(n_cols)


class ArrayModule:
    """Facade over one array namespace bound to one device.

    The base class implements the full surface against the array-API
    standard plus generic emulations for the non-standard operations the
    library needs (``einsum``, ``kron``, Fortran-order reshape, flat
    gathers, ``out=`` targets).  Subclasses override with native calls.

    Parameters
    ----------
    name:
        Identifier (``"numpy"``, ``"torch"``, ``"torch-cuda"``, ``"cupy"``,
        ``"array-api-strict"``) — also the ``device=`` spec that selects it.
    xp:
        The namespace module.
    device:
        Physical device label: ``"cpu"`` or ``"cuda"``.
    """

    def __init__(self, name: str, xp: Any, device: str = "cpu") -> None:
        self.name = str(name)
        self.xp = xp
        self.device = str(device)
        #: Native-vs-emulated capability report (introspection only).
        self.caps: dict[str, bool] = {
            "native_einsum": hasattr(xp, "einsum"),
            "native_kron": hasattr(xp, "kron"),
            "native_out": False,
            "order_reshape": False,
            "fancy_index": False,
        }

    # -- identity ----------------------------------------------------------
    @property
    def is_numpy(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayModule({self.name!r}, device={self.device!r})"

    # -- dtype plumbing ----------------------------------------------------
    def dtype(self, spec: Any) -> Any:
        """The namespace dtype object for a NumPy dtype / dtype name."""
        return getattr(self.xp, np.dtype(spec).name)

    def np_dtype(self, arr: Any) -> np.dtype:
        """The NumPy dtype corresponding to ``arr``'s namespace dtype."""
        try:
            return np.dtype(str(arr.dtype))
        except TypeError:
            return np.asarray(self.from_device(arr[..., :0])).dtype

    def finfo_eps(self, arr: Any) -> float:
        return float(self.xp.finfo(arr.dtype).eps)

    def nbytes(self, arr: Any) -> int:
        """Bytes held by ``arr`` (shape × itemsize of the mapped dtype)."""
        n = 1
        for d in arr.shape:
            n *= int(d)
        return n * self.np_dtype(arr).itemsize

    # -- transfers ---------------------------------------------------------
    def to_device(self, arr: Any, dtype: Any = None) -> Any:
        """Move a host (NumPy) array into this namespace/device."""
        host = np.ascontiguousarray(arr)
        return self.xp.asarray(
            host, dtype=self.dtype(dtype if dtype is not None else host.dtype)
        )

    def from_device(self, arr: Any) -> np.ndarray:
        """Move a namespace array back to a host NumPy array (independent copy)."""
        try:
            out = np.from_dlpack(arr)
        except (AttributeError, TypeError, RuntimeError, BufferError):
            out = np.asarray(arr)
        return np.array(out, copy=True)

    def synchronize(self) -> None:
        """Wait for outstanding asynchronous device work (no-op on CPU)."""

    # -- creation ----------------------------------------------------------
    def asarray(self, arr: Any, dtype: Any = None) -> Any:
        if dtype is None:
            return self.xp.asarray(arr)
        return self.xp.asarray(arr, dtype=self.dtype(dtype))

    def empty(self, shape: Sequence[int], dtype: Any = np.float64) -> Any:
        return self.xp.empty(tuple(int(d) for d in shape), dtype=self.dtype(dtype))

    def zeros(self, shape: Sequence[int], dtype: Any = np.float64) -> Any:
        return self.xp.zeros(tuple(int(d) for d in shape), dtype=self.dtype(dtype))

    def eye(self, n: int, dtype: Any = np.float64) -> Any:
        return self.xp.eye(int(n), dtype=self.dtype(dtype))

    def arange(self, n: int) -> Any:
        return self.xp.arange(int(n))

    def standard_normal(self, shape: Sequence[int], dtype: Any, rng) -> Any:
        """Gaussian draw — always from the *host* generator, then uploaded.

        Drawing on the host keeps the sketch identical across namespaces,
        which is what makes a torch fit reproduce the NumPy fit to
        round-off instead of to a different random draw.
        """
        host = rng.standard_normal(tuple(int(d) for d in shape))
        return self.to_device(host.astype(np.dtype(dtype), copy=False))

    # -- shaping -----------------------------------------------------------
    def reshape(self, arr: Any, shape: Sequence[int], order: str = "C") -> Any:
        shape = tuple(int(d) for d in shape)
        if order == "C":
            return self.xp.reshape(arr, shape)
        # Fortran-order reshape from C-order primitives:
        # ravel_F(x) == ravel_C(x.T), so reshape_F(x, s) == reshape_C(x.T, s[::-1]).T
        rev = tuple(range(arr.ndim - 1, -1, -1))
        flipped = self.xp.permute_dims(arr, rev)
        # Resolve a single -1 entry against the total size.
        if -1 in shape:
            total = 1
            for d in arr.shape:
                total *= int(d)
            known = 1
            for d in shape:
                if d != -1:
                    known *= d
            shape = tuple(total // known if d == -1 else d for d in shape)
        out = self.xp.reshape(flipped, tuple(reversed(shape)))
        return self.xp.permute_dims(out, tuple(range(len(shape) - 1, -1, -1)))

    def moveaxis(self, arr: Any, src: int, dst: int) -> Any:
        perm = list(range(arr.ndim))
        perm.insert(dst, perm.pop(src))
        return self.xp.permute_dims(arr, tuple(perm))

    def swapaxes(self, arr: Any, a: int, b: int) -> Any:
        perm = list(range(arr.ndim))
        perm[a], perm[b] = perm[b], perm[a]
        return self.xp.permute_dims(arr, tuple(perm))

    def mT(self, arr: Any) -> Any:
        """Transpose the trailing two axes (matrix transpose, batch-safe)."""
        return self.swapaxes(arr, -1, -2)

    def concatenate(self, arrays: Sequence[Any], axis: int = 0, out: Any = None) -> Any:
        res = self.xp.concat(tuple(arrays), axis=axis)
        if out is None:
            return res
        out[...] = res
        return out

    def stack(self, arrays: Sequence[Any], axis: int = 0) -> Any:
        return self.xp.stack(tuple(arrays), axis=axis)

    def ascontiguousarray(self, arr: Any) -> Any:
        return arr

    def flip(self, arr: Any, axis: int) -> Any:
        return self.xp.flip(arr, axis=axis)

    def diagonal(self, arr: Any) -> Any:
        """Main diagonal of a 2-D matrix."""
        m = min(int(arr.shape[0]), int(arr.shape[1]))
        idx = self.arange(m)
        return self.take_flat(arr, idx * int(arr.shape[1]) + idx)

    def take_flat(self, arr: Any, flat_idx: Any) -> Any:
        """Gather ``arr.ravel()[flat_idx]`` (row-major flattening)."""
        return self.xp.take(self.xp.reshape(arr, (-1,)), flat_idx)

    def pivot_signs(self, u: Any) -> Any:
        """Sign of each column's largest-magnitude entry, zeros mapped to +1.

        ``u`` is a matrix ``(m, r)`` or a stack ``(L, m, r)``; the result
        has shape ``(r,)`` / ``(L, r)``.  Emulated here with one flat gather
        over the row-major flattening.
        """
        shape = [int(d) for d in u.shape]
        m, r = shape[-2:]
        batch = 1
        for d in shape[:-2]:
            batch *= d
        idx = self.xp.reshape(self.argmax(self.abs(u), axis=-2), (batch, r))
        pos = (self.arange(batch)[:, None] * m + idx) * r + self.arange(r)[None, :]
        vals = self.take_flat(u, self.xp.reshape(pos, (-1,)))
        return self.sign_nonzero(self.xp.reshape(vals, tuple(shape[:-2]) + (r,)))

    # -- elementwise / reductions ------------------------------------------
    def abs(self, arr: Any) -> Any:
        return self.xp.abs(arr)

    def sign(self, arr: Any) -> Any:
        return self.xp.sign(arr)

    def sign_nonzero(self, arr: Any) -> Any:
        """``sign(arr)`` with zeros mapped to +1 (a deterministic sign flip)."""
        signs = self.sign(arr)
        one = self.asarray(1.0, dtype=self.np_dtype(arr))
        return self.where(signs == 0, one, signs)

    def sqrt(self, arr: Any) -> Any:
        return self.xp.sqrt(arr)

    def maximum(self, a: Any, b: Any) -> Any:
        return self.xp.maximum(self.asarray(a), self.asarray(b))

    def clip_min(self, arr: Any, lo: float) -> Any:
        return self.xp.maximum(arr, self.xp.asarray(lo, dtype=arr.dtype))

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        return self.xp.where(cond, a, b)

    def argmax(self, arr: Any, axis: int) -> Any:
        return self.xp.argmax(arr, axis=axis)

    def all_finite(self, arr: Any) -> bool:
        return bool(self.xp.all(self.xp.isfinite(arr)))

    def array_equal(self, a: Any, b: Any) -> bool:
        if tuple(a.shape) != tuple(b.shape):
            return False
        return bool(self.xp.all(a == b))

    def sum_float64(self, arr: Any) -> float:
        """Sum every element, accumulating in the namespace's float64."""
        return float(self.xp.sum(self.astype(arr, np.float64)))

    def astype(self, arr: Any, dtype: Any) -> Any:
        return self.xp.astype(arr, self.dtype(dtype))

    def vector_norm(self, arr: Any) -> float:
        """Euclidean norm of a flattened array."""
        flat = self.astype(self.xp.reshape(arr, (-1,)), np.float64)
        return float(self.xp.sqrt(self.xp.sum(flat * flat)))

    def vdot_float64(self, arr: Any) -> float:
        """``ravel(x) @ ravel(x)`` with float64 accumulation."""
        flat = self.astype(self.xp.reshape(arr, (-1,)), np.float64)
        return float(self.xp.sum(flat * flat))

    # -- linear algebra ----------------------------------------------------
    def matmul(self, a: Any, b: Any) -> Any:
        return self.xp.matmul(a, b)

    def gemm_into(self, a: Any, b: Any, out: Any) -> Any:
        out[...] = self.xp.matmul(a, b)
        return out

    def tensordot(self, a: Any, b: Any, axes) -> Any:
        return self.xp.tensordot(a, b, axes=axes)

    def svd(self, a: Any, full_matrices: bool = False):
        res = self.xp.linalg.svd(a, full_matrices=full_matrices)
        # The array-API returns a (U, S, Vh) namedtuple; normalise to a tuple.
        return res[0], res[1], res[2]

    def qr(self, a: Any):
        res = self.xp.linalg.qr(a)
        return res[0], res[1]

    def eigh(self, a: Any):
        res = self.xp.linalg.eigh(a)
        return res[0], res[1]

    def cholesky(self, a: Any) -> Any:
        return self.xp.linalg.cholesky(a)

    def solve(self, a: Any, b: Any) -> Any:
        return self.xp.linalg.solve(a, b)

    def pinv(self, a: Any) -> Any:
        return self.xp.linalg.pinv(a)

    def kron(self, a: Any, b: Any) -> Any:
        if self.caps["native_kron"]:
            return self.xp.kron(a, b)
        (m, n), (p, q) = a.shape, b.shape
        out = a[:, None, :, None] * b[None, :, None, :]
        return self.xp.reshape(out, (int(m) * int(p), int(n) * int(q)))

    # -- einsum ------------------------------------------------------------
    def einsum(self, subscripts: str, *operands: Any, out: Any = None) -> Any:
        if self.caps["native_einsum"]:
            res = self.xp.einsum(subscripts, *operands)
        else:
            res = _emulated_einsum(self, subscripts, *operands)
        if out is None:
            return res
        out[...] = res
        return out

    def einsum_float64(self, subscripts: str, *operands: Any) -> Any:
        """Einsum with inputs upcast to float64 (norm accumulation)."""
        ops = [self.astype(op, np.float64) for op in operands]
        return self.einsum(subscripts, *ops)


class NumpyModule(ArrayModule):
    """The default module: literal NumPy delegations (bit-identity anchor).

    Every method body is exactly the NumPy expression the library ran
    before the facade existed, so routing NumPy arrays through the one
    facade body of each compute function executes identical kernels —
    nothing about the default path changes, to the last bit.
    """

    def __init__(self) -> None:
        super().__init__("numpy", np, "cpu")
        self.caps.update(
            native_einsum=True, native_kron=True, native_out=True,
            order_reshape=True, fancy_index=True,
        )

    @property
    def is_numpy(self) -> bool:
        return True

    # -- dtype/transfers: all no-ops on the host ---------------------------
    def dtype(self, spec: Any) -> np.dtype:
        return np.dtype(spec)

    def np_dtype(self, arr: Any) -> np.dtype:
        return arr.dtype

    def nbytes(self, arr: Any) -> int:
        return int(arr.nbytes)

    def to_device(self, arr: Any, dtype: Any = None) -> np.ndarray:
        if dtype is None:
            return np.asarray(arr)
        return np.asarray(arr, dtype=dtype)

    def from_device(self, arr: Any) -> np.ndarray:
        return np.asarray(arr)

    def asarray(self, arr: Any, dtype: Any = None) -> np.ndarray:
        if dtype is None:
            return np.asarray(arr)
        return np.asarray(arr, dtype=dtype)

    def standard_normal(self, shape: Sequence[int], dtype: Any, rng) -> np.ndarray:
        return rng.standard_normal(tuple(int(d) for d in shape)).astype(
            np.dtype(dtype), copy=False
        )

    # -- creation / shaping ------------------------------------------------
    def empty(self, shape: Sequence[int], dtype: Any = np.float64) -> np.ndarray:
        return np.empty(tuple(int(d) for d in shape), dtype=dtype)

    def zeros(self, shape: Sequence[int], dtype: Any = np.float64) -> np.ndarray:
        return np.zeros(tuple(int(d) for d in shape), dtype=dtype)

    def eye(self, n: int, dtype: Any = np.float64) -> np.ndarray:
        return np.eye(int(n), dtype=dtype)

    def arange(self, n: int) -> np.ndarray:
        return np.arange(int(n))

    def reshape(self, arr: Any, shape: Sequence[int], order: str = "C") -> np.ndarray:
        return np.reshape(arr, tuple(int(d) for d in shape), order=order)

    def moveaxis(self, arr: Any, src: int, dst: int) -> np.ndarray:
        return np.moveaxis(arr, src, dst)

    def swapaxes(self, arr: Any, a: int, b: int) -> np.ndarray:
        return np.swapaxes(arr, a, b)

    def mT(self, arr: Any) -> np.ndarray:
        return arr.swapaxes(-1, -2)

    def concatenate(self, arrays: Sequence[Any], axis: int = 0, out: Any = None) -> np.ndarray:
        if out is None:
            return np.concatenate(arrays, axis=axis)
        return np.concatenate(arrays, axis=axis, out=out)

    def stack(self, arrays: Sequence[Any], axis: int = 0) -> np.ndarray:
        return np.stack(arrays, axis=axis)

    def ascontiguousarray(self, arr: Any) -> np.ndarray:
        return np.ascontiguousarray(arr)

    def flip(self, arr: Any, axis: int) -> np.ndarray:
        # The reversed-slice view (``w[:, ::-1]``) without np.flip's axis
        # normalisation, which costs more than the view on small factors.
        return arr[(slice(None),) * (axis % arr.ndim) + (slice(None, None, -1),)]

    def diagonal(self, arr: Any) -> np.ndarray:
        return np.diagonal(arr)

    def take_flat(self, arr: Any, flat_idx: Any) -> np.ndarray:
        return np.take(arr, flat_idx)

    def pivot_signs(self, u: Any) -> np.ndarray:
        idx = np.argmax(np.abs(u), axis=-2)
        cols = np.arange(u.shape[-1])
        if u.ndim == 2:
            return self.sign_nonzero(u[idx, cols])
        return self.sign_nonzero(u[np.arange(u.shape[0])[:, None], idx, cols[None, :]])

    # -- elementwise / reductions ------------------------------------------
    def sign_nonzero(self, arr: Any) -> np.ndarray:
        signs = np.sign(arr)
        signs[signs == 0] = 1.0
        return signs

    def maximum(self, a: Any, b: Any) -> np.ndarray:
        return np.maximum(a, b)

    def clip_min(self, arr: Any, lo: float) -> np.ndarray:
        return np.clip(arr, lo, None)

    def argmax(self, arr: Any, axis: int) -> np.ndarray:
        return np.argmax(arr, axis=axis)

    def all_finite(self, arr: Any) -> bool:
        return bool(np.isfinite(arr).all())

    def array_equal(self, a: Any, b: Any) -> bool:
        return bool(np.array_equal(a, b))

    def astype(self, arr: Any, dtype: Any) -> np.ndarray:
        return np.asarray(arr, dtype=dtype)

    def vector_norm(self, arr: Any) -> float:
        return float(np.linalg.norm(np.ravel(arr)))

    def vdot_float64(self, arr: Any) -> float:
        flat = np.ravel(arr)
        if flat.dtype == np.float64:
            return float(flat @ flat)
        return float(np.einsum("i,i->", flat, flat, dtype=np.float64))

    def sum_float64(self, arr: Any) -> float:
        return float(np.sum(arr, dtype=np.float64))

    # -- linear algebra ----------------------------------------------------
    def matmul(self, a: Any, b: Any) -> np.ndarray:
        return np.matmul(a, b)

    def gemm_into(self, a: Any, b: Any, out: Any) -> np.ndarray:
        return np.dot(a, b, out=out)

    def tensordot(self, a: Any, b: Any, axes) -> np.ndarray:
        return np.tensordot(a, b, axes=axes)

    def svd(self, a: Any, full_matrices: bool = False):
        return np.linalg.svd(a, full_matrices=full_matrices)

    def qr(self, a: Any):
        return np.linalg.qr(a)

    def eigh(self, a: Any):
        return np.linalg.eigh(a)

    def cholesky(self, a: Any) -> np.ndarray:
        return np.linalg.cholesky(a)

    def solve(self, a: Any, b: Any) -> np.ndarray:
        return np.linalg.solve(a, b)

    def pinv(self, a: Any) -> np.ndarray:
        return np.linalg.pinv(a)

    def kron(self, a: Any, b: Any) -> np.ndarray:
        return np.kron(a, b)

    def einsum(self, subscripts: str, *operands: Any, out: Any = None) -> np.ndarray:
        if out is None:
            return np.einsum(subscripts, *operands, optimize=True)
        return np.einsum(subscripts, *operands, optimize=True, out=out)

    def einsum_float64(self, subscripts: str, *operands: Any) -> np.ndarray:
        return np.einsum(subscripts, *operands, optimize=True, dtype=np.float64)


class TorchModule(ArrayModule):
    """torch namespace bound to one device (``"cpu"`` or ``"cuda"``)."""

    def __init__(self, torch: Any, device: str = "cpu") -> None:
        name = "torch" if device == "cpu" else "torch-cuda"
        super().__init__(name, torch, device)
        self.caps.update(native_einsum=True, native_kron=True, fancy_index=True)
        self._dtype_map = {
            np.dtype(np.float32): torch.float32,
            np.dtype(np.float64): torch.float64,
            np.dtype(np.int64): torch.int64,
            np.dtype(np.int32): torch.int32,
        }
        self._np_map = {v: k for k, v in self._dtype_map.items()}

    def dtype(self, spec: Any) -> Any:
        return self._dtype_map[np.dtype(spec)]

    def np_dtype(self, arr: Any) -> np.dtype:
        return self._np_map[arr.dtype]

    def nbytes(self, arr: Any) -> int:
        return int(arr.element_size() * arr.nelement())

    def to_device(self, arr: Any, dtype: Any = None) -> Any:
        host = np.ascontiguousarray(arr)
        t = self.xp.as_tensor(host, device=self.device)
        if dtype is not None:
            t = t.to(self.dtype(dtype))
        # ``as_tensor`` aliases host memory on CPU; clone so device arrays
        # never share mutable storage with the caller's NumPy buffers.
        return t.clone() if self.device == "cpu" else t

    def from_device(self, arr: Any) -> np.ndarray:
        return np.array(arr.detach().cpu().numpy(), copy=True)

    def synchronize(self) -> None:
        if self.device == "cuda":  # pragma: no cover - requires a GPU
            self.xp.cuda.synchronize()

    def asarray(self, arr: Any, dtype: Any = None) -> Any:
        t = self.xp.as_tensor(arr, device=self.device)
        return t if dtype is None else t.to(self.dtype(dtype))

    def empty(self, shape: Sequence[int], dtype: Any = np.float64) -> Any:
        return self.xp.empty(
            tuple(int(d) for d in shape), dtype=self.dtype(dtype), device=self.device
        )

    def zeros(self, shape: Sequence[int], dtype: Any = np.float64) -> Any:
        return self.xp.zeros(
            tuple(int(d) for d in shape), dtype=self.dtype(dtype), device=self.device
        )

    def eye(self, n: int, dtype: Any = np.float64) -> Any:
        return self.xp.eye(int(n), dtype=self.dtype(dtype), device=self.device)

    def arange(self, n: int) -> Any:
        return self.xp.arange(int(n), device=self.device)

    def reshape(self, arr: Any, shape: Sequence[int], order: str = "C") -> Any:
        shape = tuple(int(d) for d in shape)
        if order == "C":
            return arr.reshape(shape)
        rev = arr.permute(tuple(range(arr.ndim - 1, -1, -1)))
        if -1 in shape:
            total = arr.nelement()
            known = 1
            for d in shape:
                if d != -1:
                    known *= d
            shape = tuple(total // known if d == -1 else d for d in shape)
        return rev.reshape(tuple(reversed(shape))).permute(
            tuple(range(len(shape) - 1, -1, -1))
        )

    def moveaxis(self, arr: Any, src: int, dst: int) -> Any:
        return self.xp.movedim(arr, src, dst)

    def swapaxes(self, arr: Any, a: int, b: int) -> Any:
        return self.xp.transpose(arr, a, b)

    def concatenate(self, arrays: Sequence[Any], axis: int = 0, out: Any = None) -> Any:
        if out is None:
            return self.xp.cat(tuple(arrays), dim=axis)
        return self.xp.cat(tuple(arrays), dim=axis, out=out)

    def stack(self, arrays: Sequence[Any], axis: int = 0) -> Any:
        return self.xp.stack(tuple(arrays), dim=axis)

    def ascontiguousarray(self, arr: Any) -> Any:
        return arr.contiguous()

    def flip(self, arr: Any, axis: int) -> Any:
        return self.xp.flip(arr, dims=(axis,))

    def diagonal(self, arr: Any) -> Any:
        return self.xp.diagonal(arr)

    def take_flat(self, arr: Any, flat_idx: Any) -> Any:
        return self.xp.take(arr, flat_idx)

    def clip_min(self, arr: Any, lo: float) -> Any:
        return self.xp.clamp(arr, min=lo)

    def argmax(self, arr: Any, axis: int) -> Any:
        return self.xp.argmax(arr, dim=axis)

    def all_finite(self, arr: Any) -> bool:
        return bool(self.xp.isfinite(arr).all())

    def array_equal(self, a: Any, b: Any) -> bool:
        return bool(self.xp.equal(a, b))

    def astype(self, arr: Any, dtype: Any) -> Any:
        return arr.to(self.dtype(dtype))

    def sum_float64(self, arr: Any) -> float:
        return float(self.xp.sum(arr.to(self.xp.float64)))

    def vector_norm(self, arr: Any) -> float:
        return float(self.xp.linalg.vector_norm(arr.reshape(-1).to(self.xp.float64)))

    def vdot_float64(self, arr: Any) -> float:
        flat = arr.reshape(-1).to(self.xp.float64)
        return float(flat @ flat)

    def tensordot(self, a: Any, b: Any, axes) -> Any:
        return self.xp.tensordot(a, b, dims=axes)

    def svd(self, a: Any, full_matrices: bool = False):
        u, s, vh = self.xp.linalg.svd(a, full_matrices=full_matrices)
        return u, s, vh

    def einsum(self, subscripts: str, *operands: Any, out: Any = None) -> Any:
        res = self.xp.einsum(subscripts, *operands)
        if out is None:
            return res
        out.copy_(res)
        return out

    def einsum_float64(self, subscripts: str, *operands: Any) -> Any:
        ops = [op.to(self.xp.float64) for op in operands]
        return self.xp.einsum(subscripts, *ops)


class CupyModule(ArrayModule):
    """CuPy namespace (always CUDA).  NumPy-compatible API surface."""

    def __init__(self, cupy: Any) -> None:  # pragma: no cover - requires a GPU
        super().__init__("cupy", cupy, "cuda")
        self.caps.update(
            native_einsum=True, native_kron=True, native_out=True,
            order_reshape=True, fancy_index=True,
        )

    # CuPy mirrors the NumPy API, so the generic base-class paths that
    # assume the array-API standard are replaced with NumPy-style calls.
    def dtype(self, spec: Any) -> np.dtype:  # pragma: no cover - requires a GPU
        return np.dtype(spec)

    def np_dtype(self, arr: Any) -> np.dtype:  # pragma: no cover
        return np.dtype(arr.dtype)

    def to_device(self, arr: Any, dtype: Any = None) -> Any:  # pragma: no cover
        host = np.ascontiguousarray(arr)
        return self.xp.asarray(host if dtype is None else host.astype(dtype, copy=False))

    def from_device(self, arr: Any) -> np.ndarray:  # pragma: no cover
        return self.xp.asnumpy(arr)

    def synchronize(self) -> None:  # pragma: no cover
        self.xp.cuda.get_current_stream().synchronize()

    def reshape(self, arr: Any, shape: Sequence[int], order: str = "C") -> Any:  # pragma: no cover
        return self.xp.reshape(arr, tuple(int(d) for d in shape), order=order)

    def moveaxis(self, arr: Any, src: int, dst: int) -> Any:  # pragma: no cover
        return self.xp.moveaxis(arr, src, dst)

    def swapaxes(self, arr: Any, a: int, b: int) -> Any:  # pragma: no cover
        return self.xp.swapaxes(arr, a, b)

    def concatenate(self, arrays: Sequence[Any], axis: int = 0, out: Any = None) -> Any:  # pragma: no cover
        if out is None:
            return self.xp.concatenate(arrays, axis=axis)
        return self.xp.concatenate(arrays, axis=axis, out=out)

    def flip(self, arr: Any, axis: int) -> Any:  # pragma: no cover
        return self.xp.flip(arr, axis=axis)

    def diagonal(self, arr: Any) -> Any:  # pragma: no cover
        return self.xp.diagonal(arr)

    def take_flat(self, arr: Any, flat_idx: Any) -> Any:  # pragma: no cover
        return self.xp.take(arr, flat_idx)

    def clip_min(self, arr: Any, lo: float) -> Any:  # pragma: no cover
        return self.xp.clip(arr, lo, None)

    def astype(self, arr: Any, dtype: Any) -> Any:  # pragma: no cover
        return arr.astype(dtype, copy=False)

    def gemm_into(self, a: Any, b: Any, out: Any) -> Any:  # pragma: no cover
        return self.xp.dot(a, b, out=out)

    def einsum(self, subscripts: str, *operands: Any, out: Any = None) -> Any:  # pragma: no cover
        if out is None:
            return self.xp.einsum(subscripts, *operands)
        return self.xp.einsum(subscripts, *operands, out=out)


# -- generic einsum ----------------------------------------------------------

def _emulated_einsum(am: ArrayModule, subscripts: str, *operands: Any) -> Any:
    """Einsum from matmul/permute/reshape for namespaces without a native one.

    Supports the explicit form ``"ab,bc,...->ac"`` with distinct letters per
    operand and no ellipsis — the closed set of expressions this library
    uses.  Operands are contracted pairwise left to right; at each step the
    indices no longer needed (absent from the output and every remaining
    operand) are contracted away through one batched matmul.
    """
    if "->" not in subscripts or "." in subscripts:
        raise BackendError(
            f"generic einsum supports explicit subscripts only, got {subscripts!r}"
        )
    lhs, out_sub = subscripts.replace(" ", "").split("->")
    subs = lhs.split(",")
    if len(subs) != len(operands):
        raise BackendError(
            f"einsum got {len(operands)} operands for {len(subs)} subscripts"
        )
    for s in subs:
        if len(set(s)) != len(s):
            raise BackendError(
                f"generic einsum requires distinct letters per operand, got {s!r}"
            )

    def dim_of(sub: str, arr: Any, letter: str) -> int:
        return int(arr.shape[sub.index(letter)])

    def sum_away(sub: str, arr: Any, keep: set) -> tuple[str, Any]:
        """Sum out letters of ``arr`` not needed downstream."""
        drop = [c for c in sub if c not in keep]
        for c in drop:
            axis = sub.index(c)
            arr = am.xp.sum(arr, axis=axis)
            sub = sub[:axis] + sub[axis + 1:]
        return sub, arr

    def permute_to(sub: str, arr: Any, target: str) -> Any:
        perm = tuple(sub.index(c) for c in target)
        if perm == tuple(range(len(sub))):
            return arr
        return am.xp.permute_dims(arr, perm)

    cur_sub, cur = subs[0], operands[0]
    for i in range(1, len(subs)):
        nxt_sub, nxt = subs[i], operands[i]
        later = set("".join(subs[i + 1:])) | set(out_sub)
        keep_cur = later | set(nxt_sub)
        cur_sub, cur = sum_away(cur_sub, cur, keep_cur)
        keep_nxt = later | set(cur_sub)
        nxt_sub, nxt = sum_away(nxt_sub, nxt, keep_nxt)
        shared = [c for c in cur_sub if c in nxt_sub]
        batch = [c for c in shared if c in later]
        contract = [c for c in shared if c not in later]
        a_only = [c for c in cur_sub if c not in shared]
        b_only = [c for c in nxt_sub if c not in shared]
        a = permute_to(cur_sub, cur, "".join(batch + a_only + contract))
        b = permute_to(nxt_sub, nxt, "".join(batch + contract + b_only))
        bdim = [dim_of(cur_sub, cur, c) for c in batch]
        m = 1
        for c in a_only:
            m *= dim_of(cur_sub, cur, c)
        k = 1
        for c in contract:
            k *= dim_of(cur_sub, cur, c)
        n = 1
        for c in b_only:
            n *= dim_of(nxt_sub, nxt, c)
        bprod = 1
        for d in bdim:
            bprod *= d
        a2 = am.xp.reshape(a, (bprod, m, k))
        b2 = am.xp.reshape(b, (bprod, k, n))
        res = am.xp.matmul(a2, b2)
        new_sub = "".join(batch + a_only + b_only)
        new_shape = tuple(
            bdim
            + [dim_of(cur_sub, cur, c) for c in a_only]
            + [dim_of(nxt_sub, nxt, c) for c in b_only]
        )
        cur = am.xp.reshape(res, new_shape if new_shape else ())
        cur_sub = new_sub
    cur_sub, cur = sum_away(cur_sub, cur, set(out_sub))
    return permute_to(cur_sub, cur, out_sub)


# -- discovery / resolution --------------------------------------------------

#: The process-wide NumPy module (the default everything dispatches to).
NUMPY = NumpyModule()

_MODULES: dict[str, ArrayModule] = {"numpy": NUMPY, "cpu": NUMPY}
_PROBED: dict[str, bool] | None = None


def _importable(name: str) -> bool:
    import importlib.util

    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # pragma: no cover - defensive
        return False


def probe_namespaces(*, refresh: bool = False) -> dict[str, bool]:
    """Which optional namespaces are importable (no imports are performed
    beyond a spec lookup; results are cached per process)."""
    global _PROBED
    if _PROBED is None or refresh:
        _PROBED = {
            "numpy": True,
            "torch": _importable("torch"),
            "cupy": _importable("cupy"),
            "array_api_strict": _importable("array_api_strict"),
        }
    return dict(_PROBED)


def _torch_module(device: str) -> ArrayModule:
    try:
        import torch  # type: ignore[import-not-found]
    except ImportError as exc:
        raise BackendError(
            "device requires torch, which is not installed; install torch or "
            "use device='cpu'"
        ) from exc
    if device == "cuda" and not torch.cuda.is_available():  # pragma: no cover
        raise BackendError(
            "device='torch-cuda' requested but torch reports no CUDA device; "
            "use device='torch' for CPU torch or device='cpu' for NumPy"
        )
    return TorchModule(torch, device)


def _cupy_module() -> ArrayModule:  # pragma: no cover - requires a GPU
    try:
        import cupy  # type: ignore[import-not-found]
    except ImportError as exc:
        raise BackendError(
            "device='cupy' requires CuPy, which is not installed"
        ) from exc
    return CupyModule(cupy)


def _strict_module() -> ArrayModule:
    try:
        import array_api_strict  # type: ignore[import-not-found]
    except ImportError as exc:
        raise BackendError(
            "device='array-api-strict' requires the array-api-strict package"
        ) from exc
    return ArrayModule("array-api-strict", array_api_strict, "cpu")


def get_module(name: str) -> ArrayModule:
    """The :class:`ArrayModule` for an explicit namespace name (cached)."""
    key = str(name).lower().replace("_", "-")
    mod = _MODULES.get(key)
    if mod is not None:
        return mod
    if key == "torch":
        mod = _torch_module("cpu")
    elif key == "torch-cuda":
        mod = _torch_module("cuda")
    elif key == "cupy":
        mod = _cupy_module()  # pragma: no cover - requires a GPU
    elif key == "array-api-strict":
        mod = _strict_module()
    else:
        raise BackendError(
            f"unknown device {name!r}; choose from {', '.join(DEVICE_NAMES)}"
        )
    _MODULES[key] = mod
    return mod


def resolve_device(
    spec: "str | ArrayModule | None" = None, *, config=None
) -> ArrayModule:
    """Resolve a device spec into a live :class:`ArrayModule`.

    ``None``/``"auto"`` falls back to ``config.device`` (when given), then
    the ``REPRO_DEVICE`` environment variable, then ``"cpu"``.  ``"cpu"``
    is NumPy.  ``"cuda"`` picks the first importable CUDA namespace —
    torch with a visible GPU, else CuPy — and raises
    :class:`~repro.exceptions.BackendError` when neither is available.
    Explicit namespace names (``"torch"``, ``"torch-cuda"``, ``"cupy"``,
    ``"array-api-strict"``) select exactly that namespace.
    """
    if isinstance(spec, ArrayModule):
        return spec
    name = spec
    if name is None or name == "auto":
        name = getattr(config, "device", None) if config is not None else None
        if name is None or name == "auto":
            name = os.environ.get(ENV_DEVICE, "").lower() or "cpu"
    name = str(name).lower().replace("_", "-")
    if name == "auto":
        name = "cpu"
    if name == "cuda":
        probed = probe_namespaces()
        errors = []
        if probed["torch"]:  # pragma: no cover - requires a GPU
            try:
                return get_module("torch-cuda")
            except BackendError as exc:
                errors.append(str(exc))
        if probed["cupy"]:  # pragma: no cover - requires a GPU
            try:
                return get_module("cupy")
            except BackendError as exc:
                errors.append(str(exc))
        raise BackendError(
            "device='cuda' requested but no CUDA namespace is available "
            "(install torch with CUDA or CuPy)"
            + (": " + "; ".join(errors) if errors else "")
        )
    return get_module(name)


# -- dispatch by input -------------------------------------------------------

_TYPE_CACHE: dict[type, ArrayModule | None] = {}


def _module_for_type(tp: type) -> ArrayModule | None:
    """The non-NumPy module owning arrays of type ``tp`` (``None`` = NumPy)."""
    root = tp.__module__.partition(".")[0]
    if root == "torch":
        import torch

        return None if not issubclass(tp, torch.Tensor) else _MODULES.get("torch")
    if root == "cupy":  # pragma: no cover - requires a GPU
        return _MODULES.get("cupy")
    if root == "array_api_strict":
        return get_module("array-api-strict")
    return None


def array_module_of(*arrays: Any) -> ArrayModule:
    """The :class:`ArrayModule` owning the given arrays (NumPy by default).

    Dispatch is by array type: a torch tensor selects the torch module
    bound to the tensor's device, a CuPy array the CuPy module, an
    array-API-strict array the strict module; NumPy arrays, scalars,
    lists, and everything else select :data:`NUMPY`.  Mixing namespaces in
    one call selects the first non-NumPy one (device arrays dominate).
    """
    for arr in arrays:
        tp = type(arr)
        if tp is np.ndarray:
            continue
        cached = _TYPE_CACHE.get(tp)
        if cached is None and tp not in _TYPE_CACHE:
            root = tp.__module__.partition(".")[0]
            if root == "torch":
                dev = getattr(getattr(arr, "device", None), "type", "cpu")
                cached = get_module("torch" if dev == "cpu" else "torch-cuda")
                _TYPE_CACHE[tp] = cached
                return cached
            if root == "cupy":  # pragma: no cover - requires a GPU
                cached = get_module("cupy")
            elif root == "array_api_strict":
                cached = get_module("array-api-strict")
            else:
                cached = None
            _TYPE_CACHE[tp] = cached
        if cached is not None:
            if cached.name.startswith("torch"):
                dev = getattr(getattr(arr, "device", None), "type", "cpu")
                return get_module("torch" if dev == "cpu" else "torch-cuda")
            return cached
    return NUMPY
