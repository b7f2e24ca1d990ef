"""Argument validation helpers shared by every public entry point.

These functions normalise user input (lists to tuples, integer-likes to
``int``), check it, and raise exceptions from :mod:`repro.exceptions` with
messages that name the offending argument.  They are deliberately small and
composable; public functions call them in their first few lines so that all
error paths are exercised before any expensive work starts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import RankError, ShapeError

__all__ = [
    "as_tensor",
    "check_mode",
    "check_ranks",
    "check_positive_int",
    "check_probability",
    "check_matrix",
    "check_same_length",
]


def as_tensor(x: np.ndarray, *, min_order: int = 1, name: str = "tensor") -> np.ndarray:
    """Coerce ``x`` to a floating-point ``ndarray`` and validate its order.

    Parameters
    ----------
    x:
        Array-like input.  Integer arrays are promoted to ``float64``;
        ``float32`` is preserved to let callers trade precision for memory.
    min_order:
        Minimum number of dimensions required.
    name:
        Argument name used in error messages.

    Returns
    -------
    numpy.ndarray
        A C-contiguous floating point array (a view when possible).

    Raises
    ------
    ShapeError
        If the input has fewer than ``min_order`` dimensions, a zero-length
        mode, or contains non-finite values.

    Notes
    -----
    Arrays owned by a non-NumPy namespace (torch / CuPy / array-API) are
    validated through their :class:`~repro.engine.array_api.ArrayModule`
    and returned *in place* — they are never pulled back to the host, so
    device-resident pipelines keep their residency through validation.
    """
    if type(x) is not np.ndarray and (
        hasattr(x, "__array_namespace__")
        or type(x).__module__.partition(".")[0] in ("torch", "cupy")
    ):
        from .engine.array_api import array_module_of

        am = array_module_of(x)
        # Kept fork: boundary check; lists and scalars take the NumPy route below.
        if not am.is_numpy:
            return _as_foreign_tensor(am, x, min_order=min_order, name=name)
    arr = np.asarray(x)
    if arr.dtype.kind not in "fiu":
        raise ShapeError(f"{name} must be numeric, got dtype {arr.dtype!r}")
    if arr.dtype.kind in "iu":
        arr = arr.astype(np.float64)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim < min_order:
        raise ShapeError(
            f"{name} must have at least {min_order} mode(s), got shape {arr.shape}"
        )
    if any(s == 0 for s in arr.shape):
        raise ShapeError(f"{name} has an empty mode: shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ShapeError(f"{name} contains non-finite values (NaN or Inf)")
    return arr


def _as_foreign_tensor(am, x, *, min_order: int, name: str):
    """Validate a non-NumPy array via its namespace facade (no host copy)."""
    dt = am.np_dtype(x)
    if dt.kind not in "fiu":
        raise ShapeError(f"{name} must be numeric, got dtype {dt!r}")
    if dt.kind in "iu" or dt not in (np.float32, np.float64):
        x = am.astype(x, np.float64)
    if x.ndim < min_order:
        raise ShapeError(
            f"{name} must have at least {min_order} mode(s), got shape "
            f"{tuple(x.shape)}"
        )
    if any(int(s) == 0 for s in x.shape):
        raise ShapeError(f"{name} has an empty mode: shape {tuple(x.shape)}")
    if not am.all_finite(x):
        raise ShapeError(f"{name} contains non-finite values (NaN or Inf)")
    return x


def check_mode(mode: int, order: int, *, name: str = "mode") -> int:
    """Validate a mode index against a tensor order, supporting no negatives.

    Parameters
    ----------
    mode:
        Zero-based mode index.
    order:
        Number of modes of the tensor being indexed.

    Returns
    -------
    int
        The validated mode as a plain ``int``.
    """
    m = int(mode)
    if m != mode:
        raise ShapeError(f"{name} must be an integer, got {mode!r}")
    if not 0 <= m < order:
        raise ShapeError(f"{name}={m} out of range for an order-{order} tensor")
    return m


def check_ranks(
    ranks: int | Sequence[int], shape: Sequence[int], *, name: str = "ranks"
) -> tuple[int, ...]:
    """Validate per-mode Tucker ranks against a tensor shape.

    A single integer is broadcast to every mode (clipped to each mode's
    dimensionality is *not* done silently — an oversized rank raises).

    Parameters
    ----------
    ranks:
        One rank per mode, or one integer for all modes.
    shape:
        Shape of the tensor to be decomposed.

    Returns
    -------
    tuple of int
        Ranks, one per mode.

    Raises
    ------
    RankError
        If a rank is not a positive integer or exceeds its mode.
    """
    order = len(shape)
    if np.isscalar(ranks):
        seq = [ranks] * order
    else:
        seq = list(ranks)  # type: ignore[arg-type]
        if len(seq) != order:
            raise RankError(
                f"{name} must have one entry per mode ({order}), got {len(seq)}"
            )
    out = []
    for n, (r, dim) in enumerate(zip(seq, shape)):
        ri = int(r)
        if ri != r or ri < 1:
            raise RankError(f"{name}[{n}] must be a positive integer, got {r!r}")
        if ri > dim:
            raise RankError(
                f"{name}[{n}]={ri} exceeds the mode-{n} dimensionality {dim}"
            )
        out.append(ri)
    return tuple(out)


def check_positive_int(value: int, *, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    v = int(value)
    if v != value or v < 1:
        raise ShapeError(f"{name} must be a positive integer, got {value!r}")
    return v


def check_probability(value: float, *, name: str) -> float:
    """Validate that ``value`` lies in the half-open interval (0, 1]."""
    v = float(value)
    if not 0.0 < v <= 1.0:
        raise ShapeError(f"{name} must be in (0, 1], got {value!r}")
    return v


def check_matrix(m: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D floating point array."""
    arr = as_tensor(m, min_order=2, name=name)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def check_same_length(a: Sequence, b: Sequence, *, names: tuple[str, str]) -> None:
    """Raise :class:`ShapeError` unless the two sequences have equal length."""
    if len(a) != len(b):
        raise ShapeError(
            f"{names[0]} (length {len(a)}) and {names[1]} (length {len(b)}) "
            "must have the same length"
        )
