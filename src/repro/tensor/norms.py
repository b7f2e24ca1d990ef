"""Norms and error measures for dense tensors.

The reconstruction-error definition matches the paper family
(D-Tucker / Zoom-Tucker): ``error = ||X - X_hat||_F^2 / ||X||_F^2``.
Fit is the complementary measure used by the Tensor Toolbox:
``fit = 1 - ||X - X_hat||_F / ||X||_F``.
"""

from __future__ import annotations

import numpy as np

from ..engine.array_api import array_module_of
from ..exceptions import ShapeError
from ..validation import as_tensor

__all__ = [
    "frobenius_norm",
    "frobenius_norm_squared",
    "relative_error",
    "reconstruction_error",
    "fit_score",
    "core_based_error",
]


def frobenius_norm(tensor: np.ndarray) -> float:
    """Frobenius norm of a tensor of any order."""
    x = as_tensor(tensor, min_order=1, name="tensor")
    return array_module_of(x).vector_norm(x)


def frobenius_norm_squared(tensor: np.ndarray) -> float:
    """Squared Frobenius norm, computed without an intermediate sqrt.

    Always accumulates in float64: a float32 tensor is reduced with a
    float64 accumulator (``np.einsum(..., dtype=np.float64)``), so the
    squared norm does not lose mass to float32 rounding — the same
    precision contract as :func:`repro.kernels.compress_plan.slab_norms`.
    The float64 path is unchanged (``flat @ flat``).
    """
    x = as_tensor(tensor, min_order=1, name="tensor")
    return array_module_of(x).vdot_float64(x)


def relative_error(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Relative Frobenius error ``||ref - est||_F / ||ref||_F``.

    Raises
    ------
    ShapeError
        If the two tensors have different shapes or the reference is zero.
    """
    x = as_tensor(reference, min_order=1, name="reference")
    y = as_tensor(estimate, min_order=1, name="estimate")
    if tuple(x.shape) != tuple(y.shape):
        raise ShapeError(
            f"reference {tuple(x.shape)} and estimate {tuple(y.shape)} "
            "must have equal shapes"
        )
    am = array_module_of(x, y)
    denom = am.vector_norm(x)
    if denom == 0.0:
        raise ShapeError("relative error undefined for a zero reference tensor")
    return am.vector_norm(x - y) / denom


def reconstruction_error(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Squared relative error ``||X - X_hat||_F^2 / ||X||_F^2`` (paper metric)."""
    return relative_error(reference, estimate) ** 2


def fit_score(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Tensor-Toolbox style fit, ``1 - ||X - X_hat||_F / ||X||_F``."""
    return 1.0 - relative_error(reference, estimate)


def core_based_error(norm_x_squared: float, core: np.ndarray) -> float:
    """Reconstruction error from the core norm only (orthonormal factors).

    When ``X_hat = G ×_1 A(1) ... ×_N A(N)`` with column-orthonormal factors
    obtained by projecting ``X`` (i.e. ``G = X ×_n A(n)^T``), Pythagoras gives

    .. math:: ||X - X\\_hat||_F^2 = ||X||_F^2 - ||G||_F^2 ,

    so the error is available without reconstructing ``X_hat`` — the
    memory-efficient convergence check used by the iteration phase.

    Parameters
    ----------
    norm_x_squared:
        ``||X||_F^2`` of the original tensor (a scalar retained from input).
    core:
        Current core tensor.

    Returns
    -------
    float
        ``max(0, ||X||^2 - ||G||^2) / ||X||^2`` — clipped at zero because
        floating point can push the difference slightly negative.
    """
    if norm_x_squared <= 0.0:
        raise ShapeError("norm_x_squared must be positive")
    g2 = frobenius_norm_squared(core)
    return float(max(norm_x_squared - g2, 0.0) / norm_x_squared)
