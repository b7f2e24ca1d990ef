"""TTM-chain planning.

A TTM chain (``tensor ×_{m ∈ modes} A_m``) admits many contraction orders;
the library's policy is greedy smallest-output-first, which keeps the
intermediates of projection chains (tall matrices applied transposed) as
small as possible.  The order depends only on the *shapes* involved and
costs a few microseconds to derive, so it is recomputed on every call.

The greedy selection here also fixes a latent bug in the original
``multi_mode_product``: the shrink ratio used to be read off the *original*
tensor's shape at every step rather than the evolving intermediate's.  For
chains whose modes are all distinct the two agree (contracting one mode
never changes another mode's extent), but the planner is now written
against the evolving shape so the invariant is structural, not accidental.
"""

from __future__ import annotations

__all__ = ["plan_ttm_chain"]


def plan_ttm_chain(
    tensor_shape: tuple[int, ...],
    matrix_shapes: tuple[tuple[int, int], ...],
    modes: tuple[int, ...],
    transpose: bool = False,
) -> tuple[int, ...]:
    """Greedy smallest-output-first contraction order for a TTM chain.

    Parameters
    ----------
    tensor_shape:
        Shape of the input tensor.
    matrix_shapes:
        ``(rows, cols)`` of each matrix, aligned with ``modes``.
    modes:
        Distinct modes to contract.
    transpose:
        Whether each matrix is applied transposed.

    Returns
    -------
    tuple of int
        Indices into ``modes`` in contraction order.  At every step the
        mode whose contraction shrinks the *current* intermediate the most
        is chosen; ties break on the original position, matching the
        stable-sort behaviour the solvers were validated against.
    """
    shape = list(tensor_shape)
    remaining = list(range(len(modes)))
    order: list[int] = []
    while remaining:
        # Shrink ratio against the evolving intermediate; < 1 shrinks.
        def ratio(idx: int) -> float:
            rows = matrix_shapes[idx][1] if transpose else matrix_shapes[idx][0]
            return rows / shape[modes[idx]]

        best = min(remaining, key=lambda idx: (ratio(idx), idx))
        order.append(best)
        remaining.remove(best)
        shape[modes[best]] = (
            matrix_shapes[best][1] if transpose else matrix_shapes[best][0]
        )
    return tuple(order)
