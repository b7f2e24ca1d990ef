"""Randomized and deterministic linear algebra built on NumPy/SciPy.

Contents: truncated SVD with a deterministic sign convention, economy QR,
Halko randomized SVD (single and batched over slice stacks), and
CountSketch/TensorSketch operators for the sketching baselines.
"""

from .qr import economy_qr, orthonormalize
from .rsvd import batched_rsvd, batched_svd_via_gram, randomized_range_finder, rsvd
from .sketch import CountSketch, TensorSketch
from .svd import (
    leading_left_singular_vectors,
    refine_left_singular_vectors,
    sign_fix,
    solve_gram,
    truncated_svd,
)

__all__ = [
    "economy_qr",
    "orthonormalize",
    "batched_rsvd",
    "batched_svd_via_gram",
    "randomized_range_finder",
    "rsvd",
    "CountSketch",
    "TensorSketch",
    "leading_left_singular_vectors",
    "refine_left_singular_vectors",
    "sign_fix",
    "solve_gram",
    "truncated_svd",
]
