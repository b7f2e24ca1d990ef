"""Exception hierarchy for the :mod:`repro` package.

Every error deliberately raised by this library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors (``TypeError`` from NumPy, ``KeyboardInterrupt``
and friends).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "RankError",
    "ConvergenceError",
    "DatasetError",
    "NotFittedError",
    "BackendError",
    "StoreError",
    "StoreFormatError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ShapeError(ReproError, ValueError):
    """An array argument has the wrong number of dimensions or extent.

    Raised eagerly at API boundaries so that shape mistakes surface with a
    message naming the offending argument instead of a NumPy broadcasting
    error deep inside a TTM chain.
    """


class RankError(ReproError, ValueError):
    """A requested Tucker rank is invalid for the given tensor.

    A rank is invalid when it is not a positive integer or when it exceeds
    the dimensionality of its mode (Tucker factors are column-orthonormal,
    so ``J_n <= I_n`` is required).
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to make progress.

    Only raised for genuinely pathological situations (e.g. non-finite fit
    values caused by a non-finite input tensor); simply hitting the sweep
    budget is *not* an error — the solver returns its best result and flags
    ``converged=False``.
    """


class DatasetError(ReproError, ValueError):
    """A dataset generator received unusable parameters or an unknown name."""


class NotFittedError(ReproError, RuntimeError):
    """An estimator method requiring a completed ``fit`` was called too early."""


class BackendError(ReproError, ValueError):
    """An execution backend is misconfigured or lost a worker.

    Raised when a ``backend=`` argument (or the ``REPRO_BACKEND`` /
    ``REPRO_WORKERS`` environment override) names no registered backend or
    carries an unusable worker configuration, and when a process-backend
    worker dies mid-dispatch (chained from the pool's
    ``BrokenProcessPool``; the backend stays usable).
    """


class StoreError(ReproError, ValueError):
    """A persistent model store cannot satisfy the request.

    Raised for usage errors against an otherwise well-formed store: a
    query outside the stored extent, an append onto a store whose layout
    forbids it, or an attempt to overwrite an existing store without
    ``overwrite=True``.
    """


class StoreFormatError(StoreError, ShapeError):
    """An on-disk artifact is corrupt, foreign, or from an unknown version.

    Raised when an ``.npz`` archive, payload directory, or store manifest
    is missing required keys, carries an unexpected ``format`` tag, or
    cannot be parsed at all.  Subclasses :class:`ShapeError` so historical
    callers catching that type on ``load_slice_svd``/``load_tucker`` keep
    working.
    """
