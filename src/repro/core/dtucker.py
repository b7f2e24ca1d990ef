"""The :class:`DTucker` estimator — the paper's headline algorithm, end to end.

``DTucker(ranks).fit(X)`` runs the three phases

1. **approximation** — compress ``X`` into per-slice randomized SVDs
   (:mod:`repro.core.slice_svd`),
2. **initialization** — derive starting factors from the compressed slices
   (:mod:`repro.core.initialization`),
3. **iteration** — ALS sweeps entirely in the compressed domain
   (:mod:`repro.core.iteration`),

records per-phase wall-clock timings, and exposes the reusable compressed
representation.  ``refit(new_ranks)`` answers further decomposition requests
from the compressed slices alone — the memory-efficiency story of the paper.

Slice-mode selection
--------------------
D-Tucker keeps the first two modes as the slice plane.  Real tensors do not
always arrive with their two largest modes first, so ``slice_modes`` accepts
either an explicit pair or ``"largest"``; internally the tensor is
transposed so the chosen pair leads, and the result is transposed back
before being returned.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from ..engine import ExecutionBackend
from ..exceptions import NotFittedError, RankError, ShapeError
from ..metrics.timing import PhaseTimings
from ..validation import as_tensor, check_ranks
from .config import DTuckerConfig
from .fit_pipeline import FitPipeline, PipelineFit
from .result import TuckerResult
from .sources import DenseSource, NpySource

__all__ = ["DTucker", "decompose"]


def _resolve_slice_modes(
    slice_modes: tuple[int, int] | str, shape: tuple[int, ...]
) -> tuple[int, int]:
    """Validate/choose the two modes that span each slice."""
    order = len(shape)
    if isinstance(slice_modes, str):
        if slice_modes != "largest":
            raise ShapeError(
                f"slice_modes must be a pair of modes or 'largest', got {slice_modes!r}"
            )
        by_size = sorted(range(order), key=lambda n: (-shape[n], n))
        m1, m2 = sorted(by_size[:2])
        return m1, m2
    try:
        m1, m2 = (int(m) for m in slice_modes)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"slice_modes must be a pair of modes, got {slice_modes!r}") from exc
    if m1 == m2 or not (0 <= m1 < order and 0 <= m2 < order):
        raise ShapeError(
            f"slice_modes must be two distinct modes in [0, {order}), got {slice_modes}"
        )
    return m1, m2


class DTucker:
    """Fast, memory-efficient Tucker decomposition of a dense tensor.

    Parameters
    ----------
    ranks:
        Target Tucker ranks — one per mode, or a single integer for all.
    slice_rank:
        Per-slice compression rank ``K`` for the approximation phase.
        Defaults to ``max`` of the two slice-mode ranks, the paper's choice.
    slice_modes:
        The two modes spanning each slice matrix: an explicit pair or
        ``"largest"`` (default ``(0, 1)``, the paper's layout).
    init:
        ``"svd"`` (paper) or ``"random"`` (ablation baseline).
    seed:
        Seed for all randomness; overrides ``config.seed`` when not ``None``.
    config:
        A :class:`~repro.core.config.DTuckerConfig` carrying every solver
        knob — the uniform call surface shared by all entry points.
    engine:
        A live :class:`~repro.engine.ExecutionBackend` to dispatch the
        per-slice/per-mode hot paths on.  The instance is reused across
        ``fit``/``refit`` calls and never closed by this class, so one pool
        can serve many models.  ``None`` resolves a backend per fit from
        ``config``/environment.

    Attributes (after ``fit``)
    --------------------------
    result_ : TuckerResult
        The decomposition, in the *original* mode order, with ``elapsed``
        and ``trace_`` stamped.
    slice_svd_ : SliceSVD
        Reusable compressed representation (in slice-permuted mode order).
    timings_ : PhaseTimings
        Wall-clock seconds per phase.
    trace_ : list of PhaseTrace
        Structured execution traces from the engine (task counts per
        worker, chunk sizes, peak RSS, kernel-cache hit/miss counts) —
        printable via :func:`repro.engine.format_traces`.
    kernel_stats_ : KernelStats
        Sweep-workspace cache accounting for the iteration phase (hits,
        misses, buffer bytes reused, ``W`` evaluations per sweep).
    history_ : list of float
        The compressed-domain error estimate ``(‖X‖² − ‖G̃‖²)/‖X‖²``
        after each ALS sweep — what the ``tol`` test reads.  It is not a
        bound on the true error: the compression residual's cross term
        with the projection can take either sign.  After a power-pass
        escalation it continues with the sweeps on the new compression.
    exact_error_ : float
        The exact ``‖X − X̂‖²/‖X‖²`` of ``result_``, from the closing pass
        that computes the core ``G = X ×ₙ Aₙᵀ`` of the final factors.
    power_iterations_ : int
        The power passes ``slice_svd_`` was compressed with: 0 when the
        fit held, ``config.power_iterations`` after an escalation.
        :meth:`save` records it beside ``config``, so appends compress
        with the same passes and a loaded model keeps its escalation
        level.
    converged_ : bool
    n_iters_ : int
    permutation_ : tuple of int
        Mode permutation applied internally (identity when
        ``slice_modes == (0, 1)``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DTucker
    >>> x = np.random.default_rng(0).standard_normal((30, 20, 15))
    >>> model = DTucker(ranks=(5, 5, 5), seed=0).fit(x)
    >>> model.result_.ranks
    (5, 5, 5)
    """

    def __init__(
        self,
        ranks: int | Sequence[int],
        *,
        slice_rank: int | None = None,
        slice_modes: tuple[int, int] | str = (0, 1),
        init: str = "svd",
        seed: int | None = None,
        config: DTuckerConfig | None = None,
        engine: ExecutionBackend | None = None,
    ) -> None:
        self.ranks = ranks
        self.slice_rank = slice_rank
        self.slice_modes = slice_modes
        if init not in ("svd", "random"):
            raise ShapeError(f"init must be 'svd' or 'random', got {init!r}")
        self.init = init
        cfg = config if config is not None else DTuckerConfig()
        self.config = replace(cfg, seed=seed) if seed is not None else cfg
        self.engine = engine
        self._fitted = False

    # -- internal helpers ----------------------------------------------------
    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                "this DTucker instance is not fitted yet; call fit(tensor) first"
            )

    def _permuted_ranks(self, rank_tuple: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(rank_tuple[p] for p in self.permutation_)

    def _pipeline(self, ranks: tuple[int, ...]) -> FitPipeline:
        """The unified pipeline, parameterised with this model's knobs."""
        return FitPipeline(
            ranks,
            slice_rank=self.slice_rank,
            init=self.init,
            config=self.config,
            engine=self.engine,
        )

    def _store_fit(self, fit: PipelineFit) -> None:
        """Unpack a :class:`PipelineFit` into the fitted attributes."""
        self.slice_svd_ = fit.slice_svd
        self.timings_ = fit.timings
        self.trace_ = fit.traces
        self.kernel_stats_ = fit.kernel_stats
        self.history_ = fit.history
        self.exact_error_ = fit.exact_error
        self.power_iterations_ = fit.power_iterations
        self.converged_ = fit.converged
        self.n_iters_ = fit.n_iters
        self._fitted = True

    # -- public API ------------------------------------------------------------
    def fit(self, tensor: np.ndarray) -> "DTucker":
        """Run all three phases on ``tensor`` and store the results.

        A ``tensor`` holding NaN or Inf raises :class:`ShapeError` from the
        compression read, which scans each block as it copies it, before
        any fitted attribute is set.
        """
        x = as_tensor(tensor, min_order=2, name="tensor", finite=False)
        rank_tuple = check_ranks(self.ranks, x.shape)
        m1, m2 = _resolve_slice_modes(self.slice_modes, x.shape)
        rest = [n for n in range(x.ndim) if n not in (m1, m2)]
        permutation = tuple([m1, m2] + rest)
        inverse = tuple(int(i) for i in np.argsort(permutation))

        permuted = np.transpose(x, permutation)
        permuted_ranks = tuple(rank_tuple[p] for p in permutation)
        fit = self._pipeline(permuted_ranks).fit(DenseSource._validated(permuted))
        self.permutation_ = permutation
        self._store_fit(fit)
        self.result_ = fit.result.permute_modes(inverse)
        return self

    def fit_from_file(
        self, path: "str | object", *, batch_slices: int = 64
    ) -> "DTucker":
        """Fit from a ``.npy`` file without loading the tensor into memory.

        The approximation phase runs out of core
        (:func:`repro.core.sources.compress_source` over a memory-mapped
        :class:`~repro.core.sources.NpySource`, one slice batch at a time);
        initialization and iteration run on the compressed
        representation as usual.  Peak resident memory is bounded by the
        compressed size plus one slice batch — see benchmark A6.

        Restriction: ``slice_modes`` must be the default ``(0, 1)``
        (permuting would require materialising the tensor).

        Parameters
        ----------
        path:
            Path to a ``.npy`` file holding an order-``>= 2`` tensor.
        batch_slices:
            Slices compressed per round.

        Returns
        -------
        DTucker
            ``self``, fitted (same attributes as :meth:`fit`).
        """
        if self.slice_modes != (0, 1):
            raise ShapeError(
                "fit_from_file requires slice_modes=(0, 1); reorder the "
                "stored tensor instead"
            )

        source = NpySource(path)
        rank_tuple = check_ranks(self.ranks, source.shape)
        fit = self._pipeline(rank_tuple).fit(source, batch_slices=batch_slices)
        self.permutation_ = tuple(range(fit.slice_svd.order))
        self._store_fit(fit)
        self.result_ = fit.result
        return self

    def refit(
        self,
        ranks: int | Sequence[int] | None = None,
        *,
        config: DTuckerConfig | None = None,
    ) -> TuckerResult:
        """Answer a new decomposition request from the compressed slices.

        No pass over the original tensor happens: initialization and
        iteration re-run on the stored :class:`SliceSVD`.  The new slice-mode
        ranks must not exceed the stored compression rank ``K``.

        Parameters
        ----------
        ranks:
            New target ranks (defaults to the ranks used at ``fit`` time).
        config:
            Optional configuration override for this request (defaults to
            the model's own config).

        Returns
        -------
        TuckerResult
            A fresh result in the original mode order; ``self.result_`` is
            left untouched.
        """
        self._require_fitted()
        cfg = config if config is not None else self.config
        shape = tuple(
            self.slice_svd_.shape[i]
            for i in np.argsort(self.permutation_)
        )
        rank_tuple = check_ranks(
            self.ranks if ranks is None else ranks, shape
        )
        permuted_ranks = self._permuted_ranks(rank_tuple)
        needed = min(
            max(permuted_ranks[0], permuted_ranks[1]),
            min(self.slice_svd_.slice_shape),
        )
        if needed > self.slice_svd_.rank:
            raise RankError(
                f"refit ranks {rank_tuple} need slice rank {needed} but only "
                f"{self.slice_svd_.rank} was stored; fit again with a larger "
                "slice_rank"
            )
        permuted_result, _, _ = self._pipeline(permuted_ranks).refit(
            self.slice_svd_, permuted_ranks, config=cfg
        )
        inverse = tuple(int(i) for i in np.argsort(self.permutation_))
        return permuted_result.permute_modes(inverse)

    # -- persistence -----------------------------------------------------------
    def save(self, path: "str | object", *, overwrite: bool = False) -> "object":
        """Persist this fitted model as a :class:`~repro.store.ModelStore`.

        Everything a fresh process needs to serve queries is written: the
        compressed slices (stored orientation), the result (original mode
        order), the mode permutation, the full config and the fit metadata.
        ``ModelStore.open()`` on the path then answers reconstructions and
        time-range queries without refitting; :meth:`load` restores an
        equivalent estimator.

        Parameters
        ----------
        path:
            Store directory to create.
        overwrite:
            Allow replacing an existing store at ``path``.

        Returns
        -------
        repro.store.ModelStore
            A handle on the written store.
        """
        self._require_fitted()
        # Imported lazily: repro.store builds on the core modules.
        from ..store import ModelStore

        return ModelStore.save(
            path,
            slice_svd=self.slice_svd_,
            result=self.result_,
            config=self.config,
            permutation=self.permutation_,
            timings=self.timings_,
            history=self.history_,
            converged=self.converged_,
            n_iters=self.n_iters_,
            kernel_stats=self.kernel_stats_,
            exact_error=self.exact_error_,
            power_iterations=self.power_iterations_,
            overwrite=overwrite,
        )

    @classmethod
    def load(cls, path: "str | object") -> "DTucker":
        """Restore a fitted estimator from a :meth:`save` store directory.

        The returned model answers :meth:`refit`, :meth:`reconstruct` and
        :attr:`compression_ratio_` exactly as the original did — without
        the original tensor and without re-running compression.  Execution
        traces are not persisted, so ``trace_`` comes back empty.
        """
        from ..store import ModelStore

        store = ModelStore(path)
        manifest = store.manifest
        perm = store.permutation
        model = cls(
            ranks=store.ranks,
            slice_rank=store.slice_rank,
            config=store.config,
        )
        model.permutation_ = perm
        model.slice_svd_ = store.load_slice_svd()
        model.result_ = store.load_result()
        fit_meta = manifest.get("fit", {})
        timings = PhaseTimings()
        for name, seconds in fit_meta.get("timings", {}).items():
            timings.add(name, float(seconds))
        model.timings_ = timings
        model.trace_ = []
        model.kernel_stats_ = None
        model.history_ = [float(e) for e in fit_meta.get("history", [])]
        model.exact_error_ = fit_meta.get("exact_error")
        model.power_iterations_ = store.power_iterations
        model.converged_ = bool(fit_meta.get("converged", False))
        model.n_iters_ = int(fit_meta.get("n_iters", 0))
        model._fitted = True
        return model

    # -- conveniences ----------------------------------------------------------
    @property
    def compression_ratio_(self) -> float:
        """Dense-tensor bytes divided by compressed-slice bytes."""
        self._require_fitted()
        dense = float(
            np.prod(self.slice_svd_.shape, dtype=np.int64) * self.slice_svd_.u.itemsize
        )
        return dense / float(self.slice_svd_.nbytes)

    def reconstruct(self) -> np.ndarray:
        """Dense approximation from the fitted result."""
        self._require_fitted()
        return self.result_.reconstruct()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self._fitted else "unfitted"
        return f"DTucker(ranks={self.ranks!r}, {state})"


def decompose(
    tensor: np.ndarray, ranks: int | Sequence[int], **kwargs: object
) -> DTucker:
    """Functional one-liner: ``decompose(X, ranks)`` → fitted :class:`DTucker`.

    All keyword arguments are forwarded to the :class:`DTucker` constructor.
    """
    return DTucker(ranks, **kwargs).fit(tensor)  # type: ignore[arg-type]
