"""The sweep workspace: cached projections, chain prefixes, scratch reuse.

:class:`SweepWorkspace` owns every compressed-domain contraction of the
iteration phase and makes each one *incremental* across the sweep:

* the per-slice projection stacks ``A(1)ᵀU`` and ``VᵀA(2)`` are cached and
  dirty-tracked on factor versions, so each is computed exactly once per
  factor update — the mode-2 update, the ``W`` build and the next sweep's
  mode-1 partial all share them;
* the doubly-projected tensor ``W`` is cached on the ``(A(1), A(2))``
  version pair, which removes the historical second ``w_tensor`` evaluation
  per sweep (core projection) entirely;
* TTM chains on ``W`` (the ``skip = n`` updates for modes ≥ 3 and the core
  projection) go through a chain-prefix cache keyed on the exact
  ``(mode, factor-version)`` steps applied, so chains that share a planned
  prefix — e.g. the core projection extending the last skip update —
  reuse the intermediate instead of recontracting it;
* the large slice stacks are written into preallocated
  :class:`~repro.kernels.buffers.BufferPool` slots via ``out=`` matmuls, so
  steady-state sweeps stop allocating for the hot contractions;
* the mode-1/mode-2 partials — ``(L, I1, J2)`` / ``(L, J1, I2)`` stacks,
  the only ``O(I·J·L)`` intermediates — are filled and contracted one
  temporal block at a time and the blocks' chains summed
  (:func:`~repro.kernels.contractions.temporal_blocks`), so a sweep's
  transient memory is one block's stack, not the whole partial.

Every cached value is produced by exactly the operations the uncached path
would run on identical inputs (the naive path blocks its partials the same
way), so results are bit-identical to the naive implementation
(:mod:`repro.kernels.naive`) — the property ``tests/test_kernels.py`` pins
across backends and tensor orders.

Invalidation rules
------------------
``update_factor(n, a)`` bumps mode ``n``'s version.  Caches consult
versions lazily: ``au`` depends on factor 0, ``av`` on factor 1, ``w`` on
both, and every chain step on the version of the factor it applied.  The
chain cache is cleared whenever ``W`` is rebuilt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..engine import ExecutionBackend
from ..exceptions import ShapeError
from ..tensor.products import _mode_product
from .buffers import BufferPool
from .contractions import (
    block_steps,
    block_trailing,
    dispatch_slices,
    mode1_from_projection_chunk,
    mode2_from_projection_chunk,
    project_left_chunk,
    project_right_chunk,
    reduce_blocks,
    stack_to_tensor,
    temporal_blocks,
    w_from_projections_chunk,
)
from .planner import plan_ttm_chain
from .stats import KernelStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.slice_svd import SliceSVD

__all__ = ["StreamingWorkspace", "SweepWorkspace"]

#: Upper bound on cached chain intermediates (cleared with every new ``W``;
#: a sweep produces O(order²) entries, so this is never hit in practice).
_MAX_CHAIN_ENTRIES = 256


class SweepWorkspace:
    """Reusable kernel state for compressed-domain ALS sweeps.

    Its memory is the bound ``SliceSVD`` (cast once for float32), the
    ``O(L·J·K)`` projection stacks and ``W``, and one pooled slot of at
    most one temporal block (4 MiB) that both mode-1/mode-2 partials fill
    block by block — never a whole ``(L, I1, J2)`` or ``(L, J1, I2)``
    partial.

    Parameters
    ----------
    ssvd:
        The compressed tensor the sweeps run on.  A workspace is bound to
        one representation; rebinding to a different ``SliceSVD`` is an
        error (build a fresh workspace instead).
    engine:
        Optional execution backend for the per-slice contractions.  May be
        swapped per phase (``als_sweeps`` installs its resolved backend for
        the duration of the iteration); results do not depend on it.
    compute_dtype:
        Dtype the sweep contractions run in.  The default ``float64``
        matches the stored representation (no cast, no copy); ``float32``
        casts the slice views and every bound factor once, so all cached
        projections and pooled buffers carry float32 end to end (error
        accumulation stays float64 in :mod:`repro.tensor.norms`).

    Attributes
    ----------
    stats:
        :class:`~repro.kernels.stats.KernelStats` accumulated over the
        workspace lifetime (snapshot/delta to attribute per phase).
    pool:
        The :class:`~repro.kernels.buffers.BufferPool` backing the slice
        stacks and chain scratch.
    """

    def __init__(
        self,
        ssvd: "SliceSVD",
        engine: ExecutionBackend | None = None,
        *,
        compute_dtype: "np.dtype | type | None" = None,
    ) -> None:
        self.ssvd = ssvd
        self.engine = engine
        self.compute_dtype = np.dtype(
            np.float64 if compute_dtype is None else compute_dtype
        )
        self.pool = BufferPool()
        self.stats = KernelStats()
        # Identity (no copy) for the default float64: SliceSVD stores
        # float64, so the historical path is untouched bit for bit.
        self._u = np.asarray(ssvd.u, dtype=self.compute_dtype)
        self._s = np.asarray(ssvd.s, dtype=self.compute_dtype)
        self._vt = np.asarray(ssvd.vt, dtype=self.compute_dtype)
        self._factors: dict[int, np.ndarray] = {}
        self._factors_src: dict[int, np.ndarray] = {}
        self._versions: dict[int, int] = {}
        self._au: np.ndarray | None = None
        self._au_version: int | None = None
        self._av: np.ndarray | None = None
        self._av_version: int | None = None
        self._w: np.ndarray | None = None
        self._w_key: tuple[int, int] | None = None
        self._chain_cache: dict[tuple, np.ndarray] = {}

    # -- factor registry ---------------------------------------------------
    def bind_factors(self, factors: Sequence[np.ndarray]) -> None:
        """Register the current factor set, bumping versions on change.

        A factor numerically identical to the registered one keeps its
        version (so caches warmed by a previous phase — e.g. a streaming
        update's temporal re-initialisation — stay valid); anything else
        invalidates exactly the caches that depend on it.
        """
        if len(factors) != self.ssvd.order:
            raise ShapeError(
                f"expected {self.ssvd.order} factors, got {len(factors)}"
            )
        for n, fac in enumerate(factors):
            current = self._factors_src.get(n)
            if current is not None and (
                current is fac
                or (
                    type(current) is np.ndarray
                    and type(fac) is np.ndarray
                    and np.array_equal(current, fac)
                )
            ):
                continue
            self.update_factor(n, fac)

    def update_factor(self, mode: int, factor: np.ndarray) -> None:
        """Install a new factor for ``mode`` and invalidate dependents.

        Factors are normalised to the workspace's compute dtype (no copy
        when they already have it).
        """
        self._factors[int(mode)] = np.asarray(factor, dtype=self.compute_dtype)
        self._factors_src[int(mode)] = factor
        self._versions[int(mode)] = self._versions.get(int(mode), -1) + 1

    def factor(self, mode: int) -> np.ndarray:
        return self._factors[int(mode)]

    # -- buffer helper -----------------------------------------------------
    def _take(
        self, tag: str, shape: tuple[int, ...], dtype: "np.dtype | None" = None
    ) -> np.ndarray:
        before = self.pool.bytes_reused
        buf = self.pool.take(
            tag, shape, self.compute_dtype if dtype is None else dtype
        )
        self.stats.bytes_reused += self.pool.bytes_reused - before
        return buf

    # -- cached projections ------------------------------------------------
    def au(self) -> np.ndarray:
        """Projection stack ``A(1)ᵀU`` of shape ``(L, J1, K)``, cached.

        The stack is a *fresh* array per recompute, never a pooled buffer:
        it is later shipped as an engine slab, and the process backend
        caches shared-memory uploads by array identity — a pooled buffer
        mutated in place would be served stale to the workers.
        """
        version = self._versions[0]
        if self._au is not None and self._au_version == version:
            self.stats.record_hit("au")
            return self._au
        self.stats.record_miss("au")
        ssvd = self.ssvd
        k = int(self._u.shape[2])
        j1 = int(self._factors[0].shape[1])
        self._au = dispatch_slices(
            self.engine, project_left_chunk, ssvd.num_slices,
            (self._u,), {"a1": self._factors[0]},
            out=np.empty((ssvd.num_slices, j1, k), dtype=self.compute_dtype),
        )
        self._au_version = version
        return self._au

    def av(self) -> np.ndarray:
        """Projection stack ``VᵀA(2)`` of shape ``(L, K, J2)``, cached.

        Fresh per recompute for the same slab-identity reason as :meth:`au`.
        """
        version = self._versions[1]
        if self._av is not None and self._av_version == version:
            self.stats.record_hit("av")
            return self._av
        self.stats.record_miss("av")
        ssvd = self.ssvd
        k = int(self._vt.shape[1])
        j2 = int(self._factors[1].shape[1])
        self._av = dispatch_slices(
            self.engine, project_right_chunk, ssvd.num_slices,
            (self._vt,), {"a2": self._factors[1]},
            out=np.empty((ssvd.num_slices, k, j2), dtype=self.compute_dtype),
        )
        self._av_version = version
        return self._av

    # -- partials and W ----------------------------------------------------
    def _partial_spec(self, target: int) -> tuple:
        """``(kernel, slabs, rows)`` of partial ``target``.

        Target 0 is the mode-1 partial ``U @ (diag(s) VᵀA(2))`` over the
        cached ``av``, target 1 the mode-2 partial over the cached ``au``;
        ``rows`` is one slice's ``(a, b)`` block of the ``(L, a, b)`` stack.
        """
        if target == 0:
            av = self.av()
            return (mode1_from_projection_chunk, (self._u, self._s, av),
                    (self.ssvd.slice_shape[0], av.shape[2]))
        au = self.au()
        return (mode2_from_projection_chunk, (au, self._s, self._vt),
                (au.shape[1], self.ssvd.slice_shape[1]))

    def _blocks(self, rows: tuple[int, int]) -> list[tuple[int, int]]:
        """Temporal blocks of a partial whose slices are ``rows``-shaped."""
        itemsize = self.compute_dtype.itemsize
        return temporal_blocks(self.ssvd.shape, rows[0] * rows[1] * itemsize)

    def _stack_items(self) -> int:
        """Items of the pooled slot both partials share: the larger first block."""
        i1, i2 = self.ssvd.slice_shape
        j1, j2 = self._factors[0].shape[1], self._factors[1].shape[1]
        items = 0
        for a, b in ((i1, j2), (j1, i2)):
            lo, hi = self._blocks((a, b))[0]
            items = max(items, (hi - lo) * a * b)
        return items

    def _partial(
        self, spec: tuple, span: "tuple[int, int] | None" = None
    ) -> np.ndarray:
        """The partial of ``spec`` over slice ``span`` (``None``: all), as a tensor.

        Both partials' stacks land in one pooled slot sized for the larger
        first block, so every block of every sweep reuses one buffer.
        """
        kernel, slabs, rows = spec
        n = self.ssvd.num_slices
        if span is not None:
            slabs = tuple(a[span[0] : span[1]] for a in slabs)
            n = span[1] - span[0]
        items = n * rows[0] * rows[1]
        buf = self._take("partial_stack", (max(items, self._stack_items()),))
        stack = dispatch_slices(
            self.engine, kernel, n, slabs, {}, out=buf[:items].reshape(n, *rows)
        )
        return stack_to_tensor(stack, block_trailing(self.ssvd.shape, span))

    def mode1_partial(self) -> np.ndarray:
        """``X̃ ×_2 A(2)ᵀ`` of shape ``(I1, J2, I3, …)`` via the cached ``av``."""
        return self._partial(self._partial_spec(0))

    def mode2_partial(self) -> np.ndarray:
        """``X̃ ×_1 A(1)ᵀ`` of shape ``(J1, I2, I3, …)`` via the cached ``au``."""
        return self._partial(self._partial_spec(1))

    def w(self) -> np.ndarray:
        """``W = X̃ ×_1 A(1)ᵀ ×_2 A(2)ᵀ``, cached on the factor-version pair."""
        key = (self._versions[0], self._versions[1])
        if self._w is not None and self._w_key == key:
            self.stats.record_hit("w")
            return self._w
        au = self.au()
        av = self.av()
        self.stats.record_miss("w")
        ssvd = self.ssvd
        buf = self._take("w_stack", (ssvd.num_slices, au.shape[1], av.shape[2]))
        stack = dispatch_slices(
            self.engine, w_from_projections_chunk, ssvd.num_slices,
            (au, self._s, av), {}, out=buf,
        )
        # The reshaped tensor is a fresh array, so caching it keeps the
        # stack buffer free for reuse.
        self._w = stack_to_tensor(stack, ssvd.shape[2:])
        self._w_key = key
        self._chain_cache.clear()
        return self._w

    # -- TTM chains --------------------------------------------------------
    def project_w_trailing(self, *, skip: int | None = None) -> np.ndarray:
        """``W`` contracted with ``A(m)ᵀ`` for every mode ``m ≥ 2`` but ``skip``.

        Chains run in the planner's greedy order and walk a prefix cache
        keyed on the exact ``(mode, factor-version)`` steps applied, so the
        ``skip = n`` updates and the final core projection share every
        intermediate their planned orders have in common.
        """
        w = self.w()
        modes = [m for m in range(2, self.ssvd.order) if m != skip]
        if not modes:
            return w
        mats = [self._factors[m] for m in modes]
        order = plan_ttm_chain(
            w.shape, tuple(m.shape for m in mats), tuple(modes), transpose=True
        )
        out = w
        steps: tuple = ()
        for idx in order:
            mode = modes[idx]
            steps = steps + ((mode, self._versions[mode]),)
            cached = self._chain_cache.get(steps)
            if cached is not None:
                self.stats.record_hit("chain")
                out = cached
                continue
            self.stats.record_miss("chain")
            out = _mode_product(out, self._factors[mode].swapaxes(-1, -2), mode)
            if len(self._chain_cache) < _MAX_CHAIN_ENTRIES:
                self._chain_cache[steps] = out
        return out

    def project_trailing(
        self,
        tensor: np.ndarray,
        *,
        skip: int | None = None,
        tag: str | None = None,
        steps: "tuple[int, int] | None" = None,
    ) -> np.ndarray:
        """Contract modes ``2..N-1`` (minus ``skip``) of an arbitrary tensor.

        Used for the mode-1/mode-2 partials, whose base tensor changes
        every sweep (no chain reuse), but which still benefit from the
        memoized plan and — when ``tag`` is given — from pooled ``out=``
        buffers for the per-step GEMMs.  ``steps`` restricts the last
        factor to rows ``[t_lo, t_hi)`` for a temporal block's partial.
        The final result always lands in a fresh array so callers may hold
        it across pool reuse.
        """
        modes = [m for m in range(2, self.ssvd.order) if m != skip]
        if not modes:
            return tensor
        mats = [self._factors[m] for m in modes]
        if steps is not None:
            mats[-1] = mats[-1][steps[0] : steps[1]]
        order = plan_ttm_chain(
            tensor.shape, tuple(m.shape for m in mats), tuple(modes), transpose=True
        )
        out = tensor
        for step, idx in enumerate(order):
            mode = modes[idx]
            buf = None
            if tag is not None and step < len(order) - 1:
                shape = list(out.shape)
                shape[mode] = mats[idx].shape[1]
                moved = [shape[mode]] + shape[:mode] + shape[mode + 1:]
                buf = self._take(f"{tag}:{step}", tuple(moved))
            out = _mode_product(out, mats[idx].swapaxes(-1, -2), mode, buf)
        return out

    def contract(self, target: int | None) -> np.ndarray:
        """Mode ``target``'s TTM chain ``X̃ ×_{k≠target} A(k)ᵀ``; ``None`` gives the core.

        Modes 0 and 1 contract the other slice mode through the cached
        projections, then the trailing modes, one temporal block at a time
        (:func:`~repro.kernels.contractions.temporal_blocks`) with the
        blocks' chains summed in block order; modes ``≥ 2`` and the core
        are chains off the cached ``W``.
        """
        if target not in (0, 1):
            return self.project_w_trailing(skip=target)
        spec = self._partial_spec(target)
        blocks = self._blocks(spec[2])
        if len(blocks) == 1:
            return self.project_trailing(
                self._partial(spec), tag=f"z{target + 1}"
            )
        shape = self.ssvd.shape
        return reduce_blocks(
            blocks,
            lambda lo, hi: self.project_trailing(
                self._partial(spec, (lo, hi)), steps=block_steps(shape, lo, hi)
            ),
        )

    # -- bookkeeping -------------------------------------------------------
    def finish_sweep(self) -> None:
        """Mark one completed sweep (normalises per-sweep stats)."""
        self.stats.sweeps += 1

    def invalidate(self) -> None:
        """Drop every cached value (factors and versions are kept)."""
        self._au = self._av = self._w = None
        self._au_version = self._av_version = self._w_key = None
        self._chain_cache.clear()


class StreamingWorkspace:
    """Projection state carried *across* streaming updates.

    Where :class:`SweepWorkspace` caches within one iteration phase, this
    workspace makes the caches survive ingestion: it owns growable buffers
    holding the accumulated slice triples ``(U_l, s_l, V_lᵀ)`` *and* their
    projections ``A(1)ᵀU_l`` / ``V_lᵀA(2)`` / ``W_l`` under the current
    non-temporal factors.  An arriving block only appends its own rows —
    historical projections are never recomputed, which is what turns a
    streaming update from an O(T) refit into an O(block) step.

    Mutation surface (all amortised O(touched slices), never O(T)):

    * :meth:`append` — add a compressed block's slices, computing the
      projection rows for the *new* slices only;
    * :meth:`evict` — drop the oldest slices (sliding window), advancing a
      start offset and compacting the buffers amortised;
    * :meth:`decay` — fold an exponential down-weight ``γ`` into the stored
      ``Σ_l`` (and the ``Σ``-dependent ``W`` cache and norms);
    * :meth:`replace` — splice corrected slices over a stale range,
      recomputing exactly the affected projection rows;
    * :meth:`recompute` — rebuild every projection under new non-temporal
      factors (the drift watchdog's O(window) refresh).

    Accounting: every reused historical projection row records a
    ``stream:proj`` hit, every computed row a miss — the CI guard asserts
    misses per update stay O(block).
    """

    def __init__(self, stats: KernelStats | None = None) -> None:
        self.stats = stats if stats is not None else KernelStats()
        self._start = 0
        self._stop = 0
        self._u: np.ndarray | None = None
        self._s: np.ndarray | None = None
        self._vt: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._au: np.ndarray | None = None
        self._av: np.ndarray | None = None
        self._w: np.ndarray | None = None
        self._a1: np.ndarray | None = None
        self._a2: np.ndarray | None = None
        self._mid_shape: tuple[int, ...] = ()
        self._slice_dims: tuple[int, int] | None = None
        self._rank: int | None = None

    # -- geometry ----------------------------------------------------------
    @property
    def num_slices(self) -> int:
        """Live (windowed) slice count."""
        return self._stop - self._start

    @property
    def per_step(self) -> int:
        """Slices per temporal step (product of the intermediate modes)."""
        out = 1
        for d in self._mid_shape:
            out *= int(d)
        return out

    @property
    def extent(self) -> int:
        """Live temporal extent (timesteps currently represented)."""
        return 0 if self.num_slices == 0 else self.num_slices // self.per_step

    @property
    def shape(self) -> tuple[int, ...]:
        """Full tensor shape of the live window."""
        if self._slice_dims is None:
            raise ShapeError("StreamingWorkspace is empty; append a block first")
        return self._slice_dims + self._mid_shape + (self.extent,)

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The non-temporal factors the cached projections are valid for."""
        if self._a1 is None or self._a2 is None:
            raise ShapeError("StreamingWorkspace has no bound factors yet")
        return self._a1, self._a2

    # -- buffer plumbing ---------------------------------------------------
    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more slices, amortised O(live + extra)."""
        assert self._u is not None
        cap = self._u.shape[0]
        if self._stop + extra <= cap:
            return
        live = self.num_slices
        names = ("_u", "_s", "_vt", "_norms", "_au", "_av", "_w")
        if live + extra > cap // 2:
            new_cap = max(4 * (live + extra), cap)
            for name in names:
                old = getattr(self, name)
                grown = np.empty((new_cap,) + old.shape[1:], dtype=old.dtype)
                grown[:live] = old[self._start : self._stop]
                setattr(self, name, grown)
        else:
            # Plenty of capacity, just a large dead prefix: compact in place.
            for name in names:
                arr = getattr(self, name)
                arr[:live] = arr[self._start : self._stop]
        self._start, self._stop = 0, live

    def _project_rows(
        self, lo: int, hi: int, u: np.ndarray, s: np.ndarray, vt: np.ndarray
    ) -> None:
        """Fill projection rows ``[lo, hi)`` from the given slice triples."""
        assert self._a1 is not None and self._a2 is not None
        au = project_left_chunk(u, a1=self._a1, out=self._au[lo:hi])
        av = project_right_chunk(vt, a2=self._a2, out=self._av[lo:hi])
        w_from_projections_chunk(au, s, av, out=self._w[lo:hi])

    # -- mutation ----------------------------------------------------------
    def append(self, block: "SliceSVD", a1: np.ndarray, a2: np.ndarray) -> None:
        """Ingest a compressed block: append slices + project only its rows.

        The first call binds the geometry and the non-temporal factors;
        later calls require ``a1``/``a2`` to be the bound factors (use
        :meth:`recompute` to refresh them) and a block matching the bound
        slice shape and rank.
        """
        n_new = block.num_slices
        if block.slice_norms_squared is None:
            raise ShapeError(
                "StreamingWorkspace requires per-slice norms on every block"
            )
        if self._u is None:
            self._slice_dims = block.slice_shape
            self._rank = block.rank
            self._mid_shape = tuple(int(d) for d in block.shape[2:-1])
            i1, i2 = self._slice_dims
            k = self._rank
            j1, j2 = a1.shape[1], a2.shape[1]
            cap = max(4 * n_new, 8)
            self._u = np.empty((cap, i1, k))
            self._s = np.empty((cap, k))
            self._vt = np.empty((cap, k, i2))
            self._norms = np.empty((cap,))
            self._au = np.empty((cap, j1, k))
            self._av = np.empty((cap, k, j2))
            self._w = np.empty((cap, j1, j2))
            self._a1 = np.asarray(a1, dtype=float)
            self._a2 = np.asarray(a2, dtype=float)
        else:
            if block.slice_shape != self._slice_dims or block.rank != self._rank:
                raise ShapeError(
                    f"block slice shape {block.slice_shape} rank {block.rank} "
                    f"does not match bound {self._slice_dims} rank {self._rank}"
                )
            if tuple(int(d) for d in block.shape[2:-1]) != self._mid_shape:
                raise ShapeError(
                    f"block intermediate modes {block.shape[2:-1]} do not "
                    f"match bound {self._mid_shape}"
                )
            if a1 is not self._a1 or a2 is not self._a2:
                raise ShapeError(
                    "append must use the bound non-temporal factors; call "
                    "recompute() to refresh them first"
                )
            self._reserve(n_new)
        lo, hi = self._stop, self._stop + n_new
        self._u[lo:hi] = block.u
        self._s[lo:hi] = block.s
        self._vt[lo:hi] = block.vt
        self._norms[lo:hi] = block.slice_norms_squared
        self._project_rows(lo, hi, block.u, block.s, block.vt)
        self._stop = hi
        # Historical rows reused untouched; only the block's rows computed.
        hits = self.num_slices - n_new
        if hits:
            self.stats.counts.setdefault("stream:proj", [0, 0])[0] += hits
        self.stats.counts.setdefault("stream:proj", [0, 0])[1] += n_new

    def evict(self, n_slices: int) -> None:
        """Drop the ``n_slices`` oldest slices (O(evicted) amortised)."""
        n = int(n_slices)
        if n < 0 or n > self.num_slices:
            raise ShapeError(
                f"cannot evict {n} of {self.num_slices} live slices"
            )
        self._start += n
        if n:
            self.stats.counts.setdefault("stream:evict", [0, 0])[1] += n

    def decay(self, factor: float) -> None:
        """Down-weight all live slices: ``Σ_l ← γ Σ_l`` (norms by ``γ²``)."""
        f = float(factor)
        if not 0.0 < f <= 1.0:
            raise ShapeError(f"decay factor must be in (0, 1], got {factor!r}")
        if f == 1.0 or self._u is None:
            return
        lo, hi = self._start, self._stop
        self._s[lo:hi] *= f
        self._norms[lo:hi] *= f * f
        self._w[lo:hi] *= f

    def replace(self, start: int, block: "SliceSVD") -> None:
        """Splice corrected slices over ``[start, start + L_block)``.

        Recomputes exactly the replaced rows' projections; all other
        cached rows are untouched (revision cost is O(revised block)).
        """
        n = block.num_slices
        lo = self._start + int(start)
        hi = lo + n
        if not self._start <= lo < hi <= self._stop:
            raise ShapeError(
                f"slice range [{int(start)}, {int(start) + n}) out of bounds "
                f"for {self.num_slices} live slices"
            )
        if block.slice_norms_squared is None:
            raise ShapeError("replace requires per-slice norms on the block")
        self._u[lo:hi] = block.u
        self._s[lo:hi] = block.s
        self._vt[lo:hi] = block.vt
        self._norms[lo:hi] = block.slice_norms_squared
        self._project_rows(lo, hi, block.u, block.s, block.vt)
        hits = self.num_slices - n
        if hits:
            self.stats.counts.setdefault("stream:proj", [0, 0])[0] += hits
        self.stats.counts.setdefault("stream:proj", [0, 0])[1] += n

    def recompute(self, a1: np.ndarray, a2: np.ndarray) -> None:
        """Full projection rebuild under new factors (watchdog refresh path).

        O(T) by design — this is the selective re-compression escape hatch,
        not the steady-state path; every row tallies a ``stream:proj`` miss.
        """
        if self._u is None:
            raise ShapeError("StreamingWorkspace is empty; append a block first")
        new1 = np.asarray(a1, dtype=float)
        new2 = np.asarray(a2, dtype=float)
        j1, j2 = new1.shape[1], new2.shape[1]
        k = self._rank
        cap = self._u.shape[0]
        if (j1, k) != self._au.shape[1:] or (j2,) != self._av.shape[2:]:
            self._au = np.empty((cap, j1, k))
            self._av = np.empty((cap, k, j2))
            self._w = np.empty((cap, j1, j2))
        self._a1, self._a2 = new1, new2
        lo, hi = self._start, self._stop
        self._project_rows(lo, hi, self._u[lo:hi], self._s[lo:hi], self._vt[lo:hi])
        self.stats.counts.setdefault("stream:proj", [0, 0])[1] += self.num_slices

    # -- views -------------------------------------------------------------
    def slice_svd(self) -> "SliceSVD":
        """The live window as a :class:`SliceSVD` (zero-copy views).

        The views alias the internal buffers: they are valid until the next
        mutation, which is exactly the within-update lifetime the streaming
        solver needs.
        """
        from ..core.slice_svd import SliceSVD

        lo, hi = self._start, self._stop
        norms = self._norms[lo:hi]
        return SliceSVD(
            u=self._u[lo:hi],
            s=self._s[lo:hi],
            vt=self._vt[lo:hi],
            shape=self.shape,
            norm_squared=float(norms.sum()),
            slice_norms_squared=norms,
        )

    def norm_squared(self) -> float:
        """``‖X̃‖_F²`` of the live (decayed, windowed) window."""
        return float(self._norms[self._start : self._stop].sum())

    def w_tensor(self) -> np.ndarray:
        """The cached doubly-projected tensor ``W ∈ R^{J1×J2×I3×…×T}``."""
        self.stats.record_hit("w")
        return stack_to_tensor(self._w[self._start : self._stop], self.shape[2:])

    def nbytes(self) -> int:
        """Bytes held by the live window (slices + projection caches)."""
        live = self.num_slices
        total = 0
        for arr in (self._u, self._s, self._vt, self._norms,
                    self._au, self._av, self._w):
            if arr is not None and arr.shape[0]:
                total += arr[:1].nbytes * live
        return total
