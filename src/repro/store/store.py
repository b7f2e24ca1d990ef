"""The :class:`ModelStore`: a versioned on-disk home for fitted models.

A store is a directory::

    store/
      manifest.json        # format tag + version, geometry, config, fit meta,
                           # byte-exact payload table
      slices/              # SliceSVD payload dir (u/s/vt[/slice_norms].npy)
      tucker/              # TuckerResult payload dir (core/factor_n.npy)

``manifest.json`` alone answers every metadata question (shape, ranks,
sizes, compression ratio, fit history) — payloads are only touched by
:meth:`ModelStore.open`, which memory-maps them into a
:class:`~repro.store.served.ServedModel` for concurrent reads — and by
:meth:`ModelStore.append`, which compresses new temporal blocks through the
same :func:`~repro.core.sources.compress_source` path as a fresh fit and
re-runs only initialization + iteration.

Writers go through :func:`repro.store.format` so every file lands via an
atomic rename: readers that already mapped a payload keep their (old) inode,
new opens see the new store.  See ``docs/store.md`` for the format spec and
versioning policy.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.fit_pipeline import FitPipeline, PipelineFit
from ..core.result import TuckerResult
from ..core.slice_svd import SliceSVD
from ..core.sources import DenseSource, compress_source
from ..engine import ExecutionBackend
from ..exceptions import StoreError, StoreFormatError
from ..kernels.stats import KernelStats
from ..metrics.timing import PhaseTimings
from .format import (
    MANIFEST_NAME,
    META_NAME,
    STORE_FORMAT,
    STORE_VERSION,
    payload_entry,
    read_manifest,
    read_range_index_dir,
    read_slice_svd_dir,
    read_tucker_dir,
    slice_content_fingerprint,
    write_manifest,
    write_range_index_dir,
    write_slice_svd_dir,
    write_tucker_dir,
)
from .range_index import RangeIndex, slices_per_step
from .served import DEFAULT_CACHE_SIZE, ServedModel

__all__ = ["ModelStore"]

#: Payload sub-directory names inside a store.
SLICES_DIR = "slices"
TUCKER_DIR = "tucker"
INDEX_DIR = "index"

#: Config keys that earlier releases wrote and this one no longer has.  A
#: reader drops them, so stores written before their removal still open
#: (and append with the one slice-SVD rule, whatever slice-SVD mode they
#: name).
_RETIRED_CONFIG_KEYS = frozenset(
    {
        "device",
        "schedule",
        "shards",
        "exact_slice_svd",
        "strategy",
        "update",
        "sketch_size",
    }
)


def _manifest_config(raw, path: Path) -> DTuckerConfig:
    """The manifest's config table as a :class:`DTuckerConfig`."""
    if not isinstance(raw, Mapping):
        raise StoreFormatError(f"store manifest at {path}: config must be a table")
    fields = {k: v for k, v in raw.items() if k not in _RETIRED_CONFIG_KEYS}
    try:
        return DTuckerConfig(**fields)
    except TypeError as exc:
        raise StoreFormatError(
            f"store manifest at {path} carries an unusable config: {exc}"
        ) from exc


def _fit_metadata(
    *,
    timings: PhaseTimings | None,
    history: Sequence[float] | None,
    converged: bool,
    n_iters: int,
    kernel_stats: KernelStats | None,
    exact_error: float | None,
    power_iterations: int | None,
) -> dict:
    """JSON-ready summary of how the stored model was fitted."""
    meta: dict = {
        "history": [float(e) for e in (history or [])],
        "converged": bool(converged),
        "n_iters": int(n_iters),
    }
    if exact_error is not None:
        meta["exact_error"] = float(exact_error)
    if power_iterations is not None:
        meta["power_iterations"] = int(power_iterations)
    if timings is not None:
        meta["timings"] = {k: float(v) for k, v in timings.phases.items()}
    if kernel_stats is not None:
        meta["kernel_stats"] = kernel_stats.as_dict()
    return meta


def _payload_table(ssvd: SliceSVD, result: TuckerResult) -> dict:
    table = {
        f"{SLICES_DIR}/u.npy": payload_entry(ssvd.u),
        f"{SLICES_DIR}/s.npy": payload_entry(ssvd.s),
        f"{SLICES_DIR}/vt.npy": payload_entry(ssvd.vt),
        f"{TUCKER_DIR}/core.npy": payload_entry(result.core),
    }
    if ssvd.slice_norms_squared is not None:
        table[f"{SLICES_DIR}/slice_norms.npy"] = payload_entry(
            ssvd.slice_norms_squared
        )
    for n, a in enumerate(result.factors):
        table[f"{TUCKER_DIR}/factor_{n}.npy"] = payload_entry(a)
    return table


class ModelStore:
    """Handle on one store directory; cheap to construct, reads lazily.

    Use :meth:`save` to persist a fitted model, :meth:`open` to serve it,
    :meth:`append` to extend it with new temporal data.  All metadata
    properties come from the manifest alone — no payload is loaded.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DTucker
    >>> x = np.random.default_rng(0).standard_normal((12, 10, 8))
    >>> model = DTucker(ranks=(4, 4, 4), seed=0).fit(x)
    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     store = model.save(pathlib.Path(d) / "m")
    ...     store.ranks
    (4, 4, 4)
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._manifest: dict | None = None

    # -- writing -------------------------------------------------------------
    @classmethod
    def save(
        cls,
        path: "str | Path",
        *,
        slice_svd: SliceSVD,
        result: TuckerResult,
        config: DTuckerConfig | None = None,
        permutation: Sequence[int] | None = None,
        timings: PhaseTimings | None = None,
        history: Sequence[float] | None = None,
        converged: bool = False,
        n_iters: int = 0,
        kernel_stats: KernelStats | None = None,
        exact_error: float | None = None,
        power_iterations: int | None = None,
        appends: int = 0,
        overwrite: bool = False,
        build_index: bool = False,
    ) -> "ModelStore":
        """Persist a fitted model as a store directory.

        Parameters
        ----------
        path:
            Store directory (created; parents too).
        slice_svd:
            The compressed representation, in the *stored* (slice-mode
            permuted) orientation.
        result:
            The fitted decomposition, in the *original* mode order.
        config:
            The :class:`~repro.core.config.DTuckerConfig` of the fit;
            recorded verbatim so queries and appends reuse it.
        permutation:
            Mode permutation mapping original → stored order (identity
            when omitted).
        timings, history, converged, n_iters, kernel_stats, exact_error:
            Fit metadata for the manifest (all optional; ``exact_error``
            is the closing pass's, which a refit or an append lacks).
        power_iterations:
            The power passes ``slice_svd`` was compressed with (omitted:
            ``config.power_iterations``; a one-shot fit that held records
            ``0``); :meth:`append` compresses with the same.
        appends:
            How many :meth:`append` rounds this model has absorbed.
        overwrite:
            Allow replacing an existing store (payloads land atomically,
            so concurrent readers keep serving the old arrays).
        build_index:
            Also build and persist the dyadic range index (see
            :meth:`build_index`) so every future open serves range
            queries from the pre-merged nodes.  Without it, any index a
            previous store at ``path`` carried is removed — it would be
            stale against the new payloads.

        Returns
        -------
        ModelStore
            A handle on the written store.
        """
        p = Path(path)
        if permutation is None:
            permutation = tuple(range(slice_svd.order))
        perm = [int(i) for i in permutation]
        if sorted(perm) != list(range(slice_svd.order)):
            raise StoreError(
                f"permutation {permutation!r} is not a permutation of the "
                f"{slice_svd.order} tensor modes"
            )
        if (p / MANIFEST_NAME).exists() and not overwrite:
            raise StoreError(
                f"a model store already exists at {p}; pass overwrite=True "
                "to replace it"
            )
        cfg = config if config is not None else DTuckerConfig()
        p.mkdir(parents=True, exist_ok=True)
        write_slice_svd_dir(slice_svd, p / SLICES_DIR)
        write_tucker_dir(result, p / TUCKER_DIR)
        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "shape": [int(d) for d in slice_svd.shape],
            "permutation": perm,
            "ranks": [int(r) for r in result.ranks],
            "slice_rank": int(slice_svd.rank),
            "dtype": str(slice_svd.u.dtype),
            "norm_squared": float(slice_svd.norm_squared),
            "content_fingerprint": slice_content_fingerprint(slice_svd),
            "appends": int(appends),
            "config": dataclasses.asdict(cfg),
            "fit": _fit_metadata(
                timings=timings,
                history=history,
                converged=converged,
                n_iters=n_iters,
                kernel_stats=kernel_stats,
                exact_error=exact_error,
                power_iterations=power_iterations,
            ),
            "payloads": _payload_table(slice_svd, result),
        }
        write_manifest(p, manifest)
        store = cls(p)
        store._manifest = dict(manifest)
        index_path = p / INDEX_DIR
        if build_index:
            store.build_index()
        elif index_path.exists():
            # Payloads just changed; an index from a previous store at this
            # path would serve stale bases.  Remove rather than risk it.
            shutil.rmtree(index_path)
        return store

    @classmethod
    def save_fit(
        cls,
        path: "str | Path",
        fit: PipelineFit,
        *,
        config: DTuckerConfig | None = None,
        permutation: Sequence[int] | None = None,
        result: TuckerResult | None = None,
        overwrite: bool = False,
        build_index: bool = False,
    ) -> "ModelStore":
        """Persist a :class:`~repro.core.fit_pipeline.PipelineFit` directly.

        ``fit.result`` is in the source's mode order; callers that permuted
        their tensor pass the back-permuted ``result`` plus the
        ``permutation`` they applied (as :meth:`repro.core.dtucker.DTucker
        .save` does).  The power passes the fit's slices ran with are
        recorded beside ``config``, so appends compress with the same.
        """
        return cls.save(
            path,
            slice_svd=fit.slice_svd,
            result=result if result is not None else fit.result,
            config=config,
            permutation=permutation,
            timings=fit.timings,
            history=fit.history,
            converged=fit.converged,
            n_iters=fit.n_iters,
            kernel_stats=fit.kernel_stats,
            exact_error=fit.exact_error,
            power_iterations=fit.power_iterations,
            overwrite=overwrite,
            build_index=build_index,
        )

    # -- manifest-backed metadata --------------------------------------------
    @property
    def manifest(self) -> dict:
        """The validated manifest (read once, cached; see :meth:`reload`)."""
        if self._manifest is None:
            self._manifest = read_manifest(self.path)
        return self._manifest

    def reload(self) -> "ModelStore":
        """Drop the cached manifest so the next access re-reads disk."""
        self._manifest = None
        return self

    @property
    def exists(self) -> bool:
        """Whether ``path`` currently holds a manifest (no validation)."""
        return (self.path / MANIFEST_NAME).exists()

    @property
    def stored_shape(self) -> tuple[int, ...]:
        """Tensor shape in the stored (slice-mode permuted) orientation."""
        return tuple(int(d) for d in self.manifest["shape"])

    @property
    def permutation(self) -> tuple[int, ...]:
        """Mode permutation mapping original → stored order."""
        return tuple(int(i) for i in self.manifest["permutation"])

    @property
    def shape(self) -> tuple[int, ...]:
        """Tensor shape in the *original* mode order."""
        stored = self.stored_shape
        out = [0] * len(stored)
        for i, p in enumerate(self.permutation):
            out[p] = stored[i]
        return tuple(out)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Fitted Tucker ranks, in the original mode order."""
        return tuple(int(r) for r in self.manifest["ranks"])

    @property
    def slice_rank(self) -> int:
        """Stored per-slice compression rank ``K``."""
        return int(self.manifest["slice_rank"])

    @property
    def config(self) -> DTuckerConfig:
        """The fit's :class:`DTuckerConfig`, reconstructed from the manifest."""
        return _manifest_config(self.manifest["config"], self.path)

    @property
    def power_iterations(self) -> int:
        """The power passes the stored slices were compressed with.

        A one-shot fit that held at none records ``0``; anything else
        ran ``config.power_iterations``.
        """
        passes = self.manifest.get("fit", {}).get("power_iterations")
        return self.config.power_iterations if passes is None else int(passes)

    @property
    def nbytes(self) -> int:
        """Total payload bytes, straight from the manifest table."""
        return int(
            sum(int(e["nbytes"]) for e in self.manifest["payloads"].values())
        )

    @property
    def compression_ratio(self) -> float:
        """Dense-tensor bytes over stored slice-payload bytes (metadata only)."""
        dense = float(np.prod(self.stored_shape, dtype=np.int64)) * np.dtype(
            self.manifest.get("dtype", "float64")
        ).itemsize
        # Count the SVD triples only (u/s/vt) so the ratio matches
        # SliceSVD.compression_ratio and DTucker.compression_ratio_.
        slices = sum(
            int(self.manifest["payloads"][f"{SLICES_DIR}/{name}"]["nbytes"])
            for name in ("u.npy", "s.npy", "vt.npy")
        )
        return dense / float(slices)

    # -- the dyadic range index ----------------------------------------------
    @property
    def has_index(self) -> bool:
        """Whether a persisted range-index payload is present (no validation)."""
        return (self.path / INDEX_DIR / META_NAME).exists()

    @property
    def content_fingerprint(self) -> "str | None":
        """The manifest's slice-payload fingerprint (``None`` on old stores)."""
        fp = self.manifest.get("content_fingerprint")
        return None if fp is None else str(fp)

    def build_index(self, *, min_span: "int | None" = None) -> RangeIndex:
        """Build and persist the dyadic range index for this store.

        Materialises the full segment tree of pre-merged slice-group bases
        (see :mod:`repro.store.range_index`) from the persisted slice
        payloads and writes it under ``index/`` with the payloads' content
        fingerprint, so :meth:`open` can detect staleness.  Rebuilding is
        idempotent; an existing index is replaced atomically.

        Parameters
        ----------
        min_span:
            Smallest node span to materialise (default: auto from the
            slice geometry).  Recorded in the payload; readers reuse it.

        Returns
        -------
        RangeIndex
            The freshly built index (node count / byte size inspectable).
        """
        manifest = self.manifest
        perm = self.permutation
        if perm[-1] != len(perm) - 1:
            raise StoreError(
                "a range index needs the temporal (last) mode to survive "
                f"the slice-mode permutation; this store permuted modes {perm}"
            )
        ssvd = self.load_slice_svd(mmap=True)
        per_step = slices_per_step(ssvd.shape)
        index = RangeIndex.build(ssvd, per_step, min_span=min_span)
        fingerprint = slice_content_fingerprint(ssvd)
        write_range_index_dir(
            self.path / INDEX_DIR,
            nodes=index.nodes_snapshot(),
            extent=index.extent,
            per_step=per_step,
            min_span=index.min_span,
            fingerprint=fingerprint,
        )
        if manifest.get("content_fingerprint") != fingerprint:
            # Stores written before the index era lack the fingerprint;
            # record it so staleness checks work from the manifest too.
            updated = dict(manifest)
            updated["content_fingerprint"] = fingerprint
            write_manifest(self.path, updated)
            self._manifest = updated
        return index

    def drop_index(self) -> "ModelStore":
        """Remove the persisted range index (a no-op when absent)."""
        index_path = self.path / INDEX_DIR
        if index_path.exists():
            shutil.rmtree(index_path)
        return self

    def _load_index_payload(self, ssvd: SliceSVD, *, mmap: bool = True) -> dict:
        """Read the index payload and verify it matches ``ssvd``.

        Raises :class:`StoreFormatError` on corrupt payloads *and* on
        stale ones (geometry or content fingerprint disagreeing with the
        live slice payloads) — a wrong index must never silently serve.
        """
        payload = read_range_index_dir(self.path / INDEX_DIR, mmap=mmap)
        extent = int(ssvd.shape[-1])
        per_step = slices_per_step(ssvd.shape)
        if payload["extent"] != extent or payload["per_step"] != per_step:
            raise StoreFormatError(
                f"range index at {self.path / INDEX_DIR} is stale: it covers "
                f"extent {payload['extent']} (per_step {payload['per_step']}) "
                f"but the store holds extent {extent} (per_step {per_step}); "
                "rebuild with ModelStore.build_index()"
            )
        if payload["fingerprint"] != slice_content_fingerprint(ssvd):
            raise StoreFormatError(
                f"range index at {self.path / INDEX_DIR} is stale: its "
                "content fingerprint does not match the slice payloads; "
                "rebuild with ModelStore.build_index()"
            )
        return payload

    # -- reading -------------------------------------------------------------
    def open(
        self,
        *,
        mmap: bool = True,
        engine: ExecutionBackend | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        warm_start: bool = True,
        use_index: bool = True,
    ) -> ServedModel:
        """Map the payloads and return a :class:`ServedModel`.

        Parameters
        ----------
        mmap:
            Memory-map payloads (default).  ``False`` loads them eagerly —
            useful when the store lives on slow removable media.
        engine:
            Optional shared :class:`~repro.engine.ExecutionBackend` for all
            queries (reused, never closed).  Default: the served model
            resolves one engine *per reader thread* from the stored config.
        cache_size:
            LRU result/warm-start cache capacity (0 disables caching).
        warm_start:
            Let overlapping cached queries seed ALS (telemetry flags them).
        use_index:
            Serve range queries from the persisted dyadic index when
            present (building it lazily in memory otherwise).  ``False``
            recombines every query from the raw slice payloads — same
            arithmetic, no reuse.

        Returns
        -------
        ServedModel

        Raises
        ------
        StoreFormatError
            On corrupt payloads, and on a persisted range index that is
            corrupt, foreign, or stale against the slice payloads.
        """
        manifest = read_manifest(self.path)
        ssvd = read_slice_svd_dir(self.path / SLICES_DIR, mmap=mmap)
        result = read_tucker_dir(self.path / TUCKER_DIR, mmap=mmap)
        stored = tuple(int(d) for d in manifest["shape"])
        if ssvd.shape != stored:
            raise StoreFormatError(
                f"store at {self.path}: slice payloads have shape "
                f"{ssvd.shape} but the manifest says {stored}"
            )
        if len(result.factors) != len(stored):
            raise StoreFormatError(
                f"store at {self.path}: Tucker payloads have order "
                f"{len(result.factors)}, manifest says {len(stored)}"
            )
        config = _manifest_config(manifest["config"], self.path)
        index_nodes = None
        index_min_span = None
        if self.has_index:
            payload = self._load_index_payload(ssvd, mmap=mmap)
            # min_span is part of the range arithmetic: honour the persisted
            # value even when node reuse is disabled, so indexed and
            # index-free opens of the same store answer bit-identically.
            index_min_span = int(payload["min_span"])
            if use_index:
                index_nodes = payload["nodes"]
        return ServedModel(
            manifest=manifest,
            slice_svd=ssvd,
            result=result,
            config=config,
            engine=engine,
            index_nodes=index_nodes,
            index_min_span=index_min_span,
            cache_size=cache_size,
            warm_start=warm_start,
            use_index=use_index,
        )

    def load_slice_svd(self, *, mmap: bool = False) -> SliceSVD:
        """Load just the compressed slices (stored orientation)."""
        return read_slice_svd_dir(self.path / SLICES_DIR, mmap=mmap)

    def load_result(self, *, mmap: bool = False) -> TuckerResult:
        """Load just the fitted decomposition (original mode order)."""
        return read_tucker_dir(self.path / TUCKER_DIR, mmap=mmap)

    # -- appending -----------------------------------------------------------
    def append(
        self,
        block: np.ndarray,
        *,
        rng: "int | np.random.Generator | None" = None,
        engine: ExecutionBackend | None = None,
    ) -> "ModelStore":
        """Extend the store with a new block along the last (temporal) mode.

        The block (given in the *original* mode order) is compressed through
        the same :func:`~repro.core.sources.compress_source` path as a fresh
        fit — at the stored slice rank, so the new slices concatenate
        exactly — then only initialization + ALS sweeps re-run on the merged
        representation (:meth:`FitPipeline.refit`).  The original tensor is
        never revisited.

        A persisted range index is extended *incrementally*: appending only
        concatenates slices, so every node inside the old extent keeps its
        exact basis and only nodes touching the new region are computed.
        The index is first validated against the pre-append payloads — a
        corrupt or already-stale index raises
        :class:`~repro.exceptions.StoreFormatError` instead of being
        silently carried forward.

        Returns ``self`` with the manifest reloaded; payloads are replaced
        atomically, so an open :class:`ServedModel` keeps serving the
        pre-append arrays.
        """
        manifest = self.manifest
        perm = self.permutation
        if perm[-1] != len(perm) - 1:
            raise StoreError(
                "append requires the temporal (last) mode to survive the "
                f"slice-mode permutation; this store permuted modes {perm}"
            )
        x = np.asarray(block, dtype=float)
        if x.ndim != len(perm):
            raise StoreError(
                f"append block must have order {len(perm)}, got {x.ndim}"
            )
        if tuple(x.shape[:-1]) != self.shape[:-1]:
            raise StoreError(
                f"append block shape {x.shape} must match the stored shape "
                f"{self.shape} on every mode but the last"
            )
        config = self.config
        passes = self.power_iterations
        ranks = self.ranks
        stored_ranks = tuple(ranks[p] for p in perm)
        pipeline = FitPipeline(
            stored_ranks,
            slice_rank=self.slice_rank,
            config=config,
            engine=engine,
            strict_slice_rank=False,
        )
        permuted = np.transpose(x, perm)
        # The stored slices' power passes: appended slices match the fit's.
        fresh = compress_source(
            DenseSource(permuted),
            self.slice_rank,
            config=dataclasses.replace(config, power_iterations=passes),
            engine=engine,
            rng=rng,
        )
        current = self.load_slice_svd()
        # Validate any persisted index against the *pre-append* payloads
        # (loaded eagerly: save() below replaces the files on disk).
        old_index = None
        if self.has_index:
            old_index = self._load_index_payload(current, mmap=False)
        merged = current.append(fresh)
        result, outcome, _ = pipeline.refit(merged, stored_ranks)
        inverse = tuple(int(i) for i in np.argsort(perm))
        saved = type(self).save(
            self.path,
            slice_svd=merged,
            result=result.permute_modes(inverse),
            config=config,
            permutation=perm,
            history=outcome.errors,
            converged=outcome.converged,
            n_iters=outcome.n_iters,
            kernel_stats=outcome.kernel_stats,
            power_iterations=passes,
            appends=int(manifest.get("appends", 0)) + 1,
            overwrite=True,
        )
        self._manifest = saved._manifest
        if old_index is not None:
            # Old nodes lie entirely inside the old extent and stay exact;
            # seed them so only nodes touching the new region are computed.
            per_step = slices_per_step(merged.shape)
            index = RangeIndex.build(
                merged,
                per_step,
                min_span=old_index["min_span"],
                seed_nodes=old_index["nodes"],
            )
            write_range_index_dir(
                self.path / INDEX_DIR,
                nodes=index.nodes_snapshot(),
                extent=index.extent,
                per_step=per_step,
                min_span=index.min_span,
                fingerprint=slice_content_fingerprint(merged),
            )
        return self

    # -- reporting -----------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable report (backs ``repro inspect``)."""
        m = self.manifest
        fit = m.get("fit", {})
        history = fit.get("history", [])
        lines = [
            f"model store at {self.path}",
            f"  format        {m['format']} v{m['version']}",
            f"  shape         {self.shape} (stored as {self.stored_shape}, "
            f"permutation {self.permutation})",
            f"  ranks         {self.ranks}  slice_rank {self.slice_rank}  "
            f"dtype {m.get('dtype', '?')}",
            f"  payload bytes {self.nbytes}  compression {self.compression_ratio:.2f}x",
            f"  appends       {int(m.get('appends', 0))}",
        ]
        fp = m.get("content_fingerprint")
        if fp:
            lines.append(f"  fingerprint   {str(fp)[:16]}…")
        if self.has_index:
            try:
                payload = read_range_index_dir(self.path / INDEX_DIR, mmap=True)
                index_bytes = sum(
                    (self.path / INDEX_DIR / name).stat().st_size
                    for name in ("p1.npy", "p2.npy")
                )
                stale = (
                    ""
                    if fp and payload["fingerprint"] == fp
                    else "  [STALE — rebuild with build_index()]"
                )
                lines.append(
                    f"  range index   {len(payload['nodes'])} nodes, "
                    f"min_span {payload['min_span']}, "
                    f"{index_bytes} bytes{stale}"
                )
            except StoreFormatError as exc:
                lines.append(f"  range index   CORRUPT: {exc}")
        else:
            lines.append(
                "  range index   absent (serving builds it lazily in memory; "
                "persist with build_index())"
            )
        if history:
            lines.append(
                f"  fit           error {history[-1]:.6e} after "
                f"{int(fit.get('n_iters', 0))} sweeps "
                f"(converged={bool(fit.get('converged', False))})"
            )
        timings = fit.get("timings")
        if timings:
            phases = " ".join(f"{k}={v:.4f}s" for k, v in timings.items())
            lines.append(f"  timings       {phases}")
        for name in sorted(m["payloads"]):
            e = m["payloads"][name]
            lines.append(
                f"  payload       {name}: shape {tuple(e['shape'])} "
                f"{e['dtype']} ({int(e['nbytes'])} bytes)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "present" if self.exists else "absent"
        return f"ModelStore({str(self.path)!r}, {state})"
