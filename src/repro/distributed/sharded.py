"""Shard-aware slice sources: a directory-of-blocks view of one tensor.

A :class:`ShardedSource` is the distributed layer's answer to "the tensor
does not live in one place": it stitches a sequence of *member* sources —
``.npy`` files, zarr/HDF5 groups (when those packages are installed), or
any existing :class:`~repro.core.sources.SliceSource` — into one logical
tensor along the last (temporal) mode.  Because the library's slice index
runs in Fortran order over modes ``3..N``, the last mode varies slowest,
so every member owns a *contiguous run* of slice indices and the
concatenation never materialises.

The source plugs into :func:`~repro.core.sources.compress_source`
unchanged.  Two properties make it the unit of distribution:

* **Shard-local compression.**  On the process backend,
  :meth:`ShardedSource.process_parts` fans out the *members* themselves
  (an ``.npy`` member pickles as its path, never a slab): each worker
  reads its own shard and compresses its
  slices locally, shipping back only the stacked ``[U_lΣ_l]`` /
  ``[Σ_lV_lᵀ]`` factor products — ``(I1+I2+1)·K`` numbers per slice,
  independent of the slab width ``I1·I2``.  The bytes that do cross the
  boundary are tallied as ``comm:*`` counters in the compression
  phase's :attr:`~repro.engine.trace.PhaseTrace.counters`, which merge
  into the fit's :class:`~repro.kernels.stats.KernelStats`.
* **Shared sketches.**  One Gaussian test matrix is drawn for all members
  (``shared_sketch``), so the compression — and therefore the whole fit —
  is bit-identical to the equivalent single-source fit regardless of how
  the tensor is sharded.

Manifests
---------
A shard directory is described by a ``manifest.json``::

    {"format": "dtucker-shards/v1",
     "members": [{"kind": "npy",  "path": "shard000.npy"},
                 {"kind": "zarr", "path": "t.zarr", "key": "x"},
                 {"kind": "hdf5", "path": "t.h5",   "key": "x"}]}

Relative member paths resolve against the manifest's directory.  ``zarr``
and ``hdf5`` members are gated on their packages at open time
(:class:`~repro.exceptions.BackendError` when missing — nothing is ever
installed on the user's behalf).
"""

from __future__ import annotations

import json
import os
from typing import Any, Sequence

import numpy as np

from ..core.config import DTuckerConfig
from ..core.sources import (
    DenseSource,
    NpySource,
    SliceSource,
    SliceSourceBase,
    batch_task_fn,
    batched_slice_view,
    store_parts,
)
from ..engine import ExecutionBackend
from ..exceptions import BackendError, ShapeError
from ..kernels.compress_plan import CompressionPlan, factor_nbytes
from ..kernels.stats import KernelStats
from ..tensor.slices import SliceRuns, slice_count
from ..validation import check_positive_int

__all__ = [
    "GroupSource",
    "ShardedSource",
    "SliceSpanSource",
    "partition_extent",
    "write_manifest",
    "write_npy_shards",
]

#: Name and format tag of the shard-directory manifest file.
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "dtucker-shards/v1"


def partition_extent(extent: int, n_shards: int) -> list[tuple[int, int]]:
    """Split ``extent`` into up to ``n_shards`` contiguous near-equal spans.

    The remainder spreads over the leading spans (``np.array_split``
    semantics), so an uneven extent yields a shorter *trailing* shard —
    the remainder-shard case the parity tests exercise.
    """
    t = int(extent)
    n = max(1, min(int(n_shards), t))
    base, rem = divmod(t, n)
    spans: list[tuple[int, int]] = []
    lo = 0
    for i in range(n):
        hi = lo + base + (1 if i < rem else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


# -- span view over an existing source ---------------------------------------

class SliceSpanSource(SliceSourceBase):
    """A contiguous temporal span ``[t_lo, t_hi)`` of another source.

    Because the last mode varies slowest in the slice order, the span's
    slices are a contiguous run of the parent's — ``read_batch`` is a pure
    index shift, no gather or copy beyond what the parent does.  This is
    how :meth:`ShardedSource.partition` turns one source into shards
    without touching the data.
    """

    def __init__(self, parent: SliceSource, t_lo: int, t_hi: int) -> None:
        shape = tuple(int(d) for d in parent.shape)
        if len(shape) < 3:
            raise ShapeError(
                f"temporal spans need order >= 3, got shape {shape}"
            )
        lo, hi = int(t_lo), int(t_hi)
        if not 0 <= lo < hi <= shape[-1]:
            raise ShapeError(
                f"span [{lo}, {hi}) invalid for temporal extent {shape[-1]}"
            )
        self._parent = parent
        self._t_lo, self._t_hi = lo, hi
        self._shape = shape[:-1] + (hi - lo,)
        self._dtype = parent.dtype
        self._per_step = slice_count(shape) // shape[-1]

    @property
    def resident(self) -> bool:  # type: ignore[override]
        return self._parent.resident

    @property
    def parent(self) -> SliceSource:
        return self._parent

    @property
    def span(self) -> tuple[int, int]:
        return (self._t_lo, self._t_hi)

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        lo, hi = self._check_range(start, stop)
        offset = self._t_lo * self._per_step
        return self._parent.read_batch(offset + lo, offset + hi)

    def tensor_view(self) -> np.ndarray | None:
        whole = self._parent.tensor_view()
        return None if whole is None else whole[..., self._t_lo : self._t_hi]


# -- zarr / HDF5 group members ----------------------------------------------

class GroupSource(SliceSourceBase):
    """A tensor stored as a zarr array or an HDF5 dataset.

    Both formats serve scalar multi-index reads, so batches go through the
    per-slice reference gather of :func:`~repro.core.sources
    .batched_slice_view` — only the requested chunks/pages are read.  The
    backing package is imported lazily and its absence raised as
    :class:`~repro.exceptions.BackendError`, keeping manifests that name
    such members loadable only where the format actually is.  A pickle
    carries the recipe (kind, path, key) without the open handle; the
    unpickled source re-opens it on its first read.
    """

    resident = False
    default_batch_slices = 64
    phase_name = "approximation-ooc"

    def __init__(
        self, kind: str, path: "str | os.PathLike", key: str | None = None
    ) -> None:
        if kind not in ("zarr", "hdf5"):
            raise ShapeError(f"unknown group member kind {kind!r}")
        self._kind = kind
        self._path = os.fspath(path)
        self._key = key
        self._handle: Any = None
        array = self._array()
        if array.ndim < 2:
            raise ShapeError(
                f"tensor in {self._path!r} must have order >= 2"
            )
        self._shape = tuple(int(d) for d in array.shape)
        self._dtype = np.dtype(array.dtype)

    def _array(self) -> Any:
        if self._handle is None:
            if self._kind == "zarr":
                try:
                    import zarr
                except ImportError as exc:
                    raise BackendError(
                        "manifest member kind 'zarr' requires the 'zarr' "
                        "package, which is not installed"
                    ) from exc
                node = zarr.open(self._path, mode="r")
                self._handle = node[self._key] if self._key else node
            else:
                try:
                    import h5py
                except ImportError as exc:
                    raise BackendError(
                        "manifest member kind 'hdf5' requires the 'h5py' "
                        "package, which is not installed"
                    ) from exc
                handle = h5py.File(self._path, "r")
                self._handle = handle[self._key] if self._key else handle
        return self._handle

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        lo, hi = self._check_range(start, stop)
        return batched_slice_view(self._array(), lo, hi)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_handle": None}


# -- the sharded source ------------------------------------------------------

class ShardedSource(SliceSourceBase):
    """A virtual concatenation of member sources along the temporal mode.

    Members must agree on every mode but the last; each then owns the
    contiguous run of slice indices its temporal span maps to
    (:attr:`shard_bounds`).  ``shared_sketch`` draws *one* test matrix for
    all members, which makes compression — and hence the whole fit —
    bit-identical to the equivalent single-source fit, however the tensor
    is sharded and on every backend.

    Construct one directly from open sources (several in-memory blocks
    are ``ShardedSource([DenseSource(b) for b in blocks])``), from a shard
    directory via :meth:`from_manifest`, or by splitting an existing
    source with :meth:`partition`.
    """

    shared_sketch = True
    phase_name = "approximation-sharded"

    def __init__(self, members: Sequence[SliceSource]) -> None:
        members = list(members)
        if not members:
            raise ShapeError("ShardedSource needs at least one member")
        lead = tuple(int(d) for d in members[0].shape[:-1])
        order = len(members[0].shape)
        if order < 3:
            raise ShapeError(
                "sharding splits the temporal mode; members must have "
                f"order >= 3, got shape {tuple(members[0].shape)}"
            )
        for m in members[1:]:
            shape = tuple(int(d) for d in m.shape)
            if len(shape) != order or shape[:-1] != lead:
                raise ShapeError(
                    "all members must agree on every mode but the last; "
                    f"got {lead + (-1,)} and {shape}"
                )
        self._members = tuple(members)
        self._offsets = np.cumsum([0] + [int(m.slice_count) for m in members])
        self._shape = lead + (int(sum(m.shape[-1] for m in members)),)
        self._dtype = members[0].dtype

    # -- construction --------------------------------------------------------
    @classmethod
    def partition(cls, source: SliceSource, n_shards: int) -> "ShardedSource":
        """Split ``source`` into up to ``n_shards`` contiguous temporal spans.

        Pure index arithmetic — every shard is a
        :class:`SliceSpanSource` view, no data moves.  An extent that does
        not divide evenly yields a shorter trailing shard.  ``n_shards``
        must be a positive integer.
        """
        n_shards = check_positive_int(n_shards, name="n_shards")
        shape = tuple(int(d) for d in source.shape)
        if len(shape) < 3:
            raise ShapeError(
                f"sharding splits the temporal mode; need order >= 3, "
                f"got shape {shape}"
            )
        spans = partition_extent(shape[-1], n_shards)
        return cls([SliceSpanSource(source, lo, hi) for lo, hi in spans])

    @classmethod
    def from_manifest(cls, path: "str | os.PathLike") -> "ShardedSource":
        """Open a shard directory (or its ``manifest.json``) as one source."""
        p = os.fspath(path)
        if os.path.isdir(p):
            p = os.path.join(p, MANIFEST_NAME)
        base = os.path.dirname(os.path.abspath(p))
        with open(p, encoding="utf-8") as handle:
            data = json.load(handle)
        fmt = data.get("format")
        if fmt != MANIFEST_FORMAT:
            raise ShapeError(
                f"unrecognised shard manifest format {fmt!r} in {p!r} "
                f"(expected {MANIFEST_FORMAT!r})"
            )
        members: list[SliceSource] = []
        for entry in data.get("members", []):
            kind = entry.get("kind")
            member_path = os.fspath(entry.get("path", ""))
            if not os.path.isabs(member_path):
                member_path = os.path.join(base, member_path)
            if kind == "npy":
                members.append(NpySource(member_path))
            elif kind in ("zarr", "hdf5"):
                members.append(
                    GroupSource(kind, member_path, entry.get("key"))
                )
            else:
                raise ShapeError(
                    f"unknown member kind {kind!r} in manifest {p!r}"
                )
        if not members:
            raise ShapeError(f"manifest {p!r} lists no members")
        return cls(members)

    # -- geometry ------------------------------------------------------------
    @property
    def members(self) -> tuple[SliceSource, ...]:
        return self._members

    @property
    def shard_bounds(self) -> list[tuple[int, int]]:
        """Member boundaries in slice-index space, one ``(lo, hi)`` each.

        Every member spans whole temporal steps, so these bounds are
        always aligned to temporal-mode boundaries — the alignment the
        distributed sweep coordinator relies on.
        """
        return [
            (int(lo), int(hi))
            for lo, hi in zip(self._offsets[:-1], self._offsets[1:])
        ]

    @property
    def resident(self) -> bool:  # type: ignore[override]
        return all(m.resident for m in self._members)

    def _cut(self, lo: int, hi: int) -> list[tuple[SliceSource, int, int, int]]:
        """Slices ``[lo, hi)`` cut at member boundaries: ``(member, offset, a, b)``.

        Member-local slices ``[a, b)`` are global slices ``[offset + a,
        offset + b)``.
        """
        cut = []
        for member, offset in zip(self._members, self._offsets[:-1]):
            a = max(int(lo) - int(offset), 0)
            b = min(int(hi) - int(offset), int(member.slice_count))
            if a < b:
                cut.append((member, int(offset), a, b))
        return cut

    def read_batch(self, start: int, stop: int) -> np.ndarray:
        lo, hi = self._check_range(start, stop)
        pieces = [m.read_batch(a, b) for m, _, a, b in self._cut(lo, hi)]
        # A batch straddling members is served as their pieces, not a copy.
        return pieces[0] if len(pieces) == 1 else SliceRuns.concat(pieces)

    # -- process-backend fan-out ---------------------------------------------
    def process_parts(
        self,
        engine: ExecutionBackend,
        rank: int,
        plan: CompressionPlan,
        bounds: list[tuple[int, int]],
        omegas: list["np.ndarray | None"],
        config: DTuckerConfig,
        *,
        out: "tuple[np.ndarray, ...]",
        stats: KernelStats | None = None,
    ) -> bool:
        """Shard-local compression: ship members, never slabs.

        Each batch bound is cut at member boundaries into ``(member,
        local_lo, local_hi, Ω)`` tasks; workers read their member and
        compress locally.  Per task the coordinator receives
        ``(I1+I2+1)·K`` numbers per slice (plus one norm), written into its
        rows of ``out`` as it arrives, and ships at most one ``I2×K`` test
        matrix — both tallied as ``comm:`` counters — while the raw
        ``I1·I2`` slab bytes never cross the boundary.

        An all-resident source returns ``False``: its data already lives
        in the coordinator process, so the inline :func:`~repro.kernels
        .compress_plan.execute_plan` path (whose chunked dispatch uses
        shared-memory uploads) is both faster and byte-identical.  A
        resident member of a mixed source ships only its task's slices,
        as a :class:`DenseSource` of the batch, never the whole member.
        """
        if all(m.resident for m in self._members):
            return False
        i1, i2 = self._shape[:2]
        tasks: list[tuple] = []
        rows: list[tuple[int, int]] = []
        for (start, stop), omega in zip(bounds, omegas):
            for member, offset, a, b in self._cut(start, stop):
                rows.append((offset + a, offset + b))
                if member.resident:
                    batch = np.asarray(member.read_batch(a, b))
                    member = DenseSource._validated(np.moveaxis(batch, 0, -1))
                    a, b = 0, b - a
                tasks.append((member, a, b, omega))
        store_parts(engine, batch_task_fn(rank, plan), tasks, rows, out)
        if stats is not None:
            for (lo, hi), (_, _, _, omega) in zip(rows, tasks):
                stats.record_comm(
                    "ship",
                    factor_nbytes(
                        i1, i2, rank, n_slices=hi - lo, dtype=plan.compute_dtype
                    ),
                )
                if omega is not None and omega.nbytes:
                    stats.record_comm("bcast", int(omega.nbytes))
            stats.record_comm("reduce", 0)
        return True


# -- manifest writers --------------------------------------------------------

def write_manifest(
    directory: "str | os.PathLike", members: Sequence[dict]
) -> str:
    """Write a shard ``manifest.json`` listing ``members`` into ``directory``.

    Each member is a dict with ``kind`` (``"npy"``/``"zarr"``/``"hdf5"``),
    ``path`` (relative paths resolve against the directory) and, for group
    kinds, an optional ``key``.  Returns the manifest path.
    """
    os.makedirs(os.fspath(directory), exist_ok=True)
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
    payload = {"format": MANIFEST_FORMAT, "members": list(members)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def write_npy_shards(
    directory: "str | os.PathLike", tensor: np.ndarray, n_shards: int
) -> str:
    """Split ``tensor`` along its last mode into ``.npy`` shards + manifest.

    The convenience writer behind the tests and benchmarks: shards are
    near-equal contiguous temporal spans (trailing shard shorter when the
    extent is uneven).  Returns the manifest path, ready for
    :meth:`ShardedSource.from_manifest`.
    """
    x = np.asarray(tensor)
    if x.ndim < 3:
        raise ShapeError(
            f"sharding splits the temporal mode; need order >= 3, "
            f"got shape {x.shape}"
        )
    os.makedirs(os.fspath(directory), exist_ok=True)
    entries = []
    for i, (lo, hi) in enumerate(partition_extent(x.shape[-1], n_shards)):
        name = f"shard{i:03d}.npy"
        np.save(
            os.path.join(os.fspath(directory), name),
            np.ascontiguousarray(x[..., lo:hi]),
        )
        entries.append({"kind": "npy", "path": name})
    return write_manifest(directory, entries)
