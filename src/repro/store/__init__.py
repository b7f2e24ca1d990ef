"""Persistent compressed-model store and serving layer.

``fit → save → load → query`` without re-compression:

* :class:`ModelStore` — a versioned store directory (``manifest.json`` plus
  memory-mappable ``.npy`` payloads, no pickle anywhere): :meth:`~ModelStore
  .save` persists a fitted model, :meth:`~ModelStore.append` extends it with
  new temporal blocks, and all metadata (shape, ranks, sizes, fit history)
  is served from the manifest alone.
* :class:`ServedModel` — the read side: payloads mapped once, shared by many
  concurrent reader threads; ``reconstruct`` materialises arbitrary
  sub-tensors from the factors, ``query_time_range`` answers Zoom-Tucker
  style time-range queries by recombining stored per-slice SVDs through the
  dyadic :class:`RangeIndex` (with a bounded LRU result/warm-start cache),
  ``query_many`` batches range queries across a BLAS-partitioned reader
  pool, ``refit`` serves full decompositions at new ranks.
* :mod:`repro.store.format` — the one module that knows the on-disk layout:
  ``.npz`` interchange archives (:func:`write_slice_svd_archive` and
  friends) and payload directories, all validated into typed
  :class:`~repro.exceptions.StoreFormatError` diagnostics.

See ``docs/store.md`` for the format specification and versioning policy.
"""

from __future__ import annotations

from .format import (
    MANIFEST_NAME,
    RANGE_INDEX_FORMAT,
    RANGE_INDEX_VERSION,
    SLICE_SVD_FORMAT,
    STORE_FORMAT,
    STORE_VERSION,
    TUCKER_FORMAT,
    payload_entry,
    read_manifest,
    read_range_index_dir,
    read_slice_svd_archive,
    read_slice_svd_dir,
    read_tucker_archive,
    read_tucker_dir,
    slice_content_fingerprint,
    write_manifest,
    write_range_index_dir,
    write_slice_svd_archive,
    write_slice_svd_dir,
    write_tucker_archive,
    write_tucker_dir,
)
from .range_index import RangeIndex, auto_min_span, dyadic_cover, merge_scaled_bases
from .served import QueryRecord, ServedModel, ServingStats
from .store import ModelStore

__all__ = [
    "ModelStore",
    "ServedModel",
    "ServingStats",
    "QueryRecord",
    "RangeIndex",
    "dyadic_cover",
    "auto_min_span",
    "merge_scaled_bases",
    "RANGE_INDEX_FORMAT",
    "RANGE_INDEX_VERSION",
    "slice_content_fingerprint",
    "write_range_index_dir",
    "read_range_index_dir",
    "SLICE_SVD_FORMAT",
    "TUCKER_FORMAT",
    "STORE_FORMAT",
    "STORE_VERSION",
    "MANIFEST_NAME",
    "write_slice_svd_archive",
    "read_slice_svd_archive",
    "write_tucker_archive",
    "read_tucker_archive",
    "write_slice_svd_dir",
    "read_slice_svd_dir",
    "write_tucker_dir",
    "read_tucker_dir",
    "write_manifest",
    "read_manifest",
    "payload_entry",
]
