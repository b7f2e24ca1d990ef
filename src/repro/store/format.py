"""The on-disk model format: manifest JSON plus ``.npy``/``.npz`` payloads.

This module is the single place that knows how compressed models are laid
out on disk.  Three artifact families share the conventions defined here:

* **Single-file archives** (``.npz``) — the portable interchange form of a
  :class:`~repro.core.slice_svd.SliceSVD` or
  :class:`~repro.core.result.TuckerResult`.  Archives are compact but
  cannot be memory-mapped.
* **Payload directories** — the serving form: one ``.npy`` file per array
  plus a small ``meta.json``.  Plain ``.npy`` files memory-map, so a
  :class:`~repro.store.ServedModel` can share one mapping across many
  reader threads without ever loading payloads eagerly.
* **The store manifest** (``manifest.json``) — the durable index of a
  :class:`~repro.store.ModelStore`: format tag + version, tensor geometry,
  target ranks, the full :class:`~repro.core.config.DTuckerConfig`, fit
  metadata (timings, error history, kernel-stats summary), and a byte-exact
  payload table so sizes and compression ratios are reportable without
  touching any payload.

No pickle anywhere: every array round-trips through ``np.save``/``np.load``
with ``allow_pickle=False`` and every scalar through JSON, so artifacts are
safe to read from untrusted sources.

Versioning policy (see ``docs/store.md``): the ``format`` tag never
changes; ``version`` is bumped on layout changes.  Readers accept any
version ``<=`` their own and must raise
:class:`~repro.exceptions.StoreFormatError` — never ``KeyError`` — on
corrupt, foreign, or future-versioned artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..core.result import TuckerResult
from ..core.slice_svd import SliceSVD
from ..exceptions import StoreFormatError

__all__ = [
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
    "RANGE_INDEX_FORMAT",
    "RANGE_INDEX_VERSION",
    "slice_content_fingerprint",
    "write_range_index_dir",
    "read_range_index_dir",
]

#: Format tag of single-file SliceSVD archives (unchanged since v1 so old
#: archives keep loading).
SLICE_SVD_FORMAT = "repro.slice_svd.v1"

#: Format tag of single-file TuckerResult archives.
TUCKER_FORMAT = "repro.tucker.v1"

#: Format tag of SliceSVD payload directories.
SLICE_SVD_DIR_FORMAT = "repro.slice_svd.dir"

#: Format tag of TuckerResult payload directories.
TUCKER_DIR_FORMAT = "repro.tucker.dir"

#: Format tag and current layout version of a model-store manifest.
STORE_FORMAT = "repro.model_store"
STORE_VERSION = 1

#: Format tag and layout version of the optional dyadic range-index payload.
RANGE_INDEX_FORMAT = "repro.range_index"
RANGE_INDEX_VERSION = 1

#: File name of the store manifest inside a store directory.
MANIFEST_NAME = "manifest.json"

#: meta.json name inside payload directories.
META_NAME = "meta.json"


# -- atomic single-file writes ----------------------------------------------

def _atomic_save_array(path: Path, array: np.ndarray) -> Path:
    """Write ``array`` to ``path`` (``.npy``) via a temp file + rename.

    The rename keeps concurrent readers consistent: a ``ServedModel`` that
    already mapped the old file keeps its inode; new opens see the new one.
    """
    # The tmp name keeps the .npy suffix so np.save writes it verbatim.
    tmp = path.with_name(path.stem + ".tmp.npy")
    np.save(tmp, np.ascontiguousarray(array))
    os.replace(tmp, path)
    return path


def _atomic_write_json(path: Path, payload: Mapping[str, Any]) -> Path:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def _read_json(path: Path, *, what: str) -> dict:
    try:
        raw = path.read_text()
    except FileNotFoundError:
        raise StoreFormatError(f"{what} missing: no file at {path}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StoreFormatError(f"{what} at {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise StoreFormatError(f"{what} at {path} must be a JSON object")
    return data


def _require(data: Mapping[str, Any], key: str, *, what: str) -> Any:
    """Fetch ``key`` or raise a typed error (never ``KeyError``)."""
    if key not in data:
        raise StoreFormatError(f"{what} is missing required key {key!r}")
    return data[key]


def _check_format(
    data: Mapping[str, Any], expected: str, *, what: str
) -> None:
    tag = str(data.get("format", ""))
    if tag != expected:
        raise StoreFormatError(
            f"not a {what} (format {tag!r}, expected {expected!r})"
        )


def payload_entry(array: np.ndarray) -> dict:
    """Manifest payload-table entry for one array: shape/dtype/bytes."""
    a = np.asarray(array)
    return {
        "shape": [int(d) for d in a.shape],
        "dtype": str(a.dtype),
        "nbytes": int(a.nbytes),
    }


# -- single-file .npz archives ----------------------------------------------

def _as_archive_path(path: "str | os.PathLike", *, suffix: str = ".npz") -> Path:
    p = Path(path)
    if p.suffix != suffix:
        p = p.with_suffix(p.suffix + suffix)
    return p


def _load_archive(path: "str | os.PathLike", *, what: str):
    """Open an ``.npz`` for reading, mapping corruption to typed errors."""
    p = _as_archive_path(path)
    try:
        return np.load(p, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, OSError) as exc:
        raise StoreFormatError(
            f"cannot read {what} archive {p}: {exc}"
        ) from exc


def _archive_array(data, key: str, *, what: str) -> np.ndarray:
    if key not in data:
        raise StoreFormatError(f"{what} archive is missing key {key!r}")
    return data[key]


def write_slice_svd_archive(
    ssvd: SliceSVD, path: "str | os.PathLike"
) -> Path:
    """Save a :class:`SliceSVD` to a single compressed ``.npz`` archive.

    Returns the path actually written (a ``.npz`` suffix is appended if
    absent).  The archive layout is unchanged since format v1, so files
    written by any release load in any other.
    """
    p = _as_archive_path(path)
    extras = {}
    if ssvd.slice_norms_squared is not None:
        extras["slice_norms_squared"] = ssvd.slice_norms_squared
    np.savez_compressed(
        p,
        format=np.array(SLICE_SVD_FORMAT),
        u=ssvd.u,
        s=ssvd.s,
        vt=ssvd.vt,
        shape=np.array(ssvd.shape, dtype=np.int64),
        norm_squared=np.array(ssvd.norm_squared),
        **extras,
    )
    return p


def read_slice_svd_archive(path: "str | os.PathLike") -> SliceSVD:
    """Load a :class:`SliceSVD` archive written by :func:`write_slice_svd_archive`.

    Raises
    ------
    StoreFormatError
        If the file is not a valid archive, carries a different ``format``
        tag, or is missing any required key.
    """
    with _load_archive(path, what="slice-SVD") as data:
        tag = str(data.get("format", "")) if "format" in data else ""
        if tag != SLICE_SVD_FORMAT:
            raise StoreFormatError(
                f"not a slice-SVD archive (format {tag!r}, "
                f"expected {SLICE_SVD_FORMAT!r})"
            )
        what = "slice-SVD"
        return SliceSVD(
            u=_archive_array(data, "u", what=what),
            s=_archive_array(data, "s", what=what),
            vt=_archive_array(data, "vt", what=what),
            shape=tuple(int(d) for d in _archive_array(data, "shape", what=what)),
            norm_squared=float(_archive_array(data, "norm_squared", what=what)),
            slice_norms_squared=(
                data["slice_norms_squared"]
                if "slice_norms_squared" in data
                else None
            ),
        )


def write_tucker_archive(
    result: TuckerResult, path: "str | os.PathLike"
) -> Path:
    """Save a :class:`TuckerResult` to a single compressed ``.npz`` archive."""
    p = _as_archive_path(path)
    arrays = {f"factor_{n}": f for n, f in enumerate(result.factors)}
    np.savez_compressed(
        p,
        format=np.array(TUCKER_FORMAT),
        core=result.core,
        **arrays,
    )
    return p


def read_tucker_archive(path: "str | os.PathLike") -> TuckerResult:
    """Load a :class:`TuckerResult` archive written by :func:`write_tucker_archive`.

    Raises
    ------
    StoreFormatError
        If the file is not a valid archive, carries a different ``format``
        tag, or is missing the core or any factor.
    """
    with _load_archive(path, what="Tucker") as data:
        tag = str(data.get("format", "")) if "format" in data else ""
        if tag != TUCKER_FORMAT:
            raise StoreFormatError(
                f"not a Tucker archive (format {tag!r}, expected {TUCKER_FORMAT!r})"
            )
        core = _archive_array(data, "core", what="Tucker")
        factors = [
            _archive_array(data, f"factor_{n}", what="Tucker")
            for n in range(core.ndim)
        ]
        return TuckerResult(core=core, factors=factors)


# -- payload directories -----------------------------------------------------

def _load_payload(
    directory: Path, name: str, *, mmap: bool, what: str
) -> np.ndarray:
    path = directory / name
    if not path.exists():
        raise StoreFormatError(f"{what} directory {directory} is missing {name}")
    try:
        return np.load(path, mmap_mode="r" if mmap else None, allow_pickle=False)
    except (ValueError, OSError) as exc:
        raise StoreFormatError(f"cannot read {path}: {exc}") from exc


def write_slice_svd_dir(ssvd: SliceSVD, path: "str | os.PathLike") -> Path:
    """Write a :class:`SliceSVD` as a payload directory (memory-mappable).

    Layout: ``u.npy, s.npy, vt.npy[, slice_norms.npy]`` plus ``meta.json``
    carrying the format tag, tensor shape and exact ``||X||_F²``.  Each
    array lands via an atomic rename so concurrent readers never observe a
    torn file.
    """
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    _atomic_save_array(p / "u.npy", ssvd.u)
    _atomic_save_array(p / "s.npy", ssvd.s)
    _atomic_save_array(p / "vt.npy", ssvd.vt)
    meta: dict[str, Any] = {
        "format": SLICE_SVD_DIR_FORMAT,
        "version": 1,
        "shape": [int(d) for d in ssvd.shape],
        "norm_squared": float(ssvd.norm_squared),
    }
    if ssvd.slice_norms_squared is not None:
        _atomic_save_array(p / "slice_norms.npy", ssvd.slice_norms_squared)
        meta["has_slice_norms"] = True
    _atomic_write_json(p / META_NAME, meta)
    return p


def read_slice_svd_dir(
    path: "str | os.PathLike", *, mmap: bool = False
) -> SliceSVD:
    """Load a :class:`SliceSVD` payload directory, optionally memory-mapped.

    With ``mmap=True`` the returned object's arrays are read-only views of
    the on-disk files — cheap to open, shareable across threads, and pages
    are only read when touched.
    """
    p = Path(path)
    meta = _read_json(p / META_NAME, what="slice-SVD directory meta")
    _check_format(meta, SLICE_SVD_DIR_FORMAT, what="slice-SVD directory")
    what = "slice-SVD"
    norms = None
    if meta.get("has_slice_norms") or (p / "slice_norms.npy").exists():
        norms = _load_payload(p, "slice_norms.npy", mmap=mmap, what=what)
    return SliceSVD(
        u=_load_payload(p, "u.npy", mmap=mmap, what=what),
        s=_load_payload(p, "s.npy", mmap=mmap, what=what),
        vt=_load_payload(p, "vt.npy", mmap=mmap, what=what),
        shape=tuple(int(d) for d in _require(meta, "shape", what=what)),
        norm_squared=float(_require(meta, "norm_squared", what=what)),
        slice_norms_squared=norms,
    )


def write_tucker_dir(result: TuckerResult, path: "str | os.PathLike") -> Path:
    """Write a :class:`TuckerResult` as a payload directory (memory-mappable)."""
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    _atomic_save_array(p / "core.npy", result.core)
    for n, a in enumerate(result.factors):
        _atomic_save_array(p / f"factor_{n}.npy", a)
    _atomic_write_json(
        p / META_NAME,
        {
            "format": TUCKER_DIR_FORMAT,
            "version": 1,
            "order": int(result.order),
            "elapsed": float(result.elapsed),
        },
    )
    return p


def read_tucker_dir(
    path: "str | os.PathLike", *, mmap: bool = False
) -> TuckerResult:
    """Load a :class:`TuckerResult` payload directory, optionally memory-mapped."""
    p = Path(path)
    meta = _read_json(p / META_NAME, what="Tucker directory meta")
    _check_format(meta, TUCKER_DIR_FORMAT, what="Tucker directory")
    order = int(_require(meta, "order", what="Tucker directory"))
    core = _load_payload(p, "core.npy", mmap=mmap, what="Tucker")
    if core.ndim != order:
        raise StoreFormatError(
            f"Tucker directory {p}: core order {core.ndim} does not match "
            f"meta order {order}"
        )
    factors = [
        _load_payload(p, f"factor_{n}.npy", mmap=mmap, what="Tucker")
        for n in range(order)
    ]
    result = TuckerResult(core=core, factors=factors)
    result.elapsed = float(meta.get("elapsed", 0.0))
    return result


# -- the dyadic range-index payload ------------------------------------------

def slice_content_fingerprint(ssvd: SliceSVD) -> str:
    """Content fingerprint binding a range index to its slice payloads.

    Hashes the stored tensor shape, the slice rank and the full singular-
    value array (the smallest of the three payload arrays; a few KB even
    for large stores).  Any :meth:`ModelStore.append` or re-save changes
    the singular values, so a stale index is detected without hashing the
    multi-MB ``u``/``vt`` payloads.
    """
    digest = hashlib.sha256()
    digest.update(repr(tuple(int(d) for d in ssvd.shape)).encode())
    digest.update(repr(int(ssvd.rank)).encode())
    digest.update(np.ascontiguousarray(np.asarray(ssvd.s)).tobytes())
    return digest.hexdigest()


def write_range_index_dir(
    path: "str | os.PathLike",
    *,
    nodes: Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]],
    extent: int,
    per_step: int,
    min_span: int,
    fingerprint: str,
) -> Path:
    """Write a dyadic range index as a payload directory.

    Layout: ``p1.npy``/``p2.npy`` hold every node's mode-1/mode-2 scaled
    bases packed column-wise, and ``meta.json`` carries the format tag, the
    index geometry, the content fingerprint of the slice payloads the index
    was built from, and a node table mapping each ``(start, span)`` node to
    its column range in the packed arrays.  Packing all nodes into two
    files keeps opens cheap and lets readers map individual nodes as
    zero-copy column slices.
    """
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    order = sorted(nodes)
    table = []
    lo1 = lo2 = 0
    blocks1, blocks2 = [], []
    for key in order:
        p1, p2 = nodes[key]
        p1 = np.ascontiguousarray(p1, dtype=np.float64)
        p2 = np.ascontiguousarray(p2, dtype=np.float64)
        table.append(
            [int(key[0]), int(key[1]), lo1, lo1 + p1.shape[1], lo2, lo2 + p2.shape[1]]
        )
        lo1 += p1.shape[1]
        lo2 += p2.shape[1]
        blocks1.append(p1)
        blocks2.append(p2)
    packed1 = np.concatenate(blocks1, axis=1) if blocks1 else np.zeros((0, 0))
    packed2 = np.concatenate(blocks2, axis=1) if blocks2 else np.zeros((0, 0))
    _atomic_save_array(p / "p1.npy", packed1)
    _atomic_save_array(p / "p2.npy", packed2)
    _atomic_write_json(
        p / META_NAME,
        {
            "format": RANGE_INDEX_FORMAT,
            "version": RANGE_INDEX_VERSION,
            "extent": int(extent),
            "per_step": int(per_step),
            "min_span": int(min_span),
            "fingerprint": str(fingerprint),
            "nodes": table,
        },
    )
    return p


def read_range_index_dir(path: "str | os.PathLike", *, mmap: bool = True) -> dict:
    """Load and validate a range-index payload directory.

    Returns a dict with the meta scalars (``extent``, ``per_step``,
    ``min_span``, ``fingerprint``) and ``nodes`` — a mapping from
    ``(start, span)`` to ``(p1, p2)`` read-only column views of the packed
    payload files.  Every structural property is checked here (format tag,
    version, node alignment, power-of-two spans, column offsets inside the
    packed arrays) so corrupt or foreign payloads raise
    :class:`StoreFormatError` instead of silently serving wrong bases.
    Staleness against the live slice payloads (fingerprint mismatch) is the
    caller's check — this function only validates internal consistency.
    """
    p = Path(path)
    what = "range index"
    meta = _read_json(p / META_NAME, what="range-index meta")
    _check_format(meta, RANGE_INDEX_FORMAT, what=what)
    version = int(_require(meta, "version", what=what))
    if version > RANGE_INDEX_VERSION:
        raise StoreFormatError(
            f"range index at {p} has layout version {version}; this release "
            f"reads up to version {RANGE_INDEX_VERSION} — upgrade the library"
        )
    extent = int(_require(meta, "extent", what=what))
    per_step = int(_require(meta, "per_step", what=what))
    min_span = int(_require(meta, "min_span", what=what))
    fingerprint = str(_require(meta, "fingerprint", what=what))
    table = _require(meta, "nodes", what=what)
    if extent < 1 or per_step < 1 or min_span < 2 or not isinstance(table, list):
        raise StoreFormatError(f"range index at {p} has corrupt geometry")
    packed1 = _load_payload(p, "p1.npy", mmap=mmap, what=what)
    packed2 = _load_payload(p, "p2.npy", mmap=mmap, what=what)
    if packed1.ndim != 2 or packed2.ndim != 2:
        raise StoreFormatError(f"range index at {p}: payloads must be matrices")
    nodes: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for entry in table:
        if not (isinstance(entry, list) and len(entry) == 6):
            raise StoreFormatError(f"range index at {p}: malformed node table")
        start, span, a1, b1, a2, b2 = (int(v) for v in entry)
        valid = (
            span >= min_span
            and span & (span - 1) == 0
            and start >= 0
            and start % span == 0
            and start + span <= extent
            and 0 <= a1 <= b1 <= packed1.shape[1]
            and 0 <= a2 <= b2 <= packed2.shape[1]
            and (start, span) not in nodes
        )
        if not valid:
            raise StoreFormatError(
                f"range index at {p}: invalid node entry {entry!r}"
            )
        nodes[(start, span)] = (packed1[:, a1:b1], packed2[:, a2:b2])
    return {
        "extent": extent,
        "per_step": per_step,
        "min_span": min_span,
        "fingerprint": fingerprint,
        "nodes": nodes,
    }


# -- the store manifest ------------------------------------------------------

def write_manifest(directory: "str | os.PathLike", manifest: Mapping[str, Any]) -> Path:
    """Atomically write ``manifest.json`` into a store directory."""
    return _atomic_write_json(Path(directory) / MANIFEST_NAME, manifest)


def read_manifest(directory: "str | os.PathLike") -> dict:
    """Read and validate a store manifest.

    Checks the ``format`` tag, rejects future layout versions, and verifies
    the structural keys every version-1 store carries, so corruption
    surfaces here as a :class:`StoreFormatError` with a precise message —
    not as a ``KeyError`` deep inside the serving layer.
    """
    p = Path(directory)
    if not p.exists():
        raise FileNotFoundError(f"no model store at {p}")
    manifest = _read_json(p / MANIFEST_NAME, what="store manifest")
    _check_format(manifest, STORE_FORMAT, what="model store")
    version = int(_require(manifest, "version", what="store manifest"))
    if version > STORE_VERSION:
        raise StoreFormatError(
            f"store at {p} has layout version {version}; this release reads "
            f"up to version {STORE_VERSION} — upgrade the library"
        )
    for key in ("shape", "ranks", "permutation", "slice_rank", "config", "payloads"):
        _require(manifest, key, what="store manifest")
    shape = manifest["shape"]
    perm = manifest["permutation"]
    if not isinstance(shape, list) or not isinstance(perm, list) or (
        sorted(int(i) for i in perm) != list(range(len(shape)))
    ):
        raise StoreFormatError(
            f"store manifest at {p} has inconsistent shape/permutation: "
            f"{shape!r} / {perm!r}"
        )
    if not isinstance(manifest["payloads"], dict):
        raise StoreFormatError(f"store manifest at {p}: payloads must be a table")
    return manifest
