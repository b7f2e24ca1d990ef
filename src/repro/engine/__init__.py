"""Pluggable parallel execution engine for the D-Tucker hot paths.

Public surface:

* :class:`ExecutionBackend` — the backend interface,
* :class:`SerialBackend` / :class:`ThreadBackend` / :class:`ProcessBackend`
  — the three implementations,
* :func:`chunked` — the map primitive the solvers dispatch per-slice and
  per-mode work through, writing chunk results into a caller-owned output,
* :func:`resolve_backend` / :func:`backend_scope` — turn a backend spec
  (name, instance, config, ``REPRO_BACKEND`` env) into a live backend,
* :class:`PhaseTrace` / :func:`format_traces` — structured per-phase
  execution traces attached to results,
* :func:`plan_chunks` — the chunk plan.

Backend selection
-----------------
Everything accepts a *backend spec*: an :class:`ExecutionBackend` instance
(used as-is), a registry name (``"serial"``, ``"thread"``, ``"process"``),
or ``None``/``"auto"``.  ``auto`` resolves to the ``REPRO_BACKEND``
environment variable when set, else ``serial`` — so an entire test suite or
deployment can be switched to a parallel engine without touching code.
Worker count resolves from the explicit argument, then
``DTuckerConfig.n_workers``, then ``REPRO_WORKERS``, then the CPU count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from ..exceptions import BackendError
from .base import ExecutionBackend, chunked
from .chunking import OVERSPLIT, plan_chunks
from .pipeline import IngestQueue, Prefetcher
from .process import ProcessBackend
from .serial import SerialBackend
from .thread import ThreadBackend
from .trace import PhaseTrace, format_traces, peak_rss_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.config import DTuckerConfig

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "IngestQueue",
    "Prefetcher",
    "PhaseTrace",
    "BACKEND_NAMES",
    "OVERSPLIT",
    "chunked",
    "plan_chunks",
    "resolve_backend",
    "backend_scope",
    "format_traces",
    "peak_rss_bytes",
]

_REGISTRY: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}

#: Names accepted by ``backend=`` arguments (besides ``"auto"``/instances).
BACKEND_NAMES: tuple[str, ...] = tuple(sorted(_REGISTRY))

#: Environment variables consulted by ``"auto"`` resolution.
ENV_BACKEND = "REPRO_BACKEND"
ENV_WORKERS = "REPRO_WORKERS"


def _env_workers() -> int | None:
    raw = os.environ.get(ENV_WORKERS)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise BackendError(f"{ENV_WORKERS}={raw!r} is not an integer") from exc


def resolve_backend(
    spec: "ExecutionBackend | str | None" = None,
    *,
    config: "DTuckerConfig | None" = None,
) -> ExecutionBackend:
    """Resolve a backend spec into a live :class:`ExecutionBackend`.

    Parameters
    ----------
    spec:
        An instance (returned unchanged — ``config`` is then ignored), a
        registry name, ``"auto"``, or ``None`` (falls back to
        ``config.backend``, then ``"auto"``).
    config:
        Optional :class:`~repro.core.config.DTuckerConfig` supplying the
        worker count and chunk size.  An unset worker count falls back to
        the environment (``REPRO_WORKERS``), then to the backend default.  To set a knob for one backend without a
        config, construct the backend class directly.

    Raises
    ------
    BackendError
        On an unknown backend name.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    name = spec if spec is not None else (config.backend if config is not None else "auto")
    if not isinstance(name, str):
        raise BackendError(
            f"backend must be an ExecutionBackend instance or a name, got {name!r}"
        )
    name = name.lower()
    if name == "auto":
        name = os.environ.get(ENV_BACKEND, "serial").lower() or "serial"
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)} "
            f"(or 'auto', or pass an ExecutionBackend instance)"
        )
    n_workers = config.n_workers if config is not None else None
    if n_workers is None:
        n_workers = _env_workers()
    chunk_size = config.chunk_size if config is not None else None
    return _REGISTRY[name](n_workers=n_workers, chunk_size=chunk_size)


@contextmanager
def backend_scope(
    spec: "ExecutionBackend | str | None" = None,
    *,
    config: "DTuckerConfig | None" = None,
) -> Iterator[ExecutionBackend]:
    """Context manager around :func:`resolve_backend` with ownership rules.

    Backends *created* here (from a name/config) are closed on exit;
    caller-supplied instances are left running, so users can share one
    pool across many fits.
    """
    backend = resolve_backend(spec, config=config)
    owned = not isinstance(spec, ExecutionBackend)
    try:
        yield backend
    finally:
        if owned:
            backend.close()
