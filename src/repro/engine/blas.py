"""BLAS coordination helpers: thread-count control.

The thread backend runs several NumPy batched-BLAS calls concurrently.  If
the underlying BLAS (OpenBLAS/MKL) also spawns its own thread team per
call, the machine oversubscribes and the "parallel" run is *slower* than
serial.  When ``threadpoolctl`` is installed it is preferred — it knows
every BLAS/OpenMP runtime loaded in the process, not just the first one
found.  Otherwise this module falls back to its minimal re-implementation:
locate the loaded BLAS shared library via :mod:`ctypes` and flip its
``*_set_num_threads`` knob around parallel sections.  Every probe is
wrapped defensively — when neither path finds a control knob the context
manager is a documented no-op and the thread backend still works (just
without the coordination win).
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "blas_thread_controls",
    "limit_blas_threads",
    "current_blas_threads",
]


_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    # NumPy >= 1.26 wheels vendor scipy-openblas, which prefixes every
    # exported symbol — without these names the probe misses the only BLAS
    # actually loaded and thread control silently degrades to a no-op.
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "MKL_Set_Num_Threads",
    "bli_thread_set_num_threads",
)
_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "mkl_get_max_threads",
    "bli_thread_get_num_threads",
)

_CONTROLS: tuple | None | bool = False  # False = not probed yet

_THREADPOOLCTL: object | None | bool = False  # False = not probed yet


def _threadpoolctl():
    """The ``threadpoolctl`` module when importable and usable, else ``None``.

    Probed once per process (including the negative result).  Anything that
    looks broken — missing module, missing ``threadpool_limits`` attribute —
    degrades to ``None`` so the ctypes fallback takes over.
    """
    global _THREADPOOLCTL
    if _THREADPOOLCTL is not False:
        return _THREADPOOLCTL
    try:
        import threadpoolctl  # type: ignore[import-not-found]

        if not hasattr(threadpoolctl, "threadpool_limits"):
            raise AttributeError("threadpool_limits missing")
        _THREADPOOLCTL = threadpoolctl
    except Exception:
        _THREADPOOLCTL = None
    return _THREADPOOLCTL


def _candidate_libraries() -> list[ctypes.CDLL]:
    """Handles that might expose BLAS thread controls.

    The main process handle sees globally loaded symbols; NumPy/SciPy wheel
    layouts additionally vendor the BLAS under ``*.libs`` directories, and
    ``dlopen``-ing the same file again returns the already-loaded instance.
    """
    handles = []
    try:
        handles.append(ctypes.CDLL(None))
    except OSError:  # pragma: no cover - exotic platforms
        pass
    try:
        import numpy

        roots = [os.path.dirname(os.path.dirname(numpy.__file__))]
    except Exception:  # pragma: no cover - numpy always present here
        roots = []
    for root in roots:
        for pattern in ("*libs/libopenblas*", "*libs/libscipy_openblas*", "*libs/libmkl_rt*"):
            for path in sorted(glob.glob(os.path.join(root, pattern))):
                try:
                    handles.append(ctypes.CDLL(path))
                except OSError:  # pragma: no cover - unloadable stub
                    continue
    return handles


def blas_thread_controls():
    """``(getter, setter)`` ctypes functions, or ``None`` when unavailable.

    The probe runs once per process and is cached, including the negative
    result.
    """
    global _CONTROLS
    if _CONTROLS is not False:
        return _CONTROLS
    for lib in _candidate_libraries():
        for get_name, set_name in zip(_GETTERS, _SETTERS):
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is None or setter is None:
                continue
            try:
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                current = int(getter())
                if current < 1:  # pragma: no cover - defensive
                    continue
                _CONTROLS = (getter, setter)
                return _CONTROLS
            except Exception:  # pragma: no cover - defensive
                continue
    _CONTROLS = None
    return None


def current_blas_threads() -> int | None:
    """The BLAS thread-team size, or ``None`` when it cannot be observed.

    Prefers ``threadpoolctl`` (reports every loaded BLAS; the max is the
    oversubscription-relevant number), falls back to the ctypes getter.
    """
    tpc = _threadpoolctl()
    if tpc is not None:
        try:
            sizes = [
                int(info["num_threads"])
                for info in tpc.threadpool_info()
                if info.get("user_api") == "blas"
            ]
            if sizes:
                return max(sizes)
        except Exception:  # pragma: no cover - defensive
            pass
    controls = blas_thread_controls()
    if controls is None:
        return None
    getter, _ = controls
    return int(getter())


@contextmanager
def limit_blas_threads(n_threads: int) -> Iterator[bool]:
    """Cap the BLAS thread team inside the block; restore on exit.

    Prefers ``threadpoolctl`` when installed (its ``threadpool_limits``
    caps every BLAS runtime loaded in the process), else falls back to the
    ctypes probe.  Yields ``True`` when a control knob was found and
    applied, ``False`` when the block ran as a no-op (unknown BLAS, no
    threadpoolctl) — callers never need to branch, but tests and
    diagnostics can report which case occurred.  No-op-safe on both paths:
    entering and exiting never raises, whatever is (or is not) installed.
    """
    target = max(1, int(n_threads))
    tpc = _threadpoolctl()
    if tpc is not None:
        try:
            with tpc.threadpool_limits(limits=target, user_api="blas"):
                yield True
            return
        except Exception:  # pragma: no cover - broken installs fall through
            pass
    controls = blas_thread_controls()
    if controls is None:
        yield False
        return
    getter, setter = controls
    previous = int(getter())
    if previous == target:
        yield True
        return
    setter(target)
    try:
        yield True
    finally:
        setter(previous)
