"""One BLAS thread while a serving object is open.

numpy and scipy each bundle an OpenBLAS with its own thread pool.  A
large enough BLAS call (on the serving path chiefly the MFCC mel
filterbank product, about 213×257 by 257×24) wakes that pool, and the
woken worker then busy-waits for up to 2^28 cycles, about 0.1 s, for the
next call.  A serving object already owns the process's cores for its
stage threads, so on a 2-CPU machine the distance and sound-field
threads lose half a core to a thread that only spins.

:class:`BlasThreadHold` is one process-wide claim on single-threaded
BLAS.  The first live hold records each loaded OpenBLAS's thread count
and sets it to 1; the last release restores the recorded counts.  The
serving objects take a hold when built and release it in ``close()``.

Only the serving path may run at one thread.  Every BLAS call on it
gives the same bits at any thread count (``tests/test_blas.py`` pins
this), but training does not: the UBM M-step's ``resp.T @ x`` rounds
differently at 1 thread than at 2, so a world trained under a hold would
score differently from the committed baselines.  Training therefore runs
before any hold exists, at the process default.

The libraries are found in ``/proc/self/maps`` and driven through
ctypes; with no OpenBLAS loaded (or no ``/proc``) a hold does nothing.
Do not use ``openblas_set_num_threads_local`` for a narrower scope: in
numpy's bundled build it changes the count for the whole process.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["BlasThreadHold", "OpenBLAS", "loaded_openblas"]

#: ``(setter, getter)`` symbol pairs, tried in order: numpy's bundled
#: build, scipy's bundled build, a plain OpenBLAS.
_ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class OpenBLAS:
    """The thread-count controls of one OpenBLAS library in this process."""

    def __init__(self, path: str, setter: Any, getter: Any):
        self.path = path
        self._set = setter
        self._get = getter

    @property
    def threads(self) -> int:
        """The library's current thread count."""
        return int(self._get())

    def set_threads(self, threads: int) -> None:
        self._set(threads)


def _bind(path: str) -> Optional[OpenBLAS]:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for set_name, get_name in _ENTRY_POINTS:
        setter = getattr(lib, set_name, None)
        getter = getattr(lib, get_name, None)
        if setter is None or getter is None:
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return OpenBLAS(path, setter, getter)
    return None


def loaded_openblas() -> List[OpenBLAS]:
    """Every OpenBLAS library mapped into this process, by path."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            rows = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = sorted(
        {
            row[5].strip()
            for row in rows
            if len(row) == 6 and "openblas" in row[5].rsplit("/", 1)[-1].lower()
        }
    )
    return [lib for lib in map(_bind, paths) if lib is not None]


class _ProcessHold:
    """The live holds and the thread counts the first one recorded."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders: Set["BlasThreadHold"] = set()  # guarded-by: _lock
        #: Each pinned library's count before the first hold, by path.
        self._saved: Dict[str, Tuple[OpenBLAS, int]] = {}  # guarded-by: _lock

    def acquire(self, holder: "BlasThreadHold") -> None:
        with self._lock:
            self._holders.add(holder)
            # Also pins a library loaded since the first hold.
            for lib in loaded_openblas():
                if lib.path not in self._saved:
                    self._saved[lib.path] = (lib, lib.threads)
                    lib.set_threads(1)

    def release(self, holder: "BlasThreadHold") -> None:
        with self._lock:
            if holder not in self._holders:
                return
            self._holders.discard(holder)
            if self._holders:
                return
            for lib, threads in self._saved.values():
                lib.set_threads(threads)
            self._saved.clear()


#: OpenBLAS's thread count is process state, so its hold is one too.
_PROCESS_HOLD = _ProcessHold()


class BlasThreadHold:
    """One claim on single-threaded BLAS; :meth:`release` is idempotent."""

    def __init__(self) -> None:
        _PROCESS_HOLD.acquire(self)

    def release(self) -> None:
        _PROCESS_HOLD.release(self)
