"""Runtime sanitizers: NaN/Inf guards and the lock-order harness.

The static rules keep non-finite values *unlikely*; these runtime guards
make them *loud* in the builds that opt in (tests, CI, canaries):

- :func:`check_array` / :func:`check_scalar` wrap DSP kernel outputs —
  any NaN/Inf raises :class:`~repro.errors.SanitizerError` naming the
  kernel;
- :func:`check_result` / :func:`check_results` wrap decision frames —
  NaN or ``+inf`` in a component score or its evidence mapping raises.
  ``-inf`` scores are exempt: they are the documented fail-closed error
  marker and must keep flowing to the decision layer;
- :class:`LockOrderGuard` wraps existing ``threading.Lock`` objects
  with ranked proxies that raise :class:`~repro.errors.LockOrderError`
  the moment two locks are ever taken out of rank order on one thread —
  the gateway tests run the serving path under it.

Sanitizing is **off by default** and the disabled path is one module
flag check per guard, so production serving pays (essentially) nothing.
Enable with the ``REPRO_SANITIZE=1`` environment variable or
:func:`enable` (scoped: :func:`activated`).
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping

import numpy as np

from repro.errors import LockOrderError, SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decision import ComponentResult

__all__ = [
    "enabled",
    "enable",
    "disable",
    "activated",
    "check_array",
    "check_scalar",
    "check_result",
    "check_results",
    "LockOrderGuard",
    "OrderedLock",
]

#: The single fast-path flag every guard reads first.
_ACTIVE: bool = os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
    "",
    "0",
    "false",
    "off",
)


def enabled() -> bool:
    """Whether the sanitizers are currently active."""
    return _ACTIVE


def enable() -> None:
    global _ACTIVE
    _ACTIVE = True


def disable() -> None:
    global _ACTIVE
    _ACTIVE = False


@contextmanager
def activated() -> Iterator[None]:
    """Scoped enable (tests): restores the previous state on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = True
    try:
        yield
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# NaN/Inf guards
# ----------------------------------------------------------------------
def check_array(name: str, value: np.ndarray) -> np.ndarray:
    """Pass ``value`` through, raising on any non-finite element.

    Wrap kernel *outputs*: ``return check_array("mel.mfcc", out)``.
    """
    if not _ACTIVE:
        return value
    arr = np.asarray(value)
    if arr.dtype.kind in "fc" and not bool(np.isfinite(arr).all()):
        bad = int(arr.size - int(np.isfinite(arr).sum()))
        raise SanitizerError(
            f"sanitizer: kernel {name!r} produced {bad} non-finite "
            f"value(s) in an array of shape {arr.shape}"
        )
    return value


def check_scalar(name: str, value: float) -> float:
    """Pass a scalar through, raising when it is NaN or infinite."""
    if not _ACTIVE:
        return value
    if not math.isfinite(value):
        raise SanitizerError(
            f"sanitizer: kernel {name!r} produced non-finite value {value!r}"
        )
    return value


def check_result(result: "ComponentResult") -> "ComponentResult":
    """Guard one decision-frame component result.

    NaN and ``+inf`` never mean anything in a score; ``-inf`` is the
    documented fail-closed marker of a crashed component and passes.
    Evidence values must be finite — they are compared against the paper
    thresholds downstream and serialised into the audit log.
    """
    if not _ACTIVE:
        return result
    score = result.score
    if math.isnan(score) or score == math.inf:
        raise SanitizerError(
            f"sanitizer: component {result.name!r} scored {score!r}"
        )
    for key, value in result.evidence.items():
        if not math.isfinite(value):
            raise SanitizerError(
                f"sanitizer: component {result.name!r} evidence "
                f"{key}={value!r} is non-finite"
            )
    return result


def check_results(
    results: Mapping[str, "ComponentResult"],
) -> Mapping[str, "ComponentResult"]:
    """Guard a whole decision frame (the gateway calls this per request)."""
    if not _ACTIVE:
        return results
    for result in results.values():
        check_result(result)
    return results


# ----------------------------------------------------------------------
# Lock-order assertion harness
# ----------------------------------------------------------------------
class OrderedLock:
    """A ranked proxy over a real lock.

    Acquiring it while this thread already holds a lock of equal or
    higher rank raises :class:`LockOrderError` — the canonical deadlock
    precursor — *before* blocking on the underlying lock, so the test
    fails loudly instead of hanging.
    """

    def __init__(
        self, guard: "LockOrderGuard", lock: Any, name: str, rank: int
    ) -> None:
        self._guard = guard
        self._lock = lock
        self.name = name
        self.rank = rank

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._guard._check_acquire(self)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._guard._push(self)
        return acquired

    def release(self) -> None:
        self._guard._pop(self)
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class LockOrderGuard:
    """Registry of ranked locks plus the per-thread held stack.

    Usage (gateway tests)::

        guard = LockOrderGuard()
        gw._lock = guard.wrap(gw._lock, "gateway.admission", rank=10)
        gw._scheduler._lock = guard.wrap(gw._scheduler._lock, "scheduler", rank=20)
        ... drive traffic ...
        assert guard.max_depth() <= 1   # the two never nest today

    The guard itself is cheap enough to leave on for a whole test run;
    it is **not** wired into production construction.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._names: Dict[str, int] = {}
        self._stats_lock = threading.Lock()
        self._max_depth = 0  # guarded-by: _stats_lock
        self._acquisitions = 0  # guarded-by: _stats_lock

    def wrap(self, lock: Any, name: str, rank: int) -> OrderedLock:
        if name in self._names:
            raise LockOrderError(f"lock name {name!r} already registered")
        self._names[name] = rank
        return OrderedLock(self, lock, name, rank)

    def _held(self) -> List[OrderedLock]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def _check_acquire(self, lock: OrderedLock) -> None:
        held = self._held()
        for other in held:
            if other.rank >= lock.rank:
                order = " -> ".join(f"{o.name}({o.rank})" for o in held)
                raise LockOrderError(
                    f"lock order violation: acquiring {lock.name!r} "
                    f"(rank {lock.rank}) while holding [{order}]"
                )

    def _push(self, lock: OrderedLock) -> None:
        held = self._held()
        held.append(lock)
        with self._stats_lock:
            self._acquisitions += 1
            if len(held) > self._max_depth:
                self._max_depth = len(held)

    def _pop(self, lock: OrderedLock) -> None:
        held = self._held()
        if not held or held[-1] is not lock:
            # Out-of-order release — tolerate (remove wherever it is) but
            # it usually indicates the proxy was bypassed.
            if lock in held:
                held.remove(lock)
            return
        held.pop()

    def max_depth(self) -> int:
        with self._stats_lock:
            return self._max_depth

    def acquisitions(self) -> int:
        with self._stats_lock:
            return self._acquisitions
