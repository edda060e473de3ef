"""Consistent-hash routing of requests onto shard processes.

Each claimed speaker has a **ring owner**, the shard process that
serves it while the tier is evenly loaded, so a hot speaker's
sound-field model stays resident in one shard's LRU.  Affinity is a
preference, not a pin: :meth:`ConsistentHashRouter.place` bounds every
shard's share of the requests in flight (consistent hashing with
bounded loads, Mirrokni, Thorup and Zadimoghaddam, arXiv 1608.01350),
and a request whose owner is at the cap walks the ring to the next
shard under it.  Every shard holds the whole trained system, so any
shard decides any speaker identically; a moved request costs at most
one LRU rehydration.  The ring is

- **deterministic across processes and runs** — routing uses a keyed
  ``blake2b`` digest, never Python's per-process salted ``hash()``, so a
  restarted gateway (or a replacement shard forked mid-flight) routes
  every speaker exactly as before;
- **uniform** — each shard places ``vnodes`` points on the ring, which
  keeps the per-shard key share within a few percent of ``1/N`` (the
  router property test pins a chi-square bound);
- **stable under resharding** — growing ``N`` shards to ``N + 1`` moves
  only the keys the new shard's points capture, about ``1/(N+1)`` of
  them; the remaining assignments are untouched (also pinned by test).

This module must stay fork-safe: shard workers are forked from the
gateway process, so no module-level lock/RNG/cache state may exist here
(enforced by the ``fork-safety`` static-analysis rule).
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["ConsistentHashRouter"]

#: Ring points per shard.  More points smooth the per-shard share at the
#: cost of a (one-off) larger ring sort; 1024 keeps the key share
#: statistically indistinguishable from uniform (chi-square well under
#: the 99.9% bound) for shard counts up to 16, at a few ms of build.
DEFAULT_VNODES = 1024

#: Load slack ε of bounded-load placement: with ``m`` requests already in
#: flight, no shard is given a request once it holds ⌈(1 + ε)·(m + 1)/N⌉
#: of them.
LOAD_SLACK = 0.25


def _point(key: str) -> int:
    """Position of ``key`` on the 64-bit ring (process-independent)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRouter:
    """Immutable speaker-id → shard-index map over a hash ring."""

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES):
        if shards < 1:
            raise ConfigurationError("router needs at least one shard")
        if vnodes < 1:
            raise ConfigurationError("vnodes must be positive")
        self.shards = shards
        self.vnodes = vnodes
        ring: List[Tuple[int, int]] = []
        for shard in range(shards):
            for v in range(vnodes):
                ring.append((_point(f"shard:{shard}:vnode:{v}"), shard))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [s for _, s in ring]

    def _start(self, speaker_id: Optional[str]) -> int:
        """Ring index of the point owning ``speaker_id`` (claim-less
        requests route on the empty string, so they still land
        deterministically)."""
        point = _point(speaker_id if speaker_id is not None else "")
        i = bisect.bisect_right(self._points, point)
        return 0 if i == len(self._points) else i  # wrap around the ring

    def route(self, speaker_id: Optional[str]) -> int:
        """The ring owner of ``speaker_id``: the shard that serves it
        whenever that shard is under :meth:`place`'s cap."""
        return self._owners[self._start(speaker_id)]

    def place(self, speaker_id: Optional[str], loads: Sequence[int]) -> int:
        """The shard for one more request, given the requests each shard
        already holds in flight (``loads[shard]``).

        The ring owner, unless it holds ⌈(1 + ε)·(m + 1)/N⌉ of the ``m``
        requests in flight (ε = :data:`LOAD_SLACK`); then the first shard
        under that cap in ring order from the owner.  The ``N`` caps sum
        past ``m``, so some shard is always under its cap.
        """
        if len(loads) != self.shards:
            raise ConfigurationError(
                f"need one load per shard ({self.shards}), got {len(loads)}"
            )
        cap = math.ceil((1 + LOAD_SLACK) * (sum(loads) + 1) / self.shards)
        start = self._start(speaker_id)
        owners = self._owners
        for i in range(start, start + len(owners)):
            shard = owners[i % len(owners)]
            if loads[shard] < cap:
                return shard
        raise AssertionError("unreachable: the caps sum past the loads")

    def assignments(self, speaker_ids: Iterable[str]) -> Dict[str, int]:
        """Route a batch of keys (for rebalancing / ownership reports)."""
        return {key: self.route(key) for key in speaker_ids}

    def resized(self, shards: int) -> "ConsistentHashRouter":
        """A router over a different shard count, same vnode density."""
        return ConsistentHashRouter(shards, vnodes=self.vnodes)
