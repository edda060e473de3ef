"""Property tests for the consistent-hash speaker → shard router.

Four properties the sharded tier leans on:

- **uniformity** — the per-shard key share stays statistically
  indistinguishable from uniform (chi-square bound over a large key
  population);
- **stability under resharding** — growing N shards to N + 1 moves at
  most ``1/(N+1) + ε`` of the keys, and every key that moves lands on
  the *new* shard (consistent hashing's defining property);
- **determinism across processes and runs** — routing is a keyed
  digest, never the per-process salted ``hash()``, so a subprocess with
  a different ``PYTHONHASHSEED`` reproduces the exact assignment map,
  and the exact placements under load;
- **bounded loads** — :meth:`ConsistentHashRouter.place` keeps a key on
  its ring owner while the owner is under the cap ⌈(1 + ε)·(m + 1)/N⌉,
  never picks a shard at the cap, and otherwise takes the first shard
  under it in ring order.
"""

import bisect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from repro.errors import ConfigurationError
from repro.server.router import LOAD_SLACK, ConsistentHashRouter, _point

KEYS = [f"speaker-{i:05d}" for i in range(4000)]


def _loads_for(index: int, shards: int):
    """A deterministic in-flight load vector for key ``index``."""
    return [(index * (7 + s) + s * s) % 6 for s in range(shards)]


class TestUniformity:
    @pytest.mark.parametrize("shards", [2, 3, 4, 8])
    def test_chi_square_uniform(self, shards):
        router = ConsistentHashRouter(shards)
        counts = [0] * shards
        for key in KEYS:
            counts[router.route(key)] += 1
        expected = len(KEYS) / shards
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        # 99.9th percentile of chi2(N-1): a uniform router fails this
        # one run in a thousand *if the draw were random* — but the
        # router is deterministic, so a failure is a real skew, not
        # flakiness.
        bound = stats.chi2.ppf(0.999, df=shards - 1)
        assert chi2 < bound, (counts, chi2, bound)

    def test_every_shard_owns_keys(self):
        router = ConsistentHashRouter(8)
        owned = set(router.assignments(KEYS).values())
        assert owned == set(range(8))


class TestReshardingStability:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_growth_moves_at_most_one_share(self, shards):
        before = ConsistentHashRouter(shards).assignments(KEYS)
        after = ConsistentHashRouter(shards).resized(shards + 1).assignments(
            KEYS
        )
        moved = [k for k in KEYS if before[k] != after[k]]
        # Consistent hashing: ~1/(N+1) of keys move; ε covers vnode
        # granularity.
        assert len(moved) / len(KEYS) <= 1.0 / (shards + 1) + 0.05
        # ... and every moved key lands on the shard that was added.
        assert all(after[k] == shards for k in moved)

    def test_surviving_assignments_untouched(self):
        before = ConsistentHashRouter(4).assignments(KEYS)
        after = ConsistentHashRouter(5).assignments(KEYS)
        for key in KEYS:
            if after[key] != 4:
                assert after[key] == before[key]


class TestDeterminism:
    def test_repeated_construction_is_identical(self):
        a = ConsistentHashRouter(4).assignments(KEYS)
        b = ConsistentHashRouter(4).assignments(KEYS)
        assert a == b

    def test_claimless_requests_route_deterministically(self):
        router = ConsistentHashRouter(4)
        assert router.route(None) == router.route(None)
        assert router.route(None) == router.route("")

    @pytest.mark.parametrize("hashseed", ["0", "12345"])
    def test_routing_survives_hash_randomization(self, hashseed):
        """A subprocess with a different PYTHONHASHSEED must reproduce
        the parent's assignment map bit for bit."""
        sample = KEYS[:200]
        parent = ConsistentHashRouter(4).assignments(sample)
        placed = [
            ConsistentHashRouter(4).place(key, _loads_for(i, 4))
            for i, key in enumerate(sample)
        ]
        script = (
            "import json, sys\n"
            "from repro.server.router import ConsistentHashRouter\n"
            "from tests.test_shard_router import _loads_for\n"
            "keys = json.load(sys.stdin)\n"
            "router = ConsistentHashRouter(4)\n"
            "print(json.dumps([\n"
            "    router.assignments(keys),\n"
            "    [router.place(k, _loads_for(i, 4)) for i, k in enumerate(keys)],\n"
            "]))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        repo_root = os.path.join(os.path.dirname(__file__), "..")
        src_root = os.path.join(repo_root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, repo_root, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(sample),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert json.loads(out.stdout) == [parent, placed]


def _cap(loads):
    return math.ceil((1 + LOAD_SLACK) * (sum(loads) + 1) / len(loads))


def _ring_order(router, key):
    """Distinct shards in ring order from ``key``'s point: a reference
    walk over the ring, independent of :meth:`ConsistentHashRouter.place`."""
    points = sorted(
        (_point(f"shard:{s}:vnode:{v}"), s)
        for s in range(router.shards)
        for v in range(router.vnodes)
    )
    start = bisect.bisect_right([p for p, _ in points], _point(key))
    order = []
    for i in range(start, start + len(points)):
        shard = points[i % len(points)][1]
        if shard not in order:
            order.append(shard)
    return order


class TestBoundedLoads:
    """Placement under load, over seeded random in-flight load vectors."""

    @staticmethod
    def _cases(shards, n=400, seed=0):
        rng = np.random.default_rng(seed + shards)
        for i in range(n):
            high = int(rng.integers(1, 12))
            yield KEYS[i], [int(x) for x in rng.integers(0, high, shards)]

    @pytest.mark.parametrize("shards", [2, 3, 4, 8])
    def test_owner_under_the_cap_keeps_its_key(self, shards):
        router = ConsistentHashRouter(shards)
        kept = 0
        for key, loads in self._cases(shards):
            owner = router.route(key)
            if loads[owner] < _cap(loads):
                assert router.place(key, loads) == owner, (key, loads)
                kept += 1
        assert kept > 0

    @pytest.mark.parametrize("shards", [2, 3, 4, 8])
    def test_never_places_at_or_over_the_cap(self, shards):
        router = ConsistentHashRouter(shards)
        for key, loads in self._cases(shards):
            assert loads[router.place(key, loads)] < _cap(loads), (key, loads)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_takes_the_first_shard_under_the_cap_in_ring_order(self, shards):
        router = ConsistentHashRouter(shards)
        moved = 0
        for key, loads in self._cases(shards, n=60):
            cap = _cap(loads)
            expected = next(
                s for s in _ring_order(router, key) if loads[s] < cap
            )
            assert router.place(key, loads) == expected, (key, loads)
            moved += expected != router.route(key)
        assert moved > 0

    def test_an_empty_tier_places_on_the_owner(self):
        router = ConsistentHashRouter(4)
        for key in KEYS[:200]:
            assert router.place(key, [0, 0, 0, 0]) == router.route(key)

    def test_one_shard_always_takes_the_request(self):
        router = ConsistentHashRouter(1)
        for i, key in enumerate(KEYS[:200]):
            assert router.place(key, [i]) == 0

    def test_load_vector_must_cover_every_shard(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRouter(2).place("speaker", [0])


class TestValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRouter(0)

    def test_rejects_zero_vnodes(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRouter(2, vnodes=0)
