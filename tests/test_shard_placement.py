"""Bounded-load placement on the sharded tier.

``small_world``'s two users both hash to shard 0 of two, so with plain
ring routing every request of a burst queues on one shard while the
other idles.  With bounded loads a request leaves its ring owner only
when the owner already holds its cap of the requests in flight: a burst
spills onto shard 1, one request at a time leaves everything on the
owner, and either way every decision frame is byte-identical to the
threaded gateway's, because every shard holds the whole trained system.
"""

import numpy as np
import pytest

from repro.experiments.world import make_trajectory
from repro.obs.events import WideEventRecorder
from repro.server import (
    ConsistentHashRouter,
    Gateway,
    GatewayConfig,
    ShardedGateway,
    encode_request,
)
from repro.world.humans import HumanSpeakerSource
from repro.world.scene import simulate_capture
from tests.test_golden_decisions import _environment

#: Requests per burst, alternating between the two users.
N_FRAMES = 8
#: Frame i is simulated from ``default_rng(FRAME_SEED + i)``, so the burst
#: does not depend on which tests ran before.
FRAME_SEED = 9400


def _genuine_frame(world, user, rng, request_id):
    account = world.user(user)
    waveform = world.synthesizer.synthesize_digits(
        account.profile, account.passphrase, rng
    ).waveform
    capture = simulate_capture(
        world.phone,
        HumanSpeakerSource(account.profile),
        _environment("quiet_room"),
        make_trajectory(0.05),
        waveform,
        world.synthesizer.sample_rate,
        rng,
    )
    return encode_request(capture, user, request_id=request_id)


@pytest.fixture(scope="module")
def burst(small_world):
    users = sorted(small_world.users)
    return [
        _genuine_frame(
            small_world,
            users[i % len(users)],
            np.random.default_rng(FRAME_SEED + i),
            f"burst-{i}",
        )
        for i in range(N_FRAMES)
    ]


@pytest.fixture(scope="module")
def threaded_decisions(small_world, burst):
    with Gateway(small_world.system, GatewayConfig(request_workers=2)) as gateway:
        return gateway.handle_many(burst)


def test_both_users_are_owned_by_shard_zero(small_world):
    router = ConsistentHashRouter(2)
    assert {router.route(user) for user in small_world.users} == {0}


def test_burst_spills_onto_the_second_shard(small_world, burst, threaded_decisions):
    events = WideEventRecorder(head_rate=1)  # keeps every event
    with ShardedGateway(
        small_world.system, GatewayConfig(shards=2), events=events
    ) as gateway:
        decisions = gateway.handle_many(burst)
        summary = gateway.metrics_summary()
        generations = gateway.shard_generations
    assert decisions == threaded_decisions
    assert summary["counters"]["requests_rerouted"] > 0
    assert {e.shard_id for e in events.recent(N_FRAMES)} == {0, 1}
    # Each strict request looks its speaker's sound-field model up once,
    # in whichever shard served it.
    cache = summary["soundfield_cache"]
    assert cache["hits"] + cache["misses"] == N_FRAMES
    assert generations == [0, 0]


def test_one_request_at_a_time_stays_on_the_ring_owner(
    small_world, burst, threaded_decisions
):
    events = WideEventRecorder(head_rate=1)
    with ShardedGateway(
        small_world.system, GatewayConfig(shards=2), events=events
    ) as gateway:
        decisions = [gateway.handle(frame) for frame in burst]
        counters = gateway.metrics_summary()["counters"]
    assert decisions == threaded_decisions
    assert counters.get("requests_rerouted", 0) == 0
    assert {e.shard_id for e in events.recent(N_FRAMES)} == {0}
