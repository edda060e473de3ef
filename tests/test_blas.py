"""The serving objects' hold on single-threaded BLAS (``repro.server.blas``).

Four pins:

- **positive control** — the UBM M-step product ``resp.T @ x`` really
  gives different bits at 1 and at 2 OpenBLAS threads, so the shim
  switches the pool and the other pins can see a thread count;
- **lifecycle** — while a :class:`Gateway`, :class:`VerificationServer`
  or :class:`ShardedGateway` is open every loaded OpenBLAS runs one
  thread, and the last ``close()`` restores each earlier count;
- **training is untouched** — a UBM fitted after a gateway has closed
  has the bits of one fitted in a fresh process;
- **serving invariance** — strict and cascade decisions are
  bitwise-equal at 1 and at 2 threads.  A BLAS call whose bits depend on
  the thread count (say a ``ddot`` past 10,000 elements, which OpenBLAS
  splits across threads) must never join the serving path.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.asv.gmm import DiagonalGMM
from repro.server import (
    Gateway,
    GatewayConfig,
    ShardedGateway,
    VerificationServer,
    decision_fingerprint,
    decode_decision,
    encode_decision,
)
from repro.server.backend import decision_fields
from repro.server.blas import loaded_openblas

#: The UBM M-step's shapes: responsibilities of 32 components over 5000
#: frames of 39 MFCC+delta coefficients.
FRAMES, COMPONENTS, DIMS = 5000, 32, 39

#: Fits a small UBM on seeded frames and prints its means digest; run in
#: a fresh interpreter, where no serving object has ever existed.
_FIT_SCRIPT = """
import hashlib
import numpy as np
from repro.asv.gmm import DiagonalGMM
x = np.random.default_rng(5).standard_normal(({frames}, {dims}))
gmm = DiagonalGMM({components}, max_iter=3, seed=0).fit(x)
print(hashlib.sha256(gmm.means_.tobytes()).hexdigest())
""".format(frames=FRAMES, dims=DIMS, components=COMPONENTS)


def _counts():
    return {lib.path: lib.threads for lib in loaded_openblas()}


@contextlib.contextmanager
def _blas_threads(threads):
    """Run the body with every loaded OpenBLAS at ``threads`` threads."""
    libs = loaded_openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [(lib, lib.threads) for lib in libs]
    for lib in libs:
        lib.set_threads(threads)
    try:
        yield
    finally:
        for lib, count in before:
            lib.set_threads(count)


@pytest.fixture()
def two_threads():
    """Start from two BLAS threads, so a hold has a count to change on
    any machine (one core included)."""
    with _blas_threads(2):
        yield _counts()


def _ubm_digest():
    x = np.random.default_rng(5).standard_normal((FRAMES, DIMS))
    gmm = DiagonalGMM(COMPONENTS, max_iter=3, seed=0).fit(x)
    return hashlib.sha256(gmm.means_.tobytes()).hexdigest()


def test_positive_control_m_step_bits_depend_on_thread_count():
    rng = np.random.default_rng(11)
    resp = rng.random((FRAMES, COMPONENTS))
    x = rng.standard_normal((FRAMES, DIMS))
    with _blas_threads(1):
        one = resp.T @ x
    with _blas_threads(2):
        two = resp.T @ x
    assert not np.array_equal(one, two)
    np.testing.assert_allclose(one, two, rtol=1e-12)


def _open_gateway(system):
    return Gateway(system, GatewayConfig(request_workers=1))


def _open_server(system):
    return VerificationServer(system)


def _open_sharded(system):
    return ShardedGateway(system, GatewayConfig(shards=1))


@pytest.mark.parametrize(
    "open_tier",
    [_open_gateway, _open_server, _open_sharded],
    ids=["gateway", "server", "sharded"],
)
def test_open_tier_holds_one_thread_until_close(small_world, two_threads, open_tier):
    tier = open_tier(small_world.system)
    try:
        assert set(_counts().values()) == {1}
    finally:
        tier.close()
    assert _counts() == two_threads
    tier.close()  # idempotent: a second close releases nothing twice
    assert _counts() == two_threads


def test_count_restored_only_when_the_last_hold_closes(small_world, two_threads):
    first = _open_gateway(small_world.system)
    second = _open_gateway(small_world.system)
    try:
        first.close()  # creation order, not LIFO
        assert set(_counts().values()) == {1}
    finally:
        first.close()
        second.close()
    assert _counts() == two_threads


def test_training_after_close_matches_a_fresh_process(small_world):
    with _blas_threads(1):
        single = _ubm_digest()
    with _blas_threads(2):
        assert _ubm_digest() != single  # the digest sees a thread count
    _open_gateway(small_world.system).close()
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    fresh = subprocess.run(
        [sys.executable, "-c", _FIT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout.strip()
    assert _ubm_digest() == fresh


def _fingerprint(report):
    payload, evidence = decision_fields(report)
    return decision_fingerprint(
        decode_decision(encode_decision(report.accepted, payload, evidence=evidence))
    )


def test_serving_decisions_are_bitwise_invariant_to_thread_count(
    small_world, world_user, world_genuine_capture, world_replay_capture
):
    system = small_world.system

    def decide():
        return [
            _fingerprint(verify(capture, world_user))
            for verify in (system.verify, system.verify_cascade)
            for capture in (world_genuine_capture, world_replay_capture)
        ]

    with _blas_threads(1):
        single = decide()
    with _blas_threads(2):
        double = decide()
    assert double == single
