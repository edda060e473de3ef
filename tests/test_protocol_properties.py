"""Property-style round-trip tests for the wire protocol.

Seeded ``numpy`` generators drive randomized capture shapes, degenerate
score payloads, corruption, truncation, oversized-frame handling, and a
request-frame fuzzer — no extra dependencies, fully deterministic.
"""

import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.physics.geometry import Pose, SampledPath
from repro.sensors.base import SensorSeries
from repro.server.protocol import (
    KIND_DECISION,
    KIND_REQUEST,
    KIND_TELEMETRY_REQUEST,
    KIND_TELEMETRY_RESPONSE,
    MAX_PAYLOAD_BYTES,
    _ARRAYS,
    _HEADER,
    _MAGIC,
    _VERSION,
    _seal,
    decode_decision,
    decode_request,
    decode_request_full,
    encode_decision,
    encode_request,
    peek_request_meta,
)
from repro.world.scene import SensorCapture


def _random_capture(rng: np.random.Generator) -> SensorCapture:
    """A structurally valid capture with randomized shapes and content."""
    n_audio = int(rng.integers(200, 20_000))
    n_sensor = int(rng.integers(8, 200))
    duration = float(rng.uniform(0.2, 3.0))
    times = np.linspace(0.0, duration, n_sensor)
    path = SampledPath(
        [0.0, duration],
        [Pose(np.zeros(3), np.eye(3)), Pose(np.zeros(3), np.eye(3))],
    )
    return SensorCapture(
        audio=rng.normal(0.0, 1.0, n_audio),
        audio_sample_rate=int(rng.choice([16_000, 44_100, 48_000])),
        pilot_hz=float(rng.uniform(17_000.0, 22_000.0)),
        magnetometer=SensorSeries(times, rng.normal(0.0, 40.0, (n_sensor, 3))),
        accelerometer=SensorSeries(times, rng.normal(0.0, 2.0, (n_sensor, 3))),
        gyroscope=SensorSeries(times, rng.normal(0.0, 1.0, (n_sensor, 3))),
        path=path,
        source_kind=str(rng.choice(["human", "loudspeaker", "unknown"])),
        environment_name=f"env-{int(rng.integers(0, 100))}",
        metadata={"trial": int(rng.integers(0, 1_000_000))},
        audio_secondary=(
            rng.normal(0.0, 1.0, n_audio) if rng.random() < 0.5 else None
        ),
    )


class TestRequestRoundTripProperties:
    def test_random_capture_shapes_roundtrip(self):
        rng = np.random.default_rng(20260806)
        for trial in range(8):
            capture = _random_capture(rng)
            claimed = None if trial % 4 == 0 else f"user-{trial}"
            frame = encode_request(capture, claimed, request_id=f"rid-{trial}")
            decoded, got_claimed, request_id = decode_request_full(frame)
            assert got_claimed == claimed
            assert request_id == f"rid-{trial}"
            # The wire narrows to float32; the decode must be exact at
            # float32 resolution for every stream.
            assert np.array_equal(
                decoded.audio, capture.audio.astype(np.float32).astype(float)
            )
            if capture.audio_secondary is None:
                assert decoded.audio_secondary is None
            else:
                assert np.array_equal(
                    decoded.audio_secondary,
                    capture.audio_secondary.astype(np.float32).astype(float),
                )
            for stream in ("magnetometer", "accelerometer", "gyroscope"):
                orig = getattr(capture, stream)
                got = getattr(decoded, stream)
                assert got.values.shape == orig.values.shape
                assert np.array_equal(
                    got.values, orig.values.astype(np.float32).astype(float)
                )
            assert decoded.audio_sample_rate == capture.audio_sample_rate
            assert decoded.metadata == capture.metadata
            assert decoded.source_kind == capture.source_kind

    def test_request_id_default_is_empty(self):
        rng = np.random.default_rng(7)
        frame = encode_request(_random_capture(rng), "alice")
        _, claimed, request_id = decode_request_full(frame)
        assert claimed == "alice"
        assert request_id == ""


class TestDecisionPayloadProperties:
    def test_degenerate_scores_roundtrip(self):
        cases = {
            "nan": float("nan"),
            "pos_inf": float("inf"),
            "neg_inf": float("-inf"),
            "zero": 0.0,
            "tiny": 5e-324,
            "huge": 1.7e308,
        }
        frame = encode_decision(
            False,
            {name: (False, score, "edge") for name, score in cases.items()},
            request_id="edge-scores",
        )
        decision = decode_decision(frame)
        assert decision["request_id"] == "edge-scores"
        got = {k: v["score"] for k, v in decision["components"].items()}
        assert math.isnan(got["nan"])
        assert got["pos_inf"] == float("inf")
        assert got["neg_inf"] == float("-inf")
        assert got["zero"] == 0.0
        assert got["tiny"] == 5e-324
        assert got["huge"] == 1.7e308

    def test_empty_component_payload_roundtrip(self):
        decision = decode_decision(encode_decision(True, {}))
        assert decision["accepted"] is True
        assert decision["components"] == {}

    def test_random_score_values_roundtrip_bitwise(self):
        rng = np.random.default_rng(99)
        scores = rng.normal(0.0, 1e6, 64).tolist()
        frame = encode_decision(
            True, {f"c{i}": (True, s, "") for i, s in enumerate(scores)}
        )
        decision = decode_decision(frame)
        for i, s in enumerate(scores):
            assert decision["components"][f"c{i}"]["score"] == s


class TestFrameDamageProperties:
    @pytest.fixture(scope="class")
    def valid_frame(self):
        rng = np.random.default_rng(4242)
        return encode_request(_random_capture(rng), "bob", request_id="dmg")

    def test_truncation_at_any_point_rejected(self, valid_frame):
        rng = np.random.default_rng(11)
        cuts = {0, 1, _HEADER.size - 1, _HEADER.size, len(valid_frame) - 1} | {
            int(c) for c in rng.integers(0, len(valid_frame), 16)
        }
        for cut in sorted(cuts):
            if cut >= len(valid_frame):
                continue
            with pytest.raises(ProtocolError):
                decode_request(valid_frame[:cut])

    def test_single_byte_corruption_rejected(self, valid_frame):
        rng = np.random.default_rng(13)
        for _ in range(16):
            pos = int(rng.integers(0, len(valid_frame)))
            flip = int(rng.integers(1, 256))
            damaged = bytearray(valid_frame)
            damaged[pos] ^= flip
            with pytest.raises(ProtocolError):
                decode_request(bytes(damaged))

    def test_oversized_declared_payload_rejected(self):
        header = _HEADER.pack(_MAGIC, _VERSION, 1, MAX_PAYLOAD_BYTES + 1, 0)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_request(header + b"x" * 32)

    def test_oversized_real_frame_rejected_cheaply(self, valid_frame):
        """A frame *declaring* a bomb-sized payload dies before inflation."""
        magic, version, kind, _length, crc = _HEADER.unpack(
            valid_frame[: _HEADER.size]
        )
        bad_header = _HEADER.pack(magic, version, kind, 2**31 - 1, crc)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_request(bad_header + valid_frame[_HEADER.size :])


def _split(frame: bytes):
    """(meta object, array bytes) of a valid request frame."""
    payload = frame[_HEADER.size :]
    (meta_len,) = struct.unpack_from("<L", payload)
    return json.loads(payload[4 : 4 + meta_len]), payload[4 + meta_len :]


def _body(meta, arrays: bytes = b"") -> bytes:
    """A request body: meta (an object, or raw bytes) then array bytes."""
    raw = meta if isinstance(meta, bytes) else json.dumps(meta).encode("utf-8")
    return struct.pack("<L", len(raw)) + raw + arrays


#: What a mutated frame must do: be rejected, be accepted, or either.
REJECT, ACCEPT, EITHER = "reject", "accept", "either"


def _request_mutations(frame: bytes, rng: np.random.Generator):
    """Seeded ``(label, payload, kind, verdict)`` mutations of one valid
    request frame.  The caller re-seals each with a valid length and
    CRC32, so it reaches the body parser instead of dying at the checksum.
    """
    payload = frame[_HEADER.size :]
    meta, arrays = _split(frame)
    raw_meta = json.dumps(meta).encode("utf-8")
    shapes = meta["shapes"]
    assert payload == _body(raw_meta, arrays)

    def case(label, body, verdict=REJECT, kind=KIND_REQUEST):
        return label, body, kind, verdict

    yield case("unmodified", payload, ACCEPT)
    yield case("unknown meta key", _body({**meta, "extra": [1]}, arrays), ACCEPT)

    # Bit flips and truncation inside the meta block.
    for i in range(48):
        flipped = bytearray(raw_meta)
        for pos in rng.integers(0, len(flipped), int(rng.integers(1, 4))):
            flipped[int(pos)] ^= 1 << int(rng.integers(0, 8))
        yield case(f"meta bit flip {i}", _body(bytes(flipped), arrays), EITHER)
    cuts = {0, 1, len(raw_meta) - 1, *rng.integers(0, len(raw_meta), 10)}
    for cut in sorted(int(c) for c in cuts):
        yield case(f"payload cut in meta at {cut}", payload[: 4 + cut])
        yield case(f"meta cut at {cut}", _body(raw_meta[:cut], arrays))

    # Edits to the meta-length field.
    rest = payload[4:]
    lengths = {
        0, 1, len(raw_meta) - 1, len(raw_meta) + 1, len(rest), len(rest) + 1,
        2**31, 2**32 - 1, *rng.integers(0, 2**32, 6),
    }
    for meta_len in sorted(int(n) for n in lengths):
        yield case(f"meta length {meta_len}", struct.pack("<L", meta_len) + rest)
    for short in (b"", b"\x00", b"\x00\x00\x00"):
        yield case(f"{len(short)}-byte payload", short)

    # Dimensions: negative, non-integer, wrong rank, huge, or wrapping.
    def with_shape(name, shape):
        return _body({**meta, "shapes": {**shapes, name: shape}}, arrays)

    n = shapes["audio"][0]
    rows, cols = shapes["magnetometer_v"]
    for shape in (
        [-1], [-n], [1.5], [float(n)], [str(n)], [True], [None], [[n]], [],
        [n, 1], 3, None, {"n": n}, [2**40], [2**64], [2**63 + n],
        [n + 2**62],  # 4 bytes each: wraps to the true byte count in 64 bits
    ):
        yield case(f"audio shape {shape!r}", with_shape("audio", shape))
    for shape in (
        [-rows, cols], [rows, -cols], [rows, 2.0], [rows], [rows, cols, 1],
        [2**32, 2**32], [rows, cols + 2**62], [cols, rows], [rows + 1, cols],
    ):
        label = f"magnetometer_v shape {shape!r}"
        yield case(label, with_shape("magnetometer_v", shape))

    # Array bytes cut short or extended, and trailing bytes.
    for k in (1, 3, 4, 5, 8, int(rng.integers(9, len(arrays)))):
        yield case(f"arrays cut short by {k}", payload[:-k])
    for k in (1, 3, 4, 8):
        yield case(f"{k} trailing bytes", payload + rng.bytes(k))

    # An empty magnetometer clock, with shapes and bytes that agree.
    spans, at = {}, 0
    for name, _ in _ARRAYS:
        size = 0 if shapes[name] is None else 4 * math.prod(shapes[name])
        spans[name] = slice(at, at + size)
        at += size
    kept = b"".join(
        arrays[spans[name]] for name, _ in _ARRAYS if not name.startswith("magnet")
    )
    empty = {**shapes, "magnetometer_t": [0], "magnetometer_v": [0, cols]}
    yield case("empty magnetometer clock", _body({**meta, "shapes": empty}, kept))

    # Meta that is not a JSON object.
    for raw in (b"[]", b"[1, 2]", b'"meta"', b"3", b"null", b"true", b"",
                b"\xff\xfe", b"[" * 100_000):
        yield case(f"meta {raw[:8]!r}", _body(raw, arrays))

    # Missing and mistyped fields.
    for name in meta:
        partial = {k: v for k, v in meta.items() if k != name}
        yield case(f"missing {name}", _body(partial, arrays))
    for name in shapes:
        partial = {k: v for k, v in shapes.items() if k != name}
        yield case(f"missing shape {name}", _body({**meta, "shapes": partial}, arrays))
    mistyped = {
        "claimed_speaker": [5, ["bob"]],
        "request_id": [None, 7],
        "audio_sample_rate": [16_000.5, "16000", True, 0, -16_000],
        "pilot_hz": ["19000", None, False],
        "source_kind": [1],
        "environment": [[]],
        "metadata": [[], "x"],
        "shapes": [[], None],
    }
    for name, values in mistyped.items():
        for value in values:
            yield case(f"{name}={value!r}", _body({**meta, name: value}, arrays))

    # The wrong frame kind.
    wrong_kinds = (KIND_DECISION, KIND_TELEMETRY_REQUEST, KIND_TELEMETRY_RESPONSE)
    for kind in (0, *wrong_kinds, 255):
        yield case(f"frame kind {kind}", payload, kind=kind)


def _traced(call, frame: bytes):
    """(result or ProtocolError, peak bytes allocated during the call)."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = call(frame)
    except ProtocolError as exc:
        result = exc
    return result, tracemalloc.get_traced_memory()[1] - base


class TestRequestFrameFuzz:
    """Seeded mutations of one valid request frame.

    Every input must end in a capture or a :class:`ProtocolError` from
    both ``decode_request_full`` and ``peek_request_meta``, and the two
    must agree; any other exception fails the test.  Memory is bounded by
    what the peer sent, never by what it declared: a rejected frame
    allocates no more than its payload, an accepted one no more than the
    float64 widening of its payload (twice its size), each plus a fixed
    64 kB for the parsed meta block and the interpreter's bookkeeping.
    """

    SLACK = 64 * 1024

    @pytest.fixture(scope="class")
    def valid_frame(self):
        capture = _random_capture(np.random.default_rng(5150))
        small = dataclasses.replace(
            capture, audio=capture.audio[:4_000], audio_secondary=None
        )
        return encode_request(small, "carol", request_id="fuzz")

    def test_every_mutation_decodes_or_raises_protocol_error(self, valid_frame):
        rng = np.random.default_rng(20261017)
        tracemalloc.start()
        try:
            for label, payload, kind, verdict in _request_mutations(valid_frame, rng):
                frame = _seal(kind, payload)
                decoded, decode_peak = _traced(decode_request_full, frame)
                peeked, peek_peak = _traced(peek_request_meta, frame)
                rejected = isinstance(decoded, ProtocolError)
                assert verdict != (ACCEPT if rejected else REJECT), label
                assert isinstance(peeked, ProtocolError) == rejected, label
                budget = (1 if rejected else 2) * len(payload) + self.SLACK
                assert decode_peak <= budget, (label, decode_peak)
                assert peek_peak <= len(payload) + self.SLACK, (label, peek_peak)
                if not rejected:
                    capture, claimed, request_id = decoded
                    assert isinstance(capture, SensorCapture), label
                    assert peeked == (claimed, request_id), label
        finally:
            tracemalloc.stop()
