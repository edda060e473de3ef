"""Wire protocol between the mobile client and the verification server.

The paper's clients "send zipped data to the Tornado server via a secure
web socket protocol".  We reproduce the data plane: a verification request
carries the claimed identity plus every sensor stream of a capture,
serialised to a compact, CRC-protected binary frame.  (Transport security
is out of scope for an in-process prototype; the frame format leaves a
version byte for negotiating it.)

Frame layout (all integers little-endian):

    magic   2 bytes  b"RV"
    version 1 byte   (2; any other version is refused)
    kind    1 byte   (1 = request, 2 = decision,
                      3 = telemetry request, 4 = telemetry response)
    length  4 bytes  payload length
    crc32   4 bytes  of the payload
    payload          request body, or a zlib-compressed JSON body

A request body is a meta block followed by the capture's arrays:

    meta_len  4 bytes  length of the meta block
    meta      UTF-8 JSON object: claimed_speaker, request_id,
              audio_sample_rate, pilot_hz, source_kind, environment,
              metadata, and ``shapes``: each array's shape, or null for
              an absent audio_secondary
    arrays    float32 samples in the host's byte order (little-endian
              on x86-64 and ARM), C order, back to back in the order
              audio, audio_secondary, magnetometer_t, magnetometer_v,
              accelerometer_t, accelerometer_v, gyroscope_t,
              gyroscope_v

The arrays are not compressed, unlike the paper's zipped upload: float32
sensor noise barely compresses (zlib made a serving-bench frame 1.4%
smaller), and inflating it cost about 6 ms per request.  Raw arrays let
the server slice each one straight out of the frame, and let the sharded
router read the claimed speaker from the meta block alone.  The shapes
must account for exactly the bytes after the meta block, so a malformed
body fails as :class:`~repro.errors.ProtocolError` before any array is
built.  Decision and telemetry bodies are small JSON objects and stay
zlib-compressed.

Telemetry frames let a client scrape the serving side's metrics over the
same channel it authenticates on (the in-process analogue of hitting a
``/metrics`` endpoint): the request names the sections it wants, the
response carries them as a JSON object (and the Prometheus text
exposition as a string field).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.sensors.base import SensorSeries
from repro.world.scene import SensorCapture
from repro.physics.geometry import Pose, SampledPath

_MAGIC = b"RV"
_VERSION = 2
_KIND_REQUEST = 1
_KIND_DECISION = 2
_KIND_TELEMETRY_REQUEST = 3
_KIND_TELEMETRY_RESPONSE = 4
_HEADER = struct.Struct("<2sBBLL")
_META_LEN = struct.Struct("<L")
_FLOAT32_BYTES = 4

#: A request's arrays in wire order, each with the rank its shape must have.
_ARRAYS: Tuple[Tuple[str, int], ...] = (
    ("audio", 1),
    ("audio_secondary", 1),
    ("magnetometer_t", 1),
    ("magnetometer_v", 2),
    ("accelerometer_t", 1),
    ("accelerometer_v", 2),
    ("gyroscope_t", 1),
    ("gyroscope_v", 2),
)

#: Every field of a request's meta block, with the JSON types it accepts
#: (``bool`` is rejected wherever ``int`` is accepted).
_META_FIELDS: Tuple[Tuple[str, Tuple[type, ...]], ...] = (
    ("claimed_speaker", (str, type(None))),
    ("request_id", (str,)),
    ("audio_sample_rate", (int,)),
    ("pilot_hz", (int, float)),
    ("source_kind", (str,)),
    ("environment", (str,)),
    ("metadata", (dict,)),
    ("shapes", (dict,)),
)

#: Public frame-kind values (the return values of :func:`frame_kind`).
KIND_REQUEST = _KIND_REQUEST
KIND_DECISION = _KIND_DECISION
KIND_TELEMETRY_REQUEST = _KIND_TELEMETRY_REQUEST
KIND_TELEMETRY_RESPONSE = _KIND_TELEMETRY_RESPONSE

#: Upper bound on the payload a peer may declare.  A capture is a few
#: hundred kB; anything near this limit is malformed or hostile (zlib
#: decompression bombs), and the guard rejects it before the payload is
#: checksummed, decompressed or sliced.
MAX_PAYLOAD_BYTES = 32 * 1024 * 1024


def _seal(kind: int, payload: bytes) -> bytes:
    header = _HEADER.pack(
        _MAGIC, _VERSION, kind, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )
    return header + payload


def _frame(kind: int, body: dict) -> bytes:
    return _seal(kind, zlib.compress(json.dumps(body).encode("utf-8"), level=6))


def _header(frame: bytes) -> Tuple[int, int, int]:
    """(kind, payload length, crc32) of a frame with valid magic and version."""
    if len(frame) < _HEADER.size:
        raise ProtocolError("frame shorter than header")
    magic, version, kind, length, crc = _HEADER.unpack_from(frame)
    if magic != _MAGIC:
        raise ProtocolError("bad magic")
    if version != _VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    return kind, length, crc


def _payload(frame: bytes, expected_kind: int) -> memoryview:
    """The payload of a frame whose header, size and checksum are valid."""
    kind, length, crc = _header(frame)
    if kind != expected_kind:
        raise ProtocolError(f"expected frame kind {expected_kind}, got {kind}")
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit"
        )
    payload = memoryview(frame)[_HEADER.size :]
    if len(payload) != length:
        raise ProtocolError("frame length mismatch")
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise ProtocolError("payload checksum mismatch")
    return payload


def _unframe(frame: bytes, expected_kind: int) -> dict:
    """The JSON body of a decision or telemetry frame."""
    payload = _payload(frame, expected_kind)
    try:
        return json.loads(zlib.decompress(payload).decode("utf-8"))
    except (zlib.error, ValueError) as exc:
        raise ProtocolError(f"payload decode failed: {exc}") from exc


def frame_kind(frame: bytes) -> int:
    """Peek at a frame's kind byte without decoding the payload.

    Lets a server demultiplex verification and telemetry traffic on the
    same channel.  Validates only the header prefix (length + magic +
    version); full integrity checks happen when the frame is decoded.
    """
    return _header(frame)[0]


def _request_meta(frame: bytes) -> Tuple[Dict[str, Any], memoryview, int]:
    """Check a request frame up to its arrays without building any.

    Returns the meta object, the payload, and the payload offset of the
    first array byte.  Element counts are Python ints, so a hostile
    shape cannot wrap around; the shapes must account for exactly the
    bytes that follow the meta block.
    """
    payload = _payload(frame, _KIND_REQUEST)
    if len(payload) < _META_LEN.size:
        raise ProtocolError("request payload shorter than its meta length")
    (meta_len,) = _META_LEN.unpack_from(payload)
    start = _META_LEN.size + meta_len
    if start > len(payload):
        raise ProtocolError(
            f"meta length {meta_len} overruns the {len(payload)}-byte payload"
        )
    try:
        meta = json.loads(str(payload[_META_LEN.size : start], "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"request meta is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ProtocolError("request meta is not a JSON object")
    for name, types in _META_FIELDS:
        if name not in meta:
            raise ProtocolError(f"request meta lacks {name!r}")
        value = meta[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ProtocolError(
                f"request meta {name!r} has type {type(value).__name__}"
            )
    if meta["audio_sample_rate"] <= 0:
        raise ProtocolError("audio sample rate must be positive")
    shapes = meta["shapes"]
    n_values = 0
    for name, rank in _ARRAYS:
        if name not in shapes:
            raise ProtocolError(f"request meta lacks the shape of {name!r}")
        shape = shapes[name]
        if shape is None and name == "audio_secondary":
            continue
        if (
            not isinstance(shape, list)
            or len(shape) != rank
            or not all(type(dim) is int and dim >= 0 for dim in shape)
        ):
            raise ProtocolError(
                f"shape of {name!r} must be {rank} non-negative ints, "
                f"got {shape!r}"
            )
        n_values += math.prod(shape)
    for stream in ("magnetometer", "accelerometer", "gyroscope"):
        n_times, n_rows = shapes[f"{stream}_t"][0], shapes[f"{stream}_v"][0]
        if n_rows != n_times:
            raise ProtocolError(
                f"{stream} has {n_rows} rows for {n_times} timestamps"
            )
    if shapes["magnetometer_t"][0] == 0:
        raise ProtocolError("empty magnetometer clock")
    if _FLOAT32_BYTES * n_values != len(payload) - start:
        raise ProtocolError(
            f"shapes declare {_FLOAT32_BYTES * n_values} array bytes, "
            f"payload carries {len(payload) - start}"
        )
    return meta, payload, start


def peek_request_meta(frame: bytes) -> Tuple[Optional[str], str]:
    """(claimed_speaker, request_id) of a request frame, nothing else.

    The sharded gateway routes on the claimed speaker in the submitting
    thread, then forwards the frame bytes verbatim to the owning shard,
    which does the full decode.  This runs every check
    :func:`decode_request_full` runs (header, size guard, checksum, the
    meta block and its shapes) but parses only the meta block and builds
    no array, so it accepts exactly the frames the shard can decode.
    """
    meta, _, _ = _request_meta(frame)
    return meta["claimed_speaker"], meta["request_id"]


def encode_request(
    capture: SensorCapture,
    claimed_speaker: Optional[str],
    request_id: str = "",
) -> bytes:
    """Serialise a verification request (capture + claim).

    ``request_id`` is an opaque client-chosen correlation token; the
    server echoes it into the decision frame so concurrent clients can
    match responses to requests.
    """
    sources = {
        "audio": capture.audio,
        "audio_secondary": capture.audio_secondary,
        "magnetometer_t": capture.magnetometer.times,
        "magnetometer_v": capture.magnetometer.values,
        "accelerometer_t": capture.accelerometer.times,
        "accelerometer_v": capture.accelerometer.values,
        "gyroscope_t": capture.gyroscope.times,
        "gyroscope_v": capture.gyroscope.values,
    }
    shapes: Dict[str, Optional[List[int]]] = {}
    arrays: List[bytes] = []
    for name, rank in _ARRAYS:
        source = sources[name]
        if source is None:
            shapes[name] = None
            continue
        arr = np.asarray(source, dtype=np.float32)
        if rank == 1:
            arr = arr.ravel()
        shapes[name] = list(arr.shape)
        arrays.append(arr.tobytes())
    meta = json.dumps(
        {
            "claimed_speaker": claimed_speaker,
            "request_id": request_id,
            "audio_sample_rate": int(capture.audio_sample_rate),
            "pilot_hz": float(capture.pilot_hz),
            "source_kind": capture.source_kind,
            "environment": capture.environment_name,
            "metadata": capture.metadata,
            "shapes": shapes,
        }
    ).encode("utf-8")
    return _seal(
        _KIND_REQUEST, b"".join([_META_LEN.pack(len(meta)), meta, *arrays])
    )


def decode_request(frame: bytes) -> Tuple[SensorCapture, Optional[str]]:
    """Parse a request frame back into a capture + claimed identity."""
    capture, claimed, _ = decode_request_full(frame)
    return capture, claimed


def decode_request_full(
    frame: bytes,
) -> Tuple[SensorCapture, Optional[str], str]:
    """Parse a request frame into capture, claimed identity, request id.

    The trajectory ground truth is not transmitted (the phone does not
    know it); a trivial two-pose placeholder path is attached because the
    capture type requires one — server-side components never read it.
    """
    meta, payload, offset = _request_meta(frame)
    arrays: Dict[str, np.ndarray] = {}
    for name, _ in _ARRAYS:
        shape = meta["shapes"][name]
        if shape is None:
            continue
        count = math.prod(shape)
        # The float32 here is the *wire format*, not a decision-path cast:
        # every serving mode decodes the identical frame bytes, so the
        # quantization is applied once, symmetrically, before any mode
        # diverges — the equivalence harness pins this
        # (tests/test_shard_equivalence.py).
        arrays[name] = np.frombuffer(  # repro: ignore[taint-flow]: float32 is the wire contract; all modes decode the same frame bytes, so the narrowing is mode-invariant by construction
            payload, dtype=np.float32, count=count, offset=offset
        ).reshape(shape).astype(float)
        offset += _FLOAT32_BYTES * count
    times = arrays["magnetometer_t"]
    end = float(times[-1])
    # Not max(end, 1e-3): that keeps a NaN, which the path would refuse.
    placeholder = SampledPath(
        [0.0, end if end > 1e-3 else 1e-3],
        [Pose(np.zeros(3), np.eye(3)), Pose(np.zeros(3), np.eye(3))],
    )
    capture = SensorCapture(
        audio=arrays["audio"],
        audio_sample_rate=meta["audio_sample_rate"],
        pilot_hz=float(meta["pilot_hz"]),
        magnetometer=SensorSeries(times, arrays["magnetometer_v"]),
        accelerometer=SensorSeries(
            arrays["accelerometer_t"], arrays["accelerometer_v"]
        ),
        gyroscope=SensorSeries(arrays["gyroscope_t"], arrays["gyroscope_v"]),
        path=placeholder,
        source_kind=meta["source_kind"],
        environment_name=meta["environment"],
        metadata=meta["metadata"],
        audio_secondary=arrays.get("audio_secondary"),
    )
    return capture, meta["claimed_speaker"], meta["request_id"]


def encode_decision(
    accepted: bool,
    component_results: Dict[str, Tuple[bool, float, str]],
    request_id: str = "",
    evidence: Optional[Dict[str, Dict[str, float]]] = None,
) -> bytes:
    """Serialise the server's decision.

    ``evidence`` optionally attaches each component's structured
    measurement-vs-threshold mapping (see
    :attr:`repro.core.decision.ComponentResult.evidence`) so a client can
    audit the decision offline without access to server logs.
    """
    components: Dict[str, Dict[str, object]] = {}
    for name, (passed, score, detail) in component_results.items():
        entry: Dict[str, object] = {
            "passed": passed,
            "score": score,
            "detail": detail,
        }
        if evidence is not None:
            entry["evidence"] = dict(evidence.get(name, {}))
        components[name] = entry
    body = {
        "accepted": accepted,
        "request_id": request_id,
        "components": components,
    }
    return _frame(_KIND_DECISION, body)


def decode_decision(frame: bytes) -> dict:
    """Parse a decision frame."""
    return _unframe(frame, _KIND_DECISION)


def decision_fingerprint(decision: dict) -> str:
    """Canonical sha256 of one decoded decision body.

    Serialisation is key-sorted compact JSON, so two decisions hash
    equal iff their decoded dictionaries are equal — float scores
    compare at full ``repr`` precision, making this a *bitwise*
    equivalence check across serving modes.
    """
    canonical = json.dumps(
        decision, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def decisions_checksum(decisions: "Iterable[dict]") -> str:
    """Order-insensitive checksum over a set of decoded decisions.

    Hashes each decision with :func:`decision_fingerprint`, sorts the
    digests, and hashes the concatenation — so serving modes that
    complete requests in different orders (threaded, sharded) still
    produce identical checksums when and only when every individual
    decision matches.  Benchmarks persist this next to throughput
    numbers so the bench diff CLI catches silent decision drift.
    """
    digests = sorted(decision_fingerprint(d) for d in decisions)
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


#: Telemetry sections a scrape may request.
TELEMETRY_SECTIONS = (
    "summary",
    "prometheus",
    "stages",
    "drift",
    "slo",
    "abuse",
    "events",
)


def encode_telemetry_request(
    sections: Tuple[str, ...] = ("summary", "prometheus"),
    request_id: str = "",
) -> bytes:
    """Serialise a metrics-scrape request.

    ``sections`` selects what the server should include (see
    :data:`TELEMETRY_SECTIONS`); unknown sections are silently omitted
    from the response, which lets clients probe newer servers safely.
    """
    for section in sections:
        if not isinstance(section, str):
            raise ProtocolError("telemetry sections must be strings")
    body = {"sections": list(sections), "request_id": request_id}
    return _frame(_KIND_TELEMETRY_REQUEST, body)


def decode_telemetry_request(frame: bytes) -> Tuple[Tuple[str, ...], str]:
    """Parse a telemetry request into (sections, request_id)."""
    body = _unframe(frame, _KIND_TELEMETRY_REQUEST)
    sections = body.get("sections", [])
    if not isinstance(sections, list):
        raise ProtocolError("telemetry sections must be a list")
    return tuple(str(s) for s in sections), str(body.get("request_id", ""))


def encode_telemetry_response(telemetry: dict, request_id: str = "") -> bytes:
    """Serialise a telemetry response (section name → JSON value)."""
    body = {"request_id": request_id, "telemetry": telemetry}
    return _frame(_KIND_TELEMETRY_RESPONSE, body)


def decode_telemetry_response(frame: bytes) -> dict:
    """Parse a telemetry response frame."""
    return _unframe(frame, _KIND_TELEMETRY_RESPONSE)
