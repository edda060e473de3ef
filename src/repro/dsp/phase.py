"""Phase-based displacement recovery for the ranging pilot.

The distance-verification component follows the LLAP-style method of
Wang et al. [49] cited by the paper: the phone plays an inaudible tone at
``fs`` (>16 kHz, wavelength < 2.2 cm), the microphone records the mixture of
the direct path and the echo off the user's head, and the echo's phase
rotates by 2π for every half-wavelength of phone motion (the path is
out-and-back, so path length changes at twice the phone speed relative to
the head... here the phone carries both the speaker and the microphone, so
the echo path is ``2·d`` and phase is ``4π·d/λ``).

Pipeline: band-pass around the pilot → IQ demodulation → static (direct
path / LOS leakage) removal → phase unwrap → displacement.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dsp.filters import lowpass, zero_phase_batch
from repro.errors import SignalError
from repro.physics.acoustics import SPEED_OF_SOUND


#: Samples of context carried past each chunk boundary when demodulating
#: in chunks.  The zero-phase Butterworth's impulse response decays below
#: 1e-12 well inside this span for every pilot low-pass the system uses,
#: so chunked output matches whole-signal output to ~1e-12.
CHUNK_OVERLAP = 8192

#: Mixing grids are cached for signals up to this many samples (about
#: 5.5 s at 48 kHz), so the cache below never holds more than 16 MiB.
_GRID_CACHE_SAMPLES = 1 << 18


@lru_cache(maxsize=4)
def _mixing_grid(
    n: int, sample_rate: float, carrier_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(cos w, sin w)`` of the whole-signal mixing phase ``w``.

    The grid depends only on the sample count, rate and carrier, and
    every request of a deployment shares them, so it is built once
    instead of costing two transcendental passes per capture.  Each
    entry is computed exactly as the uncached expression would be, at
    its own length (numpy's SIMD loops may round a slice of a longer
    grid's tail differently).  Callers must not write to the arrays.
    """
    t = np.arange(n) / sample_rate
    w = (-2.0 * np.pi * carrier_hz) * t
    cos_w, sin_w = np.cos(w), np.sin(w)
    cos_w.setflags(write=False)
    sin_w.setflags(write=False)
    return cos_w, sin_w


def _whole_grid(
    n: int, sample_rate: float, carrier_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_mixing_grid`, bypassing the cache for long signals."""
    if n > _GRID_CACHE_SAMPLES:
        return _mixing_grid.__wrapped__(n, sample_rate, carrier_hz)
    return _mixing_grid(n, sample_rate, carrier_hz)


def iq_demodulate(
    x: np.ndarray,
    carrier_hz: float,
    sample_rate: int,
    lowpass_hz: float = 400.0,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Complex baseband of ``x`` around ``carrier_hz``.

    Multiplies by a complex exponential and low-passes both quadratures;
    the result's angle is the carrier phase, its magnitude the envelope.

    With ``chunk_size`` set, the signal is processed in chunks of that
    many samples (each extended by :data:`CHUNK_OVERLAP` context on both
    sides before filtering), bounding peak memory to the chunk instead of
    the capture.  The mixing grid uses global sample indices, so chunked
    and whole-signal results agree to filter-transient precision (~1e-12).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise SignalError("iq_demodulate expects a non-empty 1-D signal")
    if not 0.0 < carrier_hz < sample_rate / 2.0:
        raise SignalError("carrier must lie inside (0, Nyquist)")
    if not 0.0 < lowpass_hz < sample_rate / 2.0:
        raise SignalError("lowpass_hz must lie inside (0, Nyquist)")
    if chunk_size is not None and chunk_size <= 0:
        raise SignalError("chunk_size must be positive")
    # The mixer is evaluated as separate cos/sin rails: ``exp(i·w)`` for a
    # pure-imaginary argument is computed by the C library as
    # ``(cos w, sin w)`` with ``exp(±0)=1``, so mixing with ``cos``/``sin``
    # of the same phase grid is bitwise-identical to the complex
    # exponential while skipping the complex temporaries.
    if chunk_size is None or x.size <= chunk_size:
        cos_w, sin_w = _whole_grid(x.size, sample_rate, carrier_hz)
        i, q = zero_phase_batch(
            [
                (x * cos_w, 4, float(lowpass_hz), "low", int(sample_rate)),
                (x * sin_w, 4, float(lowpass_hz), "low", int(sample_rate)),
            ]
        )
        return _assemble_complex(i, q)
    out = np.empty(x.size, dtype=complex)
    for start in range(0, x.size, chunk_size):
        end = min(start + chunk_size, x.size)
        ctx_start = max(0, start - CHUNK_OVERLAP)
        ctx_end = min(x.size, end + CHUNK_OVERLAP)
        t = np.arange(ctx_start, ctx_end) / sample_rate
        w = (-2.0 * np.pi * carrier_hz) * t
        seg = x[ctx_start:ctx_end]
        i, q = zero_phase_batch(
            [
                (seg * np.cos(w), 4, float(lowpass_hz), "low", int(sample_rate)),
                (seg * np.sin(w), 4, float(lowpass_hz), "low", int(sample_rate)),
            ]
        )
        keep = slice(start - ctx_start, start - ctx_start + (end - start))
        out[start:end] = _assemble_complex(i[keep], q[keep])
    return out


def _assemble_complex(i: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``i + 1.0j * q`` without the complex temporaries.

    Componentwise the original expression computes ``real = i + q*0.0``
    and ``imag = 0.0 + q*1.0``; writing those same operations into the
    output's component views keeps every rounding (including signed-zero
    edge cases) identical while skipping two full-size complex arrays.
    """
    out = np.empty(i.shape, dtype=complex)
    np.add(i, q * 0.0, out=out.real)
    np.add(q * 1.0, 0.0, out=out.imag)
    return out


class StreamingIQDemodulator:
    """Incremental IQ demodulation over a bounded ring buffer.

    ``push`` accepts arbitrary-size chunks and returns baseband samples as
    soon as their :data:`CHUNK_OVERLAP` right-context has arrived;
    ``finalize`` flushes the tail.  Internally the raw buffer is trimmed
    to the context window, so peak memory is ``chunk_size + 2·overlap``
    samples regardless of capture length.

    The mixing grid uses global sample indices and each emitted chunk
    reproduces the exact context/filter calls of
    :func:`iq_demodulate`'s chunked path, so the concatenated output is
    **bitwise-identical** to
    ``iq_demodulate(x, ..., chunk_size=chunk_size)`` on the concatenated
    signal, however the pushes split it (pinned in
    ``tests/test_vectorized_kernels.py``).
    """

    def __init__(
        self,
        carrier_hz: float,
        sample_rate: int,
        lowpass_hz: float = 400.0,
        chunk_size: int = 65536,
    ):
        if not 0.0 < carrier_hz < sample_rate / 2.0:
            raise SignalError("carrier must lie inside (0, Nyquist)")
        if not 0.0 < lowpass_hz < sample_rate / 2.0:
            raise SignalError("lowpass_hz must lie inside (0, Nyquist)")
        if chunk_size <= 0:
            raise SignalError("chunk_size must be positive")
        self.carrier_hz = float(carrier_hz)
        self.sample_rate = int(sample_rate)
        self.lowpass_hz = float(lowpass_hz)
        self.chunk_size = int(chunk_size)
        self._buf = np.empty(0)
        self._buf_start = 0  # global sample index of _buf[0]
        self._emitted = 0  # next output sample (a chunk_size multiple)
        self._finalized = False

    def _demod_span(self, start: int, end: int, total: int) -> np.ndarray:
        """One output span, exactly as iq_demodulate's chunked loop."""
        ctx_start = max(0, start - CHUNK_OVERLAP)
        ctx_end = min(total, end + CHUNK_OVERLAP)
        t = np.arange(ctx_start, ctx_end) / self.sample_rate
        w = (-2.0 * np.pi * self.carrier_hz) * t
        seg = self._buf[ctx_start - self._buf_start : ctx_end - self._buf_start]
        i, q = zero_phase_batch(
            [
                (seg * np.cos(w), 4, self.lowpass_hz, "low", self.sample_rate),
                (seg * np.sin(w), 4, self.lowpass_hz, "low", self.sample_rate),
            ]
        )
        keep = slice(start - ctx_start, start - ctx_start + (end - start))
        return _assemble_complex(i[keep], q[keep])

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Consume samples; return whatever baseband became final."""
        if self._finalized:
            raise SignalError("push after finalize")
        x = np.asarray(chunk, dtype=float)
        if x.ndim != 1:
            raise SignalError("push expects a 1-D chunk")
        if x.size:
            self._buf = np.concatenate([self._buf, x])
        buffered = self._buf_start + self._buf.size
        spans = []
        # A span is final once its full right-context has arrived; with
        # more signal still to come, ctx_end never clips, matching the
        # one-shot's min(x.size, end + overlap).
        while self._emitted + self.chunk_size + CHUNK_OVERLAP <= buffered:
            start = self._emitted
            end = start + self.chunk_size
            spans.append(self._demod_span(start, end, end + CHUNK_OVERLAP))
            self._emitted = end
            keep_from = end - CHUNK_OVERLAP  # next span's ctx_start
            if keep_from > self._buf_start:
                self._buf = self._buf[keep_from - self._buf_start :]
                self._buf_start = keep_from
        if not spans:
            return np.empty(0, dtype=complex)
        return spans[0] if len(spans) == 1 else np.concatenate(spans)

    def finalize(self) -> np.ndarray:
        """Flush the remaining baseband samples."""
        if self._finalized:
            raise SignalError("finalize called twice")
        self._finalized = True
        total = self._buf_start + self._buf.size
        if total == 0:
            raise SignalError("iq_demodulate expects a non-empty 1-D signal")
        if self._emitted == 0 and total <= self.chunk_size:
            # Short captures take the whole-signal path, like the one-shot.
            cos_w, sin_w = _whole_grid(total, self.sample_rate, self.carrier_hz)
            i, q = zero_phase_batch(
                [
                    (self._buf * cos_w, 4, self.lowpass_hz, "low", self.sample_rate),
                    (self._buf * sin_w, 4, self.lowpass_hz, "low", self.sample_rate),
                ]
            )
            return _assemble_complex(i, q)
        spans = []
        while self._emitted < total:
            start = self._emitted
            end = min(start + self.chunk_size, total)
            spans.append(self._demod_span(start, end, total))
            self._emitted = end
        if not spans:
            return np.empty(0, dtype=complex)
        return spans[0] if len(spans) == 1 else np.concatenate(spans)


def estimate_static_phasor(
    baseband: np.ndarray,
    max_points: int = 2000,
    n_chunks: int = 12,
    min_coverage_rad: float = 3.5,
) -> complex:
    """Estimate the static (direct-path) phasor of a baseband signal.

    While the phone moves, the echo phasor rotates around the constant
    direct-path phasor, so baseband samples trace a *spiral* in the I/Q
    plane centred on the static vector (the echo amplitude grows as the
    phone approaches).  A plain time-average fails because the sweep phase
    of the use-case motion freezes the echo at one angle, and a global
    circle fit is biased by the spiral's varying radius.

    Instead the capture is split into chunks short enough that the spiral
    radius is locally constant; each chunk with enough angular coverage
    (> ``min_coverage_rad``) gets its own least-squares circle fit, and the
    best-conditioned fit (smallest residual relative to its radius, with a
    bonus for coverage) supplies the centre.  Falls back to a global fit,
    then to the mean, when no chunk qualifies.
    """
    from repro.physics.geometry import fit_circle_2d  # deferred: avoids cycle
    from repro.errors import ConfigurationError

    bb = np.asarray(baseband, dtype=complex)
    if bb.ndim != 1 or bb.size == 0:
        raise SignalError("expected a non-empty 1-D baseband signal")
    step = max(1, bb.size // max_points)
    pts = bb[::step]
    n = pts.size
    best: tuple[float, complex] | None = None
    for k in range(n_chunks):
        seg = pts[k * n // n_chunks : (k + 1) * n // n_chunks]
        if seg.size < 8:
            continue
        try:
            cx, cy, r = fit_circle_2d(seg.real, seg.imag)
        except ConfigurationError:
            continue
        centre = complex(cx, cy)
        residual = float(np.sqrt(np.mean((np.abs(seg - centre) - r) ** 2)))
        coverage = float(
            np.abs(np.diff(np.unwrap(np.angle(seg - centre))[[0, -1]]))[0]
        )
        if coverage < min_coverage_rad:
            continue
        score = residual / max(r, 1e-12) - 0.05 * min(coverage, 2.0 * np.pi)
        if best is None or score < best[0]:
            best = (score, centre)
    if best is not None:
        return best[1]
    try:
        cx, cy, _ = fit_circle_2d(pts.real, pts.imag)
        return complex(cx, cy)
    except ConfigurationError:
        return complex(bb.mean())


def remove_static_component(
    baseband: np.ndarray, window: int | None = None
) -> np.ndarray:
    """Subtract the quasi-static part of a complex baseband signal.

    The direct speaker→microphone path inside the phone produces a large
    constant phasor that swamps the moving echo (LEVD's "static vector" in
    [49]).  By default the static vector is estimated with an I/Q-plane
    circle fit (see :func:`estimate_static_phasor`); pass ``window`` to use
    a running-mean estimate instead (useful when the static path itself
    drifts slowly).
    """
    bb = np.asarray(baseband, dtype=complex)
    if bb.ndim != 1 or bb.size == 0:
        raise SignalError("expected a non-empty 1-D baseband signal")
    if window is None:
        return bb - estimate_static_phasor(bb)
    if window <= 1:
        raise SignalError("window must be > 1 samples")
    kernel = np.ones(min(window, bb.size)) / min(window, bb.size)
    running = np.convolve(bb, kernel, mode="same")
    return bb - running


def unwrap_phase(baseband: np.ndarray) -> np.ndarray:
    """Unwrapped instantaneous phase (radians) of a complex baseband.

    Bitwise ``np.unwrap(np.angle(baseband))``.  numpy computes the
    wrapped step (``mod``, the ±π boundary fix, the correction) for
    every sample and then zeroes it wherever ``|dd| < π``; a slowly
    moving echo wraps a few dozen times in 10^5 samples, so here those
    steps run only where ``~(|dd| < π)`` (wraps, exact ±π steps and
    NaNs), with numpy's expressions element for element, and the array
    that is cumulatively summed equals numpy's.
    """
    bb = np.asarray(baseband, dtype=complex)
    if bb.ndim != 1 or bb.size == 0:
        raise SignalError("expected a non-empty 1-D baseband signal")
    p = np.angle(bb)
    dd = np.diff(p)
    period = 2 * np.pi
    interval_high = period / 2
    interval_low = -interval_high
    at = np.flatnonzero(~(np.abs(dd) < interval_high))
    ph_correct = np.zeros_like(dd)
    if at.size:
        d = dd[at]
        ddmod = np.mod(d - interval_low, period) + interval_low
        np.copyto(ddmod, interval_high, where=(ddmod == interval_low) & (d > 0))
        ph_correct[at] = ddmod - d
    up = p.copy()
    up[1:] = p[1:] + ph_correct.cumsum()
    return up


def phase_to_displacement(
    phase_rad: np.ndarray,
    carrier_hz: float,
    round_trip: bool = True,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> np.ndarray:
    """Convert unwrapped echo phase to displacement in metres.

    For a round-trip (speaker and mic co-located on the phone, echo off the
    head) the path is ``2·d`` and ``Δd = −Δφ·λ/(4π)``; the sign convention
    makes *approaching* the reflector positive.
    """
    if carrier_hz <= 0:
        raise SignalError("carrier must be positive")
    wavelength = speed_of_sound / carrier_hz
    factor = 4.0 * np.pi if round_trip else 2.0 * np.pi
    phase = np.asarray(phase_rad, dtype=float)
    return -(phase - phase[0]) * wavelength / factor


def displacement_from_pilot(
    recording: np.ndarray,
    carrier_hz: float,
    sample_rate: int,
    lowpass_hz: float = 200.0,
    chunk_size: int | None = None,
) -> np.ndarray:
    """End-to-end: recording → relative displacement toward the reflector.

    Convenience wrapper chaining demodulation, static removal, unwrapping
    and scaling; returns metres relative to the first sample.
    ``chunk_size`` is forwarded to :func:`iq_demodulate`.
    """
    baseband = iq_demodulate(
        recording, carrier_hz, sample_rate, lowpass_hz, chunk_size=chunk_size
    )
    dynamic = remove_static_component(baseband)
    phase = unwrap_phase(dynamic)
    return phase_to_displacement(phase, carrier_hz)
