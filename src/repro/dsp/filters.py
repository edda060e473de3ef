"""Filtering utilities: pre-emphasis and Butterworth band selection."""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple, Union

import numpy as np
from scipy import signal as sp_signal

from repro.errors import SignalError

try:  # scipy-private Cython kernel; fall back to the public wrapper.
    from scipy.signal._signaltools import _sosfilt as _sosfilt_raw
except ImportError:  # pragma: no cover - depends on scipy layout
    _sosfilt_raw = None


def _sosfilt_inplace(sos_w: np.ndarray, buf: np.ndarray, zi: np.ndarray) -> None:
    """Run the cascade kernel in place over ``buf`` (shape ``(1, n)``)."""
    if _sosfilt_raw is None:  # pragma: no cover - depends on scipy layout
        buf[0], _ = sp_signal.sosfilt(sos_w, buf[0], zi=zi)
        return
    z = np.ascontiguousarray(zi[None, :, :], dtype=np.float64)
    _sosfilt_raw(sos_w, buf, z)


@lru_cache(maxsize=256)
def _design_state(
    order: int,
    cutoff: Union[float, Tuple[float, float]],
    btype: str,
    fs: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Cached Butterworth design: ``(sos, sosfilt_zi(sos), pad_edge)``.

    Filter *design* (pole placement plus the steady-state initial
    conditions ``sosfiltfilt`` re-derives on every call) is deterministic
    in its arguments and costs ~1 ms per call in scipy; the serving path
    designs the same handful of filters for every request.  The cache
    holds read-only masters — callers copy before handing arrays to
    scipy's Cython kernels, which demand writable buffers.
    """
    wn = list(cutoff) if isinstance(cutoff, tuple) else cutoff
    sos = sp_signal.butter(order, wn, btype=btype, fs=fs, output="sos")
    n_sections = sos.shape[0]
    ntaps = 2 * n_sections + 1
    ntaps -= int(min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))
    zi = sp_signal.sosfilt_zi(sos)
    sos.setflags(write=False)
    zi.setflags(write=False)
    return sos, zi, 3 * ntaps


def _zero_phase(
    x: np.ndarray,
    order: int,
    cutoff: Union[float, Tuple[float, float]],
    btype: str,
    fs: int,
) -> np.ndarray:
    """``sosfiltfilt`` with the per-design state cached.

    Replicates scipy's 1-D ``sosfiltfilt(sos, x)`` step for step (odd
    extension of ``3*ntaps``, steady-state ``zi`` scaled by the first
    sample, forward pass, reversed backward pass, edge trim) so the output
    is bitwise-identical, while the design and ``sosfilt_zi`` solve come
    from :func:`_design_state` instead of being recomputed per call.
    """
    sos, zi, edge = _design_state(order, cutoff, btype, fs)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] <= edge:
        # Rare shapes take scipy's own path (same errors, same output).
        return sp_signal.sosfiltfilt(sos.copy(), x)
    # Build the odd extension straight into the (1, n) buffer the Cython
    # kernel mutates, instead of concatenating and then copying: the three
    # segments hold exactly the values ``np.concatenate`` would produce.
    n_ext = x.shape[0] + 2 * edge
    fwd = np.empty((1, n_ext), dtype=np.float64)
    fwd[0, :edge] = 2.0 * x[0] - x[edge:0:-1]
    fwd[0, edge:-edge] = x
    fwd[0, -edge:] = 2.0 * x[-1] - x[-2 : -(edge + 2) : -1]
    sos_w = sos.copy()
    _sosfilt_inplace(sos_w, fwd, zi * fwd[0, :1])
    from repro.dsp._soskernel import kernel_available, sosfilt_interleaved

    if kernel_available():
        # Backward pass consumed in place back-to-front: no reversal copies.
        zb = np.ascontiguousarray(zi * fwd[0, -1])[None, :, :]
        sosfilt_interleaved(sos_w[None, :, :].copy(), fwd, zb, reverse=True)
        return fwd[0, edge:-edge]
    bwd = np.empty_like(fwd)
    bwd[0] = fwd[0, ::-1]
    _sosfilt_inplace(sos_w, bwd, zi * bwd[0, :1])
    y = bwd[0, ::-1]
    return y[edge:-edge]


def zero_phase_batch(
    items: "list[tuple[np.ndarray, int, Union[float, Tuple[float, float]], str, int]]",
) -> "list[np.ndarray]":
    """Zero-phase filter several independent ``(x, order, cutoff, btype, fs)``
    jobs at once.

    When the compiled interleaved kernel is available and the jobs are
    shape-compatible (same signal length, same section count, same pad
    edge — true for e.g. the render-band stack over one capture), all
    forward passes run in one interleaved loop and then all backward
    passes do, exploiting instruction-level parallelism a single biquad
    recurrence cannot.  Every job's output is bitwise-identical to
    :func:`_zero_phase` on that job alone; incompatible or kernel-less
    environments fall back to exactly that per-job path.
    """
    from repro.dsp._soskernel import kernel_available, sosfilt_interleaved

    for _, _, cutoff, btype, fs in items:
        freqs = cutoff if isinstance(cutoff, tuple) else (cutoff,)
        _validate_band(fs, *freqs)
        if btype == "band" and freqs[0] >= freqs[1]:
            raise SignalError("bandpass requires low_hz < high_hz")
    states = [_design_state(order, cutoff, btype, fs) for _, order, cutoff, btype, fs in items]
    xs = [np.asarray(x, dtype=float) for x, *_ in items]
    edge = states[0][2]
    n_sections = states[0][0].shape[0]
    batchable = (
        len(items) > 1
        and kernel_available()
        and all(x.ndim == 1 and x.shape == xs[0].shape for x in xs)
        and xs[0].shape[0] > edge
        and all(s[2] == edge and s[0].shape[0] == n_sections for s in states)
    )
    if not batchable:
        return [
            _zero_phase(x, order, cutoff, btype, fs)
            for x, (_, order, cutoff, btype, fs) in zip(xs, items)
        ]
    k = len(items)
    n = xs[0].shape[0]
    fwd = np.empty((k, n + 2 * edge), dtype=np.float64)
    for j, x in enumerate(xs):
        fwd[j, :edge] = 2.0 * x[0] - x[edge:0:-1]
        fwd[j, edge:-edge] = x
        fwd[j, -edge:] = 2.0 * x[-1] - x[-2 : -(edge + 2) : -1]
    sos_stack = np.stack([s[0] for s in states])
    zi = np.empty((k, n_sections, 2), dtype=np.float64)
    for j, s in enumerate(states):
        zi[j] = s[1] * fwd[j, 0]
    sosfilt_interleaved(sos_stack, fwd, zi)
    for j, s in enumerate(states):
        zi[j] = s[1] * fwd[j, -1]
    sosfilt_interleaved(sos_stack, fwd, zi, reverse=True)
    return [fwd[j, edge:-edge] for j in range(k)]


def preemphasis(x: np.ndarray, coefficient: float = 0.97) -> np.ndarray:
    """First-order pre-emphasis ``y[n] = x[n] − a·x[n−1]``.

    Standard ASV front-end step: flattens the −6 dB/octave glottal tilt so
    the mel filterbank sees balanced energy across formants.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise SignalError("preemphasis expects a non-empty 1-D signal")
    if not 0.0 <= coefficient < 1.0:
        raise SignalError("pre-emphasis coefficient must be in [0, 1)")
    return np.append(x[0], x[1:] - coefficient * x[:-1])


def _validate_band(sample_rate: int, *freqs: float) -> None:
    if sample_rate <= 0:
        raise SignalError("sample_rate must be positive")
    nyq = sample_rate / 2.0
    for f in freqs:
        if not 0.0 < f < nyq:
            raise SignalError(f"cutoff {f} Hz outside (0, Nyquist={nyq})")


def lowpass(
    x: np.ndarray, cutoff_hz: float, sample_rate: int, order: int = 4
) -> np.ndarray:
    """Zero-phase Butterworth low-pass."""
    _validate_band(sample_rate, cutoff_hz)
    return _zero_phase(x, order, float(cutoff_hz), "low", int(sample_rate))


def highpass(
    x: np.ndarray, cutoff_hz: float, sample_rate: int, order: int = 4
) -> np.ndarray:
    """Zero-phase Butterworth high-pass."""
    _validate_band(sample_rate, cutoff_hz)
    return _zero_phase(x, order, float(cutoff_hz), "high", int(sample_rate))


def bandpass(
    x: np.ndarray,
    low_hz: float,
    high_hz: float,
    sample_rate: int,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth band-pass.

    Used to isolate the >16 kHz ranging pilot from speech before IQ
    demodulation.
    """
    _validate_band(sample_rate, low_hz, high_hz)
    if low_hz >= high_hz:
        raise SignalError("bandpass requires low_hz < high_hz")
    return _zero_phase(
        x, order, (float(low_hz), float(high_hz)), "band", int(sample_rate)
    )


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average with edge replication.

    Edges are padded with the boundary values before convolving, so a
    constant signal stays constant — zero padding would fabricate ramps at
    the ends, which downstream rate-of-change detectors would see as huge
    spurious transients.
    """
    x = np.asarray(x, dtype=float)
    if window <= 0:
        raise SignalError("window must be positive")
    if window == 1 or x.size == 0:
        return x.copy()
    w = min(window, x.size)
    pad = w // 2
    padded = np.pad(x, pad, mode="edge")
    kernel = np.ones(w) / w
    smoothed = np.convolve(padded, kernel, mode="same")
    return smoothed[pad : pad + x.size]
