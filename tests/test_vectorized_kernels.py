"""Property tests: every vectorized hot path == its looped reference.

The capture simulator and DSP front-end were vectorized for the cascade
work (batched ``field_at_many`` / ``pressure_at_many``, fused pose
sampling, chunked IQ demodulation and MFCC extraction).  Each test here
pins a batched implementation against the scalar per-sample code path it
replaced, over seeded random inputs, within 1e-9 — so a future "faster"
rewrite that changes the numbers fails loudly.
"""

import numpy as np
import pytest

from repro.dsp.mel import MFCCExtractor, hz_to_mel, mel_filterbank, mel_to_hz
from repro.dsp.phase import displacement_from_pilot, iq_demodulate
from repro.errors import SignalError
from repro.physics.acoustics import CircularPistonSource, PointSource
from repro.physics.geometry import Pose, SampledPath, rotation_about_z
from repro.physics.magnetics import (
    ConstantField,
    EnvironmentalInterference,
    FieldSource,
    MagneticDipole,
    MuMetalShield,
    ShieldedDipole,
    VoiceCoilDipole,
    earth_field,
)
from repro.sensors.magnetometer import Magnetometer
from repro.world.humans import MouthSource

TOL = 1e-9


def _positions(rng, n=64):
    """Random query positions spanning near field to a metre out."""
    pos = rng.uniform(-0.5, 0.5, (n, 3))
    # Exercise the guarded branches: a point exactly at the origin
    # (coincident with every source placed there) and one inside a
    # dipole's clamped core radius.
    pos[0] = 0.0
    pos[1] = np.array([0.002, 0.0, 0.0])
    return pos


def _looped(source, positions, times):
    return np.stack(
        [source.field_at(p, float(t)) for p, t in zip(positions, times)]
    )


class TestBatchedFieldSources:
    def test_magnetic_dipole(self):
        rng = np.random.default_rng(0)
        dipole = MagneticDipole(np.zeros(3), np.array([0.0, 0.0, 0.09]))
        pos = _positions(rng)
        times = np.zeros(len(pos))
        np.testing.assert_allclose(
            dipole.field_at_many(pos, times), _looped(dipole, pos, times), atol=TOL
        )

    def test_voice_coil_scalar_drive_fallback(self):
        import math

        rng = np.random.default_rng(1)
        coil = VoiceCoilDipole(
            np.zeros(3),
            np.array([1.0, 0.0, 0.0]),
            0.01,
            drive=lambda t: math.sin(40.0 * t),  # rejects array input
        )
        pos = _positions(rng)
        times = rng.uniform(0.0, 2.0, len(pos))
        np.testing.assert_allclose(
            coil.field_at_many(pos, times), _looped(coil, pos, times), atol=TOL
        )

    def test_voice_coil_vectorized_drive(self):
        rng = np.random.default_rng(2)
        coil = VoiceCoilDipole(
            np.zeros(3),
            np.array([0.0, 1.0, 0.0]),
            0.02,
            drive=lambda t: np.sin(40.0 * t),
        )
        pos = _positions(rng)
        times = rng.uniform(0.0, 2.0, len(pos))
        np.testing.assert_allclose(
            coil.field_at_many(pos, times), _looped(coil, pos, times), atol=TOL
        )

    def test_silent_voice_coil_is_zero(self):
        rng = np.random.default_rng(3)
        coil = VoiceCoilDipole(np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.02)
        pos = _positions(rng)
        times = np.linspace(0.0, 1.0, len(pos))
        assert np.all(coil.field_at_many(pos, times) == 0.0)

    def test_shielded_dipole(self):
        rng = np.random.default_rng(4)
        shielded = ShieldedDipole(
            MagneticDipole(np.zeros(3), np.array([0.05, 0.0, 0.02])),
            MuMetalShield(),
        )
        pos = _positions(rng)
        times = np.zeros(len(pos))
        np.testing.assert_allclose(
            shielded.field_at_many(pos, times),
            _looped(shielded, pos, times),
            atol=TOL,
        )

    def test_environmental_interference(self):
        rng = np.random.default_rng(5)
        interference = EnvironmentalInterference(
            bias_ut=np.array([3.0, -1.0, 0.5]),
            fluctuation_ut=1.2,
            gradient_per_m=0.8,
            seed=9,
        )
        pos = _positions(rng)
        times = rng.uniform(0.0, 3.0, len(pos))
        np.testing.assert_allclose(
            interference.field_at_many(pos, times),
            _looped(interference, pos, times),
            atol=TOL,
        )

    def test_constant_field(self):
        rng = np.random.default_rng(6)
        const = ConstantField(earth_field())
        pos = _positions(rng)
        times = np.linspace(0.0, 1.0, len(pos))
        np.testing.assert_allclose(
            const.field_at_many(pos, times), _looped(const, pos, times), atol=TOL
        )

    def test_base_class_fallback_loops(self):
        """A FieldSource defining only field_at still batches correctly."""

        class Gradient(FieldSource):
            def field_at(self, position, t=0.0):
                return np.asarray(position, dtype=float) * (1.0 + t)

        rng = np.random.default_rng(7)
        src = Gradient()
        pos = _positions(rng)
        times = rng.uniform(0.0, 1.0, len(pos))
        np.testing.assert_allclose(
            src.field_at_many(pos, times), _looped(src, pos, times), atol=TOL
        )


class TestBatchedAcousticSources:
    FREQS = (120.0, 500.0, 2000.0, 6000.0)

    def _check(self, source):
        rng = np.random.default_rng(8)
        pos = _positions(rng)
        for f in self.FREQS:
            batched = source.pressure_at_many(pos, f)
            looped = np.array([source.pressure_at(p, f) for p in pos])
            np.testing.assert_allclose(batched, looped, atol=TOL)

    def test_point_source(self):
        self._check(PointSource(np.zeros(3), level_db_spl=70.0))

    def test_circular_piston(self):
        self._check(
            CircularPistonSource(
                np.zeros(3), np.array([1.0, 0.0, 0.0]), aperture_radius=0.03
            )
        )

    def test_mouth_source(self):
        self._check(MouthSource())


def _random_path(rng, n=40, duration=1.5):
    times = np.linspace(0.0, duration, n)
    poses = [
        Pose(rng.uniform(-0.2, 0.2, 3), rotation_about_z(float(rng.uniform(0, 6))))
        for _ in range(n)
    ]
    return SampledPath(times, poses)


class TestSampledPathBatching:
    def test_sample_poses_matches_pose_at(self):
        rng = np.random.default_rng(10)
        path = _random_path(rng)
        # Includes exact knots, interior points, and out-of-range queries
        # (the scalar path clamps to the end poses).
        query = np.concatenate(
            [
                path.times[::5],
                rng.uniform(0.0, path.duration, 50),
                np.array([-0.5, path.duration + 0.5]),
            ]
        )
        positions, orientations = path.sample_poses(query)
        for i, t in enumerate(query):
            ref = path.pose_at(float(t))
            np.testing.assert_allclose(positions[i], ref.position, atol=TOL)
            np.testing.assert_allclose(orientations[i], ref.orientation, atol=TOL)

    def test_positions_at_wrapper(self):
        rng = np.random.default_rng(11)
        path = _random_path(rng)
        query = rng.uniform(0.0, path.duration, 20)
        positions, _ = path.sample_poses(query)
        np.testing.assert_allclose(path.positions_at(query), positions, atol=TOL)


class TestMagnetometerBatching:
    def test_field_sources_match_legacy_callables(self):
        """FieldSource objects (batched) == plain callables (looped).

        Both runs consume identically seeded rng streams, so readings
        must agree bitwise: the batched evaluation happens before any
        noise is drawn.
        """
        rng = np.random.default_rng(12)
        path = _random_path(rng, n=30, duration=2.0)
        dipole = MagneticDipole(np.zeros(3), np.array([0.0, 0.05, 0.02]))
        interference = EnvironmentalInterference(
            bias_ut=np.array([1.0, 0.0, 0.0]), fluctuation_ut=0.4, seed=3
        )
        sources = [ConstantField(earth_field()), dipole, interference]
        legacy = [
            (lambda s: (lambda p, t: s.field_at(p, t)))(s) for s in sources
        ]
        mag = Magnetometer()
        batched = mag.sample(path, sources, np.random.default_rng(99))
        looped = mag.sample(path, legacy, np.random.default_rng(99))
        np.testing.assert_array_equal(batched.values, looped.values)
        np.testing.assert_array_equal(batched.times, looped.times)


class TestChunkedRanging:
    SAMPLE_RATE = 48000

    def _pilot(self, rng, n):
        t = np.arange(n) / self.SAMPLE_RATE
        # A pilot tone with slow phase drift plus broadband noise.
        phase = 0.4 * np.sin(2.0 * np.pi * 1.5 * t)
        return np.cos(2.0 * np.pi * 20000.0 * t + phase) + 0.05 * rng.normal(
            size=n
        )

    @pytest.mark.parametrize("n", [48000, 48001, 100003])
    def test_chunked_demod_matches_whole(self, n):
        rng = np.random.default_rng(13)
        x = self._pilot(rng, n)
        whole = iq_demodulate(x, 20000.0, self.SAMPLE_RATE)
        chunked = iq_demodulate(x, 20000.0, self.SAMPLE_RATE, chunk_size=16384)
        np.testing.assert_allclose(chunked, whole, atol=TOL)

    def test_chunk_larger_than_signal_is_whole_path(self):
        rng = np.random.default_rng(14)
        x = self._pilot(rng, 4096)
        whole = iq_demodulate(x, 20000.0, self.SAMPLE_RATE)
        chunked = iq_demodulate(x, 20000.0, self.SAMPLE_RATE, chunk_size=1 << 20)
        np.testing.assert_array_equal(chunked, whole)

    def test_chunked_displacement_matches_whole(self):
        rng = np.random.default_rng(15)
        x = self._pilot(rng, 96000)
        whole = displacement_from_pilot(x, 20000.0, self.SAMPLE_RATE)
        chunked = displacement_from_pilot(
            x, 20000.0, self.SAMPLE_RATE, chunk_size=16384
        )
        np.testing.assert_allclose(chunked, whole, atol=TOL)


def _reference_filterbank(n_filters, n_fft, sample_rate, low_hz, high_hz):
    """The pre-vectorization per-filter loop, kept as the oracle."""
    high_hz = sample_rate / 2.0 if high_hz is None else high_hz
    mel_points = np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((n_fft + 1) * hz_points / sample_rate).astype(int)
    bank = np.zeros((n_filters, n_fft // 2 + 1))
    for i in range(n_filters):
        left, centre, right = bins[i], bins[i + 1], bins[i + 2]
        centre = max(centre, left + 1)
        right = max(right, centre + 1)
        for j in range(left, centre):
            bank[i, j] = (j - left) / (centre - left)
        for j in range(centre, min(right, bank.shape[1])):
            bank[i, j] = (right - j) / (right - centre)
    return bank


class TestChunkedMel:
    @pytest.mark.parametrize(
        "n_filters,n_fft,rate,low,high",
        [
            (24, 512, 16000, 100.0, None),
            (40, 1024, 16000, 0.0, 8000.0),
            (12, 256, 8000, 50.0, 3500.0),
        ],
    )
    def test_filterbank_matches_looped_reference(
        self, n_filters, n_fft, rate, low, high
    ):
        got = mel_filterbank(n_filters, n_fft, rate, low, high)
        ref = _reference_filterbank(n_filters, n_fft, rate, low, high)
        np.testing.assert_allclose(got, ref, atol=TOL)

    @pytest.mark.parametrize("chunk_frames", [1, 7, 64])
    def test_chunked_mfcc_matches_whole(self, chunk_frames):
        rng = np.random.default_rng(16)
        waveform = rng.normal(size=16000)  # 1 s — 98 frames
        whole = MFCCExtractor().extract(waveform)
        chunked = MFCCExtractor(chunk_frames=chunk_frames).extract(waveform)
        assert chunked.shape == whole.shape
        np.testing.assert_allclose(chunked, whole, atol=TOL)

    def test_chunked_cmvn_matches_whole(self):
        rng = np.random.default_rng(17)
        waveform = rng.normal(size=12000)
        whole = MFCCExtractor().extract_with_cmvn(waveform)
        chunked = MFCCExtractor(chunk_frames=13).extract_with_cmvn(waveform)
        np.testing.assert_allclose(chunked, whole, atol=TOL)


def _needs_kernel():
    from repro.dsp._soskernel import kernel_available

    if not kernel_available():
        pytest.skip("no C compiler in this environment")


class TestCompiledSosKernel:
    """The compiled cascades (the scalar loop for one signal, SIMD lanes
    for several) must be bitwise-equal to scipy's sosfilt."""

    def _batch(self, rng, k=5, n=4000):
        from scipy.signal import butter

        sos_rows = []
        for j in range(k):
            cutoff = 0.05 + 0.08 * j
            sos_rows.append(butter(4, cutoff, btype="low", output="sos"))
        n_sections = sos_rows[0].shape[0]
        sos = np.ascontiguousarray(np.stack(sos_rows))
        x = np.ascontiguousarray(rng.normal(size=(k, n)))
        zi = np.ascontiguousarray(rng.normal(size=(k, n_sections, 2)))
        return sos, x, zi

    def test_forward_matches_scipy(self):
        from scipy.signal import sosfilt

        from repro.dsp._soskernel import kernel_available, sosfilt_interleaved

        if not kernel_available():
            pytest.skip("no C compiler in this environment")
        rng = np.random.default_rng(18)
        sos, x, zi = self._batch(rng)
        expected = np.stack(
            [
                sosfilt(sos[j], x[j], zi=zi[j].copy())[0]
                for j in range(x.shape[0])
            ]
        )
        sosfilt_interleaved(sos, x, zi)
        np.testing.assert_array_equal(x, expected)

    def test_reverse_matches_reversed_scipy(self):
        from scipy.signal import sosfilt

        from repro.dsp._soskernel import kernel_available, sosfilt_interleaved

        if not kernel_available():
            pytest.skip("no C compiler in this environment")
        rng = np.random.default_rng(19)
        sos, x, zi = self._batch(rng)
        expected = np.stack(
            [
                sosfilt(sos[j], x[j][::-1], zi=zi[j].copy())[0][::-1]
                for j in range(x.shape[0])
            ]
        )
        sosfilt_interleaved(sos, x, zi, reverse=True)
        np.testing.assert_array_equal(x, expected)

    # Shorter than one 128-sample block, one block, one block and a bit,
    # and many blocks with a ragged tail.
    LANE_LENGTHS = (1, 5, 127, 128, 129, 1000)

    @pytest.mark.parametrize("n_sections", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_lanes_bitwise_vs_per_row_sosfilt(self, k, n_sections):
        from scipy.signal import butter, sosfilt

        from repro.dsp._soskernel import sosfilt_interleaved

        _needs_kernel()
        rng = np.random.default_rng(100 * k + n_sections)
        sos = np.ascontiguousarray(
            np.stack(
                [
                    butter(2 * n_sections, 0.04 + 0.11 * j, output="sos")
                    for j in range(k)
                ]
            )
        )
        for n in self.LANE_LENGTHS:
            x = rng.normal(size=(k, n))
            zi = rng.normal(size=(k, n_sections, 2))
            for reverse in (False, True):
                rows, finals = [], []
                for j in range(k):
                    row = x[j][::-1] if reverse else x[j]
                    y, zf = sosfilt(sos[j], row, zi=zi[j].copy())
                    rows.append(y[::-1] if reverse else y)
                    finals.append(zf)
                got, got_zi = x.copy(), zi.copy()
                sosfilt_interleaved(sos, got, got_zi, reverse=reverse)
                np.testing.assert_array_equal(got, np.stack(rows))
                np.testing.assert_array_equal(got_zi, np.stack(finals))

    def test_more_signals_than_lanes(self):
        """Batches wider than the lanes run in groups, same bits."""
        from scipy.signal import butter, sosfilt

        from repro.dsp._soskernel import sosfilt_interleaved

        _needs_kernel()
        rng = np.random.default_rng(40)
        k, n = 11, 777
        sos = np.ascontiguousarray(
            np.stack([butter(4, 0.02 + 0.08 * j, output="sos") for j in range(k)])
        )
        x = rng.normal(size=(k, n))
        zi = rng.normal(size=(k, 2, 2))
        expected = np.stack(
            [sosfilt(sos[j], x[j], zi=zi[j].copy())[0] for j in range(k)]
        )
        sosfilt_interleaved(sos, x, zi)
        np.testing.assert_array_equal(x, expected)

    def test_shape_and_dtype_validation(self):
        from repro.dsp._soskernel import kernel_available, sosfilt_interleaved

        if not kernel_available():
            pytest.skip("no C compiler in this environment")
        rng = np.random.default_rng(20)
        sos, x, zi = self._batch(rng, k=2, n=64)
        with pytest.raises(ValueError):
            sosfilt_interleaved(sos, x.astype(np.float32), zi)
        with pytest.raises(ValueError):
            sosfilt_interleaved(sos, x, zi[:, :, :1])

    def test_zero_phase_batch_matches_per_item(self):
        from repro.dsp.filters import bandpass, lowpass, zero_phase_batch

        rng = np.random.default_rng(21)
        x = rng.normal(size=30000)
        items = [
            (x, 2, (300.0, 900.0), "band", 16000),
            (x, 2, (900.0, 2200.0), "band", 16000),
            (x, 4, 400.0, "low", 16000),
        ]
        batched = zero_phase_batch(items)
        expected = [
            bandpass(x, 300.0, 900.0, 16000, order=2),
            bandpass(x, 900.0, 2200.0, 16000, order=2),
            lowpass(x, 400.0, 16000, order=4),
        ]
        for got, ref in zip(batched, expected):
            np.testing.assert_array_equal(got, ref)

    def test_zero_phase_batch_fallback_is_identical(self, monkeypatch):
        """Without the compiled kernel the batch degrades to the same bits:
        a mixed batch, the six render bands and the two IQ rails."""
        import repro.dsp._soskernel as soskernel
        from repro.dsp.filters import zero_phase_batch
        from repro.world.scene import RENDER_BANDS

        rng = np.random.default_rng(22)
        x = rng.normal(size=8192)
        sr = 48000
        batches = [
            [
                (x, 2, (300.0, 900.0), "band", 16000),
                (x, 4, 400.0, "low", 16000),
            ],
            [
                (x, 2, (float(lo), float(min(hi, sr / 2.0 * 0.95))), "band", sr)
                for lo, hi, _ in RENDER_BANDS
            ],
            [
                (x * np.cos(np.arange(x.size) * 0.3), 4, 200.0, "low", sr),
                (x * np.sin(np.arange(x.size) * 0.3), 4, 200.0, "low", sr),
            ],
        ]
        with_kernel = [zero_phase_batch(items) for items in batches]
        # filters.py re-imports the gate per call, so patching the source
        # module disables the compiled path for the second evaluation.
        monkeypatch.setattr(soskernel, "kernel_available", lambda: False)
        without_kernel = [zero_phase_batch(items) for items in batches]
        for got, ref in zip(with_kernel, without_kernel):
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)


class TestSparseUnwrap:
    """``unwrap_phase`` == ``np.unwrap(np.angle(.))``, bit for bit."""

    @staticmethod
    def _check(bb):
        from repro.dsp.phase import unwrap_phase

        got = unwrap_phase(bb)
        ref = np.unwrap(np.angle(bb))
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_bench_captures(self, genuine_capture_5cm, replay_capture_5cm):
        from repro.dsp.phase import iq_demodulate, remove_static_component

        for capture in (genuine_capture_5cm, replay_capture_5cm):
            baseband = iq_demodulate(
                capture.audio, capture.pilot_hz, capture.audio_sample_rate, 200.0
            )
            self._check(baseband)
            self._check(remove_static_component(baseband))

    @pytest.mark.parametrize("step_sigma", [0.05, 1.0, 3.0])
    def test_random_walks_with_many_wraps(self, step_sigma):
        rng = np.random.default_rng(int(step_sigma * 100))
        for n in (1, 2, 3, 1000, 50000):
            phase = np.cumsum(rng.normal(0.0, step_sigma, n))
            self._check(rng.uniform(0.2, 3.0, n) * np.exp(1j * phase))

    def test_steps_of_exactly_pi(self):
        # angle() maps 1 to 0 and -1±0j to ±π exactly, so the steps below
        # include |dd| == π in both directions (numpy's boundary fix) and
        # |dd| == 2π.
        plus, minus = complex(-1.0, 0.0), complex(-1.0, -0.0)
        bb = np.array([1, plus, 1, minus, 1, plus, minus, plus, plus, 1])
        dd = np.diff(np.angle(bb))
        assert np.any(dd == np.pi) and np.any(dd == -np.pi)
        assert np.any(np.abs(dd) == 2 * np.pi)
        self._check(bb)

    def test_nan_sample(self):
        rng = np.random.default_rng(42)
        bb = np.exp(1j * np.cumsum(rng.normal(0.0, 1.5, 4000)))
        bb[1234] = complex(np.nan, 0.0)
        self._check(bb)
        bb[0] = complex(np.nan, np.nan)
        self._check(bb)


class TestCompiledDTW:
    """The C recurrence and backtrack == the Python loop, bit for bit."""

    @staticmethod
    def _znorm(x):
        s = x.std()
        return (x - x.mean()) / (s if s > 1e-12 else 1.0)

    def test_seeded_pairs(self):
        from repro.dsp._soskernel import dtw_banded
        from repro.dsp.align import _dtw_banded_py

        _needs_kernel()
        rng = np.random.default_rng(43)
        for trial in range(300):
            n, m = (int(v) for v in rng.integers(2, 141, 2))
            if trial % 2:
                # Few distinct levels: many cells tie, so the first-minimum
                # rules (up, left, diagonal; then diagonal, up, left) decide.
                x = rng.integers(0, 3, n).astype(float)
                y = rng.integers(0, 3, m).astype(float)
            else:
                x, y = rng.normal(size=n), rng.normal(size=m)
            r, q = self._znorm(x), self._znorm(y)
            band = max(int(0.2 * max(n, m)), abs(n - m) + 2)
            got, ref = dtw_banded(r, q, band), _dtw_banded_py(r, q, band)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_band_too_narrow(self):
        from repro.dsp._soskernel import dtw_banded
        from repro.dsp.align import _dtw_banded_py

        _needs_kernel()
        rng = np.random.default_rng(44)
        r, q = rng.normal(size=10), rng.normal(size=40)
        for band in (0, 1, 2):
            assert dtw_banded(r, q, band) is None
            assert _dtw_banded_py(r, q, band) is None

    def test_dtw_path_falls_back_to_the_same_bits(self, monkeypatch):
        import repro.dsp._soskernel as soskernel
        from repro.dsp.align import dtw_path

        rng = np.random.default_rng(45)
        pairs = [(rng.normal(size=90), rng.normal(size=120)) for _ in range(5)]
        pairs.append((np.repeat([0.0, 1.0, 0.0], 20), np.repeat([0.0, 1.0], 35)))
        # -inf z-normalises to an unreachable first row: band too narrow.
        unreachable = (np.array([1.0, 2.0, -np.inf]), np.array([1.0, 2.0, 3.0]))
        with_kernel = [dtw_path(a, b) for a, b in pairs]
        with np.errstate(invalid="ignore"), pytest.raises(
            SignalError, match="band too narrow"
        ):
            dtw_path(*unreachable)
        monkeypatch.setattr(soskernel, "kernel_available", lambda: False)
        without_kernel = [dtw_path(a, b) for a, b in pairs]
        with np.errstate(invalid="ignore"), pytest.raises(
            SignalError, match="band too narrow"
        ):
            dtw_path(*unreachable)
        for got, ref in zip(with_kernel, without_kernel):
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


class TestMixingGridCache:
    def test_read_only_and_equal_to_a_fresh_grid(self):
        from repro.dsp.phase import _mixing_grid

        n, sr, fc = 9601, 48000, 19500.0
        cos_w, sin_w = _mixing_grid(n, sr, fc)
        w = (-2.0 * np.pi * fc) * (np.arange(n) / sr)
        np.testing.assert_array_equal(cos_w, np.cos(w))
        np.testing.assert_array_equal(sin_w, np.sin(w))
        for arr in (cos_w, sin_w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert _mixing_grid(n, sr, fc)[0] is cos_w

    def test_cache_stays_bounded(self):
        from repro.dsp.phase import _GRID_CACHE_SAMPLES, _mixing_grid, iq_demodulate

        rng = np.random.default_rng(46)
        for n in range(1000, 1020):
            iq_demodulate(rng.normal(size=n), 19000.0, 48000)
        info = _mixing_grid.cache_info()
        assert info.currsize <= info.maxsize
        # Grids longer than the cache's sample limit are never kept.
        before = _mixing_grid.cache_info()
        iq_demodulate(rng.normal(size=_GRID_CACHE_SAMPLES + 1), 19000.0, 48000)
        after = _mixing_grid.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_cached_demodulation_matches_uncached_arithmetic(self):
        from repro.dsp.filters import zero_phase_batch
        from repro.dsp.phase import _assemble_complex, iq_demodulate

        rng = np.random.default_rng(47)
        x = rng.normal(size=20000)
        t = np.arange(x.size) / 48000
        w = (-2.0 * np.pi * 20000.0) * t
        i, q = zero_phase_batch(
            [
                (x * np.cos(w), 4, 400.0, "low", 48000),
                (x * np.sin(w), 4, 400.0, "low", 48000),
            ]
        )
        expected = _assemble_complex(i, q)
        for _ in range(2):  # a miss, then a hit
            np.testing.assert_array_equal(
                iq_demodulate(x, 20000.0, 48000), expected
            )


class TestStreamingMFCC:
    """push/finalize must reproduce the one-shot block path bitwise."""

    @pytest.mark.parametrize("push_sizes", [(160,), (1, 16000), (4096, 3, 999)])
    def test_bitwise_vs_block_extract(self, push_sizes):
        rng = np.random.default_rng(23)
        x = rng.normal(size=16000 + 73)
        ref = MFCCExtractor(chunk_frames=32).extract(x)
        stream = MFCCExtractor(chunk_frames=32).stream()
        pos = 0
        while pos < x.size:
            for size in push_sizes:
                stream.push(x[pos : pos + size])
                pos += size
                if pos >= x.size:
                    break
        np.testing.assert_array_equal(stream.finalize(), ref)

    def test_close_to_whole_utterance_extract(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=32000)
        whole = MFCCExtractor().extract(x)
        stream = MFCCExtractor().stream(block_frames=64)
        for start in range(0, x.size, 1000):
            stream.push(x[start : start + 1000])
        np.testing.assert_allclose(stream.finalize(), whole, atol=TOL)

    def test_single_push_equals_extract(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=9000)
        ext = MFCCExtractor(chunk_frames=16)
        stream = ext.stream()
        stream.push(x)
        np.testing.assert_array_equal(stream.finalize(), ext.extract(x))

    def test_lifecycle_errors(self):
        from repro.errors import SignalError

        stream = MFCCExtractor().stream()
        with pytest.raises(SignalError):
            stream.finalize()  # shorter than one frame (no samples at all)
        stream = MFCCExtractor().stream()
        stream.push(np.zeros(16000))
        stream.finalize()
        with pytest.raises(SignalError):
            stream.push(np.zeros(10))
        with pytest.raises(SignalError):
            stream.finalize()


class TestStreamingIQ:
    SAMPLE_RATE = 48000

    def _pilot(self, rng, n):
        t = np.arange(n) / self.SAMPLE_RATE
        phase = 0.4 * np.sin(2.0 * np.pi * 1.5 * t)
        return np.cos(2.0 * np.pi * 20000.0 * t + phase) + 0.05 * rng.normal(
            size=n
        )

    @pytest.mark.parametrize("push_size", [1024, 16384, 100003])
    def test_bitwise_vs_chunked_oneshot(self, push_size):
        from repro.dsp.phase import StreamingIQDemodulator

        rng = np.random.default_rng(26)
        x = self._pilot(rng, 100003)
        ref = iq_demodulate(x, 20000.0, self.SAMPLE_RATE, chunk_size=16384)
        demod = StreamingIQDemodulator(
            20000.0, self.SAMPLE_RATE, chunk_size=16384
        )
        pieces = []
        for start in range(0, x.size, push_size):
            pieces.append(demod.push(x[start : start + push_size]))
        pieces.append(demod.finalize())
        np.testing.assert_array_equal(np.concatenate(pieces), ref)

    def test_short_capture_takes_whole_path(self):
        from repro.dsp.phase import StreamingIQDemodulator

        rng = np.random.default_rng(27)
        x = self._pilot(rng, 4096)
        ref = iq_demodulate(x, 20000.0, self.SAMPLE_RATE, chunk_size=1 << 20)
        demod = StreamingIQDemodulator(
            20000.0, self.SAMPLE_RATE, chunk_size=1 << 20
        )
        assert demod.push(x).size == 0
        np.testing.assert_array_equal(demod.finalize(), ref)

    def test_close_to_whole_signal(self):
        from repro.dsp.phase import StreamingIQDemodulator

        rng = np.random.default_rng(28)
        x = self._pilot(rng, 96000)
        whole = iq_demodulate(x, 20000.0, self.SAMPLE_RATE)
        demod = StreamingIQDemodulator(20000.0, self.SAMPLE_RATE, chunk_size=16384)
        out = np.concatenate([demod.push(x), demod.finalize()])
        np.testing.assert_allclose(out, whole, atol=TOL)

    def test_lifecycle_errors(self):
        from repro.errors import SignalError

        from repro.dsp.phase import StreamingIQDemodulator

        with pytest.raises(SignalError):
            StreamingIQDemodulator(30000.0, self.SAMPLE_RATE)
        demod = StreamingIQDemodulator(20000.0, self.SAMPLE_RATE)
        with pytest.raises(SignalError):
            demod.finalize()  # no samples at all
        demod = StreamingIQDemodulator(20000.0, self.SAMPLE_RATE)
        demod.push(np.zeros(100))
        demod.finalize()
        with pytest.raises(SignalError):
            demod.push(np.zeros(10))


class TestIncrementalCircleFit:
    def _arc(self, rng, n=400):
        theta = np.linspace(0.3, 2.4, n)
        xs = 0.04 + 0.11 * np.cos(theta) + rng.normal(0, 1e-4, n)
        ys = -0.02 + 0.11 * np.sin(theta) + rng.normal(0, 1e-4, n)
        return xs, ys

    def test_matches_batch_fit_within_pin(self):
        from repro.core.trajectory_recovery import IncrementalCircleFit
        from repro.physics.geometry import fit_circle_2d

        rng = np.random.default_rng(29)
        xs, ys = self._arc(rng)
        ref = np.array(fit_circle_2d(xs, ys))
        fit = IncrementalCircleFit()
        for start in range(0, xs.size, 37):
            fit.update(xs[start : start + 37], ys[start : start + 37])
        assert fit.n == xs.size
        np.testing.assert_allclose(np.array(fit.solve()), ref, atol=TOL)

    def test_chunking_does_not_change_solution(self):
        from repro.core.trajectory_recovery import IncrementalCircleFit

        rng = np.random.default_rng(30)
        xs, ys = self._arc(rng)
        one = IncrementalCircleFit().update(xs, ys).solve()
        many = IncrementalCircleFit()
        for i in range(xs.size):
            many.update(xs[i], ys[i])
        np.testing.assert_allclose(np.array(many.solve()), np.array(one), atol=TOL)

    def test_degenerate_inputs_raise(self):
        from repro.core.trajectory_recovery import IncrementalCircleFit
        from repro.errors import ConfigurationError

        fit = IncrementalCircleFit()
        fit.update(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            fit.solve()  # fewer than three points
        line = np.linspace(0.0, 1.0, 16)
        with pytest.raises(ConfigurationError):
            IncrementalCircleFit().update(line, 2.0 * line).solve()


class TestLinalgFastPaths:
    def test_lstsq_1rhs_bitwise_vs_numpy(self):
        from repro.ml.linalg import lstsq_1rhs

        rng = np.random.default_rng(31)
        for m, k in ((40, 3), (7, 2), (300, 3)):
            a = rng.normal(size=(m, k))
            b = rng.normal(size=m)
            sol_ref, _, rank_ref, _ = np.linalg.lstsq(a, b, rcond=None)
            sol, rank = lstsq_1rhs(a, b, rcond=None)
            np.testing.assert_array_equal(sol, sol_ref)
            assert rank == int(rank_ref)

    def test_assemble_complex_bitwise(self):
        from repro.dsp.phase import _assemble_complex

        rng = np.random.default_rng(32)
        i = rng.normal(size=1000)
        q = rng.normal(size=1000)
        i[0], q[1] = -0.0, -0.0
        np.testing.assert_array_equal(_assemble_complex(i, q), i + 1.0j * q)
