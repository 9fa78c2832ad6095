import numpy as np
import pytest

from binse.codebook import train
from binse.pipeline import RunConfig
from binse.signal_core import (
    AudioBuffer,
    analytic_signal,
    autocorrelation,
    cross_spectrum,
    frame_rows,
    periodogram,
)


class TestAudioBuffer:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(10), 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.0, np.nan]), 8000)

    def test_stereo_shape(self):
        b = AudioBuffer(np.zeros((2, 5)), 8000)
        assert b.channel_count == 2
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((3, 5)), 8000)


class TestExtractFrames:
    def test_exact_single_frame(self):
        x = np.arange(200.0)
        frames = frame_rows(x, 200)
        assert frames.shape == (1, 200)
        np.testing.assert_array_equal(frames[0], x)
        assert np.shares_memory(frames, x)

    def test_exact_division(self):
        # The right channel of an interleaved stereo read is a strided view.
        right = np.arange(800.0).reshape(-1, 2).T[1]
        frames = frame_rows(right, 200)
        assert frames.shape == (2, 200)
        np.testing.assert_array_equal(frames[1], right[200:])

    def test_trailing_partial_dropped(self):
        assert frame_rows(np.zeros(399), 200).shape == (1, 200)

    def test_bad_frame_len(self):
        # The pipeline frames at RunConfig's frame_len, which must be positive.
        with pytest.raises(ValueError, match="frame_len must be positive"):
            RunConfig(frame_len=0, smoother_delay=0)
        with pytest.raises(ValueError):
            RunConfig(frame_len=-200, smoother_delay=0)

    def test_shorter_than_one_frame_gives_no_rows(self):
        assert frame_rows(np.zeros(100), 101).shape == (0, 101)


class TestPeriodogram:
    def test_zero_frame(self):
        spec = periodogram(np.zeros(64))
        np.testing.assert_array_equal(spec, np.zeros(64))

    def test_impulse_flat(self):
        m = 64
        x = np.zeros(m)
        x[0] = 1.0
        spec = periodogram(x)
        np.testing.assert_allclose(spec, np.full(m, 1.0 / m), atol=1e-15)

    def test_on_bin_sinusoid_concentration(self):
        m = 64
        n = np.arange(m)
        x = np.cos(2 * np.pi * 5 * n / m)
        spec = periodogram(x)
        # Oracle: direct DFT evaluation with the same 1/M scaling.
        dft = np.array([np.sum(x * np.exp(-2j * np.pi * k * n / m)) for k in range(m)])
        oracle = np.abs(dft) ** 2 / m
        np.testing.assert_allclose(spec, oracle, atol=1e-10)
        hot = np.argsort(spec)[-2:]
        assert set(hot) == {5, m - 5}

    def test_parseval(self, rng):
        x = rng.normal(size=200)
        spec = periodogram(x)
        assert abs(spec.sum() - np.dot(x, x)) < 1e-10 * np.dot(x, x)

    def test_rows_equal_per_row_calls(self, rng):
        # Batched spectra equal the row-by-row ones bit for bit, at the
        # pipeline's, the metrics' and two other frame lengths.
        for m in (60, 200, 256, 424):
            left, right = rng.normal(size=(2, 20, m))
            np.testing.assert_array_equal(
                periodogram(left), np.array([periodogram(row) for row in left])
            )
            np.testing.assert_array_equal(
                cross_spectrum(left, right),
                np.array([cross_spectrum(l, r) for l, r in zip(left, right)]),
            )


class TestAutocorrelation:
    def test_white_noise(self, rng):
        m = 20000
        x = rng.normal(0, 2.0, m)
        r = autocorrelation(x, 5)
        assert abs(r[0] - 4.0) < 0.2
        assert np.all(np.abs(r[1:]) < 0.2)

    def test_constant_frame(self):
        m, c = 100, 3.0
        r = autocorrelation(np.full(m, c), 4)
        q = np.arange(5)
        np.testing.assert_allclose(r, c * c * (m - q) / m, rtol=1e-12)

    def test_ar1_ratio(self, rng):
        from conftest import ar_signal

        x = ar_signal([0.9], 1.0, 8000, rng)
        r = autocorrelation(x, 1)
        assert abs(r[1] / r[0] - 0.9) < 0.045

    def test_toeplitz_psd(self, rng):
        for _ in range(20):
            x = rng.normal(size=64)
            r = autocorrelation(x, 10)
            mat = np.array([[r[abs(i - j)] for j in range(11)] for i in range(11)])
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() > -1e-10 * max(r[0], 1.0)

    def test_lag_bound(self, rng):
        # Codebook training, the one caller, keeps the order below the frame length.
        with pytest.raises(ValueError, match="below the frame length 10"):
            train(rng.normal(size=(3, 10)), size=1, order=10, seed=0)

    @pytest.mark.parametrize("m, max_lag", [(1, 0), (15, 14), (64, 10), (200, 14), (333, 40)])
    def test_rows_match_single_frames(self, rng, m, max_lag):
        frames = rng.normal(size=(9, m)) * np.logspace(-4, 4, 9)[:, None]
        rows = autocorrelation(frames, max_lag)
        assert rows.shape == (9, max_lag + 1)
        np.testing.assert_array_equal(rows, [autocorrelation(f, max_lag) for f in frames])
        full = [np.correlate(f, f, "full")[m - 1 : m + max_lag] / m for f in frames]
        np.testing.assert_allclose(rows, full, rtol=1e-12, atol=0)
        assert autocorrelation(frames[:0], max_lag).shape == (0, max_lag + 1)


class TestAnalyticSignal:
    def test_on_bin_cosine(self):
        m = 64
        n = np.arange(m)
        w = 2 * np.pi * 3 / m
        out = analytic_signal(np.cos(w * n))
        np.testing.assert_allclose(out, np.exp(1j * w * n), atol=1e-10)

    def test_zero_input(self):
        np.testing.assert_array_equal(analytic_signal(np.zeros(32)), 0)

    def test_two_cosines(self):
        m = 128
        n = np.arange(m)
        w1, w2 = 2 * np.pi * 4 / m, 2 * np.pi * 17 / m
        out = analytic_signal(2.0 * np.cos(w1 * n) + 0.5 * np.cos(w2 * n))
        expect = 2.0 * np.exp(1j * w1 * n) + 0.5 * np.exp(1j * w2 * n)
        assert np.max(np.abs(out - expect)) < 1e-10

    def test_odd_length_rejected(self):
        # The pipeline's analytic frames are RunConfig's frame_len long, which must be even.
        with pytest.raises(ValueError, match="even"):
            RunConfig(frame_len=33, smoother_delay=0)

    def test_linearity(self, rng):
        x, y = rng.normal(size=64), rng.normal(size=64)
        lhs = analytic_signal(2.0 * x + 3.0 * y)
        rhs = 2.0 * analytic_signal(x) + 3.0 * analytic_signal(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_real_part_is_input(self, rng):
        x = rng.normal(size=64)
        np.testing.assert_allclose(analytic_signal(x).real, x, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 64, 200])
    def test_matches_scipy_hilbert(self, rng, m):
        from scipy.signal import hilbert

        x = rng.normal(size=m)
        np.testing.assert_allclose(analytic_signal(x), hilbert(x), rtol=0, atol=1e-14)


def test_cross_spectrum_matches_periodograms(rng):
    x = rng.normal(size=128)
    np.testing.assert_allclose(cross_spectrum(x, x).real, periodogram(x), atol=1e-12)
