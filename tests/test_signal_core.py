import numpy as np
import pytest

from binse.signal_core import (
    AudioBuffer,
    Frame,
    analytic_signal,
    autocorrelation,
    cross_spectrum,
    extract_frames,
    periodogram,
)


def buf(x, rate=8000):
    return AudioBuffer(np.asarray(x, float), rate)


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
        frames = extract_frames(buf(np.arange(200)), 200)
        assert len(frames) == 1
        assert frames[0].frame_index == 0
        np.testing.assert_array_equal(frames[0].samples, np.arange(200))

    def test_exact_division(self):
        assert len(extract_frames(buf(np.zeros(400)), 200)) == 2

    def test_trailing_partial_dropped(self):
        assert len(extract_frames(buf(np.zeros(399)), 200)) == 1

    def test_bad_frame_len(self):
        with pytest.raises(ValueError):
            extract_frames(buf(np.zeros(100)), 0)
        with pytest.raises(ValueError):
            extract_frames(buf(np.zeros(100)), 101)


class TestPeriodogram:
    def test_zero_frame(self):
        spec = periodogram(Frame(np.zeros(64), 0))
        np.testing.assert_array_equal(spec, np.zeros(64))

    def test_impulse_flat(self):
        m = 64
        x = np.zeros(m)
        x[0] = 1.0
        spec = periodogram(Frame(x, 0))
        np.testing.assert_allclose(spec, np.full(m, 1.0 / m), atol=1e-15)

    def test_on_bin_sinusoid_concentration(self):
        m = 64
        n = np.arange(m)
        x = np.cos(2 * np.pi * 5 * n / m)
        spec = periodogram(Frame(x, 0))
        # Oracle: direct DFT evaluation with the same 1/M scaling.
        dft = np.array([np.sum(x * np.exp(-2j * np.pi * k * n / m)) for k in range(m)])
        oracle = np.abs(dft) ** 2 / m
        np.testing.assert_allclose(spec, oracle, atol=1e-10)
        hot = np.argsort(spec)[-2:]
        assert set(hot) == {5, m - 5}

    def test_parseval(self, rng):
        x = rng.normal(size=200)
        spec = periodogram(Frame(x, 0))
        assert abs(spec.sum() - np.dot(x, x)) < 1e-10 * np.dot(x, x)

    def test_short_dft_rejected(self):
        with pytest.raises(ValueError):
            periodogram(Frame(np.zeros(64), 0), dft_len=32)


class TestAutocorrelation:
    def test_white_noise(self, rng):
        m = 20000
        x = rng.normal(0, 2.0, m)
        r = autocorrelation(Frame(x, 0), 5)
        assert abs(r[0] - 4.0) < 0.2
        assert np.all(np.abs(r[1:]) < 0.2)

    def test_constant_frame(self):
        m, c = 100, 3.0
        r = autocorrelation(Frame(np.full(m, c), 0), 4)
        q = np.arange(5)
        np.testing.assert_allclose(r, c * c * (m - q) / m, rtol=1e-12)

    def test_ar1_ratio(self, rng):
        from conftest import ar_signal

        x = ar_signal([0.9], 1.0, 8000, rng)
        r = autocorrelation(Frame(x, 0), 1)
        assert abs(r[1] / r[0] - 0.9) < 0.045

    def test_toeplitz_psd(self, rng):
        for _ in range(20):
            x = rng.normal(size=64)
            r = autocorrelation(Frame(x, 0), 10)
            mat = np.array([[r[abs(i - j)] for j in range(11)] for i in range(11)])
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() > -1e-10 * max(r[0], 1.0)

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            autocorrelation(Frame(np.zeros(10), 0), 10)


class TestAnalyticSignal:
    def test_on_bin_cosine(self):
        m = 64
        n = np.arange(m)
        w = 2 * np.pi * 3 / m
        out = analytic_signal(Frame(np.cos(w * n), 0))
        np.testing.assert_allclose(out, np.exp(1j * w * n), atol=1e-10)

    def test_zero_input(self):
        np.testing.assert_array_equal(analytic_signal(Frame(np.zeros(32), 0)), 0)

    def test_two_cosines(self):
        m = 128
        n = np.arange(m)
        w1, w2 = 2 * np.pi * 4 / m, 2 * np.pi * 17 / m
        out = analytic_signal(Frame(2.0 * np.cos(w1 * n) + 0.5 * np.cos(w2 * n), 0))
        expect = 2.0 * np.exp(1j * w1 * n) + 0.5 * np.exp(1j * w2 * n)
        assert np.max(np.abs(out - expect)) < 1e-10

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            analytic_signal(Frame(np.zeros(33), 0))

    def test_linearity(self, rng):
        x, y = rng.normal(size=64), rng.normal(size=64)
        lhs = analytic_signal(Frame(2.0 * x + 3.0 * y, 0))
        rhs = 2.0 * analytic_signal(Frame(x, 0)) + 3.0 * analytic_signal(Frame(y, 0))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_real_part_is_input(self, rng):
        x = rng.normal(size=64)
        np.testing.assert_allclose(analytic_signal(Frame(x, 0)).real, x, atol=1e-12)


def test_cross_spectrum_matches_periodograms(rng):
    x = rng.normal(size=128)
    f = Frame(x, 0)
    np.testing.assert_allclose(
        cross_spectrum(f, f).real, periodogram(f), atol=1e-12
    )
