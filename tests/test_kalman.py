import numpy as np
import pytest
import scipy.sparse as sp

from binse.kalman import (
    SingularInnovationError,
    SmootherState,
    StateSpaceModel,
    build_uv_model,
    build_vuv_model,
    enhance_channel,
    flks_step,
    initial_state,
)
from binse.linpred import ArModel
from binse.pitch import UNVOICED, PitchInfo
from binse.signal_core import AudioBuffer
from binse.stp import StpEstimate

from conftest import ar_signal, snr_scale

SPEECH2 = ArModel(np.array([1.0, -0.5]), 1.0)


def voiced(period, b):
    return PitchInfo(omega0=2 * np.pi / period, period_samples=period,
                     voicing=b, harmonic_order=1)


class TestBuildUvModel:
    def test_p1_q1_d1(self):
        m = build_uv_model(ArModel(np.array([0.7])), ArModel(np.array([0.3])), 1)
        f = m.transition.toarray()
        expect = np.array([[0.7, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.3]])
        np.testing.assert_array_equal(f, expect)
        np.testing.assert_array_equal(m.observation, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(m.noise_input[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(m.noise_input[:, 1], [0.0, 0.0, 1.0])

    def test_zero_coeffs_shift_only(self):
        m = build_uv_model(ArModel(np.zeros(2)), ArModel(np.zeros(2)), 3)
        f = m.transition.toarray()
        expect = np.zeros((6, 6))
        expect[1:4, 0:3] += np.eye(3)
        expect[5, 4] = 1.0
        np.testing.assert_array_equal(f, expect)

    def test_delay_too_small(self):
        with pytest.raises(ValueError):
            build_uv_model(ArModel(np.zeros(14)), ArModel(np.zeros(2)), 13)

    def test_default_dimensions(self):
        m = build_uv_model(ArModel(np.zeros(14)), ArModel(np.zeros(14)))
        assert m.dim == 26 + 14
        assert m.smoother_delay == 25


class TestBuildVuvModel:
    def test_hand_assembled_6x6(self):
        m = build_vuv_model(
            ArModel(np.array([0.7])),
            ArModel(np.array([0.3])),
            voiced(period=2, b=0.5),
            smoother_delay=1,
            p_max=2,
        )
        f = m.transition.toarray()
        # Layout: [s(n), s(n-1), u(n), u(n-1), w(n)] -> dim 2+2+1 = 5
        expect = np.zeros((5, 5))
        expect[0, 0] = 0.7   # speech regression
        expect[1, 0] = 1.0   # speech shift
        expect[0, 2] = 1.0   # excitation coupling into s(n)
        expect[2, 3] = 0.5   # pitch tap b(p) at lag 2
        expect[3, 2] = 1.0   # excitation shift
        expect[4, 4] = 0.3   # noise regression
        np.testing.assert_array_equal(f, expect)
        np.testing.assert_array_equal(m.observation, [1, 0, 0, 0, 1])
        np.testing.assert_array_equal(m.noise_input[:, 0], [0, 0, 1, 0, 0])
        np.testing.assert_array_equal(m.noise_input[:, 1], [0, 0, 0, 0, 1])

    def test_period_out_of_range(self):
        with pytest.raises(ValueError):
            build_vuv_model(
                ArModel(np.zeros(1)), ArModel(np.zeros(1)),
                voiced(period=3, b=0.5), smoother_delay=1, p_max=2,
            )

    def test_unvoiced_zero_tap(self):
        m = build_vuv_model(
            ArModel(np.zeros(1)), ArModel(np.zeros(1)), UNVOICED,
            smoother_delay=1, p_max=4,
        )
        f = m.transition.toarray()
        assert np.all(f[2, :] == 0.0)  # no pitch feedback row

    def test_default_p_max(self):
        m = build_vuv_model(
            ArModel(np.zeros(14), 1.0), ArModel(np.zeros(14), 1.0), UNVOICED
        )
        assert m.dim == 26 + 100 + 14


class TestFlksStep:
    def scalar_model(self):
        return StateSpaceModel(
            transition=sp.csr_matrix(np.array([[0.0]])),
            noise_input=np.array([[1.0, 0.0]]),
            observation=np.array([1.0]),
            process_variances=(1.0, 0.0),
            smoother_delay=0,
            kind="uv",
        )

    def test_scalar_posterior_equals_observation(self):
        model = self.scalar_model()
        state = SmootherState(x=np.zeros(1), cov=np.eye(1))
        state, out = flks_step(state, model, 3.25)
        assert out == pytest.approx(3.25, abs=1e-12)
        assert state.x[0] == pytest.approx(3.25, abs=1e-12)

    def test_singular_innovation(self):
        model = StateSpaceModel(
            transition=sp.csr_matrix(np.array([[0.0]])),
            noise_input=np.array([[1.0, 0.0]]),
            observation=np.array([1.0]),
            process_variances=(0.0, 0.0),
            smoother_delay=0,
            kind="uv",
        )
        state = SmootherState(x=np.zeros(1), cov=np.zeros((1, 1)))
        with pytest.raises(SingularInnovationError):
            flks_step(state, model, 1.0)

    def test_zero_observations_decay(self):
        model = build_uv_model(SPEECH2, ArModel(np.array([0.2]), 0.5), 4)
        state = initial_state(model, 10.0)
        prev_cov = None
        for _ in range(500):
            state, _ = flks_step(state, model, 0.0)
            if prev_cov is not None:
                delta = np.max(np.abs(state.cov - prev_cov))
            prev_cov = state.cov.copy()
        assert np.max(np.abs(state.x)) < 1e-8
        assert delta < 1e-10  # covariance reached steady state

    def test_covariance_symmetric_nonneg(self, rng):
        model = build_uv_model(
            ArModel(np.array([1.0, -0.5]), 1e-3),
            ArModel(np.array([0.3]), 1e-3),
            smoother_delay=5,
        )
        state = initial_state(model, 1.0)
        for i in range(10_000):
            state, _ = flks_step(state, model, float(rng.normal()))
            if i % 500 == 0:
                assert np.max(np.abs(state.cov - state.cov.T)) < 1e-9
                assert np.min(np.diag(state.cov)) >= -1e-12
        assert np.max(np.abs(state.cov - state.cov.T)) < 1e-9


class TestVuvUvAgreement:
    def test_b_zero_matches_uv(self, rng):
        speech = ArModel(np.array([1.0, -0.5]), 1e-3)
        noise = ArModel(np.array([0.3]), 1e-3)
        z = rng.normal(size=400) * 0.05
        uv = build_uv_model(speech, noise, smoother_delay=5)
        vuv = build_vuv_model(speech, noise, UNVOICED, smoother_delay=5, p_max=10)
        su = initial_state(uv, 1.0)
        sv = initial_state(vuv, 1.0)
        outs_u, outs_v = [], []
        for x in z:
            su, eu = flks_step(su, uv, float(x))
            sv, ev = flks_step(sv, vuv, float(x))
            if eu is not None:
                outs_u.append(eu)
            if ev is not None:
                outs_v.append(ev)
        diff = np.array(outs_u) - np.array(outs_v)
        assert np.sqrt(np.mean(diff**2)) < 1e-8


def wiener_oracle(z, s, speech, noise_var, n_fft=None):
    """Non-causal Wiener filter from the true spectra, applied over the whole record."""
    n = len(z)
    n_fft = n_fft or n
    a_fft = np.fft.fft(speech.inverse_filter(), n=n_fft)
    ps = speech.excitation_variance / np.abs(a_fft) ** 2
    h = ps / (ps + noise_var)
    return np.real(np.fft.ifft(h * np.fft.fft(z, n_fft)))[:n]


def output_snr(s, shat):
    return 10 * np.log10(np.sum(s**2) / np.sum((s - shat) ** 2))


class TestEnhanceChannel:
    def make_params(self, n_frames, speech, noise):
        est = StpEstimate(speech=speech, noise=noise)
        return [(est, UNVOICED)] * n_frames

    def test_zero_noise_passthrough(self, rng):
        s = ar_signal([1.0, -0.5], 1e-3, 2000, rng)
        speech = ArModel(np.array([1.0, -0.5]), 1e-3)
        noise = ArModel(np.array([0.0]), 0.0)
        out = enhance_channel(
            AudioBuffer(s, 8000), self.make_params(10, speech, noise), 200
        )
        err = out.samples - s
        assert np.sqrt(np.mean(err**2)) < 1e-6

    def test_zero_speech_suppression(self, rng):
        w = ar_signal([0.3], 1e-3, 2000, rng)
        speech = ArModel(np.array([1.0, -0.5]), 0.0)
        noise = ArModel(np.array([0.3]), 1e-3)
        out = enhance_channel(
            AudioBuffer(w, 8000), self.make_params(10, speech, noise), 200
        )
        # Skip the first frame: the initial covariance lets some noise leak
        # into the speech states until the filter settles.
        assert np.sqrt(np.mean(out.samples[200:] ** 2)) < 0.05 * np.sqrt(
            np.mean(w**2)
        )

    def test_param_count_mismatch(self, rng):
        s = rng.normal(size=400)
        speech = ArModel(np.array([0.5]), 1.0)
        noise = ArModel(np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            enhance_channel(
                AudioBuffer(s, 8000), self.make_params(3, speech, noise), 200
            )

    def test_trailing_partial_frame_smoothed(self, rng):
        n = 5 * 200 + 150
        speech = ArModel(np.array([1.8, -0.9]), 1e-3)
        s = ar_signal(speech.coefficients, 1e-3, n, rng)
        noise_sig = rng.normal(size=n)
        g = snr_scale(s, noise_sig, 10.0)
        z = s + g * noise_sig
        params = self.make_params(5, speech, ArModel(np.array([0.0]), g * g))
        out = enhance_channel(AudioBuffer(z, 8000), params, 200).samples
        assert len(out) == n
        ratio = np.sqrt(np.mean(out[1000:] ** 2) / np.mean(z[1000:] ** 2))
        assert 0.5 <= ratio <= 2.0

    def test_shorter_than_one_frame_passed_through(self, rng):
        z = rng.normal(size=150)
        out = enhance_channel(AudioBuffer(z, 8000), [], 200)
        np.testing.assert_array_equal(out.samples, z)

    def test_known_params_near_wiener(self, rng):
        import time

        n = 8000
        # A resonant AR(2); a flatter model would cap the achievable gain
        # below 4 dB for any filter, Wiener included.
        speech = ArModel(np.array([1.8, -0.9]), 1e-3)
        s = ar_signal(speech.coefficients, 1e-3, n, rng)
        noise_sig = rng.normal(size=n)
        g = snr_scale(s, noise_sig, 5.0)
        z = s + g * noise_sig
        noise = ArModel(np.array([0.0]), g * g)
        params = self.make_params(n // 200, speech, noise)
        t0 = time.perf_counter()
        out = enhance_channel(AudioBuffer(z, 8000), params, 200)
        elapsed = time.perf_counter() - t0
        in_snr = output_snr(s, z)
        flks_snr = output_snr(s, out.samples)
        oracle_snr = output_snr(s, wiener_oracle(z, s, speech, g * g))
        assert flks_snr >= in_snr + 4.0
        assert flks_snr >= oracle_snr - 1.5
        assert elapsed < 2.0
