import numpy as np
import pytest

from binse.kalman import (
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
from binse.stp import StpEstimate

from conftest import ar_signal, snr_scale

SPEECH2 = ArModel(np.array([1.0, -0.5]), 1.0)


def voiced(period, b):
    return PitchInfo(omega0=2 * np.pi / period, period_samples=period,
                     voicing=b, harmonic_order=1)


class TestBuildUvModel:
    def test_p1_q1_d1(self):
        m = build_uv_model(ArModel(np.array([0.7])), ArModel(np.array([0.3])), 1)
        f = m.transition(np.eye(m.dim))
        expect = np.array([[0.7, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.3]])
        np.testing.assert_array_equal(f, expect)
        assert m.observed == (0, 2)
        assert m.inputs == (0, 2)

    def test_zero_coeffs_shift_only(self):
        m = build_uv_model(ArModel(np.zeros(2)), ArModel(np.zeros(2)), 3)
        f = m.transition(np.eye(m.dim))
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
            chain_len=2,
        )
        f = m.transition(np.eye(m.dim))
        # Layout: [s(n), s(n-1), u(n), u(n-1), w(n)] -> dim 2+2+1 = 5
        expect = np.zeros((5, 5))
        expect[0, 0] = 0.7   # speech regression
        expect[1, 0] = 1.0   # speech shift
        expect[0, 2] = 1.0   # excitation coupling into s(n)
        expect[2, 3] = 0.5   # pitch tap b(p) at lag 2
        expect[3, 2] = 1.0   # excitation shift
        expect[4, 4] = 0.3   # noise regression
        np.testing.assert_array_equal(f, expect)
        assert m.observed == (0, 4)
        assert m.inputs == (2, 4)
        cov = np.arange(25.0).reshape(5, 5)
        cov = cov + cov.T
        q = np.diag([0.0, 0.0, 1.0, 0.0, 1.0])  # unit sigma_d^2 and sigma_v^2
        np.testing.assert_allclose(m.predict_covariance(cov), expect @ cov @ expect.T + q,
                                   rtol=1e-15)

    def test_period_out_of_range(self):
        with pytest.raises(ValueError):
            build_vuv_model(
                ArModel(np.zeros(1)), ArModel(np.zeros(1)),
                voiced(period=3, b=0.5), smoother_delay=1, chain_len=2,
            )

    def test_unvoiced_zero_tap(self):
        m = build_vuv_model(
            ArModel(np.zeros(1)), ArModel(np.zeros(1)), UNVOICED,
            smoother_delay=1, chain_len=4,
        )
        f = m.transition(np.eye(m.dim))
        assert np.all(f[2, :] == 0.0)  # no pitch feedback row

    def test_default_p_max(self):
        m = build_vuv_model(
            ArModel(np.zeros(14), 1.0), ArModel(np.zeros(14), 1.0), UNVOICED
        )
        assert m.dim == 26 + 100 + 14


class TestFlksStep:
    def scalar_model(self, a, variances):
        # s(n+1) = a s(n) + d(n) and a memoryless noise entry w(n) = v(n),
        # observed as z(n) = s(n) + w(n).
        return StateSpaceModel(
            dim=2,
            head_rows=np.array([0, 1]),
            head_cols=np.array([0]),
            head_weights=np.array([[a], [0.0]]),
            inputs=(0, 1),
            observed=(0, 1),
            process_variances=variances,
            smoother_delay=0,
            kind="uv",
        )

    def test_scalar_posterior_equals_observation(self):
        model = self.scalar_model(0.0, (1.0, 0.0))
        state = SmootherState(x=np.zeros(2), cov=np.eye(2))
        state, out = flks_step(state, model, 3.25)
        assert out == pytest.approx(3.25, abs=1e-12)
        assert state.x[0] == pytest.approx(3.25, abs=1e-12)

    def test_singular_innovation(self):
        # Zero covariance and process variances: the innovation variance is
        # 0, so the correction is skipped and the state is its prediction,
        # whatever the observation.
        model = self.scalar_model(0.5, (0.0, 0.0))
        state = SmootherState(x=np.array([2.0, 0.0]), cov=np.zeros((2, 2)))
        state, emitted = flks_step(state, model, 3.0)
        np.testing.assert_array_equal(state.x, [1.0, 0.0])
        np.testing.assert_array_equal(state.cov, np.zeros((2, 2)))
        assert emitted == 1.0

    def test_joint_state_matches_per_channel(self, rng):
        # One (dim, 2) recursion and two (dim,) recursions from the same
        # covariance give the same bits: the covariance and gain never see
        # the data.
        model = build_vuv_model(
            ArModel(np.array([1.0, -0.5]), 1e-3), ArModel(np.array([0.3]), 1e-3),
            voiced(period=3, b=0.5), smoother_delay=4, chain_len=5,
        )
        joint = initial_state(model, 1.0, (2,))
        joint.x = rng.normal(size=(model.dim, 2))
        single = [initial_state(model, 1.0) for _ in range(2)]
        for c, state in enumerate(single):
            state.x = joint.x[:, c].copy()
        for z in rng.normal(size=(40, 2)):
            joint, emitted = flks_step(joint, model, z)
            outs = []
            for c in range(2):
                single[c], out = flks_step(single[c], model, float(z[c]))
                outs.append(out)
                np.testing.assert_array_equal(joint.x[:, c], single[c].x)
                np.testing.assert_array_equal(joint.cov, single[c].cov)
            if emitted is None:
                assert outs == [None, None]
            else:
                assert emitted.shape == (2,)
                np.testing.assert_array_equal(emitted, outs)

    def test_joint_state_matches_per_channel_after_freeze(self, rng):
        # Past the freeze the step keeps the gain and covariance; the joint
        # and per-channel recursions must still agree bit for bit.
        model = build_vuv_model(
            ArModel(np.array([1.0, -0.5]), 1e-3), ArModel(np.array([0.3]), 1e-3),
            voiced(period=3, b=0.5), smoother_delay=4, chain_len=5,
        )
        z = rng.normal(size=(300, 2))
        joint = initial_state(model, 1.0, (2,))
        single = [initial_state(model, 1.0) for _ in range(2)]
        frozen_at = None
        for n, z_n in enumerate(z):
            joint, emitted = flks_step(joint, model, z_n)
            outs = [flks_step(single[c], model, float(z_n[c]))[1] for c in range(2)]
            if frozen_at is None and joint.frozen is model:
                frozen_at = n
            for c in range(2):
                assert (single[c].frozen is model) == (joint.frozen is model)
                np.testing.assert_array_equal(joint.x[:, c], single[c].x)
            if emitted is not None:
                np.testing.assert_array_equal(emitted, outs)
        assert frozen_at is not None and frozen_at < 200

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


def dense_flks(model, z, obs_variance):
    """Textbook Kalman steps on the dense model, one a posteriori state per
    observation: P- = F P F^T + Q, K = P- h^T / s and P = (I - K h) P-,
    symmetrized."""
    dim = model.dim
    f = model.transition(np.eye(dim))
    q = np.zeros((dim, dim))
    q[model.inputs, model.inputs] = model.process_variances
    h = np.zeros(dim)
    h[list(model.observed)] = 1.0
    start = initial_state(model, obs_variance, z.shape[1:])
    x, cov = start.x, start.cov
    states = []
    for z_n in z:
        x = f @ x
        cov = f @ cov @ f.T + q
        gain = cov @ h / (h @ cov @ h)
        x = x + np.multiply.outer(gain, z_n - h @ x)
        cov = (np.eye(dim) - np.outer(gain, h)) @ cov
        cov = (cov + cov.T) / 2
        states.append(x)
    return np.array(states)


class TestDenseOracle:
    @pytest.mark.parametrize("pitch", [UNVOICED, voiced(period=7, b=0.5)],
                             ids=["unvoiced", "voiced"])
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["mono", "stereo"])
    def test_matches_textbook_step(self, rng, pitch, shape):
        # The shifted symmetric step and the gain freeze against the dense
        # recursion: every a posteriori state within 1e-10 of the largest
        # entry, the covariance exactly symmetric after every step.
        speech = ArModel(np.array([1.2, -0.6, 0.2, -0.1]), 1e-3)
        model = build_vuv_model(speech, ArModel(np.array([0.4]), 5e-4), pitch,
                                smoother_delay=10, chain_len=8)
        z = ar_signal(speech.coefficients, 1e-3, 400 * (shape[0] if shape else 1), rng)
        z = z.reshape(400, *shape) + 0.03 * rng.normal(size=(400, *shape))
        oracle = dense_flks(model, z, 1.0)
        state = initial_state(model, 1.0, shape)
        frozen_at = None
        for n, z_n in enumerate(z):
            state, _ = flks_step(state, model, z_n if shape else float(z_n))
            assert np.array_equal(state.cov, state.cov.T)
            np.testing.assert_allclose(state.x, oracle[n], rtol=0,
                                       atol=1e-10 * np.max(np.abs(oracle)))
            if frozen_at is None and state.frozen is model:
                frozen_at = n
        if pitch is UNVOICED:
            assert frozen_at is not None and frozen_at < 200


class TestVuvUvAgreement:
    def test_b_zero_matches_uv(self, rng):
        speech = ArModel(np.array([1.0, -0.5]), 1e-3)
        noise = ArModel(np.array([0.3]), 1e-3)
        z = rng.normal(size=400) * 0.05
        uv = build_uv_model(speech, noise, smoother_delay=5)
        vuv = build_vuv_model(speech, noise, UNVOICED, smoother_delay=5, chain_len=10)
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
            s, self.make_params(10, speech, noise), 200
        )
        err = out - s
        assert np.sqrt(np.mean(err**2)) < 1e-6

    def test_zero_speech_suppression(self, rng):
        w = ar_signal([0.3], 1e-3, 2000, rng)
        speech = ArModel(np.array([1.0, -0.5]), 0.0)
        noise = ArModel(np.array([0.3]), 1e-3)
        out = enhance_channel(
            w, self.make_params(10, speech, noise), 200
        )
        # Skip the first frame: the initial covariance lets some noise leak
        # into the speech states until the filter settles.
        assert np.sqrt(np.mean(out[200:] ** 2)) < 0.05 * np.sqrt(
            np.mean(w**2)
        )

    def test_param_count_mismatch(self, rng):
        s = rng.normal(size=400)
        speech = ArModel(np.array([0.5]), 1.0)
        noise = ArModel(np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            enhance_channel(
                s, self.make_params(3, speech, noise), 200
            )

    def test_trailing_partial_frame_smoothed(self, rng):
        n = 5 * 200 + 150
        speech = ArModel(np.array([1.8, -0.9]), 1e-3)
        s = ar_signal(speech.coefficients, 1e-3, n, rng)
        noise_sig = rng.normal(size=n)
        g = snr_scale(s, noise_sig, 10.0)
        z = s + g * noise_sig
        params = self.make_params(5, speech, ArModel(np.array([0.0]), g * g))
        out = enhance_channel(z, params, 200)
        assert len(out) == n
        ratio = np.sqrt(np.mean(out[1000:] ** 2) / np.mean(z[1000:] ** 2))
        assert 0.5 <= ratio <= 2.0

    def test_shorter_than_one_frame_passed_through(self, rng):
        z = rng.normal(size=150)
        out = enhance_channel(z, [], 200)
        np.testing.assert_array_equal(out, z)

    def test_shorter_than_one_frame_multichannel_passed_through(self, rng):
        z = rng.normal(size=(2, 150))
        out = enhance_channel(z, [], 200)
        np.testing.assert_array_equal(out, z)

    def test_channels_share_one_recursion(self, rng):
        # a and -a have the same first-frame energy, so they start from the
        # same covariance; the joint run must match the one-channel run.
        speech = ArModel(np.array([1.8, -0.9]), 1e-3)
        a = ar_signal(speech.coefficients, 1e-3, 5 * 200 + 70, rng)
        a += 0.05 * rng.normal(size=len(a))
        params = self.make_params(5, speech, ArModel(np.array([0.0]), 2.5e-3))
        one = enhance_channel(a, params, 200)
        both = enhance_channel(np.vstack([a, -a]), params, 200)
        assert both.shape == (2, len(a))
        np.testing.assert_array_equal(both, [one, -one])

    def test_initial_covariance_from_mean_energy(self, rng, monkeypatch):
        import binse.kalman as kalman

        seen = []

        def spy(model, obs_variance, channels=()):
            seen.append((obs_variance, channels))
            return initial_state(model, obs_variance, channels)

        monkeypatch.setattr(kalman, "initial_state", spy)
        z = rng.normal(size=(2, 450)) * np.array([[1.0], [3.0]])
        params = self.make_params(2, SPEECH2, ArModel(np.array([0.0]), 1.0))
        enhance_channel(z, params, 200)
        energies = [np.dot(c[:200], c[:200]) / 200 for c in z]
        assert seen == [(pytest.approx(np.mean(energies), rel=1e-12), (2,))]

    @pytest.mark.parametrize(
        "periods,p_max",
        [((None, 40, 81, None, 100, 40), 128), ((81, None, 40, None), 100)],
        ids=["longest_100_of_128", "longest_81_of_100"],
    )
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["mono", "stereo"])
    def test_sized_chain_matches_full_chain(self, rng, monkeypatch, periods, p_max, shape):
        # Chain entries past the longest period only shift out, so the
        # sized state must give the full p_max state's output bit for bit.
        import binse.kalman as kalman

        speech = ArModel(np.array([1.2, -0.6]), 1e-3)
        noise = ArModel(np.array([0.4]), 5e-4)
        n = len(periods) * 200 + 70
        z = ar_signal(speech.coefficients, 1e-3, n * (shape[0] if shape else 1), rng)
        z = z.reshape(*shape, n) + 0.02 * rng.normal(size=(*shape, n))
        params = [
            (StpEstimate(speech=speech, noise=noise),
             UNVOICED if p is None else voiced(period=p, b=0.6))
            for p in periods
        ]
        sized = enhance_channel(z, params, 200, model_kind="vuv", p_max=p_max)

        def full_chain(speech, noise, pitch, smoother_delay, chain_len):
            assert chain_len == max(p for p in periods if p is not None) < p_max
            return build_vuv_model(speech, noise, pitch, smoother_delay, p_max)

        monkeypatch.setattr(kalman, "build_vuv_model", full_chain)
        full = enhance_channel(z, params, 200, model_kind="vuv", p_max=p_max)
        assert sized.tobytes() == full.tobytes()

    def test_unvoiced_record_builds_one_entry_chain(self, rng, monkeypatch):
        import binse.kalman as kalman

        dims = []

        def spy(*args):
            model = build_vuv_model(*args)
            dims.append(model.dim)
            return model

        monkeypatch.setattr(kalman, "build_vuv_model", spy)
        noise = ArModel(np.array([0.3, -0.1, 0.05]), 1.0)
        params = self.make_params(3, SPEECH2, noise)
        enhance_channel(rng.normal(size=600), params, 200, model_kind="vuv",
                        smoother_delay=10)
        assert dims == [10 + 1 + 1 + 3] * 3

    def test_period_above_p_max_rejected(self, rng):
        params = [(StpEstimate(speech=SPEECH2, noise=ArModel(np.zeros(1), 1.0)),
                   voiced(period=101, b=0.5))]
        with pytest.raises(ValueError, match="outside"):
            enhance_channel(rng.normal(size=200), params, 200, model_kind="vuv", p_max=100)

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
        out = enhance_channel(z, params, 200)
        elapsed = time.perf_counter() - t0
        in_snr = output_snr(s, z)
        flks_snr = output_snr(s, out)
        oracle_snr = output_snr(s, wiener_oracle(z, s, speech, g * g))
        assert flks_snr >= in_snr + 4.0
        assert flks_snr >= oracle_snr - 1.5
        assert elapsed < 2.0
