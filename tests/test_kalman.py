import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binse.kalman import (
    BLOCK_LEN,
    INNOVATION_EPS,
    SmootherState,
    StateSpaceModel,
    build_uv_model,
    build_vuv_model,
    enhance_channel,
    flks_step,
    initial_state,
)
from binse.linpred import ArModel
from binse.pipeline import RunConfig, frame_params, process
from binse.pitch import UNVOICED, PitchInfo
from binse.signal_core import AudioBuffer
from binse.stp import StpEstimate

from conftest import ar_signal, codebook_from_models, snr_scale

SPEECH2 = ArModel(np.array([1.0, -0.5]), 1.0)


def voiced(period, b):
    return PitchInfo(omega0=2 * np.pi / period, period_samples=period,
                     voicing=b, harmonic_order=1)


class TestBuildUvModel:
    def test_p1_q1_d1(self):
        m = build_uv_model(ArModel(np.array([0.7])), ArModel(np.array([0.3])), 1)
        f = m.matrix()
        expect = np.array([[0.7, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.3]])
        np.testing.assert_array_equal(f, expect)
        assert m.observed == (0, 2)
        assert m.inputs == (0, 2)

    def test_zero_coeffs_shift_only(self):
        m = build_uv_model(ArModel(np.zeros(2)), ArModel(np.zeros(2)), 3)
        f = m.matrix()
        expect = np.zeros((6, 6))
        expect[1:4, 0:3] += np.eye(3)
        expect[5, 4] = 1.0
        np.testing.assert_array_equal(f, expect)

    def test_delay_too_small(self, rng):
        # The speech chain's smoother_delay + 1 entries must hold the speech
        # order's; process rejects a shorter chain before it builds any model.
        speech = codebook_from_models([ArModel(np.r_[0.5, np.zeros(13)])], "speech")
        noise = codebook_from_models([ArModel(np.zeros(2))], "noise")
        with pytest.raises(ValueError, match="order 14 exceeds smoother_delay 13"):
            process(AudioBuffer(rng.normal(size=400), 8000), speech, noise,
                    RunConfig(smoother_delay=13))

    def test_default_dimensions(self):
        # At RunConfig's default delay.
        m = build_uv_model(ArModel(np.zeros(14)), ArModel(np.zeros(14)), 25)
        assert m.dim == 26 + 14
        assert m.smoother_delay == 25

    @pytest.mark.parametrize("speech_order", [1, 2, 14])
    @pytest.mark.parametrize("noise_order", [1, 2, 14])
    @pytest.mark.parametrize("at_order", [True, False], ids=["delay=order", "delay=25"])
    def test_is_vuv_with_empty_chain(self, rng, speech_order, noise_order, at_order):
        # The UV model is the V-UV one with no excitation chain: d(n) drives
        # the speech head, with no coupling entry and no pitch tap.
        speech = ArModel(rng.uniform(-0.3, 0.3, speech_order) / speech_order, 0.7)
        noise = ArModel(rng.uniform(-0.3, 0.3, noise_order) / noise_order, 0.2)
        delay = speech_order if at_order else 25
        uv = build_uv_model(speech, noise, delay)
        vuv = build_vuv_model(speech, noise, UNVOICED, delay, 0)
        assert vuv.dim == uv.dim == delay + 1 + noise_order
        assert vuv.head_rows.tolist() == uv.head_rows.tolist() == [0, delay + 1]
        np.testing.assert_array_equal(vuv.head_cols, uv.head_cols)
        assert vuv.head_weights.tobytes() == uv.head_weights.tobytes()
        assert (vuv.inputs, vuv.observed) == (uv.inputs, uv.observed) == ((0, delay + 1),) * 2
        assert vuv.process_variances == uv.process_variances == (0.7, 0.2)


class TestBuildVuvModel:
    def test_hand_assembled_6x6(self):
        m = build_vuv_model(
            ArModel(np.array([0.7])),
            ArModel(np.array([0.3])),
            voiced(period=2, b=0.5),
            smoother_delay=1,
            chain_len=2,
        )
        f = m.matrix()
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
        predicted = np.empty_like(cov)
        m.predict(cov, predicted)
        np.testing.assert_allclose(predicted, expect @ cov @ expect.T + q, rtol=1e-15)

    def test_unvoiced_zero_tap(self):
        m = build_vuv_model(
            ArModel(np.zeros(1)), ArModel(np.zeros(1)), UNVOICED,
            smoother_delay=1, chain_len=4,
        )
        f = m.matrix()
        assert np.all(f[2, :] == 0.0)  # no pitch feedback row


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


def reference_predict(model, joint, cov_cols):
    """``StateSpaceModel.predict`` as a fresh array, by the arithmetic of the
    step that allocated its buffers: one head mat-vec per x column and one
    head product for P."""
    rows, weights, k = model.head_rows, model.head_weights, cov_cols
    out = np.empty_like(joint)
    gathered = joint[model.head_cols]
    out[1:, k:] = joint[:-1, k:]
    for c in range(k, joint.shape[1]):
        out[rows, c] = weights.dot(gathered[:, c])
    if k:
        heads = weights.dot(gathered[:, :k])
        shifted = heads[:, :-1]
        out[1:, 1:k] = joint[:-1, : k - 1]
        out[rows, 1:k] = shifted
        out[1:, rows] = shifted.T
        q = np.zeros((len(rows), len(rows)))
        driven = np.searchsorted(rows, model.inputs)
        q[driven, driven] = model.process_variances
        m = heads[:, model.head_cols].dot(weights.T / 2)
        out[np.ix_(rows, rows)] = m + m.T + q
    return out


class ReferenceSmoother:
    """``flks_step`` with a fresh [P | x] and a fresh rank-one term every step."""

    def __init__(self, state):
        self.joint = state.joint.copy()

    def step(self, model, z_n):
        dim, (i, j) = model.dim, model.observed
        out = reference_predict(model, self.joint, dim)
        obs = out[i] + out[j]
        innov_var = float(obs[i] + obs[j])
        if not innov_var <= INNOVATION_EPS:
            obs[dim:] -= z_n
            w = obs / math.sqrt(innov_var)
            out -= np.multiply.outer(w[:dim], w)
        self.joint = out
        return self.joint[model.smoother_delay, dim:]


def stable_ar(radii, angles):
    """AR coefficients whose poles are the pairs r exp(+-i angle)."""
    poly = np.array([1.0])
    for r, a in zip(radii, angles):
        poly = np.convolve(poly, [1.0, -2 * r * np.cos(a), r * r])
    return -poly[1:]


SPEECH14 = ArModel(stable_ar([0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5],
                             [0.3, 0.8, 1.3, 1.9, 2.4, 2.8, 0.1]), 1e-3)
NOISE14 = ArModel(stable_ar([0.5, 0.4, 0.3, 0.3, 0.2, 0.2, 0.1],
                            [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 0.2]), 5e-4)


def order14_model(kind):
    """A default-delay model at order 14: UV (dim 40), V-UV with an
    unvoiced frame (dim 41), or V-UV voiced at period 60 with the 92-entry
    chain of the roadmap's voiced record (dim 132)."""
    if kind == "uv":
        return build_uv_model(SPEECH14, NOISE14, 25)
    if kind == "vuv-unvoiced":
        return build_vuv_model(SPEECH14, NOISE14, UNVOICED, 25, 1)
    return build_vuv_model(SPEECH14, NOISE14, voiced(period=60, b=0.5), 25, 92)


class TestStepOracle:
    @pytest.mark.parametrize("kind,dim", [("uv", 40), ("vuv-unvoiced", 41), ("vuv-voiced", 132)])
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["mono", "stereo"])
    def test_bitwise_against_allocating_step(self, rng, kind, dim, shape):
        # flks_step in its reused buffers against the step that allocated a
        # fresh [P | x] and rank-one term each sample: the same joint and
        # emitted samples, bit for bit.
        model = order14_model(kind)
        assert model.dim == dim
        z = ar_signal(SPEECH14.coefficients, 1e-3, 600 * 2, rng).reshape(600, 2)
        z += 0.03 * rng.normal(size=(600, 2))
        z = z[:, : shape[0]] if shape else z[:, 0]
        state = initial_state(model, float(np.mean(z[:200] ** 2)), shape)
        ref = ReferenceSmoother(state)
        for n, z_n in enumerate(z):
            state, emitted = flks_step(state, model, z_n if shape else float(z_n))
            expect = ref.step(model, z_n)
            assert state.joint.tobytes() == ref.joint.tobytes()
            if n < model.smoother_delay:
                assert emitted is None
            else:
                assert np.asarray(emitted).reshape(-1).tobytes() == expect.tobytes()

    def test_step_allocates_less_than_one_joint(self, rng):
        # After warm-up, a step at dim 132 with two channels writes into the
        # state's reused buffers: its peak allocation stays below one
        # (dim, dim + C) array.
        model = order14_model("vuv-voiced")
        state = initial_state(model, 1e-3, (2,))
        z = 0.05 * rng.normal(size=(11, 2))
        for z_n in z[:10]:
            state, _ = flks_step(state, model, z_n)
        tracemalloc.start()
        try:
            state, _ = flks_step(state, model, z[10])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.joint.nbytes == 132 * 134 * 8


def dense_flks(model, z, obs_variance):
    """Textbook Kalman steps on the dense model, one a posteriori state per
    observation: P- = F P F^T + Q, K = P- h^T / s and P = (I - K h) P-,
    symmetrized."""
    dim = model.dim
    f = model.matrix()
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
        # The shifted symmetric step against the dense recursion: every a
        # posteriori state within 1e-10 of the largest entry, the covariance
        # exactly symmetric after every step.
        speech = ArModel(np.array([1.2, -0.6, 0.2, -0.1]), 1e-3)
        model = build_vuv_model(speech, ArModel(np.array([0.4]), 5e-4), pitch,
                                smoother_delay=10, chain_len=8)
        z = ar_signal(speech.coefficients, 1e-3, 400 * (shape[0] if shape else 1), rng)
        z = z.reshape(400, *shape) + 0.03 * rng.normal(size=(400, *shape))
        oracle = dense_flks(model, z, 1.0)
        state = initial_state(model, 1.0, shape)
        for n, z_n in enumerate(z):
            state, _ = flks_step(state, model, z_n if shape else float(z_n))
            assert np.array_equal(state.cov, state.cov.T)
            np.testing.assert_allclose(state.x, oracle[n], rtol=0,
                                       atol=1e-10 * np.max(np.abs(oracle)))


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


def stepped(z, models, frame_len, delay):
    """The flks_step loop over ``z`` and then ``delay`` zeros, under each
    frame's model and then the last one: the exact fixed-lag smoother that
    ``enhance_channel`` computes."""
    n = z.shape[-1]
    energy = np.mean([float(np.dot(c, c)) / frame_len for c in z.reshape(-1, n)[:, :frame_len]])
    state = initial_state(models[0], max(energy, 1e-12), z.shape[:-1])
    observations = np.concatenate((z, np.zeros((*z.shape[:-1], delay))), axis=-1)
    emitted = []
    for i in range(n + delay):
        model = models[min(i // frame_len, len(models) - 1)]
        state, sample = flks_step(state, model, observations[..., i])
        assert (sample is None) == (i < delay)
        if sample is not None:
            emitted.append(sample)
    return np.stack(emitted, axis=-1)


def spy_steps(monkeypatch):
    """Record the samples for which ``enhance_channel`` calls flks_step."""
    import binse.kalman as kalman

    samples = []

    def spy(state, model, z_n):
        samples.append(state.samples_seen)
        return flks_step(state, model, z_n)

    monkeypatch.setattr(kalman, "flks_step", spy)
    return samples


def remainders(n, frame_len, delay):
    """The samples each segment (a frame; the last one through the partial
    frame and the flush) leaves after its whole blocks of ``BLOCK_LEN``."""
    ends = [*range(frame_len, (n // frame_len) * frame_len, frame_len), n + delay]
    return {i for start, end in zip([0, *ends], ends)
            for i in range(end - (end - start) % BLOCK_LEN, end)}


def assert_matches_step_loop(got, z, models, frame_len, delay, steps, fallback=range(0)):
    """``got`` against the flks_step loop: the same NaNs, and every other
    sample within 1e-12 of the peak.  ``enhance_channel`` called flks_step
    (``steps``, from ``spy_steps``) for each segment's remainder and for
    the ``fallback`` samples, and nowhere else."""
    plain = stepped(z, models, frame_len, delay)
    assert sorted(steps) == sorted(remainders(z.shape[-1], frame_len, delay) | set(fallback))
    assert np.array_equal(np.isnan(got), np.isnan(plain))
    finite = ~np.isnan(plain)
    np.testing.assert_allclose(got[finite], plain[finite], rtol=0,
                               atol=1e-12 * np.max(np.abs(plain[finite])))


class TestEnhanceChannel:
    def make_params(self, n_frames, speech, noise):
        est = StpEstimate(speech=speech, noise=noise)
        return [(est, UNVOICED)] * n_frames

    def test_zero_noise_passthrough(self, rng):
        s = ar_signal([1.0, -0.5], 1e-3, 2000, rng)
        speech = ArModel(np.array([1.0, -0.5]), 1e-3)
        noise = ArModel(np.array([0.0]), 0.0)
        out = enhance_channel(
            s, self.make_params(10, speech, noise), 200, "uv", 25
        )
        err = out - s
        assert np.sqrt(np.mean(err**2)) < 1e-6

    def test_zero_speech_suppression(self, rng):
        w = ar_signal([0.3], 1e-3, 2000, rng)
        speech = ArModel(np.array([1.0, -0.5]), 0.0)
        noise = ArModel(np.array([0.3]), 1e-3)
        out = enhance_channel(
            w, self.make_params(10, speech, noise), 200, "uv", 25
        )
        # Skip the first frame: the initial covariance lets some noise leak
        # into the speech states until the filter settles.
        assert np.sqrt(np.mean(out[200:] ** 2)) < 0.05 * np.sqrt(
            np.mean(w**2)
        )

    def test_param_count_mismatch(self, rng):
        # enhance_channel reads one parameter set per whole frame, and
        # frame_params gives exactly that many, a trailing partial frame none.
        speech = codebook_from_models([ArModel(np.array([0.5]))], "speech")
        noise = codebook_from_models([ArModel(np.array([0.1]))], "noise")
        for n in (199, 200, 599):
            z = AudioBuffer(rng.normal(size=n), 8000)
            [(_, params)] = frame_params(z, speech, noise, RunConfig(model="uv"))
            assert len(params) == n // 200

    def test_trailing_partial_frame_smoothed(self, rng):
        n = 5 * 200 + 150
        speech = ArModel(np.array([1.8, -0.9]), 1e-3)
        s = ar_signal(speech.coefficients, 1e-3, n, rng)
        noise_sig = rng.normal(size=n)
        g = snr_scale(s, noise_sig, 10.0)
        z = s + g * noise_sig
        params = self.make_params(5, speech, ArModel(np.array([0.0]), g * g))
        out = enhance_channel(z, params, 200, "uv", 25)
        assert len(out) == n
        ratio = np.sqrt(np.mean(out[1000:] ** 2) / np.mean(z[1000:] ** 2))
        assert 0.5 <= ratio <= 2.0

    def test_shorter_than_one_frame_passed_through(self, rng):
        z = rng.normal(size=150)
        out = enhance_channel(z, [], 200, "uv", 25)
        np.testing.assert_array_equal(out, z)

    def test_shorter_than_one_frame_multichannel_passed_through(self, rng):
        z = rng.normal(size=(2, 150))
        out = enhance_channel(z, [], 200, "uv", 25)
        np.testing.assert_array_equal(out, z)

    def test_channels_share_one_recursion(self, rng):
        # a and -a have the same first-frame energy, so they start from the
        # same covariance; the joint run must match the one-channel run.
        speech = ArModel(np.array([1.8, -0.9]), 1e-3)
        a = ar_signal(speech.coefficients, 1e-3, 5 * 200 + 70, rng)
        a += 0.05 * rng.normal(size=len(a))
        params = self.make_params(5, speech, ArModel(np.array([0.0]), 2.5e-3))
        one = enhance_channel(a, params, 200, "uv", 25)
        both = enhance_channel(np.vstack([a, -a]), params, 200, "uv", 25)
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
        enhance_channel(z, params, 200, "uv", 25)
        energies = [np.dot(c[:200], c[:200]) / 200 for c in z]
        assert seen == [(pytest.approx(np.mean(energies), rel=1e-12), (2,))]

    @pytest.mark.parametrize(
        "periods,full_len",
        [((None, 40, 81, None, 100, 40), 128), ((81, None, 40, None), 100)],
        ids=["longest_100_of_128", "longest_81_of_100"],
    )
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["mono", "stereo"])
    def test_sized_chain_matches_full_chain(self, rng, monkeypatch, periods, full_len, shape):
        # Chain entries past the longest period only shift out, so the
        # sized state must give a full_len-entry chain's output bit for bit.
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
        sized = enhance_channel(z, params, 200, "vuv", 25)

        def full_chain(speech, noise, pitch, smoother_delay, chain_len):
            assert chain_len == max(p for p in periods if p is not None) < full_len
            return build_vuv_model(speech, noise, pitch, smoother_delay, full_len)

        monkeypatch.setattr(kalman, "build_vuv_model", full_chain)
        full = enhance_channel(z, params, 200, "vuv", 25)
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

    @pytest.mark.parametrize("delay", [0, 25, 200])
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["mono", "stereo"])
    def test_one_step_loop_over_input_then_zeros(self, rng, monkeypatch, delay, shape):
        # The output is a flks_step loop over the input and then `delay` zero
        # observations, under each frame's model and then the last one; the
        # step for sample i emits output sample i - delay.  Lifted blocks run
        # it within 1e-12 of the peak; flks_step runs only the first block,
        # whose flat prior spreads its K-step variances past
        # BLOCK_SPREAD_MAX, and the 20-sample remainder of the last segment.
        speech = ArModel(np.array([1.2, -0.6])[:delay], 1e-3)
        noise = ArModel(np.array([0.4]), 5e-4)
        n = 3 * 200 + 70  # a trailing partial frame
        z = rng.normal(size=(*shape, n))
        params = [(StpEstimate(speech=speech, noise=noise), pitch)
                  for pitch in (UNVOICED, voiced(period=40, b=0.6), voiced(period=81, b=0.3))]
        steps = spy_steps(monkeypatch)
        got = enhance_channel(z, params, 200, model_kind="vuv", smoother_delay=delay)
        models = [build_vuv_model(speech, noise, pitch, delay, 81) for _, pitch in params]
        assert got.shape == z.shape
        assert_matches_step_loop(got, z, models, 200, delay, steps, range(BLOCK_LEN))

    @staticmethod
    def oracle_params(kind, delay):
        # Four frames: unvoiced, period 40, a digital-silence frame (zero
        # input under zero coefficients and variances, so the innovation
        # variance is 0 and its blocks fall back to flks_step) and period 81.
        speech = ArModel(np.array([1.2, -0.6])[:delay], 1e-3)
        noise = ArModel(np.array([0.4]), 5e-4)
        silent = StpEstimate(speech=ArModel(np.zeros(speech.order), 0.0),
                             noise=ArModel(np.zeros(1), 0.0))
        est = StpEstimate(speech=speech, noise=noise)
        params = [(est, UNVOICED), (est, voiced(period=40, b=0.6)), (silent, UNVOICED),
                  (est, voiced(period=81, b=0.3))]
        if kind == "uv":
            return params, [build_uv_model(e.speech, e.noise, delay) for e, _ in params]
        return params, [build_vuv_model(e.speech, e.noise, p, delay, 81) for e, p in params]

    @pytest.mark.parametrize("path", ["block", "steps"])
    @pytest.mark.parametrize("frame_len,delay", [(200, 0), (200, 25), (200, 200), (100, 25)])
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["mono", "stereo"])
    @pytest.mark.parametrize("kind", ["uv", "vuv"])
    def test_frozen_runs_match_step_loop(self, rng, monkeypatch, kind, shape, frame_len, delay,
                                         path):
        # The exact smoother through a silent frame, against the per-sample
        # loop (see assert_matches_step_loop): "block" runs lifted blocks,
        # and the silent frame's blocks fall back to flks_step; "steps" makes
        # every segment shorter than a block, so every sample runs flks_step
        # and the output is the loop's, bit for bit.  In V-UV the period-40
        # frame's pitch tap acts only through a lagged entry.
        import binse.kalman as kalman

        if path == "steps":
            monkeypatch.setattr(kalman, "BLOCK_LEN", 10**6)
        n = 4 * frame_len + 70  # a trailing partial frame
        z = 0.05 * rng.normal(size=(*shape, n))
        silent = range(2 * frame_len, 3 * frame_len)
        z[..., silent] = 0.0
        params, models = self.oracle_params(kind, delay)
        steps = spy_steps(monkeypatch)
        got = enhance_channel(z, params, frame_len, model_kind=kind, smoother_delay=delay)
        if path == "steps":
            assert steps == list(range(n + delay))
            assert got.tobytes() == stepped(z, models, frame_len, delay).tobytes()
        else:
            assert_matches_step_loop(got, z, models, frame_len, delay, steps, silent)

    @pytest.mark.parametrize("shape", [(), (2,)], ids=["mono", "stereo"])
    def test_nan_input_shows(self, rng, monkeypatch, shape):
        # A NaN in the first channel, inside a block of the last frame, turns
        # that channel's output NaN from the sample it reaches on: its block
        # runs per sample.  The covariance never sees the data, so any other
        # channel stays finite.
        n, delay, at = 4 * 200 + 70, 25, 760
        z = 0.05 * rng.normal(size=(*shape, n))
        z.reshape(-1, n)[0, at] = np.nan
        params, models = self.oracle_params("vuv", delay)
        steps = spy_steps(monkeypatch)
        got = enhance_channel(z, params, 200, model_kind="vuv", smoother_delay=delay)
        assert_matches_step_loop(got, z, models, 200, delay, steps,
                                 [*range(400, 600), *range(750, 775)])
        first = got.reshape(-1, n)[0]
        assert np.all(np.isnan(first[at - delay :])) and np.all(np.isfinite(first[: at - delay]))
        assert np.all(np.isfinite(got.reshape(-1, n)[1:]))

    def test_flks_step_runs_only_for_the_last_remainder(self, rng, monkeypatch):
        # 20 V-UV frames at dim 41 and a 24-sample partial frame, as a
        # benchmark scene: every frame runs as blocks, and flks_step only
        # for the first block (the flat prior's K-step spread passes
        # BLOCK_SPREAD_MAX) and the 24 samples of the last segment
        # (200 + 24 + 25 samples) that its 9 blocks leave.  A block that
        # fell back would show here.
        n = 20 * 200 + 24
        z = ar_signal(SPEECH14.coefficients, 1e-3, 2 * n, rng).reshape(2, n)
        params = [(StpEstimate(speech=SPEECH14, noise=NOISE14), UNVOICED)] * 20
        steps = spy_steps(monkeypatch)
        enhance_channel(z + 0.03 * rng.normal(size=z.shape), params, 200, "vuv", 25)
        assert build_vuv_model(SPEECH14, NOISE14, UNVOICED, 25, 1).dim == 41
        assert steps == [*range(BLOCK_LEN), *range(n + 25 - 24, n + 25)]

    def test_growing_powers_run_per_sample(self, rng, monkeypatch):
        # Clustered poles at radius 0.97 make the rows h F^t grow past
        # ROW_GROWTH_MAX (coefficients reach 48), where K-step products would
        # cancel digits that per-sample steps keep: every sample steps, so the
        # output is the loop's bit for bit.
        speech = ArModel(stable_ar([0.97] * 4, [0.3, 0.4, 0.5, 0.6]), 1e-3)
        params, n = self.make_params(3, speech, ArModel(np.array([0.4]), 1e-7)), 3 * 200 + 70
        z = 0.05 * rng.normal(size=(2, n))
        steps = spy_steps(monkeypatch)
        got = enhance_channel(z, params, 200, "uv", 25)
        assert steps == list(range(n + 25))
        models = [build_uv_model(speech, params[0][0].noise, 25)] * 3
        assert got.tobytes() == stepped(z, models, 200, 25).tobytes()

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
        out = enhance_channel(z, params, 200, "uv", 25)
        elapsed = time.perf_counter() - t0
        in_snr = output_snr(s, z)
        flks_snr = output_snr(s, out)
        oracle_snr = output_snr(s, wiener_oracle(z, s, speech, g * g))
        assert flks_snr >= in_snr + 4.0
        assert flks_snr >= oracle_snr - 1.5
        assert elapsed < 2.0


def random_ar(draw, order, variance):
    """A stable AR model of ``order`` with poles of radius up to 0.995."""
    poles = []
    for _ in range(order // 2):
        r = draw(st.floats(0.3, 0.995))
        poles.append(r * np.exp(1j * draw(st.floats(0.05, 3.09))))
        poles.append(np.conj(poles[-1]))
    if order % 2:
        poles.append(draw(st.floats(-0.95, 0.95)))
    return ArModel(-np.real(np.poly(poles))[1:] if poles else np.zeros(0), variance)


@st.composite
def lifted_cases(draw):
    """A record of 4 frames and a partial one under random stable models:
    UV or V-UV with random periods, one digital-silence frame, one or two
    channels, and a delay below, at or past ``BLOCK_LEN``."""
    delay = draw(st.sampled_from([0, 5, 24, 25, 200]))
    speech = random_ar(draw, min(draw(st.integers(1, 14)), delay),
                       draw(st.sampled_from([1e-3, 1e-2])))
    noise = random_ar(draw, draw(st.integers(1, 14)), draw(st.sampled_from([1e-7, 1e-4, 1e-2])))
    silent_at = draw(st.integers(0, 3))
    pitches = [UNVOICED if not draw(st.booleans()) else
               voiced(draw(st.integers(20, 100)), draw(st.floats(0.1, 0.9))) for _ in range(4)]
    return (draw(st.sampled_from(["uv", "vuv"])), draw(st.sampled_from([(), (2,)])), delay,
            speech, noise, pitches, silent_at, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lifted_cases())
def test_lifted_blocks_match_step_loop(case):
    # enhance_channel's lifted blocks against the per-sample flks_step loop,
    # within 1e-10 of the peak.  Below BLOCK_LEN the rows e_d F^t cross the
    # speech chain's head; the silent frame's blocks fall back to flks_step,
    # and so does a model whose powers grow past ROW_GROWTH_MAX.  On 1,500
    # random draws of these cases the worst gap read 2.2e-11 of the peak and
    # 26 draws read more than 1e-12; on those, against a long-double
    # recursion, the blocks missed by up to 2.2e-11 and the loop by up to
    # 4.7e-12.  The fixed-model tests above hold 1e-12.
    kind, shape, delay, speech, noise, pitches, silent_at, seed = case
    n = 4 * 200 + 37
    z = 0.05 * np.random.default_rng(seed).normal(size=(*shape, n))
    z[..., silent_at * 200 : (silent_at + 1) * 200] = 0.0
    silent = StpEstimate(speech=ArModel(np.zeros(speech.order), 0.0),
                         noise=ArModel(np.zeros(noise.order), 0.0))
    params = [(silent if f == silent_at else StpEstimate(speech=speech, noise=noise), pitch)
              for f, pitch in enumerate(pitches)]
    got = enhance_channel(z, params, 200, kind, delay)
    chain = max((p.period_samples for p in pitches if p.is_voiced), default=1)
    models = [build_uv_model(e.speech, e.noise, delay) if kind == "uv"
              else build_vuv_model(e.speech, e.noise, p, delay, chain) for e, p in params]
    plain = stepped(z, models, 200, delay)
    np.testing.assert_allclose(got, plain, rtol=0, atol=1e-10 * np.max(np.abs(plain)))
