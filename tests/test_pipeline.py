import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from binse import pipeline
from binse.linpred import ArModel
from binse.pipeline import FrameDiagnostics, RunConfig, process
from binse.pitch import UNVOICED, prewhiten
from binse.signal_core import AudioBuffer

from conftest import ar_signal, channels, codebook_from_models, snr_scale, stereo

SPEECH_MODELS = [
    ArModel(np.array([1.2, -0.8, 0.3, -0.1])),
    ArModel(np.array([-1.2, -0.8, -0.3, -0.1])),
    ArModel(np.array([0.5, 0.2, 0.0, 0.0])),
]
NOISE_MODELS = [
    ArModel(np.array([0.0, 0.0])),
    ArModel(np.array([-0.5, -0.2])),
]


def make_scene(rng, n=2000, snr_db=5.0, decorrelate=False):
    s = ar_signal(SPEECH_MODELS[0].coefficients, 1e-3, n, rng)
    nl = ar_signal(NOISE_MODELS[1].coefficients, 1e-3, n, rng)
    nr = ar_signal(NOISE_MODELS[1].coefficients, 1e-3, n, rng) if decorrelate else nl
    g = snr_scale(s, nl, snr_db)
    zl = AudioBuffer(s + g * nl, 8000)
    zr = AudioBuffer(s + g * nr, 8000)
    return s, zl, zr


def fast_cfg(**kw):
    defaults = dict(mode="binaural", model="uv")
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture
def codebooks():
    return (
        codebook_from_models(SPEECH_MODELS, "speech"),
        codebook_from_models(NOISE_MODELS, "noise"),
    )


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.sample_rate == 8000
        assert cfg.frame_len == 200
        assert cfg.smoother_delay == 25
        assert (cfg.f_min, cfg.f_max, cfg.pitch_grid_hz) == (80.0, 400.0, 0.5)
        assert cfg.p_max == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(mode="stereo")
        with pytest.raises(ValueError):
            RunConfig(model="hmm")
        with pytest.raises(ValueError):
            RunConfig(frame_len=201)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -0.1, 1.5])
    def test_voicing_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="voicing_threshold"):
            RunConfig(voicing_threshold=threshold)
        RunConfig(voicing_threshold=0.0)
        RunConfig(voicing_threshold=1.0)

    @pytest.mark.parametrize("delay", [-1, 201, 100_000])
    def test_smoother_delay_outside_frame_rejected(self, delay):
        with pytest.raises(ValueError, match="smoother_delay"):
            RunConfig(smoother_delay=delay)
        RunConfig(smoother_delay=0)
        RunConfig(smoother_delay=200)


class TestProcess:
    def test_swap_symmetry(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, decorrelate=True)
        cfg = fast_cfg()
        a_l, a_r = channels(process(stereo(zl, zr), scb, ncb, cfg))
        b_l, b_r = channels(process(stereo(zr, zl), scb, ncb, cfg))
        np.testing.assert_allclose(a_l.samples, b_r.samples, atol=1e-10)
        np.testing.assert_allclose(a_r.samples, b_l.samples, atol=1e-10)

    def test_bilateral_equals_binaural_on_identical_channels(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, _ = make_scene(rng)
        bin_cfg = fast_cfg(mode="binaural", adaptive_noise_codebook=False)
        bil_cfg = fast_cfg(mode="bilateral", adaptive_noise_codebook=False)
        a_l, a_r = channels(process(stereo(zl, zl), scb, ncb, bin_cfg))
        b_l, b_r = channels(process(stereo(zl, zl), scb, ncb, bil_cfg))
        np.testing.assert_allclose(a_l.samples, b_l.samples, atol=1e-10)
        np.testing.assert_allclose(a_l.samples, a_r.samples, atol=1e-12)

    def test_binaural_identical_ears_share_one_smoother(self, rng, codebooks, monkeypatch):
        # Both ears of a binaural run share the parameters and the one
        # covariance recursion, so identical ears come out identical, and
        # each equals the mono path run with the binaural parameters.
        scb, ncb = codebooks
        _, zl, _ = make_scene(rng, n=1000)
        cfg = fast_cfg()
        z = stereo(zl, zl)
        out = process(z, scb, ncb, cfg).samples
        shared, _ = pipeline.frame_params(z, scb, ncb, cfg)
        monkeypatch.setattr(pipeline, "frame_params", lambda *args, **kw: [shared])
        mono = process(zl, scb, ncb, cfg).samples
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], mono)

    def test_determinism(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, decorrelate=True)
        cfg = fast_cfg()
        a = channels(process(stereo(zl, zr), scb, ncb, cfg))
        b = channels(process(stereo(zl, zr), scb, ncb, cfg))
        np.testing.assert_array_equal(a[0].samples, b[0].samples)
        np.testing.assert_array_equal(a[1].samples, b[1].samples)

    def test_output_length_and_rate(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1000)
        out_l, out_r = channels(process(stereo(zl, zr), scb, ncb, fast_cfg()))
        assert len(out_l) == len(zl) and len(out_r) == len(zr)
        assert out_l.sample_rate == 8000

    def test_rate_mismatch(self, rng, codebooks):
        scb, ncb = codebooks
        z = AudioBuffer(np.zeros(1000), 16000)
        with pytest.raises(ValueError):
            process(stereo(z, z), scb, ncb, fast_cfg())

    def test_diagnostics_lines(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1000)
        diags = []
        process(stereo(zl, zr), scb, ncb, fast_cfg(), diagnostics_out=diags)
        assert len(diags) == 5
        line = diags[0].csv_line()
        parts = line.split(",")
        assert len(parts) == 6
        assert parts[0] == "0"

    def test_binaural_param_accuracy_vs_bilateral(self, rng, codebooks):
        # Binaural estimation sees both channels; with independent noise
        # realizations its parameter error should not exceed bilateral's.
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=4000, snr_db=3.0, decorrelate=True)
        diag_bin, diag_bil = [], []
        process(stereo(zl, zr), scb, ncb,
                fast_cfg(adaptive_noise_codebook=False), diagnostics_out=diag_bin)
        process(stereo(zl, zr), scb, ncb,
                fast_cfg(mode="bilateral", adaptive_noise_codebook=False),
                diagnostics_out=diag_bil)
        hits_bin = sum(d.best_speech_index == 0 for d in diag_bin)
        hits_bil = sum(d.best_speech_index == 0 for d in diag_bil)
        assert hits_bin >= hits_bil

    def test_vuv_model_runs(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1000)
        cfg = fast_cfg(model="vuv", f_min=90.0, f_max=120.0, max_harmonic_order=8)
        out_l, out_r = channels(process(stereo(zl, zr), scb, ncb, cfg))
        assert len(out_l) == len(zl)

    def test_enhancement_improves_snr(self, rng, codebooks):
        from binse.metrics import segmental_snr

        scb, ncb = codebooks
        s, zl, zr = make_scene(rng, n=4000, snr_db=3.0, decorrelate=True)
        out_l, _ = channels(process(stereo(zl, zr), scb, ncb, fast_cfg()))
        clean = AudioBuffer(s, 8000)
        assert segmental_snr(clean, out_l) > segmental_snr(clean, zl)


class TestProcessSingle:
    def test_runs_and_preserves_length(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, _ = make_scene(rng, n=1000)
        out = process(zl, scb, ncb, fast_cfg())
        assert len(out) == len(zl)

    def test_matches_bilateral_channel(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, _ = make_scene(rng, n=1000)
        cfg = fast_cfg(mode="bilateral", adaptive_noise_codebook=False)
        out_pair = channels(process(stereo(zl, zl), scb, ncb, cfg))
        out_single = process(zl, scb, ncb, cfg)
        np.testing.assert_allclose(out_single.samples, out_pair[0].samples, atol=1e-10)


class TestEdges:
    @pytest.mark.parametrize("n", [1, 199, 201, 424])
    def test_output_length_matches_input(self, rng, codebooks, n):
        _, zl, zr = make_scene(rng)
        zl, zr = AudioBuffer(zl.samples[:n], 8000), AudioBuffer(zr.samples[:n], 8000)
        out_l, out_r = channels(process(stereo(zl, zr), *codebooks, fast_cfg()))
        assert len(out_l) == len(out_r) == n
        assert np.all(np.isfinite(out_l.samples)) and np.all(np.isfinite(out_r.samples))
        if n < 200:
            np.testing.assert_array_equal(out_l.samples, zl.samples)
            np.testing.assert_array_equal(out_r.samples, zr.samples)

    def test_prewhitening_history_follows_noise_model_order(self, rng, monkeypatch):
        # A noise codebook of order 20, deeper than the order-4 speech codebook.
        noise_models = [
            ArModel(np.r_[0.5, np.zeros(19)]),
            ArModel(np.r_[-0.3, np.zeros(18), 0.2]),
        ]
        speech_cb = codebook_from_models(SPEECH_MODELS, "speech")
        noise_cb = codebook_from_models(noise_models, "noise")
        x = rng.normal(size=600)
        seen = []

        def spy(samples, noise_ar, history=None):
            out = prewhiten(samples, noise_ar, history)
            seen.append((noise_ar, out))
            return out

        monkeypatch.setattr(pipeline, "prewhiten", spy)
        monkeypatch.setattr(pipeline, "estimate_pitch", lambda *a, **k: UNVOICED)
        process(AudioBuffer(x, 8000), speech_cb, noise_cb, fast_cfg(model="vuv"))
        assert len(seen) == 3
        for frame, (model, white) in enumerate(seen[1:], start=1):
            assert model.order == 20
            whole = lfilter(model.inverse_filter(), [1.0], x)
            np.testing.assert_allclose(white, whole[frame * 200 : (frame + 1) * 200], atol=1e-12)


@st.composite
def edge_inputs(draw):
    """Short mono or stereo records: noise or full-scale square waves, with
    a run of digital zeros and possibly one dead ear."""
    c = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 3 * 200 - 1))
    if draw(st.booleans()):
        half = draw(st.integers(1, 100))
        x = np.tile(np.where((np.arange(n) // half) % 2 == 0, 1.0, -1.0), (c, 1))
    else:
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, 0.1, (c, n))
    start = draw(st.integers(0, n - 1))
    x[:, start : start + draw(st.integers(0, n))] = 0.0
    if c == 2 and draw(st.booleans()):
        x[draw(st.integers(0, 1))] = 0.0
    return AudioBuffer(x[0] if c == 1 else x, 8000)


class TestProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(z=edge_inputs(), mode=st.sampled_from(["binaural", "bilateral"]))
    def test_finite_output_of_input_shape(self, z, mode):
        speech_cb = codebook_from_models(SPEECH_MODELS, "speech")
        noise_cb = codebook_from_models(NOISE_MODELS, "noise")
        out = process(z, speech_cb, noise_cb, fast_cfg(mode=mode))
        assert out.samples.shape == z.samples.shape
        assert np.all(np.isfinite(out.samples))
        if len(z) < 200:
            np.testing.assert_array_equal(out.samples, z.samples)
