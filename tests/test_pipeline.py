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
        assert cfg.frame_len == 200
        assert cfg.smoother_delay == 25
        assert (cfg.f_min, cfg.f_max, cfg.pitch_grid_hz) == (80.0, 400.0, 0.5)

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
        [(rows, shared)] = pipeline.frame_params(z, scb, ncb, cfg)
        assert rows == [0, 1]
        monkeypatch.setattr(pipeline, "frame_params", lambda *args, **kw: [([0], shared)])
        mono = process(zl, scb, ncb, cfg).samples
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], mono)

    def test_adaptive_entries_match_per_frame_fits(self, rng, codebooks, monkeypatch):
        # All frames' dual-channel noise PSDs are fitted in one batch; each
        # frame's adaptive entry is the one-frame fit, bit for bit: its
        # compiled row is the last of the frame's noise entries, and its
        # excitation variance is fused into the frame's noise variance.  A
        # frame whose fit raises (the silent first frame's all-zero PSD)
        # gets none.  That frame is fitted alone, so its failure still
        # raises out of stp.noise_psd_to_ar, once.
        from binse import stp
        from binse.signal_core import cross_spectrum, frame_rows, periodogram

        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1000, decorrelate=True)
        zl.samples[:200] = zr.samples[:200] = 0.0
        seen, estimates, fits, records = [], [], [], []
        estimate, fit = stp.estimate_stp, stp.noise_psd_to_ar

        def spy(pzl, pzr, speech_entries, noise_entries, *args, **kwargs):
            # One record-level call: one noise entry set and one estimate per frame.
            records.append(len(pzl))
            seen.extend(noise_entries)
            result = estimate(pzl, pzr, speech_entries, noise_entries, *args, **kwargs)
            estimates.extend(result)
            return result

        def spy_fit(psd, order):
            try:
                result = fit(psd, order)
            except (ValueError, ArithmeticError):
                fits.append((np.ndim(psd), "raised"))
                raise
            fits.append((np.ndim(psd), "returned"))
            return result

        monkeypatch.setattr(stp, "estimate_stp", spy)
        monkeypatch.setattr(stp, "noise_psd_to_ar", spy_fit)
        diagnostics = []
        process(stereo(zl, zr), scb, ncb, fast_cfg(), diagnostics_out=diagnostics)
        monkeypatch.setattr(stp, "noise_psd_to_ar", fit)
        assert fits == [(2, "returned"), (1, "raised")]
        frames_l, frames_r = frame_rows(zl.samples, 200), frame_rows(zr.samples, 200)
        pzl, pzr = periodogram(frames_l), periodogram(frames_r)
        cross = cross_spectrum(frames_l, frames_r)
        tracker = stp.DualChannelNoiseTracker()
        base = stp.compile_codebook(ncb, 200)
        for fi, (got, est, diag) in enumerate(zip(seen, estimates, diagnostics)):
            psd = tracker.update(pzl[fi], pzr[fi], cross[fi])
            try:
                want = stp.noise_psd_to_ar(psd, ncb.order)
            except (ValueError, ArithmeticError):
                want = None
            assert (want is None) == (fi == 0)
            assert len(got) == len(base) + (want is not None)
            assert got.lsfs[: len(base)].tobytes() == base.lsfs.tobytes()
            assert got.envelopes[: len(base)].tobytes() == base.envelopes.tobytes()
            if want is None:
                assert diag.sigma_v2 == est.noise.excitation_variance
            else:
                single = stp.compile_codebook([want], 200)
                assert got.lsfs[-1:].tobytes() == single.lsfs.tobytes()
                assert got.envelopes[-1:].tobytes() == single.envelopes.tobytes()
                fused = 0.5 * (est.noise.excitation_variance + want.excitation_variance)
                assert diag.sigma_v2 == fused
        assert len(seen) == len(diagnostics) == 5
        assert records == [5]

    def test_adaptive_entries_compiled_once_per_record(self, rng, codebooks, monkeypatch):
        # One LSF conversion serves every frame's adaptive entry; the
        # estimator converts none of its own.
        from binse import stp

        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1000, decorrelate=True)
        calls = []
        convert = stp.ar_to_lsf

        def spy(models):
            calls.append(len(models))
            return convert(models)

        monkeypatch.setattr(stp, "ar_to_lsf", spy)
        process(stereo(zl, zr), scb, ncb, fast_cfg())
        assert calls == [5]

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

    def test_pitch_grid_checked_at_buffer_rate(self, rng, codebooks):
        # The rate is the buffer's own: a 5 kHz top fundamental lies above
        # Nyquist at 8 kHz, and below it at 16 kHz.
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1000)
        cfg = fast_cfg(f_max=5000.0)
        with pytest.raises(ValueError, match="f_max"):
            process(stereo(zl, zr), scb, ncb, cfg)
        wide = AudioBuffer(np.vstack((zl.samples, zr.samples)), 16000)
        out = process(wide, scb, ncb, cfg)
        assert out.samples.shape == (2, 1000) and out.sample_rate == 16000

    def test_speech_order_above_delay_rejected_before_frame_work(self, rng, codebooks,
                                                                monkeypatch):
        # The order-4 speech chain needs a delay of 4: process refuses 3
        # before frame_params runs the record's STP estimate.
        from binse import stp

        calls, estimate = [], stp.estimate_stp
        monkeypatch.setattr(stp, "estimate_stp",
                            lambda *a, **k: calls.append(1) or estimate(*a, **k))
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1000)
        with pytest.raises(ValueError, match="speech codebook order 4 exceeds smoother_delay 3"):
            process(stereo(zl, zr), scb, ncb, fast_cfg(smoother_delay=3))
        assert calls == []
        process(stereo(zl, zr), scb, ncb, fast_cfg(smoother_delay=4))
        assert calls == [1]

    @pytest.mark.parametrize("kind, frame_len", [("speech", 4), ("noise", 2)])
    def test_codebook_order_not_below_frame_len_rejected(self, rng, codebooks, kind, frame_len):
        # Speech order 4 and noise order 2 need frames longer than each.
        scb, ncb = codebooks
        if kind == "noise":
            scb = codebook_from_models([ArModel(np.array([0.5]))], "speech")
        _, zl, zr = make_scene(rng, n=1000)
        cfg = fast_cfg(frame_len=frame_len, smoother_delay=frame_len)
        with pytest.raises(ValueError, match=f"{kind} codebook order {frame_len} must be "
                                             f"below frame_len {frame_len}"):
            pipeline.frame_params(stereo(zl, zr), scb, ncb, cfg)

    def test_diagnostics_lines(self, rng, codebooks):
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1000)
        diags = []
        process(stereo(zl, zr), scb, ncb, fast_cfg(), diagnostics_out=diags)
        assert len(diags) == 5
        assert FrameDiagnostics.CSV_HEADER.split(",") == [
            "frame", "best_i", "best_j", "log_weight", "sigma_d2", "sigma_v2", "ear"]
        line = diags[0].csv_line()
        parts = line.split(",")
        assert len(parts) == 7
        assert parts[0] == "0" and parts[-1] == "both"

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
        hits_bil = sum(d.best_speech_index == 0 for d in diag_bil if d.ear == "left")
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

    def test_bilateral_right_ear_matches_mono_run(self, rng, codebooks):
        # Under the default config each bilateral ear is a one-channel group,
        # estimated and smoothed as a mono buffer is, bit for bit.
        scb, ncb = codebooks
        _, zl, zr = make_scene(rng, n=1100, decorrelate=True)
        cfg = RunConfig(mode="bilateral")
        diags_pair, diags_single = [], []
        out_pair = process(stereo(zl, zr), scb, ncb, cfg, diagnostics_out=diags_pair).samples
        out_single = process(zr, scb, ncb, cfg, diagnostics_out=diags_single).samples
        np.testing.assert_array_equal(out_pair[1], out_single)
        assert not np.array_equal(out_pair[0], out_single)
        assert [d.ear for d in diags_pair] == ["left"] * 5 + ["right"] * 5
        assert [d.ear for d in diags_single] == ["mono"] * 5
        assert [d.csv_line().rsplit(",", 1)[0] for d in diags_pair[5:]] == [
            d.csv_line().rsplit(",", 1)[0] for d in diags_single]


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
