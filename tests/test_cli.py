import argparse

import numpy as np
import pytest

from binse import codebook
from binse.cli import build_config, main, read_wav, write_wav
from binse.linpred import ArModel
from binse.metrics import segmental_snr
from binse.signal_core import AudioBuffer

from conftest import ar_signal, codebook_from_models, snr_scale

SPEECH_MODELS = [
    ArModel(np.array([1.2, -0.8, 0.3, -0.1])),
    ArModel(np.array([0.5, 0.2, 0.0, 0.0])),
]
NOISE_MODELS = [ArModel(np.array([0.0, 0.0])), ArModel(np.array([-0.5, -0.2]))]


@pytest.fixture
def cb_paths(tmp_path):
    sp = tmp_path / "speech.cbk"
    np_ = tmp_path / "noise.cbk"
    codebook.save(codebook_from_models(SPEECH_MODELS, "speech"), sp)
    codebook.save(codebook_from_models(NOISE_MODELS, "noise"), np_)
    return str(sp), str(np_)


@pytest.fixture
def stereo_wav(tmp_path, rng):
    s = ar_signal(SPEECH_MODELS[0].coefficients, 1e-3, 2000, rng)
    n = ar_signal(NOISE_MODELS[1].coefficients, 1e-3, 2000, rng)
    z = s + snr_scale(s, n, 5.0) * n
    z = 0.5 * z / np.max(np.abs(z))
    path = tmp_path / "noisy.wav"
    write_wav(path, AudioBuffer(np.vstack((z, z)), 8000))
    return str(path)


class TestWavIO:
    def test_round_trip_mono(self, tmp_path, rng):
        x = np.clip(rng.normal(0, 0.1, 1000), -1, 1)
        path = tmp_path / "m.wav"
        write_wav(path, AudioBuffer(x, 8000))
        back = read_wav(path)
        assert back.sample_rate == 8000
        assert back.channel_count == 1
        np.testing.assert_allclose(back.samples, x, atol=1.0 / 32767)

    def test_round_trip_stereo(self, tmp_path, rng):
        x = np.clip(rng.normal(0, 0.1, (2, 500)), -1, 1)
        path = tmp_path / "s.wav"
        write_wav(path, AudioBuffer(x, 8000))
        back = read_wav(path)
        assert back.channel_count == 2
        np.testing.assert_allclose(back.samples, x, atol=1.0 / 32767)

    def test_invalid_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a wav")
        from binse.cli import CliError

        with pytest.raises(CliError):
            read_wav(path)


class TestTrainCommand:
    def test_trains_codebook(self, tmp_path, rng, capsys):
        x = ar_signal([1.2, -0.6], 1e-2, 8000, rng)
        x = 0.5 * x / np.max(np.abs(x))
        wav = tmp_path / "train.wav"
        write_wav(wav, AudioBuffer(x, 8000))
        out = tmp_path / "out.cbk"
        code = main([
            "train", str(wav), "-o", str(out), "--kind", "speech",
            "--size", "4", "--order", "6", "--seed", "3",
        ])
        assert code == 0
        cb = codebook.load(out)
        assert cb.size == 4 and cb.order == 6 and cb.kind == "speech"
        captured = capsys.readouterr()
        assert "distortion" in captured.out

    def test_size_zero_usage_error(self, tmp_path):
        code = main([
            "train", "nope.wav", "-o", str(tmp_path / "o.cbk"),
            "--kind", "noise", "--size", "0",
        ])
        assert code == 2

    def test_missing_input_usage_error(self, tmp_path):
        code = main([
            "train", str(tmp_path / "absent.wav"), "-o", str(tmp_path / "o.cbk"),
            "--kind", "noise", "--size", "1",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--frame-len", "0"], "--frame-len"),
            (["--frame-len", "9000"], "--frame-len"),
            (["--order", "0"], "--order"),
            (["--order", "-1"], "--order"),
            (["--order", "300"], "--frame-len"),
            (["--order", "200"], "--order"),
        ],
        ids=["frame_len_0", "frame_len_above_file", "order_0", "order_negative",
             "order_above_frame_len", "order_at_frame_len"],
    )
    def test_bad_flag_usage_error(self, tmp_path, rng, capsys, flags, named):
        wav = tmp_path / "train.wav"
        write_wav(wav, AudioBuffer(0.1 * rng.normal(size=8000), 8000))
        out = tmp_path / "out.cbk"
        code = main(["train", str(wav), "-o", str(out), "--kind", "speech", "--size", "2",
                     *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()


class TestEnhanceCommand:
    def test_enhance_binaural(self, tmp_path, stereo_wav, cb_paths):
        sp, np_ = cb_paths
        out = tmp_path / "enh.wav"
        diag = tmp_path / "diag.csv"
        code = main([
            "enhance", stereo_wav, "-o", str(out),
            "--speech-cb", sp, "--noise-cb", np_,
            "--mode", "binaural", "--model", "uv",
            "--diagnostics", str(diag),
        ])
        assert code == 0
        enh = read_wav(out)
        noisy = read_wav(stereo_wav)
        assert enh.channel_count == 2
        assert len(enh) == len(noisy)
        lines = diag.read_text().strip().splitlines()
        assert lines[0] == "frame,best_i,best_j,log_weight,sigma_d2,sigma_v2"
        assert len(lines) == 1 + len(noisy) // 200

    def test_mono_with_binaural_mode_is_usage_error(self, tmp_path, cb_paths, rng):
        sp, np_ = cb_paths
        mono = tmp_path / "mono.wav"
        write_wav(mono, AudioBuffer(np.zeros(1000) + 0.01, 8000))
        code = main([
            "enhance", str(mono), "-o", str(tmp_path / "o.wav"),
            "--speech-cb", sp, "--noise-cb", np_, "--mode", "binaural",
        ])
        assert code == 2

    def test_missing_codebook_usage_error(self, tmp_path, stereo_wav):
        code = main([
            "enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
            "--speech-cb", str(tmp_path / "missing.cbk"),
            "--noise-cb", str(tmp_path / "missing2.cbk"),
        ])
        assert code == 2

    def test_codebook_order_above_smoother_delay_usage_error(
        self, tmp_path, stereo_wav, cb_paths, capsys
    ):
        deep = tmp_path / "order30.cbk"
        codebook.save(codebook.Codebook(np.linspace(0.05, 3.0, 30)[None, :], "speech"), deep)
        out = tmp_path / "enh.wav"
        code = main(["enhance", stereo_wav, "-o", str(out), "--speech-cb", str(deep),
                     "--noise-cb", cb_paths[1]])
        assert code == 2
        assert "smoother_delay" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_smoother_delay_above_frame_len_usage_error(
        self, tmp_path, stereo_wav, cb_paths, capsys, source
    ):
        # The state holds smoother_delay + 1 speech entries, so a delay of
        # 100000 would ask for a 100016 x 100016 covariance.
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("smoother_delay = 100000\n")
        delay = ["--smoother-delay", "100000"] if source == "flag" else ["--config", str(cfg)]
        out = tmp_path / "enh.wav"
        code = main(["enhance", stereo_wav, "-o", str(out), "--speech-cb", sp,
                     "--noise-cb", np_, *delay])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "smoother_delay 100000" in err
        assert not out.exists()

    def test_rate_mismatch_usage_error(self, tmp_path, stereo_wav, cb_paths):
        sp, np_ = cb_paths
        code = main([
            "enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
            "--speech-cb", sp, "--noise-cb", np_, "--sample-rate", "16000",
        ])
        assert code == 2

    def test_short_frames_vuv(self, tmp_path, stereo_wav, cb_paths):
        # 60-sample frames leave 40 samples per ear for the pitch search,
        # fewer than the harmonics below Nyquist of a low fundamental.
        sp, np_ = cb_paths
        out = tmp_path / "enh.wav"
        code = main([
            "enhance", stereo_wav, "-o", str(out),
            "--speech-cb", sp, "--noise-cb", np_, "--model", "vuv", "--frame-len", "60",
        ])
        assert code == 0
        assert len(read_wav(out)) == len(read_wav(stereo_wav))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--f-min", "300", "--f-max", "200"],
            ["--max-harmonic-order", "0"],
            ["--pitch-grid", "0"],
            ["--f-min", "0"],
            ["--pitch-grid", "0.3"],
            ["--f-min", "80.25"],
            ["--f-max", "5000"],
        ],
        ids=["f_min_above_f_max", "max_order_0", "grid_0", "f_min_0", "grid_off_bins",
             "f_min_off_grid", "f_max_above_nyquist"],
    )
    def test_bad_pitch_grid_usage_error(self, tmp_path, stereo_wav, cb_paths, capsys, flags):
        sp, np_ = cb_paths
        out = tmp_path / "enh.wav"
        code = main(["enhance", stereo_wav, "-o", str(out), "--speech-cb", sp,
                     "--noise-cb", np_, *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5"])
    def test_bad_voicing_threshold_usage_error(
        self, tmp_path, stereo_wav, cb_paths, capsys, threshold
    ):
        sp, np_ = cb_paths
        out = tmp_path / "enh.wav"
        code = main(["enhance", stereo_wav, "-o", str(out), "--speech-cb", sp,
                     "--noise-cb", np_, "--voicing-threshold", threshold])
        assert code == 2
        assert "voicing_threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frame_len", ["4", "0", "-2"])
    @pytest.mark.parametrize("command", ["enhance", "enhance-single", "pitch"])
    def test_frame_len_not_above_codebook_order_usage_error(
        self, tmp_path, stereo_wav, cb_paths, capsys, command, frame_len
    ):
        # The order-4 speech codebook needs frames of more than 4 samples.
        sp, np_ = cb_paths
        wav = stereo_wav
        if command == "enhance-single":
            wav = tmp_path / "mono.wav"
            write_wav(wav, AudioBuffer(read_wav(stereo_wav).samples[0], 8000))
        out = tmp_path / "out"
        code = main([command, str(wav), "-o", str(out), "--speech-cb", sp, "--noise-cb", np_,
                     "--frame-len", frame_len])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_frame_len_at_codebook_order_with_delay_inside_frame_usage_error(
        self, tmp_path, stereo_wav, cb_paths, capsys
    ):
        # With the delay inside the frame, the codebook-order check is what
        # rejects 4-sample frames for the order-4 speech codebook.
        sp, np_ = cb_paths
        out = tmp_path / "out.wav"
        code = main(["enhance", stereo_wav, "-o", str(out), "--speech-cb", sp, "--noise-cb", np_,
                     "--frame-len", "4", "--smoother-delay", "4"])
        assert code == 2
        assert "codebook order 4 needs frame_len above it" in capsys.readouterr().err
        assert not out.exists()

    def test_clean_input_nearly_unchanged(self, tmp_path, cb_paths, rng):
        # Clean speech in: the estimated noise variance collapses to a few
        # percent of the speech variance (periodogram fluctuation sets the
        # floor), so the output stays close to the input.
        sp, np_ = cb_paths
        s = ar_signal(SPEECH_MODELS[0].coefficients, 1e-3, 4000, rng)
        s = 0.5 * s / np.max(np.abs(s))
        wav = tmp_path / "clean.wav"
        write_wav(wav, AudioBuffer(np.vstack((s, s)), 8000))
        out = tmp_path / "enh.wav"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("adaptive_noise_codebook = off\n")
        code = main([
            "enhance", str(wav), "-o", str(out),
            "--speech-cb", sp, "--noise-cb", np_, "--model", "uv",
            "--config", str(cfg),
        ])
        assert code == 0
        enh = read_wav(out)
        clean = AudioBuffer(s, 8000)
        out_snr = segmental_snr(clean, AudioBuffer(enh.samples[0], 8000))
        assert out_snr > 30.0


    def test_digital_silence_exits_clean(self, tmp_path, cb_paths):
        sp, np_ = cb_paths
        wav = tmp_path / "zeros.wav"
        write_wav(wav, AudioBuffer(np.zeros((2, 1000)), 8000))
        out = tmp_path / "enh.wav"
        code = main(["enhance", str(wav), "-o", str(out), "--speech-cb", sp, "--noise-cb", np_])
        assert code == 0
        enh = read_wav(out)
        assert enh.samples.shape == (2, 1000)
        assert not np.any(enh.samples)

    def test_silent_lead_exits_clean(self, tmp_path, stereo_wav, cb_paths):
        sp, np_ = cb_paths
        z = read_wav(stereo_wav).samples.copy()
        z[:, :400] = 0.0
        wav = tmp_path / "silent_lead.wav"
        write_wav(wav, AudioBuffer(z, 8000))
        out = tmp_path / "enh.wav"
        code = main(["enhance", str(wav), "-o", str(out), "--speech-cb", sp, "--noise-cb", np_])
        assert code == 0
        assert len(read_wav(out)) == z.shape[1]

    def test_enhance_single(self, tmp_path, stereo_wav, cb_paths):
        sp, np_ = cb_paths
        mono = tmp_path / "mono.wav"
        write_wav(mono, AudioBuffer(read_wav(stereo_wav).samples[0], 8000))
        out = tmp_path / "enh.wav"
        argv = ["--speech-cb", sp, "--noise-cb", np_, "--model", "uv"]
        assert main(["enhance-single", str(mono), "-o", str(out), *argv]) == 0
        enh = read_wav(out)
        assert enh.channel_count == 1 and len(enh) == 2000
        assert main(["enhance-single", stereo_wav, "-o", str(out), *argv]) == 2


class TestConfigFile:
    def test_precedence_flags_over_file(self, tmp_path, stereo_wav, cb_paths):
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# pipeline setup\n"
            "model = uv\n"
            "smoother_delay = 30   # overridden below\n"
        )
        out = tmp_path / "o.wav"
        code = main([
            "enhance", stereo_wav, "-o", str(out),
            "--speech-cb", sp, "--noise-cb", np_,
            "--config", str(cfg), "--smoother-delay", "20",
        ])
        assert code == 0

    def test_unknown_key_rejected(self, tmp_path, stereo_wav, cb_paths):
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        code = main([
            "enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
            "--speech-cb", sp, "--noise-cb", np_, "--config", str(cfg),
        ])
        assert code == 2

    def test_model_order_settings_rejected(self, tmp_path, stereo_wav, cb_paths):
        # The speech and noise model orders are the codebooks' own.
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise_order = 14\n")
        base = ["enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
                "--speech-cb", sp, "--noise-cb", np_]
        assert main([*base, "--config", str(cfg)]) == 2
        assert main([*base, "--speech-order", "14"]) == 2

    def test_mu_iteration_setting_rejected(self, tmp_path, stereo_wav, cb_paths):
        # The MU solve always runs the estimator's own iteration cap.
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu_iters = 10\n")
        base = ["enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
                "--speech-cb", sp, "--noise-cb", np_]
        assert main([*base, "--config", str(cfg)]) == 2
        assert main([*base, "--mu-iters", "10"]) == 2

    def test_malformed_line_rejected(self, tmp_path, stereo_wav, cb_paths):
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code = main([
            "enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
            "--speech-cb", sp, "--noise-cb", np_, "--config", str(cfg),
        ])
        assert code == 2


    @pytest.mark.parametrize("text,named", [
        ("frame_len = abc\n", "frame_len"),
        ("max_harmonic_order = 2.5\n", "max_harmonic_order"),
        ("f_min = low\n", "f_min"),
        ("adaptive_noise_codebook = flase\n", "adaptive_noise_codebook"),
        ("adaptive_noise_codebook = 2\n", "adaptive_noise_codebook"),
    ])
    def test_unparsable_value_rejected(self, tmp_path, stereo_wav, cb_paths, capsys, text,
                                       named):
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = main([
            "enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
            "--speech-cb", sp, "--noise-cb", np_, "--config", str(cfg),
        ])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_non_utf8_file_rejected(self, tmp_path, stereo_wav, cb_paths, capsys):
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"model = uv\n# caf\xe9\n")
        code = main([
            "enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
            "--speech-cb", sp, "--noise-cb", np_, "--config", str(cfg),
        ])
        assert code == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("text,value", [
        ("on", True), ("TRUE", True), ("yes", True), ("1", True),
        ("off", False), ("false", False), ("No", False), ("0", False),
    ])
    def test_switch_values(self, tmp_path, text, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"adaptive_noise_codebook = {text}\n")
        assert build_config(argparse.Namespace(config=str(cfg))).adaptive_noise_codebook is value


class TestPitchCommand:
    def test_pitch_csv(self, tmp_path, cb_paths, rng):
        sp, np_ = cb_paths
        fs = 8000
        n = np.arange(2000)
        f0 = 100.0
        s = sum(a * np.cos(2 * np.pi * f0 * l / fs * n)
                for l, a in enumerate([0.3, 0.2, 0.1], start=1))
        s += 0.01 * rng.normal(size=2000)
        wav = tmp_path / "tone.wav"
        write_wav(wav, AudioBuffer(np.vstack((s, s)), fs))
        out = tmp_path / "track.csv"
        code = main([
            "pitch", str(wav), "-o", str(out),
            "--speech-cb", sp, "--noise-cb", np_,
            "--f-min", "80", "--f-max", "150", "--max-harmonic-order", "8",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frame,f0_hz,period_samples,voicing,order"
        assert len(lines) == 11
        f0s = [float(l.split(",")[1]) for l in lines[1:]]
        assert sum(abs(f - 100.0) <= 1.0 for f in f0s) >= 8


class TestEvalCommand:
    def test_eval_json_line(self, tmp_path, rng, capsys):
        x = np.clip(ar_signal([1.2, -0.5], 1e-2, 2048, rng), -1, 1)
        clean = tmp_path / "c.wav"
        write_wav(clean, AudioBuffer(np.vstack((x, x)), 8000))
        code = main(["eval", str(clean), str(clean)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("{") and out.endswith("}")
        assert '"segsnr_l": 35.0000' in out
        assert '"itd": 0.000000' in out

    @pytest.mark.parametrize("case", ["shorter_than_segment", "silent_clean", "rate_mismatch"])
    def test_bad_input_usage_error(self, tmp_path, rng, capsys, case):
        x = np.clip(ar_signal([1.2, -0.5], 1e-2, 2048, rng), -1, 1)
        clean, enhanced = np.vstack((x, x)), np.vstack((x, x))
        enhanced_rate = 8000
        if case == "shorter_than_segment":
            clean, enhanced = clean[:, :150], enhanced[:, :150]
        elif case == "silent_clean":
            clean[0] = 0.0
        else:
            enhanced_rate = 16000
        c, e = tmp_path / "c.wav", tmp_path / "e.wav"
        write_wav(c, AudioBuffer(clean, 8000))
        write_wav(e, AudioBuffer(enhanced, enhanced_rate))
        assert main(["eval", str(c), str(e)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out


class TestLikelihoodSurfaceCommand:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main([
            "likelihood-surface", "-o", str(out), "--grid-points", "50",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2500

    def test_single_point(self, tmp_path):
        out = tmp_path / "one.csv"
        code = main(["likelihood-surface", "-o", str(out), "--grid-points", "1"])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_peak_near_true_variance(self, tmp_path):
        out = tmp_path / "grid.csv"
        main([
            "likelihood-surface", "-o", str(out),
            "--var-min", "1e-5", "--var-max", "1e-1", "--grid-points", "41",
        ])
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        data = np.array(rows, float)
        best = data[np.argmax(data[:, 2])]
        # Log-spaced grid: one cell is a factor of 10^(4/40); the peak must
        # sit within one cell of (1e-3, 1e-3).
        cell = 10 ** (4.0 / 40.0)
        assert best[0] / 1e-3 < cell * 1.001 and 1e-3 / best[0] < cell * 1.001
        assert best[1] / 1e-3 < cell * 1.001 and 1e-3 / best[1] < cell * 1.001

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--frame-len", "0"], "--frame-len"),
            (["--frame-len", "-4"], "--frame-len"),
            (["--frame-len", "2"], "--frame-len"),
            (["--grid-points", "-1"], "--grid-points"),
            (["--grid-points", "0"], "--grid-points"),
            (["--var-min", "-1"], "--var-min"),
            (["--var-min", "0"], "--var-min"),
            (["--var-min", "1e-2", "--var-max", "1e-3"], "--var-max"),
            (["--var-max", "inf"], "--var-max"),
            (["--true-variance", "0"], "--true-variance"),
            (["--true-variance", "-0.001"], "--true-variance"),
        ],
        ids=["frame_len_0", "frame_len_negative", "frame_len_below_ar_order", "grid_negative",
             "grid_0", "var_min_negative", "var_min_0", "var_min_above_var_max", "var_max_inf",
             "true_variance_0", "true_variance_negative"],
    )
    def test_bad_flag_usage_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "grid.csv"
        assert main(["likelihood-surface", "-o", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 2
