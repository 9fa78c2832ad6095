import argparse
import os
import resource
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

import binse
from binse import codebook, pipeline
from binse.cli import build_config, main, read_wav, write_wav
from binse.linpred import ArModel, NumericalDegeneracyError
from binse.metrics import segmental_snr
from binse.pipeline import RunConfig, process
from binse.signal_core import AudioBuffer

from conftest import ar_signal, codebook_from_models, snr_scale

SPEECH_MODELS = [
    ArModel(np.array([1.2, -0.8, 0.3, -0.1])),
    ArModel(np.array([0.5, 0.2, 0.0, 0.0])),
]
NOISE_MODELS = [ArModel(np.array([0.0, 0.0])), ArModel(np.array([-0.5, -0.2]))]
DIAGNOSTICS_HEADER = ("frame,best_i,best_j,log_weight,sigma_d2,sigma_v2,"
                      "underflow_fallback,adaptive_fit_failed,ear")


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
        # Not RIFF at all, then a file that ends inside the RIFF chunk header.
        for data in (b"not a wav", b"RIFF"):
            path.write_bytes(data)
            with pytest.raises(ValueError, match="not a valid WAV file"):
                read_wav(path)


    def test_clipped_samples_counted_on_stderr(self, tmp_path, capsys):
        x = np.array([[0.5, 1.5, -1.0, -2.0, 0.999], [0.0, 0.1, 1.0001, 0.2, -0.3]])
        path = tmp_path / "loud.wav"
        write_wav(path, AudioBuffer(x, 8000))
        assert capsys.readouterr().err == f"warning: 3 samples clipped at full scale in {path}\n"
        with wave.open(str(path), "rb") as wf:
            pcm = np.frombuffer(wf.readframes(wf.getnframes()), "<i2")
        want = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")
        np.testing.assert_array_equal(pcm, want.T.reshape(-1))
        write_wav(path, AudioBuffer(np.clip(x, -1.0, 1.0), 8000))
        assert capsys.readouterr().err == ""


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
        assert lines[0] == DIAGNOSTICS_HEADER
        assert len(lines) == 1 + len(noisy) // 200
        assert all(line.endswith(",both") for line in lines[1:])

    def test_enhance_bilateral_diagnostics_cover_both_ears(self, tmp_path, cb_paths, rng):
        # Each ear of a bilateral run is its own group, so the CSV has every
        # frame's row for the left ear, then every frame's row for the right.
        sp, np_ = cb_paths
        s = ar_signal(SPEECH_MODELS[0].coefficients, 1e-3, 2100, rng)
        noise = [ar_signal(NOISE_MODELS[1].coefficients, 1e-3, 2100, rng) for _ in range(2)]
        z = np.vstack([s + snr_scale(s, n, 5.0) * n for n in noise])
        path = tmp_path / "two-ear.wav"
        write_wav(path, AudioBuffer(0.5 * z / np.max(np.abs(z)), 8000))
        diag = tmp_path / "diag.csv"
        code = main([
            "enhance", str(path), "-o", str(tmp_path / "enh.wav"),
            "--speech-cb", sp, "--noise-cb", np_, "--mode", "bilateral", "--model", "uv",
            "--diagnostics", str(diag),
        ])
        assert code == 0
        header, *rows = diag.read_text().strip().splitlines()
        assert header == DIAGNOSTICS_HEADER
        fields = [row.split(",") for row in rows]
        assert [(f[0], f[-1]) for f in fields] == (
            [(str(fi), "left") for fi in range(10)] + [(str(fi), "right") for fi in range(10)]
        )
        assert [f[1:-1] for f in fields[:10]] != [f[1:-1] for f in fields[10:]]

    def test_enhance_mono_diagnostics(self, tmp_path, stereo_wav, cb_paths):
        # enhance reads the channel count from the WAV: a mono input is one
        # group, whatever the mode, with one mono row per frame.
        sp, np_ = cb_paths
        mono = tmp_path / "mono.wav"
        write_wav(mono, AudioBuffer(read_wav(stereo_wav).samples[0], 8000))
        out, diag = tmp_path / "o.wav", tmp_path / "diag.csv"
        code = main([
            "enhance", str(mono), "-o", str(out), "--speech-cb", sp, "--noise-cb", np_,
            "--mode", "binaural", "--model", "vuv", "--diagnostics", str(diag),
        ])
        assert code == 0
        header, *rows = diag.read_text().strip().splitlines()
        assert header == DIAGNOSTICS_HEADER
        assert [(r.split(",")[0], r.split(",")[-1]) for r in rows] == [
            (str(fi), "mono") for fi in range(10)]
        want = process(read_wav(mono), codebook.load(sp), codebook.load(np_),
                       RunConfig(mode="binaural", model="vuv"))
        write_wav(tmp_path / "want.wav", want)
        assert out.read_bytes() == (tmp_path / "want.wav").read_bytes()

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

    def test_enhance_takes_the_wav_rate(self, tmp_path, cb_paths, rng):
        # A 16 kHz input needs no rate flag or key: the rate is the WAV's.
        sp, np_ = cb_paths
        z = np.clip(0.1 * rng.normal(size=(2, 2100)), -1.0, 1.0)
        wav = tmp_path / "wide.wav"
        write_wav(wav, AudioBuffer(z, 16000))
        out = tmp_path / "enh.wav"
        code = main(["enhance", str(wav), "-o", str(out), "--speech-cb", sp, "--noise-cb", np_])
        assert code == 0
        enh = read_wav(out)
        assert (enh.channel_count, len(enh), enh.sample_rate) == (2, 2100, 16000)

    @pytest.mark.parametrize("command", ["enhance", "pitch"])
    def test_frame_timing_noted_off_8khz(self, tmp_path, cb_paths, rng, capsys, command):
        # The frame settings count samples and their defaults suit 8 kHz, so
        # another rate gets one stderr line with them in ms; 8 kHz gets none.
        sp, np_ = cb_paths
        z = np.clip(0.1 * rng.normal(size=(2, 2100)), -1.0, 1.0)
        errs = []
        for rate in (8000, 16000):
            wav = tmp_path / f"{rate}.wav"
            write_wav(wav, AudioBuffer(z, rate))
            code = main([command, str(wav), "-o", str(tmp_path / "out"), "--speech-cb", sp,
                         "--noise-cb", np_])
            assert code == 0
            errs.append(capsys.readouterr().err)
        spans = "frame_len 200 samples = 12.5 ms"
        if command == "enhance":
            spans += ", smoother_delay 25 samples = 1.5625 ms"
        assert errs == ["", f"note: {wav} is 16000 Hz: {spans} (the defaults suit 8000 Hz)\n"]

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

    def test_tiny_pitch_grid_exits_before_allocating(self, tmp_path, stereo_wav, cb_paths):
        # 8000 / 1e-6 and 80 / 1e-6 are integers, but the grid would hold
        # 3.2e8 points.  Under a 1 GiB address-space cap, an attempt to
        # allocate it would end in a MemoryError traceback.
        sp, np_ = cb_paths
        out = tmp_path / "enh.wav"
        env = dict(os.environ, PYTHONPATH=str(Path(binse.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        cap = 1 << 30
        run = subprocess.run(
            [sys.executable, "-m", "binse.cli", "enhance", stereo_wav, "-o", str(out),
             "--speech-cb", sp, "--noise-cb", np_, "--pitch-grid", "0.000001"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert run.returncode == 2
        assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: ")
        assert "Traceback" not in run.stderr
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

    @pytest.mark.parametrize("command", ["enhance", "pitch"])
    def test_negative_frame_len_named(self, tmp_path, stereo_wav, cb_paths, capsys, command):
        # frame_len is checked before the smoother_delay it bounds, which pitch has no flag for.
        sp, np_ = cb_paths
        assert main([command, stereo_wav, "-o", str(tmp_path / "out"), "--speech-cb", sp,
                     "--noise-cb", np_, "--frame-len", "-2"]) == 2
        assert capsys.readouterr().err == "error: frame_len must be positive (got -2)\n"

    @pytest.mark.parametrize("command", ["enhance", "enhance-single", "pitch"])
    def test_swapped_codebook_kinds_usage_error(
        self, tmp_path, stereo_wav, cb_paths, capsys, command
    ):
        # Each codebook file stores its kind; a noise codebook given as
        # --speech-cb (and a speech one as --noise-cb) is refused by name.
        sp, np_ = cb_paths
        wav = stereo_wav
        if command == "enhance-single":
            wav = tmp_path / "mono.wav"
            write_wav(wav, AudioBuffer(read_wav(stereo_wav).samples[0], 8000))
        out = tmp_path / "out"
        code = main([command, str(wav), "-o", str(out), "--speech-cb", np_, "--noise-cb", sp])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {np_}: stored as a noise codebook") and "--speech-cb" in err
        assert not out.exists()
        # The noise side is checked too.
        code = main([command, str(wav), "-o", str(out), "--speech-cb", sp, "--noise-cb", sp])
        assert code == 2
        assert f"{sp}: stored as a speech codebook, but --noise-cb" in capsys.readouterr().err
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
        assert "speech codebook order 4 must be below frame_len 4" in capsys.readouterr().err
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

    def test_silenced_output_warned(self, tmp_path, stereo_wav, cb_paths, capsys, monkeypatch):
        # An enhancer that rounds nonzero input to int16 zeros says so; the exit
        # code and the WAV stay as they are.
        monkeypatch.setattr(pipeline, "process", lambda z, *args, **kwargs:
                            AudioBuffer(np.zeros_like(z.samples), z.sample_rate))
        sp, np_ = cb_paths
        out = tmp_path / "enh.wav"
        assert main(["enhance", stereo_wav, "-o", str(out), "--speech-cb", sp,
                     "--noise-cb", np_]) == 0
        assert capsys.readouterr().err == (
            f"warning: {out} is all zeros, but {stereo_wav} is not\n")
        assert not np.any(read_wav(out).samples)

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


class TestExitCodes:
    @pytest.mark.parametrize("exc, code", [
        (np.linalg.LinAlgError("singular matrix"), 1),
        (NumericalDegeneracyError("reflection coefficient at 1"), 1),
        (ValueError("bad setting"), 2),
        (codebook.CodebookFormatError("bad magic at offset 0"), 2),
        (OSError("disk full"), 2),
    ], ids=["linalg", "degeneracy", "value", "codebook_format", "os"])
    def test_library_exception_mapped(self, tmp_path, stereo_wav, cb_paths, capsys,
                                      monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(pipeline, "process", fail)
        sp, np_ = cb_paths
        out = tmp_path / "enh.wav"
        assert main(["enhance", stereo_wav, "-o", str(out), "--speech-cb", sp,
                     "--noise-cb", np_]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(exc) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["enhance", "pitch", "train", "eval", "eval-clean",
                                         "eval-enhanced"])
    def test_zero_hz_header_usage_error(self, tmp_path, stereo_wav, cb_paths, capsys, command):
        # The header's rate (and byte rate) fields read 0; the AudioBuffer check rejects it,
        # and the error names the file, also when only one of eval's two inputs is bad.
        raw = bytearray(Path(stereo_wav).read_bytes())
        raw[24:32] = bytes(8)
        wav = tmp_path / "zero-hz.wav"
        wav.write_bytes(bytes(raw))
        out = tmp_path / "out"
        codebooks = ["--speech-cb", cb_paths[0], "--noise-cb", cb_paths[1]]
        argv = {"enhance": ["enhance", str(wav), "-o", str(out), *codebooks],
                "pitch": ["pitch", str(wav), "-o", str(out), *codebooks],
                "train": ["train", str(wav), "-o", str(out), "--kind", "speech", "--size", "1",
                          "--order", "4"],
                "eval": ["eval", str(wav), str(wav)],
                "eval-clean": ["eval", str(wav), stereo_wav],
                "eval-enhanced": ["eval", stereo_wav, str(wav)]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {wav}: sample_rate must be positive\n"
        assert not out.exists()


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

    def test_sample_rate_setting_rejected(self, tmp_path, stereo_wav, cb_paths):
        # The sample rate is the input WAV's own.
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sample_rate = 8000\n")
        base = ["enhance", stereo_wav, "-o", str(tmp_path / "o.wav"),
                "--speech-cb", sp, "--noise-cb", np_]
        assert main([*base, "--config", str(cfg)]) == 2
        assert main([*base, "--sample-rate", "8000"]) == 2

    def test_mu_iteration_setting_rejected(self, tmp_path, stereo_wav, cb_paths):
        # The variance solve always runs the estimator's own step cap.
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

    def test_pitch_csv_mono(self, tmp_path, stereo_wav, cb_paths, capsys):
        # A mono WAV runs the one-ear search: one row per whole frame.
        sp, np_ = cb_paths
        wav = tmp_path / "mono.wav"
        write_wav(wav, AudioBuffer(read_wav(stereo_wav).samples[0], 8000))
        code = main(["pitch", str(wav), "--speech-cb", sp, "--noise-cb", np_,
                     "--voicing-threshold", "0"])
        assert code == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        assert header == "frame,f0_hz,period_samples,voicing,order"
        assert [r.split(",")[0] for r in rows] == [str(fi) for fi in range(10)]
        assert all(float(r.split(",")[1]) >= 80.0 for r in rows)


    def test_pitch_frames_need_no_smoother_delay(self, tmp_path, stereo_wav, cb_paths, capsys):
        # pitch never smooths, so frames shorter than enhance's default delay run.
        sp, np_ = cb_paths
        code = main(["pitch", stereo_wav, "--speech-cb", sp, "--noise-cb", np_,
                     "--frame-len", "20"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 2000 // 20

    @pytest.mark.parametrize("flag", [["--mode", "bilateral"], ["--model", "uv"],
                                      ["--smoother-delay", "20"]])
    def test_enhance_only_flags_rejected(self, tmp_path, stereo_wav, cb_paths, capsys, flag):
        sp, np_ = cb_paths
        code = main(["pitch", stereo_wav, "--speech-cb", sp, "--noise-cb", np_, *flag])
        assert code == 2
        assert flag[0] in capsys.readouterr().err

    def test_enhance_only_config_keys_overridden(self, tmp_path, stereo_wav, cb_paths, capsys):
        # A config file shared with enhance may hold its settings; pitch overrides them.
        sp, np_ = cb_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = bilateral\nmodel = uv\nsmoother_delay = 300\n")
        argv = ["pitch", stereo_wav, "--speech-cb", sp, "--noise-cb", np_]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == plain


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
