"""Command-line front end: codebook training, enhancement, pitch tracking, metrics."""

from __future__ import annotations

import argparse
import sys
import wave
from pathlib import Path

import numpy as np

from . import codebook, metrics, pipeline, stp
from .linpred import ar_envelope, levinson_durbin
from .pipeline import RunConfig
from .signal_core import AudioBuffer, Frame, extract_frames, periodogram

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def read_wav(path) -> AudioBuffer:
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise CliError(f"{path}: only 16-bit PCM supported")
            n_ch = wf.getnchannels()
            if n_ch not in (1, 2):
                raise CliError(f"{path}: expected mono or stereo, got {n_ch} channels")
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except wave.Error as exc:
        raise CliError(f"{path}: not a valid WAV file ({exc})") from exc
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_ch == 2:
        data = data.reshape(-1, 2).T
    return AudioBuffer(data, rate)


def write_wav(path, buffer: AudioBuffer) -> None:
    pcm = np.clip(np.round(buffer.samples * 32767.0), -32768, 32767).astype("<i2")
    if buffer.channel_count == 2:
        pcm = pcm.T.reshape(-1)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(buffer.channel_count)
        wf.setsampwidth(2)
        wf.setframerate(buffer.sample_rate)
        wf.writeframes(pcm.tobytes())


def load_config_file(path) -> dict:
    """Parse a UTF-8 ``key = value`` file; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_CONFIG_FIELDS = {
    "sample_rate": int,
    "frame_len": int,
    "speech_order": int,
    "noise_order": int,
    "smoother_delay": int,
    "f_min": float,
    "f_max": float,
    "pitch_grid_hz": float,
    "mode": str,
    "model": str,
    "voicing_threshold": float,
    "mu_iters": int,
    "adaptive_noise_codebook": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "max_harmonic_order": int,
}


def build_config(args) -> RunConfig:
    """Flags override config-file values, which override built-in defaults."""
    kwargs = {}
    if getattr(args, "config", None):
        raw = load_config_file(args.config)
        for key, value in raw.items():
            if key not in _CONFIG_FIELDS:
                raise CliError(f"unknown config key {key!r}")
            kwargs[key] = _CONFIG_FIELDS[key](value)
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_train(args) -> int:
    if args.size < 1:
        raise CliError("codebook size must be >= 1")
    if not args.inputs:
        raise CliError("at least one input WAV is required")
    frames = []
    rate = None
    for path in args.inputs:
        buf = read_wav(path)
        if rate is None:
            rate = buf.sample_rate
        elif buf.sample_rate != rate:
            raise CliError(f"{path}: sample rate {buf.sample_rate} != {rate}")
        frames.extend(extract_frames(buf, args.frame_len))
        if buf.channel_count == 2:
            frames.extend(extract_frames(buf, args.frame_len, channel="right"))

    def report(iteration, distortion):
        print(f"iteration {iteration}: distortion {distortion:.6e}")

    try:
        cb = codebook.train(
            frames, args.size, args.order, args.seed, kind=args.kind, on_iteration=report
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    codebook.save(cb, args.output)
    print(f"wrote {cb.size}x{cb.order} {cb.kind} codebook to {args.output}")
    return EXIT_OK


def _load_codebooks(args, cfg: RunConfig):
    try:
        speech_cb = codebook.load(args.speech_cb)
        noise_cb = codebook.load(args.noise_cb)
    except (OSError, codebook.CodebookFormatError) as exc:
        raise CliError(str(exc)) from exc
    if speech_cb.order > cfg.smoother_delay:
        raise CliError(
            f"{args.speech_cb}: speech codebook order {speech_cb.order} exceeds "
            f"smoother_delay {cfg.smoother_delay}"
        )
    return speech_cb, noise_cb


def cmd_enhance(args) -> int:
    cfg = build_config(args)
    speech_cb, noise_cb = _load_codebooks(args, cfg)
    noisy = read_wav(args.input)
    if noisy.sample_rate != cfg.sample_rate:
        raise CliError(
            f"{args.input}: rate {noisy.sample_rate} != configured {cfg.sample_rate}"
        )
    diagnostics = [] if args.diagnostics else None
    if cfg.mode in ("binaural", "bilateral"):
        if noisy.channel_count != 2:
            raise CliError(f"--mode {cfg.mode} requires a stereo input")
        left = AudioBuffer(noisy.samples[0], noisy.sample_rate)
        right = AudioBuffer(noisy.samples[1], noisy.sample_rate)
        out_l, out_r = pipeline.process(
            left, right, speech_cb, noise_cb, cfg, diagnostics_out=diagnostics
        )
        out = AudioBuffer(
            np.vstack((out_l.samples, out_r.samples)), noisy.sample_rate
        )
    else:
        out = pipeline.process_single(noisy, speech_cb, noise_cb, cfg, diagnostics)
    write_wav(args.output, out)
    if args.diagnostics:
        lines = ["frame,best_i,best_j,log_weight,sigma_d2,sigma_v2"]
        lines += [d.csv_line() for d in diagnostics]
        Path(args.diagnostics).write_text("\n".join(lines) + "\n")
    print(f"wrote enhanced audio to {args.output}")
    return EXIT_OK


def cmd_single(args) -> int:
    cfg = build_config(args)
    speech_cb, noise_cb = _load_codebooks(args, cfg)
    noisy = read_wav(args.input)
    if noisy.channel_count != 1:
        raise CliError("single-channel enhancement requires a mono input")
    if noisy.sample_rate != cfg.sample_rate:
        raise CliError(
            f"{args.input}: rate {noisy.sample_rate} != configured {cfg.sample_rate}"
        )
    out = pipeline.process_single(noisy, speech_cb, noise_cb, cfg)
    write_wav(args.output, out)
    print(f"wrote enhanced audio to {args.output}")
    return EXIT_OK


def cmd_pitch(args) -> int:
    cfg = build_config(args)
    speech_cb, noise_cb = _load_codebooks(args, cfg)
    noisy = read_wav(args.input)
    if noisy.channel_count != 2:
        raise CliError("pitch tracking expects a stereo input")
    if noisy.sample_rate != cfg.sample_rate:
        raise CliError(
            f"{args.input}: rate {noisy.sample_rate} != configured {cfg.sample_rate}"
        )
    cfg_vuv = pipeline.RunConfig(
        **{**cfg.__dict__, "model": "vuv", "mode": "binaural"}
    )
    left = AudioBuffer(noisy.samples[0], noisy.sample_rate)
    right = AudioBuffer(noisy.samples[1], noisy.sample_rate)
    lines = ["frame,f0_hz,period_samples,voicing,order"]
    params = pipeline._channel_params(
        left.channel("left"),
        right.channel("left"),
        stp.compile_codebook(speech_cb, cfg.frame_len),
        stp.compile_codebook(noise_cb, cfg.frame_len),
        cfg_vuv,
        None,
        None,
    )
    for fi, (_, pitch) in enumerate(params):
        f0 = pitch.omega0 * cfg.sample_rate / (2 * np.pi)
        lines.append(
            f"{fi},{f0:.2f},{pitch.period_samples},{pitch.voicing:.4f},{pitch.harmonic_order}"
        )
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_eval(args) -> int:
    clean = read_wav(args.clean)
    enhanced = read_wav(args.enhanced)
    if clean.channel_count != 2 or enhanced.channel_count != 2:
        raise CliError("eval expects stereo clean and enhanced files")
    if len(clean) != len(enhanced):
        raise CliError("clean and enhanced lengths differ")
    cl = AudioBuffer(clean.samples[0], clean.sample_rate)
    cr = AudioBuffer(clean.samples[1], clean.sample_rate)
    el = AudioBuffer(enhanced.samples[0], enhanced.sample_rate)
    er = AudioBuffer(enhanced.samples[1], enhanced.sample_rate)
    segsnr_l = metrics.segmental_snr(cl, el)
    segsnr_r = metrics.segmental_snr(cr, er)
    report = metrics.interaural_errors(cl, cr, el, er)
    print(
        "{"
        + f'"segsnr_l": {segsnr_l:.4f}, "segsnr_r": {segsnr_r:.4f}, '
        + f'"itd": {report.itd_error:.6f}, "ild": {report.ild_error:.6f}'
        + "}"
    )
    return EXIT_OK


def cmd_likelihood_surface(args) -> int:
    """Dump a (sigma_d2, sigma_v2, log-likelihood) grid for a synthetic frame."""
    m = args.frame_len
    speech_model = levinson_durbin(np.array([1.0, 0.7, 0.35]))
    noise_model = levinson_durbin(np.array([1.0, -0.3, 0.15]))
    speech_env = ar_envelope(speech_model, m)
    noise_env = ar_envelope(noise_model, m)
    true_var = args.true_variance
    # Exactly-modeled observation spectra: no sampling noise on the surface.
    pz = true_var * speech_env + true_var * noise_env

    grid = np.logspace(np.log10(args.var_min), np.log10(args.var_max), args.grid_points)
    lines = ["sigma_d2,sigma_v2,log_likelihood"]
    for sd in grid:
        for sv in grid:
            modeled = sd * speech_env + sv * noise_env
            ll = stp.pair_log_likelihood(pz, pz, modeled, m)
            lines.append(f"{sd:.8e},{sv:.8e},{ll:.8e}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_config_flags(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--sample-rate", dest="sample_rate", type=int)
    p.add_argument("--frame-len", dest="frame_len", type=int)
    p.add_argument("--speech-order", dest="speech_order", type=int)
    p.add_argument("--noise-order", dest="noise_order", type=int)
    p.add_argument("--smoother-delay", dest="smoother_delay", type=int)
    p.add_argument("--f-min", dest="f_min", type=float)
    p.add_argument("--f-max", dest="f_max", type=float)
    p.add_argument("--pitch-grid", dest="pitch_grid_hz", type=float)
    p.add_argument("--mode", choices=["binaural", "bilateral"])
    p.add_argument("--model", choices=["uv", "vuv"])
    p.add_argument("--voicing-threshold", dest="voicing_threshold", type=float)
    p.add_argument("--mu-iters", dest="mu_iters", type=int)
    p.add_argument("--max-harmonic-order", dest="max_harmonic_order", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binse", description="Model-based binaural speech enhancement"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a spectral-shape codebook")
    p.add_argument("inputs", nargs="+", help="training WAV files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--kind", choices=["speech", "noise"], required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--order", type=int, default=14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame-len", dest="frame_len", type=int, default=200)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance a stereo WAV")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--speech-cb", required=True)
    p.add_argument("--noise-cb", required=True)
    p.add_argument("--diagnostics", help="per-frame CSV output path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("enhance-single", help="enhance a mono WAV")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--speech-cb", required=True)
    p.add_argument("--noise-cb", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_single)

    p = sub.add_parser("pitch", help="track pitch of a stereo WAV")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--speech-cb", required=True)
    p.add_argument("--noise-cb", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_pitch)

    p = sub.add_parser("eval", help="segmental SNR and interaural cue errors")
    p.add_argument("clean")
    p.add_argument("enhanced")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "likelihood-surface", help="dump the variance log-likelihood grid as CSV"
    )
    p.add_argument("-o", "--output")
    p.add_argument("--frame-len", type=int, default=200)
    p.add_argument("--true-variance", type=float, default=1e-3)
    p.add_argument("--var-min", type=float, default=1e-5)
    p.add_argument("--var-max", type=float, default=1e-1)
    p.add_argument("--grid-points", type=int, default=50)
    p.set_defaults(func=cmd_likelihood_surface)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
