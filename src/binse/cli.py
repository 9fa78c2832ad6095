"""Command-line front end: codebook training, enhancement, pitch tracking, metrics."""

from __future__ import annotations

import argparse
import dataclasses
import sys
import wave
from pathlib import Path

import numpy as np

from . import codebook, metrics, pipeline, stp
from .linpred import ArModel, ar_envelope, levinson_durbin
from .pipeline import RunConfig
from .signal_core import AudioBuffer, frame_rows

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


def read_wav(path) -> AudioBuffer:
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise ValueError(f"{path}: only 16-bit PCM supported")
            n_ch = wf.getnchannels()
            if n_ch not in (1, 2):
                raise ValueError(f"{path}: expected mono or stereo, got {n_ch} channels")
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:  # EOFError: the file ends inside a chunk header
        raise ValueError(f"{path}: not a valid WAV file ({str(exc) or 'truncated'})") from exc
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_ch == 2:
        data = data.reshape(-1, 2).T
    try:
        return AudioBuffer(data, rate)
    except ValueError as exc:  # e.g. a header rate of 0 Hz
        raise ValueError(f"{path}: {exc}") from exc


def write_wav(path, buffer: AudioBuffer):
    """Write ``buffer`` as 16-bit PCM; returns the int16 samples written."""
    pcm = np.round(buffer.samples * 32767.0)
    if clipped := np.count_nonzero((pcm < -32768) | (pcm > 32767)):
        print(f"warning: {clipped} samples clipped at full scale in {path}", file=sys.stderr)
    pcm = np.clip(pcm, -32768, 32767).astype("<i2")
    if buffer.channel_count == 2:
        pcm = pcm.T.reshape(-1)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(buffer.channel_count)
        wf.setsampwidth(2)
        wf.setframerate(buffer.sample_rate)
        wf.writeframes(pcm.tobytes())
    return pcm


def load_config_file(path) -> dict:
    """Parse a UTF-8 ``key = value`` file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_SWITCH = {"on": True, "true": True, "yes": True, "1": True,
           "off": False, "false": False, "no": False, "0": False}
# Each RunConfig field's parser, by its annotation (a string under postponed evaluation).
_CONFIG_FIELDS = {
    field.name: {"int": int, "int | None": int, "float": float, "str": str,
                 "bool": lambda s: _SWITCH[s.lower()]}[field.type]
    for field in dataclasses.fields(RunConfig)
}


def build_config(args, **fixed) -> RunConfig:
    """``fixed`` overrides flags, which override config-file values, which override
    built-in defaults."""
    kwargs = {}
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _CONFIG_FIELDS[key](value)
            except (KeyError, ValueError):
                raise ValueError(f"{args.config}: bad value {value!r} for {key}") from None
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
    kwargs.update(fixed)
    return RunConfig(**kwargs)


def cmd_train(args) -> int:
    if args.order < 1:
        raise ValueError("--order must be >= 1")
    if args.order >= args.frame_len:
        raise ValueError(f"--order {args.order} must be below --frame-len {args.frame_len}")
    frames = []
    rate = None
    for path in args.inputs:
        buf = read_wav(path)
        if rate is None:
            rate = buf.sample_rate
        elif buf.sample_rate != rate:
            raise ValueError(f"{path}: sample rate {buf.sample_rate} != {rate}")
        if len(buf) < args.frame_len:
            raise ValueError(f"{path}: --frame-len {args.frame_len} exceeds its {len(buf)} samples")
        frames.extend(frame_rows(x, args.frame_len) for x in np.atleast_2d(buf.samples))
    frames = np.concatenate(frames)  # rebound, so the input buffers can be freed

    def report(iteration, distortion):
        print(f"iteration {iteration}: distortion {distortion:.6e}")

    cb = codebook.train(frames, args.size, args.order, args.seed, kind=args.kind,
                        on_iteration=report)
    codebook.save(cb, args.output)
    print(f"wrote {cb.size}x{cb.order} {cb.kind} codebook to {args.output}")
    return EXIT_OK


def _load_codebooks(args):
    speech_cb = codebook.load(args.speech_cb)
    noise_cb = codebook.load(args.noise_cb)
    for path, cb, kind in ((args.speech_cb, speech_cb, "speech"), (args.noise_cb, noise_cb, "noise")):
        if cb.kind != kind:
            raise ValueError(f"{path}: stored as a {cb.kind} codebook, but --{kind}-cb "
                             f"needs a {kind} one")
    return speech_cb, noise_cb


def _note_rate(path, rate: int, cfg: RunConfig, in_samples: tuple[str, ...]) -> None:
    """The ``cfg`` settings named in ``in_samples`` count samples, and their defaults
    suit 8000 Hz, so at any other rate one stderr line gives them in ms.  Callers print
    it once the library's checks have passed, so a rejected run prints only its error.
    """
    if rate != 8000:
        spans = ", ".join(f"{name} {getattr(cfg, name)} samples = "
                          f"{1000 * getattr(cfg, name) / rate:g} ms" for name in in_samples)
        print(f"note: {path} is {rate} Hz: {spans} (the defaults suit 8000 Hz)",
              file=sys.stderr)


def _write_text(path, lines) -> None:
    """Write ``lines`` to ``path``, or to stdout if it is not given."""
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_enhance(args) -> int:
    cfg = build_config(args)
    speech_cb, noise_cb = _load_codebooks(args)
    noisy = read_wav(args.input)
    diagnostics = [] if args.diagnostics else None
    out = pipeline.process(noisy, speech_cb, noise_cb, cfg, diagnostics_out=diagnostics)
    _note_rate(args.input, noisy.sample_rate, cfg, ("frame_len", "smoother_delay"))
    written = write_wav(args.output, out)
    if noisy.samples.any() and not written.any():
        print(f"warning: {args.output} is all zeros, but {args.input} is not", file=sys.stderr)
    if args.diagnostics:
        _write_text(args.diagnostics, [pipeline.FrameDiagnostics.CSV_HEADER,
                                       *(d.csv_line() for d in diagnostics)])
    print(f"wrote enhanced audio to {args.output}")
    return EXIT_OK


def cmd_pitch(args) -> int:
    # pitch never smooths: the enhance settings a shared config file may hold are overridden.
    cfg = build_config(args, model="vuv", mode="binaural", smoother_delay=0)
    speech_cb, noise_cb = _load_codebooks(args)
    noisy = read_wav(args.input)
    [(_, params)] = pipeline.frame_params(noisy, speech_cb, noise_cb, cfg)
    _note_rate(args.input, noisy.sample_rate, cfg, ("frame_len",))
    lines = ["frame,f0_hz,period_samples,voicing,order"]
    lines += [f"{fi},{p.omega0 * noisy.sample_rate / (2 * np.pi):.2f},{p.period_samples},"
              f"{p.voicing:.4f},{p.harmonic_order}" for fi, (_, p) in enumerate(params)]
    _write_text(args.output, lines)
    return EXIT_OK


def cmd_eval(args) -> int:
    clean = read_wav(args.clean)
    enhanced = read_wav(args.enhanced)
    if clean.channel_count != 2 or enhanced.channel_count != 2:
        raise ValueError("eval expects stereo clean and enhanced files")
    if clean.sample_rate != enhanced.sample_rate:
        raise ValueError(f"sample rates differ: {clean.sample_rate} != {enhanced.sample_rate}")
    cl, cr = (AudioBuffer(x, clean.sample_rate) for x in clean.samples)
    el, er = (AudioBuffer(x, enhanced.sample_rate) for x in enhanced.samples)
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
    if m < 3:
        raise ValueError(f"--frame-len must be >= 3, the synthetic AR order + 1; got {m}")
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be >= 1, got {args.grid_points}")
    if not 0 < args.var_min <= args.var_max < np.inf:
        raise ValueError(f"need 0 < --var-min <= --var-max < inf, got --var-min {args.var_min} "
                         f"and --var-max {args.var_max}")
    if not 0 < args.true_variance < np.inf:
        raise ValueError(f"--true-variance must be positive and finite, got {args.true_variance}")
    coeffs, variances, _ = levinson_durbin(np.array([[1.0, 0.7, 0.35], [1.0, -0.3, 0.15]]))
    speech_model, noise_model = map(ArModel, coeffs, variances)
    speech_env = ar_envelope(speech_model, m)
    noise_env = ar_envelope(noise_model, m)
    true_var = args.true_variance
    # Exactly-modeled observation spectra: no sampling noise on the surface.
    pz = true_var * speech_env + true_var * noise_env

    grid = np.logspace(np.log10(args.var_min), np.log10(args.var_max), args.grid_points)
    sd, sv = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    ll = stp.pair_log_likelihood(pz, pz, np.outer(sd, speech_env) + np.outer(sv, noise_env), m)
    lines = ["sigma_d2,sigma_v2,log_likelihood"]
    lines += [f"{d:.8e},{v:.8e},{x:.8e}" for d, v, x in zip(sd, sv, ll)]
    _write_text(args.output, lines)
    return EXIT_OK


def _add_config_flags(p):
    """The flags of the settings that ``enhance`` and ``pitch`` both read."""
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--frame-len", dest="frame_len", type=int)
    p.add_argument("--f-min", dest="f_min", type=float)
    p.add_argument("--f-max", dest="f_max", type=float)
    p.add_argument("--pitch-grid", dest="pitch_grid_hz", type=float)
    p.add_argument("--voicing-threshold", dest="voicing_threshold", type=float)
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

    p = sub.add_parser("enhance", aliases=["enhance-single"],
                       help="enhance a mono or stereo WAV")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--speech-cb", required=True)
    p.add_argument("--noise-cb", required=True)
    p.add_argument("--diagnostics", help="per-frame CSV output path")
    _add_config_flags(p)
    p.add_argument("--smoother-delay", dest="smoother_delay", type=int)
    p.add_argument("--mode", choices=["binaural", "bilateral"])
    p.add_argument("--model", choices=["uv", "vuv"])
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("pitch", help="track pitch of a mono or stereo WAV")
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
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
