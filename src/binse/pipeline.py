"""Per-frame orchestration: noise tracking, STP estimation, pitch, smoothing."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kalman, stp
from .codebook import Codebook
from .linpred import ArModel
from .pitch import (
    DEFAULT_VOICING_THRESHOLD,
    UNVOICED,
    PitchInfo,
    check_pitch_grid,
    estimate_pitch,
    prewhiten,
)
from .signal_core import AudioBuffer, analytic_signal, cross_spectrum, frame_rows, periodogram
from .stp import (
    CompiledCodebook,
    DualChannelNoiseTracker,
    StpDiagnostics,
    StpEstimate,
    compile_codebook,
)


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration; defaults follow the 8 kHz / 25 ms setup."""

    sample_rate: int = 8000
    frame_len: int = 200
    smoother_delay: int = 25
    f_min: float = 80.0
    f_max: float = 400.0
    pitch_grid_hz: float = 0.5
    mode: str = "binaural"  # binaural | bilateral
    model: str = "vuv"  # uv | vuv
    voicing_threshold: float = DEFAULT_VOICING_THRESHOLD
    adaptive_noise_codebook: bool = True
    max_harmonic_order: int | None = None

    def __post_init__(self):
        if self.mode not in ("binaural", "bilateral"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.model not in ("uv", "vuv"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.frame_len % 2 != 0:
            raise ValueError("frame_len must be even (analytic-signal step)")
        if not 0 <= self.smoother_delay <= self.frame_len:
            raise ValueError(f"smoother_delay {self.smoother_delay} outside [0, frame_len]")
        check_pitch_grid(self.sample_rate, self.f_min, self.f_max, self.pitch_grid_hz)
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ValueError(
                f"voicing_threshold must lie in [0, 1] (got {self.voicing_threshold})"
            )
        if self.max_harmonic_order is not None and self.max_harmonic_order < 1:
            raise ValueError("max_harmonic_order must be >= 1")

    @property
    def p_max(self) -> int:
        return int(np.ceil(self.sample_rate / self.f_min))


@dataclass
class FrameDiagnostics:
    frame: int
    best_speech_index: int
    best_noise_index: int
    log_weight: float
    sigma_d2: float
    sigma_v2: float

    def csv_line(self) -> str:
        return (
            f"{self.frame},{self.best_speech_index},{self.best_noise_index},"
            f"{self.log_weight:.6g},{self.sigma_d2:.6g},{self.sigma_v2:.6g}"
        )


def _estimate_frame_params(
    pzl,
    pzr,
    speech: CompiledCodebook,
    noise: CompiledCodebook,
    adaptive_entry: ArModel | None,
    cfg: RunConfig,
    frame_index: int,
    diagnostics_out: list | None,
) -> StpEstimate:
    diag = StpDiagnostics()
    est = stp.estimate_stp(
        pzl,
        pzr,
        speech,
        noise,
        frame_len=cfg.frame_len,
        diagnostics=diag,
        adaptive_noise=adaptive_entry,
    )
    if adaptive_entry is not None:
        # Fuse the codebook-MMSE noise variance with the dual-channel one.
        fused = 0.5 * (est.noise.excitation_variance + adaptive_entry.excitation_variance)
        est = replace(est, noise=ArModel(est.noise.coefficients, fused))
    if diagnostics_out is not None:
        diagnostics_out.append(
            FrameDiagnostics(
                frame=frame_index,
                best_speech_index=diag.best_speech_index,
                best_noise_index=diag.best_noise_index,
                log_weight=diag.best_log_weight,
                sigma_d2=est.speech.excitation_variance,
                sigma_v2=est.noise.excitation_variance,
            )
        )
    return est


def _pitch_for_frame(
    xl, xr, noise_model: ArModel, start: int, cfg: RunConfig
) -> PitchInfo:
    m = cfg.frame_len

    def whitened_analytic(x):
        hist = x[max(0, start - noise_model.order) : start]
        white = prewhiten(x[start : start + m], noise_model, hist)
        return analytic_signal(white)

    zl_c = whitened_analytic(xl)
    zr_c = whitened_analytic(xr) if xr is not None else None
    return estimate_pitch(
        zl_c,
        zr_c,
        cfg.sample_rate,
        f_min=cfg.f_min,
        f_max=cfg.f_max,
        grid_step_hz=cfg.pitch_grid_hz,
        voicing_threshold=cfg.voicing_threshold,
        max_order=cfg.max_harmonic_order,
    )


def _channel_params(
    xl,
    xr,
    speech: CompiledCodebook,
    noise: CompiledCodebook,
    cfg: RunConfig,
    diagnostics_out: list | None,
):
    """Shared per-frame parameter estimation for a channel pair (xr may be None).

    The spectra of all frames are computed up front, one frame per row.
    """
    m = cfg.frame_len
    frames_l = frame_rows(xl, m)
    pzl = pzr = periodogram(frames_l)
    tracker = DualChannelNoiseTracker() if (xr is not None and cfg.adaptive_noise_codebook) else None
    if xr is not None:
        frames_r = frame_rows(xr, m)
        pzr = periodogram(frames_r)
        if tracker is not None:
            cross = cross_spectrum(frames_l, frames_r)
    params = []
    for fi in range(len(frames_l)):
        adaptive_entry = None
        if tracker is not None:
            dc_psd = tracker.update(pzl[fi], pzr[fi], cross[fi])
            # Fit at the codebook's order so the LSF-domain averaging in
            # the estimator sees entries of one common length.
            try:
                adaptive_entry = stp.noise_psd_to_ar(dc_psd, noise.order)
            except (ValueError, ArithmeticError):
                adaptive_entry = None
        est = _estimate_frame_params(
            pzl[fi], pzr[fi], speech, noise, adaptive_entry, cfg, fi, diagnostics_out
        )
        if cfg.model == "vuv":
            pitch = _pitch_for_frame(xl, xr, est.noise, fi * m, cfg)
        else:
            pitch = UNVOICED
        params.append((est, pitch))
    return params


def frame_params(
    z: AudioBuffer,
    speech_cb: Codebook,
    noise_cb: Codebook,
    cfg: RunConfig,
    diagnostics_out: list | None = None,
) -> list[list[tuple[StpEstimate, PitchInfo]]]:
    """Per-frame (StpEstimate, PitchInfo) lists, one per channel of ``z``.

    A stereo buffer in binaural mode gets one list, estimated from both
    ears and shared by them; bilateral stereo and mono estimate each
    channel from that channel alone.  Diagnostics cover the left (or only)
    channel.
    """
    if z.sample_rate != cfg.sample_rate:
        raise ValueError(f"sample rate {z.sample_rate} != configured {cfg.sample_rate}")
    speech = compile_codebook(speech_cb, cfg.frame_len)
    noise = compile_codebook(noise_cb, cfg.frame_len)
    channels = np.atleast_2d(z.samples)
    if _shares_params(channels, cfg):
        shared = _channel_params(*channels, speech, noise, cfg, diagnostics_out)
        return [shared, shared]
    return [
        _channel_params(x, None, speech, noise, cfg, diagnostics_out if c == 0 else None)
        for c, x in enumerate(channels)
    ]


def _shares_params(channels, cfg: RunConfig) -> bool:
    """Binaural stereo: both ears share one parameter set per frame."""
    return len(channels) == 2 and cfg.mode == "binaural"


def process(
    z: AudioBuffer,
    speech_cb: Codebook,
    noise_cb: Codebook,
    cfg: RunConfig,
    diagnostics_out: list | None = None,
) -> AudioBuffer:
    """Enhance a mono ``(n,)`` or stereo ``(2, n)`` buffer; returns one of the same shape.

    Binaural mode shares one parameter set per frame across both ears, so
    one smoother recursion serves both; bilateral mode, and a mono buffer,
    estimate and smooth each channel from that channel alone.
    """
    params = frame_params(z, speech_cb, noise_cb, cfg, diagnostics_out)
    channels = np.atleast_2d(z.samples)
    smooth = dict(
        frame_len=cfg.frame_len, model_kind=cfg.model,
        smoother_delay=cfg.smoother_delay, p_max=cfg.p_max,
    )
    if _shares_params(channels, cfg):
        out = kalman.enhance_channel(channels, params[0], **smooth)
    else:
        out = [kalman.enhance_channel(x, p, **smooth) for x, p in zip(channels, params)]
    return AudioBuffer(np.reshape(out, z.samples.shape), z.sample_rate)
