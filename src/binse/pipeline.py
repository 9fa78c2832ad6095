"""Per-frame orchestration: noise tracking, STP estimation, pitch, smoothing."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kalman, stp
from .codebook import Codebook
from .linpred import ArModel
from .pitch import (
    DEFAULT_VOICING_THRESHOLD,
    UNVOICED,
    DirectivityModel,
    PitchInfo,
    estimate_pitch,
    prewhiten,
)
from .signal_core import AudioBuffer, Frame, analytic_signal, cross_spectrum, periodogram
from .stp import (
    CompiledCodebook,
    DualChannelNoiseTracker,
    GammaPrior,
    StpDiagnostics,
    StpEstimate,
    compile_codebook,
)


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration; defaults follow the 8 kHz / 25 ms setup."""

    sample_rate: int = 8000
    frame_len: int = 200
    speech_order: int = 14
    noise_order: int = 14
    smoother_delay: int = 25
    f_min: float = 80.0
    f_max: float = 400.0
    pitch_grid_hz: float = 0.5
    mode: str = "binaural"  # binaural | bilateral
    model: str = "vuv"  # uv | vuv
    voicing_threshold: float = DEFAULT_VOICING_THRESHOLD
    mu_iters: int = stp.MU_DEFAULT_ITERS
    adaptive_noise_codebook: bool = True
    noise_var_prior: GammaPrior | None = None
    max_harmonic_order: int | None = None

    def __post_init__(self):
        if self.mode not in ("binaural", "bilateral"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.model not in ("uv", "vuv"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.smoother_delay < self.speech_order:
            raise ValueError("smoother_delay must be >= speech_order")
        if self.frame_len % 2 != 0:
            raise ValueError("frame_len must be even (analytic-signal step)")

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
        noise_var_prior=cfg.noise_var_prior,
        mu_iters=cfg.mu_iters,
        frame_index=frame_index,
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
    xl, xr, noise_model: ArModel, start: int, cfg: RunConfig, directivity
) -> PitchInfo:
    m = cfg.frame_len

    def whitened_analytic(x):
        hist = x[max(0, start - noise_model.order) : start]
        white = prewhiten(x[start : start + m], noise_model, hist)
        return analytic_signal(Frame(white, 0))

    zl_c = whitened_analytic(xl)
    zr_c = whitened_analytic(xr) if xr is not None else None
    return estimate_pitch(
        zl_c,
        zr_c,
        cfg.sample_rate,
        f_min=cfg.f_min,
        f_max=cfg.f_max,
        grid_step_hz=cfg.pitch_grid_hz,
        directivity=directivity,
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
    directivity,
):
    """Shared per-frame parameter estimation for a channel pair (xr may be None)."""
    m = cfg.frame_len
    n_frames = len(xl) // m
    tracker = DualChannelNoiseTracker() if (xr is not None and cfg.adaptive_noise_codebook) else None
    params = []
    for fi in range(n_frames):
        sl = Frame(xl[fi * m : (fi + 1) * m], fi, "left")
        pzl = periodogram(sl)
        if xr is not None:
            sr = Frame(xr[fi * m : (fi + 1) * m], fi, "right")
            pzr = periodogram(sr)
        else:
            pzr = pzl
        adaptive_entry = None
        if tracker is not None:
            cross = cross_spectrum(sl, sr)
            dc_psd = tracker.update(pzl, pzr, cross)
            # Fit at the codebook's order so the LSF-domain averaging in
            # the estimator sees entries of one common length.
            try:
                adaptive_entry = stp.noise_psd_to_ar(dc_psd, noise.order)
            except (ValueError, ArithmeticError):
                adaptive_entry = None
        est = _estimate_frame_params(
            pzl, pzr, speech, noise, adaptive_entry, cfg, fi, diagnostics_out
        )
        if cfg.model == "vuv":
            pitch = _pitch_for_frame(xl, xr, est.noise, fi * m, cfg, directivity)
        else:
            pitch = UNVOICED
        params.append((est, pitch))
    return params


def process(
    zl: AudioBuffer,
    zr: AudioBuffer,
    speech_cb: Codebook,
    noise_cb: Codebook,
    cfg: RunConfig,
    diagnostics_out: list | None = None,
    directivity: DirectivityModel | None = None,
):
    """Enhance a stereo scene; returns (left, right) AudioBuffers.

    Binaural mode shares one parameter set per frame across both ears;
    bilateral mode estimates independently per ear from that ear alone.
    """
    if len(zl) != len(zr) or zl.sample_rate != zr.sample_rate:
        raise ValueError("channels must have equal length and rate")
    if zl.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"sample rate {zl.sample_rate} != configured {cfg.sample_rate}"
        )
    speech = compile_codebook(speech_cb, cfg.frame_len)
    noise = compile_codebook(noise_cb, cfg.frame_len)
    xl = zl.channel("left")
    xr = zr.channel("left") if zr.channel_count == 1 else zr.channel("right")
    directivity = directivity or DirectivityModel(sample_rate=cfg.sample_rate)

    if cfg.mode == "binaural":
        params = _channel_params(xl, xr, speech, noise, cfg, diagnostics_out, directivity)
        params_l = params_r = params
    else:
        params_l = _channel_params(xl, None, speech, noise, cfg, diagnostics_out, directivity)
        params_r = _channel_params(xr, None, speech, noise, cfg, None, directivity)

    out_l = kalman.enhance_channel(
        AudioBuffer(xl, zl.sample_rate), params_l, cfg.frame_len, cfg.model,
        cfg.smoother_delay, cfg.p_max,
    )
    out_r = kalman.enhance_channel(
        AudioBuffer(xr, zl.sample_rate), params_r, cfg.frame_len, cfg.model,
        cfg.smoother_delay, cfg.p_max,
    )
    return out_l, out_r


def process_single(
    z: AudioBuffer,
    speech_cb: Codebook,
    noise_cb: Codebook,
    cfg: RunConfig,
    diagnostics_out: list | None = None,
) -> AudioBuffer:
    """Single-channel path: one-channel likelihoods, degenerate directivity."""
    if z.channel_count != 1:
        raise ValueError("process_single expects a mono buffer")
    if z.sample_rate != cfg.sample_rate:
        raise ValueError(f"sample rate {z.sample_rate} != configured {cfg.sample_rate}")
    x = z.channel("left")
    params = _channel_params(
        x,
        None,
        compile_codebook(speech_cb, cfg.frame_len),
        compile_codebook(noise_cb, cfg.frame_len),
        cfg,
        diagnostics_out,
        DirectivityModel(sample_rate=cfg.sample_rate),
    )
    return kalman.enhance_channel(
        z, params, cfg.frame_len, cfg.model, cfg.smoother_delay, cfg.p_max
    )
