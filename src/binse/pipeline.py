"""Per-frame orchestration: noise tracking, STP estimation, pitch, smoothing."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

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
from .stp import DualChannelNoiseTracker, StpEstimate, compile_codebook


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration; ``frame_len`` is in samples, 25 ms at 8 kHz.  The sample
    rate and the channel count are the input's own."""

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
        if self.frame_len <= 0:
            raise ValueError(f"frame_len must be positive (got {self.frame_len})")
        if self.frame_len % 2 != 0:
            raise ValueError("frame_len must be even (analytic-signal step)")
        if not 0 <= self.smoother_delay <= self.frame_len:
            raise ValueError(f"smoother_delay {self.smoother_delay} outside [0, frame_len]")
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ValueError(
                f"voicing_threshold must lie in [0, 1] (got {self.voicing_threshold})"
            )
        if self.max_harmonic_order is not None and self.max_harmonic_order < 1:
            raise ValueError("max_harmonic_order must be >= 1")


@dataclass
class FrameDiagnostics:
    frame: int
    best_speech_index: int
    best_noise_index: int
    log_weight: float
    sigma_d2: float
    sigma_v2: float
    underflow_fallback: bool  # every pair's weight underflowed; the best pair took it all
    adaptive_fit_failed: bool  # the frame's dual-channel noise PSD got no adaptive entry
    ear: str  # both (a binaural pair), left, right or mono

    CSV_HEADER: ClassVar[str] = ("frame,best_i,best_j,log_weight,sigma_d2,sigma_v2,"
                                 "underflow_fallback,adaptive_fit_failed,ear")

    def csv_line(self) -> str:
        return (
            f"{self.frame},{self.best_speech_index},{self.best_noise_index},"
            f"{self.log_weight:.6g},{self.sigma_d2:.6g},{self.sigma_v2:.6g},"
            f"{self.underflow_fallback:d},{self.adaptive_fit_failed:d},{self.ear}"
        )


def channel_groups(channels, cfg: RunConfig) -> list[tuple[str, list[int]]]:
    """(ear, channel indices) of each group of channels that shares one parameter set:
    both ears in binaural stereo, each channel alone in bilateral stereo and mono."""
    if len(channels) == 2 and cfg.mode == "binaural":
        return [("both", [0, 1])]
    ears = ["left", "right"] if len(channels) == 2 else ["mono"]
    return [(ear, [c]) for c, ear in enumerate(ears)]


def _group_params(x, sample_rate: int, ear: str, speech: stp.CompiledCodebook,
                  noise: stp.CompiledCodebook, cfg: RunConfig, diagnostics_out: list | None):
    """Per-frame (StpEstimate, PitchInfo) list shared by the ``(C, n)`` rows of ``x``.  All
    frames' spectra come first; the first and last rows are the STP's left and right ears."""
    m = cfg.frame_len
    frames = np.array([frame_rows(row, m) for row in x])
    pz = periodogram(frames)
    adaptive = ok = None  # ok: per frame, whether the dual-channel fit gave an entry
    if len(x) == 2 and cfg.adaptive_noise_codebook:
        # The tracker does not depend on the STP, so all frames' noise PSDs are fitted in one
        # pass, at the codebook's order: the LSF-domain average needs entries of one length.
        tracker = DualChannelNoiseTracker()
        dc_psd = np.array([tracker.update(*pair) for pair in zip(*pz, cross_spectrum(*frames))])
        # A frame whose PSD cannot be fitted gets no entry; its diagnostics row says so.
        coeffs, variances, ok = stp.noise_psd_to_ar(dc_psd, noise.order)
        if ok.any():
            # The fitted entries are compiled together: one LSF conversion and one FFT per
            # record.  Each frame scores its row beside the shared noise entries.
            adaptive = (ok, compile_codebook([ArModel(a) for a in coeffs[ok]], m))
    stp_diagnostics = [] if diagnostics_out is not None else None
    estimates = stp.estimate_stp(pz[0], pz[-1], speech, noise, frame_len=m,
                                 diagnostics=stp_diagnostics, adaptive=adaptive)
    params = []
    for fi, est in enumerate(estimates):
        if ok is not None and ok[fi]:
            # Fuse the codebook-MMSE noise variance with the dual-channel one.
            fused = 0.5 * (est.noise.excitation_variance + float(variances[fi]))
            est = replace(est, noise=ArModel(est.noise.coefficients, fused))
        if diagnostics_out is not None:
            diag = stp_diagnostics[fi]
            diagnostics_out.append(FrameDiagnostics(
                fi, diag.best_speech_index, diag.best_noise_index, diag.best_log_weight,
                est.speech.excitation_variance, est.noise.excitation_variance,
                diag.underflow_fallback, ok is not None and not ok[fi], ear))
        pitch = UNVOICED
        if cfg.model == "vuv":
            # Each ear's frame, whitened after the samples before it, made analytic.
            start, q = fi * m, est.noise.order
            z = [analytic_signal(prewhiten(row[start : start + m], est.noise,
                                           row[max(0, start - q) : start])) for row in x]
            pitch = estimate_pitch(
                z[0], z[1] if len(z) == 2 else None, sample_rate, f_min=cfg.f_min,
                f_max=cfg.f_max, grid_step_hz=cfg.pitch_grid_hz,
                voicing_threshold=cfg.voicing_threshold, max_order=cfg.max_harmonic_order)
        params.append((est, pitch))
    return params


def frame_params(
    z: AudioBuffer,
    speech_cb: Codebook,
    noise_cb: Codebook,
    cfg: RunConfig,
    diagnostics_out: list | None = None,
) -> list[tuple[list[int], list[tuple[StpEstimate, PitchInfo]]]]:
    """(channel indices, per-frame (StpEstimate, PitchInfo) list) of each group
    of ``channel_groups``, estimated from its own channels of ``z`` at the
    buffer's sample rate.  Diagnostics rows follow the groups, left before right.

    Before any frame work it checks the pitch grid at the buffer's rate and
    that both codebook orders lie below ``frame_len``; the per-frame stages
    beneath it take these for granted.  A record without a whole frame gets
    empty lists, and neither codebook is compiled.
    """
    check_pitch_grid(z.sample_rate, cfg.f_min, cfg.f_max, cfg.pitch_grid_hz)
    for kind, cb in (("speech", speech_cb), ("noise", noise_cb)):
        if cb.order >= cfg.frame_len:
            raise ValueError(f"{kind} codebook order {cb.order} must be below "
                             f"frame_len {cfg.frame_len}")
    channels = np.atleast_2d(z.samples)
    if channels.shape[1] < cfg.frame_len:  # no whole frame: nothing to compile or estimate
        return [(rows, []) for _, rows in channel_groups(channels, cfg)]
    speech = compile_codebook(speech_cb, cfg.frame_len)
    noise = compile_codebook(noise_cb, cfg.frame_len)
    return [(rows, _group_params(channels[rows], z.sample_rate, ear, speech, noise, cfg,
                                 diagnostics_out))
            for ear, rows in channel_groups(channels, cfg)]


def process(
    z: AudioBuffer,
    speech_cb: Codebook,
    noise_cb: Codebook,
    cfg: RunConfig,
    diagnostics_out: list | None = None,
) -> AudioBuffer:
    """Enhance a mono ``(n,)`` or stereo ``(2, n)`` buffer; returns one of the same shape.

    The channels of a group share one parameter set per frame, so one
    smoother recursion serves them: both ears in binaural mode, each channel
    alone in bilateral mode and for a mono buffer.  A speech codebook order
    above ``smoother_delay`` is rejected before ``frame_params`` runs.
    """
    if speech_cb.order > cfg.smoother_delay:
        raise ValueError(f"speech codebook order {speech_cb.order} exceeds "
                         f"smoother_delay {cfg.smoother_delay}")
    channels = np.atleast_2d(z.samples)
    out = np.empty(channels.shape)
    for rows, params in frame_params(z, speech_cb, noise_cb, cfg, diagnostics_out):
        out[rows] = kalman.enhance_channel(channels[rows], params, frame_len=cfg.frame_len,
                                           model_kind=cfg.model,
                                           smoother_delay=cfg.smoother_delay)
    return AudioBuffer(out.reshape(z.samples.shape), z.sample_rate)
