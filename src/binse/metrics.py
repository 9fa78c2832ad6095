"""Objective evaluation: segmental SNR and interaural cue errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_core import AudioBuffer, cross_spectrum, frame_rows

SEG_SNR_FLOOR_DB = -10.0
SEG_SNR_CEIL_DB = 35.0
CROSS_MAG_REL_FLOOR = 1e-10


@dataclass(frozen=True)
class InterauralReport:
    itd_error: float  # normalized phase error in [0, 1]
    ild_error: float  # dB


def _mono_samples(*buffers: AudioBuffer):
    """The sample arrays of mono buffers of one length; stereo buffers are rejected."""
    if any(b.channel_count != 1 for b in buffers):
        raise ValueError("metrics take mono buffers: score each ear of a stereo buffer")
    if len({len(b) for b in buffers}) != 1:
        raise ValueError("buffers must have equal length")
    return [b.samples for b in buffers]


def segmental_snr(clean: AudioBuffer, processed: AudioBuffer, seg_len: int = 200) -> float:
    """Mean per-segment SNR in dB, each segment clamped to [-10, 35] dB."""
    s, p = _mono_samples(clean, processed)
    segs = frame_rows(s, seg_len)
    if len(segs) == 0:
        raise ValueError("signal shorter than one segment")
    vals = []
    for seg_s, seg_p in zip(segs, frame_rows(p, seg_len)):
        seg_e = seg_s - seg_p
        num = float(np.dot(seg_s, seg_s))
        den = float(np.dot(seg_e, seg_e))
        if den == 0.0:
            snr = SEG_SNR_CEIL_DB
        elif num == 0.0:
            snr = SEG_SNR_FLOOR_DB
        else:
            snr = 10.0 * np.log10(num / den)
        vals.append(np.clip(snr, SEG_SNR_FLOOR_DB, SEG_SNR_CEIL_DB))
    return float(np.mean(vals))


def _wrap_phase(phi):
    return (phi + np.pi) % (2.0 * np.pi) - np.pi


def interaural_errors(
    clean_l: AudioBuffer,
    clean_r: AudioBuffer,
    enh_l: AudioBuffer,
    enh_r: AudioBuffer,
    frame_len: int = 256,
) -> InterauralReport:
    """ITD/ILD error of the enhanced pair against the clean pair.

    ITD: mean absolute wrapped phase difference of the per-frame cross
    spectra, normalized by pi; bins whose clean cross magnitude is
    negligible are excluded.  ILD: absolute dB deviation of the channel
    power ratio.
    """
    cl, cr, el, er = _mono_samples(clean_l, clean_r, enh_l, enh_r)
    for s in (cl, cr, el, er):
        if not np.any(s):
            raise ValueError("zero-power channel: interaural metrics undefined")

    c_clean = cross_spectrum(frame_rows(cl, frame_len), frame_rows(cr, frame_len))
    if len(c_clean) == 0:
        raise ValueError("signals shorter than one analysis frame")
    c_enh = cross_spectrum(frame_rows(el, frame_len), frame_rows(er, frame_len))
    mag = np.abs(c_clean)
    keep = mag > CROSS_MAG_REL_FLOOR * mag.max(axis=1, keepdims=True)
    dphi = _wrap_phase(np.angle(c_enh[keep]) - np.angle(c_clean[keep]))
    itd = float(np.mean(np.abs(dphi)) / np.pi) if dphi.size else 0.0

    i_clean = float(np.dot(cl, cl) / np.dot(cr, cr))
    i_enh = float(np.dot(el, el) / np.dot(er, er))
    ild = float(abs(10.0 * np.log10(i_enh / i_clean)))
    return InterauralReport(itd_error=itd, ild_error=ild)
