"""Shared numeric substrate: frames as array rows, spectra, autocorrelation, analytic signals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt


@dataclass(frozen=True)
class AudioBuffer:
    """Mono or stereo audio held as float arrays in [-1, 1].

    For stereo buffers ``samples`` has shape (2, n); mono is (n,).
    """

    samples: npt.NDArray[np.float64]
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim not in (1, 2):
            raise ValueError("samples must be 1-D (mono) or 2-D (stereo)")
        if samples.ndim == 2 and samples.shape[0] != 2:
            raise ValueError("stereo buffers must have shape (2, n)")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def channel_count(self) -> int:
        return 1 if self.samples.ndim == 1 else 2

    def __len__(self) -> int:
        return self.samples.shape[-1]


def frame_rows(x: npt.NDArray[np.float64], frame_len: int) -> npt.NDArray[np.float64]:
    """The whole frames of the 1-D signal ``x`` as rows of an (n_frames, frame_len) view.

    The trailing partial frame is dropped; a signal shorter than one frame
    gives zero rows.
    """
    if frame_len <= 0:
        raise ValueError("frame_len must be positive")
    n_frames = len(x) // frame_len
    return x[: n_frames * frame_len].reshape(n_frames, frame_len)


def periodogram(frames: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Power spectrum |X(k)|^2 / M over the last axis (one frame per row).

    The 1/M scaling matches a unitary DFT of the frame, so the bin sum
    equals the frame energy.
    """
    return np.abs(np.fft.fft(frames)) ** 2 / np.shape(frames)[-1]


def cross_spectrum(left: npt.NDArray[np.float64], right: npt.NDArray[np.float64]):
    """Complex cross-spectrum X_l(k) conj(X_r(k)) / M over the last axis, like periodogram."""
    if np.shape(left) != np.shape(right):
        raise ValueError("frames must have equal shape")
    return np.fft.fft(left) * np.conj(np.fft.fft(right)) / np.shape(left)[-1]


def autocorrelation(x: npt.NDArray[np.float64], max_lag: int) -> npt.NDArray[np.float64]:
    """Biased autocorrelation estimate r(0..max_lag) of a frame, or of each row of (N, M) frames.

    r(q) = (1/M) sum_n x(n) x(n-q).  The biased form keeps the Toeplitz
    autocorrelation matrix positive semi-definite.  Each lag is one stacked
    row-by-row dot product, so a row's estimate does not depend on the rows
    beside it.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[-1]
    if max_lag >= m:
        raise ValueError("max_lag must be smaller than frame length")
    rows = x.reshape(-1, 1, m)
    lags = [rows[..., q:] @ rows[..., : m - q].transpose(0, 2, 1) for q in range(max_lag + 1)]
    return np.concatenate(lags, axis=-1).reshape(*x.shape[:-1], max_lag + 1) / m


def analytic_signal(x: npt.NDArray[np.float64]) -> npt.NDArray[np.complex128]:
    """Complex analytic signal of a 1-D frame via DFT one-siding (even lengths only).

    The steps of ``scipy.signal.hilbert``: double the bins below Nyquist,
    zero the ones above it, and invert.
    """
    n = len(x)
    if n % 2 != 0:
        raise ValueError("analytic_signal requires an even frame length")
    spectrum = np.fft.fft(x)
    spectrum[1 : n // 2] *= 2.0
    spectrum[n // 2 + 1 :] = 0.0
    return np.fft.ifft(spectrum)
