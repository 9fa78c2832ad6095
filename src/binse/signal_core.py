"""Shared numeric substrate: framing, periodograms, autocorrelation, analytic signals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
import scipy.signal


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

    def channel(self, which: str) -> npt.NDArray[np.float64]:
        """Return one channel ('left' or 'right') as a 1-D array."""
        if self.samples.ndim == 1:
            return self.samples
        return self.samples[0] if which == "left" else self.samples[1]


@dataclass(frozen=True)
class Frame:
    """One analysis frame of a single channel."""

    samples: npt.NDArray[np.float64]
    frame_index: int
    channel: str = "left"

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def energy(self) -> float:
        return float(np.dot(self.samples, self.samples))


def extract_frames(buffer: AudioBuffer, frame_len: int, channel: str = "left"):
    """Split one channel into non-overlapping frames of length ``frame_len``.

    The trailing partial frame is discarded.
    """
    if frame_len <= 0:
        raise ValueError("frame_len must be positive")
    x = buffer.channel(channel)
    if frame_len > len(x):
        raise ValueError("frame_len exceeds buffer length")
    n_frames = len(x) // frame_len
    return [
        Frame(x[i * frame_len : (i + 1) * frame_len], frame_index=i, channel=channel)
        for i in range(n_frames)
    ]


def periodogram(frame: Frame, dft_len: int | None = None) -> npt.NDArray[np.float64]:
    """Power spectrum |X(k)|^2 / M of the (zero-padded) frame.

    The 1/M scaling matches a unitary DFT of the frame, so the bin sum
    equals the frame energy when dft_len == len(frame).
    """
    m = len(frame)
    k = m if dft_len is None else dft_len
    if k < m:
        raise ValueError("dft_len must be >= frame length")
    spec = np.fft.fft(frame.samples, n=k)
    return np.abs(spec) ** 2 / m


def cross_spectrum(left: Frame, right: Frame, dft_len: int | None = None):
    """Complex cross-spectrum X_l(k) conj(X_r(k)) / M, scaled like periodogram."""
    m = len(left)
    if len(right) != m:
        raise ValueError("frames must have equal length")
    k = m if dft_len is None else dft_len
    xl = np.fft.fft(left.samples, n=k)
    xr = np.fft.fft(right.samples, n=k)
    return xl * np.conj(xr) / m


def autocorrelation(frame: Frame, max_lag: int) -> npt.NDArray[np.float64]:
    """Biased autocorrelation estimate r(0..max_lag).

    r(q) = (1/M) sum_n x(n) x(n-q).  The biased form keeps the Toeplitz
    autocorrelation matrix positive semi-definite.
    """
    m = len(frame)
    if max_lag >= m:
        raise ValueError("max_lag must be smaller than frame length")
    x = frame.samples
    full = np.correlate(x, x, mode="full")
    return full[m - 1 : m + max_lag] / m


def analytic_signal(frame: Frame) -> npt.NDArray[np.complex128]:
    """Complex analytic signal via DFT one-siding (even frame lengths only)."""
    m = len(frame)
    if m % 2 != 0:
        raise ValueError("analytic_signal requires an even frame length")
    return scipy.signal.hilbert(frame.samples)
