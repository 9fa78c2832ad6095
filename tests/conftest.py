import numpy as np
import pytest
from scipy.signal import lfilter

from binse.codebook import Codebook
from binse.linpred import ArModel, ar_to_lsf
from binse.signal_core import AudioBuffer


def ar_signal(coeffs, variance, n, rng, burn_in=500):
    """Sample an AR process driven by white Gaussian noise."""
    e = rng.normal(0.0, np.sqrt(variance), n + burn_in)
    inverse = np.concatenate(([1.0], -np.asarray(coeffs, float)))
    return lfilter([1.0], inverse, e)[burn_in:]


def codebook_from_models(models, kind):
    """Build a codebook directly from AR models (bypasses Lloyd training)."""
    entries = np.array([ar_to_lsf(m).frequencies for m in models])
    order = np.lexsort(entries.T[::-1])
    return Codebook(entries[order], kind)


def snr_scale(target, noise, snr_db):
    """Gain for `noise` so that target/noise power ratio hits snr_db."""
    return np.sqrt(np.var(target) / np.var(noise) / 10 ** (snr_db / 10.0))


def stereo(left, right):
    """One (2, n) buffer from two mono buffers, as ``process`` takes it."""
    return AudioBuffer(np.vstack((left.samples, right.samples)), left.sample_rate)


def channels(buffer):
    """The (left, right) mono buffers of a stereo ``process`` output."""
    return tuple(AudioBuffer(x, buffer.sample_rate) for x in buffer.samples)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
