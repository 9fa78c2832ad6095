import os

# One BLAS thread, set before numpy loads: threaded LAPACK calls in the
# pitch tests spin against other work on a busy host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.signal import lfilter  # noqa: E402

from binse.codebook import Codebook  # noqa: E402
from binse.linpred import ArModel, ar_to_lsf  # noqa: E402
from binse.signal_core import AudioBuffer  # noqa: E402


def ar_signal(coeffs, variance, n, rng, burn_in=500):
    """Sample an AR process driven by white Gaussian noise."""
    e = rng.normal(0.0, np.sqrt(variance), n + burn_in)
    inverse = np.concatenate(([1.0], -np.asarray(coeffs, float)))
    return lfilter([1.0], inverse, e)[burn_in:]


def codebook_from_models(models, kind):
    """Build a codebook directly from AR models (bypasses Lloyd training)."""
    entries = ar_to_lsf(models)
    order = np.lexsort(entries.T[::-1])
    return Codebook(entries[order], kind)


def close_pole_model(order):
    """A stable model whose two pole pairs sit 1e-7 apart just inside the unit circle.

    Two of its line spectral frequencies lie about 1e-7 apart: closer than
    one cell of a 4096-point grid over (0, pi), but ``ar_to_lsf`` separates them.
    Each close pair puts two roots of one series into one cell of the
    ``LSF_GRID_CELLS`` grid, so the model's series take the colleague-matrix
    eigensolve (``linpred._colleague_roots``), not the bracketed Newton search.
    """
    pairs = [0.9999999 * np.exp(1j * w) for w in (1.0, 1.0 + 1e-7)]
    pairs += [0.5 * np.exp(1j * (0.5 + k)) for k in range(order // 2 - 2)]
    poles = np.concatenate((pairs, np.conj(pairs), [0.5] * (order % 2)))
    return ArModel(-np.real(np.poly(poles))[1:])


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
