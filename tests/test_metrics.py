import numpy as np
import pytest

from binse.metrics import interaural_errors, segmental_snr
from binse.signal_core import AudioBuffer, cross_spectrum

from conftest import ar_signal, snr_scale


def buf(x):
    return AudioBuffer(np.asarray(x, float), 8000)


class TestSegmentalSnr:
    def test_identical_hits_ceiling(self, rng):
        x = rng.normal(size=2000)
        assert segmental_snr(buf(x), buf(x)) == 35.0

    def test_equal_power_noise_near_zero(self, rng):
        x = rng.normal(size=20000)
        n = rng.normal(size=20000)
        n *= snr_scale(x, n, 0.0)
        assert abs(segmental_snr(buf(x), buf(x + n))) < 0.5

    def test_known_5db_mixture(self, rng):
        x = ar_signal([1.2, -0.5], 1.0, 40000, rng)
        n = rng.normal(size=40000)
        n *= snr_scale(x, n, 5.0)
        assert abs(segmental_snr(buf(x), buf(x + n)) - 5.0) < 0.2

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            segmental_snr(buf(np.zeros(400)), buf(np.zeros(600)))

    def test_too_short(self):
        with pytest.raises(ValueError):
            segmental_snr(buf(np.zeros(100)), buf(np.zeros(100)), seg_len=200)


class TestInterauralErrors:
    def make_scene(self, rng, n=4096):
        l = ar_signal([1.2, -0.5], 1.0, n, rng)
        r = np.roll(l, 2) + 0.01 * rng.normal(size=n)
        return buf(l), buf(r)

    def test_identical_zero(self, rng):
        l, r = self.make_scene(rng)
        rep = interaural_errors(l, r, l, r)
        assert rep.itd_error == 0.0
        assert rep.ild_error == 0.0

    def test_common_gain_cancels(self, rng):
        l, r = self.make_scene(rng)
        rep = interaural_errors(l, r, buf(2.5 * l.samples), buf(2.5 * r.samples))
        assert rep.itd_error < 1e-12
        assert rep.ild_error < 1e-12

    def test_one_sample_delay_matches_oracle(self, rng):
        n = 4096
        frame = 256
        l = ar_signal([1.2, -0.5], 1.0, n + 1, rng)
        cl, cr = l[:n], l[:n].copy()
        el, er = cl.copy(), l[1 : n + 1]  # right ear delayed by one sample
        rep = interaural_errors(buf(cl), buf(cr), buf(el), buf(er))
        # Oracle: a one-sample shift tilts the cross-spectrum phase by
        # roughly 2*pi*k/frame per bin; the mean |phase|/pi over bins of a
        # linear ramp spanning [-pi, pi) is about 1/2.
        assert rep.itd_error > 0.1
        assert abs(rep.itd_error - 0.5) < 0.25

    def test_ild_pure_gain_on_one_channel(self, rng):
        l, r = self.make_scene(rng)
        g = 10 ** (3.0 / 20.0)  # +3 dB on the right channel only
        rep = interaural_errors(l, r, l, buf(g * r.samples))
        assert abs(rep.ild_error - 3.0) < 1e-9

    def test_swap_invariance(self, rng):
        l, r = self.make_scene(rng)
        el, er = buf(l.samples + 0.01), buf(r.samples - 0.01)
        a = interaural_errors(l, r, el, er)
        b = interaural_errors(r, l, er, el)
        assert abs(a.itd_error - b.itd_error) < 1e-12

    def test_zero_channel_rejected(self, rng):
        l, r = self.make_scene(rng)
        with pytest.raises(ValueError):
            interaural_errors(l, r, buf(np.zeros(len(l))), r)

    def test_length_mismatch(self, rng):
        l, r = self.make_scene(rng)
        with pytest.raises(ValueError):
            interaural_errors(l, r, l, buf(np.zeros(100)))


def test_stereo_buffer_rejected(rng):
    # A stereo buffer is two ears; scoring only one of them would be silent.
    x = rng.normal(size=4096)
    mono, both = buf(x), buf(np.vstack((x, x)))
    with pytest.raises(ValueError):
        segmental_snr(both, both)
    with pytest.raises(ValueError):
        segmental_snr(mono, both)
    with pytest.raises(ValueError):
        interaural_errors(mono, mono, both, mono)


def test_itd_matches_per_frame_reference(rng):
    # Reference: one cross-spectrum pair per frame, kept bins pooled in frame order.
    n, m = 4096, 256
    cl = ar_signal([1.2, -0.5], 1.0, n, rng)
    cr = np.roll(cl, 2)
    el, er = cl + 0.1 * rng.normal(size=n), np.roll(cl, 3)
    errors = []
    for i in range(n // m):
        sl = slice(i * m, (i + 1) * m)
        c_clean, c_enh = cross_spectrum(cl[sl], cr[sl]), cross_spectrum(el[sl], er[sl])
        mag = np.abs(c_clean)
        keep = mag > 1e-10 * mag.max()
        dphi = np.angle(c_enh[keep]) - np.angle(c_clean[keep])
        errors.append(np.abs((dphi + np.pi) % (2.0 * np.pi) - np.pi))
    rep = interaural_errors(buf(cl), buf(cr), buf(el), buf(er))
    assert rep.itd_error == float(np.mean(np.concatenate(errors)) / np.pi)
