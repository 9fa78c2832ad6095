import dataclasses
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from binse.linpred import ArModel
from binse import pitch
from binse.pitch import (
    UNVOICED,
    VOICING_CLAMP,
    PitchInfo,
    check_pitch_grid,
    estimate_pitch,
    map_order_select,
    prewhiten,
)
from binse.signal_core import analytic_signal

from conftest import ar_signal


# The least-squares refit of the winning candidate and its harmonic-energy
# ratio.  The search reads the voicing off its own running sums; these
# stay as the oracle of reference_estimate_pitch.


def _harmonic_matrix(omega0: float, order: int, m: int):
    n = np.arange(m)
    return np.exp(1j * omega0 * np.outer(n, np.arange(1, order + 1)))


def ml_amplitudes(zl, zr, omega0, order):
    """Least-squares harmonic amplitudes for the stacked two-ear system of a frontal target."""
    if order < 1:
        raise ValueError("order must be >= 1")
    m = len(zl)
    channels = 1 if zr is None else 2
    if channels * m < order:
        raise ValueError("system is underdetermined for this harmonic order")
    v = _harmonic_matrix(omega0, order, m)
    if zr is None:
        h, y = v, np.asarray(zl, complex)
    else:
        h = np.vstack((v, v))
        y = np.concatenate((zl, zr))
    q, res, rank, _ = np.linalg.lstsq(h, y, rcond=None)
    if rank < order:
        raise ValueError(f"rank-deficient harmonic system (rank {rank} < {order})")
    return q


def degree_of_voicing(frame, omega0, order, amplitudes):
    """Harmonic-energy fraction ||V q||^2 / ||z||^2, clamped to [0, 0.95]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    total = float(np.vdot(frame, frame).real)
    if total <= 0.0:
        return 0.0
    recon = _harmonic_matrix(omega0, order, len(frame)) @ amplitudes
    ratio = float(np.vdot(recon, recon).real) / total
    return float(np.clip(ratio, 0.0, VOICING_CLAMP))


def harmonic_frame(omega0, amps, m, phase0=0.0):
    n = np.arange(m)
    out = np.zeros(m, complex)
    for l, a in enumerate(amps, start=1):
        out += a * np.exp(1j * (omega0 * l * n + phase0))
    return out


class TestPrewhiten:
    def test_identity_with_zero_coeffs(self, rng):
        x = rng.normal(size=200)
        out = prewhiten(x, ArModel(np.zeros(14)))
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_ar1_noise_whitened(self, rng):
        n = 8000
        x = ar_signal([0.8], 1.0, n + 14, rng)
        out = prewhiten(x[14:], ArModel(np.array([0.8])), history=x[:14])
        r1 = np.mean(out[1:] * out[:-1]) / np.var(out)
        assert abs(r1) < 0.05

    def test_history_used(self, rng):
        x = rng.normal(size=50)
        hist = rng.normal(size=3)
        model = ArModel(np.array([0.5, -0.2, 0.1]))
        out = prewhiten(x, model, history=hist)
        full = np.concatenate((hist, x))
        expect = lfilter(model.inverse_filter(), [1.0], full)[3:]
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestMlAmplitudes:
    def test_noiseless_recovery(self):
        m = 200
        omega0 = 2 * np.pi * 100 / 8000
        amps = np.array([1.0 + 0.5j, -0.3 + 0.2j, 0.8j])
        z = harmonic_frame(omega0, amps, m)
        est = ml_amplitudes(z, z, omega0, 3)
        np.testing.assert_allclose(est, amps, atol=1e-8)

    def test_zero_input(self):
        est = ml_amplitudes(np.zeros(100, complex), np.zeros(100, complex), 0.1, 2)
        np.testing.assert_allclose(est, 0.0, atol=1e-14)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            ml_amplitudes(np.zeros(10, complex), None, 0.1, 0)

    def test_underdetermined(self):
        with pytest.raises(ValueError):
            ml_amplitudes(np.zeros(3, complex), None, 0.1, 5)


class TestMapOrderSelect:
    def test_noiseless_order3(self):
        m = 200
        omega0 = 2 * np.pi * 100 / 8000
        z = harmonic_frame(omega0, [1.0, 0.7, 0.4], m)
        costs = []
        for order in range(1, 8):
            est = ml_amplitudes(z, None, omega0, order)
            n = np.arange(m)
            recon = np.exp(1j * omega0 * np.outer(n, np.arange(1, order + 1))) @ est
            sigma2 = max(float(np.mean(np.abs(z - recon) ** 2)), 1e-300)
            costs.append(m * np.log(sigma2))
        assert map_order_select(np.array(costs), m) == 3

    def test_monotone_negligible_beyond_2(self):
        m = 200
        # Residual drops hard through L=2, then by amounts the penalty beats.
        sigma2 = np.array([1.0, 0.05, 0.049, 0.048, 0.047])
        costs = 2 * m * np.log(sigma2)
        assert map_order_select(costs, 2 * m) == 2


class TestDegreeOfVoicing:
    def test_pure_harmonic_clamped(self):
        m = 200
        omega0 = 2 * np.pi * 100 / 8000
        z = harmonic_frame(omega0, [1.0, 0.5], m)
        amps = ml_amplitudes(z, None, omega0, 2)
        assert degree_of_voicing(z, omega0, 2, amps) == 0.95

    def test_pure_noise_low(self, rng):
        m = 200
        omega0 = 2 * np.pi * 100 / 8000
        ratios = []
        for _ in range(20):
            z = (rng.normal(size=m) + 1j * rng.normal(size=m)) / np.sqrt(2)
            amps = ml_amplitudes(z, None, omega0, 10)
            ratios.append(degree_of_voicing(z, omega0, 10, amps))
        mean = np.mean(ratios)
        # Projection onto 10 of 200 dimensions captures ~L/M of the energy.
        assert mean < 0.3
        assert abs(mean - 10 / m) < 0.05

    def test_half_and_half(self, rng):
        m = 200
        omega0 = 2 * np.pi * 100 / 8000
        vals = []
        for _ in range(20):
            h = harmonic_frame(omega0, [1.0], m)
            noise = (rng.normal(size=m) + 1j * rng.normal(size=m)) / np.sqrt(2)
            noise *= np.sqrt(np.mean(np.abs(h) ** 2) / np.mean(np.abs(noise) ** 2))
            z = h + noise
            amps = ml_amplitudes(z, None, omega0, 1)
            vals.append(degree_of_voicing(z, omega0, 1, amps))
        assert abs(np.mean(vals) - 0.5) < 0.1

    def test_zero_energy(self):
        assert degree_of_voicing(np.zeros(50, complex), 0.1, 2, np.zeros(2)) == 0.0


class TestEstimatePitch:
    FS = 8000
    M = 200

    def noisy_pair(self, rng, f0, snr_db, amps=(1.0, 0.8, 0.6)):
        n = np.arange(self.M)
        omega0 = 2 * np.pi * f0 / self.FS
        s = sum(a * np.cos(omega0 * l * n + rng.uniform(0, 2 * np.pi))
                for l, a in enumerate(amps, start=1))
        power = np.mean(s**2)
        sigma = np.sqrt(power / 10 ** (snr_db / 10))
        zl = s + sigma * rng.normal(size=self.M)
        zr = s + sigma * rng.normal(size=self.M)
        al = analytic_signal(zl)
        ar = analytic_signal(zr)
        return al, ar

    def test_100hz_at_10db(self, rng):
        hits = 0
        for _ in range(10):
            al, ar = self.noisy_pair(rng, 100.0, 10.0)
            info = estimate_pitch(al, ar, self.FS, f_min=80.0, f_max=150.0)
            f0 = info.omega0 * self.FS / (2 * np.pi)
            if abs(f0 - 100.0) <= 0.5 + 1e-9:
                hits += 1
        assert hits >= 9

    def test_white_noise_unvoiced(self, rng):
        z = analytic_signal(rng.normal(size=self.M))
        info = estimate_pitch(z, z.copy(), self.FS, f_min=80.0, f_max=150.0,
                              max_order=10)
        assert info == UNVOICED
        assert not info.is_voiced

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            estimate_pitch(np.zeros(200, complex), None, self.FS,
                           f_min=300.0, f_max=200.0)

    def test_period_consistency(self, rng):
        al, ar = self.noisy_pair(rng, 125.0, 20.0)
        info = estimate_pitch(al, ar, self.FS, f_min=80.0, f_max=160.0)
        assert info.is_voiced
        assert info.period_samples == round(2 * np.pi / info.omega0)
        assert 0 <= info.voicing <= 0.95

    def test_phase_rotation_invariance(self, rng):
        al, ar = self.noisy_pair(rng, 110.0, 15.0)
        base = estimate_pitch(al, ar, self.FS, f_min=90.0, f_max=130.0)
        rot = np.exp(1j * 1.234)
        spun = estimate_pitch(al * rot, ar * rot, self.FS, f_min=90.0, f_max=130.0)
        assert abs(base.omega0 - spun.omega0) < 1e-12
        assert base.harmonic_order == spun.harmonic_order

    def test_channel_symmetry(self, rng):
        al, ar = self.noisy_pair(rng, 95.0, 10.0)
        a = estimate_pitch(al, ar, self.FS, f_min=80.0, f_max=120.0)
        b = estimate_pitch(ar, al, self.FS, f_min=80.0, f_max=120.0)
        assert a.omega0 == b.omega0
        assert a.harmonic_order == b.harmonic_order

    def test_single_channel_mode(self, rng):
        al, _ = self.noisy_pair(rng, 100.0, 20.0)
        info = estimate_pitch(al, None, self.FS, f_min=80.0, f_max=130.0)
        f0 = info.omega0 * self.FS / (2 * np.pi)
        assert abs(f0 - 100.0) <= 1.0


# Reference search ----------------------------------------------------------
#
# The grid search as it was before the FFT and order recursion: one
# Householder QR of the stacked harmonic matrix per candidate.  Kept as the
# oracle the fast search must match pick for pick.


def _reference_candidate_costs(y_halves, h):
    channels = len(y_halves)
    m = len(y_halves[0])
    y = np.concatenate(y_halves).astype(complex)
    q_mat, _ = np.linalg.qr(h)
    c = q_mat.conj().T @ y
    joint = float(np.vdot(y, y).real) - np.cumsum(np.abs(c) ** 2)
    if channels == 1:
        return np.maximum(joint, 0.0)[:, None]
    q_top = q_mat[:m]
    y_top = y[:m]
    t = q_top.conj().T @ y_top
    g = q_top.conj().T @ q_top
    a = np.real(np.conj(c)[:, None] * g * c[None, :])
    quad = np.cumsum(np.cumsum(a, axis=0), axis=1).diagonal()
    lin = np.cumsum(np.real(np.conj(c) * t))
    top = float(np.vdot(y_top, y_top).real) - 2.0 * lin + quad
    top = np.maximum(top, 0.0)
    bottom = np.maximum(joint - top, 0.0)
    return np.stack((top, bottom), axis=1)


def reference_estimate_pitch(zl, zr, sample_rate, f_min=80.0, f_max=400.0,
                             grid_step_hz=0.5, voicing_threshold=0.3, max_order=None,
                             edge_trim=10):
    f0_grid = np.arange(f_min, f_max + 0.5 * grid_step_hz, grid_step_hz)
    if edge_trim and len(zl) > 4 * edge_trim:
        zl = zl[edge_trim:-edge_trim]
        if zr is not None:
            zr = zr[edge_trim:-edge_trim]
    m = len(zl)
    channels = 1 if zr is None else 2
    n_obs = channels * m
    y_halves = [np.asarray(zl, complex)] + ([] if zr is None else [np.asarray(zr, complex)])
    best = None
    for f0 in f0_grid:
        omega0 = 2.0 * np.pi * f0 / sample_rate
        l_max = int(np.floor(2.0 * np.pi / omega0))
        if l_max * omega0 >= 2.0 * np.pi - 1e-9:
            l_max -= 1
        if max_order is not None:
            l_max = min(l_max, max_order)
        l_max = min(l_max, m)
        if l_max < 1:
            continue
        v = np.exp(1j * omega0 * np.outer(np.arange(m), np.arange(1, l_max + 1)))
        h = v if zr is None else np.vstack((v, v))
        energies = _reference_candidate_costs(y_halves, h)
        sigma2 = np.maximum(energies / m, 1e-300)
        log_terms = m * np.log(sigma2).sum(axis=1)
        order = map_order_select(log_terms, n_obs)
        cost = float(np.log(sigma2[order - 1]).sum())
        if best is None or cost < best[0] - 1e-12:
            best = (cost, omega0, order)
    _, omega0, order = best
    amps = ml_amplitudes(y_halves[0], zr, omega0, order)
    voicing = sum(degree_of_voicing(z, omega0, order, amps) for z in y_halves) / channels
    if voicing < voicing_threshold:
        return UNVOICED
    return PitchInfo(float(omega0), int(round(2.0 * np.pi / omega0)), float(voicing), order)


def assert_same_pick(fast, slow):
    """The search picks the oracle's f0 and order; its voicing, read off its own
    running sums rather than a refit, agrees to round-off."""
    assert (fast.omega0, fast.period_samples, fast.harmonic_order) == (
        slow.omega0, slow.period_samples, slow.harmonic_order)
    assert abs(fast.voicing - slow.voicing) <= 1e-13


def corpus_frame(seed, m=200, fs=8000):
    """Harmonic frame pair with a random f0, harmonic count, SNR, ITD and ILD."""
    rng = np.random.default_rng(seed)
    n = np.arange(m)
    w0 = 2 * np.pi * rng.uniform(80.0, 400.0) / fs
    itd = rng.uniform(-4.0, 4.0)
    s_l = np.zeros(m)
    s_r = np.zeros(m)
    for l in range(1, int(rng.integers(1, 7)) + 1):
        if l * w0 >= np.pi:
            break
        amp, phase = rng.uniform(0.2, 1.0), rng.uniform(0, 2 * np.pi)
        s_l += amp * np.cos(l * w0 * n + phase)
        s_r += amp * np.cos(l * w0 * (n - itd) + phase)
    s_r *= 10 ** (-rng.uniform(0.0, 6.0) / 20)
    sigma = np.sqrt(np.mean(s_l**2) / 10 ** (rng.uniform(-5.0, 20.0) / 10))
    zl = analytic_signal(s_l + sigma * rng.normal(size=m))
    zr = analytic_signal(s_r + sigma * rng.normal(size=m))
    return zl, zr


EQUIVALENCE_CASES = [
    pytest.param(
        seed, two, max_order, band,
        id=f"seed{seed}-{'two' if two else 'one'}-L{max_order}-{band[0]:g}_{band[1]:g}",
    )
    for seed, band in zip(range(8), [(80.0, 400.0), (90.5, 170.0), (150.0, 400.0)] * 3)
    for two in (True, False)
    for max_order in (None, 15)
]


# Uncentred search ----------------------------------------------------------
#
# The compiled search as it was before its time axis was centred: complex
# Gram rows t(d) = sum_n exp(j d omega n) over n < m, complex predictor
# triangles packed by rows, take / multiply / reduceat mat-vecs for M b and
# M p_left, and the left-ear form C = B^H T B of the backward vectors B and
# the left ear's Gram matrix T, in full.  Kept as the oracle of the centred
# search's residuals and fit terms, in the centred search's flat layout; the
# centred search takes C as half the joint drops, which this oracle checks.


def _triangle(order):
    """Column of each entry, and start of each row, of a row-major packed lower triangle."""
    rows = np.arange(order)
    cols = np.concatenate([np.arange(n + 1) for n in rows])
    return cols, rows * (rows + 1) // 2


def _lower_matvec(packed, x):
    """``L @ x`` over the last axis, for lower triangles L packed as rows of ``packed``."""
    cols, starts = _triangle(x.shape[-1])
    terms = np.take(x, cols, axis=-1)
    terms *= packed
    return np.add.reduceat(terms, starts, axis=-1)


def uncentred_residuals(halves, sample_rate, f_min, f_max, grid_step_hz):
    m, two = len(halves[0]), len(halves) == 2
    n_fft = check_pitch_grid(sample_rate, f_min, f_max, grid_step_hz)
    omegas = 2.0 * np.pi * np.arange(f_min, f_max + 0.5 * grid_step_hz, grid_step_hz) / sample_rate
    l_max = np.floor(np.pi / omegas).astype(int)
    l_max[l_max * omegas >= np.pi - 1e-9] -= 1
    l_max = np.minimum(l_max, m)
    usable = np.count_nonzero(l_max >= 1)
    top = l_max[:usable]
    bins = int(round(f_min / grid_step_hz)) + np.arange(usable)
    layout = np.arange(top[0]) < top[:, None]
    at_harmonics = np.repeat(bins, top) * (np.nonzero(layout)[1] + 1) % n_fft
    dirichlet = np.conj(pitch._dft_bins(np.ones(m), n_fft))  # sum_n exp(+j w n)
    spectra = np.stack([pitch._dft_bins(y, n_fft)[at_harmonics] for y in halves])
    if two:
        spectra[1] += spectra[0]  # p_left, b
    fit = np.empty_like(spectra)
    inv_eps, cross_diag = np.empty(at_harmonics.size), np.empty(at_harmonics.size)
    quad_cross = np.zeros(at_harmonics.size, complex)
    first = start = 0
    for order in np.unique(top)[::-1].tolist():
        count = np.count_nonzero(top == order)
        rows, stop = slice(first, first + count), start + count * order
        kernel = dirichlet[np.outer(bins[rows], np.arange(order)) % n_fft]  # an ear's Gram rows
        fitted, tri, eps = pitch._predictors(len(halves) * kernel)
        tri[np.arange(order) >= fitted[:, None]] = 0.0
        inv_eps[start:stop] = 1.0 / eps.ravel()
        lower = np.tril_indices(order)
        block = spectra[:, start:stop].reshape(len(spectra), -1, order)
        fit[:, start:stop] = _lower_matvec(
            tri[:, lower[0], lower[1]], block).reshape(len(spectra), -1)
        if two:
            lag = np.subtract.outer(np.arange(order), np.arange(order))
            left = kernel[:, np.abs(lag)]
            left = np.where(lag <= 0, left, np.conj(left))  # T, from its first row
            beta_h = tri / eps[..., None]
            full = beta_h @ left @ np.conj(beta_h).transpose(0, 2, 1)
            cross_diag[start:stop] = np.diagonal(full, axis1=1, axis2=2).real.ravel()
            mu = fit[-1, start:stop].reshape(-1, order)
            cross_mu = _lower_matvec(np.tril(full, -1)[:, lower[0], lower[1]], mu)
            quad_cross[start:stop] = (np.conj(mu) * cross_mu).ravel()
        first, start = first + count, stop

    def spread(flat):
        out = np.zeros(layout.shape)
        out[layout] = flat
        return out

    mu = fit[-1]
    power = np.abs(mu) ** 2
    drops = power * inv_eps
    y = np.concatenate(halves)
    joint = float(np.vdot(y, y).real) - np.cumsum(spread(drops), axis=1)
    if not two:
        return np.maximum(joint, 0.0)[None], (drops,)
    quad = power * cross_diag + 2.0 * quad_cross.real
    lin = np.conj(mu) * fit[0] * inv_eps
    left = np.maximum(float(np.vdot(halves[0], halves[0]).real)
                      + np.cumsum(spread(quad - 2.0 * lin.real), axis=1), 0.0)
    return np.stack((left, np.maximum(joint - left, 0.0))), (drops, quad)


def fitted_orders(m, fs, f_min, f_max):
    """(fits, layout) of the 0.5 Hz grid's compiled search for ``m``-sample frames:
    fits[c, L-1] is whether candidate c's Levinson recursion resolves order L."""
    search = pitch._compile_search(m, fs, f_min, f_max, 0.5, None)
    top = search.layout.sum(axis=1)
    bins = int(f_min / 0.5) + np.arange(len(top))
    fitted = np.empty(len(top), int)
    for order in np.unique(top):
        rows = top == order
        kernel = pitch._centred_dirichlet(np.outer(bins[rows], np.arange(order)), m, search.n_fft)
        fitted[rows] = pitch._predictors(kernel)[0]
    return np.arange(top[0]) < fitted[:, None], search.layout


EAR_CASES = {"one_ear": 1, "frontal": 2}


class TestExactSearch:
    """The FFT-and-recursion search picks what per-candidate QR picks."""

    FS = 8000

    @pytest.mark.parametrize("seed,two,max_order,band", EQUIVALENCE_CASES)
    def test_matches_qr_reference(self, seed, two, max_order, band):
        zl, zr = corpus_frame(seed)
        kwargs = dict(f_min=band[0], f_max=band[1], max_order=max_order,
                      voicing_threshold=0.0)
        fast = estimate_pitch(zl, zr if two else None, self.FS, **kwargs)
        slow = reference_estimate_pitch(zl, zr if two else None, self.FS, **kwargs)
        assert_same_pick(fast, slow)

    @pytest.mark.parametrize("two", [True, False])
    def test_recursion_residuals_match_qr(self, two):
        # The per-ear split moves picks only at second order (a log-product
        # of two parts of a fixed sum), so it is checked residual by residual.
        # At 16 kHz the Nyquist cap leaves each f0 the orders that span the
        # full circle at 8 kHz, 99, 59 and 20.  The 16 kHz frame is twice as
        # long, so harmonics of 80 Hz stay more than 2 pi / m apart.
        for fs, frame, f0, order in ((8000, 200, 80.0, 49), (8000, 200, 133.5, 29),
                                     (8000, 200, 390.0, 10), (16000, 400, 80.0, 99),
                                     (16000, 400, 133.5, 59), (16000, 400, 390.0, 20)):
            zl, zr = (z[10:-10] for z in corpus_frame(3, m=frame, fs=fs))
            m = len(zl)
            y = np.concatenate((zl, zr)) if two else zl
            halves = [zl, zr] if two else [zl]
            search = pitch._compile_search(m, fs, f0, f0, 0.5, None)
            w0 = 2 * np.pi * f0 / fs
            v = np.exp(1j * w0 * np.outer(np.arange(m), np.arange(1, order + 1)))
            h = np.vstack((v, v)) if two else v
            ref = _reference_candidate_costs(halves, h)
            assert search.layout.shape == (1, order)
            fast = pitch._residuals(search, halves)[0][:, 0].T
            np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-9 * np.vdot(y, y).real)

    @pytest.mark.parametrize("two", [True, False])
    def test_fit_terms_sum_to_refit_energies(self, two):
        # The voicing reads each ear's harmonic energy off running sums of
        # the search's fit terms: the joint fit energy and the left ear's
        # a^H T a.  Order by order they match a least-squares refit.
        fs, f0 = 8000, 133.5
        zl, zr = (z[10:-10] for z in corpus_frame(3))
        m = len(zl)
        halves = [zl, zr] if two else [zl]
        search = pitch._compile_search(m, fs, f0, f0, 0.5, None)
        sums = [np.cumsum(t) for t in pitch._residuals(search, halves)[1]]
        w0 = 2 * np.pi * f0 / fs
        scale = np.vdot(zl, zl).real + (np.vdot(zr, zr).real if two else 0.0)
        for order in range(1, len(sums[0]) + 1):
            amps = ml_amplitudes(zl, zr if two else None, w0, order)
            recon = _harmonic_matrix(w0, order, m) @ amps
            ears = [float(np.vdot(recon, recon).real)] * len(halves)
            got = [running[order - 1] for running in sums]
            want = [sum(ears), ears[0]] if two else ears
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("case", EAR_CASES)
    def test_centred_predictors_are_real(self, case):
        # Centring makes the Gram matrix of one ear, and of two frontal
        # ears, real, so the stored predictors are; one compile serves both.
        search = pitch._compile_search(180, self.FS, 80.0, 400.0, 0.5, None)
        assert {g.predictors.dtype for g in search.groups} == {np.dtype(np.float64)}
        halves = [z[10:-10] for z in corpus_frame(0)][: EAR_CASES[case]]
        residuals, _ = pitch._residuals(search, halves)
        assert residuals.shape == (len(halves), *search.layout.shape)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", EAR_CASES)
    def test_residuals_match_uncentred_search(self, seed, case):
        # The centred search's residuals and fit terms are the uncentred
        # ones, on the default grid, to round-off of the frame energy.
        zl, zr = (z[10:-10] for z in corpus_frame(seed))
        halves = [zl, zr][: EAR_CASES[case]]
        search = pitch._compile_search(len(zl), self.FS, 80.0, 400.0, 0.5, None)
        got, got_terms = pitch._residuals(search, halves)
        want, want_terms = uncentred_residuals(halves, self.FS, 80.0, 400.0, 0.5)
        y = np.concatenate(halves)
        atol = 1e-13 * np.vdot(y, y).real
        assert got.shape == want.shape and len(got_terms) == len(want_terms)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        for a, b in zip(got_terms, want_terms):
            np.testing.assert_allclose(a, b, rtol=0, atol=atol)

    @pytest.mark.parametrize("two", [True, False])
    def test_coarse_grid_shorter_dft_than_frame(self, two):
        # A 50 Hz step makes a 160-bin DFT, shorter than the 180-sample
        # trimmed frame; the signal sits in the samples past bin count.
        zl, zr = corpus_frame(11)
        zl[:170] = 0.0
        zr[:170] = 0.0
        kwargs = dict(f_min=100.0, f_max=400.0, grid_step_hz=50.0, voicing_threshold=0.0)
        fast = estimate_pitch(zl, zr if two else None, self.FS, **kwargs)
        slow = reference_estimate_pitch(zl, zr if two else None, self.FS, **kwargs)
        assert_same_pick(fast, slow)

    @pytest.mark.parametrize("two", [True, False])
    def test_digital_silence_unvoiced_without_warnings(self, two):
        z = np.zeros(200, complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = estimate_pitch(z, z.copy() if two else None, self.FS)
            slow = reference_estimate_pitch(z, z.copy() if two else None, self.FS)
        assert info == slow == UNVOICED

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("two,lateral", [(True, False), (True, True), (False, False)])
    def test_matches_qr_reference_at_top_of_band(self, seed, two, lateral):
        # f0 of 300-400 Hz with every harmonic up to just below 4 kHz: the
        # highest harmonic the capped search may fit is the one the frame
        # holds.  The oracle still fits orders up to 2 pi.  A lateral
        # target reaches the right ear 2.5 samples late, which the frontal
        # search does not model; it must still pick what the oracle picks.
        rng = np.random.default_rng(100 + seed)
        m = 200
        f0 = rng.uniform(300.0, 400.0)
        w0 = 2 * np.pi * f0 / self.FS
        n = np.arange(m)
        itd = 2.5 if lateral else 0.0
        s_l = np.zeros(m)
        s_r = np.zeros(m)
        for l in range(1, int(np.ceil(np.pi / w0))):
            amp, phase = rng.uniform(0.2, 1.0), rng.uniform(0, 2 * np.pi)
            s_l += amp * np.cos(l * w0 * n + phase)
            s_r += amp * np.cos(l * w0 * (n - itd) + phase)
        assert (l + 1) * w0 >= np.pi > l * w0 > 0.9 * np.pi
        sigma = np.sqrt(np.mean(s_l**2) / 10 ** (rng.uniform(0.0, 20.0) / 10))
        zl = analytic_signal(s_l + sigma * rng.normal(size=m))
        zr = analytic_signal(s_r + sigma * rng.normal(size=m)) if two else None
        kwargs = dict(f_min=300.0, f_max=400.0, voicing_threshold=0.0)
        fast = estimate_pitch(zl, zr, self.FS, **kwargs)
        slow = reference_estimate_pitch(zl, zr, self.FS, **kwargs)
        assert_same_pick(fast, slow)

    def test_no_harmonic_fitted_at_or_above_nyquist(self):
        # The compiled search of the default grid, for the trimmed frame
        # that estimate_pitch hands it.
        search = pitch._compile_search(180, self.FS, 80.0, 400.0, 0.5, None)
        # Every harmonic the search gathers, fitted or not, lies below pi.
        top = search.layout.sum(axis=1)
        assert (search.omegas * top).max() < np.pi
        assert top.max() == 49  # 50 * 80 Hz is Nyquist

    @pytest.mark.parametrize("fs,m,band", [(8000, 60, (80.0, 400.0)), (16000, 200, (60.0, 300.0))],
                             ids=["8khz_60", "16khz_200_60hz_grid"])
    @pytest.mark.parametrize("case", EAR_CASES)
    def test_unmasked_orders_pick_as_masked(self, monkeypatch, fs, m, band, case):
        # Past a candidate's fitted order its residuals repeat while the
        # penalty grows, so the order rule needs no mask there.  Oracle: the
        # same search with those orders masked out before the rule, on frames
        # where some candidates' fits stop below their stored top: 60-sample
        # frames at 8 kHz, and at 16 kHz default 200-sample ones on a 60 Hz grid.
        trimmed = m - 2 * pitch.EDGE_TRIM if m > 4 * pitch.EDGE_TRIM else m
        fits, layout = fitted_orders(trimmed, fs, *band)
        assert np.any(layout & ~fits)
        unmasked = pitch.map_order_select

        def masked(log_terms, n_obs):
            return unmasked(np.where(fits, log_terms, np.inf), n_obs)

        for seed in range(12):
            zl, zr = corpus_frame(seed, m=m, fs=fs)
            zr = zr if EAR_CASES[case] == 2 else None
            kwargs = dict(f_min=band[0], f_max=band[1], voicing_threshold=0.0)
            got = estimate_pitch(zl, zr, fs, **kwargs)
            with monkeypatch.context() as patched:
                patched.setattr(pitch, "map_order_select", masked)
                want = estimate_pitch(zl, zr, fs, **kwargs)
            assert got == want

    @pytest.mark.parametrize(
        "channels,fs,f_min,f_max,step,max_order",
        [(1, 8000, 80.0, 400.0, 0.5, None), (2, 8000, 80.0, 400.0, 0.5, None),
         (2, 8000, 80.0, 400.0, 0.5, 15), (2, 8000, 100.0, 3950.0, 50.0, None),
         (2, 16000, 80.0, 400.0, 0.5, None)],
        ids=["default_one_ear", "default_two_ears", "max_order_15", "coarse_50hz", "16khz"],
    )
    def test_candidates_are_a_grid_prefix(self, channels, fs, f_min, f_max, step, max_order):
        # The highest order only falls as f0 rises, so the search stores the
        # grid's first candidates in grid order, grouped by falling order.
        # One compile serves one ear and two.
        search = pitch._compile_search(180, fs, f_min, f_max, step, max_order)
        grid = 2.0 * np.pi * np.arange(f_min, f_max + 0.5 * step, step) / fs
        assert 1 <= len(search.omegas) <= len(grid)
        np.testing.assert_array_equal(search.omegas, grid[: len(search.omegas)])
        top = search.layout.sum(axis=1)
        assert np.all(np.diff(top) <= 0)
        assert [g.order for g in search.groups] == sorted(set(top.tolist()), reverse=True)
        halves = [z[10:-10] for z in corpus_frame(0, fs=fs)][:channels]
        residuals, _ = pitch._residuals(search, halves)
        assert residuals.shape == (channels, *search.layout.shape)

    def test_compiled_search_cache_keying(self):
        # Frame length, grid band and order cap all key the cache; an
        # interleaved run of one and two ears, which hits and evicts
        # entries, picks what a cold cache and the QR oracle pick.
        cases = [
            (m, two, f_max, max_order)
            for m in (200, 160)
            for two in (True, False)
            for f_max in (180.0, 220.0)
            for max_order in (None, 12)
        ]

        def pick(m, two, f_max, max_order):
            zl, zr = corpus_frame(6, m=m)
            return estimate_pitch(zl, zr if two else None, self.FS, f_min=100.0, f_max=f_max,
                                  max_order=max_order, voicing_threshold=0.0)

        pitch._compile_search.cache_clear()
        warm = {}
        for case in cases + cases[::-1]:
            assert warm.setdefault(case, pick(*case)) == pick(*case)
        assert pitch._compile_search.cache_info().hits >= len(cases)
        for case in cases:
            pitch._compile_search.cache_clear()
            assert pick(*case) == warm[case]
            m, two, f_max, max_order = case
            zl, zr = corpus_frame(6, m=m)
            assert_same_pick(warm[case], reference_estimate_pitch(
                zl, zr if two else None, self.FS, f_min=100.0, f_max=f_max,
                max_order=max_order, voicing_threshold=0.0))

    def test_one_and_two_ears_share_one_compile(self):
        # The ear count does not key the cache: a two-ear frame and a
        # one-ear frame of one shape compile the search once.
        zl, zr = corpus_frame(6)
        pitch._compile_search.cache_clear()
        estimate_pitch(zl, zr, self.FS)
        estimate_pitch(zl, None, self.FS)
        info = pitch._compile_search.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("fs,m", [(8000, 180), (16000, 380)])
    def test_two_ear_recursion_is_one_ear_scaled(self, fs, m):
        # Levinson on two frontal ears' Gram matrix, twice one ear's, scales
        # every step by exactly 2: the same predictor bits and fitted
        # orders, and eps doubled, so one ear's compile serves two.
        n_fft = check_pitch_grid(fs, 80.0, 400.0, 0.5)
        kernel = pitch._centred_dirichlet(np.outer(np.arange(160, 401), np.arange(20)), m, n_fft)
        fitted, tri, eps = pitch._predictors(kernel)
        fitted2, tri2, eps2 = pitch._predictors(2.0 * kernel)
        np.testing.assert_array_equal(fitted2, fitted)
        assert tri2.tobytes() == tri.tobytes()
        assert eps2.tobytes() == (2.0 * eps).tobytes()

    def test_compiled_search_size(self):
        # Dense real triangles keep the default grid at the default trimmed
        # frame within 6.5 MB; the cache hands out read-only arrays.  One
        # centring rotation per harmonic serves both ears.
        search = pitch._compile_search(180, self.FS, 80.0, 400.0, 0.5, None)
        arrays = [getattr(search, f.name) for f in dataclasses.fields(search)]
        arrays += [g.predictors for g in search.groups]
        total = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert total <= 6.5e6
        assert all(not a.flags.writeable for a in arrays if isinstance(a, np.ndarray))
        assert search.rotations.shape == (search.at_harmonics.size, 1)

    @pytest.mark.parametrize("frame_len", [20, 40, 60, 86, 92, 120])
    @pytest.mark.parametrize("two", [True, False])
    def test_short_frames_give_finite_pitch(self, rng, frame_len, two):
        # Below sample_rate / f_min samples a low f0 has more harmonics under
        # Nyquist than the frame can resolve; the search must stop short of
        # them instead of handing a singular system to ml_amplitudes.
        n = np.arange(frame_len)
        x = np.cos(2 * np.pi * 110.0 / self.FS * n) + 0.05 * rng.normal(size=frame_len)
        zl = analytic_signal(x)
        zr = analytic_signal(x + 0.05 * rng.normal(size=frame_len))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = estimate_pitch(zl, zr if two else None, self.FS, voicing_threshold=0.0)
        assert isinstance(info, PitchInfo)
        assert np.isfinite(info.omega0) and 0.0 <= info.voicing <= 0.95
        assert 1 <= info.harmonic_order <= frame_len


class TestPitchGrid:
    def test_default_grid_bins(self):
        assert check_pitch_grid(8000, 80.0, 400.0, 0.5) == 16000
        assert check_pitch_grid(16000, 62.5, 62.5, 0.25) == 64000

    @pytest.mark.parametrize(
        "f_min,f_max,step",
        [(300.0, 200.0, 0.5), (0.0, 400.0, 0.5), (80.0, np.inf, 0.5), (80.0, 400.0, 0.0),
         (80.0, 400.0, -0.5), (80.0, 400.0, 0.3), (80.25, 400.0, 0.5), (np.nan, 400.0, 0.5),
         (80.0, 4000.0, 0.5), (4200.0, 5000.0, 0.5)],
    )
    def test_rejected(self, f_min, f_max, step):
        with pytest.raises(ValueError):
            check_pitch_grid(8000, f_min, f_max, step)

    def test_dft_length_bounded(self):
        # Grid steps that divide the rate and f_min but would need more than
        # MAX_GRID_DFT_LEN bins are refused before anything is allocated.
        n = pitch.MAX_GRID_DFT_LEN
        assert check_pitch_grid(n, 1.0, 100.0, 1.0) == n
        for fs, f_min, step in ((n, 1.0, 0.5), (8000, 80.0, 1e-6), (8000, 80.0, 5e-324)):
            with pytest.raises(ValueError, match="at most"):
                check_pitch_grid(fs, f_min, 400.0, step)

    def test_top_of_band_below_nyquist_accepted(self):
        assert check_pitch_grid(8000, 80.0, 3999.5, 0.5) == 16000
        info = estimate_pitch(np.ones(200, complex), None, 8000, f_min=3900.0, f_max=3999.5,
                              voicing_threshold=0.0)
        assert info.harmonic_order == 1

    def test_estimate_pitch_rejects_off_bin_grid(self):
        with pytest.raises(ValueError):
            estimate_pitch(np.zeros(200, complex), None, 8000, grid_step_hz=0.3)


def test_map_order_select_rows_match_single_calls(rng):
    costs = rng.normal(size=(5, 9)) * 40.0
    costs[2, 6:] = np.inf  # orders past a candidate's highest one
    picks = map_order_select(costs, 360)
    assert list(picks) == [map_order_select(row, 360) for row in costs]
