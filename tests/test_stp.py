import numpy as np
import pytest

from binse.linpred import ArModel, ar_envelope, ar_to_lsf
from binse.signal_core import AudioBuffer, Frame, Spectrum, cross_spectrum, extract_frames, periodogram
from binse.codebook import Codebook
from binse.stp import (
    CompiledCodebook,
    DualChannelNoiseTracker,
    GammaPrior,
    StpDiagnostics,
    compile_codebook,
    dual_channel_noise_psd_raw,
    estimate_stp,
    fit_gamma_prior,
    is_divergence,
    ml_excitation_variances,
    noise_psd_to_ar,
    pair_likelihood,
    pair_log_likelihood,
)

from conftest import ar_signal, codebook_from_models, snr_scale

SPEECH_AR = ArModel(np.array([1.2, -0.8, 0.3, -0.1]))
NOISE_AR = ArModel(np.array([-0.5, -0.2]))


class TestIsDivergence:
    def test_identical_zero(self, rng):
        p = rng.uniform(0.1, 2.0, 64)
        assert is_divergence(p, p) == 0.0

    def test_constant_ratio(self):
        p = np.full(32, 2.0)
        q = np.ones(32)
        assert abs(is_divergence(p, q) - (2 - np.log(2) - 1)) < 1e-12

    def test_matches_direct_sum(self, rng):
        p = rng.uniform(0.01, 5.0, 100)
        q = rng.uniform(0.01, 5.0, 100)
        oracle = sum(pi / qi - np.log(pi / qi) - 1 for pi, qi in zip(p, q)) / 100
        assert abs(is_divergence(p, q) - oracle) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_divergence(np.ones(4), np.ones(5))

    def test_nonnegative(self, rng):
        for _ in range(50):
            p = rng.uniform(0.01, 3.0, 40)
            q = rng.uniform(0.01, 3.0, 40)
            assert is_divergence(p, q) >= 0


class TestMlExcitationVariances:
    def test_exact_mixture_recovery(self):
        k = 256
        ps = ar_envelope(SPEECH_AR, k)
        pw = ar_envelope(NOISE_AR, k)
        true_sd = true_sv = 1e-3
        obs = true_sd * ps + true_sv * pw
        sd, sv, _ = ml_excitation_variances(obs, obs, ps, pw, iters=200)
        assert abs(sd - true_sd) / true_sd < 0.01
        assert abs(sv - true_sv) / true_sv < 0.01
        # Oracle: 2-D grid search around the returned point finds no lower cost.
        def cost(a, b):
            m = a * ps + b * pw
            return 2 * is_divergence(obs, m)
        base = cost(sd, sv)
        for fa in (0.9, 1.1):
            for fb in (0.9, 1.1):
                assert cost(sd * fa, sv * fb) >= base - 1e-9

    def test_zero_spectra(self):
        k = 64
        ps = ar_envelope(SPEECH_AR, k)
        pw = ar_envelope(NOISE_AR, k)
        sd, sv, _ = ml_excitation_variances(
            np.zeros(k), np.zeros(k), ps, pw, init=(1.0, 1.0), iters=300
        )
        assert sd < 1e-6 and sv < 1e-6

    def test_identical_envelopes_sum_identified(self, rng):
        k = 128
        env = ar_envelope(SPEECH_AR, k)
        obs = 2e-3 * env
        sd, sv, final = ml_excitation_variances(obs, obs, env, env, iters=300)
        assert abs((sd + sv) - 2e-3) / 2e-3 < 0.01
        # 1-D oracle on the total variance: minimum of the cost is at 2e-3.
        grid = np.linspace(1e-3, 4e-3, 601)
        costs = [2 * is_divergence(obs, g * env) for g in grid]
        assert abs(grid[int(np.argmin(costs))] - 2e-3) < 1e-5
        assert final <= min(costs) + 1e-9

    def test_bad_envelope(self):
        with pytest.raises(ValueError):
            ml_excitation_variances(np.ones(4), np.ones(4), np.zeros(4), np.ones(4))

    def test_cost_non_increasing_random(self, rng):
        k = 64
        for _ in range(100):
            ps = rng.uniform(0.05, 5.0, k)
            pw = rng.uniform(0.05, 5.0, k)
            pl = rng.uniform(0.0, 2.0, k)
            pr = rng.uniform(0.0, 2.0, k)
            sd, sv = rng.uniform(0.01, 2.0, 2)
            prev = is_divergence(pl, sd * ps + sv * pw) + is_divergence(pr, sd * ps + sv * pw)
            for _ in range(20):
                sd2, sv2, cur = ml_excitation_variances(
                    pl, pr, ps, pw, init=(sd, sv), iters=1
                )
                assert cur <= prev + 1e-10
                sd, sv, prev = max(sd2, 1e-300), max(sv2, 1e-300), cur


class TestPairLikelihood:
    def test_perfect_match_unity(self, rng):
        p = rng.uniform(0.1, 2.0, 64)
        assert pair_likelihood(p, p, p, 200) == 1.0

    def test_log_linearity(self, rng):
        p = rng.uniform(0.1, 2.0, 64)
        q = rng.uniform(0.1, 2.0, 64)
        one = pair_log_likelihood(p, p, q, 200)
        both = pair_log_likelihood(p, p, q, 400)
        assert abs(both - 2 * one) < 1e-9

    def test_toy_codebook_weights_match_oracle(self, rng):
        k = 64
        models = [
            ArModel(np.array([0.5])),
            ArModel(np.array([-0.5])),
            ArModel(np.array([0.9])),
            ArModel(np.array([0.0])),
        ]
        envs = [ar_envelope(m, k) for m in models]
        obs = 1.3 * envs[0] + 0.01 * rng.uniform(0.5, 1.5, k)
        logs = np.array([pair_log_likelihood(obs, obs, 1.3 * e, 200) for e in envs])
        ours = np.exp(logs - logs.max())
        ours /= ours.sum()
        # Extended-precision oracle.
        from decimal import Decimal, getcontext

        getcontext().prec = 60
        raw = [Decimal(float(v)).exp() for v in logs]
        total = sum(raw)
        oracle = np.array([float(r / total) for r in raw])
        np.testing.assert_allclose(ours, oracle, atol=1e-9)


class TestEstimateStp:
    def make_frame_spectra(self, rng, snr_db=20.0, n=200):
        s = ar_signal(SPEECH_AR.coefficients, 1e-3, n, rng)
        w = ar_signal(NOISE_AR.coefficients, 1e-3, n, rng)
        w = w * snr_scale(s, w, snr_db)
        z = s + w
        return periodogram(Frame(z, 0))

    def test_degenerate_1x1(self, rng):
        pz = self.make_frame_spectra(rng)
        est = estimate_stp(pz, pz, [SPEECH_AR], [NOISE_AR], 200)
        sd, sv, _ = ml_excitation_variances(
            pz, pz, ar_envelope(SPEECH_AR, 200), ar_envelope(NOISE_AR, 200)
        )
        assert abs(est.speech.excitation_variance - sd) < 1e-12
        assert abs(est.noise.excitation_variance - sv) < 1e-12
        np.testing.assert_allclose(est.speech.coefficients, SPEECH_AR.coefficients, atol=1e-8)

    def test_true_pair_dominates(self, rng):
        speech_entries = [
            SPEECH_AR,
            ArModel(np.array([-1.2, -0.8, -0.3, -0.1])),
            ArModel(np.array([0.0, 0.5, 0.0, 0.0])),
        ]
        noise_entries = [NOISE_AR, ArModel(np.array([0.7, -0.1]))]
        hits = 0
        for _ in range(20):
            pz = self.make_frame_spectra(rng, snr_db=20.0)
            diag = StpDiagnostics()
            estimate_stp(pz, pz, speech_entries, noise_entries, 200, diagnostics=diag)
            # At 20 dB the noise shape is barely observable, so only the
            # speech entry choice is checked here.
            if diag.best_speech_index == 0:
                hits += 1
        assert hits >= 17

    def test_channel_symmetry(self, rng):
        pl = Spectrum(rng.uniform(0.01, 1.0, 200))
        pr = Spectrum(rng.uniform(0.01, 1.0, 200))
        entries_s = [SPEECH_AR, ArModel(np.array([0.2, 0.1, 0.0, 0.0]))]
        entries_n = [NOISE_AR]
        a = estimate_stp(pl, pr, entries_s, entries_n, 200)
        b = estimate_stp(pr, pl, entries_s, entries_n, 200)
        np.testing.assert_allclose(a.speech.coefficients, b.speech.coefficients, atol=1e-12)
        assert abs(a.speech.excitation_variance - b.speech.excitation_variance) < 1e-12

    def test_scale_covariance(self, rng):
        pz = self.make_frame_spectra(rng)
        entries_s = [SPEECH_AR, ArModel(np.array([0.2, 0.1, 0.0, 0.0]))]
        entries_n = [NOISE_AR]
        a = estimate_stp(pz, pz, entries_s, entries_n, 200)
        gamma = 3.7
        scaled = Spectrum(pz.bins * gamma)
        b = estimate_stp(scaled, scaled, entries_s, entries_n, 200)
        assert abs(b.speech.excitation_variance / a.speech.excitation_variance - gamma) < 0.01
        assert abs(b.noise.excitation_variance / a.noise.excitation_variance - gamma) < 0.01

    def test_estimates_stable(self, rng):
        pz = self.make_frame_spectra(rng, snr_db=0.0)
        est = estimate_stp(
            pz, pz,
            [SPEECH_AR, ArModel(np.array([0.3, -0.4, 0.1, 0.0]))],
            [NOISE_AR],
            200,
        )
        assert est.speech.is_stable() and est.noise.is_stable()


class TestDualChannelNoisePsd:
    def test_coherent_channels_floored(self, rng):
        x = rng.normal(size=256)
        f = Frame(x, 0)
        p = periodogram(f)
        cx = cross_spectrum(f, f)
        out = dual_channel_noise_psd_raw(p, p, cx)
        np.testing.assert_allclose(out, 0.01 * p.bins, atol=1e-15)

    def test_zero_cross_mean_power(self, rng):
        pl = rng.uniform(0.1, 2.0, 64)
        pr = rng.uniform(0.1, 2.0, 64)
        out = dual_channel_noise_psd_raw(pl, pr, np.zeros(64, complex))
        np.testing.assert_allclose(out, 0.5 * (pl + pr), atol=1e-15)

    def test_mixture_recovery_within_3db(self, rng):
        m = 256
        tracker = DualChannelNoiseTracker()
        noise_var = None
        psd = None
        for _ in range(100):
            s = ar_signal(SPEECH_AR.coefficients, 1.0, m, rng)
            nl = rng.normal(size=m)
            nr = rng.normal(size=m)
            if noise_var is None:
                noise_var = 1.0
            g = snr_scale(s, nl, 0.0)
            fl = Frame(s + g * nl, 0)
            fr = Frame(s + g * nr, 0)
            psd = tracker.update(periodogram(fl), periodogram(fr), cross_spectrum(fl, fr))
            true_level = g * g
        ratio_db = 10 * np.log10(np.mean(psd.bins) / true_level)
        assert abs(ratio_db) < 3.0

    def test_smoothing_bounds(self):
        with pytest.raises(ValueError):
            DualChannelNoiseTracker(smoothing=1.0)


class TestNoisePsdToAr:
    def test_flat_white(self):
        m = noise_psd_to_ar(Spectrum(np.full(128, 2.0)), 4)
        np.testing.assert_allclose(m.coefficients, 0.0, atol=1e-12)
        assert abs(m.excitation_variance - 2.0) < 1e-12

    def test_ar2_recovery(self):
        true = ArModel(np.array([1.0, -0.5]))
        psd = Spectrum(ar_envelope(true, 1024))
        m = noise_psd_to_ar(psd, 2)
        np.testing.assert_allclose(m.coefficients, true.coefficients, atol=1e-3)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            noise_psd_to_ar(Spectrum(np.zeros(32)), 2)


class TestGammaPrior:
    def test_sampling_recovery(self):
        rng = np.random.default_rng(777)
        samples = rng.gamma(shape=2.0, scale=0.5, size=100_000)
        prior = fit_gamma_prior(samples)
        assert abs(prior.shape - 2.0) / 2.0 < 0.03
        assert abs(prior.scale - 0.5) / 0.5 < 0.03
        assert abs(prior.shape * prior.scale - samples.mean()) < 1e-6

    def test_constant_samples_warn(self):
        with pytest.warns(RuntimeWarning):
            fit_gamma_prior(np.full(100, 0.4))

    def test_too_few(self):
        with pytest.raises(ValueError):
            fit_gamma_prior([1.0, 3.0])

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            fit_gamma_prior(np.concatenate((np.ones(20), [-1.0])))

    def test_log_pdf_matches_scipy(self):
        from scipy.stats import gamma as sp_gamma

        prior = GammaPrior(shape=2.0, scale=0.5)
        for x in (0.1, 0.5, 2.0):
            assert abs(prior.log_pdf(x) - sp_gamma.logpdf(x, a=2.0, scale=0.5)) < 1e-12


def _reference_mu(pl, pr, ps, pw, iters=50):
    """Scalar multiplicative-update loop for one pair; also returns the update count.

    The per-pair loop the batched ``ml_excitation_variances`` replaced.
    """
    total = pl + pr
    sd = sv = max(float(total.mean()) / 2.0 / 2.0, 1e-12)

    def cost(a, b):
        return is_divergence(pl, a * ps + b * pw) + is_divergence(pr, a * ps + b * pw)

    prev = cost(sd, sv)
    for it in range(1, iters + 1):
        inv = 1.0 / (sd * ps + sv * pw)
        weighted = inv * inv * total
        sd = sd * float(ps @ weighted) / (2.0 * float(ps @ inv))
        sv = sv * float(pw @ weighted) / (2.0 * float(pw @ inv))
        if sd <= 0 and sv <= 0:
            return sd, sv, prev, it
        sd, sv = max(sd, 0.0), max(sv, 0.0)
        cur = cost(max(sd, 1e-300), max(sv, 1e-300))
        if abs(prev - cur) < 1e-6 * max(abs(prev), 1e-30):
            return sd, sv, cur, it
        prev = cur
    return sd, sv, prev, iters


def _random_envelopes(rng, n, k, order):
    """Envelopes of n stable models built from random reflection coefficients."""
    envelopes = []
    for _ in range(n):
        a = np.zeros(0)
        for refl in rng.uniform(-0.9, 0.9, order):
            a = np.concatenate((a - refl * a[::-1], [refl]))
        envelopes.append(ar_envelope(ArModel(a), k))
    return np.array(envelopes)


class TestBatchedMu:
    def test_rows_match_scalar_reference(self, rng):
        k = 200
        ps = _random_envelopes(rng, 8, k, 4)
        pw = _random_envelopes(rng, 5, k, 2)
        pairs_s = np.repeat(ps, len(pw), axis=0)
        pairs_w = np.tile(pw, (len(ps), 1))
        s = ar_signal([1.2, -0.8, 0.3, -0.1], 1e-3, k, rng)
        spectra = [
            (periodogram(Frame(s + 0.05 * rng.normal(size=k), 0)).bins,
             periodogram(Frame(s + 0.05 * rng.normal(size=k), 0)).bins),
            (np.zeros(k), np.zeros(k)),  # digital silence
        ]
        for iters in (50, 7):  # 7 puts the update cap inside the batch
            for pl, pr in spectra:
                sd, sv, cost = ml_excitation_variances(pl, pr, pairs_s, pairs_w, iters=iters)
                assert sd.shape == sv.shape == cost.shape == (len(pairs_s),)
                stops = set()
                for row in range(len(pairs_s)):
                    ref = _reference_mu(pl, pr, pairs_s[row], pairs_w[row], iters)
                    stops.add(ref[3])
                    np.testing.assert_allclose(
                        [sd[row], sv[row], cost[row]], ref[:3], rtol=1e-12, atol=0.0
                    )
                    single = ml_excitation_variances(
                        pl, pr, pairs_s[row], pairs_w[row], iters=iters
                    )
                    assert all(isinstance(v, float) for v in single)
                    np.testing.assert_allclose(single, ref[:3], rtol=1e-12, atol=0.0)
                if pl.any() and iters == 50:
                    assert len(stops) > 3  # pairs converge on different updates
                if not pl.any():
                    assert stops == {1} and not sd.any() and not sv.any()


class TestCompiledCodebook:
    def test_codebook_rows_used_as_stored(self):
        cb = codebook_from_models([SPEECH_AR, ArModel(np.array([0.2, 0.1, 0.0, 0.0]))], "speech")
        compiled = compile_codebook(cb, 200)
        assert len(compiled) == 2 and compiled.order == 4
        np.testing.assert_array_equal(compiled.lsfs, cb.entries)
        expected = [ar_envelope(m, 200) for m in cb.ar_models()]
        np.testing.assert_array_equal(compiled.envelopes, expected)

    def test_dft_length_mismatch(self):
        pz = Spectrum(np.ones(100))
        with pytest.raises(ValueError):
            estimate_stp(pz, pz, compile_codebook([SPEECH_AR], 200), [NOISE_AR], 100)

    def test_adaptive_entry_joins_noise_entries(self, rng):
        pz = periodogram(Frame(ar_signal(SPEECH_AR.coefficients, 1e-3, 200, rng), 0))
        extra = ArModel(np.array([0.3, -0.1]), 2e-3)
        diag_a, diag_b = StpDiagnostics(), StpDiagnostics()
        a = estimate_stp(pz, pz, [SPEECH_AR], [NOISE_AR], 200, diagnostics=diag_a,
                         adaptive_noise=extra)
        b = estimate_stp(pz, pz, [SPEECH_AR], [NOISE_AR, extra], 200, diagnostics=diag_b)
        for ma, mb in ((a.speech, b.speech), (a.noise, b.noise)):
            np.testing.assert_array_equal(ma.coefficients, mb.coefficients)
            assert ma.excitation_variance == mb.excitation_variance
        np.testing.assert_array_equal(diag_a.weights, diag_b.weights)

    def test_estimate_matches_per_pair_reference(self, rng):
        speech_models = [
            SPEECH_AR,
            ArModel(np.array([-1.2, -0.8, -0.3, -0.1])),
            ArModel(np.array([0.5, 0.2, 0.0, 0.0])),
            ArModel(np.array([0.0, 0.5, 0.0, 0.0])),
        ]
        noise_models = [NOISE_AR, ArModel(np.array([0.7, -0.1])), ArModel(np.zeros(2))]
        speech_cb = codebook_from_models(speech_models, "speech")
        noise_cb = codebook_from_models(noise_models, "noise")
        speech, noise = compile_codebook(speech_cb, 200), compile_codebook(noise_cb, 200)
        assert isinstance(speech, CompiledCodebook)
        for snr_db in (20.0, 5.0, 0.0):
            s = ar_signal(SPEECH_AR.coefficients, 1e-3, 200, rng)
            w = ar_signal(NOISE_AR.coefficients, 1e-3, 200, rng)
            pz = periodogram(Frame(s + snr_scale(s, w, snr_db) * w, 0))
            diag = StpDiagnostics()
            estimate_stp(pz, pz, speech, noise, 200, diagnostics=diag)

            log_w = np.empty((len(speech_cb.entries), len(noise_cb.entries)))
            for i, sm in enumerate(speech_cb.ar_models()):
                for j, nm in enumerate(noise_cb.ar_models()):
                    ps, pw = ar_envelope(sm, 200), ar_envelope(nm, 200)
                    sd, sv, _, _ = _reference_mu(pz.bins, pz.bins, ps, pw)
                    modeled = max(sd, 1e-300) * ps + max(sv, 1e-300) * pw
                    log_w[i, j] = pair_log_likelihood(pz, pz, modeled, 200)
            ref = np.exp(log_w - log_w.max())
            ref /= ref.sum()
            best = np.unravel_index(np.argmax(log_w), log_w.shape)
            assert (diag.best_speech_index, diag.best_noise_index) == best
            np.testing.assert_allclose(diag.weights, ref, rtol=0.0, atol=1e-9)
