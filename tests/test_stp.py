import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from binse.linpred import (
    ArModel,
    ar_envelope,
    ar_to_lsf,
    levinson_durbin,
)
from binse.signal_core import AudioBuffer, cross_spectrum, periodogram
from binse import stp
from binse.codebook import Codebook, train
from binse.pipeline import RunConfig, process
from binse.stp import (
    CompiledCodebook,
    DualChannelNoiseTracker,
    StpDiagnostics,
    compile_codebook,
    estimate_stp,
    is_divergence,
    ml_excitation_variances,
    noise_psd_to_ar,
    pair_log_likelihood,
)

from conftest import ar_signal, close_pole_model, codebook_from_models, snr_scale

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
        assert pair_log_likelihood(p, p, p, 200) == 0.0

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
        return periodogram(z)

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
        pl = rng.uniform(0.01, 1.0, 200)
        pr = rng.uniform(0.01, 1.0, 200)
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
        scaled = pz * gamma
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
        p = periodogram(x)
        cx = cross_spectrum(x, x)
        out = DualChannelNoiseTracker().update(p, p, cx)
        np.testing.assert_allclose(out, 0.01 * p, atol=1e-15)

    def test_zero_cross_mean_power(self, rng):
        pl = rng.uniform(0.1, 2.0, 64)
        pr = rng.uniform(0.1, 2.0, 64)
        out = DualChannelNoiseTracker().update(pl, pr, np.zeros(64, complex))
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
            fl = s + g * nl
            fr = s + g * nr
            psd = tracker.update(periodogram(fl), periodogram(fr), cross_spectrum(fl, fr))
            true_level = g * g
        ratio_db = 10 * np.log10(np.mean(psd) / true_level)
        assert abs(ratio_db) < 3.0


class TestNoisePsdToAr:
    def test_flat_white(self):
        m = noise_psd_to_ar(np.full(128, 2.0), 4)
        np.testing.assert_allclose(m.coefficients, 0.0, atol=1e-12)
        assert abs(m.excitation_variance - 2.0) < 1e-12

    def test_ar2_recovery(self):
        true = ArModel(np.array([1.0, -0.5]))
        psd = ar_envelope(true, 1024)
        m = noise_psd_to_ar(psd, 2)
        np.testing.assert_allclose(m.coefficients, true.coefficients, atol=1e-3)

    def test_all_zero_rejected(self):
        # Raised by levinson_durbin: an all-zero PSD has r(0) = 0.
        with pytest.raises(ValueError, match=r"r\(0\) must be positive"):
            noise_psd_to_ar(np.zeros(32), 2)

    def test_cached_table_gives_the_same_bits(self, rng):
        # Interleaved (order, K) keys: each fit equals one built from a fresh table.
        for order, k in [(14, 200), (4, 128), (14, 200), (14, 160), (4, 128)]:
            psd = rng.uniform(0.1, 2.0, k)
            phases = np.exp(2j * np.pi * np.outer(np.arange(order + 1), np.arange(k)) / k)
            expect = levinson_durbin(np.real(phases @ psd) / k)
            got = noise_psd_to_ar(psd, order)
            np.testing.assert_array_equal(got.coefficients, expect.coefficients)
            assert got.excitation_variance == expect.excitation_variance


    def test_rows_match_single_calls(self, rng):
        # An (N, K) PSD fits its rows in one recursion: each row's fit equals
        # the 1-D call bit for bit, and rows whose 1-D call raises (all
        # zeros, or a single line, which makes the autocorrelation singular)
        # come back with ok false.
        k, order = 101, 14
        psd = rng.gamma(1.0, 1.0, (6, k))
        psd[2] = 0.0
        psd[4] = 0.0
        psd[4, 7] = 3.0
        coeffs, variances, ok = noise_psd_to_ar(psd, order)
        assert list(ok) == [True, True, False, True, False, True]
        for row, fit, c, v in zip(psd, ok, coeffs, variances):
            if not fit:
                with pytest.raises((ValueError, ArithmeticError)):
                    noise_psd_to_ar(row, order)
                continue
            one = noise_psd_to_ar(row, order)
            assert one.coefficients.tobytes() == c.tobytes()
            assert one.excitation_variance == v


def _reference_mu(pl, pr, ps, pw, iters=50):
    """Scalar multiplicative-update loop for one pair; also returns the update count.

    The solver the profile solve replaced, kept as an oracle: from the same
    equal-variance start, the profile solve must never end above it.
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


def _random_model(rng, order):
    """A stable model built from random reflection coefficients."""
    a = np.zeros(0)
    for refl in rng.uniform(-0.9, 0.9, order):
        a = np.concatenate((a - refl * a[::-1], [refl]))
    return ArModel(a)


def _random_envelopes(rng, n, k, order):
    """Envelopes of n stable models built from random reflection coefficients."""
    return np.array([ar_envelope(_random_model(rng, order), k) for _ in range(n)])


def _profile_costs(pl, pr, ps, pw, lam):
    """The two-channel IS cost at each ``lam``, with the scale at its closed-form minimum."""
    shape = (1.0 - lam)[:, None] * ps + lam[:, None] * pw
    modeled = 0.5 * np.mean((pl + pr) / shape, axis=1)[:, None] * shape
    return is_divergence(pl, modeled) + is_divergence(pr, modeled)


def _basin_minimum(pl, pr, ps, pw):
    """The least cost of the descent basin of lam = 1/2: a walk down a
    4097-point grid, refined by a bounded search around where it stops.

    Within 0.05 of either boundary the grid also has 200 points a decade of
    the distance to it, down to 1e-12: a pair's profile turns in spans about
    as wide as that distance there.
    """
    edge = np.logspace(-12, np.log10(0.05), 2141)
    grid = np.union1d(np.linspace(0.0, 1.0, 4097), np.concatenate((edge, 1.0 - edge)))
    costs = _profile_costs(pl, pr, ps, pw, grid)
    i = len(grid) // 2
    while True:
        lower = [j for j in (i - 1, i + 1) if 0 <= j < len(grid) and costs[j] < costs[i]]
        if not lower:
            break
        i = min(lower, key=lambda j: costs[j])
    least, minima = costs[i], int(np.sum(np.diff(np.sign(np.diff(costs))) > 0))
    # The search runs on the distance to the nearer boundary, so it resolves
    # a minimum that lies within 1e-8 of it.
    if i > len(grid) // 2:
        i, grid, ps, pw = len(grid) - 1 - i, 1.0 - grid[::-1], pw, ps
    found = minimize_scalar(lambda lam: _profile_costs(pl, pr, ps, pw, np.array([lam]))[0],
                            bounds=(grid[max(i - 1, 0)], grid[i + 1]), method="bounded",
                            options={"xatol": 1e-15})
    return min(found.fun, least), minima


def _random_pairs(rng, k=200):
    """Speech and noise envelopes of random stable models and four frames'
    periodogram pairs: speech in three noise levels, and noise alone."""
    ps = _random_envelopes(rng, 6, k, 10)
    pw = _random_envelopes(rng, 4, k, 2)
    s = ar_signal([1.2, -0.8, 0.3, -0.1], 1e-3, 3 * k, rng).reshape(3, k)
    frames = [(periodogram(x + g * rng.normal(size=k)), periodogram(x + g * rng.normal(size=k)))
              for x, g in zip(s, (0.005, 0.03, 0.1))]
    w = ar_signal([0.6, -0.3], 1e-3, 2 * k, rng).reshape(2, k)
    return ps, pw, frames + [(periodogram(w[0]), periodogram(w[1]))]


class TestProfileSolve:
    """Each pair's cost, as a function of lam = sigma_v^2 / (sigma_d^2 + sigma_v^2)
    with the scale at its closed form, is minimized down from lam = 1/2."""

    def test_cost_is_the_minimum_of_the_start_basin(self, rng):
        ps, pw, frames = _random_pairs(rng)
        basins = 0
        for pl, pr in frames:
            sd, sv, cost = ml_excitation_variances(pl, pr, ps[:, None], pw[None])
            for i, j in np.ndindex(len(ps), len(pw)):
                least, minima = _basin_minimum(pl, pr, ps[i], pw[j])
                basins += minima > 1
                assert abs(cost[i, j] - least) <= 1e-9
                scale = sd[i, j] + sv[i, j]
                assert abs(_profile_costs(pl, pr, ps[i], pw[j], np.array([sv[i, j] / scale]))[0]
                           - cost[i, j]) <= 1e-12
        assert basins > 0  # some pairs have more than one local minimum

    @pytest.mark.parametrize("seed, frame, i, j", [(9, 2, 2, 3), (13, 3, 1, 3), (27, 0, 2, 1),
                                                   (29, 1, 4, 3)])
    def test_no_step_passes_a_narrow_basin_by_a_boundary(self, seed, frame, i, j):
        # In these pairs a basin a few thousandths wide lies next to lam = 0
        # or 1; a step not limited by the distance to where a bin's model
        # term vanishes jumps past it to the boundary.
        ps, pw, frames = _random_pairs(np.random.default_rng(seed))
        pl, pr = frames[frame]
        _, _, cost = ml_excitation_variances(pl, pr, ps[i], pw[j])
        assert abs(cost - _basin_minimum(pl, pr, ps[i], pw[j])[0]) <= 1e-9
        assert cost <= _reference_mu(pl, pr, ps[i], pw[j])[2] + 1e-12

    def test_never_above_fifty_multiplicative_updates(self, rng):
        ps, pw, frames = _random_pairs(rng)
        for pl, pr in frames:
            _, _, cost = ml_excitation_variances(pl, pr, ps[:, None], pw[None])
            for i, j in np.ndindex(len(ps), len(pw)):
                assert cost[i, j] <= _reference_mu(pl, pr, ps[i], pw[j])[2] + 1e-12

    def test_boundary_pair_gets_an_exact_zero_variance(self, rng):
        ps, pw, _ = _random_pairs(rng)
        for i, j in np.ndindex(len(ps), len(pw)):
            sd, sv, cost = ml_excitation_variances(2e-3 * ps[i], 2e-3 * ps[i], ps[i], pw[j])
            assert all(isinstance(v, float) for v in (sd, sv, cost))
            assert sv == 0.0 and abs(sd - 2e-3) <= 1e-15 and abs(cost) <= 1e-12
            sd, sv, cost = ml_excitation_variances(3e-3 * pw[j], 3e-3 * pw[j], ps[i], pw[j])
            assert sd == 0.0 and abs(sv - 3e-3) <= 1e-15 and abs(cost) <= 1e-12


class TestBatchedSolve:
    def test_pair_alone_equals_its_row_in_multi_frame_solve(self, rng):
        # Frames solved together (one frame's spectra per index of the
        # leading axis) give every pair the bits it gets alone or in a
        # smaller batch, silent frame included.
        k = 200
        half = k // 2 + 1
        bins = np.full(half, 2.0 / k)
        bins[0] = bins[-1] = 1.0 / k
        ps = _random_envelopes(rng, 6, k, 4)[:, :half]
        pw = _random_envelopes(rng, 3, k, 2)[:, :half]
        s = ar_signal([1.2, -0.8, 0.3, -0.1], 1e-3, 4 * k, rng)
        pl, pr = (np.array([periodogram(frame + g * rng.normal(size=k))[:half]
                            for frame, g in zip(s.reshape(4, k), (0.01, 0.05, 0.2, 0.05))])
                  for _ in range(2))
        pl[2] = pr[2] = 0.0  # digital silence between frames with sound
        for iters in (50, 7):
            together = ml_excitation_variances(
                pl[:, None, None], pr[:, None, None], ps[:, None], pw[None], iters=iters,
                bin_weights=bins)
            assert all(a.shape == (4, 6, 3) for a in together)
            assert not together[0][2].any() and not together[1][2].any()
            fewer = ml_excitation_variances(
                pl[1:3, None, None], pr[1:3, None, None], ps[:, None], pw[None], iters=iters,
                bin_weights=bins)
            for a, b in zip(together, fewer):
                np.testing.assert_array_equal(a[1:3], b)
            for f, i, j in np.ndindex(4, 6, 3):
                alone = ml_excitation_variances(pl[f], pr[f], ps[i], pw[j], iters=iters,
                                                bin_weights=bins)
                np.testing.assert_array_equal([a[f, i, j] for a in together], alone)


class TestRecordEstimate:
    """A record-level estimate_stp gives each frame the bits of a one-frame call."""

    def test_record_matches_one_frame_calls(self, rng, monkeypatch):
        # 80 speech entries x (4 + 1) noise entries is 400 pairs a frame, so
        # the row budget splits the frames with an adaptive row into pairs.
        # Frame 3 has no adaptive row (320 pairs), which also ends a group,
        # and frame 5 is digital silence.
        k, n_frames = 200, 7
        assert stp.PAIR_BATCH_ROWS // 400 == 2 and stp.PAIR_BATCH_ROWS // 320 == 2

        def models(count, order):
            return [_random_model(rng, order) for _ in range(count)]

        speech = compile_codebook(models(80, 4), k)
        base = compile_codebook(models(4, 2), k)
        rows = compile_codebook(models(n_frames, 2), k)
        entries = [
            base if f == 3 else CompiledCodebook(np.vstack((base.lsfs, rows.lsfs[f])),
                                                 np.vstack((base.envelopes, rows.envelopes[f])))
            for f in range(n_frames)
        ]
        s = ar_signal(SPEECH_AR.coefficients, 1e-3, n_frames * k, rng).reshape(n_frames, k)
        pl, pr = (periodogram(s + 0.01 * rng.normal(size=s.shape)) for _ in range(2))
        pl[5] = pr[5] = 0.0

        groups, lsf_rows = [], []
        solve, convert = stp.ml_excitation_variances, stp.lsf_to_ar

        def spy_solve(*args, **kwargs):
            groups.append(np.broadcast_shapes(*(np.shape(a) for a in args))[0])
            return solve(*args, **kwargs)

        def spy_convert(lsf):
            lsf_rows.append(lsf)
            return convert(lsf)

        monkeypatch.setattr(stp, "ml_excitation_variances", spy_solve)
        monkeypatch.setattr(stp, "lsf_to_ar", spy_convert)
        for noise in (entries, base):  # per-frame entries, then shared ones
            groups.clear()
            lsf_rows.clear()
            diags = []
            record = estimate_stp(pl, pr, speech, noise, k, diagnostics=diags)
            assert groups == ([2, 1, 1, 2, 1] if noise is entries else [2, 2, 2, 1])
            assert len(lsf_rows) == 2 and all(r.shape == (n_frames, o) for r, o in
                                              zip(lsf_rows, (4, 2)))
            record_lsfs = list(lsf_rows)
            assert len(record) == len(diags) == n_frames
            for f in range(n_frames):
                lsf_rows.clear()
                diag = StpDiagnostics()
                one = estimate_stp(pl[f], pr[f], speech, entries[f] if noise is entries else base,
                                   k, diagnostics=diag)
                for got, want in zip(record_lsfs, lsf_rows):
                    np.testing.assert_array_equal(got[f], want[0])
                for got, want in ((record[f].speech, one.speech), (record[f].noise, one.noise)):
                    np.testing.assert_array_equal(got.coefficients, want.coefficients)
                    assert got.excitation_variance == want.excitation_variance
                np.testing.assert_array_equal(diags[f].weights, diag.weights)
                assert vars(diags[f]).keys() == vars(diag).keys()
                for key in ("best_speech_index", "best_noise_index", "best_log_weight",
                            "underflow_fallback"):
                    assert getattr(diags[f], key) == getattr(diag, key)
            assert record[5].speech.excitation_variance == 0.0
            assert record[5].noise.excitation_variance == 0.0

    def test_empty_record(self):
        assert estimate_stp(np.empty((0, 200)), np.empty((0, 200)), [SPEECH_AR], [NOISE_AR],
                            200) == []


class TestCompiledCodebook:
    def test_codebook_rows_used_as_stored(self):
        cb = codebook_from_models([SPEECH_AR, ArModel(np.array([0.2, 0.1, 0.0, 0.0]))], "speech")
        compiled = compile_codebook(cb, 200)
        assert len(compiled) == 2 and compiled.order == 4
        np.testing.assert_array_equal(compiled.lsfs, cb.entries)
        expected = [ar_envelope(m, 200) for m in cb.ar_models()]
        np.testing.assert_array_equal(compiled.envelopes, expected)

    def test_failing_model_raises_as_alone(self):
        unstable = ArModel(np.array([0.0, 0.0, 0.0, 1.5]))
        with pytest.raises(ValueError) as info:
            compile_codebook([SPEECH_AR, unstable], 200)
        assert type(info.value) is ValueError
        # Two LSFs of the close-pole model lie about 1e-7 apart; it converts as it does alone.
        close = compile_codebook([SPEECH_AR, close_pole_model(4)], 200).lsfs[1]
        np.testing.assert_array_equal(close, ar_to_lsf([close_pole_model(4)])[0])
        assert np.all(np.diff(close) > 0.0) and np.min(np.diff(close)) < 2e-7

    def test_stability_is_checked_once_where_models_enter(self, rng, monkeypatch):
        # ar_to_lsf decides stability by interlacing; is_stable only names a failure.
        calls = []
        original = ArModel.is_stable
        monkeypatch.setattr(ArModel, "is_stable", lambda m: calls.append(m) or original(m))
        frames = np.stack([ar_signal(SPEECH_AR.coefficients, 1e-3, 200, rng) for _ in range(8)])
        speech = train(frames, size=2, order=4, seed=0)
        compile_codebook(speech, 200)
        compile_codebook([SPEECH_AR, ArModel(np.array([0.2, 0.1, 0.0, 0.0]))], 200)
        noise = codebook_from_models([NOISE_AR, ArModel(np.array([0.3, 0.0]))], "noise")
        z = np.stack([ar_signal(SPEECH_AR.coefficients, 1e-3, 650, rng) for _ in range(2)])
        process(AudioBuffer(z, 8000), speech, noise, RunConfig(model="vuv"))
        assert calls == []
        unstable = ArModel(np.array([0.0, 0.0, 0.0, 1.5]))
        with pytest.raises(ValueError, match="must be stable"):
            compile_codebook([SPEECH_AR, unstable], 200)
        assert len(calls) == 1 and calls[0] is unstable

    def test_dft_length_mismatch(self, rng):
        # The pipeline compiles both codebooks for frame_len bins, after
        # frame_params has checked that each order lies below frame_len.
        speech = codebook_from_models([SPEECH_AR], "speech")
        noise = codebook_from_models([ArModel(np.r_[0.3, np.zeros(9)])], "noise")
        z = AudioBuffer(rng.normal(size=(2, 100)), 8000)
        with pytest.raises(ValueError, match="noise codebook order 10 must be below frame_len 10"):
            process(z, speech, noise, RunConfig(frame_len=10, smoother_delay=4))

    def test_adaptive_entry_joins_noise_entries(self, rng):
        # An adaptive entry compiled on its own and stacked under the
        # compiled noise entries, as the pipeline does, is the entry
        # compiled among them.
        pz = periodogram(ar_signal(SPEECH_AR.coefficients, 1e-3, 200, rng))
        extra = ArModel(np.array([0.3, -0.1]), 2e-3)
        noise, row = compile_codebook([NOISE_AR], 200), compile_codebook([extra], 200)
        stacked = CompiledCodebook(np.vstack((noise.lsfs, row.lsfs[0])),
                                   np.vstack((noise.envelopes, row.envelopes[0])))
        together = compile_codebook([NOISE_AR, extra], 200)
        np.testing.assert_array_equal(stacked.lsfs, together.lsfs)
        np.testing.assert_array_equal(stacked.envelopes, together.envelopes)
        diag_a, diag_b = StpDiagnostics(), StpDiagnostics()
        a = estimate_stp(pz, pz, [SPEECH_AR], stacked, 200, diagnostics=diag_a)
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
            pz = periodogram(s + snr_scale(s, w, snr_db) * w)
            diag = StpDiagnostics()
            estimate_stp(pz, pz, speech, noise, 200, diagnostics=diag)

            log_w = np.empty((len(speech_cb.entries), len(noise_cb.entries)))
            for i, sm in enumerate(speech_cb.ar_models()):
                for j, nm in enumerate(noise_cb.ar_models()):
                    ps, pw = ar_envelope(sm, 200), ar_envelope(nm, 200)
                    sd, sv, _ = ml_excitation_variances(pz, pz, ps, pw)
                    modeled = max(sd, 1e-300) * ps + max(sv, 1e-300) * pw
                    log_w[i, j] = pair_log_likelihood(pz, pz, modeled, 200)
            ref = np.exp(log_w - log_w.max())
            ref /= ref.sum()
            best = np.unravel_index(np.argmax(log_w), log_w.shape)
            assert (diag.best_speech_index, diag.best_noise_index) == best
            np.testing.assert_allclose(diag.weights, ref, rtol=0.0, atol=1e-9)


class TestHalfSpectrumSolve:
    """estimate_stp solves on the K//2 + 1 distinct bins with weights (1, 2, ..., 2, 1)/K."""

    def solve_inside_estimate(self, rng, monkeypatch, k, silent):
        """Run estimate_stp on a 6x3 grid; return its solve's arguments and results.

        The solve sees the frame as a one-frame record, so its results have a
        leading frame axis of length 1.
        """
        speech = CompiledCodebook(np.tile(np.linspace(0.4, 2.6, 4), (6, 1)),
                                  _random_envelopes(rng, 6, k, 4))
        noise = CompiledCodebook(np.tile(np.linspace(0.8, 2.2, 2), (3, 1)),
                                 _random_envelopes(rng, 3, k, 2))
        if silent:
            pl = pr = np.zeros(k)
        else:
            s = ar_signal(SPEECH_AR.coefficients, 1e-3, k, rng)
            pl, pr = (periodogram(s + 0.05 * rng.normal(size=k)) for _ in range(2))
        calls = []

        def spy(*args, **kwargs):
            out = ml_excitation_variances(*args, **kwargs)
            calls.append((args, kwargs, tuple(a.copy() for a in out)))  # as returned
            return out

        monkeypatch.setattr(stp, "ml_excitation_variances", spy)
        diag = StpDiagnostics()
        estimate_stp(pl, pr, speech, noise, k, diagnostics=diag)
        (args, kwargs, solved), = calls
        assert args[0].shape[-1] == len(kwargs["bin_weights"]) == k // 2 + 1
        return speech, noise, pl, pr, args, kwargs, solved, diag

    @pytest.mark.parametrize("silent", [False, True], ids=["noisy", "silent"])
    @pytest.mark.parametrize("k", [200, 201])
    def test_matches_full_spectrum_reference(self, rng, monkeypatch, k, silent):
        speech, noise, pl, pr, args, kwargs, solved, _ = self.solve_inside_estimate(
            rng, monkeypatch, k, silent)
        # The same solve on the full spectrum differs from it by rounding only.
        for iters in (50, 2):  # 50 is what estimate_stp runs; 2 caps pairs mid-solve
            got = solved if iters == 50 else ml_excitation_variances(*args, **kwargs, iters=iters)
            assert all(g.shape == (1, len(speech), len(noise)) for g in got)
            for i, j in np.ndindex(len(speech), len(noise)):
                ref = ml_excitation_variances(pl, pr, speech.envelopes[i], noise.envelopes[j],
                                              iters=iters)
                np.testing.assert_allclose([g[0, i, j] for g in got], ref, rtol=1e-12, atol=0.0)
            if silent:
                assert not got[0].any() and not got[1].any()

    @pytest.mark.parametrize("silent", [False, True], ids=["noisy", "silent"])
    def test_log_weights_from_returned_cost(self, rng, monkeypatch, silent):
        k = 200
        speech, noise, pl, pr, _, _, (sd, sv, _), diag = self.solve_inside_estimate(
            rng, monkeypatch, k, silent)
        sd, sv = sd[0], sv[0]  # the one frame
        assert silent == (not sd.any() and not sv.any())
        modeled = (np.maximum(sd, 1e-300)[..., None] * speech.envelopes[:, None]
                   + np.maximum(sv, 1e-300)[..., None] * noise.envelopes[None])
        log_w = pair_log_likelihood(pl, pr, modeled, k)
        assert abs(diag.best_log_weight - log_w.max()) <= 1e-9
        # Weights are exp(log weight - peak) normalized, so their logs give
        # every log weight that did not underflow.
        kept = diag.weights > 0
        ours = np.log(diag.weights) - np.log(diag.weights.max()) + diag.best_log_weight
        np.testing.assert_allclose(ours[kept], log_w[kept], rtol=0.0, atol=1e-9)
        assert np.all(log_w[~kept] - log_w.max() < -700)
