"""End-to-end acceptance checks.

Each test prints a single pass/fail line on the real stdout so the verdicts
are visible regardless of capture settings.
"""

import sys
import time

import numpy as np
import pytest
from scipy.signal import lfilter

from binse.kalman import build_uv_model, build_vuv_model, flks_step, initial_state
from binse.linpred import ArModel, ar_envelope
from binse.metrics import interaural_errors, segmental_snr
from binse.pipeline import RunConfig, process
from binse.pitch import UNVOICED, estimate_pitch
from binse.signal_core import AudioBuffer, analytic_signal, frame_rows, periodogram
from binse.stp import (
    StpDiagnostics,
    estimate_stp,
    is_divergence,
    ml_excitation_variances,
    pair_log_likelihood,
)
from binse import codebook

from conftest import ar_signal, channels, codebook_from_models, snr_scale, stereo


def report(criterion: int, description: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {criterion}: {description}", file=sys.__stdout__)
    assert ok, f"criterion {criterion}: {description}"


def ar_from_poles(poles):
    poly = np.array([1.0])
    for p in poles:
        poly = np.convolve(poly, [1.0, -p])
    return ArModel(-np.real(poly)[1:])


# Shared synthetic material -------------------------------------------------

SPEECH_TRUE = ArModel(np.array([1.2, -0.8, 0.3, -0.1]))
SPEECH_ALT = [
    ArModel(np.array([-1.2, -0.8, -0.3, -0.1])),
    ArModel(np.array([0.5, 0.2, 0.0, 0.0])),
]
BABBLE = ArModel(np.array([0.6, -0.3]))
NOISE_CB_MODELS = [
    ArModel(np.array([0.0, 0.0])),
    ArModel(np.array([0.6, -0.3])),
    ArModel(np.array([-0.4, -0.2])),
]


def stereo_scene(seed, snr_db, n=4000, voiced=False):
    rng = np.random.default_rng(seed)
    if voiced:
        e = np.zeros(n + 500)
        e[::80] = 1.0  # 100 Hz pulse train at 8 kHz
        e = 0.95 * e + 0.05 * rng.normal(size=n + 500)
        s = lfilter([1.0], SPEECH_TRUE.inverse_filter(), e)[500:]
        s *= np.sqrt(1e-3 / np.var(s))
    else:
        s = ar_signal(SPEECH_TRUE.coefficients, 1e-3, n, rng)
    nl = ar_signal(BABBLE.coefficients, 1e-3, n, rng)
    nr = ar_signal(BABBLE.coefficients, 1e-3, n, rng)
    g = snr_scale(s, nl, snr_db)
    return s, AudioBuffer(s + g * nl, 8000), AudioBuffer(s + g * nr, 8000)


def harmonic_trial(seed, snr_db, m=200, fs=8000, f0=100.0):
    rng = np.random.default_rng(seed)
    n = np.arange(m)
    w0 = 2 * np.pi * f0 / fs
    s = sum(np.cos(w0 * l * n + rng.uniform(0, 2 * np.pi)) for l in (1, 2, 3))
    sigma = np.sqrt(np.mean(s**2) / 10 ** (snr_db / 10))
    zl = analytic_signal(s + sigma * rng.normal(size=m))
    zr = analytic_signal(s + sigma * rng.normal(size=m))
    return zl, zr


# Criteria ------------------------------------------------------------------


def test_criterion_1_mu_monotone():
    rng = np.random.default_rng(101)
    k = 64
    worst = -np.inf
    for _ in range(1000):
        ps = rng.uniform(0.05, 5.0, k)
        pw = rng.uniform(0.05, 5.0, k)
        pl = rng.uniform(0.0, 2.0, k)
        pr = rng.uniform(0.0, 2.0, k)
        sd, sv = rng.uniform(0.01, 2.0, 2)
        prev = is_divergence(pl, sd * ps + sv * pw) + is_divergence(
            pr, sd * ps + sv * pw
        )
        for _ in range(10):
            sd_n, sv_n, cur = ml_excitation_variances(
                pl, pr, ps, pw, init=(sd, sv), iters=1
            )
            worst = max(worst, cur - prev)
            sd, sv, prev = max(sd_n, 1e-300), max(sv_n, 1e-300), cur
    report(1, f"MU cost non-increasing on 1000 instances (worst step {worst:.3g})",
           worst <= 1e-10)


def test_criterion_2_variance_recovery():
    k = 200
    ps = ar_envelope(SPEECH_TRUE, k)
    pw = ar_envelope(BABBLE, k)
    obs = 1e-3 * ps + 1e-3 * pw
    t0 = time.perf_counter()
    n_timing = 20
    for _ in range(n_timing):
        sd, sv, _ = ml_excitation_variances(obs, obs, ps, pw, iters=200)
    per_pair_ms = (time.perf_counter() - t0) / n_timing * 1e3
    err_d = abs(sd - 1e-3) / 1e-3
    err_v = abs(sv - 1e-3) / 1e-3
    report(
        2,
        f"variance recovery errors ({err_d:.3%}, {err_v:.3%}) in <=200 iters, "
        f"{per_pair_ms:.2f} ms/pair",
        err_d < 0.01 and err_v < 0.01 and per_pair_ms < 50.0,
    )


def test_criterion_3_likelihood_surface():
    m = 200
    ps = ar_envelope(SPEECH_TRUE, m)
    pw = ar_envelope(BABBLE, m)
    true = 1e-3
    pz = true * ps + true * pw
    grid = np.logspace(-5, -1, 41)  # one cell = factor 10^0.1
    surface = np.array(
        [
            [pair_log_likelihood(pz, pz, sd * ps + sv * pw, m) for sv in grid]
            for sd in grid
        ]
    )
    bi, bj = np.unravel_index(np.argmax(surface), surface.shape)
    cell = 10 ** (4.0 / 40.0)
    within = (
        max(grid[bi] / true, true / grid[bi]) <= cell * 1.001
        and max(grid[bj] / true, true / grid[bj]) <= cell * 1.001
    )
    peak = pair_log_likelihood(pz, pz, true * ps + true * pw, m)
    decay_d = np.exp(pair_log_likelihood(pz, pz, 10 * true * ps + true * pw, m) - peak)
    decay_v = np.exp(pair_log_likelihood(pz, pz, true * ps + 10 * true * pw, m) - peak)
    report(
        3,
        f"surface max within one cell of truth; 10x decay ({decay_d:.2e}, {decay_v:.2e})",
        within and decay_d < 1e-3 and decay_v < 1e-3,
    )


def test_criterion_4_posterior_concentration():
    r = 0.96
    speech_true = ar_from_poles(
        [r * np.exp(1j * 0.4), r * np.exp(-1j * 0.4),
         r * np.exp(1j * 1.5), r * np.exp(-1j * 1.5)]
    )
    speech_entries = [speech_true] + SPEECH_ALT
    # The true noise occupies the speech envelope's high-frequency valley,
    # so its shape stays observable even 20 dB down.
    noise_entries = [ArModel(np.array([-0.95])), ArModel(np.array([0.95]))]
    rng = np.random.default_rng(2024)
    weights = []
    for _ in range(100):
        s = ar_signal(speech_true.coefficients, 1e-3, 200, rng)
        nl = ar_signal(noise_entries[0].coefficients, 1e-3, 200, rng)
        nr = ar_signal(noise_entries[0].coefficients, 1e-3, 200, rng)
        g = snr_scale(s, nl, 20.0)
        pl = periodogram(s + g * nl)
        pr = periodogram(s + g * nr)
        diag = StpDiagnostics()
        estimate_stp(pl, pr, speech_entries, noise_entries, 200, diagnostics=diag)
        weights.append(diag.weights[0, 0])
    mean_w = float(np.mean(weights))
    report(4, f"mean posterior weight on true pair {mean_w:.4f} at 20 dB", mean_w > 0.9)


def test_criterion_5_pitch_accuracy():
    hits = 0
    for seed in range(100):
        zl, zr = harmonic_trial(seed, 10.0)
        info = estimate_pitch(zl, zr, 8000, max_order=15)
        f0 = info.omega0 * 8000 / (2 * np.pi) if info.is_voiced else 0.0
        if abs(f0 - 100.0) <= 0.5 + 1e-9:
            hits += 1
    gross_two = gross_one = 0
    for seed in range(100):
        zl, zr = harmonic_trial(seed, 3.0)
        i2 = estimate_pitch(zl, zr, 8000, max_order=15)
        i1 = estimate_pitch(zl, None, 8000, max_order=15)
        f2 = i2.omega0 * 8000 / (2 * np.pi) if i2.is_voiced else 0.0
        f1 = i1.omega0 * 8000 / (2 * np.pi) if i1.is_voiced else 0.0
        gross_two += abs(f2 - 100.0) > 5.0
        gross_one += abs(f1 - 100.0) > 5.0
    report(
        5,
        f"pitch within 0.5 Hz in {hits}/100 at 10 dB; gross errors "
        f"two-ch {gross_two} <= single {gross_one} at 3 dB",
        hits >= 95 and gross_two <= gross_one,
    )


def test_criterion_6_flks_optimality_gap():
    rng = np.random.default_rng(606)
    n = 8000
    speech = ArModel(np.array([1.8, -0.9]), 1e-3)
    s = ar_signal(speech.coefficients, 1e-3, n, rng)
    white = rng.normal(size=n)
    g = snr_scale(s, white, 5.0)
    z = s + g * white

    model = build_uv_model(speech, ArModel(np.array([0.0]), g * g), 25)
    state = initial_state(model, float(np.var(z)))
    out = np.zeros(n)
    write = 0
    t0 = time.perf_counter()
    for x in z:
        state, emitted = flks_step(state, model, float(x))
        if emitted is not None:
            out[write] = emitted
            write += 1
    while write < n:
        state, emitted = flks_step(state, model, 0.0)
        if emitted is not None:
            out[write] = emitted
            write += 1
    elapsed = time.perf_counter() - t0

    def snr(est):
        return 10 * np.log10(np.sum(s**2) / np.sum((s - est) ** 2))

    a_fft = np.fft.fft(speech.inverse_filter(), n=n)
    ps = speech.excitation_variance / np.abs(a_fft) ** 2
    wiener = np.real(np.fft.ifft(ps / (ps + g * g) * np.fft.fft(z)))
    in_snr, flks_snr, oracle_snr = snr(z), snr(out), snr(wiener)
    report(
        6,
        f"FLKS {flks_snr:.2f} dB vs oracle {oracle_snr:.2f} dB, input {in_snr:.2f} dB, "
        f"{elapsed:.2f} s / 8000 samples",
        flks_snr >= oracle_snr - 1.5 and flks_snr >= in_snr + 4.0 and elapsed < 2.0,
    )


def test_criterion_7_vuv_degeneracy():
    rng = np.random.default_rng(707)
    speech = ArModel(np.array([1.2, -0.8, 0.3, -0.1]), 1e-3)
    noise = ArModel(np.array([0.6, -0.3]), 1e-3)
    z = rng.normal(size=2000) * 0.05
    uv = build_uv_model(speech, noise, 25)
    vuv = build_vuv_model(speech, noise, UNVOICED, 25, 100)
    su, sv = initial_state(uv, 1.0), initial_state(vuv, 1.0)
    outs_u, outs_v = [], []
    for x in z:
        su, eu = flks_step(su, uv, float(x))
        sv, ev = flks_step(sv, vuv, float(x))
        if eu is not None:
            outs_u.append(eu)
        if ev is not None:
            outs_v.append(ev)
    rms = float(np.sqrt(np.mean((np.array(outs_u) - np.array(outs_v)) ** 2)))
    report(7, f"b=0 V-UV vs UV output RMS difference {rms:.3e}", rms < 1e-8)


def test_criterion_8_end_to_end_trend():
    scb = codebook_from_models([SPEECH_TRUE] + SPEECH_ALT, "speech")
    ncb = codebook_from_models(NOISE_CB_MODELS, "noise")

    gaps = {}
    ok_order = True
    for snr in (0.0, 3.0, 5.0, 10.0):
        imp = {"binaural": [], "bilateral": []}
        for seed in range(6):
            s, zl, zr = stereo_scene(seed, snr)
            clean = AudioBuffer(s, 8000)
            base = segmental_snr(clean, zl)
            for mode in imp:
                cfg = RunConfig(mode=mode, model="uv")
                out_l, _ = channels(process(stereo(zl, zr), scb, ncb, cfg))
                imp[mode].append(segmental_snr(clean, out_l) - base)
        gap = float(np.mean(imp["binaural"]) - np.mean(imp["bilateral"]))
        gaps[snr] = gap
        ok_order &= gap >= 0.0
    ok_low_snr = gaps[0.0] == max(gaps.values())

    vuv_imp, uv_imp = [], []
    for seed in range(4):
        s, zl, zr = stereo_scene(seed, 5.0, voiced=True)
        clean = AudioBuffer(s, 8000)
        base = segmental_snr(clean, zl)
        for model, sink in (("uv", uv_imp), ("vuv", vuv_imp)):
            cfg = RunConfig(
                mode="binaural", model=model, f_min=80.0, f_max=150.0,
                max_harmonic_order=20,
            )
            out_l, _ = channels(process(stereo(zl, zr), scb, ncb, cfg))
            sink.append(segmental_snr(clean, out_l) - base)
    ok_vuv = float(np.mean(vuv_imp)) >= float(np.mean(uv_imp))
    gap_text = ", ".join(f"{k:g} dB: {v:+.3f}" for k, v in gaps.items())
    report(
        8,
        f"binaural-bilateral gaps ({gap_text}); V-UV {np.mean(vuv_imp):.3f} "
        f">= UV {np.mean(uv_imp):.3f} on voiced scenes",
        ok_order and ok_low_snr and ok_vuv,
    )


def test_criterion_9_cue_preservation():
    scb = codebook_from_models([SPEECH_TRUE] + SPEECH_ALT, "speech")
    ncb = codebook_from_models(NOISE_CB_MODELS, "noise")
    rng = np.random.default_rng(909)
    n = 2000
    s = ar_signal(SPEECH_TRUE.coefficients, 1e-3, n, rng)
    nl = ar_signal(BABBLE.coefficients, 1e-3, n, rng)
    nr = ar_signal(BABBLE.coefficients, 1e-3, n, rng)
    g = snr_scale(s, nl, 5.0)
    zl = AudioBuffer(s + g * nl, 8000)
    zr = AudioBuffer(np.roll(s, 1) + g * nr, 8000)  # 1-sample ITD on the right
    cfg = RunConfig(mode="binaural", model="uv")
    base = channels(process(stereo(zl, zr), scb, ncb, cfg))
    scaled = channels(process(
        stereo(AudioBuffer(2.0 * zl.samples, 8000), AudioBuffer(2.0 * zr.samples, 8000)),
        scb, ncb, cfg,
    ))
    rep = interaural_errors(base[0], base[1], scaled[0], scaled[1])
    report(
        9,
        f"ITD error {rep.itd_error:.2e} < 0.01, ILD error {rep.ild_error:.2e} dB < 0.1",
        rep.itd_error < 0.01 and rep.ild_error < 0.1,
    )


def test_criterion_10_determinism(tmp_path):
    scb = codebook_from_models([SPEECH_TRUE] + SPEECH_ALT, "speech")
    ncb = codebook_from_models(NOISE_CB_MODELS, "noise")
    _, zl, zr = stereo_scene(42, 5.0, n=2000)
    cfg = RunConfig(mode="binaural", model="uv")
    a = channels(process(stereo(zl, zr), scb, ncb, cfg))
    b = channels(process(stereo(zl, zr), scb, ncb, cfg))
    runs_identical = (
        a[0].samples.tobytes() == b[0].samples.tobytes()
        and a[1].samples.tobytes() == b[1].samples.tobytes()
    )

    p1, p2 = tmp_path / "cb1.bin", tmp_path / "cb2.bin"
    codebook.save(scb, p1)
    loaded = codebook.load(p1)
    codebook.save(loaded, p2)
    round_trip = p1.read_bytes() == p2.read_bytes() and np.array_equal(
        loaded.entries, scb.entries
    )

    rng = np.random.default_rng(10)
    x = ar_signal([1.2, -0.6], 1e-2, 200 * 40, rng)
    frames = frame_rows(x, 200)
    t1 = codebook.train(frames, size=4, order=6, seed=99)
    t2 = codebook.train(frames, size=4, order=6, seed=99)
    train_repro = np.array_equal(t1.entries, t2.entries)
    report(
        10,
        "byte-identical runs, bit-exact codebook round-trip, reproducible training",
        runs_identical and round_trip and train_repro,
    )
