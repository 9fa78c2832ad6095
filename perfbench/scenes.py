"""Seeded synthetic inputs: voiced speech, lateral binaural scenes, babble, training audio.

Everything here depends only on numpy/scipy and the seed, never on binse, so
the program under test sees nothing but the WAV and CBK1 files made from it.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

SAMPLE_RATE = 8000
FRAME_LEN = 200
ITD_SAMPLES = 4  # 0.5 ms: the target sits to the left
ILD_DB = 4.0  # the far (right) ear hears the target this much quieter
SNRS_DB = (0.0, 5.0, 10.0)  # scenes cycle through these SNRs
SCENE_FRAMES = 20  # 0.5 s, the binaural scene of the roadmap's baseline
TAIL = 24  # samples of trailing partial frame in every scene
SPEECH_RMS = 0.05
SILENT_LEAD = 400  # 50 ms of digital silence
SEGMENT = 640  # samples per formant filter (80 ms)
GLIDE_S = 2.0
ASPIRATION = 0.3  # aspiration noise RMS relative to the pulse train
FORMANT_BANDS = ((250, 900), (900, 2200), (2200, 2900), (2900, 3400), (3400, 3900))
BABBLE_TALKERS = 4
CORPUS_SEED = 1806
CORPUS_TALKERS = 6


def _all_pole(centres, radii):
    poly = np.array([1.0])
    for f, r in zip(centres, radii):
        w = 2.0 * np.pi * f / SAMPLE_RATE
        poly = np.convolve(poly, [1.0, -2.0 * r * np.cos(w), r * r])
    return poly


def _formant_filter(rng):
    """Vocal-tract all-pole filter: one resonance in each of FORMANT_BANDS."""
    low, high = np.array(FORMANT_BANDS).T
    return _all_pole(rng.uniform(low, high), rng.uniform(0.88, 0.95, len(low)))


def _noise_shape(rng, n_resonances=3):
    """Spectral shape of one babble talker: broad resonances anywhere in 300-3500 Hz,
    since many overlapping voices smear the formants out."""
    return _all_pole(rng.uniform(300.0, 3500.0, n_resonances),
                     rng.uniform(0.6, 0.8, n_resonances))


@dataclass(frozen=True)
class Talker:
    """f0 glide endpoints and one formant filter per SEGMENT samples."""

    f_start: float
    f_end: float
    formants: tuple


def random_talker(rng, n):
    f_start = rng.uniform(100.0, 260.0)
    f_end = float(np.clip(f_start * rng.uniform(0.7, 1.4), 85.0, 380.0))
    return Talker(f_start, f_end, tuple(_formant_filter(rng) for _ in range(-(-n // SEGMENT))))


def corpus():
    """The fixed talkers and babble shapes every enhancement scene is drawn from.

    Every run then covers the same voices, noise spectra and SNRs; the seed
    picks the excitation, f0 jitter and noise realizations.  Per-frame cost
    depends on the spectra, so this keeps runs with different seeds comparable.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    talkers = [random_talker(rng, 4 * FRAME_LEN) for _ in range(CORPUS_TALKERS)]
    babble_shapes = [_noise_shape(rng) for _ in range(BABBLE_TALKERS)]
    return talkers, babble_shapes


def voiced_speech(rng, n, talker=None):
    """Pulse-train-excited AR speech whose f0 glides inside 80-400 Hz.

    The formant filter changes every SEGMENT samples and the pulse train
    carries a little aspiration noise, so consecutive frames differ.  Without
    a ``talker`` a new one is drawn from ``rng``; with one, only a +-5% f0
    jitter, the pulse phase and the aspiration noise come from ``rng``.
    """
    jitter = 1.0
    if talker is None:
        talker = random_talker(rng, n)
    else:
        jitter = rng.uniform(0.95, 1.05)
    # f0 swings between the talker's endpoints and back every GLIDE_S seconds.
    swing = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (GLIDE_S * SAMPLE_RATE))
    f0 = jitter * (talker.f_start + (talker.f_end - talker.f_start) * swing)
    # Band-limited pulse train: every harmonic of f0 below Nyquist, equal amplitude.
    phase = 2.0 * np.pi * (rng.uniform() + np.cumsum(f0 / SAMPLE_RATE))
    excitation = np.zeros(n)
    for k in range(1, int(SAMPLE_RATE / (2.0 * f0.max())) + 1):
        excitation += np.cos(k * phase)
    excitation *= np.sqrt(2.0 * f0 / SAMPLE_RATE) / np.sqrt(np.mean(excitation**2))
    excitation += ASPIRATION * np.sqrt(np.mean(excitation**2)) * rng.standard_normal(n)
    out = np.zeros(n)
    for k, start in enumerate(range(0, n, SEGMENT)):
        poly = talker.formants[k % len(talker.formants)]
        # Unit power gain, so a change of formants does not change the level.
        gain = np.sqrt(np.mean(np.abs(np.fft.rfft(poly, 1024)) ** -2.0))
        # Each filter also runs over the preceding excitation, so a change of
        # filter joins two outputs of one level instead of starting a transient.
        lead = min(start, SEGMENT // 4)
        piece = excitation[start - lead : start + SEGMENT] / gain
        out[start : start + SEGMENT] = lfilter([1.0], poly, piece)[lead:]
    return SPEECH_RMS * out / np.sqrt(np.mean(out**2))


def babble(rng, n, shapes=None):
    """Sum of BABBLE_TALKERS AR-shaped Gaussian noises, unit variance.

    ``shapes`` fixes the talkers' all-pole filters; otherwise they are drawn.
    """
    if shapes is None:
        shapes = [_noise_shape(rng) for _ in range(BABBLE_TALKERS)]
    total = np.zeros(n)
    for poly in shapes:
        total += lfilter([1.0], poly, rng.standard_normal(n + 300))[300:]
    return total / np.sqrt(np.mean(total**2))


@dataclass(frozen=True)
class Scene:
    name: str
    clean: np.ndarray  # (2, n): target at each ear
    noisy: np.ndarray  # (2, n)
    snr_db: float


def lateral_scene(rng, name, n_samples, snr_db, talker, babble_shapes, silent_lead=0):
    """Target to one side with a fixed ITD and ILD; independent babble per ear.

    The SNR is set at the near (left) ear; both ears get the same noise power.
    """
    s = voiced_speech(rng, n_samples + ITD_SAMPLES, talker)
    left = s[ITD_SAMPLES:]
    right = 10.0 ** (-ILD_DB / 20.0) * s[:n_samples]
    clean = np.vstack((left, right))
    gain = SPEECH_RMS * 10.0 ** (-snr_db / 20.0)
    noise = [babble(rng, n_samples, babble_shapes) for _ in range(2)]
    noisy = clean + gain * np.vstack(noise)
    if silent_lead:
        clean[:, :silent_lead] = 0.0
        noisy[:, :silent_lead] = 0.0
    return Scene(name, clean, noisy, snr_db)


def scene_set(seed, count, frames, prefix="scene"):
    """``count`` scenes of ``frames`` frames plus a TAIL-sample partial frame,
    so no length is a multiple of FRAME_LEN, cycling through the corpus
    talkers and SNRS_DB.  Each ``prefix`` draws from its own stream."""
    rng = np.random.default_rng([seed, 1, *prefix.encode()])
    talkers, shapes = corpus()
    n = frames * FRAME_LEN + TAIL
    return [
        lateral_scene(rng, f"{prefix}{i:02d}", n, SNRS_DB[i % len(SNRS_DB)],
                      talkers[i % len(talkers)], shapes)
        for i in range(count)
    ]


def silent_lead_scene(seed, frames):
    """A scene whose first 50 ms are digital zeros in both ears."""
    rng = np.random.default_rng([seed, 2])
    talkers, shapes = corpus()
    n = frames * FRAME_LEN + TAIL
    return lateral_scene(rng, "silent-lead", n, SNRS_DB[1], talkers[0], shapes,
                         silent_lead=SILENT_LEAD)


def training_speech(seed, stream, n_files, seconds):
    """Mono speech WAV payloads for codebook training (one talker per file)."""
    rng = np.random.default_rng([seed, stream])
    n = int(seconds * SAMPLE_RATE)
    return [voiced_speech(rng, n) for _ in range(n_files)]


def training_babble(seed, stream, n_files, seconds):
    rng = np.random.default_rng([seed, stream])
    n = int(seconds * SAMPLE_RATE)
    return [SPEECH_RMS * babble(rng, n) for _ in range(n_files)]


def _pcm(samples):
    return np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767)


def as_read(samples):
    """The samples binse reads back from the WAV that write_wav makes of ``samples``."""
    return _pcm(samples) / 32768.0


def write_wav(path, samples):
    """16-bit PCM at SAMPLE_RATE; ``samples`` is (n,) or (2, n) in [-1, 1]."""
    pcm = _pcm(samples).astype("<i2")
    channels = 1 if pcm.ndim == 1 else 2
    if channels == 2:
        pcm = pcm.T.reshape(-1)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def read_wav(path):
    """Inverse of write_wav (path or binary file), giving samples as binse reads them."""
    with wave.open(path if hasattr(path, "read") else str(path), "rb") as wf:
        channels = wf.getnchannels()
        raw = wf.readframes(wf.getnframes())
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return data.reshape(-1, 2).T if channels == 2 else data
