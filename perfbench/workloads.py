"""The benchmark's workloads: the CLI calls they make, how outputs are checked and scored."""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_toeplitz

import scenes

SILENCE_ENERGY = 1e-8
LPC_ORDER = 14
SCENE_COUNT = 3  # one scene per SNR; calls cycle through them
WARMUP_FRAMES = 2  # full frames of the short warm-up scene
SILENT_LEAD_FRAMES = 3  # two silent frames, then one with speech
# train-64: 20 training frames per entry, the ratio the cached speech16
# codebook is trained with, so Lloyd runs on a realistic amount of data.
TRAIN_SIZE = 64
TRAIN_FILES = 8
TRAIN_FILE_S = 4.0  # 8 x 4 s = 1280 frames of 25 ms
TRAIN_SETS = 3
WARMUP_TRAIN_S = 2.0  # one 80-frame file, just above the 64 frames a 64-entry train needs


@dataclass
class Call:
    """One closed-loop request: ``binse`` arguments plus what it must produce."""

    key: str
    argv_in: list  # arguments before "-o <output>"
    audio_s: float
    channels: int = 0  # enhancement: channels and length of the input
    samples: int = 0
    scene: scenes.Scene | None = None

    def argv(self, output):
        return [*self.argv_in, "-o", str(output)]


class Enhance:
    """``enhance --mode binaural --model vuv`` with the 16x4 codebooks."""

    def codebooks(self, cb_dir):
        """The codebook files each call loads."""
        return [cb_dir / "speech16.cbk", cb_dir / "noise4.cbk"]

    def calls(self, work: Path, seed, cb_dir: Path):
        return [self._call(work, s, cb_dir)
                for s in scenes.scene_set(seed, SCENE_COUNT, scenes.SCENE_FRAMES)]

    def warmup_call(self, work, seed, cb_dir):
        return self._call(work, scenes.scene_set(seed, 1, WARMUP_FRAMES, "warmup")[0], cb_dir)

    def silent_lead_call(self, work, seed, cb_dir):
        return self._call(work, scenes.silent_lead_scene(seed, SILENT_LEAD_FRAMES), cb_dir)

    def _call(self, work, scene, cb_dir):
        path = work / f"{scene.name}.wav"
        scenes.write_wav(path, scene.noisy)
        speech_cb, noise_cb = self.codebooks(cb_dir)
        argv = ["enhance", "--mode", "binaural", "--model", "vuv",
                "--speech-cb", str(speech_cb), "--noise-cb", str(noise_cb), str(path)]
        n = scene.noisy.shape[1]
        return Call(scene.name, argv, n / scenes.SAMPLE_RATE, 2, n, scene)

    def check(self, call, output: Path):
        """Return None if the output is a valid enhancement of the call's input."""
        x = scenes.read_wav(output)
        channels = 1 if x.ndim == 1 else x.shape[0]
        if channels != call.channels or x.shape[-1] != call.samples:
            return f"{call.key}: output shape {x.shape}, input ({call.channels}, {call.samples})"
        if not np.any(x):
            return f"{call.key}: output is all zeros"
        return None

    def speech_codebooks(self, cb_dir, results):
        """Codebooks whose quantization error train_distortion reports."""
        return self.codebooks(cb_dir)[:1]


class Train:
    """``train --kind speech --size 64 --order 14`` on TRAIN_FILES mono WAVs per call."""

    def codebooks(self, cb_dir):
        return []

    def calls(self, work: Path, seed, cb_dir):
        return [self._call(work, f"set{k:02d}",
                           scenes.training_speech(seed, 100 + k, TRAIN_FILES, TRAIN_FILE_S))
                for k in range(TRAIN_SETS)]

    def warmup_call(self, work, seed, cb_dir):
        return self._call(work, "warmup", scenes.training_speech(seed, 98, 1, WARMUP_TRAIN_S))

    def silent_lead_call(self, work, seed, cb_dir):
        wavs = scenes.training_speech(seed, 99, 1, WARMUP_TRAIN_S)
        wavs[0][: scenes.SILENT_LEAD] = 0.0
        return self._call(work, "silent-lead", wavs)

    def _call(self, work, key, wavs):
        paths = []
        for i, samples in enumerate(wavs):
            paths.append(str(work / f"{key}-{i}.wav"))
            scenes.write_wav(paths[-1], samples)
        argv = ["train", *paths, "--kind", "speech", "--size", str(TRAIN_SIZE),
                "--order", str(LPC_ORDER)]
        return Call(key, argv, sum(len(w) for w in wavs) / scenes.SAMPLE_RATE)

    def check(self, call, output: Path):
        try:
            kind, entries = read_codebook(output)
        except ValueError as exc:
            return f"{call.key}: {exc}"
        if kind != 0 or entries.shape != (TRAIN_SIZE, LPC_ORDER):
            return f"{call.key}: codebook kind {kind}, shape {entries.shape}"
        return None

    def speech_codebooks(self, cb_dir, results):
        """The codebook trained on each distinct training set of the timed loop."""
        first = {}
        for r in results:
            if r["ok"]:
                first.setdefault(r["call"].key, r["data"])
        return [io.BytesIO(data) for _, data in sorted(first.items())]


def read_codebook(path):
    """Parse a CBK1 file independently of binse; entries must be valid LSF vectors."""
    raw = path.read() if hasattr(path, "read") else Path(path).read_bytes()
    header = struct.Struct("<4sHBHI")
    if len(raw) < header.size:
        raise ValueError("truncated codebook header")
    magic, version, kind, order, count = header.unpack_from(raw)
    if magic != b"CBK1" or len(raw) != header.size + 8 * order * count:
        raise ValueError("malformed codebook")
    entries = np.frombuffer(raw, "<f8", offset=header.size).reshape(count, order)
    if not (np.all(np.isfinite(entries)) and np.all(entries > 0) and np.all(entries < np.pi)
            and np.all(np.diff(entries, axis=1) > 0)):
        raise ValueError("codebook entries are not increasing LSFs in (0, pi)")
    return kind, entries


def frame_lsfs(x, frame_len=scenes.FRAME_LEN, order=LPC_ORDER):
    """LSF vectors of the non-silent frames of ``x`` (autocorrelation LPC, polynomial roots)."""
    out = []
    for start in range(0, len(x) - frame_len + 1, frame_len):
        f = x[start : start + frame_len]
        if float(f @ f) < SILENCE_ENERGY:
            continue
        r = np.correlate(f, f, "full")[frame_len - 1 : frame_len + order] / frame_len
        a = np.concatenate(([1.0], -solve_toeplitz(r[:-1], r[1:])))
        ext = np.concatenate((a, [0.0]))
        angles = [np.angle(np.roots(ext + s * ext[::-1])) for s in (1.0, -1.0)]
        lsf = np.sort(np.concatenate([w[(w > 1e-9) & (w < np.pi - 1e-9)] for w in angles]))
        if len(lsf) == order:
            out.append(lsf)
    return np.array(out)


def quantization_distortion(lsfs, entries):
    """Mean squared LSF error of each vector against its nearest codebook entry."""
    d2 = ((lsfs[:, None, :] - entries[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).mean())


def held_out_lsfs(seed):
    """About 4800 frames of speech that no codebook was trained on."""
    speech = scenes.training_speech(seed, 3, 40, 3.0)
    return np.concatenate([frame_lsfs(s) for s in speech])


# The reason for each workload is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {"vuv-binaural-16x4": Enhance(), "train-64": Train()}
