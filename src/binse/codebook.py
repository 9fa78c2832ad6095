"""Spectral-shape codebooks: generalized Lloyd training over LSF vectors plus binary I/O."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

from .linpred import ArModel, ar_to_lsf, levinson_durbin, lsf_to_ar, valid_lsf_rows
from .signal_core import autocorrelation

_MAGIC = b"CBK1"
_VERSION = 1
_KINDS = {"speech": 0, "noise": 1}
_KINDS_INV = {v: k for k, v in _KINDS.items()}

SILENCE_ENERGY = 1e-8
LLOYD_MAX_ITERS = 100
LLOYD_REL_TOL = 1e-6


class CodebookFormatError(ValueError):
    """Malformed codebook file; the message names the failing byte offset."""


@dataclass(frozen=True)
class Codebook:
    """Ordered set of LSF spectral-shape entries, all of one order."""

    entries: npt.NDArray[np.float64]  # shape (count, order)
    kind: str

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] < 1:
            raise ValueError("codebook needs at least one entry of shape (count, order)")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown codebook kind {self.kind!r}")
        if not valid_lsf_rows(entries).all():
            raise ValueError("LSFs must be strictly increasing within (0, pi)")
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return self.entries.shape[1]

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def ar_models(self) -> list[ArModel]:
        return [ArModel(row) for row in lsf_to_ar(self.entries)]


def train(
    training_frames: npt.NDArray[np.float64],
    size: int,
    order: int,
    seed: int,
    kind: str = "speech",
    on_iteration=None,
) -> Codebook:
    """Train a codebook with the generalized Lloyd algorithm on LSF vectors.

    ``training_frames`` holds one frame per row, (N, frame_len) with
    1 <= ``order`` < frame_len.  Frames below the silence-energy threshold,
    frames whose Levinson-Durbin fit fails and models that ``ar_to_lsf``
    cannot convert are skipped.  The other frames are fitted in one
    autocorrelation and Levinson-Durbin pass over their rows, and the fits
    go through one ``ar_to_lsf`` call.  Initial centroids are ``size``
    distinct training vectors drawn under ``seed``.  Each Lloyd step assigns
    every vector by one matrix product and averages the cells by one
    ``np.bincount`` per LSF column; empty cells are repaired by splitting
    the highest-distortion cell.
    """
    training_frames = np.asarray(training_frames, dtype=np.float64)
    if training_frames.ndim != 2:
        raise ValueError(
            f"training_frames must be a 2-D (N, frame_len) array, got shape {training_frames.shape}"
        )
    if not 1 <= order < training_frames.shape[1]:
        raise ValueError(
            f"order must be >= 1 and below the frame length {training_frames.shape[1]}, got {order}"
        )
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if kind not in _KINDS:
        raise ValueError(f"unknown codebook kind {kind!r}")
    energy = (training_frames[:, None, :] @ training_frames[:, :, None]).ravel()
    coeffs, _, ok = levinson_durbin(autocorrelation(training_frames[energy >= SILENCE_ENERGY], order))
    data = ar_to_lsf(coeffs[ok], skip_failed=True)
    if len(data) < size:
        raise ValueError(
            f"need at least {size} usable training frames, got {len(data)}"
        )
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(len(data), size=size, replace=False)].copy()

    data_norms = np.sum(data**2, axis=1)
    prev_distortion = np.inf
    for iteration in range(LLOYD_MAX_ITERS):
        # Nearest centroid by |x|^2 - 2 x.c + |c|^2, one matmul; the distance
        # to it is then taken from the difference, which the stop rule reads.
        d2 = data_norms[:, None] - 2.0 * (data @ centroids.T) + np.sum(centroids**2, axis=1)
        assign = np.argmin(d2, axis=1)
        per_vector = ((data - centroids[assign]) ** 2).sum(axis=1)
        distortion = float(per_vector.mean())
        if on_iteration is not None:
            on_iteration(iteration, distortion)
        counts = np.bincount(assign, minlength=size)
        sums = np.stack([np.bincount(assign, weights=col, minlength=size) for col in data.T], axis=1)
        filled = counts > 0
        repair = np.flatnonzero(~filled)
        if len(repair):
            # An empty cell takes a split of the worst cell's centroid as a
            # cell-by-cell pass finds it: its old value until the pass reaches
            # the worst cell, its mean after.  Those cells go in cell order.
            cell_distortion = np.bincount(assign, weights=per_vector, minlength=size)
            worst = int(np.argmax(cell_distortion))
            repair = np.union1d(repair, worst)
            filled[worst] = False
        centroids[filled] = sums[filled] / counts[filled, None]
        for cell in repair.tolist():
            if counts[cell]:
                centroids[cell] = sums[cell] / counts[cell]
            else:
                centroids[cell] = centroids[worst] + 1e-4
                centroids[worst] = centroids[worst] - 1e-4
        if prev_distortion - distortion < LLOYD_REL_TOL * max(distortion, 1e-30):
            break
        prev_distortion = distortion

    centroids = _sanitize_centroids(centroids)
    order_idx = np.lexsort(centroids.T[::-1])
    return Codebook(centroids[order_idx], kind)


def _sanitize_centroids(centroids: npt.NDArray[np.float64]):
    """Force strict monotonicity inside (0, pi); averaging can only violate it marginally.

    Entry i is clipped into [(i + 1) eps, pi - (P - i) eps], so setting each
    entry not above its left neighbour just above it stays below pi.
    """
    eps = 1e-9
    steps = eps * np.arange(1, centroids.shape[1] + 1)
    out = np.clip(centroids, steps, np.pi - steps[::-1])
    for row in np.flatnonzero(np.any(np.diff(out, axis=1) <= 0.0, axis=1)):
        for i in range(1, out.shape[1]):
            if out[row, i] <= out[row, i - 1]:
                out[row, i] = out[row, i - 1] + eps
    return out


def save(cb: Codebook, path) -> None:
    """Write the binary CBK1 format (little-endian, float64 LSF entries)."""
    payload = struct.pack(
        "<4sHBHI", _MAGIC, _VERSION, _KINDS[cb.kind], cb.order, cb.size
    )
    payload += cb.entries.astype("<f8").tobytes()
    Path(path).write_bytes(payload)


def load(path) -> Codebook:
    raw = Path(path).read_bytes()
    header_len = struct.calcsize("<4sHBHI")
    if len(raw) < header_len:
        raise CodebookFormatError(f"truncated header at offset {len(raw)}")
    magic, version, kind_code, order, count = struct.unpack_from("<4sHBHI", raw, 0)
    if magic != _MAGIC:
        raise CodebookFormatError(f"bad magic {magic!r} at offset 0")
    if version != _VERSION:
        raise CodebookFormatError(f"unsupported version {version} at offset 4")
    if kind_code not in _KINDS_INV:
        raise CodebookFormatError(f"unknown kind byte {kind_code} at offset 6")
    expected = header_len + count * order * 8
    if len(raw) != expected:
        raise CodebookFormatError(
            f"truncated entry table at offset {len(raw)} (expected {expected} bytes)"
        )
    entries = np.frombuffer(raw, dtype="<f8", offset=header_len).reshape(count, order)
    try:
        return Codebook(entries.copy(), _KINDS_INV[kind_code])
    except ValueError as exc:
        raise CodebookFormatError(f"invalid entry data: {exc}") from exc
