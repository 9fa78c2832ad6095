"""Codebook-driven binaural estimation of speech/noise short-term predictor parameters.

Per frame, every (speech entry, noise entry) pair gets maximum-likelihood
excitation variances by multiplicative updates on an Itakura-Saito cost;
pair weights are the likelihoods under uniform priors on both excitation
variances, and the final estimate is the weighted average (AR shapes
averaged in the LSF domain so the result stays stable).  Spectra are plain
arrays of K bins, one frame per row of a record.

Codebook entries never change between frames, so their LSF rows and their
envelopes on the periodogram grid are compiled once per run into a
``CompiledCodebook``; the caller compiles a record's adaptive noise
entries together and appends each frame's row to its noise entries.
``estimate_stp`` takes a whole record.  The multiplicative updates of all
S x W pairs of a group of consecutive frames with one entry count (up to
MU_BATCH_ROWS pairs) run as one batched array solve on the K/2 + 1
distinct bins of the real spectra, weighted (1, 2, ..., 2, 1)/K, each pair
stopping on the iteration where it would stop if solved alone, with the
bits it would get alone.  An iteration forms each pair's modeled spectrum
and its reciprocal once, for the cost and the next update, and the final
costs give the pair weights.  The LSF averages of all frames go back to
AR coefficients in one ``lsf_to_ar`` call per kind.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .codebook import Codebook
from .linpred import ArModel, ar_to_lsf, levinson_durbin, lsf_to_ar

OBSERVED_FLOOR_REL = 1e-12
MU_DEFAULT_ITERS = 50
MU_REL_TOL = 1e-6
MU_BATCH_ROWS = 400  # pairs per batched solve, from the group-size table in ROADMAP item 2
DC_PSD_FLOOR = 0.01
DC_PSD_SMOOTHING = 0.9


@dataclass(frozen=True)
class CompiledCodebook:
    """Frame-invariant view of codebook entries for the estimator.

    ``lsfs`` holds one LSF row per entry, ``envelopes`` the entry's AR
    envelope 1/|A(k)|^2 on the periodogram's ``dft_len`` bins.
    """

    lsfs: npt.NDArray[np.float64]  # (count, order)
    envelopes: npt.NDArray[np.float64]  # (count, dft_len)

    def __len__(self) -> int:
        return len(self.lsfs)

    @property
    def order(self) -> int:
        return self.lsfs.shape[1]


def compile_codebook(entries: Codebook | Sequence[ArModel], dft_len: int) -> CompiledCodebook:
    """Compile a codebook, or a list of AR models of one order, for ``dft_len`` bins.

    A ``Codebook`` contributes its stored LSF rows as they are; AR models are
    converted together in one ``ar_to_lsf`` call.  The envelopes 1/|A(k)|^2
    come from one FFT over the entries' inverse-filter rows.
    """
    if isinstance(entries, Codebook):
        lsfs = entries.entries
        models = entries.ar_models()
    else:
        models = list(entries)
        if not models:
            raise ValueError("codebooks must be non-empty")
        lsfs = ar_to_lsf(models)
    if dft_len < lsfs.shape[1] + 1:
        raise ValueError("dft_len must be at least order+1")
    inverse = np.array([m.inverse_filter() for m in models])
    envelopes = 1.0 / np.abs(np.fft.fft(inverse, n=dft_len)) ** 2
    return CompiledCodebook(lsfs, envelopes)


@dataclass(frozen=True)
class StpEstimate:
    """Joint speech+noise AR parameter estimate for one frame."""

    speech: ArModel
    noise: ArModel


def _floored(observed: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Each spectrum (last axis) floored at OBSERVED_FLOOR_REL of its peak, or 1e-300 if silent."""
    peak = observed.max(axis=-1, keepdims=True) if observed.shape[-1] else np.zeros(1)
    return np.maximum(observed, np.where(peak <= 0.0, 1e-300, OBSERVED_FLOOR_REL * peak))


def _weighted_is(floors, inv, weights):
    """Weighted two-channel IS cost per row, from the (2, n or 1, H) floored spectra and 1/modeled.

    The sum over bins is one dot product per row (``np.vecdot``), so a row's
    cost does not depend on how many rows there are; a BLAS mat-vec's does.
    """
    ratio = floors * inv
    ratio -= np.log(ratio)
    ratio -= 1.0
    per_channel = np.vecdot(ratio, weights)
    return per_channel[0] + per_channel[1]


def is_divergence(observed, modeled):
    """Mean Itakura-Saito divergence (1/K) sum [P/P^ - ln(P/P^) - 1].

    A float for a 1-D ``modeled``; one divergence per row for (N, K).
    """
    p = np.asarray(observed, float)
    q = np.asarray(modeled, float)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError("spectra must have equal length")
    if np.any(q <= 0):
        raise ValueError("modeled spectrum must be strictly positive")
    ratio = _floored(p) / q
    out = np.mean(ratio - np.log(ratio) - 1.0, axis=-1)
    return float(out) if out.ndim == 0 else out


def ml_excitation_variances(
    pzl,
    pzr,
    speech_env: npt.NDArray[np.float64],
    noise_env: npt.NDArray[np.float64],
    init=None,
    iters: int = MU_DEFAULT_ITERS,
    bin_weights: npt.NDArray[np.float64] | None = None,
):
    """Multiplicative-update ML estimation of (speech, noise) excitation variances.

    Minimizes the summed two-channel Itakura-Saito cost between the
    observed periodograms and ``sigma_d^2 * speech_env + sigma_v^2 * noise_env``,
    a ``bin_weights``-weighted sum over bins (default: the plain mean).
    Returns (sigma_d2, sigma_v2, final_cost) as floats for 1-D arguments.
    The four spectra may carry leading axes (the observed ones one frame
    per index, the envelopes one entry per index); they broadcast to a
    shape (L, K), one pair per index of L, and give three arrays of shape
    L.  ``init`` holds the start variances, each broadcast against L; by
    default both start at a quarter of the frame's weighted total power.
    Each pair gets the same bits alone as in any batch, and stops on the
    iteration where it would stop alone: when its cost changes by less
    than MU_REL_TOL relative, when both its variances reach zero (keeping
    the cost from before that update), or after ``iters`` updates.
    """
    pl, pr, ps, pw = (np.asarray(x, float) for x in (pzl, pzr, speech_env, noise_env))
    if np.any(ps <= 0) or np.any(pw <= 0):
        raise ValueError("envelopes must be strictly positive")
    shape = np.broadcast_shapes(pl.shape, pr.shape, ps.shape, pw.shape)
    lead, k = shape[:-1], shape[-1]
    weights = np.full(k, 1.0 / k) if bin_weights is None else np.asarray(bin_weights, float)
    if init is None:
        start = np.maximum(np.vecdot(pl + pr, weights) / 4.0, 1e-12)
        init = (start, start)
    elif np.any(np.asarray(init[0]) <= 0) or np.any(np.asarray(init[1]) <= 0):
        raise ValueError("initial variances must be positive")

    # Row n holds pair n's (speech, noise) envelopes and variances.  The
    # floored spectra and total power sit in observed[:, n], or in one
    # column that every row reads when all the pairs share one frame.
    per_row = math.prod(np.broadcast_shapes(pl.shape, pr.shape)[:-1]) > 1
    observed = np.stack([(np.broadcast_to(a, shape) if per_row else a).reshape(-1, k)
                         for a in (_floored(pl), _floored(pr), pl + pr)])
    env = np.stack([np.broadcast_to(a, shape) for a in (ps, pw)], axis=-2).reshape(-1, 2, k)
    var = np.stack([np.broadcast_to(np.asarray(v, float), lead) for v in init],
                   axis=-1).reshape(-1, 2)
    inv = 1.0 / np.einsum("nc,nck->nk", var, env)
    cost = _weighted_is(observed[:2], inv, weights)
    out_var, out_cost = var.copy(), cost.copy()
    rows = np.arange(len(env))
    for _ in range(iters):
        if not len(rows):
            break
        w_inv = inv * weights
        grad = w_inv * inv
        grad *= observed[2]
        var = np.maximum(var * np.vecdot(env, grad[:, None])
                         / (2.0 * np.vecdot(env, w_inv[:, None])), 0.0)
        inv = 1.0 / np.einsum("nc,nck->nk", np.maximum(var, 1e-300), env)
        # A pair whose variances both reach zero (a silent frame) stops with
        # the cost from before this update.
        zero = (var <= 0).all(axis=1)
        cur = np.where(zero, cost, _weighted_is(observed[:2], inv, weights))
        moving = ~(zero | (np.abs(cost - cur) < MU_REL_TOL * np.maximum(np.abs(cost), 1e-30)))
        cost = cur
        if not moving.all():
            out_var[rows], out_cost[rows] = var, cost
            rows, env, var, cost, inv = (a[moving] for a in (rows, env, var, cost, inv))
            if per_row:
                observed = observed[:, moving]
    out_var[rows], out_cost[rows] = var, cost
    if not lead:
        return float(out_var[0, 0]), float(out_var[0, 1]), float(out_cost[0])
    return out_var[:, 0].reshape(lead), out_var[:, 1].reshape(lead), out_cost.reshape(lead)


def pair_log_likelihood(pzl, pzr, modeled, frame_len: int):
    """Unnormalized log-likelihood -(M/2)[d_IS(l) + d_IS(r)], per row of a 2-D ``modeled``."""
    return -0.5 * frame_len * (is_divergence(pzl, modeled) + is_divergence(pzr, modeled))


@dataclass
class StpDiagnostics:
    best_speech_index: int = -1
    best_noise_index: int = -1
    best_log_weight: float = -np.inf
    underflow_fallback: bool = False
    weights: npt.NDArray[np.float64] | None = None  # normalized (ns, nw) posterior


def _frame_entries(entries, n_frames: int, k: int) -> list[CompiledCodebook]:
    """One compiled entry set per frame, from shared entries or a per-frame list of them."""
    if isinstance(entries, CompiledCodebook):
        return [entries] * n_frames
    entries = list(entries)
    if entries and isinstance(entries[0], CompiledCodebook):
        if len(entries) != n_frames:
            raise ValueError(f"{len(entries)} per-frame entry sets for {n_frames} frames")
        return entries
    return [compile_codebook(entries, k)] * n_frames


def _frame_groups(noise: list[CompiledCodebook], ns: int):
    """Slices of consecutive frames with one noise entry count, each of at
    most MU_BATCH_ROWS pairs, or of one frame where a frame has more."""
    first = 0
    while first < len(noise):
        nw = len(noise[first])
        cap = min(len(noise), first + max(1, MU_BATCH_ROWS // (ns * nw)))
        last = first + 1
        while last < cap and len(noise[last]) == nw:
            last += 1
        yield slice(first, last)
        first = last


def estimate_stp(
    pzl: npt.ArrayLike,
    pzr: npt.ArrayLike,
    speech_entries: CompiledCodebook | Sequence[ArModel],
    noise_entries: CompiledCodebook | Sequence[ArModel] | Sequence[CompiledCodebook],
    frame_len: int,
    diagnostics: StpDiagnostics | list | None = None,
) -> StpEstimate | list[StpEstimate]:
    """MMSE estimate of the joint STP vector over the codebook pair grid, per frame.

    ``pzl`` and ``pzr`` hold one frame's spectra (K,), or a record's, one
    frame per row (F, K).  Entries given as lists of AR models go through
    ``compile_codebook``.  The speech entries serve every frame; the noise
    entries too, or they are a list of compiled entry sets, one per frame
    (the codebook plus that frame's adaptive row).  A frame's AR shapes
    are averaged in the LSF domain under its posterior pair weights, and
    its excitation variances are averaged directly.  Both excitation
    variances have uniform priors, so a pair's weight is its normalized
    likelihood.

    Consecutive frames with the same entry count are solved together, up
    to MU_BATCH_ROWS pairs a group; the solve gives each pair the bits it
    gets alone, so a frame's estimate does not depend on its record.  A
    1-D call returns an ``StpEstimate`` and fills ``diagnostics``; a record
    gives a list of them, one per frame, and appends one ``StpDiagnostics``
    per frame to a ``diagnostics`` list.
    """
    one_frame = np.ndim(pzl) == 1
    pl_all, pr_all = (np.atleast_2d(np.asarray(x, float)) for x in (pzl, pzr))
    if pl_all.shape != pr_all.shape:
        raise ValueError("channel spectra must have equal length")
    n_frames, k = pl_all.shape
    speech = (speech_entries if isinstance(speech_entries, CompiledCodebook)
              else compile_codebook(speech_entries, k))
    noise = _frame_entries(noise_entries, n_frames, k)
    if any(e.envelopes.shape[1] != k for e in [speech, *noise]):
        raise ValueError(f"codebooks compiled for another DFT length than {k}")
    if len({e.order for e in noise}) > 1:
        raise ValueError("the frames' noise entries must share one order")
    if not n_frames:
        return []
    ns = len(speech)

    # Real spectra repeat their bins, so the solve runs on the K//2 + 1
    # distinct ones, weighted (1, 2, ..., 2, 1)/K (no Nyquist bin for odd K).
    # Pair (i, j) of a frame is entry [i, j] of its (ns, nw) results.
    half = k // 2 + 1
    bins = np.full(half, 2.0 / k)
    bins[0], bins[-1] = 1.0 / k, (1.0 + k % 2) / k
    pl_all, pr_all = pl_all[:, :half], pr_all[:, :half]
    ps = speech.envelopes[:, :half]
    found, speech_lsf, noise_lsf, variances = [], [], [], []
    for group in _frame_groups(noise, ns):
        pl, pr = pl_all[group, None, None], pr_all[group, None, None]
        pw = np.stack([e.envelopes[:, :half] for e in noise[group]])[:, None]
        sig_d, sig_v, cost = ml_excitation_variances(pl, pr, ps[:, None], pw, bin_weights=bins)
        silent = (sig_d <= 0) & (sig_v <= 0)
        if silent.any():  # the solve keeps their cost from before the last update
            g, i, j = np.nonzero(silent)
            floors = np.stack((_floored(pl_all[group]), _floored(pr_all[group])))
            cost[silent] = _weighted_is(floors[:, g], 1.0 / (1e-300 * ps[i] + 1e-300 * pw[g, 0, j]),
                                        bins)
        for f, entries in enumerate(noise[group]):
            # With a finite peak every weight lies in [0, 1] and the peak's is 1.
            log_weights = -0.5 * frame_len * cost[f]
            bi, bj = divmod(int(np.argmax(log_weights)), log_weights.shape[1])
            peak = log_weights[bi, bj]
            fallback = not np.isfinite(peak)
            if fallback:
                weights = np.zeros(log_weights.shape)
                weights[bi, bj] = 1.0
            else:
                weights = np.exp(log_weights - peak)
                weights /= weights.sum()
            found.append(StpDiagnostics(bi, bj, float(peak), fallback, weights))
            speech_lsf.append(np.einsum("i,ij->j", weights.sum(axis=1), speech.lsfs))
            noise_lsf.append(np.einsum("i,ij->j", weights.sum(axis=0), entries.lsfs))
            variances.append((float((weights * sig_d[f]).sum()),
                              float((weights * sig_v[f]).sum())))
    speech_ar = lsf_to_ar(np.sort(speech_lsf, axis=1))
    noise_ar = lsf_to_ar(np.sort(noise_lsf, axis=1))
    estimates = [StpEstimate(ArModel(a_d, v_d), ArModel(a_v, v_v))
                 for a_d, a_v, (v_d, v_v) in zip(speech_ar, noise_ar, variances)]
    if one_frame:
        if diagnostics is not None:
            vars(diagnostics).update(vars(found[0]))
        return estimates[0]
    if diagnostics is not None:
        diagnostics.extend(found)
    return estimates


class DualChannelNoiseTracker:
    """Recursively smoothed dual-channel noise PSD across frames.

    The coherent (nose-direction) target cancels in the magnitude
    cross-spectrum subtraction; diffuse noise survives.  The channel
    spectra and the complex cross-spectrum are smoothed before taking
    the magnitude: averaging the complex cross-spectrum first lets the
    incoherent noise terms cancel, so |cross| converges to the coherent
    power instead of overestimating it.
    """

    def __init__(self, smoothing: float = DC_PSD_SMOOTHING):
        if not 0.0 <= smoothing < 1.0:
            raise ValueError("smoothing factor must be in [0, 1)")
        self.smoothing = smoothing
        self._mean_power: npt.NDArray[np.float64] | None = None
        self._cross: npt.NDArray[np.complex128] | None = None

    def update(self, pzl, pzr, cross) -> npt.NDArray[np.float64]:
        """Noise PSD after this frame; the first call gives the unsmoothed estimate."""
        pl = np.asarray(pzl, float)
        pr = np.asarray(pzr, float)
        cx = np.asarray(cross, complex)
        mean_power = 0.5 * (pl + pr)
        if self._mean_power is None:
            self._mean_power = mean_power
            self._cross = cx
        else:
            a = self.smoothing
            self._mean_power = a * self._mean_power + (1.0 - a) * mean_power
            self._cross = a * self._cross + (1.0 - a) * cx
        return np.maximum(
            self._mean_power - np.abs(self._cross),
            DC_PSD_FLOOR * self._mean_power,
        )


@functools.lru_cache(maxsize=1)  # a run fits the noise codebook's one order
def _inverse_dft_rows(order: int, k: int) -> npt.NDArray[np.complex128]:
    """exp(i 2 pi q k' / K) for q = 0..order and every bin k', built once per (order, K)."""
    phases = np.exp(2j * np.pi * np.outer(np.arange(order + 1), np.arange(k)) / k)
    phases.flags.writeable = False
    return phases


def noise_psd_to_ar(psd, order: int):
    """Fit an AR model to a noise PSD via inverse-DFT autocorrelation.

    r(q) = (1/K) sum_k P(k) exp(i 2 pi q k / K), q = 0..order, then
    Levinson-Durbin.  The 1/K factor keeps r(0) equal to the mean PSD so
    the fitted excitation variance lives on the periodogram scale.  A 1-D
    ``psd`` gives an ``ArModel`` or raises as ``levinson_durbin`` does (and
    on an all-zero PSD); an (N, K) array fits its rows in one recursion and
    returns ``levinson_durbin``'s ``(coefficients, variances, ok)``, each
    row's r by the same mat-vec as a 1-D call, so the fits are the same bits.
    """
    bins = np.asarray(psd, float)
    if bins.ndim == 1 and np.all(bins == 0):
        raise ValueError("PSD must not be all-zero")
    k = bins.shape[-1]
    phases = _inverse_dft_rows(order, k)
    r = np.real([phases @ row for row in bins.reshape(-1, k)]) / k
    return levinson_durbin(r[0] if bins.ndim == 1 else r)
