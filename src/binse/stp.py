"""Codebook-driven binaural estimation of speech/noise short-term predictor parameters.

Every (speech entry, noise entry) pair of a frame gets the maximum-likelihood excitation
variances of a two-channel Itakura-Saito cost.  Pair weights are the likelihoods under uniform
variance priors; the estimate is the weighted average, AR shapes averaged in the LSF domain so
it stays stable.  Codebook LSF rows and envelopes are compiled once per run (``CompiledCodebook``)
and each frame's adaptive noise row joins its noise entries.  ``estimate_stp`` takes a record and
solves consecutive frames with one entry count together, up to PAIR_BATCH_ROWS pairs, on the K/2 + 1
distinct bins of the real spectra, each pair by the profile solve of ``ml_excitation_variances``.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .codebook import Codebook
from .linpred import ArModel, ar_to_lsf, levinson_durbin, lsf_to_ar

OBSERVED_FLOOR_REL = 1e-12
PROFILE_TOL = 1e-13  # cost change under which a pair's profile solve stops
PAIR_BATCH_ROWS = 800  # pairs per batched solve, from the group-size table in ROADMAP item 2
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
    """Compile a codebook, or a non-empty list of AR models of one order, for dft_len > order bins.

    A ``Codebook`` contributes its stored LSF rows as they are; AR models are
    converted together in one ``ar_to_lsf`` call.  The envelopes 1/|A(k)|^2
    come from one FFT over the entries' inverse-filter rows.
    """
    if isinstance(entries, Codebook):
        lsfs = entries.entries
        models = entries.ar_models()
    else:
        models = list(entries)
        lsfs = ar_to_lsf(models)
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


def is_divergence(observed, modeled):
    """Mean Itakura-Saito divergence (1/K) sum [P/P^ - ln(P/P^) - 1], P^ > 0 on P's K bins.

    A float for a 1-D ``modeled``; one divergence per row for (N, K).
    """
    p = np.asarray(observed, float)
    q = np.asarray(modeled, float)
    ratio = _floored(p) / q
    out = np.mean(ratio - np.log(ratio) - 1.0, axis=-1)
    return float(out) if out.ndim == 0 else out


def _profile(lam, data, weights, work):
    """Half the profile cost at ``lam`` up to a row constant, its slope and curvature, u and spread.

    Rows of ``data``: q = w (F_l + F_r) / E_d, ratio = E_v / E_d, delta = ratio - 1.  With v =
    1 - lam + lam ratio, a = 1/v, b = delta a: the scale is u / 2 with u = sum q a, half the cost
    log u + sum w log v, and 1 / max |b| (the spread) the distance to the nearest root of a v."""
    q, ratio, delta = data
    v, a, b = work
    np.multiply(ratio, lam[:, None], out=v)
    v += (1.0 - lam)[:, None]
    np.divide(1.0, v, out=a)
    np.multiply(delta, a, out=b)
    u = np.vecdot(q, a)
    a *= q
    u1 = np.vecdot(a, b) / u
    a *= b
    u2 = np.vecdot(a, b) / u
    slope = np.vecdot(b, weights) - u1
    b *= b
    curvature = 2.0 * u2 - u1 * u1 - np.vecdot(b, weights)
    np.log(v, out=v)
    return np.log(u) + np.vecdot(v, weights), slope, curvature, u, np.sqrt(b.max(axis=1))


def _gain(distance, slope, curvature):  # the most the profile cost changes over distance
    return np.abs(distance) * (np.abs(slope) + 0.5 * np.abs(curvature * distance))


def ml_excitation_variances(
    pzl,
    pzr,
    speech_env: npt.NDArray[np.float64],
    noise_env: npt.NDArray[np.float64],
    init=None,
    iters: int = 50,
    bin_weights: npt.NDArray[np.float64] | None = None,
):
    """Maximum-likelihood (speech, noise) excitation variances of each pair.

    Minimizes the two-channel Itakura-Saito cost of ``sigma_d^2 * speech_env +
    sigma_v^2 * noise_env`` (positive envelopes), a ``bin_weights``-weighted
    sum over bins (default: the mean).  Returns (sigma_d2, sigma_v2,
    final_cost): floats for 1-D arguments, else arrays of shape L where the
    spectra broadcast to (L, K).
    The model is s E_d (1 - lam + lam E_v / E_d), lam = sigma_v^2 / (sigma_d^2 +
    sigma_v^2), with s in closed form.  From the lam of ``init`` (positive; default
    1/2) each pair descends to the nearest minimum of this profile cost by Newton
    steps kept in a bracket, none further than half the way to a root of a
    bin's model term; a point becomes the best only where the cost falls, and a
    step lands on 0 or 1 where going on gains under PROFILE_TOL (an exact zero
    variance).  A pair stops where a Newton step gains under PROFILE_TOL or after
    ``iters`` steps, with the bits it gets alone; one without observed power
    gets zero variances, costed at 1e-300 each.
    """
    pl, pr, ps, pw = (np.asarray(x, float) for x in (pzl, pzr, speech_env, noise_env))
    shape = np.broadcast_shapes(pl.shape, pr.shape, ps.shape, pw.shape)
    lead, k = shape[:-1], shape[-1]
    weights = np.full(k, 1.0 / k) if bin_weights is None else np.asarray(bin_weights, float)
    weights = weights / (total := weights.sum())  # the cost scales with it; the minimum does not
    sd, sv = (0.5, 0.5) if init is None else (np.asarray(v, float) for v in init)

    def rows(a):  # one row per pair
        return np.broadcast_to(a, shape).reshape(-1, k)

    fl, fr = _floored(pl), _floored(pr)
    silent = rows(np.vecdot(pl + pr, weights)[..., None] <= 0)[:, 0]
    data, best = np.empty((3, len(silent), k)), np.zeros((3, len(silent)))
    np.divide((fl + fr) * weights, ps, out=data[0].reshape(shape))
    np.divide(pw, ps, out=data[1].reshape(shape))
    np.subtract(data[1], 1.0, out=data[2])
    idx = np.flatnonzero(~silent)
    if silent.any():
        data = data[:, idx]
    work = np.empty_like(data)
    x = np.broadcast_to(sv / (sd + sv), lead).reshape(-1)[idx]
    # cur: lam, half cost, slope, curvature, u, spread at the last point; low: at lo, the best.
    cur = low = np.vstack((x, *_profile(x, data, weights, work)))
    hi, known = np.where(cur[2] < 0, 1.0, 0.0), np.zeros(len(x), bool)
    for step_no in range(iters + 1):
        (x, _, g, h), (lo, c_lo, g_lo, h_lo) = cur[:4], low[:4]
        # A Newton step inside the bracket, else the unseen boundary or the midpoint, no further
        # than half the way to a root of a v, ending on 0 or 1 if going on gains under PROFILE_TOL.
        newton = x + np.where(h > 0, -g / np.where(h > 0, h, 1.0), np.inf)
        inside = (newton - lo) * (newton - hi) < 0
        base, spread = np.where(inside, cur[[0, 5]], low[[0, 5]])
        reach = 0.5 / np.maximum(spread, 0.5)
        t = base + np.clip(np.where(inside, newton, np.where(known, 0.5 * (lo + hi), hi)) - base,
                           -reach, reach)
        t = np.where(_gain(t, g, h) <= PROFILE_TOL, 0.0,
                     np.where(_gain(1.0 - t, g, h) <= PROFILE_TOL, 1.0, t))
        # Done where a Newton step gains under PROFILE_TOL, the bracket no more, or t repeats.
        converged = (g * g <= PROFILE_TOL * np.maximum(h, 0.0)) & ((t == x) | (t > 0) & (t < 1))
        done = (converged | (t == lo) | known & (t == hi) | (step_no == iters)
                | (_gain(hi - lo, g_lo, h_lo) <= PROFILE_TOL))
        if done.any():
            best[:, idx[done]] = np.where(converged, cur[[0, 1, 4]], low[[0, 1, 4]])[:, done]
            keep = ~done
            idx, t, hi, known, cur, low = (a[..., keep] for a in (idx, t, hi, known, cur, low))
            data, lo, c_lo = data[:, keep], low[0], low[1]
            if not len(idx):
                break
        new = np.vstack((t, *_profile(t, data, weights, work[:, :len(t)])))
        above = new[1] > c_lo + 1e3 * np.finfo(float).eps * (1.0 + np.abs(c_lo))  # not rounding
        past = (new[2] * (hi - lo) > 0) | above
        hi, known, low = np.where(past, t, hi), known | past, np.where(past, low, new)
        cur = np.where(above, low, new)
    lam, c, u = best
    var = 0.5 * u * np.stack((1.0 - lam, lam))
    # At the closed-form scale sum w (F_l + F_r) / M is 2, so the cost is 2 (c - log 2) + logs.
    logs = np.vecdot(2.0 * np.log(ps) - np.log(fl) - np.log(fr), weights)
    cost = 2.0 * (c - np.log(2.0)) + rows(logs[..., None])[:, 0]
    if silent.any():  # F / M is 1 / (E_d + E_v) at both variances 1e-300
        ratio = 1.0 / (rows(ps)[silent] + rows(pw)[silent])
        cost[silent] = 2.0 * np.vecdot(ratio - np.log(ratio) - 1.0, weights)
    cost *= total
    return tuple(a.reshape(lead) if lead else float(a[0]) for a in (*var, cost))


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
        return entries
    return [compile_codebook(entries, k)] * n_frames


def _frame_groups(noise: list[CompiledCodebook], ns: int):
    """Slices of consecutive frames with one noise entry count, each of at
    most PAIR_BATCH_ROWS pairs, or of one frame where a frame has more."""
    first = 0
    while first < len(noise):
        nw = len(noise[first])
        cap = min(len(noise), first + max(1, PAIR_BATCH_ROWS // (ns * nw)))
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

    ``pzl`` and ``pzr`` hold one frame's spectra (K,) or a record's (F, K).
    Entries given as AR models go through ``compile_codebook``; compiled ones
    are compiled for K bins.  The speech entries serve every frame; the noise
    entries too, or they are a list of compiled sets of one order, one per
    frame.  A frame's AR shapes are averaged in the LSF domain under its pair
    weights, the normalized likelihoods, and its variances directly.  A frame
    gets the bits it gets alone.  A 1-D call returns an ``StpEstimate`` and
    fills ``diagnostics``; a record gives a list, one per frame, and appends
    one ``StpDiagnostics`` per frame.
    """
    one_frame = np.ndim(pzl) == 1
    pl_all, pr_all = (np.atleast_2d(np.asarray(x, float)) for x in (pzl, pzr))
    n_frames, k = pl_all.shape
    speech = (speech_entries if isinstance(speech_entries, CompiledCodebook)
              else compile_codebook(speech_entries, k))
    noise = _frame_entries(noise_entries, n_frames, k)
    if not n_frames:
        return []
    ns = len(speech)

    # The solve runs on the K//2 + 1 distinct bins of real spectra, weighted (1, 2, ..., 2, 1)/K
    # (no Nyquist bin for odd K).  Pair (i, j) of a frame is entry [i, j] of its results.
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
        for f, entries in enumerate(noise[group]):
            # Weights lie in [0, 1], the peak's 1; a non-finite peak's pair gets all the weight.
            log_weights = -0.5 * frame_len * cost[f]
            bi, bj = divmod(int(np.argmax(log_weights)), log_weights.shape[1])
            peak = log_weights[bi, bj]
            fallback = not np.isfinite(peak)
            weights = np.zeros(log_weights.shape) if fallback else np.exp(log_weights - peak)
            weights[bi, bj] = 1.0
            weights /= weights.sum()
            found.append(StpDiagnostics(bi, bj, float(peak), fallback, weights))
            speech_lsf.append(np.einsum("i,ij->j", weights.sum(axis=1), speech.lsfs))
            noise_lsf.append(np.einsum("i,ij->j", weights.sum(axis=0), entries.lsfs))
            variances.append([float((weights * var[f]).sum()) for var in (sig_d, sig_v)])
    speech_ar, noise_ar = (lsf_to_ar(np.sort(lsf, axis=1)) for lsf in (speech_lsf, noise_lsf))
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
    """Dual-channel noise PSD across frames, smoothed by ``DC_PSD_SMOOTHING``.

    The coherent (nose-direction) target cancels in the magnitude
    cross-spectrum subtraction; diffuse noise survives.  The channel
    spectra and the complex cross-spectrum are smoothed before taking
    the magnitude: averaging the complex cross-spectrum first lets the
    incoherent noise terms cancel, so |cross| converges to the coherent
    power instead of overestimating it.
    """

    def __init__(self):
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
            a = DC_PSD_SMOOTHING
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
    ``psd`` gives an ``ArModel`` or raises as ``levinson_durbin`` does, as on
    an all-zero PSD (r(0) = 0); an (N, K) array fits its rows in one recursion
    and returns ``levinson_durbin``'s ``(coefficients, variances, ok)``, each
    row's r by the same mat-vec as a 1-D call, so the fits are the same bits.
    """
    bins = np.asarray(psd, float)
    k = bins.shape[-1]
    phases = _inverse_dft_rows(order, k)
    r = np.real([phases @ row for row in bins.reshape(-1, k)]) / k
    return levinson_durbin(r[0] if bins.ndim == 1 else r)
