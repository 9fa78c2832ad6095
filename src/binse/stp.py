"""Codebook-driven binaural estimation of speech/noise short-term predictor parameters.

Per frame, every (speech entry, noise entry) pair gets maximum-likelihood
excitation variances by multiplicative updates on an Itakura-Saito cost;
pair weights are the likelihoods under uniform priors on both excitation
variances, and the final estimate is the weighted average (AR shapes
averaged in the LSF domain so the result stays stable).  Spectra are plain
arrays of K bins.

Codebook entries never change between frames, so their LSF rows and their
envelopes on the periodogram grid are compiled once per run into a
``CompiledCodebook``; the caller compiles a record's adaptive noise
entries together and appends each frame's row to its noise entries.  The
multiplicative updates of all S x W pairs of a frame run as one batched
array solve on the K/2 + 1 distinct bins of the real spectra, weighted
(1, 2, ..., 2, 1)/K, each pair stopping on the iteration where it would
stop if solved alone.  An iteration forms each pair's modeled spectrum and
its reciprocal once, for the cost and the next update, and the final costs
give the pair weights.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .codebook import Codebook
from .linpred import ArModel, LsfVector, ar_to_lsf, levinson_durbin, lsf_to_ar

OBSERVED_FLOOR_REL = 1e-12
MU_DEFAULT_ITERS = 50
MU_REL_TOL = 1e-6
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
    peak = observed.max() if len(observed) else 0.0
    if peak <= 0.0:
        return np.maximum(observed, 1e-300)
    return np.maximum(observed, OBSERVED_FLOOR_REL * peak)


def _weighted_is(floors, inv, weights):
    """Weighted two-channel IS cost per row, from the (2, 1, H) floored spectra and 1/modeled."""
    ratio = floors * inv
    ratio -= np.log(ratio)
    ratio -= 1.0
    return ratio[0] @ weights + ratio[1] @ weights


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
    init: tuple[float, float] | None = None,
    iters: int = MU_DEFAULT_ITERS,
    bin_weights: npt.NDArray[np.float64] | None = None,
):
    """Multiplicative-update ML estimation of (speech, noise) excitation variances.

    Minimizes the summed two-channel Itakura-Saito cost between the
    observed periodograms and ``sigma_d^2 * speech_env + sigma_v^2 * noise_env``,
    a ``bin_weights``-weighted sum over bins (default: the plain mean).
    Returns (sigma_d2, sigma_v2, final_cost) as floats for 1-D envelopes;
    envelopes whose leading axes broadcast to a shape L fit one pair per
    index of L and give three arrays of that shape.  Each pair stops on the
    iteration where it would stop alone: when its cost changes by less than
    MU_REL_TOL relative, when both its variances reach zero (keeping the
    cost from before that update), or after ``iters`` updates.
    """
    pl, pr, ps, pw = (np.asarray(x, float) for x in (pzl, pzr, speech_env, noise_env))
    if np.any(ps <= 0) or np.any(pw <= 0):
        raise ValueError("envelopes must be strictly positive")
    *lead, k = np.broadcast_shapes(ps.shape, pw.shape)
    weights = np.full(k, 1.0 / k) if bin_weights is None else np.asarray(bin_weights, float)
    total = pl + pr
    if init is None:
        sd0 = sv0 = max(float(total @ weights) / 4.0, 1e-12)
    else:
        sd0, sv0 = init
        if sd0 <= 0 or sv0 <= 0:
            raise ValueError("initial variances must be positive")
    floors = np.stack((_floored(pl), _floored(pr)))[:, None, :]

    # Row n holds pair n's (speech, noise) envelopes and variances.
    env = np.stack(np.broadcast_arrays(ps, pw), axis=-2).reshape(-1, 2, k)
    var = np.tile([float(sd0), float(sv0)], (len(env), 1))
    inv = 1.0 / np.einsum("nc,nck->nk", var, env)
    cost = _weighted_is(floors, inv, weights)
    out_var, out_cost = var.copy(), cost.copy()
    rows = np.arange(len(env))
    for _ in range(iters):
        if not len(rows):
            break
        w_inv = inv * weights
        grad = w_inv * inv
        grad *= total
        var = np.maximum(var * np.einsum("nck,nk->nc", env, grad)
                         / (2.0 * np.einsum("nck,nk->nc", env, w_inv)), 0.0)
        inv = 1.0 / np.einsum("nc,nck->nk", np.maximum(var, 1e-300), env)
        # A pair whose variances both reach zero (a silent frame) stops with
        # the cost from before this update.
        zero = (var <= 0).all(axis=1)
        cur = np.where(zero, cost, _weighted_is(floors, inv, weights))
        moving = ~(zero | (np.abs(cost - cur) < MU_REL_TOL * np.maximum(np.abs(cost), 1e-30)))
        cost = cur
        if not moving.all():
            out_var[rows], out_cost[rows] = var, cost
            rows, env, var, cost, inv = (a[moving] for a in (rows, env, var, cost, inv))
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


def estimate_stp(
    pzl: npt.ArrayLike,
    pzr: npt.ArrayLike,
    speech_entries: CompiledCodebook | Sequence[ArModel],
    noise_entries: CompiledCodebook | Sequence[ArModel],
    frame_len: int,
    diagnostics: StpDiagnostics | None = None,
) -> StpEstimate:
    """MMSE estimate of the joint STP vector over the codebook pair grid.

    Entries given as lists of AR models go through ``compile_codebook``.
    AR shapes are averaged in the LSF domain under the posterior pair
    weights; excitation variances are averaged directly.  Both excitation
    variances have uniform priors, so a pair's weight is its normalized
    likelihood.
    """
    if len(pzl) != len(pzr):
        raise ValueError("channel spectra must have equal length")
    k = len(pzl)
    speech, noise = (
        e if isinstance(e, CompiledCodebook) else compile_codebook(e, k)
        for e in (speech_entries, noise_entries)
    )
    if speech.envelopes.shape[1] != k or noise.envelopes.shape[1] != k:
        raise ValueError(f"codebooks compiled for another DFT length than {k}")
    ns, nw = len(speech), len(noise)

    # Real spectra repeat their bins, so the solve runs on the K//2 + 1
    # distinct ones, weighted (1, 2, ..., 2, 1)/K (no Nyquist bin for odd K).
    # Pair (i, j) is entry [i, j] of the (ns, nw) results.
    half = k // 2 + 1
    bins = np.full(half, 2.0 / k)
    bins[0], bins[-1] = 1.0 / k, (1.0 + k % 2) / k
    pl, pr = np.asarray(pzl, float)[:half], np.asarray(pzr, float)[:half]
    ps, pw = speech.envelopes[:, None, :half], noise.envelopes[None, :, :half]
    sig_d, sig_v, cost = ml_excitation_variances(pl, pr, ps, pw, bin_weights=bins)
    silent = (sig_d <= 0) & (sig_v <= 0)
    if silent.any():  # the solve keeps their cost from before the last update
        floors = np.stack((_floored(pl), _floored(pr)))[:, None, :]
        cost[silent] = _weighted_is(floors, 1.0 / (1e-300 * ps + 1e-300 * pw)[silent], bins)
    log_weights = -0.5 * frame_len * cost

    # With a finite peak every weight lies in [0, 1] and the peak's is 1.
    bi, bj = divmod(int(np.argmax(log_weights)), nw)
    peak = log_weights[bi, bj]
    fallback = not np.isfinite(peak)
    if fallback:
        weights = np.zeros((ns, nw))
        weights[bi, bj] = 1.0
    else:
        weights = np.exp(log_weights - peak)
        weights /= weights.sum()

    if diagnostics is not None:
        diagnostics.best_speech_index = bi
        diagnostics.best_noise_index = bj
        diagnostics.best_log_weight = float(peak)
        diagnostics.underflow_fallback = fallback
        diagnostics.weights = weights.copy()

    speech_lsf = np.einsum("i,ij->j", weights.sum(axis=1), speech.lsfs)
    noise_lsf = np.einsum("i,ij->j", weights.sum(axis=0), noise.lsfs)
    return StpEstimate(
        speech=ArModel(lsf_to_ar(LsfVector(np.sort(speech_lsf))).coefficients,
                       float((weights * sig_d).sum())),
        noise=ArModel(lsf_to_ar(LsfVector(np.sort(noise_lsf))).coefficients,
                      float((weights * sig_v).sum())),
    )


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
