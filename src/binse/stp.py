"""Codebook-driven binaural estimation of speech/noise short-term predictor parameters.

Per frame, every (speech entry, noise entry) pair gets maximum-likelihood
excitation variances by multiplicative updates on an Itakura-Saito cost;
pair weights combine the likelihood with excitation-variance priors, and
the final estimate is the weighted average (AR shapes averaged in the LSF
domain so the result stays stable).

Codebook entries never change between frames, so their LSF rows and their
envelopes on the periodogram grid are compiled once per run into a
``CompiledCodebook``; only the optional adaptive noise entry is converted
per frame.  The multiplicative updates of all S x W pairs of a frame run
as one batched array solve, each pair stopping on the iteration where it
would stop if solved alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from scipy.special import digamma, gammaln, polygamma

from .codebook import Codebook
from .linpred import ArModel, LsfVector, ar_envelope, ar_to_lsf, levinson_durbin, lsf_to_ar
from .signal_core import Spectrum

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
    converted with one ``ar_to_lsf`` call each.
    """
    if isinstance(entries, Codebook):
        lsfs = entries.entries
        models = entries.ar_models()
    else:
        models = list(entries)
        if not models:
            raise ValueError("codebooks must be non-empty")
        lsfs = np.array([ar_to_lsf(m).frequencies for m in models])
    envelopes = np.array([ar_envelope(m, dft_len) for m in models])
    return CompiledCodebook(lsfs, envelopes)


@dataclass(frozen=True)
class StpEstimate:
    """Joint speech+noise AR parameter estimate for one frame."""

    speech: ArModel
    noise: ArModel
    frame_index: int = 0

    def __post_init__(self):
        for model in (self.speech, self.noise):
            if not np.isfinite(model.excitation_variance) or model.excitation_variance < 0:
                raise ValueError("excitation variances must be finite and >= 0")


@dataclass(frozen=True)
class GammaPrior:
    """Gamma prior (shape, scale) on an excitation variance."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValueError("shape must be positive and finite")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")

    def log_pdf(self, x):
        """Log density; elementwise for an array, a float for a scalar."""
        x = np.asarray(x, float)
        k, z = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                x > 0, (k - 1) * np.log(x) - x / z - gammaln(k) - k * np.log(z), -np.inf
            )
        return float(out) if out.ndim == 0 else out


def _floored(observed: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    peak = observed.max() if len(observed) else 0.0
    if peak <= 0.0:
        return np.maximum(observed, 1e-300)
    return np.maximum(observed, OBSERVED_FLOOR_REL * peak)


def _mean_is(floored, modeled):
    """Mean IS divergence of a floored observed spectrum from each row of ``modeled``."""
    ratio = floored / modeled
    return np.mean(ratio - np.log(ratio) - 1.0, axis=-1)


def is_divergence(observed, modeled):
    """Mean Itakura-Saito divergence (1/K) sum [P/P^ - ln(P/P^) - 1].

    A float for a 1-D ``modeled``; one divergence per row for (N, K).
    """
    p = np.asarray(observed.bins if isinstance(observed, Spectrum) else observed, float)
    q = np.asarray(modeled.bins if isinstance(modeled, Spectrum) else modeled, float)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError("spectra must have equal length")
    if np.any(q <= 0):
        raise ValueError("modeled spectrum must be strictly positive")
    out = _mean_is(_floored(p), q)
    return float(out) if out.ndim == 0 else out


def ml_excitation_variances(
    pzl,
    pzr,
    speech_env: npt.NDArray[np.float64],
    noise_env: npt.NDArray[np.float64],
    init: tuple[float, float] | None = None,
    iters: int = MU_DEFAULT_ITERS,
):
    """Multiplicative-update ML estimation of (speech, noise) excitation variances.

    Minimizes the summed two-channel Itakura-Saito cost between the
    observed periodograms and ``sigma_d^2 * speech_env + sigma_v^2 * noise_env``.
    Returns (sigma_d2, sigma_v2, final_cost) as floats for 1-D envelopes.
    (N, K) envelopes fit N pairs at once and give three (N,) arrays.  Each
    pair stops on the iteration where it would stop alone: when its cost
    changes by less than MU_REL_TOL relative, when both its variances reach
    zero, or after ``iters`` updates.
    """
    pl = np.asarray(pzl.bins if isinstance(pzl, Spectrum) else pzl, float)
    pr = np.asarray(pzr.bins if isinstance(pzr, Spectrum) else pzr, float)
    ps = np.asarray(speech_env, float)
    pw = np.asarray(noise_env, float)
    if np.any(ps <= 0) or np.any(pw <= 0):
        raise ValueError("envelopes must be strictly positive")
    single = ps.ndim == pw.ndim == 1
    ps, pw = np.broadcast_arrays(np.atleast_2d(ps), np.atleast_2d(pw))
    total = pl + pr
    if init is None:
        mean_power = float(total.mean()) / 2.0
        sd0 = sv0 = max(mean_power / 2.0, 1e-12)
    else:
        sd0, sv0 = init
        if sd0 <= 0 or sv0 <= 0:
            raise ValueError("initial variances must be positive")
    floor_l, floor_r = _floored(pl), _floored(pr)

    def cost(sd_, sv_, rows):
        modeled = sd_[:, None] * ps[rows] + sv_[:, None] * pw[rows]
        return _mean_is(floor_l, modeled) + _mean_is(floor_r, modeled)

    sd = np.full(len(ps), float(sd0))
    sv = np.full(len(ps), float(sv0))
    prev = cost(sd, sv, slice(None))
    active = np.arange(len(ps))
    for _ in range(iters):
        if not len(active):
            break
        a_ps, a_pw = ps[active], pw[active]
        inv = 1.0 / (sd[active, None] * a_ps + sv[active, None] * a_pw)
        weighted = inv * inv * total
        sd[active] = sd[active] * np.einsum("ij,ij->i", a_ps, weighted) / (
            2.0 * np.einsum("ij,ij->i", a_ps, inv)
        )
        sv[active] = sv[active] * np.einsum("ij,ij->i", a_pw, weighted) / (
            2.0 * np.einsum("ij,ij->i", a_pw, inv)
        )
        # A pair whose variances both reach zero (a silent frame) stops as is.
        active = active[~((sd[active] <= 0) & (sv[active] <= 0))]
        sd[active] = np.maximum(sd[active], 0.0)
        sv[active] = np.maximum(sv[active], 0.0)
        cur = cost(np.maximum(sd[active], 1e-300), np.maximum(sv[active], 1e-300), active)
        base = prev[active]
        prev[active] = cur
        active = active[~(np.abs(base - cur) < MU_REL_TOL * np.maximum(np.abs(base), 1e-30))]
    if single:
        return float(sd[0]), float(sv[0]), float(prev[0])
    return sd, sv, prev


def pair_log_likelihood(pzl, pzr, modeled, frame_len: int):
    """Unnormalized log-likelihood -(M/2)[d_IS(l) + d_IS(r)], per row of a 2-D ``modeled``."""
    return -0.5 * frame_len * (is_divergence(pzl, modeled) + is_divergence(pzr, modeled))


def pair_likelihood(pzl, pzr, modeled, frame_len: int) -> float:
    """Unnormalized pair likelihood exp(-(M/2)[d_IS(l)+d_IS(r)])."""
    return float(np.exp(pair_log_likelihood(pzl, pzr, modeled, frame_len)))


@dataclass
class StpDiagnostics:
    best_speech_index: int = -1
    best_noise_index: int = -1
    best_log_weight: float = -np.inf
    underflow_fallback: bool = False
    weights: npt.NDArray[np.float64] | None = None  # normalized (ns, nw) posterior


def estimate_stp(
    pzl: Spectrum,
    pzr: Spectrum,
    speech_entries: CompiledCodebook | Sequence[ArModel],
    noise_entries: CompiledCodebook | Sequence[ArModel],
    frame_len: int,
    noise_var_prior: GammaPrior | None = None,
    mu_iters: int = MU_DEFAULT_ITERS,
    frame_index: int = 0,
    diagnostics: StpDiagnostics | None = None,
    adaptive_noise: ArModel | None = None,
) -> StpEstimate:
    """MMSE estimate of the joint STP vector over the codebook pair grid.

    Entries given as lists of AR models go through ``compile_codebook``.
    ``adaptive_noise``, when given, joins the noise entries as the last one.
    AR shapes are averaged in the LSF domain under the posterior pair
    weights; excitation variances are averaged directly.  The prior on the
    speech variance is uniform; the noise variance optionally carries a
    Gamma prior.
    """
    if len(pzl) != len(pzr):
        raise ValueError("channel spectra must have equal length")
    k = len(pzl)
    speech, noise = (
        e if isinstance(e, CompiledCodebook) else compile_codebook(e, k)
        for e in (speech_entries, noise_entries)
    )
    if adaptive_noise is not None:
        extra = compile_codebook([adaptive_noise], k)
        noise = CompiledCodebook(
            np.vstack((noise.lsfs, extra.lsfs)), np.vstack((noise.envelopes, extra.envelopes))
        )
    if speech.envelopes.shape[1] != k or noise.envelopes.shape[1] != k:
        raise ValueError(f"codebooks compiled for another DFT length than {k}")
    ns, nw = len(speech), len(noise)

    # Pair (i, j) is row i * nw + j.
    ps = np.repeat(speech.envelopes, nw, axis=0)
    pw = np.tile(noise.envelopes, (ns, 1))
    sig_d, sig_v, _ = ml_excitation_variances(pzl, pzr, ps, pw, iters=mu_iters)
    modeled = np.maximum(sig_d, 1e-300)[:, None] * ps + np.maximum(sig_v, 1e-300)[:, None] * pw
    log_weights = pair_log_likelihood(pzl, pzr, modeled, frame_len)
    if noise_var_prior is not None:
        log_weights = log_weights + noise_var_prior.log_pdf(sig_v)
    log_weights = log_weights.reshape(ns, nw)
    sig_d = sig_d.reshape(ns, nw)
    sig_v = sig_v.reshape(ns, nw)

    best_flat = int(np.argmax(log_weights))
    bi, bj = divmod(best_flat, nw)
    peak = log_weights[bi, bj]
    fallback = False
    if not np.isfinite(peak):
        weights = np.zeros((ns, nw))
        weights[bi, bj] = 1.0
        fallback = True
    else:
        weights = np.exp(log_weights - peak)
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            weights = np.zeros((ns, nw))
            weights[bi, bj] = 1.0
            fallback = True
        else:
            weights /= total

    if diagnostics is not None:
        diagnostics.best_speech_index = bi
        diagnostics.best_noise_index = bj
        diagnostics.best_log_weight = float(peak)
        diagnostics.underflow_fallback = fallback
        diagnostics.weights = weights.copy()

    w_speech = weights.sum(axis=1)
    w_noise = weights.sum(axis=0)
    avg_speech_lsf = np.einsum("i,ij->j", w_speech, speech.lsfs)
    avg_noise_lsf = np.einsum("i,ij->j", w_noise, noise.lsfs)
    speech_model = lsf_to_ar(LsfVector(np.sort(avg_speech_lsf)))
    noise_model = lsf_to_ar(LsfVector(np.sort(avg_noise_lsf)))
    avg_sd = float((weights * sig_d).sum())
    avg_sv = float((weights * sig_v).sum())
    return StpEstimate(
        speech=ArModel(speech_model.coefficients, avg_sd),
        noise=ArModel(noise_model.coefficients, avg_sv),
        frame_index=frame_index,
    )


def dual_channel_noise_psd_raw(pzl, pzr, cross) -> npt.NDArray[np.float64]:
    """Instantaneous magnitude-cross-spectrum noise PSD estimate (floored)."""
    pl = np.asarray(pzl.bins if isinstance(pzl, Spectrum) else pzl, float)
    pr = np.asarray(pzr.bins if isinstance(pzr, Spectrum) else pzr, float)
    cx = np.asarray(cross)
    if not (len(pl) == len(pr) == len(cx)):
        raise ValueError("spectra and cross-spectrum must have equal length")
    mean_power = 0.5 * (pl + pr)
    return np.maximum(mean_power - np.abs(cx), DC_PSD_FLOOR * mean_power)


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

    def update(self, pzl, pzr, cross) -> Spectrum:
        pl = np.asarray(pzl.bins if isinstance(pzl, Spectrum) else pzl, float)
        pr = np.asarray(pzr.bins if isinstance(pzr, Spectrum) else pzr, float)
        cx = np.asarray(cross, complex)
        mean_power = 0.5 * (pl + pr)
        if self._mean_power is None:
            self._mean_power = mean_power
            self._cross = cx
        else:
            a = self.smoothing
            self._mean_power = a * self._mean_power + (1.0 - a) * mean_power
            self._cross = a * self._cross + (1.0 - a) * cx
        psd = np.maximum(
            self._mean_power - np.abs(self._cross),
            DC_PSD_FLOOR * self._mean_power,
        )
        return Spectrum(psd)


def noise_psd_to_ar(psd: Spectrum, order: int) -> ArModel:
    """Fit an AR model to a noise PSD via inverse-DFT autocorrelation.

    r(q) = (1/K) sum_k P(k) exp(i 2 pi q k / K), q = 0..order, then
    Levinson-Durbin.  The 1/K factor keeps r(0) equal to the mean PSD so
    the fitted excitation variance lives on the periodogram scale.
    """
    bins = psd.bins
    if np.all(bins == 0):
        raise ValueError("PSD must not be all-zero")
    k = len(bins)
    q = np.arange(order + 1)
    phases = np.exp(2j * np.pi * np.outer(q, np.arange(k)) / k)
    r = np.real(phases @ bins) / k
    return levinson_durbin(r)


def fit_gamma_prior(variance_samples) -> GammaPrior:
    """Maximum-likelihood Gamma fit via Newton iteration on the digamma equation."""
    x = np.asarray(variance_samples, float)
    if len(x) < 10:
        raise ValueError("need at least 10 samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    mean = x.mean()
    log_mean = np.log(x).mean()
    s = np.log(mean) - log_mean
    if s < 1e-12:
        import warnings

        warnings.warn("near-constant samples: degenerate Gamma fit", RuntimeWarning)
        s = 1e-12
    # Minka's initialization, then Newton on ln(k) - psi(k) = s.
    k = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(100):
        f = np.log(k) - digamma(k) - s
        fp = 1.0 / k - polygamma(1, k)
        step = f / fp
        k_new = k - step
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) < 1e-12 * k:
            k = k_new
            break
        k = k_new
    return GammaPrior(shape=float(k), scale=float(mean / k))
