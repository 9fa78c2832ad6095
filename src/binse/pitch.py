"""Frontal two-ear harmonic-model pitch estimation.

Noisy frames are pre-whitened with the estimated noise AR coefficients,
converted to analytic signals, and matched against a harmonic model on a
dense fundamental-frequency grid.  Two ears are searched as a target in the
nose direction, as in the paper: one set of harmonic amplitudes, seen by
both ears with equal gains and no interaural delay.  The harmonic order per
candidate is chosen by a BIC-style penalized rule, and a harmonic-energy
voicing ratio gates the voiced/unvoiced decision.  Analytic frames carry no
energy at or above Nyquist, so each candidate fits only the harmonics below
pi.

The grid search is exact and factorizes no matrix per candidate (after
Nielsen, Jensen, Jensen, Christensen & Jensen, "Fast fundamental frequency
estimation", Signal Processing 2017).  Grid frequencies are integer
multiples of the grid step, so harmonic l of every candidate falls on a bin
of one ``sample_rate / grid_step_hz``-point DFT per ear, which yields the
projections V^H z of all candidates and orders.  As in that paper, the
model's time axis is centred on the frame's middle sample, so the Gram
matrices V^H V are real symmetric Toeplitz, and two ears' joint one is
twice an ear's.  They depend on the frame length, the grid and the order
cap, not on the data, so a compile step, cached per frame shape, runs the
Levinson recursion on one ear's once.  It stores, per group of candidates
with the same highest order, their real predictor triangles M as one dense
(count, order, order) array, and per candidate 1/eps, which two ears halve.
Each frame is then one FFT per ear, a gather of the harmonic bins times the
stored rotations, and one matmul per order group for M b and M p_left;
cumulative sums over the orders give the joint and per-ear residuals of
every candidate and order, with no loop over orders.
``check_pitch_grid`` rejects grids whose step does not divide the sample
rate and ``f_min``, grids finer than ``MAX_GRID_DFT_LEN`` bins, and
fundamentals at or above Nyquist.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .linpred import ArModel

VOICING_CLAMP = 0.95
DEFAULT_VOICING_THRESHOLD = 0.3
PARAMS_PER_HARMONIC = 3  # real, imaginary amplitude parts + frequency
# Samples dropped from each end of a frame before fitting: the FFT-based
# analytic-signal conversion leaks near the edges for frequencies that are not
# frame-periodic, which otherwise biases the estimate by up to a grid step.
EDGE_TRIM = 10
# A harmonic that keeps less than this share of its energy outside the span
# of the lower ones is not resolvable in the frame, and the candidate's order
# stops below it.  Frames of at least sample_rate / f_min samples stay far
# above it (>= 0.28 at 8 kHz, 80 Hz); shorter ones would otherwise reach
# harmonic sets that least squares cannot separate.
RESOLVABLE_FLOOR = 1e-2
# Grid steps below sample_rate / MAX_GRID_DFT_LEN (0.0076 Hz at 8 kHz) resolve nothing
# more, and the search keeps arrays over every grid point: 3.2e8 of them at 1e-6 Hz.
MAX_GRID_DFT_LEN = 2**20


@dataclass(frozen=True)
class PitchInfo:
    """Fundamental frequency estimate with voicing degree and harmonic order."""

    omega0: float  # rad/sample
    period_samples: int
    voicing: float
    harmonic_order: int

    @property
    def is_voiced(self) -> bool:
        return self.harmonic_order > 0


UNVOICED = PitchInfo(omega0=0.0, period_samples=0, voicing=0.0, harmonic_order=0)


def prewhiten(
    samples: npt.NDArray[np.float64],
    noise_ar: ArModel,
    history: npt.NDArray[np.float64] | None = None,
) -> npt.NDArray[np.float64]:
    """Inverse-filter a frame with the noise AR model so its noise is ~white.

    ``history`` supplies the Q samples preceding the frame (zeros if absent).
    """
    q = noise_ar.order
    hist = np.zeros(q) if history is None else np.asarray(history, float)
    if len(hist) < q:
        hist = np.concatenate((np.zeros(q - len(hist)), hist))
    padded = np.concatenate((hist[len(hist) - q :], samples))
    inv = noise_ar.inverse_filter()
    out = np.convolve(padded, inv)[q : q + len(samples)]
    return out


def map_order_select(costs: npt.NDArray[np.float64], n_obs: int) -> npt.NDArray[np.intp]:
    """Penalized order choice: argmin of cost(L) + 3L ln(n_obs) over L >= 1.

    ``costs[..., L-1]`` is the log-residual term n_obs * ln sigma^2(L)
    (summed over channels for the stacked estimator); one candidate per row.
    """
    orders = np.arange(1, costs.shape[-1] + 1)
    return np.argmin(costs + PARAMS_PER_HARMONIC * orders * np.log(n_obs), axis=-1) + 1


def check_pitch_grid(
    sample_rate: int, f_min: float, f_max: float, grid_step_hz: float
) -> int:
    """Validate a pitch grid and return its DFT length ``sample_rate / grid_step_hz``.

    Every fundamental must lie below Nyquist, where the search fits its
    harmonics.  The search reads harmonic projections off one DFT per ear,
    so every grid frequency must fall on a bin: both
    ``sample_rate / grid_step_hz`` and ``f_min / grid_step_hz`` have to be
    integers, and the DFT length at most ``MAX_GRID_DFT_LEN``.
    """
    if not 0.0 < f_min <= f_max < sample_rate / 2:
        raise ValueError(
            f"pitch range needs 0 < f_min <= f_max < {sample_rate / 2:g} (got {f_min}, {f_max})"
        )
    if not 0.0 < grid_step_hz < np.inf:
        raise ValueError(f"pitch grid step must be > 0 (got {grid_step_hz})")
    if not sample_rate / grid_step_hz < MAX_GRID_DFT_LEN + 0.5:
        raise ValueError(f"sample_rate / pitch grid step must be at most {MAX_GRID_DFT_LEN}")
    for name, ratio in (
        ("sample_rate", sample_rate / grid_step_hz),
        ("f_min", f_min / grid_step_hz),
    ):
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"{name} / pitch grid step must be an integer (got {ratio:.6g})"
            )
    return int(round(sample_rate / grid_step_hz))


def _dft_bins(z: npt.NDArray, n_fft: int) -> npt.NDArray[np.complex128]:
    """``sum_n z[n] exp(-2j pi q n / n_fft)`` for every bin q."""
    z = np.asarray(z, complex)
    if len(z) > n_fft:  # fold the frame so the short DFT stays exact
        z = np.pad(z, (0, -len(z) % n_fft)).reshape(-1, n_fft).sum(axis=0)
    return np.fft.fft(z, n_fft)


def _frozen(array: npt.NDArray) -> npt.NDArray:
    array.flags.writeable = False
    return array


def _centred_dirichlet(q, m: int, n_fft: int) -> npt.NDArray[np.float64]:
    """``sum_n exp(j w (n - (m - 1) / 2))`` over n < m at w = 2 pi q / n_fft, 0 <= q < n_fft / 2.

    The sum is the real sin(m w / 2) / sin(w / 2), m at q = 0.  q m is
    reduced modulo 2 n_fft in integers, so the sine's argument stays exact.
    """
    ratio = np.sin(np.pi * (q * m % (2 * n_fft)) / n_fft)
    return np.divide(ratio, np.sin(np.pi * q / n_fft), out=np.full(q.shape, float(m)),
                     where=q != 0)


def _predictors(r):
    """Levinson recursion on Hermitian Toeplitz matrices G given by their first rows ``r``.

    Returns ``(fitted, tri, eps)``, ``tri`` of the dtype of ``r``, so real
    for real symmetric G.  Row n of ``tri[c]`` is the reversed
    order-(n+1) forward predictor f_n (G f_n = eps_n e_1, f_n[0] = 1).  The
    least-squares fit of G a = b then grows from order n to n+1 by
    mu_n beta_n, with mu_n = (tri[c] @ b)[n] and the backward vector
    beta_n = conj(tri[c, n]) / eps_n, and its residual energy falls by
    |mu_n|^2 / eps_n.  ``fitted`` is each row's highest resolvable order:
    the recursion stops a row where the next harmonic's share of new
    energy, eps / G[0, 0], falls to ``RESOLVABLE_FLOOR``.  Entries past
    ``fitted`` are not fits.
    """
    rows, orders = r.shape
    rc = np.conj(r)
    f = np.zeros((rows, orders), r.dtype)
    f[:, 0] = 1.0
    tri = np.zeros((rows, orders, orders), r.dtype)
    tri[:, 0, 0] = 1.0
    eps = np.empty((rows, orders))
    eps[:, 0] = r[:, 0].real
    floor = RESOLVABLE_FLOOR * eps[:, 0]
    fitted = np.full(rows, orders)
    for n in range(1, orders):
        kappa = -np.einsum("ij,ij->i", rc[:, n:0:-1], f[:, :n]) / eps[:, n - 1]
        e = eps[:, n - 1] * (1.0 - np.abs(kappa) ** 2)
        fitted[(e <= floor) & (fitted > n)] = n
        frozen = fitted <= n  # keep the last well-posed predictor of these rows
        kappa[frozen] = 0.0
        e[frozen] = eps[frozen, n - 1]
        eps[:, n] = e
        f[:, 1 : n + 1] += kappa[:, None] * np.conj(f[:, n - 1 :: -1])
        tri[:, n, : n + 1] = f[:, n::-1]
    return fitted, tri, eps


@dataclass(frozen=True)
class _OrderGroup:
    """Candidates with ``order`` harmonics below the cap, flat entries [start, stop)."""

    order: int
    start: int
    stop: int
    predictors: npt.NDArray[np.float64]  # (count, order, order): lower triangles M


@dataclass(frozen=True)
class _CompiledSearch:
    """The data-free half of the pitch search for one frame shape and grid.

    The stored candidates, in grid order, are those with a harmonic below
    Nyquist.  The flat layout holds one entry per harmonic (or harmonic
    order) below Nyquist and the order cap of each stored candidate,
    candidate after candidate, grouped by that highest order.  Where a
    candidate's fits stop below it, its predictors are zero past the fitted
    order, so its residual past that order repeats the last fit's bit for bit.
    """

    n_fft: int
    omegas: npt.NDArray[np.float64]  # the stored candidates' fundamentals, rad/sample
    layout: npt.NDArray[np.bool_]  # (candidates, top order): the orders each one stores
    at_harmonics: npt.NDArray[np.intp]  # flat: the DFT bin of each harmonic
    rotations: npt.NDArray[np.complex128]  # (flat, 1): the centring rotation, for every ear
    inv_eps: npt.NDArray[np.float64]  # flat: 1 / eps_n of one ear
    groups: tuple[_OrderGroup, ...]

    def spread(self, flat):
        """Flat per-order terms as a (candidates, top order) array, zero past each candidate's."""
        out = np.zeros(self.layout.shape)
        out[self.layout] = flat
        return out


@functools.lru_cache(maxsize=1)  # a run searches frames of one shape
def _compile_search(
    m: int,
    sample_rate: int,
    f_min: float,
    f_max: float,
    grid_step_hz: float,
    max_order: int | None,
) -> _CompiledSearch:
    """All of the search that depends on the frame length and grid but not on the data.

    The harmonic model is fitted on a time axis centred on the frame's
    middle sample, (m - 1) / 2.  Harmonic l of a candidate then has
    amplitude exp(j l phi) times the one on the frame's own time axis, with
    phi = omega (m - 1) / 2, so each Gram row entry is real: the centred
    Dirichlet kernel D(d omega) = sin(m d omega / 2) / sin(d omega / 2).
    Frontal ears see the same harmonics, so the joint Gram matrix of two
    ears is twice the kernel, and one rotation per harmonic serves every
    ear.  Residual energies do not depend on phi.

    Per candidate: the real predictor triangle M and 1 / eps of
    ``_predictors`` on one ear's Gram matrix, zero past its fitted order.  On
    two ears' Levinson scales every step by exactly 2: M stays and 1 / eps halves.
    Harmonic l of grid point f_min + i * step sits on DFT bin (k0 + i) * l,
    so the Gram rows are Dirichlet-kernel samples.
    """
    n_fft = check_pitch_grid(sample_rate, f_min, f_max, grid_step_hz)
    f0_grid = np.arange(f_min, f_max + 0.5 * grid_step_hz, grid_step_hz)
    omegas = 2.0 * np.pi * f0_grid / sample_rate
    # Analytic frames carry no energy at or above pi, so no harmonic there.
    l_max = np.floor(np.pi / omegas).astype(int)
    l_max[l_max * omegas >= np.pi - 1e-9] -= 1
    if max_order is not None:
        l_max = np.minimum(l_max, max_order)
    # The Gram matrix of m samples is nonsingular only up to m harmonics.
    l_max = np.minimum(l_max, m)
    if not np.any(l_max >= 1):
        raise ValueError("no usable pitch candidates on the grid")
    bins = int(round(f_min / grid_step_hz)) + np.arange(len(f0_grid))

    # floor(pi / omega) and the caps only fall as f0 rises, so the usable
    # candidates are a prefix of the grid, grouped by highest order, largest
    # first.  The flat arrays are allocated before the per-order work so that
    # its transients do not pin memory between the cached arrays.  Every
    # harmonic lies below pi, so its bin, and each Gram row's, lies below
    # n_fft / 2 with no wrap.
    usable = np.count_nonzero(l_max >= 1)
    top, omegas, bins = l_max[:usable], omegas[:usable], bins[:usable]
    layout = np.arange(top[0]) < top[:, None]
    at_harmonics = np.repeat(bins, top) * (np.nonzero(layout)[1] + 1)
    # exp(j l omega (m - 1) / 2), its phase reduced modulo 2 pi in integers.
    rotations = np.exp(1j * np.pi * (at_harmonics * (m - 1) % (2 * n_fft)) / n_fft)[:, None]
    inv_eps = np.empty(at_harmonics.size)
    block = np.empty(int(np.sum(top**2)))  # M
    groups, first, start, dense = [], 0, 0, 0
    for order in np.unique(top)[::-1].tolist():
        count = np.count_nonzero(top == order)
        rows, stop = slice(first, first + count), start + count * order
        kernel = _centred_dirichlet(np.outer(bins[rows], np.arange(order)), m, n_fft)
        fitted, tri, eps = _predictors(kernel)
        tri[np.arange(order) >= fitted[:, None]] = 0.0  # mu = 0: the last fit repeats
        inv_eps[start:stop] = 1.0 / eps.ravel()
        predictors = block[dense : dense + tri.size].reshape(tri.shape)
        predictors[...] = tri
        groups.append(_OrderGroup(order, start, stop, _frozen(predictors)))
        first, start, dense = first + count, stop, dense + tri.size

    return _CompiledSearch(
        n_fft=n_fft,
        omegas=_frozen(omegas),
        layout=_frozen(layout),
        at_harmonics=_frozen(at_harmonics),
        rotations=_frozen(rotations),
        inv_eps=_frozen(inv_eps),
        groups=tuple(groups),
    )


def _residuals(search: _CompiledSearch, y_halves):
    """Residual energies of the nested fits of every stored candidate, and their fit terms.

    The residuals are (ears, candidates, orders); for two ears the first
    axis holds the left and the right residual.  Past a candidate's fitted
    order its last fit repeats.  mu = M b gives the joint drops
    |mu|^2 / eps.  The left residual is ||z_left||^2 + a^H T a
    - 2 Re(a^H p_left) with a = sum_n mu_n beta_n.  The left ear's Gram
    matrix T is half the joint one, under which the backward vectors are
    orthogonal with beta_n^H T beta_n = 1 / (2 eps_n), so a^H T a grows by
    half of each joint drop, and a^H p_left by conj(mu_n) (M p_left)_n /
    eps_n.  M b and M p_left are one matmul per order group, on the complex
    spectra viewed as pairs of reals.  The fit terms are the flat per-order
    increments of the joint fit energy ||H a||^2 and, for two ears, of the
    left ear's a^H T a; their running sums over a candidate's orders are
    the fitted harmonic energies.
    """
    spectra = np.stack(
        [_dft_bins(y, search.n_fft)[search.at_harmonics] for y in y_halves], axis=1
    )
    y = np.concatenate(y_halves)
    energy = float(np.vdot(y, y).real)
    spectra *= search.rotations
    inv_eps = search.inv_eps / len(y_halves)  # the joint Gram matrix's
    if len(y_halves) == 2:
        spectra[:, 1] += spectra[:, 0]  # p_left, b
    fit = np.empty_like(spectra)
    x, mx = spectra.view(float), fit.view(float)
    for g in search.groups:
        shape = (-1, g.order, x.shape[1])
        np.matmul(g.predictors, x[g.start : g.stop].reshape(shape),
                  out=mx[g.start : g.stop].reshape(shape))
    mu = fit[:, -1]
    drops = np.abs(mu) ** 2 * inv_eps
    out = np.empty((len(y_halves), *search.layout.shape))
    joint = np.cumsum(search.spread(drops), axis=1)
    np.subtract(energy, joint, out=joint)
    if len(y_halves) == 1:
        np.maximum(joint, 0.0, out=out[0])
        return out, (drops,)
    quad = 0.5 * drops
    lin = np.conj(mu) * fit[:, 0] * inv_eps
    energy_left = float(np.vdot(y_halves[0], y_halves[0]).real)
    top = np.cumsum(search.spread(quad - 2.0 * lin.real), axis=1)
    np.maximum(energy_left + top, 0.0, out=out[0])
    np.maximum(joint - out[0], 0.0, out=out[1])
    return out, (drops, quad)


def estimate_pitch(
    zl: npt.NDArray[np.complex128],
    zr: npt.NDArray[np.complex128] | None,
    sample_rate: int,
    f_min: float = 80.0,
    f_max: float = 400.0,
    grid_step_hz: float = 0.5,
    voicing_threshold: float = DEFAULT_VOICING_THRESHOLD,
    max_order: int | None = None,
) -> PitchInfo:
    """Grid-search ML fundamental-frequency estimate on analytic-signal frames.

    For each candidate the harmonic order is selected by the penalized
    rule; the winning candidate minimizes the summed per-channel
    log-residual variances.  Frames failing the voicing threshold come
    back unvoiced (order 0).  Two ears are searched as a frontal target, so
    ``zl`` and ``zr`` must have the same length.  Frames longer than
    4 * EDGE_TRIM lose EDGE_TRIM samples at each end before fitting.
    """
    if len(zl) > 4 * EDGE_TRIM:
        zl = zl[EDGE_TRIM:-EDGE_TRIM]
        if zr is not None:
            zr = zr[EDGE_TRIM:-EDGE_TRIM]
    m = len(zl)
    channels = 1 if zr is None else 2
    n_obs = channels * m
    y_halves = [np.asarray(zl, complex)] + ([] if zr is None else [np.asarray(zr, complex)])
    search = _compile_search(m, sample_rate, f_min, f_max, grid_step_hz, max_order)

    residuals, terms = _residuals(search, y_halves)
    log_sigma2 = residuals / m
    np.log(np.maximum(log_sigma2, 1e-300, out=log_sigma2), out=log_sigma2)
    # Past a candidate's fitted order the residuals repeat while the penalty grows, so
    # the penalized rule never picks there.
    orders = map_order_select(m * log_sigma2.sum(axis=0), n_obs)
    costs = log_sigma2[:, np.arange(len(orders)), orders - 1].sum(axis=0)

    best = None  # (cost, candidate)
    for index, cost in enumerate(costs.tolist()):
        if best is None or cost < best[0] - 1e-12:
            best = (cost, index)

    # The winner's fitted harmonic energy per ear, from the running sums of its fit terms.
    index = best[1]
    omega0, order = float(search.omegas[index]), int(orders[index])
    start = np.count_nonzero(search.layout[:index])
    fitted = [float(np.cumsum(t[start : start + order])[-1]) for t in terms]
    if channels == 2:
        fitted = [fitted[1], fitted[0] - fitted[1]]  # left: a^H T a; right: the rest of the joint fit
    ratios = []
    for harmonic, z in zip(fitted, y_halves):
        total = float(np.vdot(z, z).real)
        ratios.append(float(np.clip(harmonic / total, 0.0, VOICING_CLAMP)) if total > 0.0 else 0.0)
    voicing = sum(ratios) / channels
    if voicing < voicing_threshold:
        return UNVOICED
    period = int(round(2.0 * np.pi / omega0))
    return PitchInfo(
        omega0=omega0,
        period_samples=period,
        voicing=voicing,
        harmonic_order=order,
    )
