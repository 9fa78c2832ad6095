"""Directional harmonic-model pitch estimation.

Noisy frames are pre-whitened with the estimated noise AR coefficients,
converted to analytic signals, and matched against a harmonic model on a
dense fundamental-frequency grid.  The harmonic order per candidate is
chosen by a BIC-style penalized rule, and a harmonic-energy voicing ratio
gates the voiced/unvoiced decision.  Analytic frames carry no energy at or
above Nyquist, so each candidate fits only the harmonics below pi.

The grid search is exact and factorizes no matrix per candidate (after
Nielsen, Jensen, Jensen, Christensen & Jensen, "Fast fundamental frequency
estimation", Signal Processing 2017).  Grid frequencies are integer
multiples of the grid step, so harmonic l of every candidate falls on a bin
of one ``sample_rate / grid_step_hz``-point DFT per ear, which yields the
projections V^H z of all candidates and orders.  The Gram matrices V^H V are
Hermitian Toeplitz with Dirichlet-kernel entries and stay Toeplitz under the
linear-phase directivity gains, so a Levinson recursion, batched over
candidates, gives the joint and per-ear residuals of every order in O(L^2).
``check_pitch_grid`` rejects grids whose step does not divide the sample
rate and ``f_min``, and fundamentals at or above Nyquist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .linpred import ArModel

VOICING_CLAMP = 0.95
DEFAULT_VOICING_THRESHOLD = 0.3
PARAMS_PER_HARMONIC = 3  # real, imaginary amplitude parts + frequency
SEARCH_BLOCK = 128  # grid candidates per batch of the order recursion
# A harmonic that keeps less than this share of its energy outside the span
# of the lower ones is not resolvable in the frame, and the candidate's order
# stops below it.  Frames of at least sample_rate / f_min samples stay far
# above it (>= 0.28 at 8 kHz, 80 Hz); shorter ones would otherwise reach
# harmonic sets that least squares cannot separate.
RESOLVABLE_FLOOR = 1e-2


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


@dataclass(frozen=True)
class DirectivityModel:
    """Per-harmonic complex ear gains for a given fundamental frequency.

    ``gains(omega0, order)`` returns (left, right) complex vectors of
    length ``order``, or rows of them for an array of ``omega0``.  The
    default is free-field nose direction (all ones); ``delay_seconds``
    applies a pure interaural delay to the right ear.  The gains are linear
    in phase and constant in magnitude over the harmonics, which keeps the
    pitch search's Gram matrices Toeplitz.
    """

    delay_seconds: float = 0.0
    sample_rate: int = 8000
    magnitude_right: float = 1.0

    def gains(self, omega0, order: int):
        harmonics = np.multiply.outer(omega0, np.arange(1, order + 1))
        left = np.ones(harmonics.shape, dtype=complex)
        right = self.magnitude_right * np.exp(
            -1j * harmonics * self.delay_seconds * self.sample_rate
        )
        return left, right


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


def _harmonic_matrix(omega0: float, order: int, m: int) -> npt.NDArray[np.complex128]:
    n = np.arange(m)
    return np.exp(1j * omega0 * np.outer(n, np.arange(1, order + 1)))


def ml_amplitudes(
    zl: npt.NDArray[np.complex128],
    zr: npt.NDArray[np.complex128] | None,
    omega0: float,
    order: int,
    directivity: DirectivityModel | None = None,
) -> npt.NDArray[np.complex128]:
    """Least-squares harmonic amplitudes for the stacked two-ear system."""
    if order < 1:
        raise ValueError("order must be >= 1")
    m = len(zl)
    channels = 1 if zr is None else 2
    if channels * m < order:
        raise ValueError("system is underdetermined for this harmonic order")
    v = _harmonic_matrix(omega0, order, m)
    if zr is None:
        h, y = v, np.asarray(zl, complex)
    else:
        directivity = directivity or DirectivityModel()
        dl, dr = directivity.gains(omega0, order)
        h = np.vstack((v * dl, v * dr))
        y = np.concatenate((zl, zr))
    q, res, rank, _ = np.linalg.lstsq(h, y, rcond=None)
    if rank < order:
        raise ValueError(f"rank-deficient harmonic system (rank {rank} < {order})")
    return q


def map_order_select(
    per_order_costs: npt.NDArray[np.float64], n_obs: int
) -> int | npt.NDArray[np.intp]:
    """Penalized order choice: argmin of cost(L) + 3L ln(n_obs) over L >= 1.

    ``per_order_costs[L-1]`` is the log-residual term n_obs * ln sigma^2(L)
    (summed over channels for the stacked estimator).  A 2-D array is one
    candidate per row and gives an array of orders.
    """
    costs = np.asarray(per_order_costs, float)
    if costs.shape[-1] == 0:
        return 0
    orders = np.arange(1, costs.shape[-1] + 1)
    criterion = costs + PARAMS_PER_HARMONIC * orders * np.log(n_obs)
    picks = np.argmin(criterion, axis=-1) + 1
    return int(picks) if picks.ndim == 0 else picks


def degree_of_voicing(
    frame: npt.NDArray[np.complex128],
    omega0: float,
    order: int,
    amplitudes: npt.NDArray[np.complex128],
) -> float:
    """Harmonic-energy fraction ||V q||^2 / ||z||^2, clamped to [0, 0.95]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    total = float(np.vdot(frame, frame).real)
    if total <= 0.0:
        return 0.0
    recon = _harmonic_matrix(omega0, order, len(frame)) @ amplitudes
    ratio = float(np.vdot(recon, recon).real) / total
    return float(np.clip(ratio, 0.0, VOICING_CLAMP))


def check_pitch_grid(
    sample_rate: int, f_min: float, f_max: float, grid_step_hz: float
) -> int:
    """Validate a pitch grid and return its DFT length ``sample_rate / grid_step_hz``.

    Every fundamental must lie below Nyquist, where the search fits its
    harmonics.  The search reads harmonic projections off one DFT per ear,
    so every grid frequency must fall on a bin: both
    ``sample_rate / grid_step_hz`` and ``f_min / grid_step_hz`` have to be
    integers.
    """
    if not 0.0 < f_min <= f_max < sample_rate / 2:
        raise ValueError(
            f"pitch range needs 0 < f_min <= f_max < {sample_rate / 2:g} (got {f_min}, {f_max})"
        )
    if not 0.0 < grid_step_hz < np.inf:
        raise ValueError(f"pitch grid step must be > 0 (got {grid_step_hz})")
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


def _nested_residuals(b, r_joint, l_max, p_left=None, r_left=None):
    """Joint and left-ear residual terms of nested harmonic fits, orders 1..L.

    Each row is one candidate, and rows come sorted by their highest order
    ``l_max``, largest first, so that the candidates still active at an
    order are a leading block of rows.  ``b`` holds the stacked projections
    H^H y and ``r_joint`` the first row of the Hermitian Toeplitz Gram
    matrix G = H^H H.  A Levinson recursion keeps the forward predictor f
    (G f = eps e_1) and the least-squares amplitudes a; the order-(n+1) fit
    is ``[a; 0] + mu * beta`` with the backward vector beta = J conj(f) / eps
    and mu = b[n] - (G [a; 0])[n].

    Returns ``(fitted, drops, left)``.  ``fitted`` is each row's highest
    fitted order: ``l_max``, or lower where the next harmonic is not
    resolvable (its share of new energy, eps / G[0, 0], falls to
    ``RESOLVABLE_FLOOR``).  ``drops[:, n]`` is the fall in joint residual
    energy from order n to n+1 (|mu|^2 / eps).  When the left-ear
    projections ``p_left`` and Gram row ``r_left`` (of T) are given,
    ``left[:, n]`` = a^H T a - 2 Re(a^H p_left) at order n+1, so that the
    left residual is ||z_left||^2 + left; otherwise ``left`` is None.
    Keeping u = T f beside f (T beta = J conj(u) / eps) updates that
    quadratic form in O(n) per order.  Entries past ``fitted`` are not fits.
    """
    rows, orders = b.shape
    active_rows = np.count_nonzero(l_max[:, None] > np.arange(orders), axis=0)
    rc = np.conj(r_joint)
    f = np.zeros((rows, orders), complex)
    f[:, 0] = 1.0
    a = np.zeros((rows, orders), complex)
    eps = r_joint[:, 0].real.copy()
    floor = RESOLVABLE_FLOOR * eps
    fitted = l_max.copy()
    a[:, 0] = b[:, 0] / eps
    drops = np.zeros((rows, orders))
    drops[:, 0] = np.abs(b[:, 0]) ** 2 / eps
    split = p_left is not None
    if split:
        rlc = np.conj(r_left)
        u = np.zeros((rows, orders), complex)
        u[:, 0] = r_left[:, 0]
        lin = np.conj(a[:, 0]) * p_left[:, 0]
        quad = np.abs(a[:, 0]) ** 2 * r_left[:, 0].real
        left = np.zeros((rows, orders))
        left[:, 0] = quad - 2.0 * lin.real
    for n in range(1, orders):
        r = active_rows[n]
        fn, an, back = f[:r, :n], a[:r, :n], rc[:r, n:0:-1]
        kappa = -np.einsum("ij,ij->i", back, fn) / eps[:r]
        mu = b[:r, n] - np.einsum("ij,ij->i", back, an)
        e = eps[:r] * (1.0 - np.abs(kappa) ** 2)
        unresolved = (e <= floor[:r]) & (fitted[:r] > n)
        fitted[:r][unresolved] = n
        frozen = fitted[:r] <= n
        if frozen.any():  # keep the last well-posed fit of these rows
            kappa[frozen] = 0.0
            mu[frozen] = 0.0
            e[frozen] = eps[:r][frozen]
        eps[:r] = e
        if split:
            s = np.einsum("ij,ij->i", rlc[:r, n:0:-1], fn)
            u_rev = np.conj(u[:r, n - 1 :: -1])
            u[:r, n] = s
            u[:r, 0] += kappa * np.conj(s)
            u[:r, 1 : n + 1] += kappa[:, None] * u_rev
        f[:r, 1 : n + 1] += kappa[:, None] * np.conj(f[:r, n - 1 :: -1])
        drops[:r, n] = np.abs(mu) ** 2 / e
        if split:
            # conj(beta[i]) = f[n - i] / eps and conj((T beta)[i]) = u[n - i] / eps.
            cross = np.einsum("ij,ij->i", u[:r, n:0:-1], an) / e
            bp = np.einsum("ij,ij->i", f[:r, n::-1], p_left[:r, : n + 1]) / e
            btb = np.einsum("ij,ij->i", np.conj(f[:r, : n + 1]), u[:r, : n + 1]).real / e**2
            lin[:r] += np.conj(mu) * bp
            quad[:r] += 2.0 * (np.conj(mu) * cross).real + np.abs(mu) ** 2 * btb
            left[:r, n] = quad[:r] - 2.0 * lin[:r].real
        a[:r, : n + 1] += (mu / e)[:, None] * np.conj(f[:r, n::-1])
    return fitted, drops, (left if split else None)


def estimate_pitch(
    zl: npt.NDArray[np.complex128],
    zr: npt.NDArray[np.complex128] | None,
    sample_rate: int,
    f_min: float = 80.0,
    f_max: float = 400.0,
    grid_step_hz: float = 0.5,
    directivity: DirectivityModel | None = None,
    voicing_threshold: float = DEFAULT_VOICING_THRESHOLD,
    max_order: int | None = None,
    edge_trim: int = 10,
) -> PitchInfo:
    """Grid-search ML fundamental-frequency estimate on analytic-signal frames.

    For each candidate the harmonic order is selected by the penalized
    rule; the winning candidate minimizes the summed per-channel
    log-residual variances.  Frames failing the voicing threshold come
    back unvoiced (order 0).

    ``edge_trim`` samples are dropped from each frame end before fitting:
    the FFT-based analytic-signal conversion leaks near the edges for
    frequencies that are not frame-periodic, which otherwise biases the
    estimate by up to a grid step.
    """
    n_fft = check_pitch_grid(sample_rate, f_min, f_max, grid_step_hz)
    f0_grid = np.arange(f_min, f_max + 0.5 * grid_step_hz, grid_step_hz)
    if edge_trim and len(zl) > 4 * edge_trim:
        zl = zl[edge_trim:-edge_trim]
        if zr is not None:
            zr = zr[edge_trim:-edge_trim]
    m = len(zl)
    channels = 1 if zr is None else 2
    n_obs = channels * m
    directivity = directivity or DirectivityModel(sample_rate=sample_rate)
    y_halves = [np.asarray(zl, complex)] + ([] if zr is None else [np.asarray(zr, complex)])

    omegas = 2.0 * np.pi * f0_grid / sample_rate
    # Analytic frames carry no energy at or above pi, so no harmonic there.
    l_max = np.floor(np.pi / omegas).astype(int)
    l_max[l_max * omegas >= np.pi - 1e-9] -= 1
    if max_order is not None:
        l_max = np.minimum(l_max, max_order)
    # The Gram matrix of m samples is nonsingular only up to m harmonics.
    l_max = np.minimum(l_max, m)
    candidates = np.flatnonzero(l_max >= 1)
    if len(candidates) == 0:
        raise ValueError("no usable pitch candidates on the grid")

    # Harmonic l of grid point f_min + i * step sits on DFT bin (k0 + i) * l.
    bins = int(round(f_min / grid_step_hz)) + np.arange(len(f0_grid))
    spectra = [_dft_bins(z, n_fft) for z in y_halves]
    dirichlet = np.conj(_dft_bins(np.ones(m), n_fft))  # sum_n exp(+j w n)
    y = np.concatenate(y_halves)
    energy = float(np.vdot(y, y).real)
    energy_left = float(np.vdot(y_halves[0], y_halves[0]).real)

    costs = np.empty(len(f0_grid))
    orders = np.zeros(len(f0_grid), dtype=int)
    # Blocks of similar order keep the padding, and the working set, small.
    by_order = candidates[np.argsort(-l_max[candidates], kind="stable")]
    for lo in range(0, len(by_order), SEARCH_BLOCK):
        idx = by_order[lo : lo + SEARCH_BLOCK]
        harmonics = np.arange(1, l_max[idx[0]] + 1)
        at_harmonics = np.outer(bins[idx], harmonics) % n_fft
        kernel = dirichlet[np.outer(bins[idx], harmonics - 1) % n_fft]
        if channels == 1:
            fitted, drops, _ = _nested_residuals(
                spectra[0][at_harmonics], kernel, l_max[idx]
            )
            residuals = np.maximum(energy - np.cumsum(drops, axis=1), 0.0)[..., None]
        else:
            # Linear-phase, constant-magnitude gains keep every Gram matrix
            # Toeplitz: (D^H V^H V D)[k, l] = conj(d_1) d_(1+l-k) t(l-k).
            gains = directivity.gains(omegas[idx], len(harmonics))
            proj = [np.conj(d) * z[at_harmonics] for d, z in zip(gains, spectra)]
            gram = [np.conj(d[:, :1]) * d * kernel for d in gains]
            fitted, drops, left = _nested_residuals(
                proj[0] + proj[1], gram[0] + gram[1], l_max[idx], proj[0], gram[0]
            )
            top = np.maximum(energy_left + left, 0.0)
            bottom = np.maximum(energy - np.cumsum(drops, axis=1) - top, 0.0)
            residuals = np.stack((top, bottom), axis=-1)
        log_sigma2 = np.log(np.maximum(residuals / m, 1e-300))
        fits = harmonics <= fitted[:, None]
        log_terms = np.where(fits, m * log_sigma2.sum(axis=-1), np.inf)
        picked = map_order_select(log_terms, n_obs)
        orders[idx] = picked
        costs[idx] = log_sigma2[np.arange(len(idx)), picked - 1].sum(axis=-1)

    best = None  # (cost, omega0, order)
    for cost, omega0, order in zip(
        costs[candidates].tolist(), omegas[candidates].tolist(), orders[candidates].tolist()
    ):
        if best is None or cost < best[0] - 1e-12:
            best = (cost, omega0, order)

    _, omega0, order = best
    amps = ml_amplitudes(
        y_halves[0], y_halves[1] if channels == 2 else None, omega0, order, directivity
    )
    if channels == 2:
        dl, dr = directivity.gains(omega0, order)
        voicing = 0.5 * (
            degree_of_voicing(y_halves[0], omega0, order, amps * dl)
            + degree_of_voicing(y_halves[1], omega0, order, amps * dr)
        )
    else:
        voicing = degree_of_voicing(y_halves[0], omega0, order, amps)
    if voicing < voicing_threshold:
        return UNVOICED
    period = int(round(2.0 * np.pi / omega0))
    return PitchInfo(
        omega0=float(omega0),
        period_samples=period,
        voicing=float(voicing),
        harmonic_order=order,
    )
