"""Linear prediction toolbox: Levinson-Durbin, LSF conversions, AR envelopes.

AR coefficients are stored in prediction form throughout the package:
``s(n) = sum_i a_i s(n-i) + u(n)``, so the inverse (analysis) filter is
``A(z) = 1 - a_1 z^-1 - ... - a_P z^-P``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt


class NumericalDegeneracyError(ArithmeticError):
    """Raised when a recursion hits a numerically invalid configuration."""


@dataclass(frozen=True)
class ArModel:
    """AR coefficients (prediction form) plus excitation variance."""

    coefficients: npt.NDArray[np.float64]
    excitation_variance: float = 1.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("AR coefficients must be finite")
        if not np.isfinite(self.excitation_variance) or self.excitation_variance < 0:
            raise ValueError("excitation variance must be finite and >= 0")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def inverse_filter(self) -> npt.NDArray[np.float64]:
        """Analysis filter [1, -a_1, ..., -a_P]."""
        return np.concatenate(([1.0], -self.coefficients))

    def is_stable(self, margin: float = 0.0) -> bool:
        if self.order == 0:
            return True
        roots = np.roots(self.inverse_filter())
        return bool(np.all(np.abs(roots) < 1.0 - margin))


@dataclass(frozen=True)
class LsfVector:
    """Line spectral frequencies: strictly increasing, each in (0, pi)."""

    frequencies: npt.NDArray[np.float64]

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        if len(freqs) and not (
            np.all(freqs > 0.0)
            and np.all(freqs < np.pi)
            and np.all(np.diff(freqs) > 0.0)
        ):
            raise ValueError("LSFs must be strictly increasing within (0, pi)")
        object.__setattr__(self, "frequencies", freqs)

    @property
    def order(self) -> int:
        return len(self.frequencies)


def levinson_durbin(autocorr: npt.NDArray[np.float64]) -> ArModel:
    """Fit an AR model of order len(autocorr)-1 by the Levinson-Durbin recursion.

    Parameters
    ----------
    autocorr : array of r(0..P)

    Returns
    -------
    ArModel with the forward predictor coefficients and the final
    prediction-error variance.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    if r[0] <= 0:
        raise ValueError("autocorrelation r(0) must be positive")
    order = len(r) - 1
    a = np.zeros(order)
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])
        k = acc / err
        if abs(k) >= 1.0:
            raise NumericalDegeneracyError(
                f"reflection coefficient magnitude {abs(k):.6g} >= 1 at order {i}"
            )
        a_new = a.copy()
        a_new[i - 1] = k
        a_new[: i - 1] = a[: i - 1] - k * a[: i - 1][::-1]
        a = a_new
        err *= 1.0 - k * k
    return ArModel(a, float(err))


def _cosine_series(polys) -> npt.NDArray[np.float64]:
    """Cosine-series rows of palindromic even-degree polynomials.

    For symmetric coeffs c of length 2m+1, P(e^{-jw}) e^{jwm} is real and
    equals d_0 + sum_{j=1..m} d_j cos(j w) with d_0 = c_m, d_j = 2 c_{m-j}.
    Rows are zero-padded to the longest series.
    """
    width = max(len(c) - 1 for c in polys) // 2 + 1
    series = np.zeros((len(polys), width))
    for row, c in zip(series, polys):
        m = (len(c) - 1) // 2
        row[0] = c[m]
        row[1 : m + 1] = 2.0 * c[:m][::-1]
    return series


def _eval_cosine_series(series, cos_terms) -> npt.NDArray[np.float64]:
    """Sum series[..., 0] + series[..., j] * cos_terms[j] from the highest j down.

    The fixed descending order keeps every evaluation bit-identical, however
    many points are evaluated together; padded zero terms add exactly 0.
    """
    out = np.zeros(np.broadcast_shapes(series.shape[:-1], cos_terms.shape[1:]))
    out += series[..., 0]
    for j in range(series.shape[-1] - 1, 0, -1):
        out += series[..., j] * cos_terms[j]
    return out


def _unit_circle_roots(polys, n_grid=4096, tol=1e-12):
    """Angles in (0, pi) where any of the palindromic polynomials vanishes.

    Sign changes on an (n_grid+1)-point grid bracket the roots, and all
    brackets of all polynomials are bisected together to width ``tol``.
    """
    series = _cosine_series(polys)
    harmonics = np.arange(series.shape[1])[:, None]
    grid = np.linspace(0.0, np.pi, n_grid + 1)
    vals = _eval_cosine_series(series[:, None, :], np.cos(harmonics * grid)[:, None, :])
    flo, fhi = vals[:, :-1], vals[:, 1:]
    on_grid = (flo == 0.0) & (grid[:-1] > 0.0) & (grid[:-1] < np.pi)
    poly_idx, cell = np.nonzero((flo != 0.0) & (flo * fhi < 0.0))
    lo, hi, flo = grid[cell], grid[cell + 1], flo[poly_idx, cell]
    rows = series[poly_idx]
    active = hi - lo > tol
    while active.any():
        mid = 0.5 * (lo + hi)
        fmid = _eval_cosine_series(rows, np.cos(harmonics * mid))
        left = flo * fmid <= 0.0
        hi = np.where(active & left, mid, hi)
        move = active & ~left
        lo = np.where(move, mid, lo)
        flo = np.where(move, fmid, flo)
        active = hi - lo > tol
    return np.concatenate((grid[np.nonzero(on_grid)[1]], 0.5 * (lo + hi)))


def _deflate(poly, root: float) -> npt.NDArray[np.float64]:
    """Quotient of poly / (z - root) for root = +/-1, by synthetic division.

    q_k = a_k + root * q_{k-1}; for root = -1 the alternating signs fold
    into one cumulative sum.  Equal, term for term, to np.polydiv's loop.
    """
    if root == 1.0:
        return np.cumsum(poly[:-1])
    signs = np.where(np.arange(len(poly) - 1) % 2 == 0, 1.0, -1.0)
    return signs * np.cumsum(signs * poly[:-1])


def ar_to_lsf(model: ArModel) -> LsfVector:
    """Convert a stable AR model to line spectral frequencies."""
    if not model.is_stable():
        raise ValueError("AR model must be stable for LSF conversion")
    p = model.order
    a_ext = np.concatenate((model.inverse_filter(), [0.0]))  # degree P+1
    p_poly = a_ext + a_ext[::-1]
    q_poly = a_ext - a_ext[::-1]
    # Deflate the fixed roots at z = +/-1 so both polynomials become
    # palindromic with even degree.
    q_poly = _deflate(q_poly, 1.0)
    if p % 2 == 0:
        p_poly = _deflate(p_poly, -1.0)
    else:
        q_poly = _deflate(q_poly, -1.0)
    freqs = np.sort(_unit_circle_roots((p_poly, q_poly)))
    if len(freqs) != p:
        raise NumericalDegeneracyError(
            f"expected {p} line spectral frequencies, found {len(freqs)}"
        )
    return LsfVector(freqs)


def lsf_to_ar(lsf: LsfVector) -> ArModel:
    """Reconstruct the AR model (unit excitation variance) from its LSFs."""
    p = lsf.order
    freqs = lsf.frequencies
    # Interleaved ascending: even positions belong to the symmetric
    # polynomial, odd positions to the antisymmetric one.
    p_freqs = freqs[0::2]
    q_freqs = freqs[1::2]

    def from_angles(angles):
        poly = np.array([1.0])
        for w in angles:
            poly = np.convolve(poly, np.array([1.0, -2.0 * np.cos(w), 1.0]))
        return poly

    p_poly = from_angles(p_freqs)
    q_poly = from_angles(q_freqs)
    if p % 2 == 0:
        p_poly = np.convolve(p_poly, np.array([1.0, 1.0]))
        q_poly = np.convolve(q_poly, np.array([1.0, -1.0]))
    else:
        q_poly = np.convolve(q_poly, np.array([1.0, -1.0]))
        q_poly = np.convolve(q_poly, np.array([1.0, 1.0]))
    inverse = 0.5 * (p_poly + q_poly)[: p + 1]
    return ArModel(-inverse[1:], 1.0)


def ar_envelope(model: ArModel, dft_len: int) -> npt.NDArray[np.float64]:
    """Spectral envelope 1/|A(k)|^2 of the AR inverse filter over dft_len bins.

    A flat (zero-coefficient) model yields an all-ones envelope, consistent
    with a unit-variance white process whose periodogram has unit mean.
    """
    if dft_len < model.order + 1:
        raise ValueError("dft_len must be at least order+1")
    if not model.is_stable():
        raise ValueError("AR model must be stable")
    a_fft = np.fft.fft(model.inverse_filter(), n=dft_len)
    return 1.0 / np.abs(a_fft) ** 2
