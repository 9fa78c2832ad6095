"""Linear prediction toolbox: Levinson-Durbin, LSF conversions, AR envelopes.

AR coefficients are stored in prediction form throughout the package:
``s(n) = sum_i a_i s(n-i) + u(n)``, so the inverse (analysis) filter is
``A(z) = 1 - a_1 z^-1 - ... - a_P z^-P``.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    def is_stable(self) -> bool:
        if self.order == 0:
            return True
        return bool(np.all(np.abs(np.roots(self.inverse_filter())) < 1.0))


def levinson_durbin(autocorr: npt.NDArray[np.float64]):
    """Fit AR models of order P by the Levinson-Durbin recursion on r(0..P).

    A 1-D ``autocorr`` gives an ``ArModel`` with the forward predictor
    coefficients and the final prediction-error variance.  It raises
    ``ValueError`` where r(0) <= 0 or the fit is not finite, and
    ``NumericalDegeneracyError`` where a reflection coefficient reaches
    magnitude 1.  An (N, P+1) array runs one recursion over its rows and
    returns ``(coefficients, variances, ok)``, of shapes (N, P), (N,) and
    (N,); ``ok`` is false on the rows that would raise, and their values are
    not fits.  A 1-D call is the one-row case of the same arithmetic.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    rows = r.reshape(-1, r.shape[-1])
    order = rows.shape[1] - 1
    ok = ~(rows[:, 0] <= 0)  # a NaN r(0) fails as a non-finite fit
    if r.ndim == 1 and not ok[0]:
        raise ValueError("autocorrelation r(0) must be positive")
    reversed_r = rows[:, :0:-1].copy()  # r(P..1), so each dot product reads forward
    a = np.zeros((len(rows), order))
    err = rows[:, 0].copy()
    with np.errstate(all="ignore"):  # failed rows run on as garbage and are flagged, not warned
        for i in range(1, order + 1):
            acc = rows[:, i] - (a[:, None, : i - 1] @ reversed_r[:, order - i + 1 :, None])[:, 0, 0]
            k = acc / err
            if r.ndim == 1 and abs(k[0]) >= 1.0:
                raise NumericalDegeneracyError(
                    f"reflection coefficient magnitude {abs(k[0]):.6g} >= 1 at order {i}"
                )
            ok &= ~(np.abs(k) >= 1.0)
            a[:, : i - 1] -= k[:, None] * a[:, : i - 1][:, ::-1]
            a[:, i - 1] = k
            err *= 1.0 - k * k
    ok &= np.isfinite(err) & np.all(np.isfinite(a), axis=1)
    if r.ndim == 1:
        return ArModel(a[0], float(err[0]))
    return a, err, ok


def valid_lsf_rows(freqs) -> npt.NDArray[np.bool_]:
    """Whether each row (last axis) is strictly increasing within (0, pi)."""
    inside = np.all((freqs > 0.0) & (freqs < np.pi), axis=-1)
    return inside & np.all(np.diff(freqs, axis=-1) > 0.0, axis=-1)


def _deflate(poly, root: float) -> npt.NDArray[np.float64]:
    """Quotient of each row of poly by (z - root) for root = +/-1, by synthetic division.

    q_k = a_k + root * q_{k-1}; for root = -1 the alternating signs fold
    into one cumulative sum.  Equal, term for term, to np.polydiv's loop.
    """
    if root == 1.0:
        return np.cumsum(poly[..., :-1], axis=-1)
    signs = np.where(np.arange(poly.shape[-1] - 1) % 2 == 0, 1.0, -1.0)
    return signs * np.cumsum(signs * poly[..., :-1], axis=-1)


def _cosine_series(coeffs) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Cosine series of the sum and difference polynomials of each row's A(z).

    With A(z) extended to degree P+1, P(z) = A(z) + z^-(P+1) A(1/z) and
    Q(z) = A(z) - z^-(P+1) A(1/z); their fixed roots at z = +/-1 are
    deflated so both are palindromic of even degree.  For symmetric c of
    length 2m+1, C(e^{-jw}) e^{jwm} = d_0 + sum_{j=1..m} d_j cos(j w) with
    d_0 = c_m and d_j = 2 c_{m-j}.  The sum series has m = (P+1)//2 terms
    past d_0 and the difference series P//2, one per root in (0, pi).
    """
    n = len(coeffs)
    a_ext = np.concatenate((np.ones((n, 1)), -coeffs, np.zeros((n, 1))), axis=1)
    p_poly = a_ext + a_ext[:, ::-1]
    q_poly = _deflate(a_ext - a_ext[:, ::-1], 1.0)
    if coeffs.shape[1] % 2 == 0:
        p_poly = _deflate(p_poly, -1.0)
    else:
        q_poly = _deflate(q_poly, -1.0)
    series = []
    for c in (p_poly, q_poly):
        m = (c.shape[1] - 1) // 2
        series.append(np.concatenate((c[:, m : m + 1], 2.0 * c[:, :m][:, ::-1]), axis=1))
    return series[0], series[1]


def _series_roots(series) -> npt.NDArray[np.float64]:
    """Angles w where each row's series sum_j d_j cos(j w) vanishes, (n, m), unsorted.

    With x = cos w the series is the Chebyshev series sum_j d_j T_j(x), whose
    roots are the eigenvalues of its colleague matrix, scaled as
    ``np.polynomial.chebyshev.chebcompanion`` builds it (d_m = 2 is never
    zero).  The eigenvalues of all rows come from one stacked call; each
    angle then takes one Newton step in w.  A row whose series lacks m
    distinct roots in (-1, 1) gives angles that ``valid_lsf_rows`` rejects.
    """
    n, m = series.shape[0], series.shape[1] - 1
    if m == 0:
        return np.empty((n, 0))
    weight = np.full(m, 0.5)  # the scaling makes every coupling 1/2, but sqrt(1/2) at T_0
    weight[0] = np.sqrt(0.5) if m > 1 else 1.0  # m = 1: the matrix is the root, -d_0 / d_1
    colleague = np.zeros((n, m, m))
    inner = np.arange(m - 1)
    colleague[:, inner, inner + 1] = colleague[:, inner + 1, inner] = weight[:-1]
    colleague[:, :, -1] -= series[:, :-1] / series[:, -1:] * weight
    x = np.linalg.eigvals(colleague).real
    w = np.arccos(np.clip(x, -1.0, 1.0))
    harmonics = np.arange(m, -1, -1)  # highest first: halves the worst error against exact roots
    terms = series[:, None, ::-1]
    jw = harmonics * w[..., None]
    value = np.sum(terms * np.cos(jw), axis=-1)
    slope = np.sum(harmonics * terms * np.sin(jw), axis=-1)  # -d value / dw
    # slope is 0 at w = 0 (an eigenvalue clipped to 1); that angle is left for the row to fail.
    return w + np.divide(value, slope, out=np.zeros_like(w), where=slope != 0.0)


def ar_to_lsf(
    models: Sequence[ArModel] | npt.NDArray[np.float64], *, skip_failed: bool = False
) -> npt.NDArray[np.float64]:
    """Convert stable AR models to line spectral frequencies.

    A non-empty sequence of models of one order, or an (n, order) array of their
    coefficient rows, gives an (n, order) array, one row per model, from
    one stacked eigenvalue call per polynomial kind.  The sum polynomial's
    roots take the even places of a row and the difference polynomial's the
    odd ones, so a row is valid only where the two interlace, which holds
    exactly when A(z) is minimum-phase (Soong & Juang, ICASSP 1984).  The
    first failing model raises as it would alone: ``ValueError`` if
    ``is_stable`` finds it unstable, else ``NumericalDegeneracyError``.
    With ``skip_failed`` the rows of failing models are left out instead.
    """
    if isinstance(models, np.ndarray):
        coeffs = models
    else:
        models = list(models)
        coeffs = np.array([m.coefficients for m in models])
    order = coeffs.shape[1]
    sums, diffs = _cosine_series(coeffs)
    lsfs = np.empty(coeffs.shape)
    lsfs[:, 0::2] = np.sort(_series_roots(sums), axis=1)
    lsfs[:, 1::2] = np.sort(_series_roots(diffs), axis=1)
    ok = valid_lsf_rows(lsfs)
    if skip_failed:
        return lsfs[ok]
    if not ok.all():
        first = int(np.argmin(ok))
        if not (models[first] if isinstance(models, list) else ArModel(coeffs[first])).is_stable():
            raise ValueError("AR model must be stable for LSF conversion")
        raise NumericalDegeneracyError(
            f"could not separate {order} line spectral frequencies in (0, pi)"
        )
    return lsfs


def _times_fixed(poly, lag: int, sign: float) -> npt.NDArray[np.float64]:
    """Each row of ``poly`` times (1 + sign z^-lag)."""
    out = np.zeros((len(poly), poly.shape[1] + lag))
    out[:, :-lag] = poly
    out[:, lag:] += sign * poly
    return out


def lsf_to_ar(lsf: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Reconstruct AR coefficients from LSFs.

    An (n, order) array of LSF rows gives the (n, order) array of their
    coefficient rows, with one vectorised product per quadratic factor.
    """
    freqs = np.asarray(lsf, dtype=np.float64)
    if not valid_lsf_rows(freqs).all():
        raise ValueError("LSFs must be strictly increasing within (0, pi)")
    n, p = freqs.shape
    # Interleaved ascending: even positions belong to the symmetric
    # polynomial, odd positions to the antisymmetric one.  Angle w gives
    # the factor 1 - 2 cos(w) z^-1 + z^-2.
    polys = []
    for angles in (freqs[:, 0::2], freqs[:, 1::2]):
        poly = np.ones((n, 1))
        for middle in -2.0 * np.cos(angles.T):
            grown = np.zeros((n, poly.shape[1] + 2))
            grown[:, :-2] = poly
            grown[:, 1:-1] += middle[:, None] * poly
            grown[:, 2:] += poly
            poly = grown
        polys.append(poly)
    p_poly, q_poly = polys
    if p % 2 == 0:
        p_poly, q_poly = _times_fixed(p_poly, 1, 1.0), _times_fixed(q_poly, 1, -1.0)
    else:
        q_poly = _times_fixed(q_poly, 2, -1.0)
    return -0.5 * (p_poly + q_poly)[:, 1 : p + 1]


def ar_envelope(model: ArModel, dft_len: int) -> npt.NDArray[np.float64]:
    """Spectral envelope 1/|A(k)|^2 of a stable model's inverse filter over dft_len > order bins.

    A flat (zero-coefficient) model yields an all-ones envelope, consistent
    with a unit-variance white process whose periodogram has unit mean.
    """
    a_fft = np.fft.fft(model.inverse_filter(), n=dft_len)
    return 1.0 / np.abs(a_fft) ** 2
