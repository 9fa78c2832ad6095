"""Linear prediction toolbox: Levinson-Durbin, LSF conversions, AR envelopes.

AR coefficients are stored in prediction form throughout the package:
``s(n) = sum_i a_i s(n-i) + u(n)``, so the inverse (analysis) filter is
``A(z) = 1 - a_1 z^-1 - ... - a_P z^-P``.
"""

from __future__ import annotations

import functools
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
        if len(freqs) and not _valid_lsf_rows(freqs):
            raise ValueError(_INVALID_LSF)
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


LSF_BLOCK = 32  # models per root search; bounds its grid tables at 32 x (LSF_GRID + 1)
LSF_GRID = 4096  # grid cells over [0, pi] that bracket the line spectral frequencies
LSF_TOL = 1e-12  # bracket width at which the bisection stops
_GRID = np.linspace(0.0, np.pi, LSF_GRID + 1)
_INVALID_LSF = "LSFs must be strictly increasing within (0, pi)"


def _valid_lsf_rows(freqs) -> npt.NDArray[np.bool_]:
    """Whether each row (last axis) is strictly increasing within (0, pi)."""
    inside = np.all((freqs > 0.0) & (freqs < np.pi), axis=-1)
    return inside & np.all(np.diff(freqs, axis=-1) > 0.0, axis=-1)


@functools.cache
def _grid_cosines(width: int) -> npt.NDArray[np.float64]:
    """cos(j w) for j < width at every grid point, (width, LSF_GRID + 1), built once per width."""
    table = np.cos(np.arange(width)[:, None] * _GRID)
    table.flags.writeable = False
    return table


def _deflate(poly, root: float) -> npt.NDArray[np.float64]:
    """Quotient of each row of poly by (z - root) for root = +/-1, by synthetic division.

    q_k = a_k + root * q_{k-1}; for root = -1 the alternating signs fold
    into one cumulative sum.  Equal, term for term, to np.polydiv's loop.
    """
    if root == 1.0:
        return np.cumsum(poly[..., :-1], axis=-1)
    signs = np.where(np.arange(poly.shape[-1] - 1) % 2 == 0, 1.0, -1.0)
    return signs * np.cumsum(signs * poly[..., :-1], axis=-1)


def _cosine_series(coeffs) -> npt.NDArray[np.float64]:
    """Cosine series of the sum and difference polynomials of each row's A(z), (n, 2, width).

    With A(z) extended to degree P+1, P(z) = A(z) + z^-(P+1) A(1/z) and
    Q(z) = A(z) - z^-(P+1) A(1/z); their fixed roots at z = +/-1 are
    deflated so both are palindromic of even degree.  For symmetric c of
    length 2m+1, C(e^{-jw}) e^{jwm} = d_0 + sum_{j=1..m} d_j cos(j w) with
    d_0 = c_m and d_j = 2 c_{m-j}; the shorter series is zero-padded.
    """
    n, p = coeffs.shape
    a_ext = np.concatenate((np.ones((n, 1)), -coeffs, np.zeros((n, 1))), axis=1)
    p_poly = a_ext + a_ext[:, ::-1]
    q_poly = _deflate(a_ext - a_ext[:, ::-1], 1.0)
    if p % 2 == 0:
        p_poly = _deflate(p_poly, -1.0)
    else:
        q_poly = _deflate(q_poly, -1.0)
    series = np.zeros((n, 2, p_poly.shape[1] // 2 + 1))
    for kind, c in enumerate((p_poly, q_poly)):
        m = (c.shape[1] - 1) // 2
        series[:, kind, 0] = c[:, m]
        series[:, kind, 1 : m + 1] = 2.0 * c[:, :m][:, ::-1]
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


def _unit_circle_roots(series):
    """Angles in (0, pi) where the series of each model vanish, as (model, angle) arrays.

    ``series`` is (n, kinds, width).  Sign changes between grid points
    bracket the roots, and all brackets of all rows are bisected together to
    width ``LSF_TOL``.  The grid is evaluated one kind at a time, so its
    tables hold n rows, not 2n.
    """
    cos_grid = _grid_cosines(series.shape[-1])
    zeros, brackets = [], []
    for kind in range(series.shape[1]):
        vals = _eval_cosine_series(series[:, kind, None, :], cos_grid[:, None, :])
        model, point = np.nonzero(vals[:, 1:-1] == 0.0)  # exact zeros at interior points
        zeros.append((model, _GRID[1:-1][point]))
        model, cell = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
        brackets.append((model, series[model, kind], cell, vals[model, cell]))
        del vals  # free this kind's grid table before the next one is built
    zero_model, zero_angle = (np.concatenate(parts) for parts in zip(*zeros))
    model, rows, cell, flo = (np.concatenate(parts) for parts in zip(*brackets))
    lo, hi = _GRID[cell], _GRID[cell + 1]
    harmonics = np.arange(series.shape[-1])[:, None]
    active = hi - lo > LSF_TOL
    while active.any():
        mid = 0.5 * (lo + hi)
        fmid = _eval_cosine_series(rows, np.cos(harmonics * mid))
        left = flo * fmid <= 0.0
        hi = np.where(active & left, mid, hi)
        move = active & ~left
        lo = np.where(move, mid, lo)
        flo = np.where(move, fmid, flo)
        active = hi - lo > LSF_TOL
    return np.concatenate((zero_model, model)), np.concatenate((zero_angle, 0.5 * (lo + hi)))


def _lsf_block(models: Sequence[ArModel], order: int, skip_failed: bool):
    """LSF rows of up to LSF_BLOCK models of one order; see ``ar_to_lsf``."""
    n = len(models)
    coeffs = np.array([m.coefficients for m in models])
    stable = np.array([m.is_stable() for m in models])
    model, angle = _unit_circle_roots(_cosine_series(coeffs[stable]))
    model = np.flatnonzero(stable)[model]
    counts = np.bincount(model, minlength=n)
    found = counts == order
    sort = np.lexsort((angle, model))
    lsfs = np.full((n, order), np.nan)
    lsfs[found] = angle[sort][found[model[sort]]].reshape(np.count_nonzero(found), order)
    ok = found & _valid_lsf_rows(lsfs)
    if skip_failed:
        return lsfs[ok]
    if not ok.all():
        i = int(np.argmin(ok))
        if not stable[i]:
            raise ValueError("AR model must be stable for LSF conversion")
        if not found[i]:
            raise NumericalDegeneracyError(
                f"expected {order} line spectral frequencies, found {counts[i]}"
            )
        raise ValueError(_INVALID_LSF)
    return lsfs


def ar_to_lsf(
    models: ArModel | Sequence[ArModel], *, skip_failed: bool = False
) -> LsfVector | npt.NDArray[np.float64]:
    """Convert stable AR models to line spectral frequencies.

    One ``ArModel`` gives an ``LsfVector``.  A sequence of models of one
    order gives an (n, order) array, one row per model, found in blocks of
    ``LSF_BLOCK`` models: each block has one grid evaluation and one joint
    bisection, and a one-model call is the one-row case of the same search.
    A model fails when it is unstable (``ValueError``), when its polynomials
    do not have ``order`` roots in (0, pi) (``NumericalDegeneracyError``) or
    when two of its roots coincide (``ValueError``).  The first failing model
    raises as it would alone; with ``skip_failed`` the rows of failing models
    are left out instead.
    """
    if isinstance(models, ArModel):
        return LsfVector(ar_to_lsf([models])[0])
    models = list(models)
    if not models:
        return np.empty((0, 0))
    order = models[0].order
    if any(m.order != order for m in models):
        raise ValueError("models must all have one order")
    return np.concatenate([
        _lsf_block(models[start : start + LSF_BLOCK], order, skip_failed)
        for start in range(0, len(models), LSF_BLOCK)
    ])


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
