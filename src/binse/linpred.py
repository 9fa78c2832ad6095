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
    """Fit AR models of order P by one Levinson-Durbin recursion over (N, P+1) rows r(0..P).

    Returns ``(coefficients, variances, ok)`` of shapes (N, P), (N,) and (N,):
    the forward predictor coefficients and the final prediction-error
    variance of each row.  ``ok`` is false where r(0) <= 0, a reflection
    coefficient reaches magnitude 1 or the fit is not finite; those rows'
    values are not fits.
    """
    rows = np.asarray(autocorr, dtype=np.float64)
    order = rows.shape[1] - 1
    ok = ~(rows[:, 0] <= 0)  # a NaN r(0) fails as a non-finite fit
    reversed_r = rows[:, :0:-1].copy()  # r(P..1), so each dot product reads forward
    a = np.zeros((len(rows), order))
    err = rows[:, 0].copy()
    with np.errstate(all="ignore"):  # failed rows run on as garbage and are flagged, not warned
        for i in range(1, order + 1):
            acc = rows[:, i] - (a[:, None, : i - 1] @ reversed_r[:, order - i + 1 :, None])[:, 0, 0]
            k = acc / err
            ok &= ~(np.abs(k) >= 1.0)
            a[:, : i - 1] -= k[:, None] * a[:, : i - 1][:, ::-1]
            a[:, i - 1] = k
            err *= 1.0 - k * k
    ok &= np.isfinite(err) & np.all(np.isfinite(a), axis=1)
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


# Cells of the angle grid over [0, pi] on which ``_bracketed_roots`` brackets each root.
LSF_GRID_CELLS = 128
_GRID_ANGLES = np.linspace(0.0, np.pi, LSF_GRID_CELLS + 1)
_GRID_X = np.cos(_GRID_ANGLES)
# Newton in x stops at a step below this; a root still moving after the cap falls back.
_NEWTON_TOL = 1e-13
_NEWTON_MAX_STEPS = 16
# Roots in this many cells at either end, where one ulp of x moves w by more
# than 2e-15 rad through arccos, finish with a Newton step in w.  The step runs
# in long double (80-bit on x86-64 Linux): near 0 and pi the series' slope in w
# can be small enough that doubles would leave over 1e-12 rad of noise.
_EDGE_CELLS = 2


def _angle_newton_step(series, w) -> npt.NDArray[np.float64]:
    """One Newton step in w on sum_j d_j cos(j w) = 0, series (..., m+1) against w[..., None]."""
    harmonics = np.arange(series.shape[-1] - 1, -1, -1)  # highest first: halves the worst error
    terms = series[..., ::-1]
    jw = harmonics * w[..., None]
    value = np.sum(terms * np.cos(jw), axis=-1)
    slope = np.sum(harmonics * terms * np.sin(jw), axis=-1)  # -d value / dw
    # slope is 0 at w = 0 (an eigenvalue clipped to 1); that angle is left for the row to fail.
    return w + np.divide(value, slope, out=np.zeros_like(w), where=slope != 0.0)


def _colleague_roots(series) -> npt.NDArray[np.float64]:
    """Angles of each row's series roots from its colleague matrix, (n, m), unsorted.

    With x = cos w the series is the Chebyshev series sum_j d_j T_j(x), whose
    roots are the eigenvalues of its colleague matrix, scaled as
    ``np.polynomial.chebyshev.chebcompanion`` builds it (d_m = 2 is never
    zero).  The eigenvalues of all rows come from one stacked call; each
    angle then takes one Newton step in w.  A row whose series lacks m
    distinct roots in (-1, 1) gives angles that ``valid_lsf_rows`` rejects.
    """
    n, m = series.shape[0], series.shape[1] - 1
    weight = np.full(m, 0.5)  # the scaling makes every coupling 1/2, but sqrt(1/2) at T_0
    weight[0] = np.sqrt(0.5) if m > 1 else 1.0  # m = 1: the matrix is the root, -d_0 / d_1
    colleague = np.zeros((n, m, m))
    inner = np.arange(m - 1)
    colleague[:, inner, inner + 1] = colleague[:, inner + 1, inner] = weight[:-1]
    colleague[:, :, -1] -= series[:, :-1] / series[:, -1:] * weight
    x = np.linalg.eigvals(colleague).real
    return _angle_newton_step(series[:, None, :], np.arccos(np.clip(x, -1.0, 1.0)))


def _clenshaw(coeffs, x) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Value and x-derivative of sum_j d_j T_j(x) at each x, with coeffs[j] the d_j of each x.

    One Clenshaw recurrence b_j = d_j + 2x b_(j+1) - b_(j+2) carries its own
    derivative c_j = 2 b_(j+1) + 2x c_(j+1) - c_(j+2) beside it; every
    operation is elementwise, so each x's result depends on its own inputs only.
    """
    two_x = 2.0 * x
    b1, b2, c1, c2 = coeffs[-1], 0.0, 0.0, 0.0
    for d in coeffs[-2:0:-1]:
        c1, c2 = two_x * c1 + 2.0 * b1 - c2, c1
        b1, b2 = two_x * b1 + d - b2, b1
    return x * b1 + coeffs[0] - b2, x * c1 + b1 - c2


def _bracketed_roots(series) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.bool_]]:
    """``(angles, ok)``: each row's series roots, ascending, (n, m), where a grid brackets them.

    The series is evaluated at the ``LSF_GRID_CELLS`` + 1 angles of a fixed
    grid over [0, pi] (Kabal & Ramachandran, IEEE TASSP 1986), one term at a
    time for each row.  A degree-m series that changes sign in exactly m
    cells has one simple root in each, inside (0, pi).  Each such root starts
    at its cell's secant point and takes Newton steps in x = cos w, one
    Clenshaw recurrence per step, until a step is below ``_NEWTON_TOL``; a
    step that leaves the root's bracket, which each step shrinks, bisects it
    instead.  Roots in the outer cells then take one Newton step in w.
    ``ok`` is false for a row with fewer or more sign changes than m, or
    with a root that still moves after ``_NEWTON_MAX_STEPS`` or settles
    outside its cell; that row's angles are not roots.  Every operation is
    per row or per root, so a row's angles do not depend on the other rows.
    """
    n, m = series.shape[0], series.shape[1] - 1
    values = np.einsum("nj,jk->nk", series, np.cos(np.arange(m + 1)[:, None] * _GRID_ANGLES))
    negative = values < 0.0
    changes = np.flatnonzero(negative[:, :-1] != negative[:, 1:])
    rows, cells = np.divmod(changes, LSF_GRID_CELLS)
    ok = np.bincount(rows, minlength=n) == m
    keep = np.flatnonzero(ok[rows])
    rows, cells, left = rows[keep], cells[keep], changes[keep] + rows[keep]  # left: index in values
    f_left, f_right = values.ravel()[left], values.ravel()[left + 1]
    del values, negative  # the grid is done with before the per-root arrays are made
    x_left, x_right = _GRID_X[cells], _GRID_X[cells + 1]  # x falls as w grows
    edge = np.flatnonzero((cells < _EDGE_CELLS) | (cells >= LSF_GRID_CELLS - _EDGE_CELLS))
    roots = np.full(len(cells), np.nan)
    pending, coeffs = np.arange(len(cells)), np.take(series.T, rows, axis=1)
    lo, hi, lo_negative = x_right, x_left, f_right < 0.0  # the bracket [lo, hi] and f's sign at lo
    with np.errstate(all="ignore"):  # a root that goes non-finite never settles and falls back
        x = x_right - f_right * (x_left - x_right) / (f_left - f_right)
        for _ in range(_NEWTON_MAX_STEPS):
            f, slope = _clenshaw(coeffs, x)
            at_lo = (f < 0.0) == lo_negative
            lo, hi = np.where(at_lo, x, lo), np.where(at_lo, hi, x)
            step = f / slope
            x = x - step
            done = np.abs(step) < _NEWTON_TOL
            astray = ~(done | ((x >= lo) & (x <= hi)))
            if astray.any():  # bisect where Newton leaves the bracket
                x[astray] = 0.5 * (lo[astray] + hi[astray])
            if done.any():
                roots[pending[done]] = x[done]
                moving = (~done).nonzero()[0]
                pending, x, lo, hi, lo_negative = (
                    v[moving] for v in (pending, x, lo, hi, lo_negative)
                )
                coeffs = coeffs.take(moving, axis=1)
                if not len(pending):
                    break
    settled = (roots >= x_right) & (roots <= x_left)  # false for NaN
    w = np.arccos(np.where(settled, roots, 0.0))
    w[edge] = _angle_newton_step(
        series[rows[edge]].astype(np.longdouble), w[edge].astype(np.longdouble)
    )
    angles = np.empty((n, m))
    angles[ok] = w.reshape(-1, m)
    ok[ok] = settled.reshape(-1, m).all(axis=1)
    return angles, ok


def _series_roots(series) -> npt.NDArray[np.float64]:
    """Angles w where each row's series sum_j d_j cos(j w) vanishes, (n, m), unsorted.

    A row whose m roots the grid brackets takes ``_bracketed_roots``; any
    other row (two roots in one cell, a double or complex root, a root that
    does not settle in its cell) takes ``_colleague_roots``, the stacked
    eigenvalue path.
    """
    n, m = series.shape[0], series.shape[1] - 1
    if m == 0:
        return np.empty((n, 0))
    angles, ok = _bracketed_roots(series)
    if not ok.all():
        angles[~ok] = _colleague_roots(series[~ok])
    return angles


def ar_to_lsf(
    models: Sequence[ArModel] | npt.NDArray[np.float64], *, skip_failed: bool = False
) -> npt.NDArray[np.float64]:
    """Convert stable AR models to line spectral frequencies.

    A non-empty sequence of models of one order, or an (n, order) array of their
    coefficient rows, gives an (n, order) array, one row per model.  Each
    polynomial kind's roots come from one vectorized bracketed Newton search
    over every row whose roots a 128-cell grid separates, and from one
    stacked eigenvalue call over the other rows (``_series_roots``); every
    row gets the same angles as it would alone.  The sum polynomial's
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
