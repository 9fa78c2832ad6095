import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binse.cli import main
from binse.linpred import (
    LSF_GRID_CELLS,
    ArModel,
    _bracketed_roots,
    _colleague_roots,
    _cosine_series,
    ar_envelope,
    ar_to_lsf,
    levinson_durbin,
    lsf_to_ar,
)

from binse.signal_core import autocorrelation

from conftest import ar_signal, close_pole_model


def stable_model_from_reflections(ks):
    """Step-up recursion: reflection coefficients in (-1,1) give a stable model."""
    a = np.zeros(0)
    for k in ks:
        a = np.concatenate((a - k * a[::-1], [k]))
    return ArModel(a, 1.0)


def fit_one(r):
    """The ``ArModel`` that ``levinson_durbin`` fits to one autocorrelation row, and its ok."""
    coeffs, variances, ok = levinson_durbin(np.asarray(r, float)[None])
    return ArModel(coeffs[0], float(variances[0])), bool(ok[0])


class TestLevinsonDurbin:
    def test_white(self):
        m, ok = fit_one([1.0, 0.0, 0.0, 0.0])
        assert ok
        np.testing.assert_array_equal(m.coefficients, 0.0)
        assert m.excitation_variance == 1.0

    def test_ar1_closed_form(self):
        # r(q) = 0.9^q / (1 - 0.81) for a1=0.9, unit excitation variance
        r = 0.9 ** np.arange(4) / (1 - 0.81)
        m, ok = fit_one(r)
        assert ok
        assert abs(m.coefficients[0] - 0.9) < 1e-10
        assert np.all(np.abs(m.coefficients[1:]) < 1e-10)
        assert abs(m.excitation_variance - 1.0) < 1e-10

    def test_order_14(self, rng):
        x = rng.normal(size=4000)
        r = np.correlate(x, x, "full")[len(x) - 1 : len(x) + 14] / len(x)
        m, ok = fit_one(r)
        assert ok and m.order == 14
        assert m.is_stable()

    def test_r0_nonpositive(self):
        assert not levinson_durbin(np.array([[0.0, 0.1]]))[2][0]

    def test_degenerate_reflection(self):
        assert not levinson_durbin(np.array([[1.0, 1.1]]))[2][0]

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(1, 24),
        kinds=st.lists(st.sampled_from(["fit", "r0 <= 0", "|k| >= 1", "overflow"]),
                       min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_single_calls(self, order, kinds, seed):
        # One recursion over (N, P+1) rows gives each row's one-row fit bit
        # for bit, and flags the rows that cannot be fitted.
        rng = np.random.default_rng(seed)
        frames = rng.normal(size=(len(kinds), 4 * order + 8))
        frames[np.array(kinds) == "overflow"] *= 1e160  # r(0) overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            rows = autocorrelation(frames, order)
        for row, kind in zip(rows, kinds):
            if kind == "r0 <= 0":
                row[0] = -row[0] * rng.integers(0, 2)
            elif kind == "|k| >= 1":
                row[1] = row[0] * rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, variances, ok = levinson_durbin(rows)
            singles = [levinson_durbin(row[None]) for row in rows]
        assert coeffs.shape == (len(kinds), order) and variances.shape == ok.shape == (len(kinds),)
        np.testing.assert_array_equal(ok, [kind == "fit" for kind in kinds])
        for kind, a, v, (a1, v1, ok1) in zip(kinds, coeffs, variances, singles):
            assert ok1[0] == (kind == "fit")
            if kind == "fit":
                np.testing.assert_array_equal(a, a1[0])
                assert v == v1[0]

    def test_failed_rows_flagged(self):
        # A negative r(0), a reflection coefficient of magnitude 2 at order 2
        # and an infinite r(0) each fail, beside a row that fits.
        coeffs, variances, ok = levinson_durbin(np.array([
            [np.nextafter(0.0, -1.0), 0.0, 0.0],
            [1.0, 0.5, 1.75],
            [np.inf, 1.0, 0.0],
            [1.0, 0.5, 0.25],
        ]))
        np.testing.assert_array_equal(ok, [False, False, False, True])

    def test_prediction_error_nonincreasing(self, rng):
        x = rng.normal(size=2000)
        r = np.correlate(x, x, "full")[len(x) - 1 : len(x) + 15] / len(x)
        errors = [fit_one(r[: p + 1])[0].excitation_variance for p in range(1, 15)]
        assert np.all(np.diff(errors) <= 1e-12)


class TestLsfConversion:
    def test_flat_order2(self):
        [lsf] = ar_to_lsf([ArModel(np.zeros(2))])
        # Oracle: roots of P(z)=1+z^-3 and Q(z)=1-z^-3 on the unit circle.
        p_root = np.sort(np.angle(np.roots([1, 0, 0, 1])))
        q_root = np.sort(np.angle(np.roots([1, 0, 0, -1])))
        expect = np.sort(
            [a for a in np.concatenate((p_root, q_root)) if 0 < a < np.pi - 1e-9]
        )
        np.testing.assert_allclose(lsf, expect, atol=1e-10)

    def test_round_trip_many_orders(self, rng):
        for _ in range(1000):
            p = int(rng.integers(2, 15))
            m = stable_model_from_reflections(rng.uniform(-0.9, 0.9, p))
            [back] = lsf_to_ar(ar_to_lsf([m]))
            assert np.max(np.abs(back - m.coefficients)) < 1e-8
        # Order 20 with reflections up to 0.99: a 4096-point grid search misses row 397's
        # LSFs (its largest pole is 1.5e-14 inside the unit circle); all 400 must convert.
        models = [
            stable_model_from_reflections(ks)
            for ks in np.random.default_rng(0).uniform(-0.99, 0.99, (400, 20))
        ]
        for m, back in zip(models, lsf_to_ar(ar_to_lsf(models)), strict=True):
            assert np.max(np.abs(back - m.coefficients)) < 1e-8

    def test_lsf_rows_match_one_model_calls(self, rng):
        # (n, order) LSF rows convert in one call; each row's coefficients are
        # the one-row call's, bit for bit, at odd and even orders.
        for order in (1, 2, 7, 14):
            models = [stable_model_from_reflections(rng.uniform(-0.95, 0.95, order))
                      for _ in range(9)]
            lsfs = ar_to_lsf(models)
            rows = lsf_to_ar(lsfs)
            assert rows.shape == (9, order)
            for row, lsf, m in zip(rows, lsfs, models, strict=True):
                np.testing.assert_array_equal(row, lsf_to_ar(lsf[None])[0])
                assert np.max(np.abs(row - m.coefficients)) < 1e-8
        assert lsf_to_ar(np.empty((0, 4))).shape == (0, 4)

    def test_near_boundary_pole(self):
        [lsf] = ar_to_lsf([ArModel(np.array([0.999]))])
        # Oracle: direct roots of the symmetric/antisymmetric polynomials.
        a_ext = np.array([1.0, -0.999, 0.0])
        p_poly = a_ext + a_ext[::-1]
        q_poly = a_ext - a_ext[::-1]
        roots = []
        for poly in (p_poly, q_poly):
            roots.extend(np.angle(np.roots(poly)))
        expect = np.sort([r for r in roots if 1e-12 < r < np.pi - 1e-12])
        np.testing.assert_allclose(lsf, expect, atol=1e-9)
        # Closed form: P(z) = 1 - 1.998 z^-1 + z^-2, root at cos(w) = 0.999.
        assert abs(lsf[0] - np.arccos(0.999)) < 1e-9

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            ar_to_lsf([ArModel(np.array([1.5]))])

    def test_non_monotone_rejected(self):
        # One bad row fails the whole call.
        with pytest.raises(ValueError, match="strictly increasing"):
            lsf_to_ar(np.array([[0.5, 1.0], [1.0, 0.5]]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=2, max_size=14)
    )
    def test_round_trip_hypothesis(self, ks):
        m = stable_model_from_reflections(np.asarray(ks))
        if not np.all(np.abs(np.roots(m.inverse_filter())) < 1.0 - 1e-6):
            return
        [back] = lsf_to_ar(ar_to_lsf([m]))
        assert np.max(np.abs(back - m.coefficients)) < 1e-8

    def test_levinson_output_stable(self, rng):
        from conftest import ar_signal

        x = ar_signal([1.2, -0.8, 0.3, -0.1], 1.0, 4000, rng)
        r = np.correlate(x, x, "full")[len(x) - 1 : len(x) + 15] / len(x)
        m, ok = fit_one(r)
        assert ok and m.is_stable()


class TestArEnvelope:
    def test_flat(self):
        env = ar_envelope(ArModel(np.zeros(4)), 64)
        np.testing.assert_allclose(env, 1.0, atol=1e-14)

    def test_ar1_peak_ratio(self):
        env = ar_envelope(ArModel(np.array([0.9])), 128)
        # |1-0.9|^-2 at DC over |1+0.9|^-2 at Nyquist
        assert abs(env[0] / env[64] - ((1 + 0.9) / (1 - 0.9)) ** 2) < 1e-9

    def test_symmetry(self, rng):
        m = stable_model_from_reflections(rng.uniform(-0.8, 0.8, 6))
        env = ar_envelope(m, 100)
        np.testing.assert_allclose(env[1:], env[1:][::-1], rtol=1e-12)

    def test_short_dft_rejected(self, capsys):
        # likelihood-surface, the one program caller, needs more bins than its order-2 models.
        assert main(["likelihood-surface", "--frame-len", "2"]) == 2
        assert "--frame-len must be >= 3" in capsys.readouterr().err


def _reference_ar_to_lsf(model):
    """Scalar grid-plus-bisection root search with np.polydiv deflation.

    An independent root search, bisected to 1e-12; kept as the reference
    that ``ar_to_lsf`` must match within 1e-12.
    """

    def sym_eval(coeffs, omega):
        m = (len(coeffs) - 1) // 2
        out = np.full_like(omega, coeffs[m], dtype=np.float64)
        for k in range(m):
            out += 2.0 * coeffs[k] * np.cos((m - k) * omega)
        return out

    def roots(coeffs, n_grid=4096, tol=1e-12):
        grid = np.linspace(0.0, np.pi, n_grid + 1)
        vals = sym_eval(coeffs, grid)
        found = []
        for i in range(n_grid):
            lo, hi = grid[i], grid[i + 1]
            flo, fhi = vals[i], vals[i + 1]
            if flo == 0.0:
                if 0.0 < lo < np.pi:
                    found.append(lo)
                continue
            if flo * fhi < 0.0:
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    fmid = sym_eval(coeffs, np.array([mid]))[0]
                    if flo * fmid <= 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fmid
                found.append(0.5 * (lo + hi))
        return found

    p = model.order
    a_ext = np.concatenate((model.inverse_filter(), [0.0]))
    p_poly = a_ext + a_ext[::-1]
    q_poly = np.polydiv(a_ext - a_ext[::-1], np.array([1.0, -1.0]))[0]
    if p % 2 == 0:
        p_poly = np.polydiv(p_poly, np.array([1.0, 1.0]))[0]
    else:
        q_poly = np.polydiv(q_poly, np.array([1.0, 1.0]))[0]
    return np.sort(np.array(roots(p_poly) + roots(q_poly)))


def _reference_corpus():
    """513 stable models, 27 of each order from 2 to 20."""
    rng = np.random.default_rng(1986)
    return [
        stable_model_from_reflections(rng.uniform(-0.97, 0.97, order))
        for order in list(range(2, 21)) * 27
    ]


def test_ar_to_lsf_matches_scalar_reference():
    worst = 0.0
    for m in _reference_corpus():
        order = m.order
        [got] = ar_to_lsf([m])
        want = _reference_ar_to_lsf(m)
        assert got.shape == want.shape == (order,)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12


def _failing_models(order):
    """Unstable models, the second with a zero last coefficient."""
    return [ArModel(np.r_[np.zeros(order - 1), 1.5]), ArModel(np.r_[1.5, np.zeros(order - 1)])]


def _alone(model):
    """LSFs of one model converted by itself, or the exception that raises."""
    try:
        return ar_to_lsf([model])[0]
    except (ValueError, ArithmeticError) as exc:
        return exc


def _corpus_batches(size):
    """One batch of ``size`` models per order, cycled from the reference corpus."""
    by_order = {}
    for m in _reference_corpus():
        by_order.setdefault(m.order, []).append(m)
    return {order: (group * 2)[:size] for order, group in by_order.items()}


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33])
def test_batched_ar_to_lsf_equals_one_model_calls(size):
    # An empty batch comes as codebook.train's (0, order) array when no training frame fits.
    for order, batch in _corpus_batches(size).items():
        got = ar_to_lsf(batch or np.empty((0, order)))
        assert got.shape == (size, order)
        np.testing.assert_array_equal(got, np.reshape([_alone(m) for m in batch], got.shape))


@pytest.mark.parametrize("size", [1, 31, 32, 33])
def test_batched_ar_to_lsf_fails_rows_as_one_model_calls(size):
    for order, batch in _corpus_batches(size).items():
        base = [_alone(m) for m in batch]
        for bad in _failing_models(order):
            failure = _alone(bad)
            for pos in sorted({0, size - 1}):
                rows = batch[:pos] + [bad] + batch[pos + 1 :]
                alone = base[:pos] + [failure] + base[pos + 1 :]
                kept = [r for r in alone if isinstance(r, np.ndarray)]
                np.testing.assert_array_equal(
                    ar_to_lsf(rows, skip_failed=True), np.reshape(kept, (len(kept), order))
                )
                first = next(r for r in alone if isinstance(r, Exception))
                with pytest.raises(type(first)) as info:
                    ar_to_lsf(rows)
                assert type(info.value) is type(first) and str(info.value) == str(first)


def test_failing_models_fail_alone():
    for m in _failing_models(14):
        assert not m.is_stable()
        assert type(_alone(m)) is ValueError


@pytest.mark.parametrize("order", [4, 10, 14])
def test_close_pole_model_converts(order):
    [lsf] = ar_to_lsf([close_pole_model(order)])
    # Oracle: np.roots angles of the sum and difference polynomials, as in test_flat_order2.
    a_ext = np.r_[close_pole_model(order).inverse_filter(), 0.0]
    roots = np.angle(np.r_[np.roots(a_ext + a_ext[::-1]), np.roots(a_ext - a_ext[::-1])])
    expect = np.sort([a for a in roots if 1e-9 < a < np.pi - 1e-9])
    # Both searches put LSFs 1e-7 apart within 3e-9 of the 50-digit roots.
    np.testing.assert_allclose(lsf, expect, rtol=0.0, atol=1e-8)
    assert np.all(np.diff(lsf) > 0.0) and 5e-8 < np.min(np.diff(lsf)) < 2e-7


def test_batched_ar_to_lsf_raises_for_the_first_failing_model():
    good, close, (unstable, _) = _reference_corpus()[12], close_pole_model(14), _failing_models(14)
    for rows in ([good, close, unstable], [good, unstable, close]):
        with pytest.raises(ValueError, match="must be stable") as info:
            ar_to_lsf(rows)
        assert type(info.value) is ValueError
    np.testing.assert_array_equal(
        ar_to_lsf([good, unstable, close], skip_failed=True), [_alone(good), _alone(close)]
    )


# Pole radii: anywhere in [0.3, 1.3], or 1e-9 to 1e-6 inside or outside the
# unit circle.  Nearer than that, the float coefficients no longer decide on
# which side a pole lies.
_RADII = st.one_of(
    st.floats(0.3, 1.3).filter(lambda r: abs(r - 1.0) >= 1e-9),
    st.builds(lambda side, exponent: 1.0 + side * 10.0**exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(-9.0, -6.0)),
)


@st.composite
def _pole_models(draw):
    """A model of order 1 to 20 from distinct poles: pair k's angle lies inside the
    k-th of equal slices of (0, pi), and an odd order adds a real pole."""
    order = draw(st.integers(1, 20))
    pairs = order // 2
    poles = []
    for k in range(pairs):
        angle = (k + draw(st.floats(0.05, 0.95))) * np.pi / pairs
        pole = draw(_RADII) * np.exp(1j * angle)
        poles += [pole, np.conj(pole)]
    if order % 2:
        poles.append(draw(_RADII) * draw(st.sampled_from([-1.0, 1.0])))
    return ArModel(-np.real(np.poly(poles))[1:])


@settings(max_examples=300, deadline=None)
@given(_pole_models())
def test_lsf_interlacing_keeps_exactly_the_stable_models(model):
    # ar_to_lsf decides stability by the interlacing of the LSFs alone.
    assert len(ar_to_lsf([model], skip_failed=True)) == int(model.is_stable())


def test_is_stable_only_names_the_error(monkeypatch):
    # is_stable runs on the first failing model alone, to name its error.
    calls = []
    original = ArModel.is_stable
    monkeypatch.setattr(ArModel, "is_stable", lambda m: calls.append(m) or original(m))
    good, (first, second) = _reference_corpus()[12], _failing_models(14)
    ar_to_lsf([good, good])
    ar_to_lsf([good, first, good], skip_failed=True)
    assert calls == []
    with pytest.raises(ValueError, match="must be stable"):
        ar_to_lsf([good, first, second])
    assert len(calls) == 1 and calls[0] is first


def test_order_zero_models_have_no_lsfs():
    assert ar_to_lsf([ArModel(np.zeros(0))] * 2).shape == (2, 0)


def test_ar_to_lsf_memory_is_bounded_by_the_block():
    # A grid search over 4097 points would tabulate 2 x 1280 x 4097 doubles (84 MB); the
    # stacked colleague matrices of 1280 order-14 models are 1280 x 7 x 7 doubles per kind.
    rng = np.random.default_rng(14)
    models = [stable_model_from_reflections(rng.uniform(-0.9, 0.9, 14)) for _ in range(1280)]
    tracemalloc.start()
    try:
        lsfs = ar_to_lsf(models)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lsfs.shape == (1280, 14)
    assert peak < 4e6


def _spy_eigensolve(monkeypatch):
    """Record the stacked colleague matrices of every ``np.linalg.eigvals`` call."""
    calls = []
    original = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.copy()) or original(a))
    return calls


def _share_a_cell(roots):
    """Rows of ascending angles in which two angles fall into one cell of the root grid."""
    cells = np.floor(roots / (np.pi / LSF_GRID_CELLS))
    return np.any(np.diff(cells, axis=1) == 0.0, axis=1)


def test_only_rows_the_grid_cannot_bracket_reach_the_eigensolve(monkeypatch):
    # The sum series' roots take the even LSF places and the difference series' the odd
    # ones; a row falls back for a kind only where two of that kind's roots share a cell.
    rng = np.random.default_rng(14)
    models = [stable_model_from_reflections(rng.uniform(-0.9, 0.9, 14)) for _ in range(1280)]
    calls = _spy_eigensolve(monkeypatch)
    lsfs = ar_to_lsf(models)
    crowded = [_share_a_cell(lsfs[:, kind::2]) for kind in (0, 1)]
    assert [len(a) for a in calls] == [int(c.sum()) for c in crowded if c.any()]
    assert 0 < sum(len(a) for a in calls) < 0.01 * 2 * len(models)
    # The same matrices come from converting just those models.
    batch_calls = calls[:]
    calls.clear()
    np.testing.assert_array_equal(
        ar_to_lsf([m for m, c in zip(models, crowded[0] | crowded[1], strict=True) if c]),
        lsfs[crowded[0] | crowded[1]],
    )
    assert len(calls) == len(batch_calls)
    for alone, batched in zip(calls, batch_calls, strict=True):
        np.testing.assert_array_equal(alone, batched)


def test_close_pole_row_alone_reaches_the_eigensolve(monkeypatch):
    calls = _spy_eigensolve(monkeypatch)
    ar_to_lsf([close_pole_model(14)])
    alone = calls[:]
    calls.clear()
    good = _reference_corpus()[12::19][:8]  # order-14 models the grid brackets
    ar_to_lsf(good[:3] + [close_pole_model(14)] + good[3:])
    assert alone and all(len(a) == 1 for a in alone)
    assert len(calls) == len(alone)
    for batched, single in zip(calls, alone, strict=True):
        np.testing.assert_array_equal(batched, single)


def _ar_fit_coefficients():
    """Order-10 and order-14 Levinson-Durbin fits of 200-sample frames of two AR processes."""
    rng = np.random.default_rng(30)
    fits = []
    for order in (10, 14):
        for ks in ([0.9, -0.7, 0.5, -0.3], [-0.95, 0.8, 0.6, -0.4, 0.2, -0.1]):
            x = ar_signal(stable_model_from_reflections(ks).coefficients, 1.0, 200 * 64, rng)
            coeffs, _, ok = levinson_durbin(autocorrelation(x.reshape(64, 200), order))
            fits.append(coeffs[ok])
    return fits


def test_bracketed_and_colleague_roots_agree():
    by_order = {}
    for m in _reference_corpus():
        by_order.setdefault(m.order, []).append(m.coefficients)
    blocks = [np.array(rows) for rows in by_order.values()] + _ar_fit_coefficients()
    compared = 0
    for coeffs in blocks:
        for series in _cosine_series(coeffs):
            angles, ok = _bracketed_roots(series)
            expect = np.sort(_colleague_roots(series[ok]), axis=1)
            np.testing.assert_allclose(angles[ok], expect, rtol=0.0, atol=1e-12)
            compared += int(ok.sum())
    # Only 8 series of the reference corpus (orders 17-20) fall back.
    assert compared > 0.99 * 2 * sum(len(c) for c in blocks)
