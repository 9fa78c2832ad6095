import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binse.linpred import (
    ArModel,
    LsfVector,
    NumericalDegeneracyError,
    ar_envelope,
    ar_to_lsf,
    levinson_durbin,
    lsf_to_ar,
)


def stable_model_from_reflections(ks):
    """Step-up recursion: reflection coefficients in (-1,1) give a stable model."""
    a = np.zeros(0)
    for k in ks:
        a = np.concatenate((a - k * a[::-1], [k]))
    return ArModel(a, 1.0)


class TestLevinsonDurbin:
    def test_white(self):
        m = levinson_durbin(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(m.coefficients, 0.0)
        assert m.excitation_variance == 1.0

    def test_ar1_closed_form(self):
        # r(q) = 0.9^q / (1 - 0.81) for a1=0.9, unit excitation variance
        r = 0.9 ** np.arange(4) / (1 - 0.81)
        m = levinson_durbin(r)
        assert abs(m.coefficients[0] - 0.9) < 1e-10
        assert np.all(np.abs(m.coefficients[1:]) < 1e-10)
        assert abs(m.excitation_variance - 1.0) < 1e-10

    def test_order_14(self, rng):
        x = rng.normal(size=4000)
        r = np.correlate(x, x, "full")[len(x) - 1 : len(x) + 14] / len(x)
        m = levinson_durbin(r)
        assert m.order == 14
        assert m.is_stable()

    def test_r0_nonpositive(self):
        with pytest.raises(ValueError):
            levinson_durbin(np.array([0.0, 0.1]))

    def test_degenerate_reflection(self):
        with pytest.raises(NumericalDegeneracyError):
            levinson_durbin(np.array([1.0, 1.1]))

    def test_prediction_error_nonincreasing(self, rng):
        x = rng.normal(size=2000)
        r = np.correlate(x, x, "full")[len(x) - 1 : len(x) + 15] / len(x)
        errors = [levinson_durbin(r[: p + 1]).excitation_variance for p in range(1, 15)]
        assert np.all(np.diff(errors) <= 1e-12)


class TestLsfConversion:
    def test_flat_order2(self):
        lsf = ar_to_lsf(ArModel(np.zeros(2)))
        # Oracle: roots of P(z)=1+z^-3 and Q(z)=1-z^-3 on the unit circle.
        p_root = np.sort(np.angle(np.roots([1, 0, 0, 1])))
        q_root = np.sort(np.angle(np.roots([1, 0, 0, -1])))
        expect = np.sort(
            [a for a in np.concatenate((p_root, q_root)) if 0 < a < np.pi - 1e-9]
        )
        np.testing.assert_allclose(lsf.frequencies, expect, atol=1e-10)

    def test_round_trip_many_orders(self, rng):
        for _ in range(1000):
            p = int(rng.integers(2, 15))
            m = stable_model_from_reflections(rng.uniform(-0.9, 0.9, p))
            back = lsf_to_ar(ar_to_lsf(m))
            assert np.max(np.abs(back.coefficients - m.coefficients)) < 1e-8

    def test_near_boundary_pole(self):
        lsf = ar_to_lsf(ArModel(np.array([0.999])))
        # Oracle: direct roots of the symmetric/antisymmetric polynomials.
        a_ext = np.array([1.0, -0.999, 0.0])
        p_poly = a_ext + a_ext[::-1]
        q_poly = a_ext - a_ext[::-1]
        roots = []
        for poly in (p_poly, q_poly):
            roots.extend(np.angle(np.roots(poly)))
        expect = np.sort([r for r in roots if 1e-12 < r < np.pi - 1e-12])
        np.testing.assert_allclose(lsf.frequencies, expect, atol=1e-9)
        # Closed form: P(z) = 1 - 1.998 z^-1 + z^-2, root at cos(w) = 0.999.
        assert abs(lsf.frequencies[0] - np.arccos(0.999)) < 1e-9

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            ar_to_lsf(ArModel(np.array([1.5])))

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            LsfVector(np.array([1.0, 0.5]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=2, max_size=14)
    )
    def test_round_trip_hypothesis(self, ks):
        m = stable_model_from_reflections(np.asarray(ks))
        if not m.is_stable(margin=1e-6):
            return
        lsf = ar_to_lsf(m)
        back = lsf_to_ar(lsf)
        assert np.max(np.abs(back.coefficients - m.coefficients)) < 1e-8

    def test_levinson_output_stable(self, rng):
        from conftest import ar_signal

        x = ar_signal([1.2, -0.8, 0.3, -0.1], 1.0, 4000, rng)
        r = np.correlate(x, x, "full")[len(x) - 1 : len(x) + 15] / len(x)
        assert levinson_durbin(r).is_stable()


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

    def test_short_dft_rejected(self):
        with pytest.raises(ValueError):
            ar_envelope(ArModel(np.zeros(10)), 8)


def _reference_ar_to_lsf(model):
    """Scalar grid-plus-bisection root search with np.polydiv deflation.

    The loop implementation ``ar_to_lsf`` replaced; kept as the reference
    its array version must reproduce.
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


def test_ar_to_lsf_matches_scalar_reference():
    rng = np.random.default_rng(1986)
    worst = 0.0
    for order in list(range(2, 21)) * 27:  # 513 models, odd and even orders
        m = stable_model_from_reflections(rng.uniform(-0.97, 0.97, order))
        got = ar_to_lsf(m).frequencies
        want = _reference_ar_to_lsf(m)
        assert got.shape == want.shape == (order,)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12
