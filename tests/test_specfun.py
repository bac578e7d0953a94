import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_routes import continuous_hahn
from curvedwigner.errors import NonconvergenceError, PoleError
from curvedwigner import specfun as sf

mp.mp.dps = 40


class TestLogGamma:
    def test_trivial_values(self):
        assert abs(sf.log_gamma(1.0)) < 1e-14
        assert abs(sf.log_gamma(5.0) - math.log(24.0)) < 1e-13

    @pytest.mark.parametrize("z", [0.75 + 0.3j, 2.0 - 5.0j, 10.0 + 10.0j, 30.0, 0.9, 3.7 + 0.1j])
    def test_recurrence(self, z):
        lhs = sf.log_gamma(z + 1.0)
        rhs = sf.log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.3, 7.7, 25.0, 49.0])
    def test_against_lgamma_real(self, x):
        assert sf.log_gamma(x).real == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)
        assert sf.log_gamma(x).imag == 0.0

    @pytest.mark.parametrize("z", [1.5 + 2.0j, 0.2 + 0.9j, -2.3 + 4.0j, 12.0 - 3.0j, 40.0 + 20.0j])
    def test_against_mpmath(self, z):
        # compare exp(log_gamma) so reflection branch offsets do not matter
        ours = cmath.exp(sf.log_gamma(z))
        ref = complex(mp.gamma(z))
        assert abs(ours - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles_raise(self, z):
        with pytest.raises(PoleError):
            sf.log_gamma(z)


class TestGammaAbsSquared:
    def test_trivial(self):
        assert sf.gamma_abs_squared(2.0) == pytest.approx(1.0, abs=1e-14)
        assert sf.gamma_abs_squared(0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_one_plus_i(self):
        # |Gamma(1+i)|^2 = |i Gamma(i)|^2 = pi / sinh(pi)
        assert sf.gamma_abs_squared(1.0 + 1.0j) == pytest.approx(
            math.pi / math.sinh(math.pi), rel=1e-13)

    def test_imaginary_axis_identity(self):
        for p in np.linspace(0.1, 10.0, 50):
            val = sf.gamma_abs_squared(1j * p) * p * math.sinh(math.pi * p)
            assert val == pytest.approx(math.pi, rel=1e-12)


def _pochhammer(a, k):
    out = 1.0 + 0j
    for j in range(k):
        out *= a + j
    return out


class TestGauss2F1:
    def test_x_zero(self):
        assert sf.gauss_2f1(0.3 + 1j, 2.0, 1.7, 0.0) == 1.0

    def test_two_term(self):
        b, c, x = 2.7, 1.3, 0.6
        assert sf.gauss_2f1(-1.0, b, c, x) == pytest.approx(1.0 - b * x / c, rel=1e-14)

    def test_three_term_by_hand(self):
        # 1 + (-2)(6)/(2*1!) * 0.5 + (-2)(-1)(6)(7)/(2*3*2!) * 0.25 = -0.25
        # (cross-checked against mpmath.hyp2f1)
        assert sf.gauss_2f1(-2.0, 6.0, 2.0, 0.5) == pytest.approx(-0.25, rel=1e-14)

    @given(n=st.integers(0, 8),
           b=st.floats(-3.0, 5.0),
           c=st.floats(0.5, 5.0),
           x=st.floats(-0.95, 0.95))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_terminating_matches_pochhammer_sum(self, n, b, c, x):
        # Oracle: the exact terms in 40-digit arithmetic.  The sum can cancel
        # (terms near 1e3 summing to 0.3), so the attainable accuracy is
        # eps * sum|t_k| / |sum t_k|, the condition number.  Safety factor
        # 8 (n + 1): term k carries about 5k roundings from its Pochhammer
        # ratio and the running sum adds n more, at most 6n in all.
        terms = [mp.rf(-n, k) * mp.rf(b, k) / (mp.rf(c, k) * mp.factorial(k)) * mp.mpf(x) ** k
                 for k in range(n + 1)]
        ref = complex(mp.fsum(terms))
        abs_sum = float(mp.fsum(abs(t) for t in terms))
        err = abs(sf.gauss_2f1(float(-n), b, c, x) - ref)
        assert err <= 8 * (n + 1) * np.finfo(float).eps * abs_sum

    @pytest.mark.parametrize("a,b,c,x", [
        (0.3, 1.1, 2.2, 0.5),
        (1.5, 0.25, 3.0, 0.89),
        (0.5 + 1.0j, 2.0 - 0.5j, 1.5 + 0.2j, 0.4),
        (2.0, 3.0, 0.5, 0.85),
    ])
    def test_series_against_mpmath(self, a, b, c, x):
        ref = complex(mp.hyp2f1(a, b, c, x))
        assert sf.gauss_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a,b,c,x", [
        (0.3, 1.1, 2.7, 0.97),        # c-a-b = 1.3, generic
        (0.25, 0.35, 0.8, 0.99),      # c-a-b = 0.2
        (0.5, 1.25, 0.9, 0.95),       # c-a-b negative non-integer
    ])
    def test_near_one_transformation(self, a, b, c, x):
        ref = complex(mp.hyp2f1(a, b, c, x))
        assert sf.gauss_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_near_one_logarithmic_case(self, m):
        a, b, x = 0.3, 0.45, 0.96
        c = a + b + m
        ref = complex(mp.hyp2f1(a, b, c, x))
        assert sf.gauss_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-10)

    def test_near_one_negative_integer_excess(self):
        a, b, x = 1.2, 1.6, 0.94
        c = a + b - 2.0  # c - a - b = -2
        ref = complex(mp.hyp2f1(a, b, c, x))
        assert sf.gauss_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-10)

    def test_lower_pole_raises(self):
        with pytest.raises(PoleError):
            sf.gauss_2f1(0.3, 0.7, -2.0, 0.5)

    def test_terminating_before_pole_is_fine(self):
        # a = -1 terminates before c = -2 poisons the series
        val = sf.gauss_2f1(-1.0, 1.0, -2.0, 0.5)
        assert val == pytest.approx(1.0 + 0.5 / 2.0, rel=1e-14)

    def test_nonterminating_outside_domain_raises(self):
        with pytest.raises(NonconvergenceError):
            sf.gauss_2f1(0.3, 0.7, 1.1, 1.0)


class TestHyper3F2:
    def test_n_zero(self):
        assert sf.hyper_3f2_terminating(0, 1.0, 2.0j, 3.0, 4.0) == 1.0

    def test_n_one(self):
        u, v, l1, l2 = 1.7, 2.3 - 1.0j, 3.1, 0.9
        expected = 1.0 - u * v / (l1 * l2)
        assert sf.hyper_3f2_terminating(1, u, v, l1, l2) == pytest.approx(expected, rel=1e-14)

    def test_n_two_against_pochhammer(self):
        n, u, v, l1, l2 = 2, 0.8, 1.9 + 0.4j, 2.2, 1.3
        direct = sum(
            _pochhammer(-n, k) * _pochhammer(u, k) * _pochhammer(v, k)
            / (_pochhammer(l1, k) * _pochhammer(l2, k) * math.factorial(k))
            for k in range(n + 1))
        assert sf.hyper_3f2_terminating(n, u, v, l1, l2) == pytest.approx(direct, rel=1e-14)

    def test_lower_pole_raises(self):
        with pytest.raises(PoleError):
            sf.hyper_3f2_terminating(3, 1.0, 1.0, -1.0, 2.0)


class TestGegenbauer:
    def test_low_orders(self):
        alpha, xi = 1.7, 0.3
        assert sf.gegenbauer(0, alpha, xi) == 1.0
        assert sf.gegenbauer(1, alpha, xi) == pytest.approx(2 * alpha * xi, rel=1e-15)
        assert sf.gegenbauer(2, alpha, xi) == pytest.approx(
            2 * alpha * (alpha + 1) * xi**2 - alpha, rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 12])
    @pytest.mark.parametrize("alpha", [0.7, 2.5, 17.3])
    def test_matches_parity_2f1_forms(self, n, alpha):
        for xi in np.linspace(-1.0, 1.0, 21):
            a = sf.gegenbauer(n, alpha, float(xi))
            b = sf.gegenbauer_2f1_form(n, alpha, float(xi))
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a))

    @pytest.mark.parametrize("n,alpha", [(3, 0.8), (7, 4.5), (12, 27.5)])
    def test_against_scipy(self, n, alpha):
        for xi in (-0.9, -0.2, 0.0, 0.55, 1.0):
            assert sf.gegenbauer(n, alpha, xi) == pytest.approx(
                float(sps.eval_gegenbauer(n, alpha, xi)), rel=1e-10)


class TestHermiteLaguerre:
    def test_hermite_low(self):
        assert sf.hermite(0, 0.3) == 1.0
        assert sf.hermite(1, 0.3) == pytest.approx(0.6)
        assert sf.hermite(3, 1.0) == pytest.approx(-4.0)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_hermite_scipy(self, n):
        for x in (-1.3, 0.0, 0.4, 2.5):
            assert sf.hermite(n, x) == pytest.approx(float(sps.eval_hermite(n, x)), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_laguerre_scipy(self, n):
        for x in (0.0, 0.7, 3.3, 11.0):
            assert sf.laguerre(n, x) == pytest.approx(
                float(sps.eval_laguerre(n, x)), rel=1e-10, abs=1e-12)


class TestContinuousHahn:
    def test_degree_zero_constant(self):
        for z in (0.0, 0.7, -2.1):
            assert continuous_hahn(0, z, 1.0, 2.0, 1.0, 2.0) == 1.0 + 0j

    def test_degree_one_linear(self):
        a, b, c, d = 0.8, 1.8, 0.8, 1.8
        p0 = continuous_hahn(1, 0.0, a, b, c, d)
        p1 = continuous_hahn(1, 0.5, a, b, c, d)
        p2 = continuous_hahn(1, 1.0, a, b, c, d)
        assert abs((p2 - p1) - (p1 - p0)) < 1e-13  # vanishing second difference

    def test_askey_normalization_prefactor(self):
        # leading i^n (a+c)_n (a+d)_n / n! times the 3F2 value at the origin
        n, a, b, c, d = 2, 0.5, 1.5, 0.5, 1.5
        val = continuous_hahn(n, 0.0, a, b, c, d)
        pref = (1j)**n * _pochhammer(a + c, n) * _pochhammer(a + d, n) / math.factorial(n)
        f32 = sf.hyper_3f2_terminating(n, n + a + b + c + d - 1.0, a, a + c, a + d)
        assert val == pytest.approx(pref * f32, rel=1e-14)


class TestLegendreImagMu:
    def test_p_zero_reduces_to_legendre(self):
        for x in (-0.7, 0.0, 0.4, 0.9):
            assert sf.legendre_imag_mu(0.0, 0.0, x) == pytest.approx(1.0, rel=1e-14)
            assert sf.legendre_imag_mu(1.0, 0.0, x) == pytest.approx(x, rel=1e-13, abs=1e-14)

    def test_ode_residual_h2(self):
        # y(chi) = P_sigma^{ip}(tanh chi) solves y'' + [p^2 + sigma(sigma+1) sech^2] y = 0
        sigma, p, chi = 1.3, 0.7, 0.4

        def y(c):
            return sf.legendre_imag_mu(sigma, p, math.tanh(c))

        res = []
        for h in (1e-3, 5e-4):
            second = (y(chi + h) - 2 * y(chi) + y(chi - h)) / h**2
            res.append(abs(second + (p**2 + sigma * (sigma + 1) / math.cosh(chi)**2) * y(chi)))
        assert 3.0 < res[0] / res[1] < 5.0

    @pytest.mark.parametrize("sigma,p,x", [
        (1.3, 0.7, -0.95),   # hypergeometric argument beyond the 0.9 crossover
        (4.0, 1.0, -0.97),   # terminating degree deep in the left tail
        (0.5, 2.0, 0.95),
        (1.3, 0.7, 0.2),
    ])
    def test_against_mpmath_legenp(self, sigma, p, x):
        ref = complex(mp.legenp(sigma, 1j * p, x))
        assert sf.legendre_imag_mu(sigma, p, x) == pytest.approx(ref, rel=1e-12)

    def test_smooth_across_series_crossover(self):
        # raw series vs 1-x connection formula meet at (1-x)/2 = 0.9
        lo = sf.legendre_imag_mu(1.3, 0.7, -0.801)
        hi = sf.legendre_imag_mu(1.3, 0.7, -0.799)
        assert abs(hi - lo) < 0.02  # same smooth function, adjacent points

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.legendre_imag_mu(1.0, 0.5, 1.0)


class TestDigamma:
    @pytest.mark.parametrize("z", [0.3, 4.5, 1.0 + 2.0j, -1.3 + 0.4j, 20.0 - 7.0j])
    def test_against_mpmath(self, z):
        ref = complex(mp.digamma(z))
        assert sf.digamma(z) == pytest.approx(ref, rel=1e-12, abs=1e-12)
