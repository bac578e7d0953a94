import math

import numpy as np
import pytest
import scipy.integrate

from curvedwigner.errors import NonconvergenceError
from curvedwigner.quadrature import QuadratureSpec, adaptive_gauss_kronrod, gauss_kronrod_batch


def test_gaussian_integral():
    val, err = adaptive_gauss_kronrod(lambda x: np.exp(-x * x), -10.0, 10.0)
    assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert err < 1e-10


def test_sech_fourth():
    val, _ = adaptive_gauss_kronrod(lambda x: np.cosh(x) ** -4.0, -25.0, 25.0)
    assert val.real == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_oscillatory_gaussian():
    k = 9.0
    val, _ = adaptive_gauss_kronrod(lambda x: np.exp(-x * x) * np.exp(1j * k * x), -10.0, 10.0)
    expected = math.sqrt(math.pi) * math.exp(-k * k / 4.0)
    assert val.real == pytest.approx(expected, rel=1e-9)
    assert abs(val.imag) < 1e-13


def test_against_scipy_quad():
    f = lambda x: np.sin(3.0 * x) ** 2 / (1.0 + x * x)
    val, _ = adaptive_gauss_kronrod(f, -4.0, 7.0)
    ref, _ = scipy.integrate.quad(lambda x: math.sin(3 * x) ** 2 / (1 + x * x), -4.0, 7.0,
                                  epsabs=1e-12, epsrel=1e-12)
    assert val.real == pytest.approx(ref, rel=1e-10)


def test_zero_width_interval():
    val, err = adaptive_gauss_kronrod(lambda x: np.exp(x), 2.0, 2.0)
    assert val == 0.0 and err == 0.0


def test_panel_budget_raises():
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_panels=4)
    with pytest.raises(NonconvergenceError):
        adaptive_gauss_kronrod(lambda x: np.cos(60.0 * x) * np.exp(-x * x), -8.0, 8.0, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_panels=0)
    with pytest.raises(ValueError):
        adaptive_gauss_kronrod(lambda x: x, 1.0, 0.0)


class TestBatch:
    # wavenumbers and scales chosen so the integrands need different
    # refinement depths and sit at very different magnitudes
    K = np.array([0.5, 3.0, 20.0, 60.0, 1.0])
    SCALE = np.array([1.0, 1e-6, 1e3, 1.0, 1e-12])
    A = np.array([-8.0, -8.0, -6.0, -8.0, 0.0])
    B = np.array([8.0, 7.0, 8.0, 8.0, 2.0])
    N0 = np.array([8, 8, 3, 20, 1])

    def f(self, x, i):
        return self.SCALE[i] * (np.exp(-x * x) * np.cos(self.K[i] * x)
                                + 1j * np.sin(self.K[i] * x) / (1.0 + x * x))

    def test_each_result_equals_its_solo_result(self):
        vals, errs = gauss_kronrod_batch(self.f, self.A, self.B, None, self.N0)
        depths = set()
        for i in range(len(self.K)):
            calls = []

            def solo(x, i=i):
                calls.append(x.size)
                return self.f(x, np.full(x.shape, i))

            val, err = adaptive_gauss_kronrod(solo, self.A[i], self.B[i], None, self.N0[i])
            depths.add(len(calls))
            assert val == vals[i] and err == errs[i]  # bit-identical
        assert len(depths) > 2

    def test_one_exhausted_budget_raises(self):
        spec = QuadratureSpec(max_panels=256)
        # the k = 60 integrand alone needs more than 256 panels
        rest = [0, 1, 2, 4]

        def f_rest(x, i):
            return self.f(x, np.asarray(rest)[i])

        vals, _ = gauss_kronrod_batch(f_rest, self.A[rest], self.B[rest], spec, self.N0[rest])
        assert np.all(np.isfinite(vals))
        with pytest.raises(NonconvergenceError):
            gauss_kronrod_batch(self.f, self.A, self.B, spec, self.N0)
        with pytest.raises(NonconvergenceError):
            adaptive_gauss_kronrod(lambda x: self.f(x, np.full(x.shape, 3)),
                                   self.A[3], self.B[3], spec, self.N0[3])
