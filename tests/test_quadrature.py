import math

import numpy as np
import pytest
import scipy.integrate

from curvedwigner.errors import NonconvergenceError
from curvedwigner.quadrature import QuadratureSpec, adaptive_gauss_kronrod, gauss_kronrod_vector


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
    # one vector integrand whose components need different refinement depths
    # and sit at very different magnitudes:
    # SCALE (exp(-x^2) cos(K x) + i cos(K x)) over [-8, 8]
    K = np.array([0.5, 3.0, 20.0, 60.0, 1.0])
    SCALE = np.array([1.0, 1e-6, 1e3, 1.0, 1e-12])
    SPEC = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-10)

    def f(self, x, cols=slice(None)):
        kx = np.outer(x, self.K[cols])
        return self.SCALE[cols] * (np.exp(-x * x)[:, None] * np.cos(kx) + 1j * np.cos(kx))

    def exact(self, cols=slice(None)):
        k = self.K[cols]
        # the Gaussian's tails beyond |x| = 8 are below e^-64
        return self.SCALE[cols] * (math.sqrt(math.pi) * np.exp(-k * k / 4.0)
                                   + 2j * np.sin(8.0 * k) / k)

    def tol(self, values):
        return np.maximum(self.SPEC.abs_tol, self.SPEC.rel_tol * np.abs(values))

    def test_each_component_meets_its_own_tolerance(self):
        vals, errs = gauss_kronrod_vector(self.f, -8.0, 8.0, self.SPEC, 8)
        assert vals.shape == errs.shape == self.K.shape
        assert np.all(errs <= self.tol(vals))
        assert np.all(np.abs(vals - self.exact()) <= self.tol(self.exact()))

    def test_reversed_components_give_reversed_values(self):
        vals, errs = gauss_kronrod_vector(self.f, -8.0, 8.0, self.SPEC, 8)
        rev, rev_errs = gauss_kronrod_vector(lambda x: self.f(x, slice(None, None, -1)),
                                             -8.0, 8.0, self.SPEC, 8)
        assert rev[::-1].tobytes() == vals.tobytes()  # bit for bit
        assert rev_errs[::-1].tobytes() == errs.tobytes()

    def test_components_match_solo_calls(self):
        vals, _ = gauss_kronrod_vector(self.f, -8.0, 8.0, self.SPEC, 8)
        for i in range(len(self.K)):
            solo, _ = adaptive_gauss_kronrod(lambda x, i=i: self.f(x, i), -8.0, 8.0, self.SPEC, 8)
            assert abs(vals[i] - solo) <= self.tol(vals[i]) + self.tol(solo)

    def test_scalar_call_is_the_one_component_case(self):
        val, err = adaptive_gauss_kronrod(lambda x: self.f(x, 2), -8.0, 8.0, self.SPEC, 8)
        vals, errs = gauss_kronrod_vector(lambda x: self.f(x, [2]), -8.0, 8.0, self.SPEC, 8)
        assert val == vals[0] and err == errs[0]  # bit for bit

    def test_one_exhausted_budget_raises(self):
        spec = QuadratureSpec(max_panels=256)
        # the k = 60 component alone needs more than 256 shared panels
        rest = [0, 1, 2, 4]
        vals, _ = gauss_kronrod_vector(lambda x: self.f(x, rest), -8.0, 8.0, spec, 8)
        assert np.all(np.isfinite(vals))
        with pytest.raises(NonconvergenceError):
            gauss_kronrod_vector(self.f, -8.0, 8.0, spec, 8)
        with pytest.raises(NonconvergenceError):
            adaptive_gauss_kronrod(lambda x: self.f(x, 3), -8.0, 8.0, spec, 8)
