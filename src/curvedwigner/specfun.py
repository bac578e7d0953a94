"""Special-function kernel: complex log-gamma, Gauss and generalized
hypergeometric series, classical orthogonal polynomials, and the Ferrers
function of imaginary order.

Everything here is pure and re-entrant, and scalar but for the polynomials,
which also take arrays.  Complex arguments are plain Python ``complex``; no
arbitrary-precision types are involved.

``gauss_2f1`` sums terminating series at any real x and the others on
0 <= x < 1, where past x = 0.9 c-a-b must be off the integers.  A scattering
state's P_sigma^{ip} has c-a-b = -ip, so every p > LOG_CASE_EPS is covered.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonconvergenceError, PoleError

__all__ = [
    "log_gamma",
    "gamma_abs_squared",
    "gauss_2f1",
    "hyper_3f2_terminating",
    "gegenbauer",
    "gegenbauer_2f1_form",
    "hermite",
    "laguerre",
    "legendre_imag_mu",
]

# Lanczos approximation, g = 7, 9 terms.  Relative accuracy ~1e-14 over the
# half-plane Re(z) > 0.5; the reflection formula covers the rest.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.9189385332046727417803297364

_SERIES_EPS = 1e-17
_MAX_TERMS = 100_000
# |c-a-b - round(c-a-b)| <= this: the logarithmic case, where the 1-x formula is singular
LOG_CASE_EPS = 1e-6


def _as_terminating_index(a: complex) -> int | None:
    """Return m >= 0 when the complex a is the non-positive integer -m, else None."""
    if a.imag == 0.0 and a.real <= 1e-12 and abs(a.real - round(a.real)) < 1e-12:
        return int(-round(a.real))
    return None


def log_gamma(z: complex) -> complex:
    """log of the gamma function.

    Principal values on Re(z) > 1/2; in the reflected half-plane the
    imaginary part may differ from the analytic continuation by a multiple
    of 2*pi (every consumer here exponentiates or takes the real part).
    """
    z = complex(z)
    if _as_terminating_index(z) is not None:
        raise PoleError(f"gamma pole at z={z}")
    if z.real < 0.5:
        # reflection: log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        return math.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    zm = z - 1.0
    acc = complex(_LANCZOS[0])
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (zm + i)
    t = zm + _LANCZOS_G + 0.5
    out = _LOG_SQRT_2PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(acc)
    if z.imag == 0.0:
        out = complex(out.real, 0.0)
    return out


def gamma_abs_squared(z: complex) -> float:
    """|Gamma(z)|^2 = exp(2 Re log Gamma(z))."""
    return math.exp(2.0 * log_gamma(z).real)


def _f21_series(a: complex, b: complex, c: complex, x: float, n_terms: int | None = None):
    """Raw power series.  ``n_terms`` caps the sum for terminating cases."""
    tot = term = 1.0 + 0j
    jmax = n_terms if n_terms is not None else _MAX_TERMS
    j = 0
    while j < jmax:
        denom = (c + j) * (j + 1)
        if denom == 0:
            raise PoleError(f"2F1 lower parameter c={c} truncates the series at j={j}")
        term *= (a + j) * (b + j) / denom * x
        tot += term
        j += 1
        if n_terms is None and j > 5 and abs(term) < _SERIES_EPS * abs(tot):
            return tot
    if n_terms is None:
        raise NonconvergenceError(f"2F1 series did not converge at x={x}")
    return tot


def _f21_near_one(a: complex, b: complex, c: complex, x: float) -> complex:
    """Connection formula in powers of 1-x (Abramowitz & Stegun 15.3.6) for
    x near 1; Gamma(+-(c-a-b)) is a pole within LOG_CASE_EPS of an integer."""
    w = 1.0 - x
    d = c - a - b
    if abs(d - round(d.real)) <= LOG_CASE_EPS:
        raise PoleError(f"2F1 connection formula is singular at c-a-b={d}")
    t1 = cmath.exp(log_gamma(c) + log_gamma(d) - log_gamma(c - a) - log_gamma(c - b))
    t2 = cmath.exp(log_gamma(c) + log_gamma(-d) - log_gamma(a) - log_gamma(b)) * w**d
    return t1 * _f21_series(a, b, 1.0 - d, w) + t2 * _f21_series(c - a, c - b, 1.0 + d, w)


def gauss_2f1(a: complex, b: complex, c: complex, x: float) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; x) for any real x when the
    series terminates, else for x in [0, 1): the raw series up to x = 0.9,
    then the 1-x connection formula, which raises PoleError when c-a-b is
    within LOG_CASE_EPS of an integer."""
    a, b, c = complex(a), complex(b), complex(c)
    na, nb = _as_terminating_index(a), _as_terminating_index(b)
    if na is not None or nb is not None:
        n = min(k for k in (na, nb) if k is not None)
        mc = _as_terminating_index(c)
        if mc is not None and mc < n:
            raise PoleError(f"2F1 lower parameter c={c} is a pole before termination")
        return _f21_series(a, b, c, x, n_terms=n)
    if _as_terminating_index(c) is not None:
        raise PoleError(f"2F1 lower parameter c={c} is a non-positive integer")
    if not 0.0 <= x < 1.0:
        raise NonconvergenceError(f"non-terminating 2F1 requires 0 <= x < 1, got {x}")
    if x <= 0.9:
        return _f21_series(a, b, c, x)
    return _f21_near_one(a, b, c, x)


def hyper_3f2_terminating(
    n: int, upper2: complex, upper3: complex, lower1: complex, lower2: complex
) -> complex:
    """3F2(-n, upper2, upper3; lower1, lower2; 1) as an exact finite sum."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    tot = term = 1.0 + 0j
    for k in range(n):
        denom = (lower1 + k) * (lower2 + k) * (k + 1)
        if denom == 0:
            raise PoleError("3F2 lower parameter hits a pole inside the terminating sum")
        term *= (-n + k) * (upper2 + k) * (upper3 + k) / denom
        tot += term
    return tot


def gegenbauer(n: int, alpha: float, xi: float) -> float:
    """Gegenbauer (ultraspherical) polynomial C_n^alpha(xi) by the
    three-term recurrence, in place on three arrays (at n ~ 2000 allocating
    each step's temporaries cost more than its arithmetic); ``xi`` may be a
    scalar or an array."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if n == 0:
        return 1.0
    xi = np.asarray(xi, dtype=float)
    prev, cur, nxt = np.ones_like(xi), np.array(2.0 * alpha * xi), np.empty_like(xi)
    for k in range(2, n + 1):
        # (2 (k + alpha - 1) xi cur - (k + 2 alpha - 2) prev) / k, in that order
        np.multiply(2.0 * (k + alpha - 1.0), xi, out=nxt)
        nxt *= cur
        prev *= k + 2.0 * alpha - 2.0
        nxt -= prev
        nxt /= k
        prev, cur, nxt = cur, nxt, prev
    return cur if cur.ndim else float(cur)


def gegenbauer_2f1_form(n: int, alpha: float, xi: float) -> float:
    """C_n^alpha(xi) through its parity-resolved 2F1 representations
    (independent cross-check of the recurrence)."""
    if n % 2 == 0:
        h = n // 2
        pref = (-1.0) ** h * math.exp(math.lgamma(alpha + h) - math.lgamma(h + 1) - math.lgamma(alpha))
        return pref * gauss_2f1(-h, h + alpha, 0.5, xi * xi).real
    h = (n - 1) // 2
    pref = (-1.0) ** h * math.exp(math.lgamma(alpha + h + 1) - math.lgamma(h + 1) - math.lgamma(alpha))
    return pref * 2.0 * xi * gauss_2f1(-h, h + 1 + alpha, 1.5, xi * xi).real


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x); ``x`` may be a scalar or an
    array."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for k in range(2, n + 1):
        prev, cur = cur, 2.0 * x * cur - 2.0 * (k - 1) * prev
    return cur


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x)."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 - x) * cur - k * prev) / (k + 1.0)
    return cur


def legendre_imag_mu(sigma: float, p: float, x: float) -> complex:
    """Ferrers function P_sigma^{i p}(x) of imaginary order, |x| < 1,
    through its hypergeometric representation

        P_nu^mu(x) = ((1+x)/(1-x))^{mu/2} / Gamma(1-mu) *
                     2F1(-nu, nu+1; 1-mu; (1-x)/2).

    Every |x| < 1 when sigma is a whole number or |p| > LOG_CASE_EPS;
    otherwise x < -0.8 raises PoleError.
    """
    if not -1.0 < x < 1.0:
        raise ValueError("legendre_imag_mu requires |x| < 1")
    mu = 1j * p
    pref = cmath.exp(0.5 * mu * math.log((1.0 + x) / (1.0 - x)) - log_gamma(1.0 - mu))
    return pref * gauss_2f1(-sigma, sigma + 1.0, 1.0 - mu, (1.0 - x) / 2.0)
