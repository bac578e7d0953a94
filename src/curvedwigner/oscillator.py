"""The conic oscillator on the hyperbola: a Poschl-Teller sech^2 trough.

Bound states, the quadratic spectrum, the closed 3F2 momentum-space
profile, scattering states, and the flat harmonic-oscillator reference used
in contraction checks.  Bound wavefunctions are normalized with respect to
dchi.

The printed closed-form momentum profile is off by the constant
(-1)^n / sqrt(2R); ``psi_momentum`` carries that constant in its prefactor,
and ``momentum_calibration`` measures it against the numerical transform of
the position profile, which verification reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .geometry import shapiro_forward_1d
from .quadrature import QuadratureSpec
from .sampling import DecayEnvelope, FieldSampler
from .specfun import (
    gamma_abs_squared,
    gegenbauer,
    hermite,
    hyper_3f2_terminating,
    legendre_imag_mu,
    log_gamma,
)

__all__ = [
    "OscillatorParams",
    "BoundStateLabel",
    "ScatteringStateLabel",
    "depth_param",
    "bound_state_count",
    "energy",
    "psi_bound",
    "bound_sampler",
    "momentum_calibration",
    "psi_momentum",
    "psi_scatter",
    "flat_ho_reference",
]


def depth_param(mu: float, omega: float, R: float) -> float:
    """Well-depth parameter s = -1/2 + sqrt((mu omega R^2)^2 + 1/4) >= 0."""
    if mu <= 0 or R <= 0 or omega < 0:
        raise DomainError("require mu > 0, R > 0, omega >= 0")
    g = mu * omega * R * R
    # -1/2 + sqrt(g^2 + 1/4) without cancellation for small g
    return g * g / (0.5 + math.sqrt(g * g + 0.25))


@dataclass(frozen=True)
class OscillatorParams:
    """Oscillator on a hyperbola of radius R: mass parameter mu (m/hbar^2),
    frequency omega, and the derived well depth s."""

    mu: float
    omega: float
    R: float

    def __post_init__(self):
        depth_param(self.mu, self.omega, self.R)  # validates ranges

    @cached_property
    def s(self) -> float:
        return depth_param(self.mu, self.omega, self.R)

    @property
    def E0(self) -> float:
        """Asymptotic potential level (binding threshold)."""
        return 0.5 * self.mu * self.omega ** 2 * self.R ** 2

    @classmethod
    def from_depth(cls, s: float, mu: float = 1.0, R: float = 1.0) -> "OscillatorParams":
        """Parameters whose derived depth is exactly ``s`` (inverts
        s(s+1) = (mu omega R^2)^2)."""
        if s < 0:
            raise DomainError("depth parameter must be non-negative")
        omega = math.sqrt(s * (s + 1.0)) / (mu * R * R)
        return cls(mu, omega, R)


def _level_bound(s: float) -> float:
    """The strict upper bound s + 1 on level indices, snapped to the nearest
    integer when s is one to rounding accuracy (so depth round-trips do not
    leak an extra level)."""
    b = s + 1.0
    if abs(b - round(b)) < 1e-12 * max(1.0, abs(b)):
        return float(round(b))
    return b


def bound_state_count(params: OscillatorParams) -> int:
    """Number of levels n with n < s + 1.  The vanishing well (omega = 0)
    supports none: its only candidate label n = 0 sits exactly at the
    threshold with an identically vanishing profile."""
    if params.omega == 0.0:
        return 0
    b = _level_bound(params.s)
    return int(b) if b == int(b) else math.ceil(b)


@dataclass(frozen=True)
class BoundStateLabel:
    """Discrete level n of the well; requires n < s + 1."""

    n: int
    params: OscillatorParams

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("n must be a non-negative integer")
        if self.n >= _level_bound(self.params.s):
            raise DomainError(f"level n={self.n} is unbound for s={self.params.s}")

    @property
    def s(self) -> float:
        return self.params.s

    @property
    def sigma(self) -> float:
        """Decay exponent s - n of the profile; positive for normalizable
        states, zero exactly at threshold."""
        return self.params.s - self.n

    @property
    def at_threshold(self) -> bool:
        """True for the zero-norm level n = s (to rounding accuracy): its
        energy is E0, but its profile vanishes identically."""
        return self.sigma <= 1e-12 * max(1.0, self.s)

    def _require_normalizable(self):
        if self.at_threshold:
            raise DomainError(
                f"level n={self.n} at s={self.s} is a zero-norm threshold level; "
                "it has energy E0 but no normalizable wavefunction"
            )


def energy(n: int, params: OscillatorParams) -> float:
    """E_n = mu omega^2 R^2 / 2 - (n - s)^2 / (2 mu R^2), strictly increasing
    in n and bounded by the threshold E0."""
    state = BoundStateLabel(n, params)  # validates n < s + 1
    return params.E0 - state.sigma ** 2 / (2.0 * params.mu * params.R ** 2)


def _bound_log_prefactor(state: BoundStateLabel) -> float:
    n, s, sig = state.n, state.s, state.sigma
    return (0.5 * (math.log(sig) + math.lgamma(n + 1) - math.log(math.pi)
                   - math.lgamma(2.0 * s - n + 1.0))
            + math.lgamma(sig + 0.5))


def psi_bound(state: BoundStateLabel, chi):
    """Bound wavefunction, Gegenbauer form

        psi_n(chi) = N (2 sech chi)^(s-n) C_n^{s-n+1/2}(tanh chi),

    evaluated with a log-space prefactor so large depths do not overflow.
    Accepts scalars or arrays.
    """
    state._require_normalizable()
    chi_arr = np.asarray(chi, dtype=float)
    sig = state.sigma
    lpref = _bound_log_prefactor(state)
    log_env = sig * (math.log(2.0) - np.log(np.cosh(chi_arr)))
    vals = np.exp(lpref + log_env) * gegenbauer(state.n, sig + 0.5, np.tanh(chi_arr))
    return vals if vals.ndim else float(vals)


def bound_sampler(state: BoundStateLabel) -> FieldSampler:
    """FieldSampler for psi_bound with an exact exponential envelope:
    |psi| <= N 4^(s-n) C_n(1) exp(-(s-n)|chi|), its amplitude kept as a
    logarithm (the amplitude overflows a double from s ~ 1000, its square
    from s ~ 510)."""
    state._require_normalizable()
    sig = state.sigma
    # C_n^{alpha} attains its sup on [-1,1] at the endpoint: (2 alpha)_n / n!
    log_cmax = math.lgamma(2.0 * sig + 1.0 + state.n) - math.lgamma(2.0 * sig + 1.0) - math.lgamma(state.n + 1)
    return FieldSampler(
        func=lambda u: psi_bound(state, u),
        envelope=DecayEnvelope(
            log_amplitude=_bound_log_prefactor(state) + sig * 2.0 * math.log(2.0) + log_cmax,
            rate=sig),
    )


def _momentum_closed_3f2(state: BoundStateLabel, p: float, log_scale: float = 0.0) -> complex:
    """Closed momentum-space form as printed, times exp(log_scale):

        (R/2) sqrt(G(2s-n+1) / (pi (s-n) n!)) |G((s-n-ipR)/2)|^2 / G(s-n)^2
        * 3F2(-n, 2s-n+1, (s-n-ipR)/2; s-n+1, s-n; 1).
    """
    n, s, sig, R = state.n, state.s, state.sigma, state.params.R
    q = p * R
    # |G((s-n-ipR)/2)|^2 enters as 2 Re log G: alone it overflows from s ~ 200
    lpref = (log_scale + math.log(R / 2.0)
             + 0.5 * (math.lgamma(2.0 * s - n + 1.0) - math.log(math.pi)
                      - math.log(sig) - math.lgamma(n + 1))
             - 2.0 * math.lgamma(sig) + 2.0 * log_gamma(0.5 * (sig - 1j * q)).real)
    f32 = hyper_3f2_terminating(n, 2.0 * s - n + 1.0, 0.5 * (sig - 1j * q), sig + 1.0, sig)
    return math.exp(lpref) * f32


_CALIBRATION_PROBES = (0.45, 0.85, 1.35)  # dimensionless q = p R


def momentum_calibration(state: BoundStateLabel, spec: QuadratureSpec | None = None) -> complex:
    """Measured constant tying the printed closed momentum-space form to the
    numerical transform of psi_bound.

    The transform is the ground truth; the constant is measured at the probe
    wavenumber where the closed form is largest, one quadrature per call.
    It comes out p-independent and equal to the (-1)^n / sqrt(2 R) that
    ``psi_momentum`` carries; verification reports the measured values.
    """
    state._require_normalizable()
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    R = state.params.R
    sampler = bound_sampler(state)
    best_q, best_mag = None, -1.0
    for q in _CALIBRATION_PROBES:
        mag = abs(_momentum_closed_3f2(state, q / R))
        if mag > best_mag:
            best_q, best_mag = q, mag
    exact = shapiro_forward_1d(sampler, best_q / R, R, spec)
    return exact / _momentum_closed_3f2(state, best_q / R)


def psi_momentum(state: BoundStateLabel, p: float) -> complex:
    """Momentum-space wavefunction sqrt(R/2pi) * FT of psi_bound: the closed
    3F2 form with (-1)^n / sqrt(2R) in its prefactor.  Real for even n,
    imaginary for odd."""
    state._require_normalizable()
    log_scale = -0.5 * math.log(2.0 * state.params.R)
    return (-1.0) ** state.n * _momentum_closed_3f2(state, p, log_scale)


@dataclass(frozen=True)
class ScatteringStateLabel:
    """Free level above the binding threshold: dimensionless wavenumber
    p = R sqrt(2 mu E - mu^2 omega^2 R^2) > 0 and Legendre degree sigma."""

    p: float
    sigma: float

    def __post_init__(self):
        if self.p <= 0:
            raise DomainError("scattering states require p > 0")

    @classmethod
    def from_params(cls, params: OscillatorParams, p: float) -> "ScatteringStateLabel":
        # Degree solves sigma (sigma + 1) = (mu omega R^2)^2; the "+" branch
        # equals the depth s.  (The pair sigma, -sigma-1 gives one function.)
        return cls(p=p, sigma=params.s)

    def energy(self, params: OscillatorParams) -> float:
        return (self.p / params.R) ** 2 / (2.0 * params.mu) + params.E0


def psi_scatter(state: ScatteringStateLabel, chi: float) -> complex:
    """Scattering wavefunction |Gamma(1 - i p)| / (2 pi) * P_sigma^{i p}(tanh chi)
    on the whole line when p > 1e-6 or sigma is whole; otherwise
    chi < -atanh(0.8) = -1.0986 raises PoleError (``legendre_imag_mu``)."""
    pref = math.sqrt(gamma_abs_squared(1.0 - 1j * state.p)) / (2.0 * math.pi)
    return pref * legendre_imag_mu(state.sigma, state.p, math.tanh(chi))


def flat_ho_reference(n: int, mu: float, omega: float, x1: float) -> float:
    """Normalized flat-space harmonic-oscillator wavefunction
    (mu omega / pi)^(1/4) / sqrt(2^n n!) exp(-mu omega x^2 / 2) H_n(x sqrt(mu omega))."""
    mw = mu * omega
    if mw <= 0:
        raise DomainError("flat oscillator requires mu * omega > 0")
    lpref = 0.25 * math.log(mw / math.pi) - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1))
    return math.exp(lpref - 0.5 * mw * x1 * x1) * hermite(n, math.sqrt(mw) * x1)


def schrodinger_residual(psi_vals3: tuple[float, float, float], chi: float, h: float,
                         E: float, params: OscillatorParams) -> float:
    """Central-difference residual of

        -(1/2 mu) psi'' - R^2 E0 sech^2(chi) psi - R^2 (E - E0) psi

    given psi at (chi - h, chi, chi + h).  O(h^2) for exact eigenpairs."""
    fm, f0, fp = psi_vals3
    second = (fp - 2.0 * f0 + fm) / (h * h)
    R2 = params.R ** 2
    return (-second / (2.0 * params.mu)
            - R2 * params.E0 / math.cosh(chi) ** 2 * f0
            - R2 * (E - params.E0) * f0)
