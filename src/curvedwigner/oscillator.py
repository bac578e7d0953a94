"""The conic oscillator on the hyperbola: a Poschl-Teller sech^2 trough.

Bound states, the quadratic spectrum, the momentum-space profile,
scattering states, and the flat harmonic-oscillator reference used in
contraction checks.  Bound wavefunctions are normalized with respect to
dchi.

A ``BoundStateLabel`` is always normalizable (sigma = s - n > 0), so no
function taking one checks it; ``at_threshold(n, params)`` names the
zero-norm level n = s of a whole depth, whose energy E0 ``eigen`` lists.

``psi_momentum``, the momentum profile the CLI writes, is the Wigner
engine's certified trapezoid on the step ``spectral_step`` proves from
``momentum_decay``.  The paper's printed 3F2 form is an oracle,
``psi_momentum_closed``, carrying the constant (-1)^n / sqrt(2R) that
``momentum_calibration`` measures against the numerical transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PrecisionLossError
from .quadrature import CERTIFIED_ABS_TOL, QuadratureSpec, half_line_trapezoid
from .sampling import DecayEnvelope, FieldSampler
from .specfun import (
    gamma_abs_squared,
    gegenbauer_scaled,
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
    "at_threshold",
    "energy",
    "psi_bound",
    "bound_sampler",
    "momentum_decay",
    "falling_root",
    "spectral_step",
    "psi_momentum",
    "psi_momentum_closed",
    "momentum_calibration",
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
    frequency omega, and the derived well depth s.

    ``from_depth`` keeps the depth it is given exactly, where deriving it
    back from omega would miss by an ulp; s takes part in == and hash(), so
    two equal parameter sets always have the same depth."""

    mu: float
    omega: float
    R: float
    _depth: float = field(init=False, repr=False)

    def __post_init__(self):
        # depth_param validates the ranges
        object.__setattr__(self, "_depth", depth_param(self.mu, self.omega, self.R))

    @property
    def s(self) -> float:
        return self._depth

    @property
    def E0(self) -> float:
        """Asymptotic potential level (binding threshold)."""
        return 0.5 * self.mu * self.omega ** 2 * self.R ** 2

    @classmethod
    def from_depth(cls, s: float, mu: float = 1.0, R: float = 1.0) -> "OscillatorParams":
        """Parameters of depth exactly ``s``: omega solves
        s(s+1) = (mu omega R^2)^2, and s is kept as given rather than
        derived back from omega (which can miss it by an ulp)."""
        if s < 0:
            raise DomainError("depth parameter must be non-negative")
        params = cls(mu, math.sqrt(s * (s + 1.0)) / (mu * R * R), R)
        object.__setattr__(params, "_depth", float(s))
        return params


def _sigma_tol(s: float) -> float:
    """Rounding tolerance on sigma = s - n in every level decision."""
    return 1e-12 * max(1.0, s)


def bound_state_count(params: OscillatorParams) -> int:
    """floor(s) + 1: the levels are the integers n >= 0 with sigma = s - n >= 0
    to rounding accuracy.  The vanishing well (omega = 0) supports none: its
    only level n = 0 sits at threshold with an identically vanishing profile."""
    if params.omega == 0.0:
        return 0
    return math.floor(params.s + _sigma_tol(params.s)) + 1


def at_threshold(n: int, params: OscillatorParams) -> bool:
    """True for the zero-norm level n = s (to rounding accuracy), only at a
    whole depth: its energy is E0, but its profile vanishes identically."""
    return abs(params.s - n) <= _sigma_tol(params.s)


def energy(n: int, params: OscillatorParams) -> float:
    """E_n = mu omega^2 R^2 / 2 - (n - s)^2 / (2 mu R^2) for a level n (an
    integer with sigma = s - n >= 0): strictly increasing in n and bounded by
    the threshold E0, which only the threshold level n = s attains."""
    if n < 0 or n != int(n) or n >= bound_state_count(params):
        raise DomainError(f"level n={n} is unbound for s={params.s}")
    return params.E0 - (params.s - n) ** 2 / (2.0 * params.mu * params.R ** 2)


@dataclass(frozen=True)
class BoundStateLabel:
    """Normalizable level n of the well: an integer n >= 0 with
    sigma = s - n > 0, and its log normalisation log N, formed once.  The
    zero-norm threshold level (``at_threshold``) is not a state."""

    n: int
    params: OscillatorParams
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("n must be a non-negative integer")
        if at_threshold(self.n, self.params):
            raise DomainError(f"level n={self.n} at s={self.s} is a zero-norm threshold level; "
                              "it has energy E0 but no normalizable wavefunction")
        if self.n >= bound_state_count(self.params):
            raise DomainError(f"level n={self.n} is unbound for s={self.s}")
        n, s, sig = self.n, self.s, self.sigma
        object.__setattr__(self, "log_norm", (
            0.5 * (math.log(sig) + math.lgamma(n + 1) - math.log(math.pi)
                   - math.lgamma(2.0 * s - n + 1.0))
            + math.lgamma(sig + 0.5)))

    @property
    def s(self) -> float:
        return self.params.s

    @property
    def sigma(self) -> float:
        """Decay exponent s - n > 0 of the profile."""
        return self.params.s - self.n


def psi_bound(state: BoundStateLabel, chi):
    """Bound wavefunction, Gegenbauer form

        psi_n(chi) = N (2 sech chi)^(s-n) C_n^{s-n+1/2}(tanh chi),

    evaluated with a log-space prefactor exp(L) and the Gegenbauer factor
    carried as ldexp(m, e) (``gegenbauer_scaled``), so large depths neither
    overflow nor stop where C_n^alpha passes the double range while
    sech^sigma underflows.  Where exp(L) is a normal double the value is
    ldexp(exp(L) m, e), the bits of exp(L) C_n^alpha wherever that product
    is a normal double; elsewhere it is exp(L + e log 2) m.  Accepts scalars
    or arrays.  The first chi where the value is not finite raises
    PrecisionLossError.
    """
    chi_arr = np.asarray(chi, dtype=float)
    sig = state.sigma
    dist = np.abs(chi_arr)
    # cosh overflows past |chi| ~ 710, where log cosh = |chi| - log 2 to the last bit
    log_cosh = np.where(dist > 700.0, dist - math.log(2.0),
                        np.log(np.cosh(np.minimum(dist, 700.0))))
    log_pref = state.log_norm + sig * (math.log(2.0) - log_cosh)
    with np.errstate(over="ignore", invalid="ignore"):
        m, e = gegenbauer_scaled(state.n, sig + 0.5, np.tanh(chi_arr))
        pref = np.exp(log_pref)
        vals = np.ldexp(pref * m, e, out=np.empty_like(m))  # an array for scalar chi too
        sub = pref < np.finfo(float).tiny  # exp(L) lost bits: take the power of two inside exp
        vals[sub] = np.exp(log_pref[sub] + e[sub] * math.log(2.0)) * m[sub]
    if not np.isfinite(vals).all():
        raise PrecisionLossError(f"psi_{state.n} at s={state.s:g} is not finite at chi="
                                 f"{chi_arr.ravel()[np.argmin(np.isfinite(vals).ravel())]:.6g}")
    return vals if vals.ndim else float(vals)


def bound_sampler(state: BoundStateLabel) -> FieldSampler:
    """FieldSampler for psi_bound with an exact exponential envelope:
    |psi| <= N 4^(s-n) C_n(1) exp(-(s-n)|chi|), its amplitude kept as a
    logarithm (the amplitude overflows a double from s ~ 1000, its square
    from s ~ 510)."""
    sig = state.sigma
    # C_n^{alpha} attains its sup on [-1,1] at the endpoint: (2 alpha)_n / n!
    log_cmax = math.lgamma(2.0 * sig + 1.0 + state.n) - math.lgamma(2.0 * sig + 1.0) - math.lgamma(state.n + 1)
    return FieldSampler(
        func=lambda u: psi_bound(state, u),
        envelope=DecayEnvelope(
            log_amplitude=state.log_norm + sig * 2.0 * math.log(2.0) + log_cmax,
            rate=sig),
    )


def momentum_decay(state: BoundStateLabel, c: float):
    """log B_c(q) for q = p R >= 0 (numpy arrays allowed), a bound on
    log |W(chi, q)| at every chi for c = 1 and on log |psi~(q / R)| for c = 1/2:

        log B_c(q) = c log(R / 2 pi) + 2c log(N 2^sigma S_n) + c [s log(1 + q^2 / s^2)
                     - 2 q atan(q / s)] + log(2c sqrt(pi) Gamma(c sigma) / Gamma(c sigma + 1/2)),

    s = sigma + n, N the normalisation of psi_n = N (2 sech u)^sigma C_n^alpha(tanh u)
    and S_n the sum of the absolute monomial coefficients of C_n^alpha; its
    slope is -2c atan(q / s), and B_1(0) = R / pi for n = 0 (``spectral_step``)."""
    n, sig, R = state.n, state.sigma, state.params.R
    s, alpha = sig + n, sig + 0.5
    # C_n^alpha(z) = sum_k (-1)^k Gamma(n - k + alpha) / (Gamma(alpha) k! (n - 2k)!) (2z)^(n - 2k)
    logs = [math.lgamma(n - k + alpha) - math.lgamma(alpha) - math.lgamma(k + 1)
            - math.lgamma(n - 2 * k + 1) + (n - 2 * k) * math.log(2.0) for k in range(n // 2 + 1)]
    top = max(logs)
    log_sn = top + math.log(sum(math.exp(v - top) for v in logs))
    # every product with c is exact at c = 1, so W's bound keeps its bits
    log_c0 = (c * math.log(R / (2.0 * math.pi)) + 2.0 * c * state.log_norm
              + c * sig * math.log(4.0) + 2.0 * c * log_sn + math.log(2.0 * c * math.sqrt(math.pi))
              + math.lgamma(c * sig) - math.lgamma(c * sig + 0.5))

    def log_bound(q):
        return log_c0 + c * s * np.log1p((q / s) ** 2) - 2.0 * c * q * np.arctan(q / s)

    return log_bound


def falling_root(excess) -> float:
    """Root of ``excess``, falling on x >= 0: the end, where excess <= 0, of
    a bracket doubled from [0, 1] and then bisected 60 times."""
    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return hi


def spectral_step(q_max: float, state: BoundStateLabel, c: float) -> float:
    """Trapezoid step h = 2 pi / (q_max + g) of a half-line sum for
    F = W (c = 1) or F = psi~ (c = 1/2) of ``state``.

    Step h aliases F(q) onto F(q + 2 pi m / h): by Poisson summation the
    step-h sum at |q| <= q_max is F(q) plus sum_{m != 0} F(q + 2 pi m / h),
    and every alias sits at least g + (|m| - 1) 2 pi / h past the origin.
    The guard g comes from a bound on F's decay in q, proven as follows.

    psi_n(u) = N (2 sech u)^sigma C_n^alpha(tanh u) is analytic for
    |Im u| < pi / 2 and decays along every horizontal line.  With u = x + i y,

        |sech(u)| <= sech x / cos y,   |tanh(u)| <= 1 / cos y

    (|cosh u|^2 = cosh^2 x - sin^2 y >= cosh^2 x cos^2 y and
    |sinh u|^2 = cosh^2 x - cos^2 y <= cosh^2 x), and since 1 / cos y >= 1,
    |C_n^alpha(z)| <= S_n |z|^n with S_n the sum of |monomial coefficients|.
    So |psi(u)| <= N 2^sigma S_n sech^sigma(x) cos^{-s}(y), s = sigma + n.
    For q >= 0 shift the contour so that every profile argument has
    Im u = -y, 0 <= y < pi / 2 (u by y in psi~ = sqrt(R / 2 pi) int psi(u)
    e^{-i q u} du, tau by 2y in W = (R / 2 pi) int psi(chi - tau/2)
    psi(chi + tau/2) e^{-i q tau} dtau): the phase has modulus e^{-2c q y},
    each of the 2c profiles the bound above, int sech^sigma v dv =
    sqrt(pi) Gamma(sigma / 2) / Gamma(sigma / 2 + 1/2), and by Cauchy-Schwarz
    int sech^sigma(chi - t/2) sech^sigma(chi + t/2) dt <= 2 sqrt(pi)
    Gamma(sigma) / Gamma(sigma + 1/2) at every chi.  The minimum over y of
    the resulting bound, at tan y = q / s, is B_c(q) (``momentum_decay``);
    |F| is even in q, so B_c(|q|) bounds it on the whole line.

    d log B_c / dq = -2c atan(q / s) falls with q, so past g each further
    2 pi / h >= g shrinks B_c by at least e^{-2c g atan(g / s)}, and the
    aliases sum to at most 2 B_c(g) / (1 - e^{-2c g atan(g / s)}) on both
    sides.  g is the root of that bound = tol / 4, tol = ``CERTIFIED_ABS_TOL``,
    by bisection (the left side falls monotonically in g); truncation adds
    tol / 10.  The certificate stays step halving: this step only makes it
    pass with room.
    """
    log_bound, s = momentum_decay(state, c), state.sigma + state.n
    target = math.log(0.25 * CERTIFIED_ABS_TOL)

    def excess(g):
        # log of the aliases' bound 2 B_c(g) / (1 - e^{-2c g atan(g / s)}) over the target
        decay = 2.0 * c * g * math.atan(g / s)
        return float(log_bound(g)) + math.log(2.0) - math.log(-math.expm1(-decay)) - target

    return 2.0 * math.pi / (q_max + falling_root(excess))


def psi_momentum(state: BoundStateLabel, p):
    """psi~(p) = sqrt(R / 2 pi) int e^{-i p R u} psi_n(u) du by the certified
    half-line trapezoid (``quadrature.half_line_trapezoid``) of psi_n against
    cos(u q), q = p R, for even n, and -i times the sin sum for odd n: psi_n
    has parity (-1)^n, so a value is exactly real or exactly imaginary.  The
    nodes stop at the tail radius of psi's envelope; past the cut where B_1/2
    (``momentum_decay``) drops under CERTIFIED_ABS_TOL / 10 a value is 0, and h
    is ``spectral_step`` at that cut, whatever the momenta, so an array of
    any shape gives the scalar calls' values bit for bit."""
    R, budget = state.params.R, 0.1 * CERTIFIED_ABS_TOL
    q, scale = np.asarray(p, dtype=float).ravel() * R, math.sqrt(R / (2.0 * math.pi))
    log_bound, log_budget = momentum_decay(state, 0.5), math.log(budget)
    cut = falling_root(lambda x: float(log_bound(x)) - log_budget)
    h = spectral_step(cut, state, 0.5)
    T = bound_sampler(state).envelope.tail_radius(budget / scale)
    inside = np.abs(q) <= cut
    fine = np.zeros((1, int(inside.sum())))
    half_line_trapezoid(lambda rows, taus: psi_bound(state, taus)[None], np.zeros(1), q[inside],
                        h, T, np.cos if state.n % 2 == 0 else np.sin, scale * h,
                        "momentum profile not certified at pR={q:.6g}", fine)
    values = np.zeros(len(q), dtype=complex)
    if state.n % 2 == 0:
        values.real[inside] = fine[0]
    else:  # -i times the sum, in place: the same bytes as -1j * fine[0]
        values.imag[inside] = np.negative(fine[0], out=fine[0])
    return complex(values[0]) if np.ndim(p) == 0 else values.reshape(np.shape(p))


def psi_momentum_closed(state: BoundStateLabel, p: float) -> complex:
    """The paper's closed momentum-space form at one p, as printed,

        (R/2) sqrt(G(2s-n+1) / (pi (s-n) n!)) |G((s-n-ipR)/2)|^2 / G(s-n)^2
        * 3F2(-n, 2s-n+1, (s-n-ipR)/2; s-n+1, s-n; 1),

    times the constant (-1)^n / sqrt(2R) it is off by.  An oracle, like
    ``wigner_closed_grid``: its alternating terms cancel as n grows (5e-7 in
    the density at s = 30, n = 15, 4.8 at n = 25), so only ``verify`` runs it."""
    n, s, sig, R = state.n, state.s, state.sigma, state.params.R
    half = 0.5 * (sig - 1j * float(p) * R)  # (s - n - ipR) / 2
    # |G((s-n-ipR)/2)|^2 enters as 2 Re log G: alone it overflows from s ~ 200
    lpref = (math.log(R / 2.0) + 0.5 * (math.lgamma(2.0 * s - n + 1.0) - math.log(math.pi)
                                        - math.log(sig) - math.lgamma(n + 1))
             - 2.0 * math.lgamma(sig) + 2.0 * log_gamma(half).real)
    f32 = hyper_3f2_terminating(n, 2.0 * s - n + 1.0, half, sig + 1.0, sig)
    return (-1.0) ** n / math.sqrt(2.0 * R) * math.exp(lpref) * f32


_CALIBRATION_PROBES = (0.45, 0.85, 1.35)  # dimensionless q = p R
_CALIBRATION_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)


def momentum_calibration(state: BoundStateLabel) -> complex:
    """Measured constant tying the printed closed momentum-space form to the
    numerical transform of psi_bound.

    The transform is the ground truth; the constant is measured at the probe
    wavenumber where the closed form is largest, one quadrature per call.
    It comes out p-independent and equal to the (-1)^n / sqrt(2 R) that
    ``psi_momentum_closed`` carries; verification reports the measured values.
    """
    from .geometry import shapiro_forward_1d  # at call time: the grid commands never load geometry

    R = state.params.R
    q = max(_CALIBRATION_PROBES, key=lambda v: abs(psi_momentum_closed(state, v / R)))
    exact = shapiro_forward_1d(bound_sampler(state), q / R, R, _CALIBRATION_SPEC)
    return (-1.0) ** state.n / math.sqrt(2.0 * R) * exact / psi_momentum_closed(state, q / R)


@dataclass(frozen=True)
class ScatteringStateLabel:
    """Free level above the binding threshold of a well: dimensionless
    wavenumber p = R sqrt(2 mu E - mu^2 omega^2 R^2) > 0."""

    p: float
    params: OscillatorParams

    def __post_init__(self):
        if self.p <= 0:
            raise DomainError("scattering states require p > 0")

    @property
    def sigma(self) -> float:
        """Legendre degree: the "+" root of sigma (sigma + 1) = (mu omega R^2)^2,
        the depth s (the pair sigma, -sigma-1 gives one function)."""
        return self.params.s

    @property
    def energy(self) -> float:
        return (self.p / self.params.R) ** 2 / (2.0 * self.params.mu) + self.params.E0


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
