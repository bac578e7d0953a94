"""Wigner quasiprobability evaluators for the 1-D hyperbola.

Three routes are provided and must agree:

* ``wigner_quadrature_1d`` integrates the defining correlation integral

      W(f, g | chi, p) = (R / 2 pi) * integral dtau
          conj(f)(chi - tau/2) exp(-i p R tau) g(chi + tau/2)

  by adaptive Gauss-Kronrod panels.  This is the ground truth.  A grid is
  integrated a chi row at a time: the row's pR points form one batch whose
  panels are tagged with their point, each keeping its own tolerances and
  panel budget, so every value equals its per-point result.

* The spectral engine (``wigner_grid``'s default) evaluates a whole grid of
  a bound state at once.  The correlation corr(chi, tau) =
  psi(chi - tau/2) psi(chi + tau/2) of a real profile is even in tau, so
  with q = p R and nodes tau_k = k h

      W(chi_i, q_j) = (R / 2 pi) h sum_k w_k corr(chi_i, tau_k) cos(tau_k q_j),
      w_0 = 1, w_k = 2 (k >= 1),

  a uniform-step trapezoid rule, which converges exponentially for analytic,
  exponentially decaying integrands (Trefethen & Weideman, SIAM Review 56
  (2014) 385).  The step is halved once over the whole grid; any
  disagreement raises PrecisionLossError rather than being patched.

* ``wigner_pt_closed`` evaluates the bound-state diagonal W(psi_n | chi, p)
  in closed form: a double sum over (k, k') of gamma-function coefficients
  against a pair of complex-conjugate Gauss hypergeometric functions of
  exp(-4 chi).  The coefficient block used here was re-derived by residue
  summation of the Mellin-Barnes representation of the momentum-space
  autocorrelation, because published transcriptions of such contour results
  are typo-prone; the derived block is validated against the quadrature
  route by the verification suite.  With sigma = s - n:

      W = (4 R / pi) * B^2 * Re sum_{k,k'} g_k g_k' / Gamma(sigma + k')
          * exp(-2 chi (sigma + 2k) + 2 i q chi)
          * Gamma(k' - k + i q) Gamma(sigma + k - i q)
          * 2F1(sigma + k, sigma + k - i q; 1 + k - k' - i q; e^{-4 chi})

      B^2 = sigma Gamma(2s - n + 1) / (4 n! Gamma(sigma + 1)^2),
      g_k = (-n)_k (2s - n + 1)_k / ((sigma + 1)_k k!).

The closed form is exact but cancels catastrophically inside the real part
for large depth at small chi, so every evaluation tracks the largest
intermediate magnitude and defers to another route when double precision
cannot certify the result.  A grid is evaluated at once: for each (k, k')
one 2F1 series runs over the whole flattened chi x q block.  Near q = 0 the
formula degenerates (paired gamma/hypergeometric poles); values there are
reconstructed by even-in-q Lagrange interpolation from four columns just
outside the degenerate strip, appended to the same block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonconvergenceError, PrecisionLossError
from .oscillator import BoundStateLabel, bound_sampler
from .quadrature import QuadratureSpec, gauss_kronrod_batch
from .sampling import DecayEnvelope, FieldSampler
from .specfun import laguerre, log_gamma

__all__ = [
    "FieldSampler",
    "DecayEnvelope",
    "QuadratureSpec",
    "WignerGrid",
    "wigner_quadrature_1d",
    "wigner_pt_closed",
    "wigner_grid",
    "marginal_momentum_integrated",
    "marginal_position_integrated",
    "total_probability",
    "flat_ho_wigner",
    "contraction_report",
    "ContractionReport",
    "reflect_quadrant",
]

EVALUATORS = ("spectral", "closed_form", "quadrature")
CHI_MIN = 0.05          # below this the closed form defers to another route
Q_EXTRAP = 0.03         # |pR| below this uses the even-in-q extrapolation
GUARD_ABS = 1e-9        # cancellation guard: certified absolute noise
GUARD_REL = 2e-6        # ... or this relative to the result (the q ~ 0
                        # reconstruction is the accuracy-limiting region)
_EPS_NOISE = 5e-16      # per-unit-magnitude rounding noise estimate
_F21_MAX_TERMS = 200_000

_MARGINAL_TAIL_TOL = 1e-5


# eq=False: the fields hold arrays, so == and hash() go by identity.
@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Rectangular quadrant sample of W over (chi, pR), chi down the rows."""

    chi_axis: np.ndarray
    pR_axis: np.ndarray
    values: np.ndarray
    evaluator_tag: str
    state_meta: dict
    max_imag_residue: float = 0.0
    fallback_points: int = 0
    step_discrepancy: float = 0.0   # engine's largest step-halving |fine - coarse|

    def __post_init__(self):
        chi = np.asarray(self.chi_axis, dtype=float)
        q = np.asarray(self.pR_axis, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if chi.ndim != 1 or q.ndim != 1:
            raise ValueError("axes must be 1-D")
        if np.any(np.diff(chi) <= 0) or np.any(np.diff(q) <= 0):
            raise ValueError("axes must be strictly increasing")
        if vals.shape != (len(chi), len(q)):
            raise ValueError("values shape must be (len(chi_axis), len(pR_axis))")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")
        if self.evaluator_tag not in EVALUATORS:
            raise ValueError(f"evaluator_tag must be one of {EVALUATORS}")
        object.__setattr__(self, "chi_axis", chi)
        object.__setattr__(self, "pR_axis", q)
        object.__setattr__(self, "values", vals)


def _pair_truncation(f: FieldSampler, g: FieldSampler, chi: float, R: float,
                     spec: QuadratureSpec) -> float:
    rate = f.envelope.rate + g.envelope.rate
    if rate <= 0:
        raise DomainError("both samplers must decay for the correlation integral to truncate")
    amp = f.envelope.amplitude * g.envelope.amplitude
    budget = 0.1 * spec.abs_tol * 2.0 * math.pi / R
    # integral over |tau| > T of amp * e^{rate |chi|} e^{-rate tau / 2}
    mass = 4.0 * amp * math.exp(rate * abs(chi)) / rate
    if mass <= budget:
        return 2.0 * abs(chi) + 4.0
    return 2.0 * abs(chi) + 2.0 * math.log(mass / budget) / rate


def wigner_quadrature_1d(f: FieldSampler, g: FieldSampler, chi: float, p: float,
                         R: float, spec: QuadratureSpec | None = None) -> complex:
    """Direct correlation-integral Wigner value; complex in general, real up
    to quadrature residue when f and g are the same profile."""
    return _quadrature_row(f, g, chi, np.array([p]), R, spec or QuadratureSpec())[0]


def _quadrature_row(f: FieldSampler, g: FieldSampler, chi: float, ps: np.ndarray,
                    R: float, spec: QuadratureSpec) -> np.ndarray:
    """Correlation-integral W at one chi for every momentum in ``ps``: one
    batched Gauss-Kronrod call whose integrands share the truncation T and
    keep their own initial panel count and tolerances."""
    q = ps * R
    T = _pair_truncation(f, g, chi, R, spec)

    def integrand(tau, i):
        return np.conj(f(chi - tau / 2.0)) * g(chi + tau / 2.0) * np.exp(-1j * q[i] * tau)

    n0 = np.maximum(8, (np.abs(q) * T / 3.0).astype(int) + 1)
    vals, _ = gauss_kronrod_batch(integrand, np.full(len(q), -T), np.full(len(q), T), spec, n0)
    return R / (2.0 * math.pi) * vals


def _pochhammer_real(a: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


def _closed_grid(state: BoundStateLabel, chi: np.ndarray, qs: np.ndarray):
    """Closed-form W over the grid chi x |qs| (chi > 0); returns (values,
    magnitudes), the largest intermediate magnitude per point feeding the
    cancellation guard.

    For each (k, k') one 2F1 series runs over the flattened chi x q block;
    elements converge at very different rates (the series slows as
    exp(-4 chi) approaches 1), so converged ones are retired as the
    iteration proceeds.  Direct evaluation degrades like eps / q^2 as the
    paired gamma / hypergeometric poles at q = 0 are approached, so below
    Q_EXTRAP the even analytic function W(q) is reconstructed by Lagrange
    interpolation in q^2 through four columns at (1, 2, 3, 4) Q_EXTRAP,
    appended to the block (exact at the branch point, so the two regions
    join continuously).
    """
    n, s, sig, R = state.n, state.s, state.sigma, state.params.R
    qs = np.abs(qs)
    near = qs < Q_EXTRAP
    nodes = Q_EXTRAP * np.arange(1.0, 5.0) if near.any() else np.empty(0)
    cols = np.concatenate([qs[~near], nodes])
    lgB2 = (math.log(sig) + math.lgamma(2.0 * s - n + 1.0)
            - math.log(4.0) - math.lgamma(n + 1) - 2.0 * math.lgamma(sig + 1.0))
    gamma_coef = [
        _pochhammer_real(-n, k) * _pochhammer_real(2.0 * s - n + 1.0, k)
        / (_pochhammer_real(sig + 1.0, k) * math.factorial(k))
        for k in range(n + 1)
    ]
    c_flat, q_flat = np.repeat(chi, len(cols)), np.tile(cols, len(chi))
    x = np.exp(-4.0 * c_flat)
    total = np.zeros(len(x), dtype=complex)
    big = np.zeros(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n + 1):
            for kp in range(n + 1):
                lg = np.array([lgB2 + log_gamma(kp - k + 1j * q) + log_gamma(sig + k - 1j * q)
                               - math.lgamma(sig + kp) for q in cols])
                pref = gamma_coef[k] * gamma_coef[kp] * np.exp(
                    np.tile(lg, len(chi)) - 2.0 * c_flat * (sig + 2.0 * k)
                    + 2.0j * q_flat * c_flat)
                a, b, c = sig + k, sig + k - 1j * q_flat, 1.0 + k - kp - 1j * q_flat
                F = np.empty(len(x), dtype=complex)
                bigF = np.empty(len(x))
                idx, xa = np.arange(len(x)), x
                term_a = np.ones(len(x), dtype=complex)
                tot_a = np.ones(len(x), dtype=complex)
                big_a = np.ones(len(x))
                j = 0
                while idx.size:
                    term_a = term_a * ((a + j) * (b + j) / ((c + j) * (j + 1))) * xa
                    tot_a += term_a
                    np.maximum(big_a, np.abs(term_a), out=big_a)
                    j += 1
                    bad = ~np.isfinite(tot_a)  # overflow: hand to the guard
                    done = (np.abs(term_a) <= 1e-17 * np.abs(tot_a)) | bad if j > 8 else bad
                    if done.any():
                        F[idx[done]], bigF[idx[done]] = tot_a[done], big_a[done]
                        keep = ~done
                        idx, xa, b, c = idx[keep], xa[keep], b[keep], c[keep]
                        term_a, tot_a, big_a = term_a[keep], tot_a[keep], big_a[keep]
                    if idx.size and j > _F21_MAX_TERMS:
                        raise NonconvergenceError("closed-form hypergeometric series stalled")
                total += pref * F
                np.maximum(big, np.abs(pref) * bigF, out=big)
    scale = 4.0 * R / math.pi
    block_v = (scale * total.real).reshape(len(chi), len(cols))
    block_m = (scale * big).reshape(len(chi), len(cols))
    values = np.empty((len(chi), len(qs)))
    mags = np.empty((len(chi), len(qs)))
    m = len(cols) - len(nodes)
    values[:, ~near], mags[:, ~near] = block_v[:, :m], block_m[:, :m]
    t_nodes = nodes * nodes
    for j in np.flatnonzero(near):
        values[:, j] = 0.0
        for i, ti in enumerate(t_nodes):
            weight = np.prod([(qs[j] * qs[j] - tl) / (ti - tl) for tl in t_nodes if tl != ti])
            values[:, j] += weight * block_v[:, m + i]
        mags[:, j] = block_m[:, m:].max(axis=1)
    return values, mags


def _guard_ok(values: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    noise = _EPS_NOISE * magnitudes
    return np.isfinite(values) & (noise <= np.maximum(GUARD_ABS, GUARD_REL * np.abs(values)))


def wigner_pt_closed(state: BoundStateLabel, chi: float, p: float,
                     spec: QuadratureSpec | None = None,
                     fallback: bool = True) -> float:
    """Closed-form Wigner value of a bound state at one phase-space point.

    chi < 0 reflects to chi > 0 and p < 0 to p > 0 (the function is even in
    both).  chi below CHI_MIN, or a point where the cancellation guard trips,
    is delegated to the quadrature route; pass ``fallback=False`` to get a
    PrecisionLossError instead.
    """
    chi = abs(chi)
    q = abs(p * state.params.R)
    if chi >= CHI_MIN:
        vals, bigs = _closed_grid(state, np.array([chi]), np.array([q]))
        val, big = vals[0, 0], bigs[0, 0]
        if _guard_ok(val, big):
            return float(val)
        if not fallback:
            raise PrecisionLossError(
                f"closed form cancels beyond double precision at chi={chi}, pR={q} "
                f"(magnitude ratio {big / max(abs(val), 1e-300):.2e})")
    elif not fallback:
        raise PrecisionLossError(f"closed form not evaluated below chi={CHI_MIN}")
    f = bound_sampler(state)
    val = wigner_quadrature_1d(f, f, chi, q / state.params.R, state.params.R, spec)
    return float(val.real)


def _spectral_step(q_max: float, sigma: float, spec: QuadratureSpec) -> float:
    """Trapezoid step of the engine: 2 pi / (q_max + guard).

    Step h aliases W(q) onto W(q + 2 pi m / h), so the guard is the
    wavenumber distance past q_max at which W has decayed below the
    tolerance.  |psi~|^2 behaves like q^(sigma - 1) exp(-pi q / 2), hence a
    tolerance term, a fixed margin and a depth term sigma log(1 + sigma).
    """
    guard = ((2.0 / math.pi) * math.log(1.0 / spec.abs_tol) + 8.0
             + (2.0 / math.pi) * sigma * math.log1p(sigma))
    return 2.0 * math.pi / (q_max + guard)


def _spectral_values(state: BoundStateLabel, chi: np.ndarray, qs: np.ndarray,
                     spec: QuadratureSpec):
    """Certified engine grid; returns (values, largest step-halving
    discrepancy).

    The correlation of a real profile is even in tau, so each grid is one
    half-line trapezoid sum, contracted with ``einsum`` (thread-count
    independent bytes, unlike BLAS).  The midpoint nodes turn the step-h sum
    into the step-h/2 one, whose values are returned; a discrepancy above
    max(10 abs_tol, 1e-9 |W|) anywhere raises PrecisionLossError.
    """
    f = bound_sampler(state)
    R = state.params.R
    T = _pair_truncation(f, f, float(np.max(np.abs(chi))), R, spec)
    h = _spectral_step(float(np.max(np.abs(qs))), state.sigma, spec)
    k = np.arange(int(math.ceil(T / h)) + 1)

    def half_line_sum(taus, weights):
        corr = f(chi[:, None] - taus / 2.0) * f(chi[:, None] + taus / 2.0)
        return np.einsum("ik,kj->ij", corr * weights, np.cos(np.outer(taus, qs)))

    scale = R * h / (2.0 * math.pi)
    coarse = scale * half_line_sum(k * h, np.where(k == 0, 1.0, 2.0))
    fine = 0.5 * (coarse + scale * half_line_sum((k[:-1] + 0.5) * h, 2.0))
    err = np.abs(fine - coarse)
    bound = np.maximum(10.0 * spec.abs_tol, 1e-9 * np.abs(fine))
    i, j = np.unravel_index(np.argmax(err / bound), err.shape)
    if err[i, j] > bound[i, j]:
        raise PrecisionLossError(
            f"spectral grid not certified at chi={chi[i]:.6g}, pR={qs[j]:.6g}: "
            f"step-halving discrepancy {err[i, j]:.2e} exceeds {bound[i, j]:.2e}")
    return fine, float(err.max())


def wigner_grid(state: BoundStateLabel, chi_axis, pR_axis,
                evaluator: str = "spectral",
                spec: QuadratureSpec | None = None) -> WignerGrid:
    """Evaluate W(psi_n | chi, p) on the product grid chi_axis x pR_axis.

    ``spectral`` is the certified engine.  ``closed_form`` evaluates the
    closed form over all rows at or above CHI_MIN at once; rows below
    CHI_MIN and points its cancellation guard rejects are taken from the
    engine grid and counted in ``fallback_points``.  ``quadrature`` runs one
    batched adaptive Gauss-Kronrod per chi row, equal point by point to
    ``wigner_quadrature_1d``.
    """
    if evaluator not in EVALUATORS:
        raise ValueError(f"evaluator must be one of {EVALUATORS}")
    spec = spec or QuadratureSpec()
    chi = np.asarray(chi_axis, dtype=float)
    qs = np.asarray(pR_axis, dtype=float)
    imag, n_fb, discrepancy = 0.0, 0, 0.0
    if evaluator == "quadrature":
        f = bound_sampler(state)
        R = state.params.R
        vals = np.array([_quadrature_row(f, f, float(c), qs / R, R, spec) for c in chi])
        values = vals.real
        imag = float(np.max(np.abs(vals.imag), initial=0.0))
    else:
        values, discrepancy = _spectral_values(state, chi, qs, spec)
    if evaluator == "closed_form":
        direct = chi >= CHI_MIN
        n_fb = values.size
        if direct.any():
            vals, bigs = _closed_grid(state, chi[direct], qs)
            ok = _guard_ok(vals, bigs)
            values[direct] = np.where(ok, vals, values[direct])
            n_fb -= int(ok.sum())
    meta = {"n": state.n, "s": state.s, "R": state.params.R}
    return WignerGrid(chi, qs, values, evaluator, meta, max_imag_residue=imag,
                      fallback_points=n_fb, step_discrepancy=discrepancy)


def _support_warning(edge_values: np.ndarray, axis: np.ndarray, what: str) -> None:
    if len(axis) < 2:
        return
    tail = float(np.max(np.abs(edge_values))) * (axis[-1] - axis[-2]) * 10.0
    if tail > _MARGINAL_TAIL_TOL:
        warnings.warn(
            f"{what} marginal: grid support looks insufficient "
            f"(estimated tail {tail:.2e})", stacklevel=3)


def _axis_fold_factor(axis: np.ndarray, what: str) -> float:
    """2 for a quadrant axis starting at 0 (even reflection supplies the
    other half), 1 for an axis that already spans negative values."""
    if axis[0] < -1e-12:
        return 1.0
    if axis[0] > 1e-12:
        warnings.warn(f"{what} axis starts above 0; treating grid as a quadrant anyway",
                      stacklevel=3)
    return 2.0


def marginal_momentum_integrated(grid: WignerGrid, R: float) -> np.ndarray:
    """integral dp W over the full momentum axis, per chi row; equals
    |psi(chi)|^2 for a diagonal Wigner function.  Quadrant grids are
    reflected in p before the trapezoid rule; full-plane grids integrate
    as they stand."""
    fold = _axis_fold_factor(grid.pR_axis, "pR")
    _support_warning(grid.values[:, -1], grid.pR_axis, "momentum")
    return fold * np.trapezoid(grid.values, grid.pR_axis, axis=1) / R


def marginal_position_integrated(grid: WignerGrid, R: float) -> np.ndarray:
    """integral R dchi W over the full position axis, per pR column; equals
    |psi_tilde(p)|^2 in the R dchi normalization."""
    fold = _axis_fold_factor(grid.chi_axis, "chi")
    _support_warning(grid.values[-1, :], grid.chi_axis, "position")
    return fold * R * np.trapezoid(grid.values, grid.chi_axis, axis=0)


def total_probability(grid: WignerGrid, R: float) -> float:
    """integral R dchi integral dp W over the full plane (quadrant reflected)."""
    marg = marginal_momentum_integrated(grid, R)
    fold = _axis_fold_factor(grid.chi_axis, "chi")
    return float(fold * R * np.trapezoid(marg, grid.chi_axis))


def flat_ho_wigner(n: int, mu: float, omega: float, x: float, p: float) -> float:
    """Flat harmonic-oscillator Wigner function
    ((-1)^n / pi) exp(-r^2) L_n(2 r^2), r^2 = mu w x^2 + p^2 / (mu w)."""
    mw = mu * omega
    r2 = mw * x * x + p * p / mw
    return (-1.0) ** n / math.pi * math.exp(-r2) * laguerre(n, 2.0 * r2)


@dataclass(frozen=True)
class ContractionReport:
    """Deviation of bound-state Wigner grids from the flat reference as the
    depth grows."""

    n: int
    s_values: tuple
    deviations: tuple
    scaled_extent: float

    @property
    def monotone_decreasing(self) -> bool:
        return all(a > b for a, b in zip(self.deviations, self.deviations[1:]))


def contraction_report(n: int, s_list, mu: float = 1.0, R: float = 1.0,
                       points: int = 13, scaled_extent: float = 3.0,
                       evaluator: str = "spectral",
                       spec: QuadratureSpec | None = None) -> ContractionReport:
    """Compare W(psi_n^s) against the flat Laguerre-Gaussian reference on the
    scaled grid (chi sqrt(s), pR / sqrt(s)) in [0, scaled_extent]^2.

    The deviation for each s is max |W_pt - W_flat| / max |W_flat| over the
    points where |W_flat| exceeds 5% of its peak.  The metric is symmetric
    under p -> -p by construction (quadrant grids of even functions).
    """
    from .oscillator import OscillatorParams

    devs = []
    s_vals = tuple(float(s) for s in s_list)
    for s in s_vals:
        params = OscillatorParams.from_depth(s, mu=mu, R=R)
        state = BoundStateLabel(n, params)
        u = np.linspace(0.0, scaled_extent, points)
        chi = u / math.sqrt(s)
        qs = u * math.sqrt(s)
        grid = wigner_grid(state, chi, qs, evaluator=evaluator, spec=spec)
        flat = np.array([[flat_ho_wigner(n, mu, params.omega, c, q / R) for q in qs]
                         for c in chi])
        peak = float(np.max(np.abs(flat)))
        mask = np.abs(flat) > 0.05 * peak
        devs.append(float(np.max(np.abs(grid.values - flat)[mask])) / peak)
    return ContractionReport(n=n, s_values=s_vals, deviations=tuple(devs),
                             scaled_extent=scaled_extent)


def reflect_quadrant(grid: WignerGrid):
    """Mirror a quadrant grid across both axes for full-plane rendering.

    Returns (chi_full, pR_full, values_full); the first row/column are only
    duplicated when the axes start at 0.
    """
    chi, qs, v = grid.chi_axis, grid.pR_axis, grid.values
    drop_c = 1 if abs(chi[0]) <= 1e-12 else 0
    drop_q = 1 if abs(qs[0]) <= 1e-12 else 0
    chi_full = np.concatenate([-chi[::-1], chi[drop_c:]])
    q_full = np.concatenate([-qs[::-1], qs[drop_q:]])
    top = np.concatenate([v[::-1, ::-1], v[::-1, drop_q:]], axis=1)
    bottom = np.concatenate([v[drop_c:, ::-1], v[drop_c:, drop_q:]], axis=1)
    return chi_full, q_full, np.concatenate([top, bottom], axis=0)
