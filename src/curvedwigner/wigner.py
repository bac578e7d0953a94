"""Wigner quasiprobability evaluators for the 1-D hyperbola.

Three routes are provided and must agree:

* ``wigner_quadrature_1d`` integrates the defining correlation integral

      W(f, g | chi, p) = (R / 2 pi) * integral dtau
          conj(f)(chi - tau/2) exp(-i p R tau) g(chi + tau/2)

  by adaptive Gauss-Kronrod panels.  This is the ground truth: verification
  criterion 1 and the tests check the other routes against it, and no CLI
  grid comes from it.  The tau < 0 half is folded onto tau in [0, T]: with
  c(tau) the integrand's profile product, c(tau) e^{-iq tau} + c(-tau)
  e^{+iq tau} takes the same two profile arguments, so one integrand over
  the half line gives the whole integral for diagonal and cross pairs
  alike, with about half the nodes.  A grid is integrated a chi row at a
  time: the row's pR points form one batch whose panels are tagged with
  their point, each keeping its own tolerances and panel budget, so every
  value equals its per-point result.

* The spectral engine (``wigner_grid``'s default, and the only route whose
  grids the CLI writes) evaluates a whole grid of a bound state at once.
  The correlation corr(chi, tau) = psi(chi - tau/2) psi(chi + tau/2) of a
  real profile is even in tau, so with q = p R and nodes tau_k = k h

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

The closed form is the paper's result, kept as the independent oracle that
verification criterion 1 checks against quadrature on its validated box
(s = 4, chi in [0.1, 3], pR in [0, 6]); it certifies nothing and no CLI
grid comes from it.  Below CHI_MIN its 2F1 series in e^{-4 chi} -> 1 does
not converge, so it raises DomainError there; a value above the Wigner
bound |W| <= R / pi (lost to cancellation at large depth) raises
PrecisionLossError.  A grid runs one 2F1 series per (k, k') over the
whole flattened chi x q block.  Near q = 0 the formula
degenerates (paired gamma/hypergeometric poles); values there are rebuilt
by even-in-q Lagrange interpolation from four columns just outside it.

Both correlation routes cut the tau integral at |tau| = T from the declared
decay envelopes |f| <= a_f e^{-r_f |u|}, |g| <= a_g e^{-r_g |u|}: beyond
|tau| = 2|chi| the correlation is bounded by
a_f a_g e^{-2 min(r_f, r_g) |chi|} e^{-(r_f + r_g)(|tau| - 2|chi|) / 2},
so T is 2|chi| plus a margin that falls as |chi| grows (and is 4 once the
tails are already under budget); the discarded tails stay below a tenth of
the absolute tolerance (derivation in ``_pair_truncation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonconvergenceError, PrecisionLossError
from .oscillator import BoundStateLabel, bound_sampler
from .quadrature import QuadratureSpec, gauss_kronrod_batch
from .sampling import DecayEnvelope, FieldSampler
from .specfun import _pochhammer, laguerre, log_gamma

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
CHI_MIN = 0.05          # below this |chi| the closed form is not evaluated
Q_EXTRAP = 0.03         # |pR| below this uses the even-in-q extrapolation
_F21_MAX_TERMS = 200_000
_BOUND_MARGIN = 1e-6    # relative slack on |W| <= R/pi before the closed form is rejected

_BLOCK_ELEMENTS = 2 ** 13  # engine temporaries per block of chi rows


# eq=False: the fields hold arrays, so == and hash() go by identity.
@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Rectangular quadrant sample of W over (chi, pR), chi down the rows."""

    chi_axis: np.ndarray
    pR_axis: np.ndarray
    values: np.ndarray
    evaluator_tag: str
    state_meta: dict
    fallback_points: int = 0        # always 0; perfbench/tracer.py reads it
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
    """Half-width T of the tau interval outside which the correlation
    integral of f and g at ``chi`` is below a tenth of ``spec.abs_tol`` in W.

    With envelopes |f(u)| <= a_f e^{-r_f |u|}, |g(u)| <= a_g e^{-r_g |u|},
    amp = a_f a_g and rate = r_f + r_g, on |tau| >= 2|chi| write
    u = |tau| - 2|chi|.  For chi >= 0 the tail tau > 0 has
    |chi - tau/2| = u/2 and |chi + tau/2| = 2 chi + u/2, the tail tau < 0
    the same with f and g swapped (and for chi < 0 the roles exchange), so

        |corr| <= amp e^{-2 min(r_f, r_g) |chi|} e^{-rate u / 2}

    on both tails.  Their two integrals over u > T - 2|chi| sum to

        mass e^{-rate (T - 2|chi|) / 2},  mass = 4 amp e^{-2 min(r_f, r_g) |chi|} / rate,

    which meets the budget 0.1 abs_tol 2 pi / R (W carries the factor
    R / 2 pi) at T = 2|chi| + 2 log(mass / budget) / rate.  When the mass is
    already under budget, T = 2|chi| + 4.  Since 2 min(r_f, r_g) <= rate, T
    never decreases in |chi|, so a T taken at the largest |chi| of a grid is
    valid for every row; T <= 2|chi| + max(T(0), 4), and for equal rates
    T <= max(T(0), 2|chi| + 4).  The mass is formed as a logarithm from the
    envelopes' log amplitudes: amp alone overflows a double at large depth.
    """
    rate = f.envelope.rate + g.envelope.rate
    if rate <= 0:
        raise DomainError("both samplers must decay for the correlation integral to truncate")
    budget = 0.1 * spec.abs_tol * 2.0 * math.pi / R
    slow = min(f.envelope.rate, g.envelope.rate)
    excess = (f.envelope.log_amplitude + g.envelope.log_amplitude - 2.0 * slow * abs(chi)
              + math.log(4.0 / rate) - math.log(budget))
    if excess <= 0:
        return 2.0 * abs(chi) + 4.0
    return 2.0 * abs(chi) + 2.0 * excess / rate


def wigner_quadrature_1d(f: FieldSampler, g: FieldSampler, chi: float, p: float,
                         R: float, spec: QuadratureSpec | None = None) -> complex:
    """Direct correlation-integral Wigner value, integrated over tau in
    [0, T] with the tau < 0 half folded onto it (see ``_quadrature_row``);
    complex in general, with an imaginary part of exactly 0 when f and g are
    the same real profile."""
    return _quadrature_row(f, g, chi, np.array([p]), R, spec or QuadratureSpec())[0]


def _quadrature_row(f: FieldSampler, g: FieldSampler, chi: float, ps: np.ndarray,
                    R: float, spec: QuadratureSpec) -> np.ndarray:
    """Correlation-integral W at one chi for every momentum in ``ps``: one
    batched Gauss-Kronrod call whose integrands share the truncation T and
    keep their own initial panel count and tolerances.

    With c(tau) = conj f(chi - tau/2) g(chi + tau/2) the integral over
    [-T, T] is folded onto [0, T]:

        int_{-T}^{T} c(tau) e^{-iq tau} = int_0^T [c(tau) e^{-iq tau}
                                                   + c(-tau) e^{+iq tau}],

    c(-tau) = conj f(chi + tau/2) g(chi - tau/2), so both terms take the
    same two profile arguments (two profile calls per node when g is f) and
    e^{+iq tau} is the conjugate of e^{-iq tau}.  For a real diagonal pair
    the two terms' imaginary parts cancel bit for bit.  The tolerances apply
    to the full integral; ``max(4, |q| T / 6 + 1)`` initial panels on
    [0, T] are as wide as ``max(8, |q| T / 3 + 1)`` were on [-T, T].
    """
    q = ps * R
    T = _pair_truncation(f, g, chi, R, spec)

    def integrand(tau, i):
        half = tau / 2.0
        f_minus, f_plus = f(chi - half), f(chi + half)
        g_minus, g_plus = (f_minus, f_plus) if g is f else (g(chi - half), g(chi + half))
        if np.iscomplexobj(f_minus):  # np.conj of a real array is only a copy
            f_minus, f_plus = np.conj(f_minus), np.conj(f_plus)
        phase = np.exp(-1j * q[i] * tau)
        return f_minus * g_plus * phase + f_plus * g_minus * np.conj(phase)

    n0 = np.maximum(4, (np.abs(q) * T / 6.0).astype(int) + 1)
    vals, _ = gauss_kronrod_batch(integrand, np.zeros(len(q)), np.full(len(q), T), spec, n0)
    return R / (2.0 * math.pi) * vals


def _closed_grid(state: BoundStateLabel, chi: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Closed-form W over the grid |chi| x |qs|; DomainError below CHI_MIN.

    For each (k, k') one 2F1 series runs over the flattened chi x q block;
    elements converge at very different rates (the series slows as
    exp(-4 chi) approaches 1), so converged ones are retired as the
    iteration proceeds.  Direct evaluation degrades like eps / q^2 as the
    paired gamma / hypergeometric poles at q = 0 are approached, so below
    Q_EXTRAP the even analytic function W(q) is reconstructed by Lagrange
    interpolation in q^2 through four columns at (1, 2, 3, 4) Q_EXTRAP,
    appended to the block (exact at the branch point, so the two regions
    join continuously).

    Every normalized state obeys |W| <= R / pi (Cauchy-Schwarz on the
    correlation integral with int |psi|^2 dchi = 1, attained at the origin).
    At large depth and small chi the real part of the sum cancels
    catastrophically (~60 digits at s = 30) and returns values far beyond
    that bound, so a grid with any |W| above (1 + _BOUND_MARGIN) R / pi
    raises PrecisionLossError, as does one whose terms overflow.
    """
    chi, qs = np.abs(chi), np.abs(qs)
    if np.any(chi < CHI_MIN):
        raise DomainError(f"closed form needs |chi| >= {CHI_MIN}: its 2F1 series "
                          f"does not converge as e^(-4 chi) -> 1")
    n, s, sig, R = state.n, state.s, state.sigma, state.params.R
    near = qs < Q_EXTRAP
    nodes = Q_EXTRAP * np.arange(1.0, 5.0) if near.any() else np.empty(0)
    cols = np.concatenate([qs[~near], nodes])
    lgB2 = (math.log(sig) + math.lgamma(2.0 * s - n + 1.0)
            - math.log(4.0) - math.lgamma(n + 1) - 2.0 * math.lgamma(sig + 1.0))
    gamma_coef = [
        (_pochhammer(-n, k) * _pochhammer(2.0 * s - n + 1.0, k)
         / (_pochhammer(sig + 1.0, k) * math.factorial(k))).real
        for k in range(n + 1)
    ]
    c_flat, q_flat = np.repeat(chi, len(cols)), np.tile(cols, len(chi))
    x = np.exp(-4.0 * c_flat)
    total = np.zeros(len(x), dtype=complex)
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
                idx, xa = np.arange(len(x)), x
                term_a = np.ones(len(x), dtype=complex)
                tot_a = np.ones(len(x), dtype=complex)
                j = 0
                while idx.size:
                    term_a = term_a * ((a + j) * (b + j) / ((c + j) * (j + 1))) * xa
                    tot_a += term_a
                    j += 1
                    bad = ~np.isfinite(tot_a)  # overflow: retired, reported below
                    done = (np.abs(term_a) <= 1e-17 * np.abs(tot_a)) | bad if j > 8 else bad
                    if done.any():
                        F[idx[done]] = tot_a[done]
                        keep = ~done
                        idx, xa, b, c = idx[keep], xa[keep], b[keep], c[keep]
                        term_a, tot_a = term_a[keep], tot_a[keep]
                    if idx.size and j > _F21_MAX_TERMS:
                        raise NonconvergenceError("closed-form hypergeometric series stalled")
                total += pref * F
    block = (4.0 * R / math.pi * total.real).reshape(len(chi), len(cols))
    if not np.isfinite(block).all():
        raise PrecisionLossError(f"closed form overflows double precision at s={s:g}")
    values = np.empty((len(chi), len(qs)))
    m = len(cols) - len(nodes)
    values[:, ~near] = block[:, :m]
    t_nodes = nodes * nodes
    for j in np.flatnonzero(near):
        values[:, j] = 0.0
        for i, ti in enumerate(t_nodes):
            weight = np.prod([(qs[j] * qs[j] - tl) / (ti - tl) for tl in t_nodes if tl != ti])
            values[:, j] += weight * block[:, m + i]
    peak = float(np.max(np.abs(values), initial=0.0))
    if peak > (1.0 + _BOUND_MARGIN) * R / math.pi:
        raise PrecisionLossError(
            f"closed form exceeds the Wigner bound |W| <= R/pi at s={s:g} "
            f"(max |W| = {peak * math.pi / R:.3g} R/pi): its real part cancelled "
            f"catastrophically")
    return values


def wigner_pt_closed(state: BoundStateLabel, chi: float, p: float) -> float:
    """Closed-form Wigner value of a bound state at one point (even in chi
    and p); an uncertified oracle, DomainError for |chi| < CHI_MIN and
    PrecisionLossError when its value overflows or exceeds the Wigner bound
    |W| <= R / pi (catastrophic cancellation at large depth)."""
    return float(_closed_grid(state, np.array([chi]), np.array([p * state.params.R]))[0, 0])


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
    half-line trapezoid sum.  T (from the largest |chi|), the step h, the
    nodes and both cos(tau q) matrices are built once per grid; the chi rows
    then go through in blocks of about _BLOCK_ELEMENTS elements per
    temporary, written into one output array, so the peak memory is the
    grid's values plus a fixed budget.  The contraction stays ``einsum``:
    it sums each output element over the nodes in the same order however
    many rows a block holds, so the bytes do not depend on the block size,
    and unlike a BLAS product they do not depend on the thread count either.
    The midpoint nodes turn the step-h sum into the step-h/2 one, whose
    values are returned; a discrepancy above max(10 abs_tol, 1e-9 |W|)
    anywhere raises PrecisionLossError naming the first worst point in
    row-major order.
    """
    f = bound_sampler(state)
    R = state.params.R
    T = _pair_truncation(f, f, float(np.max(np.abs(chi))), R, spec)
    h = _spectral_step(float(np.max(np.abs(qs))), state.sigma, spec)
    k = np.arange(int(math.ceil(T / h)) + 1)
    # (nodes, weights, cos(tau q)) of the step-h sum and of its midpoints
    coarse_rule, mid_rule = [(taus, weights, np.cos(np.outer(taus, qs))) for taus, weights in
                             ((k * h, np.where(k == 0, 1.0, 2.0)), ((k[:-1] + 0.5) * h, 2.0))]
    scale = R * h / (2.0 * math.pi)

    def half_line_sum(rows, rule):
        taus, weights, cos = rule
        corr = f(rows[:, None] - taus / 2.0) * f(rows[:, None] + taus / 2.0)
        return np.einsum("ik,kj->ij", corr * weights, cos)

    values = np.empty((len(chi), len(qs)))
    step = max(1, _BLOCK_ELEMENTS // max(len(qs), len(k)))
    worst, worst_at, discrepancy = -1.0, (0, 0, 0.0, 0.0), 0.0
    for start in range(0, len(chi), step):
        rows = chi[start:start + step]
        coarse = scale * half_line_sum(rows, coarse_rule)
        fine = 0.5 * (coarse + scale * half_line_sum(rows, mid_rule))
        values[start:start + step] = fine
        err = np.abs(fine - coarse)
        bound = np.maximum(10.0 * spec.abs_tol, 1e-9 * np.abs(fine))
        ratio = err / bound
        i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[i, j] > worst:
            worst, worst_at = ratio[i, j], (start + i, j, err[i, j], bound[i, j])
        discrepancy = max(discrepancy, float(err.max()))
    i, j, err_ij, bound_ij = worst_at
    if err_ij > bound_ij:
        raise PrecisionLossError(
            f"spectral grid not certified at chi={chi[i]:.6g}, pR={qs[j]:.6g}: "
            f"step-halving discrepancy {err_ij:.2e} exceeds {bound_ij:.2e}")
    return values, discrepancy


def wigner_grid(state: BoundStateLabel, chi_axis, pR_axis,
                evaluator: str = "spectral",
                spec: QuadratureSpec | None = None) -> WignerGrid:
    """Evaluate W(psi_n | chi, p) on the product grid chi_axis x pR_axis.

    ``spectral`` is the certified engine.  ``quadrature`` runs one batched
    adaptive Gauss-Kronrod per chi row, equal point by point to
    ``wigner_quadrature_1d``.  ``closed_form`` is the uncertified oracle,
    equal point by point to ``wigner_pt_closed``; it raises DomainError when
    any |chi| is below CHI_MIN.
    """
    if evaluator not in EVALUATORS:
        raise ValueError(f"evaluator must be one of {EVALUATORS}")
    spec = spec or QuadratureSpec()
    chi = np.asarray(chi_axis, dtype=float)
    qs = np.asarray(pR_axis, dtype=float)
    discrepancy = 0.0
    if evaluator == "quadrature":
        f = bound_sampler(state)
        R = state.params.R
        values = np.empty((len(chi), len(qs)))
        for i, c in enumerate(chi):
            # a real diagonal pair: the folded row's imaginary part is exactly 0
            values[i] = _quadrature_row(f, f, float(c), qs / R, R, spec).real
    elif evaluator == "closed_form":
        values = _closed_grid(state, chi, qs)
    else:
        values, discrepancy = _spectral_values(state, chi, qs, spec)
    meta = {"n": state.n, "s": state.s, "R": state.params.R}
    return WignerGrid(chi, qs, values, evaluator, meta, step_discrepancy=discrepancy)


def _axis_fold_factor(axis: np.ndarray, what: str) -> float:
    """2 for a quadrant axis starting at 0 (even reflection supplies the
    other half), 1 for an axis that already spans negative values.  An axis
    starting above 0 misses [-a, a], which no fold recovers: ValueError."""
    if axis[0] < -1e-12:
        return 1.0
    if axis[0] > 1e-12:
        raise ValueError(f"{what} axis starts at {axis[0]:.6g} > 0: a marginal needs "
                         f"an axis from 0 or one spanning negative values")
    return 2.0


def _trapezoid(y: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """np.trapezoid(y, x, axis=axis) bit for bit, with one temporary the
    size of y instead of three."""
    d = np.diff(x)
    if axis == 0:
        t = y[1:] + y[:-1]
        d = d[:, None]
    else:
        t = y[:, 1:] + y[:, :-1]
    t *= d
    t /= 2.0
    return t.sum(axis)


def marginal_momentum_integrated(grid: WignerGrid, R: float) -> np.ndarray:
    """integral dp W over the full momentum axis, per chi row; equals
    |psi(chi)|^2 for a diagonal Wigner function.  Quadrant grids are
    reflected in p before the trapezoid rule; full-plane grids integrate
    as they stand."""
    fold = _axis_fold_factor(grid.pR_axis, "pR")
    return fold * _trapezoid(grid.values, grid.pR_axis, axis=1) / R


def marginal_position_integrated(grid: WignerGrid, R: float) -> np.ndarray:
    """integral R dchi W over the full position axis, per pR column; equals
    |psi_tilde(p)|^2 in the R dchi normalization."""
    fold = _axis_fold_factor(grid.chi_axis, "chi")
    return fold * R * _trapezoid(grid.values, grid.chi_axis, axis=0)


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


def _mirror_index(axis: np.ndarray):
    """The axis mirrored about 0 when it starts at or above 0 (its 0 entry
    kept once), with the index of each new entry into the old axis; an axis
    that already spans negative values stands as it is (as in
    _axis_fold_factor)."""
    idx = np.arange(len(axis))
    if axis[0] < -1e-12:
        return axis, idx
    drop = 1 if abs(axis[0]) <= 1e-12 else 0
    return (np.concatenate([-axis[::-1], axis[drop:]]),
            np.concatenate([idx[::-1], idx[drop:]]))


def reflect_quadrant(grid: WignerGrid):
    """Mirror a quadrant grid across both axes for full-plane rendering.

    Returns (chi_full, pR_full, values_full), the values gathered by one
    fancy index.  Only axes starting at or above 0 are mirrored, and the
    first row/column is only duplicated when its axis starts above 0; an
    axis that already spans negative values is rendered as it stands.
    """
    chi_full, rows = _mirror_index(grid.chi_axis)
    q_full, cols = _mirror_index(grid.pR_axis)
    return chi_full, q_full, grid.values[np.ix_(rows, cols)]
