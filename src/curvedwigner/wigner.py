"""Wigner quasiprobability of the 1-D hyperbola: one certified grid engine
and two independent oracles.

* ``wigner_grid`` is the certified spectral engine, the only route whose
  grids the CLI writes.  The correlation psi(chi - tau/2) psi(chi + tau/2)
  of a real profile is even in tau, so with q = p R a whole grid is one
  half-line trapezoid sum, R h / 2 pi sum_k w_k corr(chi_i, k h) cos(k h q_j),
  which converges exponentially for analytic, exponentially decaying
  integrands (Trefethen & Weideman, SIAM Review 56 (2014) 385), on a step
  proven from W's decay in q (``oscillator.spectral_step``).
  ``quadrature.half_line_trapezoid`` sums it in blocks of fixed size and
  certifies it by step halving; ``psi_momentum`` runs the same helper on psi.

  The grid is sized by the state, not by the axes.  Past a horizon |chi_h|
  the envelope |psi(u)| <= a e^{-sigma |u|} bounds the whole row below the
  truncation budget, a tenth of ``quadrature.CERTIFIED_ABS_TOL``, so those
  rows are written as 0 and cost nothing (``_horizon``); T and the nodes
  follow the rows within it.  Past the |q| where W's bound B_1(|q|)
  (``momentum_decay``) falls below the budget the columns are 0 too, and h
  follows the columns before that cut.  ``WignerGrid.rows_past_horizon``
  and ``columns_past_horizon`` count them.  ``state_axes`` gives a state's
  own uniform axes up to both cuts, on steps proven for the trapezoid
  integrals of W and W^2 that verification criterion 2 checks.

* ``wigner_quadrature_grid`` integrates the defining correlation integral

      W(f, g | chi, p) = (R / 2 pi) * integral dtau
          conj(f)(chi - tau/2) exp(-i p R tau) g(chi + tau/2)

  by adaptive Gauss-Kronrod panels over a chi axis and an array of
  momenta.  This is the ground truth: verification criterion 1 and the
  tests check the other routes against it.  The tau < 0 half is folded
  onto [0, T], and the rows go in blocks of (chi, p) components, each block
  one vector integral on a shared adaptive partition (details in its
  docstring).  ``wigner_quadrature_1d`` is the one-row case.

* ``wigner_closed_grid`` evaluates the bound-state diagonal W(psi_n | chi, p)
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
PrecisionLossError.

``exact_marginals`` is the one home of the densities |psi(chi)|^2 and
|psi~(p)|^2 that the CLI writes beside each panel and criterion 2 checks.

Both correlation routes cut the tau integral at |tau| = T = 2|chi| plus the
tail radius of the correlation's envelope beyond 2|chi|, so the discarded
tails stay below a tenth of the absolute tolerance (derivation in
``_pair_truncation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonconvergenceError, PrecisionLossError
from .oscillator import (BoundStateLabel, OscillatorParams, bound_sampler, falling_root,
                         momentum_decay, psi_bound, psi_momentum, spectral_step)
from .quadrature import CERTIFIED_ABS_TOL, QuadratureSpec, gauss_kronrod_vector, half_line_trapezoid
from .sampling import DecayEnvelope, FieldSampler
from .specfun import laguerre, log_gamma

__all__ = [
    "WignerGrid",
    "wigner_grid",
    "wigner_quadrature_grid",
    "wigner_closed_grid",
    "state_axes",
    "exact_marginals",
    "marginal_momentum_integrated",
    "marginal_position_integrated",
    "total_probability",
    "flat_ho_wigner",
    "contraction_report",
]

CHI_MIN = 0.05          # below this |chi| the closed form is not evaluated
Q_EXTRAP = 0.03         # |pR| below this uses the even-in-q extrapolation
_F21_MAX_TERMS = 200_000
_BOUND_MARGIN = 1e-6    # relative slack on |W| <= R/pi before the closed form is rejected

_ORACLE_COMPONENTS = 2 ** 9  # quadrature oracle (chi, p) components per vector integral


# eq=False: the fields hold arrays, so == and hash() go by identity.
@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Rectangular quadrant sample of W over (chi, pR) of ``state``, chi
    down the rows."""

    chi_axis: np.ndarray
    pR_axis: np.ndarray
    values: np.ndarray
    state: BoundStateLabel
    fallback_points = 0             # always 0; perfbench/tracer.py reads it
    step_discrepancy: float = 0.0   # engine's largest step-halving |fine - coarse|
    rows_past_horizon: int = 0      # rows the engine wrote as 0 (``_horizon``)
    columns_past_horizon: int = 0   # pR columns the engine wrote as 0 (``momentum_decay``)

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
        object.__setattr__(self, "chi_axis", chi)
        object.__setattr__(self, "pR_axis", q)
        object.__setattr__(self, "values", vals)


def _pair_truncation(f: FieldSampler, g: FieldSampler, chi: float, R: float,
                     abs_tol: float) -> float:
    """Half-width T of the tau interval outside which the correlation
    integral of f and g at ``chi`` is below a tenth of ``abs_tol`` in W.

    With envelopes |f(u)| <= a_f e^{-r_f |u|}, |g(u)| <= a_g e^{-r_g |u|},
    amp = a_f a_g and rate = r_f + r_g, on |tau| >= 2|chi| write
    u = |tau| - 2|chi|.  For chi >= 0 the tail tau > 0 has
    |chi - tau/2| = u/2 and |chi + tau/2| = 2 chi + u/2, the tail tau < 0
    the same with f and g swapped (and for chi < 0 the roles exchange), so

        |corr| <= amp e^{-2 min(r_f, r_g) |chi|} e^{-rate u / 2}

    on both tails.  Their two integrals over u > T - 2|chi| sum to

        mass e^{-rate (T - 2|chi|) / 2},  mass = 4 amp e^{-2 min(r_f, r_g) |chi|} / rate,

    which meets the budget 0.1 abs_tol 2 pi / R (W carries the factor
    R / 2 pi) at T = 2|chi| + 2 log(mass / budget) / rate: the tail radius of
    the envelope amp e^{-2 min(r_f, r_g) |chi|} e^{-rate |u| / 2}
    (``DecayEnvelope.tail_radius``).  When the mass is already under budget,
    the tail radius is 4, so T = 2|chi| + 4.  Since 2 min(r_f, r_g) <= rate,
    T never decreases in |chi|, so a T taken at the largest |chi| of a grid is
    valid for every row; T <= 2|chi| + max(T(0), 4), and for equal rates
    T <= max(T(0), 2|chi| + 4).  The mass is formed as a logarithm from the
    envelopes' log amplitudes: amp alone overflows a double at large depth.
    """
    budget = 0.1 * abs_tol * 2.0 * math.pi / R
    tails = DecayEnvelope(f.envelope.log_amplitude + g.envelope.log_amplitude
                          - 2.0 * min(f.envelope.rate, g.envelope.rate) * abs(chi),
                          (f.envelope.rate + g.envelope.rate) / 2.0)
    return 2.0 * abs(chi) + tails.tail_radius(budget)


def wigner_quadrature_grid(f: FieldSampler, g: FieldSampler, chi_axis, p,
                           R: float, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Direct correlation-integral Wigner values over a chi axis and an
    array of momenta, complex of shape (len(chi_axis), len(p)) (a scalar p
    is one momentum), with an imaginary part of exactly 0 when f and g are
    the same real profile.

    The rows go in axis order, in blocks of at most _ORACLE_COMPONENTS
    (chi, p) components (one row when the momenta alone exceed it), and
    each block is one vector Gauss-Kronrod integral: its components share
    the truncation T, taken at the block's largest |chi| (valid for every
    row, since T never decreases in |chi|; see ``_pair_truncation``), and
    one adaptive partition, refined until every component meets its own
    tolerance, so the profiles are sampled once per node for the whole
    block.  A value therefore depends on the other components of its block,
    within the tolerances; the budget bounds the memory of a block's
    panels, so a long axis costs time, not memory.

    With c(tau) = conj f(chi - tau/2) g(chi + tau/2) the integral over
    [-T, T] is folded onto [0, T]:

        int_{-T}^{T} c(tau) e^{-iq tau} = int_0^T [c(tau) e^{-iq tau}
                                                   + c(-tau) e^{+iq tau}],

    c(-tau) = conj f(chi + tau/2) g(chi - tau/2), so both terms take the
    same two profile arguments and e^{+iq tau} is the conjugate of
    e^{-iq tau}.  When g is f and the profile is real, c(-tau) = c(tau) and
    the folded integrand is the real 2 c(tau) cos(q tau), two profile calls
    per node.  The tolerances apply to the full integral; the partition
    starts from ``max(4, max|q| T / 6 + 1)`` panels on [0, T], as wide as
    ``max(8, |q| T / 3 + 1)`` were on [-T, T] for the fastest momentum.
    """
    spec = spec or QuadratureSpec()
    chi = np.asarray(chi_axis, dtype=float)
    q = np.atleast_1d(np.asarray(p, dtype=float)) * R
    values = np.empty((len(chi), len(q)), dtype=complex)
    step = max(1, _ORACLE_COMPONENTS // len(q))  # rows per block

    def integrand(rows, tau):
        # profile arguments chi -/+ tau/2 of shape (node, row), flattened for the samplers
        minus, plus = rows - tau[:, None] / 2.0, rows + tau[:, None] / 2.0
        f_minus, f_plus = (f(u.ravel()).reshape(u.shape) for u in (minus, plus))
        if g is f and not np.iscomplexobj(f_minus):
            out = (2.0 * f_minus * f_plus)[:, :, None] * np.cos(np.outer(tau, q))[:, None, :]
            return out.reshape(len(tau), -1)
        g_minus, g_plus = ((f_minus, f_plus) if g is f else
                           (g(u.ravel()).reshape(u.shape) for u in (minus, plus)))
        if np.iscomplexobj(f_minus):  # np.conj of a real array is only a copy
            f_minus, f_plus = np.conj(f_minus), np.conj(f_plus)
        phase = np.exp(-1j * np.outer(tau, q))[:, None, :]
        out = (f_minus * g_plus)[:, :, None] * phase + (f_plus * g_minus)[:, :, None] * np.conj(phase)
        return out.reshape(len(tau), -1)

    for start in range(0, len(chi), step):
        rows = chi[start:start + step]
        T = _pair_truncation(f, g, float(np.max(np.abs(rows))), R, spec.abs_tol)
        n0 = max(4, int(np.max(np.abs(q), initial=0.0) * T / 6.0) + 1)
        vals, _ = gauss_kronrod_vector(lambda tau: integrand(rows, tau), 0.0, T, spec, n0)
        values[start:start + step] = (R / (2.0 * math.pi) * vals.astype(complex)).reshape(len(rows), -1)
    return values


def wigner_quadrature_1d(f: FieldSampler, g: FieldSampler, chi: float, p,
                         R: float, spec: QuadratureSpec | None = None):
    """Direct correlation-integral Wigner value at one chi: the one-row case
    of ``wigner_quadrature_grid``, row 0 of its values for the axis [chi].

    A scalar p gives a complex scalar; an array of momenta gives one value
    per p, all from one vector integral on a shared partition, so a value
    depends on the other momenta of the call, within the tolerances.
    """
    vals = wigner_quadrature_grid(f, g, [chi], p, R, spec)[0]
    return vals[0] if np.ndim(p) == 0 else vals


def wigner_closed_grid(state: BoundStateLabel, chi_axis, pR_axis) -> np.ndarray:
    """Closed-form W over the grid |chi_axis| x |pR_axis| (W is even in
    both); DomainError below CHI_MIN.

    One 2F1 series runs over the (k, k') pairs stacked on the flattened
    chi x q block, and each log-gamma is evaluated once per distinct
    argument; elements converge at very different rates (the series slows
    as exp(-4 chi) approaches 1), so converged ones are retired as the
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
    chi = np.abs(np.asarray(chi_axis, dtype=float))
    qs = np.abs(np.asarray(pR_axis, dtype=float))
    if np.any(chi < CHI_MIN):
        raise DomainError(f"closed form needs |chi| >= {CHI_MIN}: its 2F1 series "
                          f"does not converge as e^(-4 chi) -> 1")
    n, s, sig, R = state.n, state.s, state.sigma, state.params.R
    near = qs < Q_EXTRAP
    nodes = Q_EXTRAP * np.arange(1.0, 5.0) if near.any() else np.empty(0)
    cols = np.concatenate([qs[~near], nodes])
    lgB2 = (math.log(sig) + math.lgamma(2.0 * s - n + 1.0)
            - math.log(4.0) - math.lgamma(n + 1) - 2.0 * math.lgamma(sig + 1.0))
    # g_k = (-n)_k (2s - n + 1)_k / ((sigma + 1)_k k!), each rising factorial
    # (a)_k = a (a + 1) ... (a + k - 1) a product in that order
    gamma_coef = np.array([
        math.prod(float(j - n) for j in range(k))
        * math.prod(2.0 * s - n + 1.0 + j for j in range(k))
        / (math.prod(sig + 1.0 + j for j in range(k)) * math.factorial(k))
        for k in range(n + 1)
    ])
    c_flat, q_flat = np.repeat(chi, len(cols)), np.tile(cols, len(chi))
    # every (k, k') pair's block stacked, pair-major, so one series loop runs them all
    k, kp = np.divmod(np.arange((n + 1) ** 2), n + 1)
    # log Gamma(k' - k + iq) and log Gamma(sigma + k - iq), once per distinct argument
    lg_diff = np.array([[log_gamma(d + 1j * q) for q in cols] for d in range(-n, n + 1)])
    lg_k = np.array([[log_gamma(sig + j - 1j * q) for q in cols] for j in range(n + 1)])
    lg = (lgB2 + lg_diff[kp - k + n] + lg_k[k]
          - np.array([math.lgamma(sig + j) for j in kp])[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        pref = (gamma_coef[k] * gamma_coef[kp])[:, None] * np.exp(
            np.tile(lg, len(chi)) - (2.0 * c_flat) * (sig + 2.0 * k)[:, None]
            + 2.0j * q_flat * c_flat)
        a = np.repeat(sig + k, len(c_flat))
        b = ((sig + k)[:, None] - 1j * q_flat).ravel()
        c = ((1.0 + k - kp)[:, None] - 1j * q_flat).ravel()
        xa = np.tile(np.exp(-4.0 * c_flat), len(k))
        F = np.empty(len(xa), dtype=complex)
        idx = np.arange(len(xa))
        term_a = np.ones(len(xa), dtype=complex)
        tot_a = np.ones(len(xa), dtype=complex)
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
                idx, xa, a, b, c = idx[keep], xa[keep], a[keep], b[keep], c[keep]
                term_a, tot_a = term_a[keep], tot_a[keep]
            if idx.size and j > _F21_MAX_TERMS:
                raise NonconvergenceError("closed-form hypergeometric series stalled")
        total = np.zeros(len(c_flat), dtype=complex)
        for term in pref * F.reshape(pref.shape):  # pairs summed in (k, k') order
            total += term
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


def _above_budget(log_bound: np.ndarray) -> slice:
    """The run of axis entries from the first to the last whose bound on
    log |W| exceeds the truncation budget, log(0.1 ``CERTIFIED_ABS_TOL``);
    every entry outside it is written as 0.  Both bounds the engine cuts by
    fall monotonically in the magnitude of the axis entry, so on an
    increasing axis the entries above the budget are one contiguous run."""
    inside = np.flatnonzero(log_bound > math.log(0.1 * CERTIFIED_ABS_TOL))
    return slice(int(inside[0]), int(inside[-1]) + 1) if inside.size else slice(0, 0)


def _row_log_bound(f: FieldSampler, R: float, dist):
    """log of a bound on |W(chi, q)| at |chi| = ``dist``, for every q.

    With |f(u)| <= a e^{-r |u|}, |corr(chi, tau)| <= a^2 e^{-2 r max(|chi|, |tau| / 2)},
    whose integral over tau is a^2 e^{-2 r |chi|} (4 |chi| + 2 / r), so

        |W(chi, q)| <= (R / 2 pi) a^2 e^{-2 r |chi|} (4 |chi| + 2 / r)

    for every q.  The bound falls monotonically in |chi| (its log has slope
    -2 r + 2 r / (2 r |chi| + 1) <= 0), as ``_above_budget`` needs.
    """
    rate = f.envelope.rate
    return (math.log(R / (2.0 * math.pi)) + 2.0 * f.envelope.log_amplitude
            - 2.0 * rate * dist + np.log(4.0 * dist + 2.0 / rate))


def _horizon(f: FieldSampler, chi: np.ndarray, R: float) -> slice:
    """The run of rows of ``chi`` the engine evaluates: every row outside it
    has |W| within the truncation budget, a tenth of ``CERTIFIED_ABS_TOL``
    (``_row_log_bound``), so it is written as 0."""
    return _above_budget(_row_log_bound(f, R, np.abs(chi)))


def state_axes(state: BoundStateLabel) -> tuple[np.ndarray, np.ndarray]:
    """Uniform quadrant axes (chi_axis, pR_axis) of ``state``, from 0 to its
    horizon X in chi (past it every row is below the truncation budget, a
    tenth of ``CERTIFIED_ABS_TOL``; ``_row_log_bound``) and from 0 to its
    momentum cut Q in q = pR (past it B_1(q), ``momentum_decay``, is below
    the budget), with steps on which the trapezoid sums of W and of W^2 over
    the plane, over q at each row and over chi at each column, each miss
    their integral by at most the budget.  W is even in chi and in q, so the
    quadrant's trapezoid reflected is the whole line's.  The step in each
    variable comes from W's analyticity in a strip, as follows.

    *q.*  With T = 2 pi / dq, Poisson summation gives the whole-line sum
    dq sum_k F(k dq) = sum_m F^(m T), F^ the Fourier transform in q.  For
    F = W(chi, .) it is F^(t) = R c(chi, t), c the correlation, and
    |c(chi, t)| <= a^2 e^{-sigma |t|} (the envelope |psi| <= a e^{-sigma |u|};
    W is analytic for |Im q| < sigma).  For F = W^2 it is the
    self-convolution (R^2 / 2 pi) (c * c)(t), and
    |c * c(t)| <= a^4 (|t| + 1 / sigma) e^{-sigma |t|}.  With x = sigma T
    the aliases of int dp (one factor 1 / R) sum to at most

        W:    2 a^2 e^{-x} / (1 - e^{-x}),
        W^2:  (R / pi) a^4 (T + 1 / sigma) e^{-x} / (1 - e^{-x})^2

    at every row; the plane's sums take them over 2X of rows.

    *chi.*  psi_n is analytic for |Im u| < pi / 2 and, as
    ``oscillator.spectral_step`` shows, |psi(x + iy)| <= K sech^sigma(x)
    cos^{-s}(y), K = N 2^sigma S_n, s = sigma + n.  So for real q and
    |y| < pi / 2, Cauchy-Schwarz on the correlation integral gives
    sup_x |W(x + iy, q)| <= B_1(0) cos^{-2s}(y), and integrating over x
    (u, v = x -/+ tau / 2) gives int |W(x + iy, q)| dx <= M cos^{-2s}(y)
    with M = B_1/2(0)^2, the product of two int sech^sigma (B_c from
    ``momentum_decay``).  For W^2, sup times integral, M = B_1(0) B_1/2(0)^2
    and the power doubles.  By the strip theorem (Trefethen & Weideman,
    SIAM Review 56 (2014) 385, Thm 5.1) a chi sum at step dchi = 2 pi / G
    misses by at most 2 M cos^{-2ks}(y) / (e^{G y} - 1), k = 1 for W and 2
    for W^2; at tan y = G / 2ks, near the best y, that is

        2 M (1 + (G / 2ks)^2)^{ks} / (e^{G atan(G / 2ks)} - 1)

    at every column; the plane's sums take them over 2Q / R of columns.

    Each bound falls monotonically in T or G, so each step is 2 pi over the
    root (``falling_root``) of the larger of its bounds, times the plane's
    extent when that exceeds 1, at the budget; the axes take the fewest
    points whose step is within it.
    """
    f = bound_sampler(state)
    R, sig, s = state.params.R, state.sigma, state.s
    log_a, log_budget = f.envelope.log_amplitude, math.log(0.1 * CERTIFIED_ABS_TOL)
    log_w = momentum_decay(state, 1.0)
    log_b1, log_bh = float(log_w(0.0)), float(momentum_decay(state, 0.5)(0.0))
    X = falling_root(lambda x: float(_row_log_bound(f, R, x)) - log_budget)
    Q = falling_root(lambda q: float(log_w(q)) - log_budget)

    def log_pole(v):  # log(e^v - 1) without overflow
        return v + math.log(-math.expm1(-v))

    def q_excess(T):
        x = sig * T
        w = math.log(2.0) + 2.0 * log_a - log_pole(x)
        w2 = (math.log(R / math.pi) + 4.0 * log_a + math.log(T + 1.0 / sig)
              - log_pole(x) - math.log(-math.expm1(-x)))
        return max(w, w2) + math.log(max(1.0, 2.0 * X)) - log_budget

    def chi_excess(G):
        def alias(k, log_m):
            z = G / (2.0 * k * s)
            return math.log(2.0) + log_m + k * s * math.log1p(z * z) - log_pole(G * math.atan(z))
        w, w2 = alias(1, 2.0 * log_bh), alias(2, log_b1 + 2.0 * log_bh)
        return max(w, w2) + math.log(max(1.0, 2.0 * Q / R)) - log_budget

    dchi, dq = (2.0 * math.pi / falling_root(excess) for excess in (chi_excess, q_excess))
    return (np.linspace(0.0, X, int(math.ceil(X / dchi)) + 1),
            np.linspace(0.0, Q, int(math.ceil(Q / dq)) + 1))


def wigner_grid(state: BoundStateLabel, chi_axis, pR_axis) -> WignerGrid:
    """W(psi_n | chi, p) on the product grid chi_axis x pR_axis from the
    certified spectral engine; PrecisionLossError when the step halving
    disagrees anywhere.

    The correlation's half-line trapezoid against cos(tau q)
    (``quadrature.half_line_trapezoid``) runs on the rows within the state's
    horizon (``_horizon``) and the columns within its momentum cut
    (``momentum_decay``), the rest 0; T follows the largest |chi| evaluated
    and h the largest |q| (``spectral_step``)."""
    chi, qs = np.asarray(chi_axis, dtype=float), np.asarray(pR_axis, dtype=float)
    f = bound_sampler(state)
    R = state.params.R
    run = _horizon(f, chi, R)
    cols = _above_budget(momentum_decay(state, 1.0)(np.abs(qs)))
    values = np.zeros((len(chi), len(qs)))  # after the cuts' axis temporaries are freed
    past = dict(rows_past_horizon=len(chi) - (run.stop - run.start),
                columns_past_horizon=len(qs) - (cols.stop - cols.start))
    if run.start == run.stop or cols.start == cols.stop:
        return WignerGrid(chi, qs, values, state, **past)
    T = _pair_truncation(f, f, float(np.max(np.abs(chi[run]))), R, CERTIFIED_ABS_TOL)
    h = spectral_step(float(np.max(np.abs(qs[cols]))), state, 1.0)
    discrepancy = half_line_trapezoid(
        lambda rows, taus: f(rows[:, None] - taus / 2.0) * f(rows[:, None] + taus / 2.0),
        chi[run], qs[cols], h, T, np.cos, R * h / (2.0 * math.pi),
        "spectral grid not certified at chi={r:.6g}, pR={q:.6g}", values[run, cols])
    return WignerGrid(chi, qs, values, state, step_discrepancy=discrepancy, **past)


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


def exact_marginals(state: BoundStateLabel, chi_axis, pR_axis):
    """(|psi(chi)|^2, |psi~(p)|^2) of ``state`` at the axis points, the
    exact marginals of the sum the engine evaluates, not an integral over a
    display window.

    The engine's W_h(chi, q) = (R h / 2 pi) sum_k w_k c(chi, tau_k) cos(tau_k q)
    has period 2 pi / h in q; integrated over one period and divided by R,
    every k >= 1 cosine integrates to 0 and c(chi, 0) = psi(chi)^2 is left,
    with no truncation and no step.  integral dchi W = |psi~(p)|^2 is the
    paper's identity, which verification criterion 2 checks for the engine
    on each state's own axes (``state_axes``), and criterion 9 checks psi~
    (real or imaginary) and its printed 3F2 oracle against the numerical
    transform.
    """
    R = state.params.R
    position = psi_bound(state, np.asarray(chi_axis, dtype=float)) ** 2
    psit = psi_momentum(state, np.asarray(pR_axis, dtype=float) / R)
    return position, psit.real ** 2 + psit.imag ** 2


def marginal_momentum_integrated(grid: WignerGrid) -> np.ndarray:
    """integral dp W over the full momentum axis (the grid's pR axis over its
    R), per chi row; equals |psi(chi)|^2 for a diagonal Wigner function.
    Quadrant grids are reflected in p before the trapezoid rule; full-plane
    grids integrate as they stand."""
    fold = _axis_fold_factor(grid.pR_axis, "pR")
    return fold * _trapezoid(grid.values, grid.pR_axis, axis=1) / grid.state.params.R


def marginal_position_integrated(grid: WignerGrid) -> np.ndarray:
    """integral dchi W over the full position axis, per pR column; equals
    |psi_tilde(p)|^2, a density in p (psi and psi_tilde are normalized on
    dchi and dp)."""
    fold = _axis_fold_factor(grid.chi_axis, "chi")
    return fold * _trapezoid(grid.values, grid.chi_axis, axis=0)


def total_probability(grid: WignerGrid) -> float:
    """integral dchi integral dp W over the full plane (quadrant reflected)."""
    marg = marginal_momentum_integrated(grid)
    fold = _axis_fold_factor(grid.chi_axis, "chi")
    return float(fold * np.trapezoid(marg, grid.chi_axis))


def flat_ho_wigner(n: int, mu: float, omega: float, x: float, p: float) -> float:
    """Flat harmonic-oscillator Wigner function
    ((-1)^n / pi) exp(-r^2) L_n(2 r^2), r^2 = mu w x^2 + p^2 / (mu w)."""
    mw = mu * omega
    r2 = mw * x * x + p * p / mw
    return (-1.0) ** n / math.pi * math.exp(-r2) * laguerre(n, 2.0 * r2)


def contraction_report(n: int, s_list) -> tuple:
    """Deviation of W(psi_n^s) from the flat Laguerre-Gaussian reference, one
    per s, on the 13 x 13 scaled grid (chi sqrt(s), pR / sqrt(s)) in
    [0, 3]^2 at mu = R = 1.

    The deviation for each s is max |W_pt - W_flat| / max |W_flat| over the
    points where |W_flat| exceeds 5% of its peak.  The metric is symmetric
    under p -> -p by construction (quadrant grids of even functions).
    """
    u = np.linspace(0.0, 3.0, 13)
    devs = []
    for s in map(float, s_list):
        params = OscillatorParams.from_depth(s)
        chi = u / math.sqrt(s)
        qs = u * math.sqrt(s)
        grid = wigner_grid(BoundStateLabel(n, params), chi, qs)
        flat = np.array([[flat_ho_wigner(n, 1.0, params.omega, c, q) for q in qs]
                         for c in chi])
        peak = float(np.max(np.abs(flat)))
        mask = np.abs(flat) > 0.05 * peak
        devs.append(float(np.max(np.abs(grid.values - flat)[mask])) / peak)
    return tuple(devs)
