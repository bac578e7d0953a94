"""Quadrature rules: adaptive Gauss-Kronrod panels for smooth, possibly
oscillatory complex integrands on a finite interval, and the certified
half-line trapezoid of the spectral engine and the momentum profile.

``gauss_kronrod_vector`` integrates a vector of m integrands on one shared
adaptive partition (the vector-integrand scheme of Berntsen, Espelid & Genz,
ACM TOMS 17 (1991) 452), refined in batches, one vectorized call per level;
``adaptive_gauss_kronrod`` is the case m = 1.  Results are deterministic:
panel bookkeeping is ordered and independent of timing.

``half_line_trapezoid`` sums sum_k w_k S(r, k h) wave(k h q) over rows r and
momenta q, certified by step halving to ``CERTIFIED_ABS_TOL``, in blocks of
fixed size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonconvergenceError, PrecisionLossError

__all__ = ["CERTIFIED_ABS_TOL", "QuadratureSpec", "adaptive_gauss_kronrod",
           "gauss_kronrod_vector", "half_line_trapezoid"]

CERTIFIED_ABS_TOL = 1e-11  # stated tolerance of every certified value; the oracles set their own

_BLOCK_ELEMENTS = 2 ** 13  # trapezoid samples, and values, per block of rows
_WAVE_ELEMENTS = 2 ** 19   # trapezoid wave(t q) elements per node rule and block of columns

# 15-point Kronrod nodes on [-1, 1]; odd-indexed nodes form the embedded
# 7-point Gauss rule.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and the panel budget for adaptive integration."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_panels: int = 4096

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")


def adaptive_gauss_kronrod(f, a, b, spec: QuadratureSpec | None = None,
                           initial_panels=8):
    """Integrate the scalar integrand ``f`` over [a, b]; returns
    (value, error_estimate).  The case m = 1 of ``gauss_kronrod_vector``.

    Raises NonconvergenceError when the panel budget is exhausted before the
    global error estimate falls under max(abs_tol, rel_tol * |result|).
    """
    vals, errs = gauss_kronrod_vector(lambda x: np.asarray(f(x))[:, None], a, b, spec,
                                      initial_panels)
    return vals.astype(complex)[0], float(errs[0])


def gauss_kronrod_vector(f, a, b, spec: QuadratureSpec | None = None, initial_panels=8):
    """Integrate the m components of a vector integrand over [a, b] on one
    shared partition; returns arrays (values, error_estimates) of length m.

    ``f(x)`` takes a 1-D array of nodes and returns an array of shape
    (len(x), m), so quantities common to the components are computed once
    per node.  The partition starts from ``initial_panels`` equal panels.  A
    panel is banked when every component's K15/G7 discrepancy meets a
    proportional share of that component's own tolerance
    max(abs_tol, rel_tol * |I_i|); the rest are bisected, all in one batch
    per level, until every component's global error estimate meets its
    tolerance.  ``max_panels`` bounds the shared panels, so one hard
    component raises NonconvergenceError for the whole call.  Every
    component goes through the same arithmetic on the same nodes, so its
    value does not depend on its position among the others.
    """
    spec = spec or QuadratureSpec()
    a, b = float(a), float(b)
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    n_panels = max(1, int(initial_panels))
    edges = np.linspace(a, b, n_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    banked, banked_err = 0.0, 0.0
    while True:
        mid = 0.5 * (lo + hi)
        hw = 0.5 * (hi - lo)
        xs = mid[:, None] + hw[:, None] * _XK[None, :]
        fv = np.asarray(f(xs.ravel())).reshape(len(lo), len(_XK), -1)
        # einsum sums without a (panels, 15, m) product temporary and calls no BLAS
        k15 = np.einsum("pkm,k->pm", fv, _WK) * hw[:, None]
        g7 = np.einsum("pkm,k->pm", fv[:, 1::2], _WG) * hw[:, None]
        err = np.abs(k15 - g7)
        estimate = banked + k15.sum(axis=0)
        total_err = banked_err + err.sum(axis=0)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(estimate))
        if np.all(total_err <= tol):
            return estimate, total_err
        done = np.all(err <= 0.25 * tol / len(lo), axis=1)
        if done.all():  # every panel met its share, the sum of shares did not
            return estimate, total_err
        banked = banked + k15[done].sum(axis=0)
        banked_err = banked_err + err[done].sum(axis=0)
        keep = ~done
        split = int(keep.sum())
        if n_panels + split > spec.max_panels:
            worst = int(np.argmax(total_err / tol))
            raise NonconvergenceError(
                f"quadrature needed more than {spec.max_panels} panels "
                f"(error estimate {total_err[worst]:.3e} of component {worst})"
            )
        lo, hi, mid = lo[keep], hi[keep], mid[keep]
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        n_panels += split


def half_line_trapezoid(samples, rows, q, h, T, wave, factor, label: str,
                        out: np.ndarray) -> float:
    """The certified step-h/2 half-line trapezoid sum, written into ``out``
    of shape (len(rows), len(q)):

        out[i, j] = factor / 2 sum_m w_m S(rows_i, m h / 2) wave(m h q_j / 2),

    m = 0 .. 2 ceil(T / h), w_0 = 1, w_m = 2, with S = ``samples(rows, taus)``
    of shape (len(rows), len(taus)).  It is the step-h sum averaged with its
    midpoint sum; where the two differ by more than max(10 tol, 1e-9 |out|),
    tol = ``CERTIFIED_ABS_TOL``, it raises PrecisionLossError, ``label``
    formatted with the worst point's row r and momentum q (of equal ones, the
    first in the blocks' order).  Returns the largest difference.

    Rows go in blocks, each sampled once.  The waves are built once when a
    node set's matrix fits _WAVE_ELEMENTS, else per block of columns, with
    row blocks as large as the samples' budget allows.  Each block is one
    ``einsum("ik,jk->ij")``, which sums every value over the nodes on its
    own, so the bytes depend on neither the thread count nor the blocks:
    past numpy's buffer (8192 nodes), where it would split the sums of a
    larger block, every block is one value.
    """
    if out.size == 0:
        return 0.0
    k = np.arange(int(math.ceil(T / h)) + 1)
    rules = ((k * h, np.where(k == 0, 1.0, 2.0)), ((k[:-1] + 0.5) * h, 2.0))
    fits = len(q) * len(k) <= _WAVE_ELEMENTS
    if len(k) > np.getbufsize():  # numpy splits a longer sum unless it yields one value
        cols = 1
    elif fits:
        cols = len(q)
    else:  # the widest blocks that leave the samples' row block within budget
        most_rows = min(len(rows), max(1, _BLOCK_ELEMENTS // len(k)))
        cols = max(1, min(_WAVE_ELEMENTS // len(k), _BLOCK_ELEMENTS // most_rows))
    step = max(1, _BLOCK_ELEMENTS // max(len(k), cols))

    def waves(n, block):  # wave(t q) of node set n on a block of columns, in place
        tq = np.outer(q[block], rules[n][0])
        return wave(tq, out=tq)

    whole = [waves(n, slice(None)) for n in (0, 1)] if fits else None
    worst, worst_at, discrepancy = -1.0, (0, 0, 0.0, 0.0), 0.0
    for r in range(0, len(rows), step):
        terms = [samples(rows[r:r + step], taus) * weights for taus, weights in rules]
        for c in range(0, len(q), cols):
            coarse, mid = (factor * np.einsum("ik,jk->ij", terms[n], whole[n][c:c + cols] if whole
                                              else waves(n, slice(c, c + cols))) for n in (0, 1))
            fine = 0.5 * (coarse + mid)
            out[r:r + step, c:c + cols] = fine
            err = np.abs(fine - coarse)
            bound = np.maximum(10.0 * CERTIFIED_ABS_TOL, 1e-9 * np.abs(fine))
            ratio = err / bound
            i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
            if ratio[i, j] > worst:
                worst, worst_at = ratio[i, j], (r + i, c + j, err[i, j], bound[i, j])
            discrepancy = max(discrepancy, float(err.max()))
    i, j, err_ij, bound_ij = worst_at
    if err_ij > bound_ij:
        raise PrecisionLossError(f"{label.format(r=rows[i], q=q[j])}: step-halving "
                                 f"discrepancy {err_ij:.2e} exceeds {bound_ij:.2e}")
    return discrepancy
