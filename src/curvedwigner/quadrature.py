"""Adaptive Gauss-Kronrod panel quadrature for smooth, possibly oscillatory
complex integrands on a finite interval.

``gauss_kronrod_vector`` integrates a vector of m integrands on one shared
adaptive partition (the vector-integrand scheme of Berntsen, Espelid & Genz,
ACM TOMS 17 (1991) 452): the integrand maps a 1-D array of nodes to an
array of shape (len(x), m), so work common to the components, such as a
wavefunction sampled at the nodes, is done once per node, and a panel is
bisected while any component still needs it.  ``adaptive_gauss_kronrod`` is
the case m = 1.  Panels are refined in batches, so each refinement level
costs a single vectorized call.  Results are deterministic: panel
bookkeeping is ordered and independent of timing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonconvergenceError

__all__ = ["QuadratureSpec", "adaptive_gauss_kronrod", "gauss_kronrod_vector"]

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
        k15 = (fv * _WK[None, :, None]).sum(axis=1) * hw[:, None]
        g7 = (fv[:, 1::2] * _WG[None, :, None]).sum(axis=1) * hw[:, None]
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
