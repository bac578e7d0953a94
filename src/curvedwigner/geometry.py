"""Hyperboloid geometry: ambient Minkowski vectors, the plane-wave (Shapiro)
basis, geodesic-midpoint machinery, isometry actions, and the 1-D transform
between position and momentum profiles.

The configuration space is the upper sheet x0^2 - |xs|^2 = R^2, x0 > 0 of a
two-sheeted hyperboloid in (D+1)-dimensional Minkowski space, 1 <= D <= 3.

Batch convention: points, directions and their scalar parameters carry at
most one leading batch axis.  A single point has a float ``x0`` and ``xs``
of shape ``(D,)``; a batch of N points has ``x0`` of shape ``(N,)`` and
``xs`` of shape ``(N, D)``, and likewise ``chi``, ``p`` and ``zeta`` of
shape ``(N,)`` beside unit vectors of shape ``(N, D)``.  Operands broadcast
against each other (one boost acts on a batch of points), and D is shared by
the whole batch.  A single point is the batch of one: it runs the same
array code, member by member bit-identical to its place in a batch, and its
results come back as Python ``float``/``complex`` scalars.  Every shell,
orthogonality, unit-vector and finiteness check runs on every member; the
first failing member raises, and the message names its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OffShellError
from .quadrature import QuadratureSpec, adaptive_gauss_kronrod, gauss_kronrod_batch
from .sampling import FieldSampler

__all__ = [
    "AmbientVector",
    "HyperbolicAngleCoord",
    "MomentumLabel",
    "BoostParams",
    "ambient_from_angle",
    "hyperbolic_angle",
    "shapiro_phi",
    "norm_factor",
    "geodesic_pair",
    "binding_delta_midpoint",
    "boost_point",
    "boost_direction",
    "shapiro_covariance_check",
    "bargmann_angle",
    "shapiro_forward_1d",
    "shapiro_inverse_1d",
    "fold_momentum_1d",
    "fold_angle_1d",
]

SHELL_RTOL = 1e-12
ORTHO_RTOL = 1e-10

_SUPPORTED_D = (1, 2, 3)


def _dot(a: np.ndarray, b: np.ndarray):
    """Euclidean dot product over the last axis, member by member; summed
    left to right so a batch member gets the bits of its solo product."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("dimension mismatch between vectors")
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k] * b[..., k]
    return out


def _col(v) -> np.ndarray:
    """A per-member scalar as a column that scales the rows of an (N, D)
    array (or the single row of a (D,) one)."""
    return np.asarray(v)[..., None]


def _scalar(v, kind=float):
    """A single point's 0-d result as a Python scalar; batches pass through."""
    return kind(v) if np.ndim(v) == 0 else v


def _floats(v):
    v = np.asarray(v, dtype=float)
    if v.ndim > 1:
        raise ValueError("at most one leading batch axis is supported")
    return _scalar(v)


def _first_failure(bad):
    """Index of the first member failing a row-wise check: None when every
    member passes, () when the check was on a single point."""
    bad = np.asarray(bad)
    return np.unravel_index(int(np.argmax(bad)), bad.shape) if bad.any() else None


def _member(idx: tuple) -> str:
    return f" (batch member {idx[0]})" if idx else ""


def _check(bad, error: type[Exception], message: str) -> None:
    idx = _first_failure(bad)
    if idx is not None:
        raise error(message + _member(idx))


def _unit(vec, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] not in _SUPPORTED_D:
        raise ValueError(f"{what} must be a 1-, 2- or 3-component vector (or an (N, D) batch)")
    _check(np.abs(_dot(v, v) - 1.0) > 1e-14 * 2.0 + 1e-14, ValueError,
           f"{what} must be a unit vector (|v|^2 off by more than 1e-14)")
    return v


# The value classes below hold arrays, so == and hash() go by identity (eq=False).
@dataclass(frozen=True, eq=False)
class AmbientVector:
    """A (D+1)-component Minkowski vector (x0, xs), or a batch of them with
    x0 of shape (N,) and xs of shape (N, D)."""

    x0: float | np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        xs = np.asarray(self.xs, dtype=float)
        if (x0.ndim > 1 or xs.ndim != x0.ndim + 1 or xs.shape[:-1] != x0.shape
                or xs.shape[-1] not in _SUPPORTED_D):
            raise ValueError("xs must have 1, 2 or 3 components "
                             "(shape (D,), or (N, D) beside an x0 of shape (N,))")
        _check(~(np.isfinite(x0) & np.isfinite(xs).all(axis=-1)), ValueError,
               "ambient vector components must be finite")
        object.__setattr__(self, "x0", _scalar(x0))
        object.__setattr__(self, "xs", xs)

    @property
    def dim(self) -> int:
        return self.xs.shape[-1]

    def minkowski_dot(self, other: "AmbientVector"):
        return _scalar(self.x0 * other.x0 - _dot(self.xs, other.xs))

    def shell_kind(self, radius: float):
        """Classify against the shells of the given radius: "timelike" for
        x.x = +R^2 with x0 > 0, "spacelike" for x.x = -R^2, else "free"."""
        norm2 = self.minkowski_dot(self)
        tol = SHELL_RTOL * radius * radius
        kind = np.where((np.abs(norm2 - radius * radius) <= tol) & (self.x0 > 0), "timelike",
                        np.where(np.abs(norm2 + radius * radius) <= tol, "spacelike", "free"))
        return _scalar(kind, str)

    def project_timelike(self, radius: float) -> "AmbientVector":
        """Rescale onto the upper timelike shell (re-normalization helper for
        slightly off-shell intermediates)."""
        norm2 = self.minkowski_dot(self)
        _check((norm2 <= 0) | (self.x0 <= 0), OffShellError,
               "cannot project a non-timelike vector onto the upper sheet")
        scale = radius / np.sqrt(norm2)
        return AmbientVector(self.x0 * scale, self.xs * _col(scale))


def _require_shell(x: AmbientVector, radius, kind: str, what: str,
                   rtol: float = SHELL_RTOL) -> None:
    norm2 = x.minkowski_dot(x)
    r2 = np.multiply(radius, radius)
    target = r2 if kind == "timelike" else -r2
    bad = np.abs(norm2 - target) > rtol * r2
    if kind == "timelike":
        bad = bad | (x.x0 <= 0)
    idx = _first_failure(bad)
    if idx is not None:
        def at(v):
            return float(np.broadcast_to(v, np.shape(bad))[idx])

        raise OffShellError(f"{what}{_member(idx)} is not {kind}-on-shell for R={at(radius)} "
                            f"(Minkowski norm^2 = {at(norm2)!r})")


@dataclass(frozen=True, eq=False)
class HyperbolicAngleCoord:
    """Polar coordinates on the upper sheet: x0 = R cosh(chi),
    xs = R xi sinh(chi)."""

    chi: float | np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "chi", _floats(self.chi))
        object.__setattr__(self, "xi", _unit(self.xi, "xi"))


@dataclass(frozen=True, eq=False)
class MomentumLabel:
    """Wavenumber magnitude p >= 0 and a unit direction on S^{D-1}."""

    p: float | np.ndarray
    n: np.ndarray

    def __post_init__(self):
        p = _floats(self.p)
        _check(np.less(p, 0), ValueError, "momentum magnitude must be non-negative")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", _unit(self.n, "n"))

    @property
    def dim(self) -> int:
        return self.n.shape[-1]


@dataclass(frozen=True, eq=False)
class BoostParams:
    """Hyperbolic translation: direction m on S^{D-1} and rapidity zeta."""

    m: np.ndarray
    zeta: float | np.ndarray = 0.0

    def __post_init__(self):
        object.__setattr__(self, "m", _unit(self.m, "m"))
        object.__setattr__(self, "zeta", _floats(self.zeta))


def ambient_from_angle(coord: HyperbolicAngleCoord, radius: float) -> AmbientVector:
    return AmbientVector(radius * np.cosh(coord.chi),
                         _col(radius * np.sinh(coord.chi)) * coord.xi)


def hyperbolic_angle(x: AmbientVector, radius: float) -> HyperbolicAngleCoord:
    _require_shell(x, radius, "timelike", "x")
    r = np.sqrt(_dot(x.xs, x.xs))
    apex = np.zeros(x.dim)
    apex[0] = 1.0  # any direction will do at the apex; take the first axis
    xi = np.where(_col(r == 0.0), apex, x.xs / _col(np.where(r == 0.0, 1.0, r)))
    return HyperbolicAngleCoord(np.arcsinh(r / radius), xi)


def _basis_exponent(D: int, p, radius):
    """-(D-1)/2 - i p R, the exponent of the plane-wave basis."""
    return -(D - 1) / 2.0 - 1j * np.multiply(p, radius)


def shapiro_phi(D: int, mom: MomentumLabel, x: AmbientVector, radius):
    """Plane-wave basis function ((x0 - n.xs)/R)^(-(D-1)/2 - i p R) on the
    upper sheet; complex for a single point, one value per member for a
    batch."""
    if D not in _SUPPORTED_D:
        raise ValueError("D must be 1, 2 or 3")
    if mom.dim != D or x.dim != D:
        raise ValueError("dimension mismatch between D, momentum and point")
    _require_shell(x, radius, "timelike", "x")
    base = (x.x0 - _dot(mom.n, x.xs)) / radius
    _check(base <= 0, OffShellError, "x0 - n.xs must be positive on the upper sheet")
    return _scalar(np.exp(_basis_exponent(D, mom.p, radius) * np.log(base)), complex)


def norm_factor(D: int, p: float, radius: float) -> float:
    """Plancherel weight |Gamma(i p R) / Gamma((D-1)/2 + i p R)|^2 (pR)^(D-1)
    of the plane-wave basis.

    For odd D the gamma recurrence cancels the ratio exactly:
    N = 1 for D = 1 and, via |Gamma(1+iq)|^2 = q^2 |Gamma(iq)|^2, for D = 3.
    For D = 2 the weight is computed from the gammas and equals coth(pi p R).
    """
    from .specfun import gamma_abs_squared

    if D not in _SUPPORTED_D:
        raise ValueError("D must be 1, 2 or 3")
    if p < 0:
        raise DomainError("momentum magnitude must be non-negative")
    if D in (1, 3):
        return 1.0
    if p == 0:
        raise DomainError("norm_factor diverges at p = 0 for D = 2")
    q = p * radius
    return gamma_abs_squared(1j * q) / gamma_abs_squared(0.5 + 1j * q) * q


def geodesic_pair(x: AmbientVector, y: AmbientVector, tau):
    """Split the geodesic through x with (spacelike, Minkowski-orthogonal)
    direction y into endpoints at geodesic distance R*tau:

        x' = x cosh(tau/2) - y sinh(tau/2),
        x'' = x cosh(tau/2) + y sinh(tau/2).

    x is the geodesic midpoint of the returned pair.
    """
    norm2 = x.minkowski_dot(x)
    _check(norm2 <= 0, OffShellError, "x must be timelike")
    radius = np.sqrt(norm2)
    _require_shell(x, radius, "timelike", "x")
    _require_shell(y, radius, "spacelike", "y")
    _check(np.abs(x.minkowski_dot(y)) > ORTHO_RTOL * radius * radius, OffShellError,
           "x and y must be Minkowski-orthogonal")
    ch, sh = np.cosh(np.divide(tau, 2.0)), np.sinh(np.divide(tau, 2.0))
    xp = AmbientVector(x.x0 * ch - y.x0 * sh, x.xs * _col(ch) - y.xs * _col(sh))
    xpp = AmbientVector(x.x0 * ch + y.x0 * sh, x.xs * _col(ch) + y.xs * _col(sh))
    return xp, xpp


def binding_delta_midpoint(xp: AmbientVector, xpp: AmbientVector, radius: float) -> AmbientVector:
    """Geodesic midpoint x = (x' + x'') / (2 cosh(tau/2)) of two points on
    the same upper sheet, where R^2 cosh(tau) = x'.x''.  Round-trips with
    geodesic_pair."""
    _require_shell(xp, radius, "timelike", "x'")
    _require_shell(xpp, radius, "timelike", "x''")
    cosh_tau = xp.minkowski_dot(xpp) / (radius * radius)
    _check(cosh_tau < 1.0 - 1e-12, OffShellError,
           "mixed Minkowski product below R^2; points not on one sheet")
    cosh_half = np.sqrt((np.maximum(cosh_tau, 1.0) + 1.0) / 2.0)
    mid = AmbientVector((xp.x0 + xpp.x0) / (2.0 * cosh_half),
                        (xp.xs + xpp.xs) / _col(2.0 * cosh_half))
    _require_shell(mid, radius, "timelike", "midpoint", rtol=1e-9)
    return mid


def boost_point(b: BoostParams, x: AmbientVector) -> AmbientVector:
    """Apply the hyperbolic translation along m with rapidity zeta:

        x0   -> x0 cosh(zeta) - (m.xs) sinh(zeta)
        x_|| -> x_|| cosh(zeta) - x0 m sinh(zeta)
        x_T  -> x_T
    """
    ch, sh = np.cosh(b.zeta), np.sinh(b.zeta)
    par = _dot(b.m, x.xs)
    perp = x.xs - _col(par) * b.m
    x0 = x.x0 * ch - par * sh
    xs = perp + _col(par * ch - x.x0 * sh) * b.m
    return AmbientVector(x0, xs)


def boost_direction(b: BoostParams, n):
    """Transform a momentum direction under a boost; returns (n', mu) with
    multiplier mu = cosh(zeta) + m.n sinh(zeta) > 0 (a float for a single
    direction, one per member for a batch)."""
    n = _unit(n, "n")
    ch, sh = np.cosh(b.zeta), np.sinh(b.zeta)
    dot = _dot(b.m, n)
    mu = ch + dot * sh
    perp = n - _col(dot) * b.m
    n_new = perp / _col(mu) + _col((dot * ch + sh) / mu) * b.m
    return n_new, _scalar(mu)


def shapiro_covariance_check(D: int, mom: MomentumLabel, x: AmbientVector,
                             b: BoostParams):
    """Pointwise deviation of the basis covariance identity

        Phi_{p n}(B x) = mu^{-(D-1)/2 - i p R} Phi_{p n'}(x),

    with the radius read off the on-shell point x; a float for a single
    point, one deviation per member for a batch.
    """
    norm2 = x.minkowski_dot(x)
    _check((norm2 <= 0) | (x.x0 <= 0), OffShellError, "x must lie on an upper timelike shell")
    radius = np.sqrt(norm2)
    lhs = shapiro_phi(D, mom, boost_point(b, x), radius)
    n_new, mu = boost_direction(b, mom.n)
    # np.multiply, not *: on two complex scalars * takes NumPy's scalar path,
    # which rounds differently from the array loop a batch member goes through
    rhs = np.multiply(np.exp(_basis_exponent(D, mom.p, radius) * np.log(mu)),
                      shapiro_phi(D, MomentumLabel(mom.p, n_new), x, radius))
    return _scalar(np.abs(lhs - rhs))


def bargmann_angle(zeta: float, phi: float) -> float:
    """Deformation tan(phi/2) -> exp(-zeta) tan(phi/2) of an angle in
    (-pi, pi] under a boost of rapidity zeta."""
    if not -math.pi < phi <= math.pi:
        raise ValueError("phi must lie in (-pi, pi]")
    if phi == math.pi:
        return math.pi
    return 2.0 * math.atan(math.exp(-zeta) * math.tan(phi / 2.0))


def fold_momentum_1d(mom: MomentumLabel):
    """Fold (p >= 0, n = +-1) into a signed 1-D wavenumber."""
    if mom.dim != 1:
        raise ValueError("fold_momentum_1d requires D = 1")
    return _scalar(mom.n[..., 0] * mom.p)


def fold_angle_1d(x: AmbientVector, radius: float):
    """Fold a point of the 1-D hyperbola into a signed hyperbolic angle."""
    if x.dim != 1:
        raise ValueError("fold_angle_1d requires D = 1")
    _require_shell(x, radius, "timelike", "x")
    return _scalar(np.arcsinh(x.xs[..., 0] / radius))


def _transform_truncation(f: FieldSampler, prefactor: float, spec: QuadratureSpec) -> float:
    tail = 0.1 * spec.abs_tol / max(prefactor, 1e-300)
    return max(4.0, f.envelope.tail_radius(tail))


def shapiro_forward_1d(f: FieldSampler, p, radius: float,
                       spec: QuadratureSpec | None = None):
    """Momentum profile of a decaying 1-D field:

        ft(p) = sqrt(R / 2 pi) * integral dchi exp(-i p R chi) f(chi).

    The signed wavenumber p may be negative.  Together with
    shapiro_inverse_1d this forms a unitary pair on (dchi, dp).

    A scalar p gives a complex scalar; an array of momenta gives one value per p
    from a single batched Gauss-Kronrod call, in which the momenta share the
    truncation T and each keeps its own initial panel count, so every value
    equals its solo result bit for bit.
    """
    spec = spec or QuadratureSpec()
    pref = math.sqrt(radius / (2.0 * math.pi))
    T = _transform_truncation(f, pref, spec)
    p = _floats(p)
    q = np.atleast_1d(p) * radius

    def integrand(chi, i):
        return f(chi) * np.exp(-1j * q[i] * chi)

    n0 = np.maximum(8, (np.abs(q) * T / 3.0).astype(int) + 1)
    vals, _ = gauss_kronrod_batch(integrand, np.full(len(q), -T), np.full(len(q), T), spec, n0)
    vals = pref * vals
    return vals[0] if np.ndim(p) == 0 else vals


def shapiro_inverse_1d(ftilde: FieldSampler, chi: float, radius: float,
                       spec: QuadratureSpec | None = None) -> complex:
    """Inverse of shapiro_forward_1d:

        f(chi) = sqrt(R / 2 pi) * integral dp exp(+i p R chi) ft(p).
    """
    spec = spec or QuadratureSpec()
    pref = math.sqrt(radius / (2.0 * math.pi))
    T = _transform_truncation(ftilde, pref, spec)

    def integrand(p):
        return ftilde(p) * np.exp(1j * p * radius * chi)

    n0 = max(8, int(abs(radius * chi) * T / 3.0) + 1)
    val, _ = adaptive_gauss_kronrod(integrand, -T, T, spec, initial_panels=n0)
    return pref * val
