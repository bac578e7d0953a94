"""Independent routes that the tests use as references for shipped code.

None of these is reached from the CLI or ``verify``; each one cross-checks
a route that is:

* ``psi_bound_2f1``: ``psi_bound`` through a terminating Gauss series;
* ``gegenbauer_unscaled`` and ``psi_bound_unscaled``: the bits of
  ``gegenbauer`` and ``psi_bound`` through the recurrence that carries no
  exponent, which overflows past the double range;
* ``psi_momentum_hahn`` with ``continuous_hahn``: ``psi_momentum_closed``
  through continuous Hahn polynomials;
* ``flat_ho_sampler``: the flat oscillator as a sampler, so that
  ``flat_ho_wigner`` can be checked against ``wigner_quadrature_1d``;
* ``bargmann_angle``: ``boost_direction`` on the circle;
* ``shapiro_inverse_1d``: the round trip of ``shapiro_forward_1d``;
* ``hyperbolic_angle``: the round trip of ``ambient_from_angle``;
* ``emit_csv_columnwise``, ``emit_grid_csv_columnwise`` and
  ``emit_pgm_whole``: the bytes of ``emit_csv``, ``emit_grid_csv`` and
  ``emit_pgm``, through text columns joined row by row and a grid
  quantised whole.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from curvedwigner.artifacts import format_value
from curvedwigner.geometry import (
    AmbientVector,
    HyperbolicAngleCoord,
    _col,
    _dot,
    _require_shell,
    _transform_truncation,
)
from curvedwigner.oscillator import BoundStateLabel, flat_ho_reference
from curvedwigner.quadrature import QuadratureSpec, adaptive_gauss_kronrod
from curvedwigner.sampling import DecayEnvelope, FieldSampler
from curvedwigner.specfun import (
    gauss_2f1,
    hermite,
    hyper_3f2_terminating,
    log_gamma,
)


def psi_bound_2f1(state: BoundStateLabel, chi: float) -> float:
    """Independent route to the same wavefunction through a terminating
    Gauss hypergeometric series (cross-check of psi_bound)."""
    n, s, sig = state.n, state.s, state.sigma
    lpref = (-sig * math.log(2.0) - math.lgamma(sig + 1.0)
             + 0.5 * (math.log(sig) + math.lgamma(2.0 * s - n + 1.0) - math.lgamma(n + 1)))
    hyp = gauss_2f1(-n, 2.0 * s - n + 1.0, sig + 1.0, (1.0 - math.tanh(chi)) / 2.0)
    return math.exp(lpref - sig * math.log(math.cosh(chi))) * hyp.real


def gegenbauer_unscaled(n: int, alpha: float, xi):
    """C_n^alpha(xi) by the three-term recurrence in the order of
    ``gegenbauer``'s operations, without its rescaling: inf or nan past the
    double range."""
    xi = np.asarray(xi, dtype=float)
    prev, cur = np.ones_like(xi), 2.0 * alpha * xi
    if n == 0:
        return prev
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, n + 1):
            prev, cur = cur, (2.0 * (k + alpha - 1.0) * xi * cur - (k + 2.0 * alpha - 2.0) * prev) / k
    return cur


def psi_bound_unscaled(state: BoundStateLabel, chi):
    """(exp(L), exp(L) C_n^alpha(tanh chi)) on |chi| <= 700, L the log
    prefactor of ``psi_bound``: its product before the Gegenbauer factor
    carried an exponent, not finite where that factor overflows."""
    chi = np.asarray(chi, dtype=float)
    sig = state.sigma
    pref = np.exp(state.log_norm + sig * (math.log(2.0) - np.log(np.cosh(chi))))
    with np.errstate(invalid="ignore"):
        return pref, pref * gegenbauer_unscaled(state.n, sig + 0.5, np.tanh(chi))


def _pochhammer(a, k):
    out = 1.0 + 0j
    for j in range(k):
        out *= a + j
    return out


def continuous_hahn(n: int, z: complex, a: float, b: float, c: float, d: float) -> complex:
    """Continuous Hahn polynomial p_n(z; a, b, c, d) in the Askey-scheme
    normalization

        p_n(z) = i^n (a+c)_n (a+d)_n / n! *
                 3F2(-n, n+a+b+c+d-1, a+iz; a+c, a+d; 1).

    ``z`` is the polynomial argument (enters as a + i z).
    """
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    pref = (1j) ** n * _pochhammer(a + c, n) * _pochhammer(a + d, n) / math.factorial(n)
    return pref * hyper_3f2_terminating(n, n + a + b + c + d - 1.0, a + 1j * z, a + c, a + d)


def psi_momentum_hahn(state: BoundStateLabel, p: float) -> complex:
    """Second closed route through continuous Hahn polynomials,

        (-i)^n R/(2 sqrt(pi)) sqrt((s-n) n! G(2s-n+1)) / (G(s) G(s+1))
        * |G((s-n-ipR)/2)|^2 * p_n(-pR/2; a, a+1, a, a+1),  a = (s-n)/2.

    Proportional to the 3F2 route by one p-independent constant per state.
    Note the second and fourth Hahn parameters carry the +1 (the symmetric
    choice a = b = c = d - 1 does not reproduce the transform).
    """
    n, s, sig, R = state.n, state.s, state.sigma, state.params.R
    q = p * R
    a = 0.5 * sig
    lpref = (math.log(R / 2.0) - 0.5 * math.log(math.pi)
             + 0.5 * (math.log(sig) + math.lgamma(n + 1) + math.lgamma(2.0 * s - n + 1.0))
             - math.lgamma(s) - math.lgamma(s + 1.0)
             + 2.0 * log_gamma(0.5 * (sig - 1j * q)).real)
    poly = continuous_hahn(n, -q / 2.0, a, a + 1.0, a, a + 1.0)
    return (-1j) ** n * math.exp(lpref) * poly


def flat_ho_sampler(n: int, mu: float, omega: float) -> FieldSampler:
    """FieldSampler for flat_ho_reference (Gaussian decay dominated by an
    exponential envelope of rate sqrt(mu omega) (n + 2))."""
    mw = mu * omega
    rate = math.sqrt(mw) * (n + 2.0)
    # Gaussian decay beats any exponential: |phi| e^{rate |x|} attains a
    # finite sup near z = sqrt(mw) x ~ n + 2.
    zgrid = np.linspace(0.0, n + 14.0, 3000)
    sup = max(abs(flat_ho_reference(n, mu, omega, z / math.sqrt(mw))) * math.exp((n + 2.0) * z)
              for z in zgrid)

    def func(u):
        arr = np.asarray(u, dtype=float)
        z = math.sqrt(mw) * arr
        lpref = 0.25 * math.log(mw / math.pi) - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1))
        return math.exp(lpref) * np.exp(-0.5 * z * z) * hermite(n, z)

    return FieldSampler(func=func,
                        envelope=DecayEnvelope(log_amplitude=math.log(1.05 * sup), rate=rate))


def bargmann_angle(zeta: float, phi: float) -> float:
    """Deformation tan(phi/2) -> exp(-zeta) tan(phi/2) of an angle in
    (-pi, pi] under a boost of rapidity zeta."""
    if not -math.pi < phi <= math.pi:
        raise ValueError("phi must lie in (-pi, pi]")
    if phi == math.pi:
        return math.pi
    return 2.0 * math.atan(math.exp(-zeta) * math.tan(phi / 2.0))


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


def hyperbolic_angle(x: AmbientVector, radius: float) -> HyperbolicAngleCoord:
    """Polar coordinates of an upper-sheet point (or batch): the inverse of
    ambient_from_angle."""
    _require_shell(x, radius, "timelike", "x")
    r = np.sqrt(_dot(x.xs, x.xs))
    apex = np.zeros(x.dim)
    apex[0] = 1.0  # any direction will do at the apex; take the first axis
    xi = np.where(_col(r == 0.0), apex, x.xs / _col(np.where(r == 0.0, 1.0, r)))
    return HyperbolicAngleCoord(np.arcsinh(r / radius), xi)


_BLOCK_POINTS = 2 ** 11


def _format_column(values) -> list[str]:
    """format_value of every entry, byte for byte, in one pass."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("CSV data must be finite")
    return [format(v, ".17g") for v in values.tolist()]


def _write_csv_columns(path: Path, column_names, blocks, comments) -> Path:
    """Comment lines, one header row, then each block (equal-length columns
    of formatted numbers) joined row by row."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(column_names) + "\n")
        for text_columns in blocks:
            text = "\n".join(map(",".join, zip(*text_columns)))
            if text:
                fh.write(text)
                fh.write("\n")
    return path


def emit_csv_columnwise(path, column_names, columns, comments=()) -> Path:
    """emit_csv with each column formatted in one pass and the text columns
    zipped into rows."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    blocks = ([_format_column(c[start:start + _BLOCK_POINTS]) for c in cols]
              for start in range(0, len(cols[0]), _BLOCK_POINTS))
    return _write_csv_columns(Path(path), column_names, blocks, comments)


def emit_grid_csv_columnwise(grid, path) -> Path:
    """emit_grid_csv with the chi, pR and W text columns of each block of
    whole chi rows (or pieces of a long one) zipped into rows."""
    nc, nq = grid.values.shape
    chi = _format_column(grid.chi_axis)
    q = _format_column(grid.pR_axis)
    step, width = max(1, _BLOCK_POINTS // nq), min(nq, _BLOCK_POINTS)

    def blocks():
        for start in range(0, nc, step):
            rows = chi[start:start + step]
            for col in range(0, nq, width):
                cols = q[col:col + width]
                yield ([c for c in rows for _ in cols], cols * len(rows), _format_column(
                    grid.values[start:start + step, col:col + width].reshape(-1)))

    state = grid.state
    meta = ["evaluator=spectral",
            f"n={state.n} s={format_value(state.s)} R={format_value(state.params.R)}"]
    return _write_csv_columns(Path(path), ["chi", "pR", "W"], blocks(), meta)


def _mirror(axis: np.ndarray):
    """The axis mirrored about 0 when it starts at or above 0 (its 0 entry
    kept once), with the index of each new entry into the old axis."""
    idx = np.arange(len(axis))
    if axis[0] < -1e-12:
        return axis, idx
    drop = 1 if abs(axis[0]) <= 1e-12 else 0
    return (np.concatenate([-axis[::-1], axis[drop:]]),
            np.concatenate([idx[::-1], idx[drop:]]))


def emit_pgm_whole(grid, path) -> Path:
    """emit_pgm with the whole grid quantised in one float temporary and the
    mirrored image copied to bytes."""
    path = Path(path)
    v = grid.values
    vmin, vmax = float(v.min()), float(v.max())
    if vmax > vmin:
        t = v - vmin
        t *= 255.0
        t /= vmax - vmin
        levels = np.rint(t, out=t).astype(np.uint8)
        zero_gray = int(np.rint(255.0 * (0.0 - vmin) / (vmax - vmin)))
    else:
        levels = np.full_like(v, 128, dtype=np.uint8)
        zero_gray = 128
    _, rows = _mirror(grid.chi_axis)
    _, cols = _mirror(grid.pR_axis)
    img = levels.T[np.ix_(cols[::-1], rows)]
    header = (f"P5\n# min={format_value(vmin)} max={format_value(vmax)} zero_gray={zero_gray}\n"
              f"{img.shape[1]} {img.shape[0]}\n255\n")
    with path.open("wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(img.tobytes())
    return path
