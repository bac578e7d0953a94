"""Acceptance verification: one callable per criterion, a runner, and a
machine-readable report.

Each criterion returns a CriterionResult with a pass flag and enough detail
to audit the numbers.  ``tol_scale`` multiplies every tolerance (values
below 1 tighten the suite; the negative control
``tests/test_acceptance.py::test_negative_control_run_all_tightened`` uses
1e-3 and expects failures).  A second control,
``test_negative_control_perturbed_closed_form``, perturbs the data instead:
criterion 1 must fail on a closed form scaled by 1 + 3e-5, and criterion 2
(``test_criterion_2_fails_on_a_perturbed_engine``) on an engine whose step,
truncation or scale is perturbed.  Criterion 2 integrates each state on its
own axes (``wigner.state_axes``), so its five identities are held to
``quadrature.CERTIFIED_ABS_TOL``, not to a window's truncation.

``run_all`` spreads the criteria over W processes, W the number of CPUs in
the process's affinity mask capped at the number of criteria (1 where the
platform cannot fork, or while a trace or profile function is set).  The
parent forks W - 1 workers and works as one itself; each process takes the
next criterion in suite order whenever it comes free, so the results, their
echo and the report keep suite order whatever W is.  A criterion's
exception is sent back to the parent and re-raised there with its own type,
for the earliest criterion that raised, and no later criterion is started.
Every worker is reaped before ``run_all`` returns or raises.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import (
    AmbientVector,
    BoostParams,
    MomentumLabel,
    ambient_from_angle,
    HyperbolicAngleCoord,
    binding_delta_midpoint,
    boost_point,
    geodesic_pair,
    norm_factor,
    shapiro_covariance_check,
    shapiro_forward_1d,
    shapiro_phi,
)
from .oscillator import (
    BoundStateLabel,
    OscillatorParams,
    ScatteringStateLabel,
    bound_sampler,
    bound_state_count,
    energy,
    flat_ho_reference,
    momentum_calibration,
    psi_bound,
    psi_momentum,
    psi_momentum_closed,
    psi_scatter,
    schrodinger_residual,
)
from .quadrature import CERTIFIED_ABS_TOL, QuadratureSpec, adaptive_gauss_kronrod
from .specfun import gamma_abs_squared, gegenbauer, gegenbauer_2f1_form
from .wigner import (
    WignerGrid,
    contraction_report,
    exact_marginals,
    marginal_momentum_integrated,
    marginal_position_integrated,
    state_axes,
    total_probability,
    wigner_closed_grid,
    wigner_grid,
    wigner_quadrature_grid,
)

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_all", "write_report"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        # a NumPy bool verdict would reach the JSON report as 1.0/0.0
        self.passed = bool(self.passed)

    @property
    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _s4_states():
    params = OscillatorParams.from_depth(4.0)
    return [BoundStateLabel(n, params) for n in range(4)], params


def criterion_oracle_equivalence(tol_scale: float = 1.0) -> CriterionResult:
    """The paper's closed-form Wigner values match direct quadrature on a
    40x40 grid, chi in [0.1, 3], pR in [0, 6], for n = 0..3 at s = 4.  This
    box is the domain where the closed form is validated as an oracle."""
    states, params = _s4_states()
    R = params.R
    chi = np.linspace(0.1, 3.0, 40)
    qs = np.linspace(0.0, 6.0, 40)
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
    abs_tol, rel_tol = 1e-8 * tol_scale, 1e-5 * tol_scale
    worst = 0.0
    t0 = time.perf_counter()
    for state in states:
        f = bound_sampler(state)
        closed = wigner_closed_grid(state, chi, qs)
        # one grid-oracle call per state: its rows go in blocks, each block one
        # vector quadrature; a real diagonal pair has imaginary part 0
        quad = wigner_quadrature_grid(f, f, chi, qs / R, R, spec).real
        excess = np.abs(closed - quad) / np.maximum(abs_tol, rel_tol * np.abs(quad))
        worst = max(worst, float(excess.max()))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1.0 and elapsed < 60.0
    return CriterionResult(
        "oracle_equivalence", passed,
        f"worst |closed-quad| = {worst:.3f} of tolerance",
        {"worst_fraction_of_tol": worst, "elapsed_s": elapsed})


def criterion_marginals(tol_scale: float = 1.0) -> CriterionResult:
    """Five exact identities of W on each s = 4, n = 0..3 state's own axes
    (``wigner.state_axes``: chi to the horizon X, pR to the momentum cut Q,
    on steps whose trapezoid sums of W and W^2 miss their integrals by at
    most CERTIFIED_ABS_TOL / 10): int dp W = |psi|^2 at every row,
    int dchi W = |psi~|^2 at every column, the total int int W = 1, the
    purity int int W^2 dchi dp = R / 2 pi, and W(0, 0) = (-1)^n R / pi.

    The purity follows from the definition: the p integral gives
    (R / 2 pi) int c(chi, tau)^2 dtau, and u, v = chi -/+ tau / 2 turn the
    chi integral into (int psi^2)^2 = 1.  The origin follows from parity:
    W(0, 0) = (R / 2 pi) int psi(-tau/2) psi(tau/2) dtau = (-1)^n R / pi.

    Every identity is held to CERTIFIED_ABS_TOL, the error the engine
    states for one value, fixed before any grid is computed.  The axes'
    steps and ends cost at most a tenth of it (the truncation budget), so
    the rest bounds the engine.  Values each within that tolerance could
    integrate to a miss of the tolerance times the axes' extent; holding
    the integrals to the tolerance itself tests that the engine's errors
    lie far below its stated bound, as its step-halved exponentially
    convergent sums make them (the residuals sit near rounding).
    """
    states, _ = _s4_states()
    tol = CERTIFIED_ABS_TOL * tol_scale
    names = ("position_marginal_dev", "momentum_marginal_dev", "total_probability_dev",
             "purity_dev", "origin_dev")
    worst, grids = dict.fromkeys(names, 0.0), []
    for state in states:
        chi, qs = state_axes(state)
        R = state.params.R
        grid = wigner_grid(state, chi, qs)
        psi2, psit2 = exact_marginals(state, chi, qs)
        # the quadrant trapezoid of W^2, through the total of a grid holding it
        purity = total_probability(WignerGrid(chi, qs, grid.values ** 2, state))
        devs = (float(np.max(np.abs(marginal_momentum_integrated(grid) - psi2))),
                float(np.max(np.abs(marginal_position_integrated(grid) - psit2))),
                abs(total_probability(grid) - 1.0),
                abs(purity - R / (2.0 * math.pi)),
                abs(grid.values[0, 0] - (-1) ** state.n * R / math.pi))
        for name, dev in zip(names, devs):
            worst[name] = max(worst[name], dev)
        grids.append(grid.values.shape)
        del grid  # one grid alive at a time
    worst_fraction = max(worst.values()) / tol
    return CriterionResult(
        "marginals", worst_fraction <= 1.0,
        f"max |int dp W - |psi|^2| = {worst['position_marginal_dev']:.2e}, "
        f"max |int dchi W - |psit|^2| = {worst['momentum_marginal_dev']:.2e}, "
        f"max |total - 1| = {worst['total_probability_dev']:.2e}, "
        f"max |purity - R/2pi| = {worst['purity_dev']:.2e}, "
        f"max |W(0,0) - (-1)^n R/pi| = {worst['origin_dev']:.2e}",
        {**worst, "worst_fraction_of_tol": worst_fraction, "grids": grids})


def criterion_spectrum(tol_scale: float = 1.0) -> CriterionResult:
    """s = 4 (mu = R = 1) has exactly 5 bound levels with energies
    {2, 5.5, 8, 9.5, 10}."""
    params = OscillatorParams.from_depth(4.0)
    tol = 1e-12 * tol_scale
    count = bound_state_count(params)
    expected = [2.0, 5.5, 8.0, 9.5, 10.0]
    devs = [abs(energy(n, params) - e) for n, e in enumerate(expected)]
    passed = count == 5 and max(devs) <= tol and abs(params.s - 4.0) <= tol
    return CriterionResult(
        "spectrum", passed,
        f"count = {count}, max energy deviation = {max(devs):.2e}",
        {"count": count, "max_energy_dev": max(devs)})


def criterion_eigenfunctions(tol_scale: float = 1.0) -> CriterionResult:
    """Gram matrix of the normalizable s = 4 bound states is the identity to
    1e-8, and finite-difference residuals of the wave equation shrink as
    O(h^2) for bound states and the p = 1 scattering state.

    The n = 4 level at s = 4 sits exactly at threshold with an identically
    vanishing profile, so the Gram test covers n = 0..3.
    """
    states, params = _s4_states()
    tol_gram = 1e-8 * tol_scale
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    worst_gram = 0.0
    # psi_a psi_b and the max of the two T are symmetric, so <j|i> is <i|j> bit for bit
    for i, si in enumerate(states):
        for j, sj in enumerate(states[i:], i):
            T = max(bound_sampler(si).envelope.tail_radius(1e-13),
                    bound_sampler(sj).envelope.tail_radius(1e-13))
            val, _ = adaptive_gauss_kronrod(
                lambda u, a=si, b=sj: psi_bound(a, u) * psi_bound(b, u), -T, T, spec)
            worst_gram = max(worst_gram, abs(float(val.real) - (1.0 if i == j else 0.0)))
    # O(h^2): residual ratio between h and h/2 should approach 4
    ratios = []
    for state in states:
        E = energy(state.n, params)
        res = []
        for h in (1e-3, 5e-4):
            vals = (psi_bound(state, 0.4 - h), psi_bound(state, 0.4), psi_bound(state, 0.4 + h))
            res.append(abs(schrodinger_residual(vals, 0.4, h, E, params)))
        ratios.append(res[0] / res[1])
    scat = ScatteringStateLabel(1.0, params)
    E_sc = scat.energy
    res = []
    for h in (1e-3, 5e-4):
        vals = tuple(psi_scatter(scat, 0.4 + d).real for d in (-h, 0.0, h))
        res.append(abs(schrodinger_residual(vals, 0.4, h, E_sc, params)))
    ratios.append(res[0] / res[1])
    order_ok = all(3.0 < r < 5.0 for r in ratios)
    passed = worst_gram <= tol_gram and order_ok
    return CriterionResult(
        "eigenfunctions", passed,
        f"max |Gram - I| = {worst_gram:.2e}, residual h->h/2 ratios "
        f"{['%.2f' % r for r in ratios]} (expect ~4)",
        {"gram_dev": worst_gram, "residual_ratios": ratios})


def criterion_special_functions(tol_scale: float = 1.0) -> CriterionResult:
    """|Gamma(ip)|^2 p sinh(pi p) = pi to 1e-12 on p in [0.1, 10], and the
    Gegenbauer recurrence matches the parity 2F1 forms to 1e-11."""
    tol_g = 1e-12 * tol_scale
    tol_c = 1e-11 * tol_scale
    worst_g = 0.0
    for p in np.linspace(0.1, 10.0, 100):
        lhs = gamma_abs_squared(1j * p) * p * math.sinh(math.pi * p)
        worst_g = max(worst_g, abs(lhs - math.pi) / math.pi)
    worst_c = 0.0
    xi = np.linspace(-1.0, 1.0, 41)
    for n in range(13):
        for alpha in (0.7, 2.5, 17.3):
            # both forms take the whole axis and give its scalar calls' values bit for bit
            a = gegenbauer(n, alpha, xi)
            b = gegenbauer_2f1_form(n, alpha, xi)
            worst_c = max(worst_c, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)))))
    passed = worst_g <= tol_g and worst_c <= tol_c
    return CriterionResult(
        "special_functions", passed,
        f"gamma identity rel dev = {worst_g:.2e}, gegenbauer cross-form dev = {worst_c:.2e}",
        {"gamma_identity_dev": worst_g, "gegenbauer_dev": worst_c})


def criterion_contraction(tol_scale: float = 1.0) -> CriterionResult:
    """Flat-space contraction chain:

    (a) plane-wave basis deviation from exp(i x.p) decays like 1/R,
    (b) sqrt(R) psi_n^30 within 0.02 sup-norm of the flat Hermite-Gaussian
        on the chi sqrt(s) grid,
    (c) s = 30 Wigner grids within 5% (of peak) of the flat
        Laguerre-Gaussian reference where |W| > 0.05 peak.

    (b) and (c) are evaluated faithfully as stated; see the verification
    data for the per-n deviations.
    """
    # (a) basis contraction, D = 2 sample
    xvec = np.array([0.3, -0.2])
    nvec = np.array([0.6, 0.8])
    p = 1.1
    devs_a = []
    for R in (10.0, 100.0, 1000.0, 10000.0):
        x0 = math.sqrt(R * R + float(np.dot(xvec, xvec)))
        val = shapiro_phi(2, MomentumLabel(p, nvec), AmbientVector(x0, xvec), R)
        flat = np.exp(1j * p * float(np.dot(nvec, xvec)))
        devs_a.append(abs(val - flat))
    ratios = [devs_a[i] / devs_a[i + 1] for i in range(3)]
    ok_a = all(d1 > d2 for d1, d2 in zip(devs_a, devs_a[1:])) and all(5.0 < r < 20.0 for r in ratios)

    # (b) wavefunction contraction at s = 30
    tol_b = 0.02 * tol_scale
    params30 = OscillatorParams.from_depth(30.0)
    u = np.linspace(0.0, 4.0, 81)
    chi = u / math.sqrt(30.0)
    devs_b = []
    for n in range(4):
        state = BoundStateLabel(n, params30)
        flat = np.array([flat_ho_reference(n, params30.mu, params30.omega, c) for c in chi])
        devs_b.append(float(np.max(np.abs(math.sqrt(params30.R) * psi_bound(state, chi) - flat))))
    ok_b = max(devs_b) <= tol_b

    # (c) Wigner contraction at s = 30
    tol_c = 0.05 * tol_scale
    devs_c = [contraction_report(n, [30.0])[0] for n in range(4)]
    ok_c = max(devs_c) <= tol_c

    passed = ok_a and ok_b and ok_c
    return CriterionResult(
        "contraction_chain", passed,
        f"(a) basis 1/R decades {['%.1e' % d for d in devs_a]} {'ok' if ok_a else 'BAD'}; "
        f"(b) wavefun sup devs {['%.4f' % d for d in devs_b]} vs {tol_b} "
        f"{'ok' if ok_b else 'EXCEEDED'}; "
        f"(c) Wigner devs {['%.4f' % d for d in devs_c]} vs {tol_c} "
        f"{'ok' if ok_c else 'EXCEEDED'}",
        {"basis_devs": devs_a, "wavefun_devs": devs_b, "wigner_devs": devs_c,
         "basis_ok": ok_a, "wavefun_ok": ok_b, "wigner_ok": ok_c})


def criterion_geometry(tol_scale: float = 1.0) -> CriterionResult:
    """Geodesic-midpoint identities, round-trips and boost shells to
    1e-12 R^2 on 1e4 random inputs with D uniform in {1, 2, 3}; boost
    covariance of the basis pointwise to 1e-10 on 200 inputs with D in
    {1, 2}.  The inputs of each D are drawn as one block and checked as one
    batch, every member through every shell and orthogonality check."""
    rng = np.random.default_rng(20240811)
    R = 1.7
    tol_mid = 1e-12 * R * R * tol_scale
    tol_cov = 1e-10 * tol_scale

    def unit_rows(n, D):
        v = rng.normal(size=(n, D))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def points(n, D):
        return ambient_from_angle(HyperbolicAngleCoord(rng.uniform(0.0, 2.0, n), unit_rows(n, D)), R)

    def worst(*devs):
        return max(float(np.max(np.abs(d))) for d in devs)

    dims = rng.integers(1, 4, size=10_000)
    worst_mid = worst_rt = worst_boost = 0.0
    for D in (1, 2, 3):
        n = int(np.count_nonzero(dims == D))
        x = points(n, D)
        # random spacelike y Minkowski-orthogonal to x
        w = rng.normal(size=(n, D))
        y = AmbientVector(np.sum(w * x.xs, axis=1) / x.x0, w)
        scale = R / np.sqrt(-y.minkowski_dot(y))  # norm^2 negative by construction
        y = AmbientVector(y.x0 * scale, y.xs * scale[:, None])
        tau = rng.uniform(-3.0, 3.0, n)
        xp, xpp = geodesic_pair(x, y, tau)
        worst_mid = max(worst_mid, worst(
            xp.minkowski_dot(xpp) - R * R * np.cosh(tau),
            x.minkowski_dot(xp) - R * R * np.cosh(tau / 2.0),
            x.minkowski_dot(xpp) - R * R * np.cosh(tau / 2.0),
            xp.minkowski_dot(xp) - R * R,
            xpp.minkowski_dot(xpp) - R * R))
        mid = binding_delta_midpoint(xp, xpp, R)
        worst_rt = max(worst_rt, worst(mid.x0 - x.x0, mid.xs - x.xs) * R)
        bx = boost_point(BoostParams(unit_rows(n, D), rng.uniform(-2.5, 2.5, n)), x)
        worst_boost = max(worst_boost, worst(bx.minkowski_dot(bx) - R * R))
    dims = rng.integers(1, 3, size=200)
    worst_cov = 0.0
    for D in (1, 2):
        n = int(np.count_nonzero(dims == D))
        x = points(n, D)
        nvec, mvec = unit_rows(n, D), unit_rows(n, D)
        mom = MomentumLabel(rng.uniform(0.1, 3.0, n), nvec)
        b = BoostParams(mvec, rng.uniform(-2.0, 2.0, n))
        worst_cov = max(worst_cov, worst(shapiro_covariance_check(D, mom, x, b)))
    passed = (worst_mid <= tol_mid and worst_rt <= tol_mid
              and worst_boost <= tol_mid and worst_cov <= tol_cov)
    return CriterionResult(
        "geometry", passed,
        f"midpoint identity dev = {worst_mid:.2e}, round-trip dev = {worst_rt:.2e}, "
        f"boost shell dev = {worst_boost:.2e}, covariance dev = {worst_cov:.2e}",
        {"midpoint_dev": worst_mid, "roundtrip_dev": worst_rt,
         "boost_shell_dev": worst_boost, "covariance_dev": worst_cov})


def criterion_norm_factors(tol_scale: float = 1.0) -> CriterionResult:
    """Plancherel weights: N^(1) = 1 and N^(3) = 1 exactly, and N^(2) equals
    the closed coth form, all to 1e-12.

    Note the D = 2 closed form is coth(pi p R): the pi follows from
    |Gamma(i q)|^2 = pi / (q sinh(pi q)) and |Gamma(1/2 + i q)|^2 =
    pi / cosh(pi q).
    """
    tol = 1e-12 * tol_scale
    R = 1.3
    worst = 0.0
    for p in np.linspace(0.1, 6.0, 60):
        worst = max(worst, abs(norm_factor(1, p, R) - 1.0))
        worst = max(worst, abs(norm_factor(3, p, R) - 1.0))
        worst = max(worst, abs(norm_factor(2, p, R) - 1.0 / math.tanh(math.pi * p * R)))
    passed = worst <= tol
    return CriterionResult(
        "norm_factors", passed, f"worst deviation = {worst:.2e}", {"worst": worst})


def criterion_momentum_calibration(tol_scale: float = 1.0) -> CriterionResult:
    """The certified trapezoid ``psi_momentum`` the CLI writes and the printed
    3F2 oracle ``psi_momentum_closed`` both match the numerical transform to
    1e-6 over pR in [0, 8] (s = 4, n = 0..3); the measured constants are
    reported (modulus 1/sqrt(2R) and sign (-1)^n against the printed form)."""
    states, params = _s4_states()
    R = params.R
    tol = 1e-6 * tol_scale
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    qs = np.linspace(0.0, 8.0, 33)
    worst = worst_closed = 0.0
    constants = {}
    for state in states:
        c = momentum_calibration(state)
        constants[state.n] = {"re": c.real, "im": c.imag, "abs": abs(c),
                              "abs_times_sqrt2R": abs(c) * math.sqrt(2.0 * R)}
        exact = shapiro_forward_1d(bound_sampler(state), qs / R, R, spec)
        worst = max(worst, float(np.max(np.abs(psi_momentum(state, qs / R) - exact))))
        closed = np.array([psi_momentum_closed(state, q / R) for q in qs])
        worst_closed = max(worst_closed, float(np.max(np.abs(closed - exact))))
    passed = worst <= tol and worst_closed <= tol
    return CriterionResult(
        "momentum_calibration", passed,
        f"max |psi~ - transform| = {worst:.2e}, |closed 3F2 - transform| = {worst_closed:.2e}; "
        f"|c| sqrt(2R) = {['%.6f' % constants[n]['abs_times_sqrt2R'] for n in sorted(constants)]}",
        {"worst": worst, "worst_closed": worst_closed, "calibration_constants": constants})


def criterion_reproducibility(tol_scale: float = 1.0) -> CriterionResult:
    """Two figure-1 runs with one configuration produce byte-identical
    artifacts and a manifest whose checksums validate."""
    import tempfile

    from .artifacts import validate_manifest
    from .cli import RunConfig, GridSpec, run_figure1

    with tempfile.TemporaryDirectory() as tmp:
        digests = []
        for sub in ("a", "b"):
            out = Path(tmp) / sub
            out.mkdir()
            cfg = RunConfig(command="figure1", s=4.0, n_list=(0, 1),
                            grid=GridSpec(0.0, 4.0, 24, 0.0, 4.0, 24),
                            out_dir=str(out), formats=("csv", "pgm"))
            manifest = run_figure1(cfg)
            doc = validate_manifest(manifest)
            digests.append({e["path"]: e["sha256"] for e in doc["files"]})
        passed = digests[0] == digests[1] and len(digests[0]) > 0
    return CriterionResult(
        "reproducibility", passed,
        f"{len(digests[0])} artifacts, identical across runs: {digests[0] == digests[1]}",
        {"n_artifacts": len(digests[0])})


ALL_CRITERIA = [
    criterion_oracle_equivalence,
    criterion_marginals,
    criterion_spectrum,
    criterion_eigenfunctions,
    criterion_special_functions,
    criterion_contraction,
    criterion_geometry,
    criterion_norm_factors,
    criterion_momentum_calibration,
    criterion_reproducibility,
]


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where it cannot fork, and
    while a trace or profile function is set (a debugger, a coverage tool,
    a profiler), which would not see the criteria that workers run."""
    if (sys.gettrace() is not None or sys.getprofile() is not None
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _take(criteria, tol_scale, tasks) -> dict:
    """Run criteria by index, each index read from the pipe ``tasks`` when
    the last criterion is done, until the pipe is empty; returns {index:
    CriterionResult, or the Exception the criterion raised}.  The wall time
    of each criterion goes into its ``data["elapsed_s"]``.  After an
    exception the pipe is emptied, so no process starts a later criterion."""
    outcomes = {}
    while byte := os.read(tasks, 1):
        i, t0 = byte[0], time.perf_counter()
        try:
            outcomes[i] = criteria[i](tol_scale)
        except Exception as exc:
            outcomes[i] = exc
            while os.read(tasks, 256):
                pass
        else:
            outcomes[i].data["elapsed_s"] = time.perf_counter() - t0
    return outcomes


def _serve(criteria, tol_scale, tasks, out):
    """Body of a forked worker: run criteria from ``tasks``, send the parent
    {index: (outcome, traceback text of an exception or None)} pickled over
    the pipe ``out``, and leave by ``os._exit``, never into the caller."""
    try:
        outcomes = _take(criteria, tol_scale, tasks)
        payload = pickle.dumps({
            i: (o, "".join(traceback.format_exception(o)) if isinstance(o, Exception) else None)
            for i, o in outcomes.items()})
        with open(out, "wb") as f:
            f.write(payload)
        os._exit(0)
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(1)


def run_all(tol_scale: float = 1.0, echo=print):
    """Run every criterion of ``ALL_CRITERIA`` on W processes (see the module
    docstring), recording each one's wall time, taken in the process that
    ran it, as ``data["elapsed_s"]``; returns (results, all_passed) in suite
    order and echoes each result's line in that order.  W = 1 runs the same
    loop in this process.  If a criterion raises, the lines before the
    earliest such criterion are echoed and its exception is raised."""
    criteria = list(ALL_CRITERIA)
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(criteria))))  # the queue: one byte per index, suite order
    os.close(feed)
    workers = {}  # pid -> read end of the worker's result pipe
    try:
        for _ in range(min(_usable_cpus(), len(criteria)) - 1):
            sys.stdout.flush()
            sys.stderr.flush()
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(criteria, tol_scale, tasks, out_w)
            os.close(out_w)
            workers[pid] = out_r
        outcomes = {i: (o, None) for i, o in _take(criteria, tol_scale, tasks).items()}
        for pid, out_r in list(workers.items()):
            with open(out_r, "rb", closefd=False) as f:
                payload = f.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            os.close(out_r)
            if status != 0 or not payload:
                raise RuntimeError(f"verify worker {pid} ended with exit code "
                                   f"{os.waitstatus_to_exitcode(status)} before sending its results")
            outcomes.update(pickle.loads(payload))
    finally:
        os.close(tasks)
        for pid, out_r in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(out_r)
    results = []
    for i in range(len(criteria)):
        res, worker_traceback = outcomes[i]
        if isinstance(res, Exception):
            if worker_traceback is None:
                raise res
            raise res from RuntimeError(f"in a verify worker:\n{worker_traceback}")
        results.append(res)
        if echo:
            echo(res.line)
    return results, all(r.passed for r in results)


def write_report(results, path, tol_scale: float = 1.0) -> Path:
    doc = {
        "library_version": __version__,
        "tol_scale": tol_scale,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "data": r.data}
            for r in results
        ],
    }
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, default=float) + "\n",
                    encoding="utf-8")
    return path
