import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import gaussian_sampler
from reference_routes import flat_ho_sampler
from curvedwigner import wigner
from curvedwigner.errors import DomainError, PrecisionLossError
from curvedwigner.oscillator import (
    BoundStateLabel,
    OscillatorParams,
    bound_sampler,
    psi_bound,
    psi_momentum,
)
from curvedwigner.quadrature import QuadratureSpec, adaptive_gauss_kronrod
from curvedwigner.wigner import (
    WignerGrid,
    contraction_report,
    flat_ho_wigner,
    marginal_momentum_integrated,
    marginal_position_integrated,
    reflect_quadrant,
    total_probability,
    wigner_grid,
    wigner_pt_closed,
    wigner_quadrature_1d,
)

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)


class TestQuadratureRoute:
    def test_gaussian_peak_value(self):
        f = gaussian_sampler(width=1.0)
        val = wigner_quadrature_1d(f, f, 0.0, 0.0, 1.0, TIGHT)
        assert val.real == pytest.approx(1.0 / math.pi, rel=1e-11)

    def test_real_for_diagonal(self, s4_states):
        for state in s4_states:
            f = bound_sampler(state)
            for (chi, q) in ((0.2, 0.9), (1.4, 3.3)):
                val = wigner_quadrature_1d(f, f, chi, q, 1.0)
                assert abs(val.imag) < 1e-10

    def test_translation_covariance(self):
        a = 0.35
        f, g = gaussian_sampler(width=1.0), gaussian_sampler(width=0.7)
        fa, ga = (gaussian_sampler(width=1.0, center=a),
                  gaussian_sampler(width=0.7, center=a))
        for (chi, q) in ((0.1, 0.8), (0.9, 2.0)):
            shifted = wigner_quadrature_1d(fa, ga, chi, q, 1.0, TIGHT)
            base = wigner_quadrature_1d(f, g, chi - a, q, 1.0, TIGHT)
            assert shifted == pytest.approx(base, abs=1e-8)

    def test_cross_wigner_is_complex(self):
        f, g = gaussian_sampler(width=1.0), gaussian_sampler(width=0.6, center=0.5)
        val = wigner_quadrature_1d(f, g, 0.2, 1.0, 1.0)
        assert abs(val.imag) > 1e-6

    @staticmethod
    def _full_line(f, g, chi, p, R, spec):
        # the unfolded integrand over [-T, T], T as in wigner_quadrature_1d
        q = p * R
        T = wigner._pair_truncation(f, g, chi, R, spec)
        val, _ = adaptive_gauss_kronrod(
            lambda t: np.conj(f(chi - t / 2.0)) * g(chi + t / 2.0) * np.exp(-1j * q * t),
            -T, T, TIGHT, max(8, int(abs(q) * T / 3.0) + 1))
        return R / (2.0 * math.pi) * val

    @pytest.mark.parametrize("pair", ["gaussian_cross", "s4", "s30"])
    def test_fold_equals_full_line(self, pair):
        spec, R = QuadratureSpec(), 1.3
        if pair == "gaussian_cross":
            pairs = [(gaussian_sampler(width=1.0, center=0.3, phase_k=1.7),
                      gaussian_sampler(width=0.6, center=-0.4, phase_k=-0.5))]
        else:
            params = OscillatorParams.from_depth(4.0 if pair == "s4" else 30.0, R=R)
            fs = [bound_sampler(BoundStateLabel(n, params)) for n in range(4)]
            pairs = [(f, f) for f in fs] + [(fs[0], fs[3]), (fs[2], fs[1])]
        for f, g in pairs:
            for chi in (-0.7, 0.0, 0.45):
                for p in (0.0, 1.1, 4.3):
                    folded = wigner_quadrature_1d(f, g, chi, p, R, spec)
                    full = self._full_line(f, g, chi, p, R, spec)
                    # each route's error bound, in W's units
                    tol = R / (2.0 * math.pi) * sum(
                        max(sp.abs_tol, sp.rel_tol * abs(full) * 2.0 * math.pi / R)
                        for sp in (spec, TIGHT))
                    assert abs(folded - full) <= tol, (chi, p, abs(folded - full), tol)

    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_real_diagonal_imaginary_part_exactly_zero(self, s):
        # the folded halves c(tau) e^{-iq tau} and c(tau) e^{+iq tau} cancel bit for bit
        params = OscillatorParams.from_depth(s, R=1.3)
        chi, qs = figure1_axes(s, 7)
        for n in range(4):
            state = BoundStateLabel(n, params)
            f = bound_sampler(state)
            for c in chi:  # the rows wigner_grid's quadrature route keeps the real part of
                row = wigner._quadrature_row(f, f, float(c), qs / params.R, params.R,
                                             QuadratureSpec())
                assert not row.imag.any()
            for c, q in ((-0.4, 0.9), (0.0, 0.0), (0.8, 3.1)):
                assert wigner_quadrature_1d(f, f, c, q, params.R).imag == 0.0


def _pair_T(f, g, chi, R=1.0, spec=QuadratureSpec()):
    return wigner._pair_truncation(f, g, chi, R, spec)


class TestPairTruncation:
    CHIS = (0.0, 1.0, 3.0, 8.0)

    @pytest.mark.parametrize("s", [4.0, 30.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tail_beyond_T_is_under_budget(self, s, n):
        # the envelope is the profile's exact asymptote, so at s = 4, n = 3
        # the tail sits within ~1e-12 of the budget; Gauss-Kronrod of this
        # smooth exponential is accurate to rounding (~1e-15 relative)
        params = OscillatorParams.from_depth(s)
        f = bound_sampler(BoundStateLabel(n, params))
        spec = QuadratureSpec()
        exact = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-14, max_panels=100_000)
        budget = 0.1 * spec.abs_tol * 2.0 * math.pi / params.R
        for chi in self.CHIS:
            T = _pair_T(f, f, chi, params.R, spec)
            tail = 0.0
            for sign in (1.0, -1.0):
                val, _ = adaptive_gauss_kronrod(
                    lambda t: np.abs(f(chi - sign * t / 2.0) * f(chi + sign * t / 2.0)),
                    T, T + 60.0, exact, 64)
                tail += val.real
            assert tail < budget, (chi, T, tail / budget)

    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_T_non_decreasing_and_capped(self, s):
        params = OscillatorParams.from_depth(s)
        fs = [bound_sampler(BoundStateLabel(n, params)) for n in range(4)]
        chis = np.linspace(0.0, 12.0, 481)
        for f, g in [(f, f) for f in fs] + [(fs[0], fs[3]), (fs[3], fs[1])]:
            T = np.array([_pair_T(f, g, c) for c in chis])
            assert np.all(np.diff(T) >= -1e-12)
            assert [_pair_T(f, g, -c) for c in chis] == list(T)
            if f is g:  # equal rates: T stays at T(0) until 2|chi| + 4 takes over
                assert np.all(T <= np.maximum(T[0], 2.0 * chis + 4.0) + 1e-12)
            else:       # unequal rates: T exceeds 2|chi| by at most max(T(0), 4)
                assert np.all(T <= 2.0 * chis + max(T[0], 4.0) + 1e-12)

    def test_cross_pair_unequal_rates_converged(self, s4_states, monkeypatch):
        # psi_0 decays like e^{-4|chi|}, psi_3 like e^{-|chi|}: each tail is
        # governed by the slower rate, so doubling T must not move W
        f, g = bound_sampler(s4_states[0]), bound_sampler(s4_states[3])
        points = [(chi, p) for chi in (0.0, 1.0, 3.0, 8.0, -2.0) for p in (0.0, 0.7, 2.5)]
        base = [wigner_quadrature_1d(f, g, chi, p, 1.0) for chi, p in points]
        original = wigner._pair_truncation
        monkeypatch.setattr(wigner, "_pair_truncation", lambda *a: 2.0 * original(*a))
        doubled = [wigner_quadrature_1d(f, g, chi, p, 1.0) for chi, p in points]
        assert max(abs(a - b) for a, b in zip(base, doubled)) <= 1e-12


class TestClosedForm:
    def test_matches_quadrature_sample(self, s4_states):
        for state in s4_states:
            f = bound_sampler(state)
            for (chi, q) in ((0.15, 0.0), (0.4, 1.3), (1.1, 0.45), (2.6, 5.5)):
                closed = wigner_pt_closed(state, chi, q)
                quad = wigner_quadrature_1d(f, f, chi, q, 1.0, TIGHT).real
                assert abs(closed - quad) <= max(2e-9, 2e-6 * abs(quad))

    def test_reflection_symmetries(self, s4_states):
        state = s4_states[2]
        assert wigner_pt_closed(state, -0.7, 1.2) == wigner_pt_closed(state, 0.7, 1.2)
        assert wigner_pt_closed(state, 0.7, -1.2) == wigner_pt_closed(state, 0.7, 1.2)

    def test_far_tail_vanishes(self, s4_states):
        assert abs(wigner_pt_closed(s4_states[0], 7.0, 1.0)) < 1e-8

    def test_near_zero_momentum_consistent(self, s4_states):
        # the reconstructed |q| < Q_EXTRAP strip joins the direct region smoothly
        for state in s4_states:
            f = bound_sampler(state)
            for q in (0.0, 1e-3, 0.029, 0.031, 0.08):
                closed = wigner_pt_closed(state, 0.12, q)
                quad = wigner_quadrature_1d(f, f, 0.12, q, 1.0, TIGHT).real
                assert abs(closed - quad) < 5e-7

    def test_small_chi_raises_domain_error(self, s4_states):
        # the 2F1 series in e^(-4 chi) does not converge as chi -> 0
        state = s4_states[0]
        for chi in (0.0, 0.02, -0.02, 0.999 * wigner.CHI_MIN):
            with pytest.raises(DomainError):
                wigner_pt_closed(state, chi, 1.0)
        with pytest.raises(DomainError):
            wigner_grid(state, np.array([0.02, 0.5]), np.array([0.0, 1.0]),
                        evaluator="closed_form")
        assert wigner_pt_closed(state, -wigner.CHI_MIN, 1.0) == \
            wigner_pt_closed(state, wigner.CHI_MIN, 1.0)

    def test_overflow_raises_precision_loss(self):
        # at s = 300 the gamma prefactors overflow near chi = CHI_MIN
        state = BoundStateLabel(0, OscillatorParams.from_depth(300.0))
        with pytest.raises(PrecisionLossError, match="overflows"):
            wigner_pt_closed(state, 0.06, 1.0)

    def test_value_above_wigner_bound_raises_precision_loss(self):
        # |W| <= R/pi for every normalized state; at s = 100 the sum cancels
        # to 3.29e226 at this point, and a deep grid exceeds the bound by far
        state = BoundStateLabel(0, OscillatorParams.from_depth(100.0))
        with pytest.raises(PrecisionLossError, match="bound"):
            wigner_pt_closed(state, 0.06, 1.0)
        deep = BoundStateLabel(1, OscillatorParams.from_depth(30.0, R=1.3))
        with pytest.raises(PrecisionLossError, match="bound"):
            wigner_grid(deep, np.linspace(0.05, 3.0, 60), np.linspace(0.0, 12.0, 61),
                        evaluator="closed_form")

    def test_values_inside_wigner_bound_pass(self):
        # s = 4 peaks just below R/pi at chi = CHI_MIN, pR = 0
        R = 1.3
        state = BoundStateLabel(0, OscillatorParams.from_depth(4.0, R=R))
        grid = wigner_grid(state, np.linspace(wigner.CHI_MIN, 3.0, 60),
                           np.linspace(0.0, 12.0, 61), evaluator="closed_form")
        assert 0.98 * R / math.pi < np.max(np.abs(grid.values)) <= R / math.pi


class TestGrids:
    def test_tags_and_determinism(self, s4_states):
        state = s4_states[0]
        chi = np.linspace(0.1, 2.0, 6)
        qs = np.linspace(0.0, 4.0, 5)
        g1 = wigner_grid(state, chi, qs, evaluator="closed_form")
        g2 = wigner_grid(state, chi, qs, evaluator="closed_form")
        assert g1.evaluator_tag == "closed_form"
        assert g1.state_meta["n"] == 0
        assert np.array_equal(g1.values, g2.values)
        gq = wigner_grid(state, chi, qs, evaluator="quadrature")
        assert gq.evaluator_tag == "quadrature"
        assert np.allclose(g1.values, gq.values, atol=1e-8)

    def test_eq_and_hash_go_by_identity(self):
        def make():
            return WignerGrid(np.arange(2.0), np.arange(3.0), np.zeros((2, 3)), "spectral",
                              {"n": 0, "s": 4.0, "R": 1.0})

        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WignerGrid(np.array([1.0, 0.5]), np.array([0.0, 1.0]),
                       np.zeros((2, 2)), "closed_form", {})
        with pytest.raises(ValueError):
            WignerGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                       np.full((2, 2), np.nan), "closed_form", {})
        with pytest.raises(ValueError):
            WignerGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                       np.zeros((2, 2)), "magic", {})


def figure1_axes(s, points):
    """The figure-1 quadrant, scaled axes chi sqrt(s), pR / sqrt(s) in [0, 4]."""
    u = np.linspace(0.0, 4.0, points)
    return u / math.sqrt(s), u * math.sqrt(s)


def whole_grid_engine(state, chi, qs, spec=QuadratureSpec()):
    """The engine as one einsum over every chi row at once: the step-h/2
    values, the step-halving discrepancy and its bound, and the node count."""
    f = bound_sampler(state)
    R = state.params.R
    T = wigner._pair_truncation(f, f, float(np.max(np.abs(chi))), R, spec)
    h = wigner._spectral_step(float(np.max(np.abs(qs))), state.sigma, spec)
    k = np.arange(int(math.ceil(T / h)) + 1)

    def half_line_sum(taus, weights):
        corr = f(chi[:, None] - taus / 2.0) * f(chi[:, None] + taus / 2.0)
        return np.einsum("ik,kj->ij", corr * weights, np.cos(np.outer(taus, qs)))

    scale = R * h / (2.0 * math.pi)
    coarse = scale * half_line_sum(k * h, np.where(k == 0, 1.0, 2.0))
    fine = 0.5 * (coarse + scale * half_line_sum((k[:-1] + 0.5) * h, 2.0))
    bound = np.maximum(10.0 * spec.abs_tol, 1e-9 * np.abs(fine))
    return fine, np.abs(fine - coarse), bound, len(k)


def rows_per_block(qs, nodes):
    return max(1, wigner._BLOCK_ELEMENTS // max(len(qs), nodes))


class TestSpectralEngine:
    @pytest.mark.parametrize("s, n, chi, qs", [
        (4.0, 3, np.linspace(0.0, 8.0, 601), np.linspace(0.0, 12.0, 401)),
        (30.0, 0, *figure1_axes(30.0, 256)),
        (4.0, 1, np.linspace(-3.0, 3.0, 97), np.linspace(0.0, 8.0, 9000)),
    ], ids=["criterion2_s4_n3", "figure1_s30_n0", "one_row_per_block"])
    def test_row_blocks_equal_whole_grid_einsum(self, s, n, chi, qs):
        state = BoundStateLabel(n, OscillatorParams.from_depth(s))
        fine, err, _, nodes = whole_grid_engine(state, chi, qs)
        assert len(chi) >= 3 * rows_per_block(qs, nodes)
        values, discrepancy = wigner._spectral_values(state, chi, qs, QuadratureSpec())
        assert values.tobytes() == fine.tobytes()
        assert discrepancy == float(err.max())

    @pytest.mark.parametrize("n", range(4))
    def test_uncertified_grid_names_the_whole_grid_worst_point(self, s4_states, monkeypatch, n):
        # the worst point sits near chi = 0, in a middle block of this axis
        monkeypatch.setattr(wigner, "_spectral_step", lambda q_max, sigma, spec: 0.4)
        chi, qs = np.linspace(-8.0, 8.0, 601), np.linspace(0.0, 12.0, 401)
        _, err, bound, nodes = whole_grid_engine(s4_states[n], chi, qs)
        i, j = np.unravel_index(np.argmax(err / bound), err.shape)
        assert err[i, j] > bound[i, j] and i >= 3 * rows_per_block(qs, nodes)
        with pytest.raises(PrecisionLossError) as exc:
            wigner_grid(s4_states[n], chi, qs)
        assert (f"chi={chi[i]:.6g}, pR={qs[j]:.6g}: step-halving discrepancy "
                f"{err[i, j]:.2e} exceeds {bound[i, j]:.2e}") in str(exc.value)

    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_matches_quadrature(self, s):
        params = OscillatorParams.from_depth(s)
        chi, qs = figure1_axes(s, 7)
        for n in range(4):
            state = BoundStateLabel(n, params)
            grid = wigner_grid(state, chi, qs)
            assert grid.evaluator_tag == "spectral"
            assert grid.fallback_points == 0
            f = bound_sampler(state)
            # the chi = 0 row, the pR = 0 column and the diagonal
            points = [(0, j) for j in range(7)] + [(i, 0) for i in range(1, 7)] + \
                [(i, i) for i in range(1, 7)]
            for i, j in points:
                ref = wigner_quadrature_1d(f, f, chi[i], qs[j], 1.0, TIGHT).real
                assert abs(grid.values[i, j] - ref) <= 1e-12

    def test_repeat_calls_bit_identical(self, s4_states):
        chi, qs = figure1_axes(4.0, 33)
        g1 = wigner_grid(s4_states[3], chi, qs)
        g2 = wigner_grid(s4_states[3], chi, qs)
        assert g1.values.tobytes() == g2.values.tobytes()
        assert g1.step_discrepancy == g2.step_discrepancy

    def test_bytes_independent_of_blas_threads(self):
        # BLAS matrix products change their bytes with the thread count at
        # this size; the engine's contraction must not
        script = ("import hashlib, numpy as np\n"
                  "from curvedwigner.oscillator import BoundStateLabel, OscillatorParams\n"
                  "from curvedwigner.wigner import wigner_grid\n"
                  "state = BoundStateLabel(3, OscillatorParams.from_depth(4.0))\n"
                  "grid = wigner_grid(state, np.linspace(0, 8, 601), np.linspace(0, 12, 401))\n"
                  "print(hashlib.sha256(grid.values.tobytes()).hexdigest())\n")
        src = str(Path(wigner.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_records_step_discrepancy(self, s4_states):
        chi, qs = figure1_axes(4.0, 17)
        grid = wigner_grid(s4_states[0], chi, qs, spec=TIGHT)
        # certified: the halving check held everywhere, within max(10 abs_tol, ...)
        assert 0.0 <= grid.step_discrepancy <= 10.0 * TIGHT.abs_tol

    def test_too_coarse_step_raises(self, s4_states, monkeypatch):
        chi, qs = figure1_axes(4.0, 17)
        monkeypatch.setattr(wigner, "_spectral_step", lambda q_max, sigma, spec: 1.5)
        with pytest.raises(PrecisionLossError, match=r"chi=.*pR="):
            wigner_grid(s4_states[1], chi, qs)


class TestGridRoutesMatchPointRoutes:
    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_quadrature_grid_equals_per_point(self, s):
        # one batched Gauss-Kronrod per chi row gives each point's solo result
        params = OscillatorParams.from_depth(s, R=1.3)
        chi, qs = figure1_axes(s, 5)
        for n in (0, 3):
            state = BoundStateLabel(n, params)
            f = bound_sampler(state)
            grid = wigner_grid(state, chi, qs, evaluator="quadrature")
            ref = np.array([[wigner_quadrature_1d(f, f, c, q / params.R, params.R).real
                             for q in qs] for c in chi])
            assert np.array_equal(grid.values, ref)

    def test_closed_grid_equals_per_point(self, s4_states):
        # pR = 0, inside the even-in-q interpolation strip, and beyond it
        chi = np.array([0.1, 0.4, 1.3])
        qs = np.array([0.0, 0.5 * wigner.Q_EXTRAP, wigner.Q_EXTRAP, 0.4, 3.0])
        for state in s4_states:
            grid = wigner_grid(state, chi, qs, evaluator="closed_form")
            ref = np.array([[wigner_pt_closed(state, c, q) for q in qs]
                            for c in chi])
            assert np.array_equal(grid.values, ref)


@pytest.fixture(scope="module")
def marginal_grid(s4_states):
    state = s4_states[0]
    chi = np.linspace(0.0, 5.0, 301)
    qs = np.linspace(0.0, 10.0, 321)
    return state, wigner_grid(state, chi, qs)


class TestMarginals:

    def test_momentum_marginal_gives_position_density(self, marginal_grid):
        state, grid = marginal_grid
        marg = marginal_momentum_integrated(grid, 1.0)
        target = psi_bound(state, grid.chi_axis) ** 2
        assert np.max(np.abs(marg - target)) < 5e-4

    def test_position_marginal_gives_momentum_density(self, marginal_grid):
        state, grid = marginal_grid
        marg = marginal_position_integrated(grid, 1.0)
        target = np.array([abs(psi_momentum(state, q)) ** 2 for q in grid.pR_axis])
        assert np.max(np.abs(marg - target)) < 5e-4
        assert marg.min() > -1e-6  # squared modulus

    def test_marginals_even_by_construction(self, marginal_grid):
        # quadrant grids reflect evenly, so evenness is structural; check the
        # defining symmetry on the evaluator instead
        state, _ = marginal_grid
        assert wigner_pt_closed(state, 0.4, 2.0) == wigner_pt_closed(state, -0.4, 2.0)

    def test_total_probability(self, marginal_grid):
        _, grid = marginal_grid
        assert total_probability(grid, 1.0) == pytest.approx(1.0, abs=5e-4)

    def test_axis_starting_above_zero_raises(self, s4_states):
        # such an axis misses [-a, a]: doubling it would return a wrong marginal
        grid = wigner_grid(s4_states[0], np.linspace(0.0, 2.0, 9), np.linspace(0.5, 6.0, 9))
        with pytest.raises(ValueError, match="pR axis"):
            marginal_momentum_integrated(grid, 1.0)
        grid = wigner_grid(s4_states[0], np.linspace(0.5, 2.0, 9), np.linspace(0.0, 6.0, 9))
        with pytest.raises(ValueError, match="chi axis"):
            marginal_position_integrated(grid, 1.0)

    def test_full_plane_grid_not_double_counted(self, marginal_grid):
        state, grid = marginal_grid
        chi_f, q_f, v_f = reflect_quadrant(grid)
        full = WignerGrid(chi_f, q_f, v_f, grid.evaluator_tag, grid.state_meta)
        assert total_probability(full, 1.0) == pytest.approx(
            total_probability(grid, 1.0), rel=1e-10)
        marg_full = marginal_momentum_integrated(full, 1.0)
        marg_quad = marginal_momentum_integrated(grid, 1.0)
        assert marg_full[len(grid.chi_axis) - 1:] == pytest.approx(marg_quad, rel=1e-12)


class TestFlatReference:
    def test_laguerre_form_against_quadrature(self):
        mu, omega = 1.0, 2.5
        for n in (0, 1, 3):
            f = flat_ho_sampler(n, mu, omega)
            for (x, p) in ((0.0, 0.0), (0.4, 1.1), (1.0, 0.3)):
                direct = wigner_quadrature_1d(f, f, x, p, 1.0, TIGHT).real
                closed = flat_ho_wigner(n, mu, omega, x, p)
                assert closed == pytest.approx(direct, abs=1e-10)

    def test_ground_state_peak(self):
        assert flat_ho_wigner(0, 1.0, 1.0, 0.0, 0.0) == pytest.approx(1.0 / math.pi)


class TestContraction:
    def test_deviation_decreases_with_depth(self):
        report = contraction_report(0, [4.0, 10.0, 30.0], points=9)
        devs = report.deviations
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert report.deviations[-1] < 0.02

    def test_flat_reference_self_deviation_zero(self):
        # the metric applied to the flat reference itself vanishes
        mu, omega = 1.0, 3.0
        pts = np.linspace(0.0, 3.0, 9)
        flat = np.array([[flat_ho_wigner(1, mu, omega, c, q) for q in pts] for c in pts])
        peak = np.max(np.abs(flat))
        mask = np.abs(flat) > 0.05 * peak
        assert np.max(np.abs(flat - flat)[mask]) == 0.0


class TestReflectQuadrant:
    def test_shapes_and_symmetry(self, s4_states):
        grid = wigner_grid(s4_states[0], np.linspace(0.0, 1.0, 4),
                           np.linspace(0.0, 2.0, 3))
        chi_f, q_f, v = reflect_quadrant(grid)
        assert len(chi_f) == 7 and len(q_f) == 5
        assert v.shape == (7, 5)
        assert np.array_equal(v, v[::-1, :])
        assert np.array_equal(v, v[:, ::-1])

    def test_axis_spanning_negative_values_stands(self, s4_states):
        grid = wigner_grid(s4_states[1], np.linspace(-1.0, 2.0, 7),
                           np.linspace(0.0, 2.0, 3))
        chi_f, q_f, v = reflect_quadrant(grid)
        assert np.array_equal(chi_f, grid.chi_axis)
        assert np.array_equal(q_f, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert np.array_equal(v[:, 2:], grid.values)
        assert np.array_equal(v, v[:, ::-1])

    def test_no_duplicate_center_when_axis_off_zero(self, s4_states):
        grid = wigner_grid(s4_states[0], np.linspace(0.1, 1.0, 4),
                           np.linspace(0.5, 2.0, 3), evaluator="closed_form")
        chi_f, q_f, v = reflect_quadrant(grid)
        assert len(chi_f) == 8 and len(q_f) == 6
        assert np.all(np.diff(chi_f) > 0)
