import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import gaussian_sampler
from reference_routes import flat_ho_sampler
from curvedwigner import artifacts, quadrature, wigner
from curvedwigner.artifacts import emit_grid_csv, emit_pgm, format_value, read_pgm
from curvedwigner.errors import DomainError, PrecisionLossError
from curvedwigner.oscillator import (
    BoundStateLabel,
    OscillatorParams,
    bound_sampler,
    momentum_decay,
    psi_bound,
    psi_momentum,
    spectral_step,
)
from curvedwigner.quadrature import QuadratureSpec, adaptive_gauss_kronrod
from curvedwigner.sampling import FieldSampler
from curvedwigner.wigner import (
    WignerGrid,
    contraction_report,
    flat_ho_wigner,
    marginal_momentum_integrated,
    marginal_position_integrated,
    total_probability,
    wigner_closed_grid,
    wigner_grid,
    wigner_quadrature_1d,
    wigner_quadrature_grid,
)

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)


def closed_point(state, chi, q):
    """The closed form at one (chi, pR) point, as a 1x1 grid."""
    return float(wigner_closed_grid(state, [chi], [q])[0, 0])


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
            for c in chi:  # rows like those criterion 1 keeps the real part of
                row = wigner_quadrature_1d(f, f, c, qs / params.R, params.R)
                assert not row.imag.any()
            for c, q in ((-0.4, 0.9), (0.0, 0.0), (0.8, 3.1)):
                assert wigner_quadrature_1d(f, f, c, q, params.R).imag == 0.0

    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_real_diagonal_branch_equals_general_branch(self, s):
        # g is f takes the real 2 c(tau) cos(q tau) branch; an equal but
        # distinct sampler takes the complex branch of cross pairs
        params = OscillatorParams.from_depth(s, R=1.3)
        R = params.R
        chi, qs = figure1_axes(s, 7)
        for n in (0, 3):
            f = bound_sampler(BoundStateLabel(n, params))
            g = FieldSampler(func=f.func, envelope=f.envelope)
            assert g is not f
            for c in chi:
                fast = wigner_quadrature_1d(f, f, c, qs / R, R)
                general = wigner_quadrature_1d(f, g, c, qs / R, R)
                assert np.allclose(fast.real, general.real, rtol=1e-14, atol=1e-16)
                assert np.all(np.abs(general.imag) <= 1e-16)


def oracle_pairs(s, R=1.3):
    """Diagonal pairs of the s-deep n = 0 and n = 3 states, their cross pair
    and a complex Gaussian pair."""
    params = OscillatorParams.from_depth(s, R=R)
    f0, f3 = (bound_sampler(BoundStateLabel(n, params)) for n in (0, 3))
    return [(f0, f0), (f3, f3), (f0, f3),
            (gaussian_sampler(width=1.0, center=0.3, phase_k=1.7),
             gaussian_sampler(width=0.6, center=-0.4, phase_k=-0.5))]


class TestQuadratureGrid:
    R = 1.3

    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_scalar_oracle_is_row_zero(self, s):
        ps = np.linspace(0.0, 5.0, 11)
        for f, g in oracle_pairs(s, self.R):
            for chi in (-0.7, 0.0, 0.45):
                for spec in (None, TIGHT):
                    row = wigner_quadrature_grid(f, g, [chi], ps, self.R, spec)
                    assert row.shape == (1, len(ps))
                    assert wigner_quadrature_1d(f, g, chi, ps, self.R, spec).tobytes() == row[0].tobytes()
                    for p in (0.0, 1.1, 4.3):
                        solo = wigner_quadrature_1d(f, g, chi, p, self.R, spec)
                        assert np.ndim(solo) == 0
                        one = wigner_quadrature_grid(f, g, [chi], p, self.R, spec)
                        assert one.shape == (1, 1) and one[0, 0].tobytes() == solo.tobytes()

    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_reversed_rows_in_one_block(self, s):
        chi, ps = np.linspace(-1.0, 2.0, 8), np.linspace(0.0, 5.0, 40)
        assert len(chi) * len(ps) <= wigner._ORACLE_COMPONENTS  # one block
        for f, g in oracle_pairs(s, self.R):
            forward = wigner_quadrature_grid(f, g, chi, ps, self.R)
            backward = wigner_quadrature_grid(f, g, chi[::-1], ps, self.R)
            assert backward[::-1].tobytes() == forward.tobytes()

    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_real_diagonal_rows_have_zero_imaginary_part(self, s):
        params = OscillatorParams.from_depth(s, R=self.R)
        chi, qs = figure1_axes(s, 9)
        chi = np.concatenate([-chi[::-1], chi[1:]])
        for n in range(4):
            f = bound_sampler(BoundStateLabel(n, params))
            assert not wigner_quadrature_grid(f, f, chi, qs / self.R, self.R).imag.any()

    @pytest.mark.parametrize("pair", ["s4_diagonal", "gaussian_cross"])
    def test_blocks_agree_with_tight_points(self, pair):
        # 41 rows x 40 momenta span several blocks; the axis crosses 0
        f, g = oracle_pairs(4.0, self.R)[1 if pair == "s4_diagonal" else 3]
        chi, ps = np.linspace(-3.0, 3.0, 41), np.linspace(0.0, 6.0, 40) / self.R
        assert len(chi) * len(ps) > 2 * wigner._ORACLE_COMPONENTS
        spec = QuadratureSpec()
        grid = wigner_quadrature_grid(f, g, chi, ps, self.R, spec)
        ref = np.array([[wigner_quadrature_1d(f, g, c, p, self.R, TIGHT) for p in ps] for c in chi])
        tol = sum(np.maximum(self.R / (2.0 * math.pi) * sp.abs_tol, sp.rel_tol * np.abs(ref))
                  for sp in (spec, TIGHT))
        assert np.all(np.abs(grid - ref) <= tol), float(np.max(np.abs(grid - ref) / tol))

    def test_memory_does_not_grow_with_the_rows(self):
        # blocks of at most _ORACLE_COMPONENTS components: ten times the rows
        # add little more than their values, where a single block of all
        # 400 rows peaks near 130 MB
        f = oracle_pairs(4.0, self.R)[1][0]
        ps = np.linspace(0.0, 6.0, 40) / self.R
        peaks = {}
        for rows in (40, 400):
            tracemalloc.start()
            try:
                wigner_quadrature_grid(f, f, np.linspace(-3.0, 3.0, rows), ps, self.R)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] - peaks[40] < 2 ** 20, peaks


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
                closed = closed_point(state, chi, q)
                quad = wigner_quadrature_1d(f, f, chi, q, 1.0, TIGHT).real
                assert abs(closed - quad) <= max(2e-9, 2e-6 * abs(quad))

    def test_reflection_symmetries(self, s4_states):
        state = s4_states[2]
        assert closed_point(state, -0.7, 1.2) == closed_point(state, 0.7, 1.2)
        assert closed_point(state, 0.7, -1.2) == closed_point(state, 0.7, 1.2)

    def test_far_tail_vanishes(self, s4_states):
        assert abs(closed_point(s4_states[0], 7.0, 1.0)) < 1e-8

    def test_near_zero_momentum_consistent(self, s4_states):
        # the reconstructed |q| < Q_EXTRAP strip joins the direct region smoothly
        for state in s4_states:
            f = bound_sampler(state)
            for q in (0.0, 1e-3, 0.029, 0.031, 0.08):
                closed = closed_point(state, 0.12, q)
                quad = wigner_quadrature_1d(f, f, 0.12, q, 1.0, TIGHT).real
                assert abs(closed - quad) < 5e-7

    def test_small_chi_raises_domain_error(self, s4_states):
        # the 2F1 series in e^(-4 chi) does not converge as chi -> 0
        state = s4_states[0]
        for chi in (0.0, 0.02, -0.02, 0.999 * wigner.CHI_MIN):
            with pytest.raises(DomainError):
                closed_point(state, chi, 1.0)
        with pytest.raises(DomainError):
            wigner_closed_grid(state, np.array([0.02, 0.5]), np.array([0.0, 1.0]))
        assert closed_point(state, -wigner.CHI_MIN, 1.0) == \
            closed_point(state, wigner.CHI_MIN, 1.0)

    def test_overflow_raises_precision_loss(self):
        # at s = 300 the gamma prefactors overflow near chi = CHI_MIN
        state = BoundStateLabel(0, OscillatorParams.from_depth(300.0))
        with pytest.raises(PrecisionLossError, match="overflows"):
            closed_point(state, 0.06, 1.0)

    def test_value_above_wigner_bound_raises_precision_loss(self):
        # |W| <= R/pi for every normalized state; at s = 100 the sum cancels
        # to 3.29e226 at this point, and a deep grid exceeds the bound by far
        state = BoundStateLabel(0, OscillatorParams.from_depth(100.0))
        with pytest.raises(PrecisionLossError, match="bound"):
            closed_point(state, 0.06, 1.0)
        deep = BoundStateLabel(1, OscillatorParams.from_depth(30.0, R=1.3))
        with pytest.raises(PrecisionLossError, match="bound"):
            wigner_closed_grid(deep, np.linspace(0.05, 3.0, 60), np.linspace(0.0, 12.0, 61))

    def test_values_inside_wigner_bound_pass(self):
        # s = 4 peaks just below R/pi at chi = CHI_MIN, pR = 0
        R = 1.3
        state = BoundStateLabel(0, OscillatorParams.from_depth(4.0, R=R))
        values = wigner_closed_grid(state, np.linspace(wigner.CHI_MIN, 3.0, 60),
                                    np.linspace(0.0, 12.0, 61))
        assert 0.98 * R / math.pi < np.max(np.abs(values)) <= R / math.pi


class TestGrids:
    def test_tags_and_determinism(self, s4_states, tmp_path):
        # a grid carries its state; its CSV takes the route tag and labels from it
        state = s4_states[0]
        chi = np.linspace(0.1, 2.0, 6)
        qs = np.linspace(0.0, 4.0, 5)
        g1 = wigner_grid(state, chi, qs)
        g2 = wigner_grid(state, chi, qs)
        assert g1.state is state
        assert np.array_equal(g1.values, g2.values)
        assert np.allclose(g1.values, wigner_closed_grid(state, chi, qs), atol=1e-8)
        lines = emit_grid_csv(g1, tmp_path / "g.csv").read_text().splitlines()
        assert lines[:2] == ["# evaluator=spectral", f"# n=0 s={format_value(state.s)} R=1"]

    def test_eq_and_hash_go_by_identity(self, s4_states):
        def make():
            return WignerGrid(np.arange(2.0), np.arange(3.0), np.zeros((2, 3)), s4_states[0])

        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_validation(self, s4_states):
        state = s4_states[0]
        with pytest.raises(ValueError):
            WignerGrid(np.array([1.0, 0.5]), np.array([0.0, 1.0]), np.zeros((2, 2)), state)
        with pytest.raises(ValueError):
            WignerGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                       np.full((2, 2), np.nan), state)
        with pytest.raises(ValueError):
            WignerGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((2, 3)), state)


def figure1_axes(s, points):
    """The figure-1 quadrant, scaled axes chi sqrt(s), pR / sqrt(s) in [0, 4]."""
    u = np.linspace(0.0, 4.0, points)
    return u / math.sqrt(s), u * math.sqrt(s)


def whole_grid_engine(state, chi, qs, spec=QuadratureSpec()):
    """The engine as one einsum over the whole grid at once: the step-h/2
    values, the step-halving discrepancy and its bound, and the node count."""
    f = bound_sampler(state)
    R = state.params.R
    T = wigner._pair_truncation(f, f, float(np.max(np.abs(chi))), R, spec)
    h = wigner.spectral_step(float(np.max(np.abs(qs))), state, 1.0, spec)
    k = np.arange(int(math.ceil(T / h)) + 1)

    def half_line_sum(taus, weights):
        corr = f(chi[:, None] - taus / 2.0) * f(chi[:, None] + taus / 2.0)
        return np.einsum("ik,jk->ij", corr * weights, np.cos(np.outer(qs, taus)))

    scale = R * h / (2.0 * math.pi)
    coarse = scale * half_line_sum(k * h, np.where(k == 0, 1.0, 2.0))
    fine = 0.5 * (coarse + scale * half_line_sum((k[:-1] + 0.5) * h, 2.0))
    bound = np.maximum(10.0 * spec.abs_tol, 1e-9 * np.abs(fine))
    return fine, np.abs(fine - coarse), bound, len(k)


def rows_per_block(qs, nodes):
    """Rows of one engine block when every wave column fits at once."""
    assert len(qs) * nodes <= quadrature._WAVE_ELEMENTS
    return max(1, quadrature._BLOCK_ELEMENTS // max(len(qs), nodes))


class TestSpectralEngine:
    @pytest.mark.parametrize("s, n, chi, qs", [
        (4.0, 3, np.linspace(0.0, 8.0, 601), np.linspace(0.0, 12.0, 401)),
        (30.0, 0, *figure1_axes(30.0, 256)),
        (4.0, 1, np.linspace(-3.0, 3.0, 97), np.linspace(0.0, 8.0, 9000)),
        (4.0, 0, np.linspace(0.0, 3.0, 4), np.linspace(0.0, 8.0, 60000)),
    ], ids=["criterion2_s4_n3", "figure1_s30_n0", "one_row_per_block", "column_blocks"])
    def test_row_blocks_equal_whole_grid_einsum(self, s, n, chi, qs):
        # the bytes do not depend on the blocks of either axis
        state = BoundStateLabel(n, OscillatorParams.from_depth(s))
        fine, err, _, nodes = whole_grid_engine(state, chi, qs)
        if len(qs) * nodes <= quadrature._WAVE_ELEMENTS:
            assert len(chi) >= 3 * rows_per_block(qs, nodes)
        else:  # a wave block holds at most _WAVE_ELEMENTS // nodes columns
            assert len(qs) >= 3 * (quadrature._WAVE_ELEMENTS // nodes)
        grid = wigner._spectral_grid(state, chi, qs, QuadratureSpec())
        assert grid.values.tobytes() == fine.tobytes()
        assert grid.step_discrepancy == float(err.max())

    @pytest.mark.parametrize("n", range(4))
    def test_uncertified_grid_names_the_whole_grid_worst_point(self, s4_states, monkeypatch, n):
        # the worst point sits near chi = 0, in a middle block of this axis
        monkeypatch.setattr(wigner, "spectral_step", lambda q_max, state, c, spec: 0.4)
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
            assert grid.state is state
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
        grid = wigner_grid(s4_states[0], chi, qs)
        assert grid.step_discrepancy == wigner._spectral_grid(
            s4_states[0], chi, qs, QuadratureSpec()).step_discrepancy
        # certified: the halving check held everywhere, within max(10 abs_tol, ...)
        discrepancy = wigner._spectral_grid(s4_states[0], chi, qs, TIGHT).step_discrepancy
        assert 0.0 <= discrepancy <= 10.0 * TIGHT.abs_tol

    def test_too_coarse_step_raises(self, s4_states, monkeypatch):
        chi, qs = figure1_axes(4.0, 17)
        monkeypatch.setattr(wigner, "spectral_step", lambda q_max, state, c, spec: 1.5)
        with pytest.raises(PrecisionLossError, match=r"chi=.*pR="):
            wigner_grid(s4_states[1], chi, qs)


def asymptotic_guard_nodes(state, chi, qs, spec=QuadratureSpec()):
    """Node count under the step guard the proven bound replaced,
    (2/pi) log(1/abs_tol) + 8 + (2/pi) sigma log(1 + sigma), with T at the
    largest |chi|: the new count must never exceed it."""
    f = bound_sampler(state)
    T = wigner._pair_truncation(f, f, float(np.max(np.abs(chi))), state.params.R, spec)
    sig = state.sigma
    guard = (2.0 / math.pi) * math.log(1.0 / spec.abs_tol) + 8.0 + (2.0 / math.pi) * sig * math.log1p(sig)
    return int(math.ceil(T * (float(np.max(np.abs(qs))) + guard) / (2.0 * math.pi))) + 1


class TestProvenStep:
    @pytest.mark.parametrize("s", [4.0, 4.2, 8.0, 30.0, 30.6, 120.0, 480.0, 2000.0])
    def test_depth_ladder_certifies_with_room(self, s):
        # the figure-1 axes of each depth: the step-halving discrepancy stays
        # within a tenth of its bound, on no more nodes than the old guard took
        params = OscillatorParams.from_depth(s)
        chi, qs = figure1_axes(s, 33)
        for n in range(4):
            state = BoundStateLabel(n, params)
            _, err, bound, nodes = whole_grid_engine(state, chi, qs)
            assert float(np.max(err / bound)) <= 0.1, (s, n)
            assert nodes <= asymptotic_guard_nodes(state, chi, qs), (s, n)

    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_bound_covers_the_oracle(self, s):
        # B(q) >= max_chi |W(chi, q)| from q = 0 (where n = 0 attains it:
        # W(0, 0) = R / pi) to past the guard g, the root for q_max = 0
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12)
        params = OscillatorParams.from_depth(s, R=1.3)
        R = params.R
        chi = np.linspace(0.0, 6.0 / math.sqrt(s), 25)
        for n in range(4):
            state = BoundStateLabel(n, params)
            g = 2.0 * math.pi / spectral_step(0.0, state, 1.0, QuadratureSpec())
            qs = np.concatenate([np.linspace(0.0, g, 9), g * np.array([1.1, 1.25])])
            f = bound_sampler(state)
            peak = np.max(np.abs(wigner_quadrature_grid(f, f, chi, qs / R, R, spec)), axis=0)
            slack = R / (2.0 * math.pi) * np.maximum(spec.abs_tol, spec.rel_tol * peak)
            bound = np.exp(momentum_decay(state, 1.0)(qs))
            assert np.all(peak <= bound + slack), (n, qs[peak > bound + slack])
            if n == 0:
                assert bound[0] == pytest.approx(R / math.pi, rel=1e-13)


class TestHorizon:
    def test_rows_past_the_horizon_are_zero_and_certified(self, s4_states):
        chi, qs = np.linspace(0.0, 8.0, 33), np.linspace(0.0, 12.0, 9)
        spec = QuadratureSpec()
        for state in s4_states[:2]:  # sigma = 4 and 3: horizons near chi = 4 and 6
            grid = wigner_grid(state, chi, qs)
            past = len(chi) - grid.rows_past_horizon
            assert 0 < past < len(chi)
            assert not grid.values[past:].any() and grid.values[past - 1].all()
            f = bound_sampler(state)
            oracle = wigner_quadrature_grid(f, f, chi[past:], qs, 1.0, TIGHT).real
            assert np.max(np.abs(oracle)) <= 0.1 * spec.abs_tol
        assert wigner_grid(s4_states[3], chi, qs).rows_past_horizon == 0

    def test_axis_far_past_the_horizon(self, s4_states):
        grid = wigner_grid(s4_states[0], np.linspace(0.0, 1e9, 5), np.linspace(0.0, 2.0, 5))
        assert grid.rows_past_horizon == 4
        assert grid.values[0].all() and not grid.values[1:].any()

    def test_columns_past_the_momentum_cut_are_zero_and_certified(self, s4_states):
        # the cut sits near pR = 14.2 (n = 0) and 15.0 (n = 1), on both sides of 0
        chi, qs = np.linspace(0.0, 3.0, 7), np.linspace(-40.0, 40.0, 41)
        spec = QuadratureSpec()
        for state in s4_states[:2]:
            grid = wigner_grid(state, chi, qs)
            zero = ~grid.values.any(axis=0)
            cut = momentum_decay(state, 1.0)(np.abs(qs)) <= math.log(0.1 * spec.abs_tol)
            assert np.array_equal(zero, cut) and np.array_equal(zero, np.abs(qs) > 14.0)
            assert grid.columns_past_horizon == zero.sum()
            f = bound_sampler(state)
            oracle = wigner_quadrature_grid(f, f, chi, qs[zero], 1.0, TIGHT).real
            assert np.max(np.abs(oracle)) <= 0.1 * spec.abs_tol
        assert wigner_grid(s4_states[0], chi, qs[14:27]).columns_past_horizon == 0  # |pR| <= 12

    def test_uncertified_point_names_its_pR_on_the_whole_axis(self, s4_states, monkeypatch):
        # the columns below the cut are not evaluated; the message still
        # names the worst point's pR, not its place among the evaluated ones
        monkeypatch.setattr(wigner, "spectral_step", lambda q_max, state, c, spec: 1.5)
        chi, qs = figure1_axes(4.0, 17)[0], np.linspace(-40.0, 12.0, 27)
        evaluated = qs[qs > -15.0]
        _, err, bound, _ = whole_grid_engine(s4_states[1], chi, evaluated)
        i, j = np.unravel_index(np.argmax(err / bound), err.shape)
        assert err[i, j] > bound[i, j]
        with pytest.raises(PrecisionLossError) as exc:
            wigner_grid(s4_states[1], chi, qs)
        assert f"chi={chi[i]:.6g}, pR={evaluated[j]:.6g}: " in str(exc.value)


class TestGridRoutesMatchPointRoutes:
    @pytest.mark.parametrize("s", [4.0, 30.0])
    def test_quadrature_row_matches_per_point(self, s):
        # an array of momenta shares one Gauss-Kronrod partition: a length-1
        # array is the scalar call, reversed momenta give reversed values, and
        # each value lies within both calls' tolerances of its solo value
        params = OscillatorParams.from_depth(s, R=1.3)
        R, spec = params.R, QuadratureSpec()
        chi, qs = figure1_axes(s, 5)
        for n in (0, 3):
            f = bound_sampler(BoundStateLabel(n, params))
            for c in chi:
                row = wigner_quadrature_1d(f, f, c, qs / R, R)
                assert row.shape == qs.shape
                reverse = wigner_quadrature_1d(f, f, c, qs[::-1] / R, R)
                assert reverse[::-1].tobytes() == row.tobytes()
                for q, val in zip(qs, row):
                    solo = wigner_quadrature_1d(f, f, c, q / R, R)
                    assert np.ndim(solo) == 0
                    assert wigner_quadrature_1d(f, f, c, np.array([q / R]), R)[0] == solo
                    tol = sum(max(R / (2.0 * math.pi) * spec.abs_tol, spec.rel_tol * abs(v))
                              for v in (val, solo))
                    assert abs(val - solo) <= tol, (c, q, abs(val - solo), tol)

    def test_closed_grid_equals_per_point(self, s4_states):
        # pR = 0, inside the even-in-q interpolation strip, and beyond it.
        # Bit-equality holds at these small sizes only: NumPy's complex array
        # arithmetic rounds differently with array length (the same series on
        # a 16 x 1760 stacked block differed by up to 4.5e-13), so the axes
        # stay short.
        chi = np.array([0.1, 0.4, 1.3])
        qs = np.array([0.0, 0.5 * wigner.Q_EXTRAP, wigner.Q_EXTRAP, 0.4, 3.0])
        for state in s4_states:
            grid = wigner_closed_grid(state, chi, qs)
            ref = np.array([[closed_point(state, c, q) for q in qs]
                            for c in chi])
            assert np.array_equal(grid, ref)


@pytest.fixture(scope="module")
def marginal_grid(s4_states):
    state = s4_states[0]
    chi = np.linspace(0.0, 5.0, 301)
    qs = np.linspace(0.0, 10.0, 321)
    return state, wigner_grid(state, chi, qs)


class TestMarginals:

    def test_momentum_marginal_gives_position_density(self, marginal_grid):
        state, grid = marginal_grid
        marg = marginal_momentum_integrated(grid)
        target = psi_bound(state, grid.chi_axis) ** 2
        assert np.max(np.abs(marg - target)) < 5e-4

    def test_position_marginal_gives_momentum_density(self, marginal_grid):
        state, grid = marginal_grid
        marg = marginal_position_integrated(grid)
        target = np.abs(psi_momentum(state, grid.pR_axis)) ** 2
        assert np.max(np.abs(marg - target)) < 5e-4
        assert marg.min() > -1e-6  # squared modulus

    def test_marginals_even_by_construction(self, marginal_grid):
        # quadrant grids reflect evenly, so evenness is structural; check the
        # defining symmetry on the closed form instead
        state, _ = marginal_grid
        assert closed_point(state, 0.4, 2.0) == closed_point(state, -0.4, 2.0)

    def test_total_probability(self, marginal_grid):
        _, grid = marginal_grid
        assert total_probability(grid) == pytest.approx(1.0, abs=5e-4)

    def test_marginals_read_R_from_the_grid(self):
        R = 1.3
        state = BoundStateLabel(0, OscillatorParams.from_depth(4.0, R=R))
        chi, qs = np.linspace(0.0, 5.0, 301), np.linspace(0.0, 10.0 * R, 321)
        grid = wigner_grid(state, chi, qs)
        position = psi_bound(state, chi) ** 2
        momentum = np.abs(psi_momentum(state, qs / R)) ** 2
        assert np.max(np.abs(marginal_momentum_integrated(grid) - position)) < 5e-4
        assert np.max(np.abs(marginal_position_integrated(grid) - momentum)) < 5e-4
        assert total_probability(grid) == pytest.approx(1.0, abs=5e-4)

    def test_axis_starting_above_zero_raises(self, s4_states):
        # such an axis misses [-a, a]: doubling it would return a wrong marginal
        grid = wigner_grid(s4_states[0], np.linspace(0.0, 2.0, 9), np.linspace(0.5, 6.0, 9))
        with pytest.raises(ValueError, match="pR axis"):
            marginal_momentum_integrated(grid)
        grid = wigner_grid(s4_states[0], np.linspace(0.5, 2.0, 9), np.linspace(0.0, 6.0, 9))
        with pytest.raises(ValueError, match="chi axis"):
            marginal_position_integrated(grid)

    def test_full_plane_grid_not_double_counted(self, marginal_grid):
        state, grid = marginal_grid
        rows = artifacts._mirror_index(grid.chi_axis)
        cols = artifacts._mirror_index(grid.pR_axis)
        # both axes start at 0, which the mirrored axis keeps once
        chi_f = np.concatenate([-grid.chi_axis[::-1], grid.chi_axis[1:]])
        q_f = np.concatenate([-grid.pR_axis[::-1], grid.pR_axis[1:]])
        full = WignerGrid(chi_f, q_f, grid.values[np.ix_(rows, cols)], grid.state)
        assert total_probability(full) == pytest.approx(
            total_probability(grid), rel=1e-10)
        marg_full = marginal_momentum_integrated(full)
        marg_quad = marginal_momentum_integrated(grid)
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
        devs = contraction_report(0, [4.0, 10.0, 30.0])
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.02

    def test_flat_reference_self_deviation_zero(self):
        # the metric applied to the flat reference itself vanishes
        mu, omega = 1.0, 3.0
        pts = np.linspace(0.0, 3.0, 9)
        flat = np.array([[flat_ho_wigner(1, mu, omega, c, q) for q in pts] for c in pts])
        peak = np.max(np.abs(flat))
        mask = np.abs(flat) > 0.05 * peak
        assert np.max(np.abs(flat - flat)[mask]) == 0.0


def mirrored(axis, values, axis_index):
    """An axis starting at or above 0 and the values along it, mirrored
    about 0 by concatenation (the 0 entry kept once)."""
    drop = 1 if axis[0] == 0.0 else 0
    return (np.concatenate([-axis[::-1], axis[drop:]]),
            np.concatenate([np.flip(values, axis_index),
                            np.take(values, range(drop, values.shape[axis_index]),
                                    axis_index)], axis_index))


class TestReflectQuadrant:
    """emit_pgm renders a quadrant reflected across both axes: its bytes
    are those of the plane mirrored value by value, which renders as it
    stands because both its axes span negative values."""

    @staticmethod
    def pixels_of_mirrored_plane(tmp_path, grid, mirror_chi=True):
        chi, values = grid.chi_axis, grid.values
        if mirror_chi:
            chi, values = mirrored(chi, values, 0)
        q, values = mirrored(grid.pR_axis, values, 1)
        plane = WignerGrid(chi, q, values, grid.state)
        quadrant = emit_pgm(grid, tmp_path / "quadrant.pgm").read_bytes()
        assert quadrant == emit_pgm(plane, tmp_path / "plane.pgm").read_bytes()
        return read_pgm(tmp_path / "quadrant.pgm")

    def test_shapes_and_symmetry(self, s4_states, tmp_path):
        grid = wigner_grid(s4_states[0], np.linspace(0.0, 1.0, 4),
                           np.linspace(0.0, 2.0, 3))
        w, h, _, px = self.pixels_of_mirrored_plane(tmp_path, grid)
        assert (w, h) == (7, 5)
        assert np.array_equal(px, px[::-1, :])
        assert np.array_equal(px, px[:, ::-1])

    def test_axis_spanning_negative_values_stands(self, s4_states, tmp_path):
        grid = wigner_grid(s4_states[1], np.linspace(-1.0, 2.0, 7),
                           np.linspace(0.0, 2.0, 3))
        w, h, _, px = self.pixels_of_mirrored_plane(tmp_path, grid, mirror_chi=False)
        assert (w, h) == (7, 5)
        assert np.array_equal(px, px[::-1, :])

    def test_no_duplicate_center_when_axis_off_zero(self, s4_states, tmp_path):
        grid = wigner_grid(s4_states[0], np.linspace(0.1, 1.0, 4),
                           np.linspace(0.5, 2.0, 3))
        w, h, _, px = self.pixels_of_mirrored_plane(tmp_path, grid)
        assert (w, h) == (8, 6)
        assert np.array_equal(px, px[::-1, ::-1])
