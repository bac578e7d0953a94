import cmath
import math

import numpy as np
import pytest

from reference_routes import flat_ho_sampler, psi_bound_2f1, psi_bound_unscaled, psi_momentum_hahn
from curvedwigner import oscillator, specfun
from curvedwigner.errors import DomainError, PrecisionLossError
from curvedwigner.geometry import shapiro_forward_1d
from curvedwigner.oscillator import (
    BoundStateLabel,
    OscillatorParams,
    ScatteringStateLabel,
    at_threshold,
    bound_sampler,
    bound_state_count,
    depth_param,
    energy,
    flat_ho_reference,
    momentum_calibration,
    psi_bound,
    psi_momentum,
    psi_momentum_closed,
    psi_scatter,
    schrodinger_residual,
)
from curvedwigner.quadrature import QuadratureSpec, adaptive_gauss_kronrod

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)

# closed form of the ground-state amplitude at the origin, s = 4:
# 2^-4 sqrt(4 * 8!) / 4!
PSI0_S4_AT_0 = math.sqrt(4.0 * 40320.0) / (16.0 * 24.0)


class TestDepthParam:
    def test_free_limit(self):
        assert depth_param(1.0, 0.0, 1.0) == 0.0

    def test_inverse_of_four(self):
        # mu omega R^2 = sqrt(20) gives sqrt(20 + 1/4) = 4.5, s = 4
        assert depth_param(1.0, math.sqrt(20.0), 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_large_coupling_asymptotics(self):
        # s = g - 1/2 + 1/(8g) + O(1/g^3)
        for g in (50.0, 500.0):
            s = depth_param(1.0, g, 1.0)
            assert abs(s - (g - 0.5)) <= 1.01 / (8.0 * g)

    def test_from_depth_round_trip(self):
        params = OscillatorParams.from_depth(7.3, mu=2.0, R=0.5)
        assert params.s == pytest.approx(7.3, rel=1e-13)

    @pytest.mark.parametrize("s, mu, R", [(4.0, 1.0, 1.0), (4, 1.0, 1.0), (7.3, 2.0, 0.5),
                                          (30.0, 1.0, 1.3), (2000.0, 1.0, 1.0)])
    def test_from_depth_keeps_the_depth_exactly(self, s, mu, R):
        params = OscillatorParams.from_depth(s, mu=mu, R=R)
        assert params.s == s and BoundStateLabel(0, params).sigma == s
        assert params == OscillatorParams.from_depth(s, mu=mu, R=R)
        # equal parameter sets have equal depths: s takes part in ==
        derived = OscillatorParams(params.mu, params.omega, params.R)
        assert (derived == params) == (derived.s == params.s)
        assert derived.s == pytest.approx(s, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            depth_param(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            OscillatorParams.from_depth(-0.5)


class TestSpectrum:
    def test_s4_energies(self, s4_params):
        expected = [2.0, 5.5, 8.0, 9.5, 10.0]
        for n, e in enumerate(expected):
            assert energy(n, s4_params) == pytest.approx(e, abs=1e-12)

    def test_s4_count(self, s4_params):
        assert bound_state_count(s4_params) == 5

    def test_s30_count(self):
        assert bound_state_count(OscillatorParams.from_depth(30.0)) == 31

    def test_free_well_is_empty(self):
        assert bound_state_count(OscillatorParams(1.0, 0.0, 1.0)) == 0

    def test_non_integer_depth_count(self):
        # the levels are the n >= 0 with sigma = s - n >= 0: n = 0..4 at s = 4.2
        assert bound_state_count(OscillatorParams.from_depth(4.2)) == 5

    @pytest.mark.parametrize("s", [0.5, 4.2, 7.3, 30.0])
    def test_level_rule(self, s):
        # floor(s) + 1 levels below E0, strictly increasing; only a whole
        # depth's top level n = s sits at threshold without a wavefunction
        params = OscillatorParams.from_depth(s)
        count = bound_state_count(params)
        assert count == math.floor(s) + 1
        es = [energy(n, params) for n in range(count)]
        assert all(a < b for a, b in zip(es, es[1:]))
        assert all(e <= params.E0 for e in es)
        for n in range(count):
            assert at_threshold(n, params) == (s == int(s) and n == count - 1)
            if at_threshold(n, params):
                with pytest.raises(DomainError, match="zero-norm threshold level"):
                    BoundStateLabel(n, params)
            else:
                state = BoundStateLabel(n, params)
                assert np.isfinite(psi_bound(state, np.linspace(-3.0, 3.0, 7))).all()
        with pytest.raises(DomainError):
            BoundStateLabel(count, params)

    def test_monotone_and_bounded(self, s4_params):
        es = [energy(n, s4_params) for n in range(5)]
        assert all(a < b for a, b in zip(es, es[1:]))
        assert all(e <= s4_params.E0 + 1e-12 for e in es)

    def test_unbound_index_raises(self, s4_params):
        with pytest.raises(DomainError):
            energy(5, s4_params)

    def test_contraction_to_linear_spectrum(self):
        # E_n -> omega (n + 1/2) with an O(1/R^2) defect
        mu, omega = 1.0, 1.0
        for n in (0, 2):
            devs = []
            for R in (10.0, 100.0):
                params = OscillatorParams(mu, omega, R)
                devs.append(abs(energy(n, params) - omega * (n + 0.5)))
            assert 80.0 < devs[0] / devs[1] < 120.0


class TestBoundWavefunctions:
    def test_ground_state_origin_value(self, s4_params):
        state = BoundStateLabel(0, s4_params)
        assert psi_bound(state, 0.0) == pytest.approx(PSI0_S4_AT_0, rel=1e-13)
        assert PSI0_S4_AT_0 == pytest.approx(1.0458, abs=5e-5)

    def test_parity(self, s4_states):
        for state in s4_states:
            sign = (-1.0) ** state.n
            for chi in (0.3, 1.1, 2.4):
                assert psi_bound(state, -chi) == pytest.approx(
                    sign * psi_bound(state, chi), rel=1e-13)

    def test_gegenbauer_vs_2f1_route(self, s4_states):
        for state in s4_states:
            for chi in np.linspace(-2.5, 2.5, 17):
                a = psi_bound(state, float(chi))
                b = psi_bound_2f1(state, float(chi))
                if abs(a) > 1e-12:
                    assert abs(a - b) <= 1e-10 * abs(a)

    def test_envelope_honored(self, s4_states):
        for state in s4_states:
            env = bound_sampler(state).envelope
            for chi in np.linspace(-6.0, 6.0, 61):
                assert abs(psi_bound(state, float(chi))) <= math.exp(
                    env.log_amplitude - env.rate * abs(chi)) * (1.0 + 1e-12)

    def test_declared_parity_honored(self, s4_states):
        grid = np.linspace(0.1, 2.0, 7)
        for state in s4_states:
            sampler = bound_sampler(state)
            sign = (-1.0) ** state.n
            assert np.allclose(sampler(-grid), sign * sampler(grid), rtol=1e-13)

    def test_orthonormality(self, s4_states):
        for i, si in enumerate(s4_states):
            for j, sj in enumerate(s4_states):
                val, _ = adaptive_gauss_kronrod(
                    lambda u, a=si, b=sj: psi_bound(a, u) * psi_bound(b, u),
                    -40.0, 40.0, TIGHT)
                assert val.real == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_schrodinger_residual_h2(self, s4_params):
        for n in range(4):
            state = BoundStateLabel(n, s4_params)
            E = energy(n, s4_params)
            res = []
            for h in (1e-3, 5e-4):
                vals = tuple(psi_bound(state, 0.7 + d) for d in (-h, 0.0, h))
                res.append(abs(schrodinger_residual(vals, 0.7, h, E, s4_params)))
            assert 3.0 < res[0] / res[1] < 5.0

    @pytest.mark.filterwarnings("error")
    def test_deep_high_mode_profile_is_finite(self):
        # s = 2000, n = 200: C_n^alpha passes the double range past chi ~ 0.9,
        # where sech^sigma underflows; carried with its exponent, the profile
        # is finite there, without a numpy warning
        state = BoundStateLabel(200, OscillatorParams.from_depth(2000.0))
        assert np.isfinite(psi_bound(state, np.linspace(0.0, 1.2, 13))).all()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_profile_raises(self):
        state = BoundStateLabel(3, OscillatorParams.from_depth(30.0))
        with pytest.raises(PrecisionLossError, match="is not finite at chi=nan"):
            psi_bound(state, np.array([0.0, np.nan]))

    @pytest.mark.parametrize("s, n", [(4.0, 3), (30.0, 25), (200.0, 150), (2000.0, 175),
                                      (2000.0, 1999)])
    def test_profile_keeps_the_unscaled_bits(self, s, n):
        # wherever the prefactor exp(L) is a normal double, psi_bound is
        # exp(L) C_n^alpha(tanh chi) bit for bit; at s = 2000, n = 175 exp(L)
        # is subnormal on a third of the axis, where that product lost bits
        state = BoundStateLabel(n, OscillatorParams.from_depth(s))
        chi = np.linspace(-1.0, 1.0, 40001)
        pref, unscaled = psi_bound_unscaled(state, chi)
        normal = pref >= np.finfo(float).tiny
        assert normal.sum() >= 20000
        psi = psi_bound(state, chi)
        np.testing.assert_array_equal(psi[normal], unscaled[normal])
        assert np.isfinite(psi).all()

    @pytest.mark.parametrize("n", [175, 500, 1000])
    def test_deep_high_modes_are_normalized(self, n):
        state = BoundStateLabel(n, OscillatorParams.from_depth(2000.0))
        chi, h = np.linspace(-3.0, 3.0, 40001, retstep=True)
        assert abs(h * np.sum(psi_bound(state, chi) ** 2) - 1.0) <= 1e-10

    def test_threshold_state_has_no_wavefunction(self, s4_params):
        # sigma = 0, the zero-norm level: it has an energy but no label, so
        # no wavefunction can be asked of it
        assert energy(4, s4_params) == s4_params.E0 == pytest.approx(10.0, abs=1e-12)
        with pytest.raises(DomainError):
            BoundStateLabel(4, s4_params)

    def test_large_depth_no_overflow(self):
        params = OscillatorParams.from_depth(30.0)
        val = psi_bound(BoundStateLabel(0, params), 0.0)
        assert math.isfinite(val) and val > 1.0  # ~ (mu w / pi)^(1/4)


class TestLabels:
    """A label is a valid state when it is built."""

    def test_bound_label_is_normalizable(self):
        with pytest.raises(DomainError, match="n=4 at s=4.0 is a zero-norm threshold level"):
            BoundStateLabel(4, OscillatorParams.from_depth(4.0))
        with pytest.raises(DomainError, match="zero-norm threshold level"):
            BoundStateLabel(0, OscillatorParams(1.0, 0.0, 1.0))  # the empty omega = 0 well

    def test_empty_well_has_no_energy(self):
        # its only candidate level n = 0 sits at threshold, as eigen says
        params = OscillatorParams(1.0, 0.0, 1.0)
        assert at_threshold(0, params)
        with pytest.raises(DomainError):
            energy(0, params)

    def test_log_norm_is_not_compared(self):
        params = OscillatorParams.from_depth(4.7)
        a, b = BoundStateLabel(2, params), BoundStateLabel(2, params)
        object.__setattr__(b, "log_norm", 0.0)
        assert a == b and hash(a) == hash(b) and "log_norm" not in repr(a)

    def test_scattering_degree_is_the_depth(self):
        for params in (OscillatorParams.from_depth(4.7), OscillatorParams(1.3, 2.0, 0.8)):
            assert ScatteringStateLabel(1.0, params).sigma == params.s


class TestMomentumRepresentation:
    def test_ground_state_zero_momentum(self, s4_params):
        # oracle: sqrt(1/2pi) * psi(0) * integral sech^4 = sqrt(1/2pi) psi(0) 4/3
        state = BoundStateLabel(0, s4_params)
        expected = math.sqrt(1.0 / (2.0 * math.pi)) * PSI0_S4_AT_0 * (4.0 / 3.0)
        assert psi_momentum(state, 0.0).real == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(0.5563, abs=5e-5)

    @pytest.mark.parametrize("s, R", [(4.0, 1.0), (30.6, 1.3), (4.02, 1.0)])
    def test_array_of_momenta_equals_scalar_calls(self, s, R):
        # modes 0..3 and the top level; s = 4.02, n = 4 sums 12 864 nodes,
        # past numpy's buffer, where einsum splits the sums of larger blocks
        params = OscillatorParams.from_depth(s, R=R)
        ps = np.linspace(-3.0, 12.0, 61) / R
        for n in sorted({0, 1, 2, 3, math.ceil(s) - 1}):
            state = BoundStateLabel(n, params)
            values = psi_momentum(state, ps)
            assert values.shape == ps.shape and values.dtype == complex
            scalars = [psi_momentum(state, p) for p in ps.tolist()]
            assert all(type(v) is complex for v in scalars)
            assert values.tobytes() == np.array(scalars).tobytes()
            # any shape: a 2-D block of the momenta gives the same block of values
            assert psi_momentum(state, ps[:60].reshape(5, 12)).tobytes() == values[:60].tobytes()

    def test_reflection_modulus(self, s4_states):
        for state in s4_states:
            for p in (0.4, 1.7, 5.0):
                assert abs(psi_momentum(state, -p)) == pytest.approx(
                    abs(psi_momentum(state, p)), rel=1e-12)

    def test_phase_structure(self, s4_states):
        # real wavefunctions of parity (-1)^n: even n -> real, odd n -> imaginary
        for state in s4_states:
            val = psi_momentum(state, 0.9)
            if state.n % 2 == 0:
                assert abs(val.imag) < 1e-10 * abs(val)
            else:
                assert abs(val.real) < 1e-10 * abs(val)

    def test_decay_beyond_depth_scale(self, s4_states):
        # |psit| falls off like exp(-pi q / 2) for q well beyond s
        for state in s4_states:
            far, ref = abs(psi_momentum(state, 12.0)), abs(psi_momentum(state, 0.5))
            assert far < 1e-3 * ref

    def test_matches_transform(self, s4_states):
        for state in s4_states[:2]:
            sampler = bound_sampler(state)
            for q in (0.0, 1.1, 3.7, 6.5):
                exact = shapiro_forward_1d(sampler, q, 1.0, TIGHT)
                assert abs(psi_momentum(state, q) - exact) < 1e-7

    def test_matches_transform_deep_well_large_radius(self):
        # the folded constant (-1)^n / sqrt(2R) away from s = 4, R = 1
        R = 2.5
        params = OscillatorParams.from_depth(30.0, R=R)
        for n in range(4):
            state = BoundStateLabel(n, params)
            sampler = bound_sampler(state)
            for q in (0.0, 0.7, 3.1, 9.0, 20.0):
                exact = shapiro_forward_1d(sampler, q / R, R, TIGHT)
                assert abs(psi_momentum(state, q / R) - exact) < 1e-11

    @pytest.mark.parametrize("s", [200.0, 400.0])
    def test_matches_transform_beyond_gamma_overflow(self, s):
        # |Gamma((s - n - ipR)/2)|^2 alone overflows a double from s ~ 200
        params = OscillatorParams.from_depth(s)
        for n in (0, 3):
            state = BoundStateLabel(n, params)
            sampler = bound_sampler(state)
            for q in np.linspace(0.0, 3.0 * math.sqrt(s), 4):
                exact = shapiro_forward_1d(sampler, q, 1.0, TIGHT)
                assert abs(psi_momentum(state, q) - exact) < 1e-11
                assert abs(psi_momentum_closed(state, q) - exact) < 1e-11
                hahn = psi_momentum_hahn(state, q)
                assert math.isfinite(abs(hahn))

    @pytest.mark.parametrize("s, modes", [
        (4.0, (0, 1, 2, 3)), (30.0, (0, 10, 20, 25, 29)), (200.0, (0, 50, 100, 150, 190))])
    def test_every_mode_matches_transform(self, s, modes):
        # the density up to each depth's top level, on pR <= 2 sqrt(s (n + 1));
        # at s = 200 the transform itself stops converging near the top level
        # (n = 199), and the printed 3F2 missed by 2.6e-3 at s = 30, n = 20
        params = OscillatorParams.from_depth(s)
        for n in modes:
            state = BoundStateLabel(n, params)
            qs = np.linspace(0.0, 2.0 * math.sqrt(s * (n + 1)), 41)
            exact = shapiro_forward_1d(bound_sampler(state), qs, 1.0, TIGHT)
            miss = np.max(np.abs(np.abs(psi_momentum(state, qs)) ** 2 - np.abs(exact) ** 2))
            assert miss <= 1e-11, (n, miss)

    def test_zero_past_the_cut_and_uncertified_step_raises(self, s4_states, monkeypatch):
        # past the cut of B_1/2 a value is 0, and the transform agrees within
        # the truncation budget; a step too coarse fails the halving check
        state = s4_states[1]
        far = np.array([-40.0, 30.0, 40.0])
        assert not psi_momentum(state, far).any()
        exact = shapiro_forward_1d(bound_sampler(state), far, 1.0, TIGHT)
        assert np.max(np.abs(exact)) <= 0.1 * QuadratureSpec().abs_tol
        monkeypatch.setattr(oscillator, "spectral_step", lambda q_max, state, c, spec: 1.5)
        with pytest.raises(PrecisionLossError, match="not certified at pR="):
            psi_momentum(state, np.linspace(0.0, 8.0, 9))

    def test_calibration_constant_value(self, s4_states):
        # the printed closed form overshoots by sqrt(2R) with sign (-1)^n
        for state in s4_states:
            c = momentum_calibration(state)
            assert abs(c) * math.sqrt(2.0) == pytest.approx(1.0, rel=1e-9)
            assert abs(c.imag) < 1e-9
            assert math.copysign(1.0, c.real) == (-1.0) ** state.n

    def test_hahn_route_proportionality(self, s4_states):
        for state in s4_states:
            ratios = []
            for q in (0.3, 0.9, 2.2, 4.4, 7.1):
                hahn = psi_momentum_hahn(state, q)
                f32 = psi_momentum_closed(state, q)
                ratios.append(hahn / f32)
            spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
            assert spread < 1e-9


class TestScattering:
    def test_residual_h2(self, s4_params):
        state = ScatteringStateLabel(1.0, s4_params)
        E = state.energy
        res = []
        for h in (1e-3, 5e-4):
            vals = tuple(psi_scatter(state, 0.5 + d).real for d in (-h, 0.0, h))
            res.append(abs(schrodinger_residual(vals, 0.5, h, E, s4_params)))
        assert 3.0 < res[0] / res[1] < 5.0

    def test_free_limit_pure_phase(self):
        params = OscillatorParams(1.0, 0.0, 1.0)
        state = ScatteringStateLabel(1.3, params)
        assert state.sigma == 0.0
        vals = [psi_scatter(state, chi) for chi in (0.0, 0.7, 1.5)]
        mods = [abs(v) for v in vals]
        assert mods[1] == pytest.approx(mods[0], rel=1e-12)
        assert mods[2] == pytest.approx(mods[0], rel=1e-12)
        # phase advances like exp(i p chi)
        ratio = vals[1] / vals[0]
        assert ratio == pytest.approx(cmath.exp(1.3j * 0.7), rel=1e-12)

    def test_regular_at_origin_and_continuous_in_p(self, s4_params):
        a = psi_scatter(ScatteringStateLabel(1.0, s4_params), 0.0)
        b = psi_scatter(ScatteringStateLabel(1.0 + 1e-7, s4_params), 0.0)
        assert cmath.isfinite(a)
        assert abs(a - b) < 1e-5

    def test_residual_in_left_tail(self, monkeypatch):
        # chi < -1.0986 puts the 2F1 argument past 0.9.  At the whole depth
        # s = 4 the series terminates; at s = 4.3 it does not, and each of the
        # six evaluations runs through the 1-x connection formula.  The wave
        # equation must hold on both routes.
        calls = []
        near_one = specfun._f21_near_one
        monkeypatch.setattr(specfun, "_f21_near_one",
                            lambda *args: calls.append(args) or near_one(*args))
        for s, expected_calls in ((4.0, 0), (4.3, 6)):
            calls.clear()
            params = OscillatorParams.from_depth(s)
            state = ScatteringStateLabel(1.0, params)
            E = state.energy
            res = []
            for h in (1e-3, 5e-4):
                vals = tuple(psi_scatter(state, -2.0 + d).real for d in (-h, 0.0, h))
                res.append(abs(schrodinger_residual(vals, -2.0, h, E, params)))
            assert len(calls) == expected_calls
            assert 3.0 < res[0] / res[1] < 5.0

    def test_requires_positive_p(self, s4_params):
        with pytest.raises(DomainError):
            ScatteringStateLabel(0.0, s4_params)


class TestFlatReference:
    def test_ground_state_value(self):
        assert flat_ho_reference(0, 1.0, 1.0, 0.0) == pytest.approx(
            math.pi ** -0.25, rel=1e-14)
        assert math.pi ** -0.25 == pytest.approx(0.7511, abs=5e-5)

    def test_normalization(self):
        for n, mw in ((0, 1.0), (2, 3.7)):
            val, _ = adaptive_gauss_kronrod(
                lambda x: np.array([flat_ho_reference(n, 1.0, mw, float(u)) ** 2
                                    for u in np.atleast_1d(x)]),
                -20.0, 20.0, TIGHT)
            assert val.real == pytest.approx(1.0, abs=1e-10)

    def test_odd_parity(self):
        assert flat_ho_reference(1, 1.0, 1.0, 0.4) == pytest.approx(
            -flat_ho_reference(1, 1.0, 1.0, -0.4), rel=1e-14)

    def test_sampler_envelope(self):
        sampler = flat_ho_sampler(2, 1.0, 2.0)
        for x in np.linspace(-5.0, 5.0, 41):
            bound = math.exp(sampler.envelope.log_amplitude - sampler.envelope.rate * abs(x))
            assert abs(flat_ho_reference(2, 1.0, 2.0, float(x))) <= bound * (1 + 1e-12)


class TestWavefunctionContraction:
    def test_ground_state_approaches_flat(self):
        params = OscillatorParams.from_depth(30.0)
        state = BoundStateLabel(0, params)
        u = np.linspace(0.0, 4.0, 81)
        chi = u / math.sqrt(30.0)
        dev = max(abs(float(psi_bound(state, c))
                      - flat_ho_reference(0, params.mu, params.omega, float(c)))
                  for c in chi)
        assert dev < 0.02

    def test_deviation_shrinks_with_depth(self):
        devs = []
        for s in (10.0, 30.0, 100.0):
            params = OscillatorParams.from_depth(s)
            state = BoundStateLabel(1, params)
            u = np.linspace(0.0, 4.0, 61)
            devs.append(max(abs(float(psi_bound(state, uu / math.sqrt(s)))
                                - flat_ho_reference(1, params.mu, params.omega, float(uu / math.sqrt(s))))
                            for uu in u))
        assert devs[0] > devs[1] > devs[2]
