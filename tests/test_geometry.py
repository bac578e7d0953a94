import cmath
import math

import numpy as np
import pytest

from conftest import gaussian_sampler
from curvedwigner.errors import DomainError, OffShellError
from curvedwigner.geometry import (
    AmbientVector,
    BoostParams,
    HyperbolicAngleCoord,
    MomentumLabel,
    ambient_from_angle,
    bargmann_angle,
    binding_delta_midpoint,
    boost_direction,
    boost_point,
    fold_angle_1d,
    fold_momentum_1d,
    geodesic_pair,
    hyperbolic_angle,
    norm_factor,
    shapiro_covariance_check,
    shapiro_forward_1d,
    shapiro_inverse_1d,
    shapiro_phi,
)
from curvedwigner.oscillator import BoundStateLabel, OscillatorParams, bound_sampler, psi_bound
from curvedwigner.quadrature import QuadratureSpec, adaptive_gauss_kronrod
from curvedwigner.sampling import DecayEnvelope, FieldSampler


def _random_point(rng, D, R, chi_max=2.0):
    xi = rng.normal(size=D)
    xi /= np.linalg.norm(xi)
    return ambient_from_angle(HyperbolicAngleCoord(float(rng.uniform(0, chi_max)), xi), R)


def _random_orthogonal_spacelike(rng, x, R):
    w = rng.normal(size=x.dim)
    y = AmbientVector(float(np.dot(w, x.xs)) / x.x0, w)
    scale = R / math.sqrt(-y.minkowski_dot(y))
    return AmbientVector(y.x0 * scale, y.xs * scale)


def _unit_rows(rng, n, D):
    v = rng.normal(size=(n, D))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_batch(rng, n, D, R):
    """n random points on the R sheet and, for each, a spacelike unit-R
    direction Minkowski-orthogonal to it; also returns the angles."""
    chi, xi = rng.uniform(0.0, 2.0, n), _unit_rows(rng, n, D)
    x = ambient_from_angle(HyperbolicAngleCoord(chi, xi), R)
    w = rng.normal(size=(n, D))
    y = AmbientVector(np.sum(w * x.xs, axis=1) / x.x0, w)
    scale = R / np.sqrt(-y.minkowski_dot(y))
    return x, AmbientVector(y.x0 * scale, y.xs * scale[:, None]), chi, xi


def _member(v, i):
    return AmbientVector(v.x0[i], v.xs[i])


def _same(batch, i, solo):
    assert batch.x0[i] == solo.x0 and np.array_equal(batch.xs[i], solo.xs)


class TestShells:
    def test_classification(self):
        R = 2.0
        on = AmbientVector(2.0 * math.cosh(0.7), np.array([2.0 * math.sinh(0.7)]))
        assert on.shell_kind(R) == "timelike"
        sp = AmbientVector(2.0 * math.sinh(0.3), np.array([2.0 * math.cosh(0.3)]))
        assert sp.shell_kind(R) == "spacelike"
        assert AmbientVector(5.0, np.array([1.0])).shell_kind(R) == "free"

    def test_projection_helper(self):
        R = 1.5
        x = AmbientVector(R * math.cosh(0.4) * (1 + 1e-7),
                          np.array([R * math.sinh(0.4) * (1 + 1e-7)]))
        assert x.shell_kind(R) == "free"
        assert x.project_timelike(R).shell_kind(R) == "timelike"

    def test_angle_round_trip(self):
        R = 1.3
        coord = HyperbolicAngleCoord(0.9, np.array([0.6, 0.8]))
        x = ambient_from_angle(coord, R)
        back = hyperbolic_angle(x, R)
        assert back.chi == pytest.approx(0.9, rel=1e-14)
        assert np.allclose(back.xi, coord.xi, atol=1e-14)


class TestValueSemantics:
    @pytest.mark.parametrize("make", [
        lambda: AmbientVector(2.0, np.array([0.0, 1.0])),
        lambda: AmbientVector(np.ones(3), np.zeros((3, 2))),
        lambda: HyperbolicAngleCoord(0.9, np.array([0.6, 0.8])),
        lambda: MomentumLabel(1.5, np.array([0.6, 0.8])),
        lambda: BoostParams(np.array([0.0, 0.6, 0.8]), 0.3),
    ], ids=["vector", "batch", "angle", "momentum", "boost"])
    def test_eq_and_hash_go_by_identity(self, make):
        # the fields hold arrays, so field-wise == would raise on equal copies
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestShapiroPhi:
    def test_origin_is_one(self):
        R = 1.0
        x = AmbientVector(R, np.zeros(2))
        for p in (0.0, 1.7, 5.0):
            val = shapiro_phi(2, MomentumLabel(p, np.array([1.0, 0.0])), x, R)
            assert val == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_one_dim_pure_phase(self):
        R = 1.4
        chi = 0.8
        x = ambient_from_angle(HyperbolicAngleCoord(chi, np.array([1.0])), R)
        p = 2.3
        val = shapiro_phi(1, MomentumLabel(p, np.array([1.0])), x, R)
        assert val == pytest.approx(cmath.exp(1j * p * R * chi), rel=1e-13)

    def test_modulus_independent_of_p(self):
        R = 1.0
        x = ambient_from_angle(HyperbolicAngleCoord(1.1, np.array([0.0, 1.0])), R)
        base = (x.x0 - x.xs[1]) / R
        for p in (0.3, 2.0, 9.0):
            val = shapiro_phi(2, MomentumLabel(p, np.array([0.0, 1.0])), x, R)
            assert abs(val) == pytest.approx(base ** -0.5, rel=1e-13)

    def test_off_shell_raises(self):
        with pytest.raises(OffShellError):
            shapiro_phi(1, MomentumLabel(1.0, np.array([1.0])),
                        AmbientVector(2.0, np.array([0.5])), 1.0)

    def test_contraction_to_plane_waves(self):
        xvec = np.array([0.3, -0.2])
        nvec = np.array([0.6, 0.8])
        p = 1.1
        flat = cmath.exp(1j * p * float(np.dot(nvec, xvec)))
        devs = []
        for R in (10.0, 100.0, 1000.0, 10000.0):
            x0 = math.sqrt(R * R + float(np.dot(xvec, xvec)))
            val = shapiro_phi(2, MomentumLabel(p, nvec), AmbientVector(x0, xvec), R)
            devs.append(abs(val - flat))
        assert all(a > b for a, b in zip(devs, devs[1:]))
        for r in (devs[0] / devs[1], devs[1] / devs[2], devs[2] / devs[3]):
            assert 5.0 < r < 20.0  # O(1/R)

    def test_discrete_orthogonality_dft_pattern(self):
        # uniform chi grid; momenta on the DFT lattice give a unitary Gram
        R, N, step = 1.0, 32, 0.11
        chis = np.arange(N) * step
        points = [ambient_from_angle(HyperbolicAngleCoord(c, np.array([1.0])), R) for c in chis]
        ps = 2.0 * math.pi * np.arange(5) / (N * step * R)
        samples = np.array([[shapiro_phi(1, MomentumLabel(p, np.array([1.0])), x, R)
                             for x in points] for p in ps])
        gram = samples.conj() @ samples.T / N
        assert np.allclose(gram, np.eye(5), atol=1e-12)


class TestNormFactor:
    def test_d1_d3_unity(self):
        for p in (0.1, 1.0, 7.5):
            assert norm_factor(1, p, 2.0) == pytest.approx(1.0, abs=1e-13)
            assert norm_factor(3, p, 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_d2_coth(self):
        R = 1.3
        for p in (0.2, 1.0, 4.0):
            assert norm_factor(2, p, R) == pytest.approx(
                1.0 / math.tanh(math.pi * p * R), rel=1e-13)

    def test_d2_p_zero_raises(self):
        with pytest.raises(DomainError):
            norm_factor(2, 0.0, 1.0)

    def test_d1_p_zero_limit(self):
        assert norm_factor(1, 0.0, 1.0) == 1.0

    def test_odd_d_reduction_matches_raw_gamma_ratio(self):
        # the exact odd-D values agree with the unreduced gamma-ratio route
        from curvedwigner.specfun import gamma_abs_squared
        for D in (1, 3):
            for p in (0.1, 1.0, 4.0):
                q = p * 2.0
                raw = (gamma_abs_squared(1j * q)
                       / gamma_abs_squared((D - 1) / 2.0 + 1j * q) * q ** (D - 1))
                assert raw == pytest.approx(norm_factor(D, p, 2.0), abs=5e-12)


class TestGeodesics:
    def test_tau_zero(self):
        rng = np.random.default_rng(7)
        x = _random_point(rng, 2, 1.0)
        y = _random_orthogonal_spacelike(rng, x, 1.0)
        xp, xpp = geodesic_pair(x, y, 0.0)
        assert np.allclose([xp.x0, *xp.xs], [x.x0, *x.xs])
        assert np.allclose([xpp.x0, *xpp.xs], [x.x0, *x.xs])

    def test_one_dim_angle_addition(self):
        R = 1.0
        x = ambient_from_angle(HyperbolicAngleCoord(0.5, np.array([1.0])), R)
        y = AmbientVector(math.sinh(0.5), np.array([math.cosh(0.5)]))
        xp, xpp = geodesic_pair(x, y, 1.0)
        assert fold_angle_1d(xp, R) == pytest.approx(0.0, abs=1e-14)
        assert fold_angle_1d(xpp, R) == pytest.approx(1.0, rel=1e-14)

    def test_identities_random(self):
        rng = np.random.default_rng(42)
        R = 1.7
        for _ in range(300):
            D = int(rng.integers(1, 4))
            x = _random_point(rng, D, R)
            y = _random_orthogonal_spacelike(rng, x, R)
            tau = float(rng.uniform(-3, 3))
            xp, xpp = geodesic_pair(x, y, tau)
            assert abs(xp.minkowski_dot(xpp) - R * R * math.cosh(tau)) < 1e-12 * R * R * 10
            assert abs(x.minkowski_dot(xp) - R * R * math.cosh(tau / 2)) < 1e-12 * R * R * 10
            assert abs(x.minkowski_dot(xpp) - R * R * math.cosh(tau / 2)) < 1e-12 * R * R * 10

    def test_orthogonality_violation_raises(self):
        R = 1.0
        x = ambient_from_angle(HyperbolicAngleCoord(0.3, np.array([1.0])), R)
        y_bad = AmbientVector(math.sinh(0.9), np.array([math.cosh(0.9)]))
        with pytest.raises(OffShellError):
            geodesic_pair(x, y_bad, 1.0)


class TestMidpoint:
    def test_coincident_points(self):
        x = ambient_from_angle(HyperbolicAngleCoord(0.8, np.array([1.0])), 1.0)
        mid = binding_delta_midpoint(x, x, 1.0)
        assert mid.x0 == pytest.approx(x.x0, rel=1e-14)

    def test_one_dim_half_angle(self):
        R = 1.0
        xp = ambient_from_angle(HyperbolicAngleCoord(0.0, np.array([1.0])), R)
        xpp = ambient_from_angle(HyperbolicAngleCoord(1.0, np.array([1.0])), R)
        mid = binding_delta_midpoint(xp, xpp, R)
        assert fold_angle_1d(mid, R) == pytest.approx(0.5, rel=1e-13)

    def test_round_trip_with_geodesic_pair(self):
        rng = np.random.default_rng(3)
        R = 2.3
        for _ in range(200):
            D = int(rng.integers(1, 4))
            x = _random_point(rng, D, R)
            y = _random_orthogonal_spacelike(rng, x, R)
            xp, xpp = geodesic_pair(x, y, float(rng.uniform(-2.5, 2.5)))
            mid = binding_delta_midpoint(xp, xpp, R)
            assert abs(mid.x0 - x.x0) < 1e-12 * R * 10
            assert np.max(np.abs(mid.xs - x.xs)) < 1e-12 * R * 10


class TestBoosts:
    def test_identity(self):
        x = ambient_from_angle(HyperbolicAngleCoord(0.6, np.array([0.0, 1.0])), 1.0)
        out = boost_point(BoostParams(np.array([1.0, 0.0]), 0.0), x)
        assert np.allclose([out.x0, *out.xs], [x.x0, *x.xs])

    def test_apex_motion(self):
        R, zeta = 1.0, 0.9
        out = boost_point(BoostParams(np.array([1.0]), zeta), AmbientVector(R, np.zeros(1)))
        assert out.x0 == pytest.approx(R * math.cosh(zeta), rel=1e-14)
        assert out.xs[0] == pytest.approx(-R * math.sinh(zeta), rel=1e-14)

    def test_composition_same_axis(self):
        rng = np.random.default_rng(11)
        m = np.array([0.0, 1.0, 0.0])
        x = _random_point(rng, 3, 1.0)
        one = boost_point(BoostParams(m, 0.7), boost_point(BoostParams(m, 0.5), x))
        two = boost_point(BoostParams(m, 1.2), x)
        assert np.allclose([one.x0, *one.xs], [two.x0, *two.xs], atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            D = int(rng.integers(1, 4))
            x = _random_point(rng, D, 1.6)
            m = rng.normal(size=D)
            m /= np.linalg.norm(m)
            out = boost_point(BoostParams(m, float(rng.uniform(-2, 2))), x)
            assert abs(out.minkowski_dot(out) - 1.6 ** 2) < 1e-12 * 1.6 ** 2 * 10

    def test_direction_special_cases(self):
        m = np.array([1.0, 0.0])
        n_perp = np.array([0.0, 1.0])
        n1, mu = boost_direction(BoostParams(m, 0.0), n_perp)
        assert mu == 1.0 and np.allclose(n1, n_perp)
        _, mu = boost_direction(BoostParams(m, 0.8), n_perp)
        assert mu == pytest.approx(math.cosh(0.8), rel=1e-14)
        n1, mu = boost_direction(BoostParams(m, 0.8), m)
        assert mu == pytest.approx(math.exp(0.8), rel=1e-14)
        assert np.allclose(n1, m, atol=1e-14)

    def test_multiplier_inverse_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            D = int(rng.integers(2, 4))
            m = rng.normal(size=D)
            m /= np.linalg.norm(m)
            n = rng.normal(size=D)
            n /= np.linalg.norm(n)
            zeta = float(rng.uniform(-2, 2))
            n1, mu = boost_direction(BoostParams(m, zeta), n)
            _, mu_back = boost_direction(BoostParams(m, -zeta), n1)
            assert mu * mu_back == pytest.approx(1.0, rel=1e-12)
            assert np.dot(n1, n1) == pytest.approx(1.0, rel=1e-12)


class TestCovariance:
    def test_zero_rapidity(self):
        x = ambient_from_angle(HyperbolicAngleCoord(0.7, np.array([0.6, 0.8])), 1.0)
        dev = shapiro_covariance_check(
            2, MomentumLabel(1.3, np.array([1.0, 0.0])), x,
            BoostParams(np.array([0.0, 1.0]), 0.0))
        assert dev < 1e-14

    def test_one_dim_modulus_preserved(self):
        # for D = 1 the multiplier has unit modulus: |Phi| is boost-invariant
        R, chi, p, zeta = 1.0, 0.6, 1.7, 0.9
        x = ambient_from_angle(HyperbolicAngleCoord(chi, np.array([1.0])), R)
        mom = MomentumLabel(p, np.array([1.0]))
        b = BoostParams(np.array([1.0]), zeta)
        lhs = shapiro_phi(1, mom, boost_point(b, x), R)
        assert abs(lhs) == pytest.approx(1.0, rel=1e-13)
        assert shapiro_covariance_check(1, mom, x, b) < 1e-12

    def test_random_d2(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = _random_point(rng, 2, 1.0)
            n = rng.normal(size=2)
            n /= np.linalg.norm(n)
            m = rng.normal(size=2)
            m /= np.linalg.norm(m)
            dev = shapiro_covariance_check(
                2, MomentumLabel(float(rng.uniform(0.1, 3)), n), x,
                BoostParams(m, float(rng.uniform(-2, 2))))
            assert dev < 1e-10


class TestBatches:
    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_members_equal_solo_calls(self, D):
        rng = np.random.default_rng(100 + D)
        R, n = 1.7, 40
        x, y, chi, xi = _random_batch(rng, n, D, R)
        tau = rng.uniform(-3.0, 3.0, n)
        m, zeta = _unit_rows(rng, n, D), rng.uniform(-2.5, 2.5, n)
        nvec, p = _unit_rows(rng, n, D), rng.uniform(0.1, 3.0, n)
        b, mom = BoostParams(m, zeta), MomentumLabel(p, nvec)
        one_boost = BoostParams(m[0], zeta[0])
        off = AmbientVector(x.x0 * (1 + 1e-7), x.xs * (1 + 1e-7))

        xp, xpp = geodesic_pair(x, y, tau)
        mid = binding_delta_midpoint(xp, xpp, R)
        bx, bx_one = boost_point(b, x), boost_point(one_boost, x)
        n_new, mu = boost_direction(b, nvec)
        angle = hyperbolic_angle(x, R)
        phi = shapiro_phi(D, mom, x, R)
        cov = shapiro_covariance_check(D, mom, x, b)
        dots, kinds = x.minkowski_dot(y), y.shell_kind(R)
        projected = off.project_timelike(R)
        for i in range(n):
            x1, y1 = ambient_from_angle(HyperbolicAngleCoord(chi[i], xi[i]), R), _member(y, i)
            _same(x, i, x1)
            xp1, xpp1 = geodesic_pair(x1, y1, tau[i])
            _same(xp, i, xp1)
            _same(xpp, i, xpp1)
            _same(mid, i, binding_delta_midpoint(xp1, xpp1, R))
            b1, mom1 = BoostParams(m[i], zeta[i]), MomentumLabel(p[i], nvec[i])
            _same(bx, i, boost_point(b1, x1))
            _same(bx_one, i, boost_point(one_boost, x1))
            n1, mu1 = boost_direction(b1, nvec[i])
            assert mu[i] == mu1 and np.array_equal(n_new[i], n1)
            a1 = hyperbolic_angle(x1, R)
            assert angle.chi[i] == a1.chi and np.array_equal(angle.xi[i], a1.xi)
            assert phi[i] == shapiro_phi(D, mom1, x1, R)
            assert cov[i] == shapiro_covariance_check(D, mom1, x1, b1)
            assert dots[i] == x1.minkowski_dot(y1)
            assert kinds[i] == y1.shell_kind(R) == "spacelike"
            _same(projected, i, _member(off, i).project_timelike(R))
            if D == 1:
                assert fold_angle_1d(x, R)[i] == fold_angle_1d(x1, R)
                assert fold_momentum_1d(mom)[i] == fold_momentum_1d(mom1)

    def test_single_point_keeps_scalar_types(self):
        R = 1.3
        x = ambient_from_angle(HyperbolicAngleCoord(0.4, np.array([0.6, 0.8])), R)
        mom = MomentumLabel(1.1, np.array([1.0, 0.0]))
        b = BoostParams(np.array([0.0, 1.0]), 0.7)
        assert type(x.x0) is float and x.xs.shape == (2,)
        assert type(x.minkowski_dot(x)) is float
        assert type(shapiro_phi(2, mom, x, R)) is complex
        assert type(shapiro_covariance_check(2, mom, x, b)) is float
        assert type(boost_direction(b, mom.n)[1]) is float
        assert type(hyperbolic_angle(x, R).chi) is float
        assert type(x.shell_kind(R)) is str
        assert boost_point(b, x).xs.shape == (2,)

    def test_off_shell_member_named(self):
        rng = np.random.default_rng(5)
        x, _, _, _ = _random_batch(rng, 6, 2, 1.0)
        x0 = x.x0.copy()
        x0[3] *= 1.01
        bad = AmbientVector(x0, x.xs)
        mom = MomentumLabel(1.0, np.array([1.0, 0.0]))
        with pytest.raises(OffShellError, match=r"^x \(batch member 3\) is not timelike"):
            shapiro_phi(2, mom, bad, 1.0)
        with pytest.raises(OffShellError, match=r"x' \(batch member 3\)"):
            binding_delta_midpoint(bad, x, 1.0)
        with pytest.raises(OffShellError) as solo:
            shapiro_phi(2, mom, AmbientVector(x0[3], x.xs[3]), 1.0)
        assert "batch member" not in str(solo.value)

    def test_non_orthogonal_member_named(self):
        rng = np.random.default_rng(9)
        x, y, _, _ = _random_batch(rng, 7, 1, 1.0)
        y0, ys = y.x0.copy(), y.xs.copy()
        y0[4], ys[4] = math.sinh(0.9), [math.cosh(0.9)]  # on the spacelike shell
        with pytest.raises(OffShellError, match=r"orthogonal \(batch member 4\)"):
            geodesic_pair(x, AmbientVector(y0, ys), np.full(7, 0.5))

    def test_bad_member_of_labels_named(self):
        n = np.tile([0.6, 0.8], (5, 1))
        n[2] *= 1.001
        with pytest.raises(ValueError, match=r"unit vector.*batch member 2"):
            MomentumLabel(np.ones(5), n)
        with pytest.raises(ValueError, match=r"unit vector.*batch member 2"):
            BoostParams(n, np.zeros(5))
        with pytest.raises(ValueError, match=r"non-negative \(batch member 1\)"):
            MomentumLabel(np.array([1.0, -1.0, 2.0]), np.tile([1.0], (3, 1)))
        xs = np.ones((4, 1))
        xs[3, 0] = np.nan
        with pytest.raises(ValueError, match=r"finite \(batch member 3\)"):
            AmbientVector(np.full(4, 2.0), xs)
        with pytest.raises(ValueError):
            AmbientVector(np.full(3, 2.0), np.ones((4, 1)))


class TestBargmann:
    def test_identity_and_fixed_point(self):
        assert bargmann_angle(0.0, 1.234) == pytest.approx(1.234, rel=1e-15)
        assert bargmann_angle(2.0, 0.0) == 0.0
        assert bargmann_angle(1.4, math.pi) == math.pi

    def test_half_angle_value(self):
        assert bargmann_angle(math.log(2.0), math.pi / 2) == pytest.approx(
            2.0 * math.atan(0.5), rel=1e-14)
        assert bargmann_angle(math.log(2.0), math.pi / 2) == pytest.approx(0.9272952180016122)

    def test_matches_boost_direction_on_circle(self):
        m = np.array([1.0, 0.0])
        zeta = 0.75
        for phi in (-2.5, -0.8, 0.3, 1.9):
            n = np.array([math.cos(phi), math.sin(phi)])
            n1, _ = boost_direction(BoostParams(m, zeta), n)
            phi1 = math.atan2(n1[1], n1[0])
            assert phi1 == pytest.approx(bargmann_angle(zeta, phi), rel=1e-12, abs=1e-12)


class TestShapiroTransform1D:
    def test_pure_phase_rejected(self):
        flat = FieldSampler(func=lambda u: np.exp(1j * u),
                            envelope=DecayEnvelope(amplitude=1.0, rate=0.0))
        with pytest.raises(DomainError):
            shapiro_forward_1d(flat, 1.0, 1.0)

    def test_ground_state_zero_momentum(self, s4_params):
        # analytic oracle: integral of sech^4 is 4/3 exactly
        state = BoundStateLabel(0, s4_params)
        psi0 = math.sqrt(4.0 * math.gamma(9.0)) / (16.0 * math.gamma(5.0))
        expected = math.sqrt(1.0 / (2.0 * math.pi)) * psi0 * (4.0 / 3.0)
        val = shapiro_forward_1d(bound_sampler(state), 0.0, 1.0)
        assert val.real == pytest.approx(expected, rel=1e-11)
        assert abs(val.imag) < 1e-13
        assert expected == pytest.approx(0.5563, abs=5e-5)

    def test_batch_equals_solo_calls(self, s4_params):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
        sampler = bound_sampler(BoundStateLabel(1, s4_params))
        ps = np.array([-3.7, -0.4, 0.0, 0.25, 2.0, 6.5])
        batch = shapiro_forward_1d(sampler, ps, 1.3, spec)
        assert batch.shape == ps.shape
        for p, val in zip(ps, batch):
            solo = shapiro_forward_1d(sampler, float(p), 1.3, spec)
            assert isinstance(solo, complex) and solo == val

    def test_parseval_r_one(self):
        f = gaussian_sampler(width=0.8, center=0.4)
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
        pos, _ = adaptive_gauss_kronrod(lambda u: np.abs(f(u)) ** 2, -12.0, 12.0, spec)
        mom, _ = adaptive_gauss_kronrod(
            lambda ps: np.abs(shapiro_forward_1d(f, ps, 1.0, spec)) ** 2, -14.0, 14.0, spec)
        assert mom.real == pytest.approx(pos.real, abs=1e-8)

    def test_round_trip(self):
        f = gaussian_sampler(width=1.0)
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
        ftilde = FieldSampler(
            func=lambda ps: shapiro_forward_1d(f, ps, 1.0, spec),
            envelope=DecayEnvelope(amplitude=1.0, rate=2.5))
        for chi in (0.0, 0.6, -1.2):
            back = shapiro_inverse_1d(ftilde, chi, 1.0, spec)
            assert back == pytest.approx(complex(f(np.array([chi]))[0]), abs=1e-8)

    def test_inverse_linearity(self):
        g = gaussian_sampler(width=0.7)
        doubled = FieldSampler(func=lambda u: 2.0 * g(u), envelope=DecayEnvelope(
            amplitude=2.0 * g.envelope.amplitude, rate=g.envelope.rate))
        a = shapiro_inverse_1d(g, 0.45, 1.0)
        b = shapiro_inverse_1d(doubled, 0.45, 1.0)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_narrow_band_gives_slowly_varying_field(self):
        width = 0.1
        ftilde = gaussian_sampler(width=width)
        f0 = abs(shapiro_inverse_1d(ftilde, 0.0, 1.0))
        f1 = abs(shapiro_inverse_1d(ftilde, 1.0, 1.0))
        assert f1 / f0 > 0.99

    def test_fold_helpers(self):
        mom = MomentumLabel(2.0, np.array([-1.0]))
        assert fold_momentum_1d(mom) == -2.0
        x = ambient_from_angle(HyperbolicAngleCoord(0.7, np.array([-1.0])), 1.0)
        assert fold_angle_1d(x, 1.0) == pytest.approx(-0.7, rel=1e-14)
