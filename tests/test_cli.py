import json
import math

import numpy as np
import pytest

from curvedwigner.artifacts import read_csv, read_pgm, validate_manifest
from curvedwigner.cli import (
    GridSpec,
    RunConfig,
    main,
    run_eigen,
    run_figure1,
    run_wavefun,
    run_wigner,
)
from curvedwigner.errors import ConfigError


def collect():
    lines = []
    return lines, lines.append


class TestEigen:
    def test_s4_table(self):
        lines, echo = collect()
        rows = run_eigen(RunConfig(command="eigen", s=4.0), echo=echo)
        assert [n for n, _ in rows] == [0, 1, 2, 3, 4]
        assert [e for _, e in rows] == pytest.approx([2.0, 5.5, 8.0, 9.5, 10.0], abs=1e-12)
        assert any("bound states: 5" in ln for ln in lines)
        assert any("threshold" in ln for ln in lines)  # the n = 4 zero-norm level

    def test_s30_count(self):
        rows = run_eigen(RunConfig(command="eigen", s=30.0), echo=lambda s: None)
        assert len(rows) == 31

    def test_free_well_reports_none(self):
        lines, echo = collect()
        rows = run_eigen(RunConfig(command="eigen", omega=0.0), echo=echo)
        assert rows == []
        assert any("bound states: 0" in ln for ln in lines)

    def test_writes_csv(self, tmp_path):
        cfg = RunConfig(command="eigen", s=4.0, out_dir=str(tmp_path))
        run_eigen(cfg, echo=lambda s: None)
        names, cols = read_csv(tmp_path / "eigen.csv")
        assert names == ["n", "E"]
        assert list(cols[1]) == pytest.approx([2.0, 5.5, 8.0, 9.5, 10.0], abs=1e-12)


class TestConfigHandling:
    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"s": 4.0, "n_list": [0, 1],
                                        "formats": ["csv"]}))
        out = tmp_path / "out"
        rc = main(["eigen", "--config", str(cfg_file), "--s", "30", "--out", str(out)])
        assert rc == 0
        _, cols = read_csv(out / "eigen.csv")
        assert len(cols[0]) == 31  # the flag value won

    def test_grid_string_parsing(self):
        cfg = RunConfig(command="wigner", s=4.0, grid=GridSpec(0.0, 2.0, 16, 0.0, 4.0, 8))
        assert cfg.grid.n_chi == 16
        with pytest.raises(ConfigError):
            GridSpec(0.0, 2.0, 1, 0.0, 4.0, 8)
        with pytest.raises(ConfigError):
            GridSpec(2.0, 0.0, 16, 0.0, 4.0, 8)

    def test_mutually_exclusive_depth_and_omega(self):
        with pytest.raises(ConfigError):
            RunConfig(command="eigen", s=4.0, omega=1.0)

    def test_unknown_json_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"s": 4.0, "bogus": 1}))
        assert main(["eigen", "--config", str(cfg_file)]) == 2

    def test_grid_object_in_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({
            "s": 4.0, "n_list": [0], "formats": ["csv"],
            "grid": {"chi_min": 0.0, "chi_max": 2.0, "n_chi": 8,
                     "p_min": 0.0, "p_max": 3.0, "n_p": 6},
        }))
        out = tmp_path / "out"
        assert main(["wigner", "--config", str(cfg_file), "--out", str(out),
                     "--evaluator", "quad"]) == 0
        names, cols = read_csv(out / "wigner_n0.csv")
        assert len(cols[0]) == 8 * 6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"chi_min": 0.0}}))
        assert main(["eigen", "--s", "4", "--config", str(bad)]) == 2

    def test_exit_codes(self, tmp_path):
        # 2: config error (both omega and s)
        assert main(["eigen", "--s", "4", "--omega", "2"]) == 2
        # 2: malformed grid
        assert main(["wigner", "--s", "4", "--grid", "oops", "--out", str(tmp_path)]) == 2
        # 2: mode outside the bound range is a configuration problem
        assert main(["wavefun", "--s", "4", "--n", "7", "--out", str(tmp_path)]) == 2
        # 4: I/O error (output path collides with a regular file)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["eigen", "--s", "4", "--out", str(blocker / "sub")]) == 4

    def test_numeric_exit_code_mapping(self):
        from curvedwigner.errors import (DomainError, NonconvergenceError,
                                         exit_code_for)
        assert exit_code_for(NonconvergenceError("x")) == 3
        assert exit_code_for(DomainError("x")) == 3


class TestWavefun:
    def test_artifacts(self, tmp_path):
        cfg = RunConfig(command="wavefun", s=4.0, n_list=(0, 1),
                        grid=GridSpec(0.0, 3.0, 32, 0.0, 6.0, 32),
                        out_dir=str(tmp_path), formats=("csv",))
        manifest = run_wavefun(cfg)
        doc = validate_manifest(manifest)
        paths = {e["path"] for e in doc["files"]}
        assert "wavefun_n0.csv" in paths and "wavefun_momentum_n1.csv" in paths
        names, cols = read_csv(tmp_path / "wavefun_n0.csv")
        assert names == ["chi", "psi"]
        assert cols[1][0] == pytest.approx(1.04582503, abs=1e-6)


class TestWignerCommand:
    def test_grid_artifacts(self, tmp_path):
        cfg = RunConfig(command="wigner", s=4.0, n_list=(0,),
                        grid=GridSpec(0.0, 2.0, 12, 0.0, 4.0, 10),
                        out_dir=str(tmp_path))
        manifest = run_wigner(cfg)
        doc = validate_manifest(manifest)
        kinds = sorted(e["kind"] for e in doc["files"])
        assert kinds == ["marginal_csv", "marginal_csv", "wigner_csv", "wigner_pgm"]
        w, h, fields, px = read_pgm(tmp_path / "wigner_n0.pgm")
        assert (w, h) == (23, 19)  # reflected quadrant: 2n-1 per axis
        assert int(fields["zero_gray"]) >= 0
        assert "# evaluator=spectral" in (tmp_path / "wigner_n0.csv").read_text()

    def test_uncertified_grid_exits_numeric(self, tmp_path, monkeypatch, capsys):
        from curvedwigner import wigner

        monkeypatch.setattr(wigner, "_spectral_step", lambda q_max, sigma, spec: 1.5)
        rc = main(["wigner", "--s", "4", "--n", "0", "--grid", "0:2:12,0:4:10",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "not certified" in capsys.readouterr().err


class TestFigure1:
    def test_default_run_shape_and_determinism(self, tmp_path):
        cfg = RunConfig(command="figure1", n_list=(0, 1),
                        grid=GridSpec(0.0, 4.0, 96, 0.0, 4.0, 96),
                        out_dir=str(tmp_path / "a"))
        manifest = run_figure1(cfg)
        doc = validate_manifest(manifest)
        paths = {e["path"] for e in doc["files"]}
        # both default depths, both modes, four files each
        assert len(paths) == 2 * 2 * 4
        assert "figure1_s4_n0.pgm" in paths and "figure1_s30_n1.csv" in paths

        cfg2 = RunConfig(command="figure1", n_list=(0, 1),
                         grid=GridSpec(0.0, 4.0, 96, 0.0, 4.0, 96),
                         out_dir=str(tmp_path / "b"))
        doc2 = validate_manifest(run_figure1(cfg2))
        assert ({e["path"]: e["sha256"] for e in doc["files"]}
                == {e["path"]: e["sha256"] for e in doc2["files"]})

    def test_marginal_csv_normalization(self, tmp_path):
        cfg = RunConfig(command="figure1", s=4.0, n_list=(0,),
                        grid=GridSpec(0.0, 4.0, 96, 0.0, 4.0, 96),
                        out_dir=str(tmp_path), formats=("csv",))
        run_figure1(cfg)
        _, (chi, dens) = read_csv(tmp_path / "figure1_s4_n0_marginal_position.csv")
        total = 2.0 * np.trapezoid(dens, chi)  # quadrant -> full line
        assert total == pytest.approx(1.0, abs=1e-3)
        _, (q, densp) = read_csv(tmp_path / "figure1_s4_n0_marginal_momentum.csv")
        assert 2.0 * np.trapezoid(densp, q) == pytest.approx(1.0, abs=1e-3)


class TestVerifyPlumbing:
    def test_exit_one_when_any_criterion_fails(self, monkeypatch, tmp_path):
        from curvedwigner import verify as vf
        from curvedwigner.cli import run_verify

        monkeypatch.setattr(
            vf, "ALL_CRITERIA",
            [lambda t: vf.CriterionResult("toy_pass", True, "ok"),
             lambda t: vf.CriterionResult("toy_fail", False, "bad")])
        lines, echo = collect()
        rc = run_verify(RunConfig(command="verify", out_dir=str(tmp_path)), echo=echo)
        assert rc == 1
        assert any(ln.startswith("FAIL") for ln in lines)
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False
        assert all(c["data"]["elapsed_s"] >= 0.0 for c in report["criteria"])

    def test_report_verdicts_are_json_booleans(self, monkeypatch, tmp_path):
        # norm_factors and momentum_calibration compare NumPy scalars
        from curvedwigner import verify as vf
        from curvedwigner.cli import run_verify

        monkeypatch.setattr(
            vf, "ALL_CRITERIA",
            [vf.criterion_norm_factors, vf.criterion_momentum_calibration,
             lambda t: vf.CriterionResult("toy_numpy_fail", np.float64(2.0) < 1.0, "bad")])
        lines, echo = collect()
        run_verify(RunConfig(command="verify", out_dir=str(tmp_path)), echo=echo)
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False
        assert [c["passed"] for c in report["criteria"]] == [True, True, False]
        assert all(type(c["passed"]) is bool for c in report["criteria"])

    def test_negative_control_tightened_tolerance(self):
        # scaling tolerances down by 1e3 must surface failures
        from curvedwigner.verify import criterion_special_functions

        nominal = criterion_special_functions(1.0)
        tightened = criterion_special_functions(1e-3)
        assert nominal.passed and not tightened.passed

    def test_negative_control_geometry(self):
        # the batched geometry checks compare real deviations, not zeros
        from curvedwigner.verify import criterion_geometry

        nominal = criterion_geometry(1.0)
        tightened = criterion_geometry(1e-3)
        assert nominal.passed and not tightened.passed
        assert tightened.data == nominal.data
