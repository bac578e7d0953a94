import argparse
import json
import math
import os
import select
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvedwigner import cli
from curvedwigner.artifacts import read_csv, read_pgm, validate_manifest
from curvedwigner.cli import (
    FIGURE1_DEPTHS,
    GridSpec,
    RunConfig,
    _build_parser,
    main,
    run_eigen,
    run_figure1,
    run_wavefun,
    run_wigner,
)
from curvedwigner.errors import ConfigError, PrecisionLossError
from curvedwigner.geometry import shapiro_forward_1d
from curvedwigner.oscillator import (
    BoundStateLabel,
    OscillatorParams,
    bound_sampler,
    momentum_decay,
    psi_bound,
    psi_momentum,
)
from curvedwigner.quadrature import QuadratureSpec


def collect():
    lines = []
    return lines, lines.append


# The RunConfig fields each command reads; per field, its flag with a value
# and the same value as a config-file entry.  No command reads "evaluator"
# any more (every grid comes from the engine), so each must reject it as an
# unread flag and config key.
READS = {
    "eigen": {"mu", "omega", "s", "radius", "out_dir"},
    "wavefun": {"mu", "omega", "s", "radius", "n_list", "grid", "out_dir"},
    "wigner": {"mu", "omega", "s", "radius", "n_list", "grid", "out_dir", "formats"},
    "figure1": {"mu", "s", "radius", "n_list", "grid", "out_dir", "formats"},
    "verify": {"out_dir", "tol"},
}
SMALL_GRID = {"chi_min": 0.0, "chi_max": 1.0, "n_chi": 3, "p_min": 0.0, "p_max": 1.0, "n_p": 3}
FIELD_VALUES = {
    "mu": ("--mu", "1", 1.0), "omega": ("--omega", "5", 5.0),
    "s": ("--s", "4", 4.0), "radius": ("--R", "1", 1.0),
    "n_list": ("--n", "0", [0]), "grid": ("--grid", "0:1:3,0:1:3", SMALL_GRID),
    "evaluator": ("--evaluator", "quad", "quad"), "out_dir": ("--out", "x", "x"),
    "formats": ("--format", "csv", ["csv"]), "tol": ("--tol", "1", 1.0),
}
UNREAD = [(cmd, key) for cmd in READS for key in FIELD_VALUES if key not in READS[cmd]]


def valid_argv(command, out):
    """Arguments every command runs with (cheaply) when nothing is added."""
    small = ["--n", "0", "--grid", "0:1:3,0:1:3", "--out", str(out)]
    return {"eigen": ["--s", "4"], "wavefun": ["--s", "4"] + small,
            "wigner": ["--s", "4"] + small, "figure1": small,
            "verify": ["--out", str(out)]}[command]


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

    def test_free_well_reports_none(self, tmp_path):
        lines, echo = collect()
        rows = run_eigen(RunConfig(command="eigen", omega=0.0, out_dir=str(tmp_path)),
                         echo=echo)
        assert rows == []
        assert any("bound states: 0" in ln for ln in lines)
        # its header-only table reads back as empty columns
        names, cols = read_csv(tmp_path / "eigen.csv")
        assert names == ["n", "E"] and [len(c) for c in cols] == [0, 0]

    def test_threshold_marker_agrees_with_wavefun(self, tmp_path, capsys):
        # omega = 4.47213595499958 puts s one ulp-scale step above 4: the
        # n = 4 level is a threshold level for both commands
        assert main(["eigen", "--omega", "4.47213595499958"]) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines() if "n=  4" in ln]
        assert len(line) == 1 and "threshold level" in line[0]
        assert main(["wavefun", "--omega", "4.47213595499958", "--n", "4",
                     "--out", str(tmp_path)]) == 2

    def test_non_integer_depth_has_no_threshold_level(self, capsys):
        # s = 4.2: the levels n = 0..4, none at threshold (n = 5 has s - n < 0)
        assert main(["eigen", "--s", "4.2"]) == 0
        out = capsys.readouterr().out
        assert "bound states: 5" in out and "threshold level" not in out
        assert main(["eigen", "--s", "0.5"]) == 0
        levels = [ln for ln in capsys.readouterr().out.splitlines() if "n=" in ln]
        assert len(levels) == 1 and "threshold level" not in levels[0]

    def test_writes_csv(self, tmp_path):
        cfg = RunConfig(command="eigen", s=4.0, out_dir=str(tmp_path))
        run_eigen(cfg, echo=lambda s: None)
        names, cols = read_csv(tmp_path / "eigen.csv")
        assert names == ["n", "E"]
        assert list(cols[1]) == pytest.approx([2.0, 5.5, 8.0, 9.5, 10.0], abs=1e-12)


class TestConfigHandling:
    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"s": 4.0}))
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
        assert main(["wigner", "--config", str(cfg_file), "--out", str(out)]) == 0
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

    GRID = {"chi_min": 0.0, "chi_max": 2.0, "n_chi": 8, "p_min": 0.0, "p_max": 3.0, "n_p": 6}

    @pytest.mark.parametrize("flags,config", [
        (["--grid", "0:inf:5,0:1:5"], None),
        ([], {"grid": {**GRID, "n_chi": 2.5}}),
        ([], {"grid": {**GRID, "n_p": True}}),
        ([], {"grid": {**GRID, "chi_min": "0", "chi_max": "2"}}),
        ([], {"n_list": 3}),
        ([], {"formats": "csv"}),
        (["--evaluator", "closed"], None),
        ([], {"evaluator": "closed"}),
        ([], {"n_list": []}),
        ([], {"mu": True}),
        ([], {"radius": True}),
        ([], {"n_list": [True]}),
    ], ids=["infinite_extent", "float_count", "bool_count", "string_extent",
            "scalar_n_list", "string_formats", "closed_flag", "closed_in_config",
            "empty_n_list", "bool_mu", "bool_radius", "bool_mode"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, flags, config):
        argv = ["wigner", "--s", "4", "--out", str(tmp_path / "out")] + flags
        if config is not None:
            cfg_file = tmp_path / "c.json"
            cfg_file.write_text(json.dumps(config))
            argv += ["--config", str(cfg_file)]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the unread --evaluator itself
            rc = exc.code
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [("eigen", "s"), ("eigen", "omega"),
                                             ("verify", "tol")])
    def test_boolean_number_exits_two(self, tmp_path, capsys, command, key):
        # JSON true is not the number 1
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({key: True}))
        assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert "not booleans" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eigen", "--s", "nan"],
        ["figure1", "--mu", "nan"],
        ["wigner", "--s", "nan", "--n", "0", "--grid", "0:1:3,0:1:3"],
        ["eigen", "--R", "inf", "--s", "4"],
        ["verify", "--tol", "inf"],
        ["verify", "--tol", "nan"],
    ], ids=["eigen_s_nan", "figure1_mu_nan", "wigner_s_nan", "eigen_R_inf",
            "verify_tol_inf", "verify_tol_nan"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, argv):
        # an infinite tolerance scale would certify anything
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "must be finite numbers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,config", [
        (["eigen", "--s", "-2"], None),
        (["eigen", "--omega", "-1"], None),
        (["wigner", "--s", "-2", "--n", "0", "--grid", "0:1:3,0:1:3"], None),
        (["figure1", "--s", "-1", "--n", "0", "--grid", "0:1:3,0:1:3"], None),
        (["eigen"], {"omega": -1.0}),
        (["figure1", "--n", "0"], {"s": -1.0}),
    ], ids=["eigen_s", "eigen_omega", "wigner_s", "figure1_s", "config_omega", "config_s"])
    def test_negative_depth_or_frequency_exits_two(self, tmp_path, capsys, argv, config):
        # a configuration error, raised before the output directory is made
        if config is not None:
            cfg_file = tmp_path / "c.json"
            cfg_file.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg_file)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["wavefun", "wigner", "figure1"])
    def test_mode_out_of_range_writes_nothing(self, tmp_path, capsys, command):
        # every mode is checked before the first file: no partial output
        assert main([command, "--s", "4", "--n", "0,9", "--grid", "0:1:3,0:1:3",
                     "--out", str(tmp_path / "out")]) == 2
        assert "level n=9 is unbound for s=4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,config", [
        (["wavefun", "--s", "4", "--n", "1,1"], None),
        (["wigner", "--s", "4", "--n", "0,0"], None),
        (["figure1", "--n", "1,1"], None),
        (["wigner", "--s", "4"], {"n_list": [1, 1]}),
    ], ids=["wavefun", "wigner", "figure1", "config_file"])
    def test_repeated_mode_exits_two(self, tmp_path, capsys, argv, config):
        # a repeated mode would write its files twice and list them twice
        if config is not None:
            cfg_file = tmp_path / "c.json"
            cfg_file.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg_file)]
        assert main(argv + ["--grid", "0:1:3,0:1:3", "--out", str(tmp_path / "out")]) == 2
        assert "repeats a mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_figure1_at_zero_depth_exits_two_without_warning(self, tmp_path, capsys):
        # s = 0 has no normalizable state: the mode check comes before the
        # axes are divided by sqrt(s) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["figure1", "--s", "0", "--n", "0", "--out", str(tmp_path / "out")]) == 2
        assert "zero-norm threshold level" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_well_message_names_no_top_level(self, tmp_path, capsys):
        # the omega = 0 well has no levels: the label's own message, no "top"
        assert main(["wigner", "--omega", "0", "--n", "0", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "zero-norm threshold level" in err and "top" not in err

    @pytest.mark.parametrize("command,config,message", [
        ("eigen", {"s": 4.0, "out_dir": 5}, "output directory must be a string"),
        ("wigner", {"s": 4.0, "n_list": [0], "grid": {**GRID, "chi_max": True}},
         "grid extents must be finite numbers"),
    ], ids=["numeric_out_dir", "bool_extent"])
    def test_config_file_type_exits_two(self, tmp_path, capsys, command, config, message):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg_file)]) == 2
        assert message in capsys.readouterr().err

    def test_float_modes_name_files_as_integers(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"s": 4.0, "n_list": [2.0], "grid": self.GRID}))
        assert RunConfig(command="wavefun", n_list=(2.0,)).n_list == (2,)
        for command in ("wavefun", "wigner"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 0
            names = sorted(e["path"] for e in validate_manifest(out / "manifest.json")["files"])
            assert f"{command}_n2.csv" in names and not any("n2.0" in n for n in names)
            assert json.loads((out / "manifest.json").read_text())["config"]["n_list"] == [2]

    def test_manifest_independent_of_out_dir(self, tmp_path):
        for name in ("a", "b"):
            assert main(["wavefun", *valid_argv("wavefun", tmp_path / name)]) == 0
        assert ((tmp_path / "a" / "manifest.json").read_bytes()
                == (tmp_path / "b" / "manifest.json").read_bytes())

    def test_each_command_offers_exactly_its_flags(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        offered = {name: {a.dest for a in p._actions if a.dest != "help"}
                   for name, p in sub.choices.items()}
        assert offered == {name: reads | {"config"} for name, reads in READS.items()}
        assert sum(map(len, offered.values())) == 34 and len(UNREAD) == 21

    @pytest.mark.parametrize("command,key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_unread_flag_exits_two(self, tmp_path, capsys, command, key):
        flag, text, _ = FIELD_VALUES[key]
        with pytest.raises(SystemExit) as exc:
            main([command, *valid_argv(command, tmp_path / "out"), flag, text])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_unread_config_key_exits_two(self, tmp_path, capsys, command, key):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({key: FIELD_VALUES[key][2]}))
        argv = [command, *valid_argv(command, tmp_path / "out"), "--config", str(cfg_file)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"[{key!r}]" in err and command in err

    @pytest.mark.parametrize("command", ["wavefun", "wigner", "figure1"])
    def test_manifest_echoes_the_fields_read(self, tmp_path, command):
        out = tmp_path / "out"
        assert main([command, *valid_argv(command, out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert set(doc["config"]) == READS[command] - {"out_dir"} | {"command"}
        assert doc["config"]["command"] == command

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


    def test_non_integer_depth_top_level(self, tmp_path):
        # n = 4 < s = 4.2 is the top level, normalizable
        assert main(["wavefun", "--s", "4.2", "--n", "4", "--grid", "0:1:3,0:1:3",
                     "--out", str(tmp_path / "out")]) == 0

    def test_deep_well_runs(self, tmp_path):
        # s = 600: |Gamma((s - n - ipR)/2)|^2 alone overflows a double
        out = tmp_path / "out"
        assert main(["wavefun", "--s", "600", "--n", "0,3", "--grid", "0:0.3:16,0:75:16",
                     "--out", str(out)]) == 0
        validate_manifest(out / "manifest.json")
        params = OscillatorParams.from_depth(600.0)
        for n in (0, 3):
            _, (q, re_psit, im_psit, abs2) = read_csv(out / f"wavefun_momentum_n{n}.csv")
            assert np.isfinite(abs2).all() and abs2.max() > 0.0
            psit = psi_momentum(BoundStateLabel(n, params), q[5] / params.R)
            assert (re_psit[5], im_psit[5]) == (psit.real, psit.imag)

    def test_high_mode_momentum_matches_transform(self, tmp_path):
        # s = 30, n = 25: the printed 3F2's cancellation wrote abs2_psit up to
        # 111 here; the trapezoid holds it to the transform on the default axis
        out = tmp_path / "out"
        assert main(["wavefun", "--s", "30", "--n", "25", "--out", str(out)]) == 0
        _, (q, re_psit, im_psit, abs2) = read_csv(out / "wavefun_momentum_n25.csv")
        state = BoundStateLabel(25, OscillatorParams.from_depth(30.0))
        exact = shapiro_forward_1d(bound_sampler(state), q, 1.0, QuadratureSpec(1e-13, 1e-13))
        assert np.max(np.abs(abs2 - np.abs(exact) ** 2)) <= 1e-11
        assert not re_psit.any() and np.array_equal(abs2, im_psit ** 2)


def within_certificate(bound):
    """A bound widened by the engine's step-halving certificate,
    max(10 abs_tol, 1e-9 |value|), which every written value carries."""
    return bound + np.maximum(10.0 * QuadratureSpec().abs_tol, 1e-9 * bound)


def assert_within_bounds(command, out, state):
    """Every value a wavefun or wigner run wrote for ``state`` in ``out`` is
    within its bound: |psi~| within momentum_decay's, |W| within R/pi."""
    n = state.n
    if command == "wavefun":
        _, (q, re_psit, im_psit, _) = read_csv(out / f"wavefun_momentum_n{n}.csv")
        with np.errstate(over="ignore"):  # the bound exceeds a double at s = 2000, n = 1999
            bound = np.exp(momentum_decay(state, 0.5)(np.abs(q)))
        assert np.all(np.hypot(re_psit, im_psit) <= within_certificate(bound))
    else:
        _, (_, _, w) = read_csv(out / f"wigner_n{n}.csv")
        assert np.all(np.abs(w) <= within_certificate(1.0 / math.pi))


@pytest.mark.parametrize("argv", [
    "wigner --s 2000 --n 150,175 --grid 0:0.3:5,0:2:5",
    "wigner --s 2000 --n 200 --grid 0:0.3:5,0:2:5",
    "wigner --s 2000 --n 500 --grid 0:0.3:5,0:2:5",
    "wavefun --s 2000 --n 200",
    "wavefun --s 2000 --n 500",
])
def test_high_modes_exit_with_documented_codes(tmp_path, argv):
    # past n ~ 180 at s = 2000 the profile's Gegenbauer factor passes the
    # double range where sech^sigma underflows; carried with its exponent, the
    # run exits 0 within its bounds, never exit 1 with a traceback
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "curvedwigner.cli", *argv.split(), "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    command, _, s, _, modes = argv.split()[:5]
    for n in map(int, modes.split(",")):
        assert_within_bounds(command, tmp_path, BoundStateLabel(n, OscillatorParams.from_depth(float(s))))


# modes 0, floor(s / 2) and the top normalizable level of each depth
CONTRACT_STATES = [(0.5, 0)] + [(s, n) for s, top in ((4.2, 4), (30.0, 29), (200.0, 199),
                                                      (2000.0, 1999))
                                for n in (0, int(s // 2), top)]


@pytest.mark.parametrize("s, n", CONTRACT_STATES)
def test_cli_contract_across_depths_and_modes(tmp_path, capsys, s, n):
    # each run exits 0 with every written value within its bound (s = 2000,
    # n = 1000 included, where psi's Gegenbauer factor passes the double
    # range at chi = 0); nothing raises out of main
    state = BoundStateLabel(n, OscillatorParams.from_depth(s))
    for command, grid in (("wavefun", "0:2:9,0:8:9"), ("wigner", "0:1:3,0:8:3")):
        out = tmp_path / command
        code = main([command, "--s", repr(s), "--n", str(n), "--grid", grid, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert_within_bounds(command, out, state)


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

    def test_axes_spanning_negative_values(self, tmp_path):
        # both axes already span negative values: rendered as they stand
        out = tmp_path / "out"
        rc = main(["wigner", "--s", "4", "--n", "1", "--grid=-1:2:7,-3:3:5",
                   "--out", str(out)])
        assert rc == 0
        doc = validate_manifest(out / "manifest.json")
        kinds = sorted(e["kind"] for e in doc["files"])
        assert kinds == ["marginal_csv", "marginal_csv", "wigner_csv", "wigner_pgm"]
        w, h, _, _ = read_pgm(out / "wigner_n1.pgm")
        assert (w, h) == (7, 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["0:2:9,0.5:6:9", "-1:2:7,-3:3:5"])
    def test_marginal_files_are_exact_densities(self, tmp_path, grid):
        # also for axes that start above 0 or span negative values
        out = tmp_path / "out"
        assert main(["wigner", "--s", "4", "--n", "0,3", f"--grid={grid}",
                     "--format", "csv", "--out", str(out)]) == 0
        params = OscillatorParams.from_depth(4.0)
        for n in (0, 3):
            state = BoundStateLabel(n, params)
            _, (chi, dens) = read_csv(out / f"wigner_n{n}_marginal_position.csv")
            _, (q, densp) = read_csv(out / f"wigner_n{n}_marginal_momentum.csv")
            np.testing.assert_array_equal(dens, psi_bound(state, chi) ** 2)
            np.testing.assert_array_equal(densp, np.abs(psi_momentum(state, q / params.R)) ** 2)

    def test_uncertified_grid_exits_numeric(self, tmp_path, monkeypatch, capsys):
        from curvedwigner import wigner

        monkeypatch.setattr(wigner, "spectral_step", lambda q_max, state, c, spec: 1.5)
        rc = main(["wigner", "--s", "4", "--n", "0", "--grid", "0:2:12,0:4:10",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "not certified" in capsys.readouterr().err

    def test_axis_far_past_the_horizon(self, tmp_path):
        # rows past the state's horizon are written as 0 without evaluating
        # the correlation, so a chi axis to 1e9 costs what its first row does
        out = tmp_path / "out"
        assert main(["wigner", "--s", "4", "--n", "0", "--grid", "0:1e9:5,0:2:5",
                     "--out", str(out)]) == 0
        _, (chi, _, w) = read_csv(out / "wigner_n0.csv")
        assert (w[chi > 0.0] == 0.0).all() and (w[chi == 0.0] > 0.0).all()

    def test_momentum_axis_far_past_the_cut(self, tmp_path):
        # columns past the state's momentum cut are written as 0 without
        # evaluating them, so a pR axis to 1e9 costs what its first column does
        out = tmp_path / "out"
        assert main(["wigner", "--s", "4", "--n", "0", "--grid", "0:3:5,0:1e9:5",
                     "--out", str(out)]) == 0
        _, (_, q, w) = read_csv(out / "wigner_n0.csv")
        assert (w[q > 0.0] == 0.0).all() and (w[q == 0.0] > 0.0).all()

    def test_exact_depth_label(self, tmp_path):
        out = tmp_path / "out"
        assert main(["wigner", "--s", "4", "--n", "0", "--grid", "0:2:3,0:4:3",
                     "--out", str(out)]) == 0
        assert (out / "wigner_n0.csv").read_text().splitlines()[1] == "# n=0 s=4 R=1"

    def test_deep_well_runs(self, tmp_path):
        # s = 600: the envelope amplitude N 4^(s-n) C_n(1) alone overflows a double
        out = tmp_path / "out"
        assert main(["wigner", "--s", "600", "--n", "0,3", "--grid", "0:0.2:8,0:80:8",
                     "--out", str(out)]) == 0
        validate_manifest(out / "manifest.json")
        for n in (0, 3):
            _, (_, _, w) = read_csv(out / f"wigner_n{n}.csv")
            assert np.isfinite(w).all() and np.abs(w).max() > 0.0


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

    def test_deep_well_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["figure1", "--s", "600", "--n", "0,3", "--grid", "0:4:8,0:4:8",
                     "--out", str(out)]) == 0
        validate_manifest(out / "manifest.json")
        _, (_, _, w) = read_csv(out / "figure1_s600_n3.csv")
        assert np.isfinite(w).all() and np.abs(w).max() > 0.0


@pytest.fixture(scope="module")
def default_figure1(tmp_path_factory):
    out = tmp_path_factory.mktemp("figure1_default")
    run_figure1(RunConfig(command="figure1", out_dir=str(out)))
    return out


def test_default_figure1_marginals_match_exact_densities(default_figure1):
    cfg = RunConfig(command="figure1")
    worst = {}
    for s in FIGURE1_DEPTHS:
        params = OscillatorParams.from_depth(s, mu=cfg.mu, R=cfg.radius)
        for n in cfg.n_list:
            state = BoundStateLabel(n, params)
            stem = f"figure1_s{s:g}_n{n}"
            _, (chi, dens) = read_csv(default_figure1 / f"{stem}_marginal_position.csv")
            _, (q, densp) = read_csv(default_figure1 / f"{stem}_marginal_momentum.csv")
            exact_p = np.abs(psi_momentum(state, q / params.R)) ** 2
            for name, got, exact in [(f"{stem}_marginal_position.csv", dens,
                                      psi_bound(state, chi) ** 2),
                                     (f"{stem}_marginal_momentum.csv", densp, exact_p)]:
                worst[name] = max(float(np.max(np.abs(got - exact))), -float(got.min()))
    assert len(worst) == 16
    bad = {k: v for k, v in worst.items() if v > 1e-8}
    assert not bad, f"largest miss {max(bad.values()):.3g} in {max(bad, key=bad.get)}"


def _without_times(results):
    return [(r.name, r.passed, r.detail, {k: v for k, v in r.data.items() if k != "elapsed_s"})
            for r in results]


@pytest.fixture(scope="module")
def direct_verify_results():
    """Every criterion called directly, in suite order, without its times."""
    from curvedwigner import verify as vf

    return _without_times([fn(1.0) for fn in vf.ALL_CRITERIA])


@pytest.fixture
def toy_pair(monkeypatch):
    """Patches in W = 2 and two toy criteria, one per process: the worker's
    calls ``in_worker()``; the parent's waits (30 s at most) until the worker
    has begun its own, then calls ``in_parent()``."""
    from curvedwigner import verify as vf

    parent, fds = os.getpid(), []
    monkeypatch.setattr(vf, "_usable_cpus", lambda: 2)

    def patch(in_worker, in_parent):
        begun_r, begun_w = os.pipe()
        fds.extend((begun_r, begun_w))

        def toy(tol_scale):
            if os.getpid() != parent:
                os.write(begun_w, b"1")
                return in_worker()
            select.select([begun_r], [], [], 30.0)
            return in_parent()

        monkeypatch.setattr(vf, "ALL_CRITERIA", [toy, toy])

    yield patch
    for fd in fds:
        os.close(fd)


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

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_run_all_equals_direct_calls(self, monkeypatch, direct_verify_results, cpus):
        # W = 1 runs every criterion in this process, W = 3 in it and two workers
        from curvedwigner import verify as vf

        monkeypatch.setattr(vf, "_usable_cpus", lambda: cpus)
        lines, echo = collect()
        results, ok = vf.run_all(echo=echo)
        assert _without_times(results) == direct_verify_results
        assert lines == [r.line for r in results]
        assert ok == all(r.passed for r in results)
        assert all(r.data["elapsed_s"] >= 0.0 for r in results)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_keeps_its_type_and_exit_code(self, toy_pair, tmp_path):
        from curvedwigner import verify as vf

        def not_certified():
            raise PrecisionLossError("toy criterion not certified")

        def passing():
            return vf.CriterionResult("toy_pass", True, "ok")

        toy_pair(not_certified, passing)
        with pytest.raises(PrecisionLossError, match="toy criterion") as info:
            vf.run_all(echo=None)
        assert "in a verify worker" in str(info.value.__cause__)
        toy_pair(not_certified, passing)
        assert main(["verify", "--out", str(tmp_path)]) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupt_reaps_a_busy_worker(self, toy_pair):
        from curvedwigner import verify as vf

        def interrupt():
            raise KeyboardInterrupt

        toy_pair(lambda: time.sleep(30.0), interrupt)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            vf.run_all(echo=None)
        assert time.perf_counter() - t0 < 10.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_criterion_starts_after_one_raises(self, monkeypatch):
        from curvedwigner import verify as vf

        def not_certified(tol_scale):
            raise PrecisionLossError("toy criterion not certified")

        started = []
        monkeypatch.setattr(vf, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(vf, "ALL_CRITERIA", [not_certified, started.append])
        with pytest.raises(PrecisionLossError):
            vf.run_all(echo=None)
        assert started == []
