"""Command-line front end.

Subcommands: eigen, wavefun, wigner, figure1, verify.  COMMANDS lists the
RunConfig fields each one reads; a command takes the flags of those fields
(FLAGS) and --config, a JSON file whose keys may name only those fields.
Flags override the file, and the manifest echoes exactly those fields but
out_dir, so it does not depend on where a run writes.

wigner (raw axes per mode) and figure1 (scaled axes per (depth, mode)) only
describe their panels; ``_write_panels`` writes each one: the certified
engine's grid, its exact marginals (``wigner.exact_marginals``), its CSV
and PGM.  Every state is checked before anything is written.
Exit codes: 0 success, 2 configuration error (a negative --s or --omega
among them), 3 numeric nonconvergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, CurvedWignerError, DomainError, exit_code_for
from .oscillator import (
    BoundStateLabel,
    OscillatorParams,
    at_threshold,
    bound_state_count,
    energy,
    psi_bound,
    psi_momentum,
)
from .wigner import exact_marginals, wigner_grid
from .artifacts import emit_csv, emit_grid_csv, emit_pgm, write_manifest

__all__ = ["GridSpec", "RunConfig", "main",
           "run_eigen", "run_wavefun", "run_wigner", "run_figure1", "run_verify"]

FIGURE1_DEPTHS = (4.0, 30.0)
FIGURE1_GRID_EXTENT = 4.0
FIGURE1_GRID_POINTS = 256
_OSCILLATOR = ("mu", "omega", "s", "radius")
# Per command: its help text and the RunConfig fields it reads.
COMMANDS = {
    "eigen": ("bound spectrum", _OSCILLATOR + ("out_dir",)),
    "wavefun": ("wavefunction tables (position and momentum)",
                _OSCILLATOR + ("n_list", "grid", "out_dir")),
    "wigner": ("Wigner grids on a raw (chi, pR) grid",
               _OSCILLATOR + ("n_list", "grid", "out_dir", "formats")),
    "figure1": ("figure-1 panels on scaled axes",
                ("mu", "s", "radius", "n_list", "grid", "out_dir", "formats")),
    "verify": ("acceptance verification suite", ("out_dir", "tol")),
}


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid.  For the figure1 command the axes are in
    scaled units (chi sqrt(s), pR / sqrt(s)); elsewhere they are raw
    (chi, pR)."""

    chi_min: float
    chi_max: float
    n_chi: int
    p_min: float
    p_max: float
    n_p: int

    def __post_init__(self):
        if not all(isinstance(v, Integral) and not isinstance(v, bool)
                   for v in (self.n_chi, self.n_p)):
            raise ConfigError("grid point counts must be integers")
        if not all(isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)
                   for v in (self.chi_min, self.chi_max, self.p_min, self.p_max)):
            raise ConfigError("grid extents must be finite numbers")
        if self.n_chi < 2 or self.n_p < 2:
            raise ConfigError("grid needs at least 2 points per axis")
        if not (self.chi_max > self.chi_min and self.p_max > self.p_min):
            raise ConfigError("grid extents must be increasing")

    def chi_axis(self):
        return np.linspace(self.chi_min, self.chi_max, self.n_chi)

    def p_axis(self):
        return np.linspace(self.p_min, self.p_max, self.n_p)


@dataclass(frozen=True)
class RunConfig:
    command: str
    mu: float = 1.0
    omega: float | None = None
    s: float | None = None
    radius: float = 1.0
    n_list: tuple = (0, 1, 2, 3)
    grid: GridSpec | None = None
    out_dir: str | None = None
    formats: tuple = ("csv", "pgm")
    tol: float = 1.0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        numbers = (self.mu, self.omega, self.s, self.radius, self.tol)
        if any(isinstance(v, bool) for v in (*numbers, *self.n_list)):
            raise ConfigError("mu, omega, s, R, tol and the mode list take numbers, "
                              "not booleans")
        if not all(v is None or math.isfinite(v) for v in numbers):
            raise ConfigError("mu, omega, s, R and tol must be finite numbers")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError("the output directory must be a string")
        if self.omega is not None and self.s is not None:
            raise ConfigError("give either --omega or --s, not both")
        if self.mu <= 0 or self.radius <= 0:
            raise ConfigError("mu and R must be positive")
        if any(v is not None and v < 0 for v in (self.omega, self.s)):
            raise ConfigError("omega and s must be non-negative")
        if self.tol <= 0:
            raise ConfigError("tolerance scale must be positive")
        if not self.n_list or any(not (0 <= n < math.inf) or n != int(n) for n in self.n_list):
            raise ConfigError("mode list must be a non-empty list of non-negative integers")
        # a mode names files: 2.0 from a config file is mode 2, and no mode twice
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if len(set(self.n_list)) != len(self.n_list):
            raise ConfigError(f"mode list {list(self.n_list)} repeats a mode")
        if not self.formats or any(f not in ("csv", "pgm") for f in self.formats):
            raise ConfigError("formats must be a non-empty subset of {csv, pgm}")

    def params(self) -> OscillatorParams:
        if self.s is not None:
            return OscillatorParams.from_depth(self.s, mu=self.mu, R=self.radius)
        if self.omega is None:
            raise ConfigError("need --omega or --s to fix the oscillator")
        return OscillatorParams(self.mu, self.omega, self.radius)


def _parse_grid(text: str) -> GridSpec:
    try:
        chi_part, p_part = text.split(",")
        c0, c1, nc = chi_part.split(":")
        p0, p1, npts = p_part.split(":")
        return GridSpec(float(c0), float(c1), int(nc), float(p0), float(p1), int(npts))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad --grid (want CHI_MIN:CHI_MAX:N,P_MIN:P_MAX:N): {exc}") from exc


def _parse_modes(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --n list: {exc}") from exc


def _load_config_file(path: str, command: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - set(COMMANDS[command][1])
    if unknown:
        raise ConfigError(f"{path}: config keys {sorted(unknown)} are not read by {command}")
    if "grid" in doc and doc["grid"] is not None:
        try:
            doc["grid"] = GridSpec(**doc["grid"])
        except TypeError as exc:
            raise ConfigError(f"{path}: bad grid object ({exc})") from exc
    for key in ("n_list", "formats"):
        if key in doc:
            if not isinstance(doc[key], list):
                raise ConfigError(f"{path}: {key} must be a JSON array")
            doc[key] = tuple(doc[key])
    return doc


def _out_dir(config: RunConfig) -> Path:
    if config.out_dir is None:
        raise ConfigError("this command needs --out DIR")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checked_state(n: int, params: OscillatorParams) -> BoundStateLabel:
    try:
        return BoundStateLabel(n, params)
    except DomainError as exc:
        raise ConfigError(
            f"mode n={n} is outside the normalizable bound range for s={params.s:g}: it "
            f"needs s - n > 0 ({bound_state_count(params)} level(s), the top one at "
            f"threshold when s is whole)") from exc


def _config_echo(config: RunConfig) -> dict:
    """The fields the command reads, without ``out_dir``: a manifest does
    not depend on where the run wrote it."""
    doc = asdict(config)
    return {key: doc[key] for key in ("command", *COMMANDS[config.command][1])
            if key != "out_dir"}


def run_eigen(config: RunConfig, echo=print) -> list[tuple[int, float]]:
    """Print (and optionally write) the bound spectrum."""
    params = config.params()
    count = bound_state_count(params)
    rows = [(n, energy(n, params)) for n in range(count)]
    echo(f"s = {params.s:.15g}")
    echo(f"E0 (binding threshold) = {params.E0:.15g}")
    echo(f"bound states: {count}")
    if count == 0:
        echo("(the omega = 0 well is empty: its only candidate level sits at "
             "threshold with a vanishing profile)")
    for n, e in rows:
        marker = "  (threshold level: zero-norm profile)" if at_threshold(n, params) else ""
        echo(f"  n={n:3d}  E={e:.15g}{marker}")
    if config.out_dir is not None:
        out = _out_dir(config)
        emit_csv(out / "eigen.csv", ["n", "E"],
                 [[float(n) for n, _ in rows], [e for _, e in rows]],
                 comments=[f"s={params.s!r} E0={params.E0!r}"])
    return rows


def run_wavefun(config: RunConfig) -> Path:
    """Position and momentum wavefunction tables for each requested mode."""
    params = config.params()
    grid = config.grid or GridSpec(0.0, 5.0, 256, 0.0, 8.0, 256)
    chi, qs = grid.chi_axis(), grid.p_axis()
    states = [_checked_state(n, params) for n in config.n_list]
    out = _out_dir(config)
    files = []
    for state in states:
        n, label = state.n, [f"n={state.n} s={params.s!r} R={params.R!r}"]
        f1 = emit_csv(out / f"wavefun_n{n}.csv", ["chi", "psi"], [chi, psi_bound(state, chi)],
                      comments=label)
        psit = psi_momentum(state, qs / params.R)
        f2 = emit_csv(out / f"wavefun_momentum_n{n}.csv",
                      ["pR", "re_psit", "im_psit", "abs2_psit"],
                      [qs, psit.real, psit.imag, [abs(z) ** 2 for z in psit.tolist()]],
                      comments=label)
        files += [(f1, "wavefun_csv"), (f2, "wavefun_momentum_csv")]
    return write_manifest(out, files, _config_echo(config), __version__)


def _write_panels(config: RunConfig, panels) -> Path:
    """Per (state, chi_axis, pR_axis, stem) of ``panels``: the engine grid's
    two exact marginal CSVs, then its CSV and PGM as ``config.formats``
    asks, one grid alive at a time; then the run's manifest."""
    out = _out_dir(config)
    files = []
    for state, chi_axis, pR_axis, stem in panels:
        grid = wigner_grid(state, chi_axis, pR_axis)
        position, momentum = exact_marginals(state, grid.chi_axis, grid.pR_axis)
        files += [(emit_csv(out / f"{stem}_marginal_position.csv", ["chi", "prob_density"],
                            [grid.chi_axis, position]), "marginal_csv"),
                  (emit_csv(out / f"{stem}_marginal_momentum.csv", ["pR", "prob_density"],
                            [grid.pR_axis, momentum]), "marginal_csv")]
        if "csv" in config.formats:
            files.append((emit_grid_csv(grid, out / f"{stem}.csv"), "wigner_csv"))
        if "pgm" in config.formats:
            files.append((emit_pgm(grid, out / f"{stem}.pgm"), "wigner_pgm"))
        del grid  # one grid alive at a time
    return write_manifest(out, files, _config_echo(config), __version__)


def run_wigner(config: RunConfig) -> Path:
    """Wigner grids on a raw (chi, pR) grid for each requested mode."""
    params = config.params()
    grid = config.grid or GridSpec(0.0, 3.0, 128, 0.0, 8.0, 128)
    chi_axis, q_axis = grid.chi_axis(), grid.p_axis()
    return _write_panels(config, [(_checked_state(n, params), chi_axis, q_axis, f"wigner_n{n}")
                                  for n in config.n_list])


def run_figure1(config: RunConfig) -> Path:
    """Reproduce the figure-1 artifact set: per (depth, mode) one grayscale
    panel on scaled axes (chi sqrt(s), pR / sqrt(s)) plus the grid CSV and
    the two marginal files."""
    grid = config.grid or GridSpec(0.0, FIGURE1_GRID_EXTENT, FIGURE1_GRID_POINTS,
                                   0.0, FIGURE1_GRID_EXTENT, FIGURE1_GRID_POINTS)
    panels = []
    for s in (config.s,) if config.s is not None else FIGURE1_DEPTHS:
        params = OscillatorParams.from_depth(float(s), mu=config.mu, R=config.radius)
        # the states first: s = 0 has none, and its axes would divide by sqrt(0)
        states = [_checked_state(n, params) for n in config.n_list]
        root_s = math.sqrt(params.s)
        chi_axis, q_axis = grid.chi_axis() / root_s, grid.p_axis() * root_s
        panels += [(state, chi_axis, q_axis, f"figure1_s{s:g}_n{state.n}") for state in states]
    return _write_panels(config, panels)


def run_verify(config: RunConfig, echo=print) -> int:
    """Run the acceptance suite; returns the process exit code."""
    from .verify import run_all, write_report

    results, ok = run_all(tol_scale=config.tol, echo=echo)
    if config.out_dir is not None:
        out = _out_dir(config)
        write_report(results, out / "verify_report.json", tol_scale=config.tol)
        echo(f"report: {out / 'verify_report.json'}")
    return 0 if ok else 1


# The flag of each RunConfig field.  The converters raise ConfigError, which
# argparse lets through to main (exit 2, like every other configuration error).
FLAGS = {
    "mu": ("--mu", {"type": float}),
    "omega": ("--omega", {"type": float}),
    "s": ("--s", {"type": float}),
    "radius": ("--R", {"type": float}),
    "n_list": ("--n", {"type": _parse_modes, "help": "comma-separated mode list, e.g. 0,1,2,3"}),
    "grid": ("--grid", {"type": _parse_grid, "help": "CHI_MIN:CHI_MAX:N,P_MIN:P_MAX:N"}),
    "out_dir": ("--out", {}),
    "formats": ("--format", {"type": lambda text: tuple(tok for tok in text.split(",") if tok),
                             "help": "comma-separated subset of csv,pgm"}),
    "tol": ("--tol", {"type": float, "help": "tolerance scale (1.0 = nominal)"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedwigner",
        description="Wigner functions of the conic (Poschl-Teller) oscillator "
                    "on a hyperbola.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, reads) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for field in reads:
            flag, options = FLAGS[field]
            p.add_argument(flag, dest=field, default=None, **options)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    flags = vars(args)
    doc = _load_config_file(args.config, args.command) if args.config else {}
    doc.update({key: flags[key] for key in COMMANDS[args.command][1] if flags[key] is not None})
    try:
        return RunConfig(command=args.command, **doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    try:
        config = _config_from_args(_build_parser().parse_args(argv))
        if config.command == "eigen":
            run_eigen(config)
        elif config.command == "wavefun":
            print(run_wavefun(config))
        elif config.command == "wigner":
            print(run_wigner(config))
        elif config.command == "figure1":
            print(run_figure1(config))
        elif config.command == "verify":
            return run_verify(config)
        return 0
    except CurvedWignerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
