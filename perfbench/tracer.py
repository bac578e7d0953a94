"""Span recorder for the curvedwigner layers, attached from outside.

``install`` wraps the public functions of every package module in place:
each module attribute that refers to a wrapped function is rebound to the
wrapper, so calls that look the function up at call time (``cli`` importing
``wigner_grid`` into its own namespace, ``wigner`` calling
``wigner_quadrature_1d`` and ``log_gamma`` through its globals, the
``verify.ALL_CRITERIA`` list) all pass through it.  No library file changes.

A span is (name, start, end, parent), with the parent being the nearest
enclosing wrapped call.  Spans and counters stay in memory and are written
once, by ``Recorder.dump``, when the traced process ends.  ``layer_metrics``
turns a dump into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

import numpy as np

VERIFY_CRITERIA = [
    "oracle_equivalence", "marginals", "spectrum", "eigenfunctions",
    "special_functions", "contraction", "geometry", "norm_factors",
    "momentum_calibration", "reproducibility",
]

# (metric name, unit) in report order
LAYER_METRICS = [
    ("cli.panel_s", "s"),
    ("wigner.grid_s", "s"),
    ("wigner.grid_self_s", "s"),
    ("wigner.grid_calls", "count"),
    ("wigner.grid_points", "count"),
    ("wigner.fallback_points", "count"),
    ("wigner.certified_share", "ratio"),
    ("wigner.quad_calls.guard", "count"),
    ("wigner.quad_calls.strip", "count"),
    ("wigner.quad_s", "s"),
    ("wigner.marginal_s", "s"),
    ("quadrature.agk_calls", "count"),
    ("quadrature.agk_s", "s"),
    ("quadrature.agk_samples", "count"),
    ("oscillator.psi_bound_calls", "count"),
    ("oscillator.psi_bound_samples", "count"),
    ("oscillator.psi_momentum_calls", "count"),
    ("oscillator.psi_momentum_s", "s"),
    ("oscillator.calibration_s", "s"),
    ("specfun.log_gamma_calls", "count"),
    ("specfun.hyper_3f2_calls", "count"),
    ("specfun.hyper_3f2_s", "s"),
    ("geometry.shapiro_forward_calls", "count"),
    ("geometry.shapiro_forward_s", "s"),
    ("geometry.geodesic_pair_s", "s"),
    ("artifacts.csv_s", "s"),
    ("artifacts.csv_bytes", "bytes"),
    ("artifacts.pgm_s", "s"),
    ("artifacts.manifest_s", "s"),
    ("artifacts.hashed_bytes", "bytes"),
] + [(f"verify.{c}_s", "s") for c in VERIFY_CRITERIA]


class Recorder:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, fn, name: str, before=None, after=None):
        """Wrap ``fn`` so every call records a span called ``name``.

        ``before(args, kwargs)`` may return replacement arguments;
        ``after(args, result)`` sees the result.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        """Wrap ``fn`` so every call only bumps counter ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        np.savez(path,
                 name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 names=np.array(self.names, dtype=str),
                 counters=np.array(json.dumps(self.counters)))


def _rebind(old, new) -> None:
    """Point every package-module attribute that holds ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "curvedwigner" or mod_name.startswith("curvedwigner.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries of every curvedwigner module."""
    from curvedwigner import artifacts, cli, geometry, oscillator, quadrature, specfun, verify, wigner

    def sized(path) -> int:
        return os.stat(path).st_size

    def quad_before(args, kwargs):
        chi = args[2] if len(args) > 2 else kwargs["chi"]
        rec.count("wigner.quad_calls.guard" if abs(chi) >= wigner.CHI_MIN else "wigner.quad_calls.strip")
        return args, kwargs

    def grid_after(args, grid):
        rec.count("wigner.grid_points", grid.values.size)
        rec.count("wigner.fallback_points", grid.fallback_points)

    def agk_before(args, kwargs):
        f = args[0]

        def counting(x):
            rec.count("quadrature.agk_samples", np.size(x))
            return f(x)

        return (counting,) + tuple(args[1:]), kwargs

    def psi_bound_before(args, kwargs):
        chi = args[1] if len(args) > 1 else kwargs["chi"]
        rec.count("oscillator.psi_bound_samples", np.size(chi))
        return args, kwargs

    def csv_after(args, path):
        rec.count("artifacts.csv_bytes", sized(path))

    def sha_before(args, kwargs):
        rec.count("artifacts.hashed_bytes", sized(args[0]))
        return args, kwargs

    spans = [
        (cli, "run_eigen", None, None),
        (cli, "run_wavefun", None, None),
        (cli, "run_wigner", None, None),
        (cli, "run_figure1", None, None),
        (cli, "run_verify", None, None),
        (wigner, "wigner_grid", None, grid_after),
        (wigner, "wigner_quadrature_1d", quad_before, None),
        (wigner, "marginal_momentum_integrated", None, None),
        (wigner, "marginal_position_integrated", None, None),
        (wigner, "total_probability", None, None),
        (quadrature, "adaptive_gauss_kronrod", agk_before, None),
        (oscillator, "psi_bound", psi_bound_before, None),
        (oscillator, "psi_momentum", None, None),
        (oscillator, "momentum_calibration", None, None),
        (specfun, "hyper_3f2_terminating", None, None),
        (geometry, "shapiro_forward_1d", None, None),
        (geometry, "geodesic_pair", None, None),
        (artifacts, "emit_csv", None, csv_after),
        (artifacts, "emit_grid_csv", None, None),
        (artifacts, "emit_pgm", None, None),
        (artifacts, "write_manifest", None, None),
        (artifacts, "validate_manifest", None, None),
        (artifacts, "_sha256", sha_before, None),
    ]
    for mod, attr, before, after in spans:
        old = getattr(mod, attr)
        layer = mod.__name__.rsplit(".", 1)[-1]
        _rebind(old, rec.span(old, f"{layer}.{attr}", before, after))
    _rebind(specfun.log_gamma, rec.counted(specfun.log_gamma, "specfun.log_gamma_calls"))
    verify.ALL_CRITERIA[:] = [rec.span(fn, f"verify.{fn.__name__.removeprefix('criterion_')}_s")
                              for fn in verify.ALL_CRITERIA]


class _Spans:
    """Read-only view of one dump with the sums the metrics need."""

    def __init__(self, path):
        with np.load(path) as z:
            self.names = [str(n) for n in z["names"]]
            self.name_idx = z["name_idx"]
            self.dur = z["end"] - z["start"]
            self.parent = z["parent"]
            self.counters = json.loads(str(z["counters"]))
        has_parent = self.parent >= 0
        self.child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                      minlength=len(self.dur))

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_idx, ids)

    def total(self, *names) -> float:
        """Time in the named spans, counting nested ones among them once."""
        m = self.mask(*names)
        outer = m.copy()
        nested = self.parent >= 0
        outer[nested] &= ~m[self.parent[nested]]
        return float(self.dur[outer].sum())

    def calls(self, name) -> int:
        return int(self.mask(name).sum())


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation."""
    sp = _Spans(path)
    c = sp.counters
    grid = sp.mask("wigner.wigner_grid")
    commands = sp.mask("cli.run_figure1", "cli.run_wigner")
    panels = int((grid & (sp.parent >= 0) & commands[np.maximum(sp.parent, 0)]).sum())
    points = c.get("wigner.grid_points", 0)
    fallbacks = c.get("wigner.fallback_points", 0)
    out = {
        "cli.panel_s": sp.total("cli.run_figure1", "cli.run_wigner") / panels if panels else 0.0,
        "wigner.grid_s": sp.total("wigner.wigner_grid"),
        "wigner.grid_self_s": float((sp.dur[grid] - sp.child_time[grid]).sum()),
        "wigner.grid_calls": sp.calls("wigner.wigner_grid"),
        "wigner.grid_points": points,
        "wigner.fallback_points": fallbacks,
        "wigner.certified_share": (points - fallbacks) / points if points else 0.0,
        "wigner.quad_calls.guard": c.get("wigner.quad_calls.guard", 0),
        "wigner.quad_calls.strip": c.get("wigner.quad_calls.strip", 0),
        "wigner.quad_s": sp.total("wigner.wigner_quadrature_1d"),
        "wigner.marginal_s": sp.total("wigner.marginal_momentum_integrated",
                                      "wigner.marginal_position_integrated",
                                      "wigner.total_probability"),
        "quadrature.agk_calls": sp.calls("quadrature.adaptive_gauss_kronrod"),
        "quadrature.agk_s": sp.total("quadrature.adaptive_gauss_kronrod"),
        "quadrature.agk_samples": c.get("quadrature.agk_samples", 0),
        "oscillator.psi_bound_calls": sp.calls("oscillator.psi_bound"),
        "oscillator.psi_bound_samples": c.get("oscillator.psi_bound_samples", 0),
        "oscillator.psi_momentum_calls": sp.calls("oscillator.psi_momentum"),
        "oscillator.psi_momentum_s": sp.total("oscillator.psi_momentum"),
        "oscillator.calibration_s": sp.total("oscillator.momentum_calibration"),
        "specfun.log_gamma_calls": c.get("specfun.log_gamma_calls", 0),
        "specfun.hyper_3f2_calls": sp.calls("specfun.hyper_3f2_terminating"),
        "specfun.hyper_3f2_s": sp.total("specfun.hyper_3f2_terminating"),
        "geometry.shapiro_forward_calls": sp.calls("geometry.shapiro_forward_1d"),
        "geometry.shapiro_forward_s": sp.total("geometry.shapiro_forward_1d"),
        "geometry.geodesic_pair_s": sp.total("geometry.geodesic_pair"),
        "artifacts.csv_s": sp.total("artifacts.emit_csv", "artifacts.emit_grid_csv"),
        "artifacts.csv_bytes": c.get("artifacts.csv_bytes", 0),
        "artifacts.pgm_s": sp.total("artifacts.emit_pgm"),
        "artifacts.manifest_s": sp.total("artifacts.write_manifest", "artifacts.validate_manifest"),
        "artifacts.hashed_bytes": c.get("artifacts.hashed_bytes", 0),
    }
    for crit in VERIFY_CRITERIA:
        out[f"verify.{crit}_s"] = sp.total(f"verify.{crit}_s")
    return out
