"""Independent check of the Wigner grids a CLI run wrote, read back from its
CSVs.

Each sampled grid point is one operation.  W_quad is
``wigner_quadrature_1d`` at abs_tol = rel_tol = 1e-12.  A point *fails* when
|W_csv - W_quad| exceeds max(1e-9, 2e-6 |W_quad|), the bound the
cancellation guard claims to certify.  Separately a point is *wrong* when
its error exceeds 1e-3 of the largest |W_quad| sampled from its panel: below
one gray level of the rendered panel, far above any certification
shortfall, so it flags a broken program rather than an uncertified digit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from curvedwigner.oscillator import BoundStateLabel, OscillatorParams, bound_sampler
from curvedwigner.quadrature import QuadratureSpec
from curvedwigner.wigner import wigner_quadrature_1d

ORACLE_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
GROSS_SHARE = 1e-3


@dataclass
class OracleResult:
    points: int = 0
    failed: int = 0
    wrong: int = 0
    err_ratio_max: float = 0.0
    files: dict = field(default_factory=dict)

    def add(self, path: str, errors, bounds, refs) -> None:
        scale = GROSS_SHARE * max(refs)
        ratios = [e / b for e, b in zip(errors, bounds)]
        failed = sum(r > 1.0 for r in ratios)
        wrong = sum(not e <= scale for e in errors)
        self.points += len(ratios)
        self.failed += failed
        self.wrong += wrong
        self.err_ratio_max = max(self.err_ratio_max, max(ratios))
        self.files[path] = {"points": len(ratios), "failed": failed, "wrong": wrong,
                            "err_ratio_max": max(ratios)}


def _read_sample(path: Path, k: int, rng: random.Random):
    """(comment lines, sampled rows as float lists) of an emit_csv file."""
    comments, rows = [], []
    header_seen = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif not header_seen:
            header_seen = True
        elif line:
            rows.append(line)
    picks = sorted(rng.sample(range(len(rows)), min(k, len(rows))))
    return comments, [[float(t) for t in rows[i].split(",")] for i in picks]


def _state(comments, mu: float) -> BoundStateLabel:
    """Bound state from the ``n=.. s=.. R=..`` comment of a grid CSV."""
    for c in comments:
        fields = dict(tok.split("=", 1) for tok in c.split() if "=" in tok)
        if {"n", "s", "R"} <= fields.keys():
            params = OscillatorParams.from_depth(float(fields["s"]), mu=mu, R=float(fields["R"]))
            return BoundStateLabel(int(fields["n"]), params)
    raise ValueError("table has no n/s/R comment")


def check_run(out_dir: Path, per_file: int, rng: random.Random) -> OracleResult:
    """Sample ``per_file`` points of every grid CSV listed in the run's manifest."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    mu = float(manifest["config"]["mu"])
    result = OracleResult()
    for entry in manifest["files"]:
        if entry["kind"] != "wigner_csv":
            continue
        comments, rows = _read_sample(out_dir / entry["path"], per_file, rng)
        state = _state(comments, mu)
        R = state.params.R
        f = bound_sampler(state)
        errors, bounds, refs = [], [], []
        for chi, q, w in rows:
            ref = wigner_quadrature_1d(f, f, chi, q / R, R, ORACLE_SPEC).real
            err = abs(w - ref)
            errors.append(err if math.isfinite(err) else math.inf)
            bounds.append(max(1e-9, 2e-6 * abs(ref)))
            refs.append(abs(ref))
        result.add(entry["path"], errors, bounds, refs)
    return result
