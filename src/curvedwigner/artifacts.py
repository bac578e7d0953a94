"""Deterministic file artifacts: CSV tables, binary PGM images, and a
checksummed run manifest.

Identical inputs must produce byte-identical files, so every number is
formatted with repr-faithful precision (17 significant digits), no
timestamps are recorded, and JSON keys are sorted.

Both CSV routes write text pieces of at most _CSV_BLOCK_POINTS table
rows or grid values, each formed by one ``%`` of a line template: a table
repeats its one-row template over a block of rows; a grid file forms each
pR value's text once into one template per piece of the pR axis, and each
chi row fills in its chi text and its W values.  A file's text is never
held whole: beside its values a table holds one block of text, a grid
file the text of its pR axis.  The PGM quantises a block of rows at a
time.  Every writer rejects non-finite data before it opens its file;
checksums read files in chunks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .wigner import WignerGrid

__all__ = [
    "format_value",
    "emit_csv",
    "emit_grid_csv",
    "read_csv",
    "emit_pgm",
    "read_pgm",
    "write_manifest",
    "validate_manifest",
]

_CSV_BLOCK_POINTS = 2 ** 11  # values (table rows, or grid values) per formatted or quantised block


def format_value(v: float) -> str:
    """Locale-independent decimal with 17 significant digits (round-trips
    to the same double)."""
    return format(float(v), ".17g")


def _require_finite(*arrays):
    """Raise ValueError, before any file is opened, unless all entries are
    finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("artifact data must be finite")


def _write_csv(path: Path, header, comments, pieces) -> Path:
    """The one CSV writer: '#'-prefixed comment lines, one header row, then
    each text piece as it comes."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(header) + "\n")
        fh.writelines(pieces)
    return path


def emit_csv(path, column_names, columns, comments=()) -> Path:
    """Write columns (equal-length sequences) as comma-separated UTF-8 with
    one header row; '#'-prefixed comment lines may precede the header.  The
    rows are formatted and written _CSV_BLOCK_POINTS at a time."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(column_names) or not cols:
        raise ValueError("need one name per column")
    length = len(cols[0])
    if any(len(c) != length for c in cols):
        raise ValueError("columns must have equal length")
    _require_finite(*cols)
    row = ",".join(["%.17g"] * len(cols)) + "\n"  # "%.17g" % x == format_value(x)
    blocks = (np.column_stack([c[start:start + _CSV_BLOCK_POINTS] for c in cols])
              for start in range(0, length, _CSV_BLOCK_POINTS))
    pieces = (row * len(b) % tuple(b.reshape(-1).tolist()) for b in blocks)
    return _write_csv(Path(path), column_names, comments, pieces)


def emit_grid_csv(grid: WignerGrid, path) -> Path:
    """Grid values in row-major chi-outer order with axis columns
    (chi dimensionless, pR dimensionless, W in units of 1/(dchi dp)),
    formatted and written a chi row at a time, in pieces of at most
    _CSV_BLOCK_POINTS values."""
    chi, q, v = grid.chi_axis, grid.pR_axis, grid.values
    _require_finite(chi, q, v)
    # one line template per piece of the pR axis, each pR formatted once per
    # file: "C" (in no number's text) stands for chi, "%.17g" is W's slot
    templates = [(col, "".join("C,%.17g,%%.17g\n" % p
                               for p in q[col:col + _CSV_BLOCK_POINTS].tolist()))
                 for col in range(0, len(q), _CSV_BLOCK_POINTS)]
    pieces = (template.replace("C", "%.17g" % c)
              % tuple(v[i, col:col + _CSV_BLOCK_POINTS].tolist())
              for i, c in enumerate(chi.tolist()) for col, template in templates)
    state = grid.state
    meta = ["evaluator=spectral",
            f"n={state.n} s={format_value(state.s)} R={format_value(state.params.R)}"]
    return _write_csv(Path(path), ["chi", "pR", "W"], meta, pieces)


def read_csv(path):
    """Read back an emit_csv file; returns (column_names, columns)."""
    names = None
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        if names is None:
            names = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if names is None:
        raise ConfigError(f"{path}: no header row")
    data = np.asarray(rows, dtype=float).reshape(-1, len(names))
    return names, [data[:, i] for i in range(len(names))]


def _mirror_index(axis: np.ndarray) -> np.ndarray:
    """Index into the axis of each entry of the axis mirrored about 0 when
    it starts at or above 0 (its 0 entry kept once); an axis that already
    spans negative values stands as it is (as the marginals' fold treats
    it)."""
    idx = np.arange(len(axis))
    if axis[0] < -1e-12:
        return idx
    return np.concatenate([idx[::-1], idx[1 if abs(axis[0]) <= 1e-12 else 0:]])


def emit_pgm(grid: WignerGrid, path) -> Path:
    """Binary 8-bit grayscale PGM (magic P5, maxval 255) of the grid's
    reflected plane: an axis starting at or above 0 is mirrored about 0
    (W is even in chi and in p), one spanning negative values stands.

    Linear map: minimum -> 0 (black), maximum -> 255 (white); half-integer
    gray levels round to nearest-even.  A constant grid renders uniformly at
    gray 128.  One comment line records the value range and the gray level
    of value zero.  Rows run top to bottom from the largest pR; columns left
    to right with increasing chi.  The reflected plane holds the quadrant's
    values only, so its range is the quadrant's: the quadrant is quantised
    and its uint8 levels are mirrored.
    """
    path = Path(path)
    v = grid.values
    _require_finite(grid.chi_axis, grid.pR_axis, v)
    vmin, vmax = float(v.min()), float(v.max())
    levels = np.full(v.shape, 128, dtype=np.uint8)
    zero_gray = 128
    if vmax > vmin:
        step = max(1, _CSV_BLOCK_POINTS // v.shape[1])
        for start in range(0, len(v), step):
            t = v[start:start + step] - vmin  # 255 (v - vmin) / (vmax - vmin), in that order
            t *= 255.0
            t /= vmax - vmin
            levels[start:start + step] = np.rint(t, out=t)
        # mapped level of value 0, possibly outside [0, 255] when 0 is
        # outside the data range (recorded unclamped)
        zero_gray = int(np.rint(255.0 * (0.0 - vmin) / (vmax - vmin)))
    rows, cols = _mirror_index(grid.chi_axis), _mirror_index(grid.pR_axis)
    img = levels.T[np.ix_(cols[::-1], rows)]  # rows: pR descending; cols: chi ascending
    header = (f"P5\n# min={format_value(vmin)} max={format_value(vmax)} zero_gray={zero_gray}\n"
              f"{img.shape[1]} {img.shape[0]}\n255\n")
    with path.open("wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(img)
    return path


def read_pgm(path):
    """Parse a P5 file written by emit_pgm; returns (width, height,
    comment_fields, pixel_array)."""
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n", 4)
    if lines[0] != b"P5":
        raise ConfigError(f"{path}: not a binary PGM")
    comment = lines[1].decode("ascii")
    if not comment.startswith("# "):
        raise ConfigError(f"{path}: missing metadata comment")
    fields = dict(tok.split("=", 1) for tok in comment[2:].split())
    width, height = (int(t) for t in lines[2].split())
    maxval = int(lines[3])
    if maxval != 255:
        raise ConfigError(f"{path}: expected maxval 255")
    pixels = np.frombuffer(lines[4][: width * height], dtype=np.uint8).reshape(height, width)
    return width, height, fields, pixels


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, files, config_echo: dict) -> Path:
    """Record every artifact with kind and SHA-256, plus the configuration
    and library version that produced it.  Paths are relative to the manifest."""
    out_dir = Path(out_dir)
    entries = []
    for path, kind in files:
        p = Path(path)
        entries.append({
            "path": p.relative_to(out_dir).as_posix(),
            "kind": kind,
            "sha256": _sha256(p),
        })
    doc = {
        "files": sorted(entries, key=lambda e: e["path"]),
        "config": config_echo,
        "library_version": __version__,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def validate_manifest(manifest_path) -> dict:
    """Re-hash every listed file; raises ConfigError on any mismatch."""
    manifest_path = Path(manifest_path)
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    base = manifest_path.parent
    for entry in doc["files"]:
        p = base / entry["path"]
        if not p.exists():
            raise ConfigError(f"manifest lists missing file {entry['path']}")
        digest = _sha256(p)
        if digest != entry["sha256"]:
            raise ConfigError(f"checksum mismatch for {entry['path']}")
    return doc
