"""Deterministic file artifacts: CSV tables, binary PGM images, and a
checksummed run manifest.

Identical inputs must produce byte-identical files, so every number is
formatted with repr-faithful precision (17 significant digits), no
timestamps are recorded, and JSON keys are sorted.

Both CSV routes share one writer and convert each value they are given to
text once: a column is formatted in a single pass, and a grid file formats
each chi and each pR axis value once per file (not once per point) beside
one conversion per W value.  The writer takes the text a block of rows at
a time and writes each block as it comes, and a grid file is formatted a
block of chi rows at a time, so a file's text is never held whole: the
peak memory of a grid route is the grid's values plus a fixed block of
text.  Checksums read files in chunks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .wigner import WignerGrid, _mirror_index

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

_CSV_BLOCK_POINTS = 2 ** 11  # grid values formatted per block of chi rows


def format_value(v: float) -> str:
    """Locale-independent decimal with 17 significant digits (round-trips
    to the same double)."""
    return format(float(v), ".17g")


def _format_column(values) -> list[str]:
    """format_value of every entry, byte for byte, in one pass."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("CSV data must be finite")
    return [format(v, ".17g") for v in values.tolist()]


def _write_csv(path: Path, column_names, blocks, comments) -> Path:
    """The one CSV writer: '#'-prefixed comment lines, one header row, then
    each block (equal-length columns of formatted numbers) joined row by
    row and written as it comes."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(column_names) + "\n")
        for text_columns in blocks:
            text = "\n".join(map(",".join, zip(*text_columns)))
            if text:
                fh.write(text)
                fh.write("\n")
    return path


def emit_csv(path, column_names, columns, comments=()) -> Path:
    """Write columns (equal-length sequences) as comma-separated UTF-8 with
    one header row; '#'-prefixed comment lines may precede the header."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(column_names) or not cols:
        raise ValueError("need one name per column")
    length = len(cols[0])
    if any(len(c) != length for c in cols):
        raise ValueError("columns must have equal length")
    return _write_csv(Path(path), column_names, [[_format_column(c) for c in cols]], comments)


def emit_grid_csv(grid: WignerGrid, path) -> Path:
    """Grid values in row-major chi-outer order with axis columns
    (chi dimensionless, pR dimensionless, W in units of 1/(dchi dp)),
    formatted and written whole chi rows at a time, about
    _CSV_BLOCK_POINTS values per block."""
    nc, nq = grid.values.shape
    chi = _format_column(grid.chi_axis)
    q = _format_column(grid.pR_axis)
    step = max(1, _CSV_BLOCK_POINTS // nq)

    def blocks():
        for start in range(0, nc, step):
            rows = chi[start:start + step]
            yield ([c for c in rows for _ in range(nq)], q * len(rows),
                   _format_column(grid.values[start:start + step].reshape(-1)))

    state = grid.state
    meta = ["evaluator=spectral",
            f"n={state.n} s={format_value(state.s)} R={format_value(state.params.R)}"]
    return _write_csv(Path(path), ["chi", "pR", "W"], blocks(), meta)


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
    vmin, vmax = float(v.min()), float(v.max())
    if vmax > vmin:
        t = v - vmin  # 255 (v - vmin) / (vmax - vmin), in place and in that order
        t *= 255.0
        t /= vmax - vmin
        levels = np.rint(t, out=t).astype(np.uint8)
        # mapped level of value 0, possibly outside [0, 255] when 0 is
        # outside the data range (recorded unclamped)
        zero_gray = int(np.rint(255.0 * (0.0 - vmin) / (vmax - vmin)))
    else:
        levels = np.full_like(v, 128, dtype=np.uint8)
        zero_gray = 128
    _, rows = _mirror_index(grid.chi_axis)
    _, cols = _mirror_index(grid.pR_axis)
    img = levels.T[np.ix_(cols[::-1], rows)]  # rows: pR descending; cols: chi ascending
    header = (f"P5\n# min={format_value(vmin)} max={format_value(vmax)} zero_gray={zero_gray}\n"
              f"{img.shape[1]} {img.shape[0]}\n255\n")
    with path.open("wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(img.tobytes())
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


def write_manifest(out_dir, files, config_echo: dict, library_version: str) -> Path:
    """Record every artifact with kind and SHA-256, plus the configuration
    that produced it.  Paths are stored relative to the manifest."""
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
        "library_version": library_version,
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
