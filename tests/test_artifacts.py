import json

import numpy as np
import pytest

from curvedwigner import artifacts
from curvedwigner.artifacts import (
    emit_csv,
    emit_grid_csv,
    emit_pgm,
    format_value,
    read_csv,
    read_pgm,
    validate_manifest,
    write_manifest,
)
from curvedwigner.errors import ConfigError
from curvedwigner.oscillator import BoundStateLabel, OscillatorParams
from curvedwigner.wigner import WignerGrid
from reference_routes import emit_csv_columnwise, emit_grid_csv_columnwise, emit_pgm_whole

S4_N0 = BoundStateLabel(0, OscillatorParams.from_depth(4.0))


def _toy_grid(values):
    """Axes from -1 in steps of 1: spanning negative values, they are
    rendered as they stand."""
    v = np.asarray(values, dtype=float)
    return WignerGrid(np.arange(v.shape[0], dtype=float) - 1.0,
                      np.arange(v.shape[1], dtype=float) - 1.0, v, S4_N0)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        xs = np.array([0.0, 1.0 / 3.0, np.pi, 6.02214076e23, 1.2345678901234567e-7])
        ys = np.array([-1.0, 2.0 ** -40, 123456.789012345678, -0.1, 9.9e300])
        path = emit_csv(tmp_path / "t.csv", ["x", "y"], [xs, ys], comments=["units: none"])
        names, cols = read_csv(path)
        assert names == ["x", "y"]
        assert np.array_equal(cols[0], xs)  # bit-exact after the text round trip
        assert np.array_equal(cols[1], ys)

    def test_header_and_comments(self, tmp_path):
        path = emit_csv(tmp_path / "t.csv", ["a"], [[1.5]], comments=["hello"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == "a"
        assert lines[2] == format_value(1.5)

    def test_bytes_equal_format_value_on_edge_values(self, tmp_path):
        edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                1.7976931348623157e308, 0.1, -0.1, 1.0, -3.0, 2.0 ** 53, 1e16,
                123456789.0, 1e-16, 1.1102230246251565e-16, -2.220446049250313e-16,
                9.999999999999999e-17, 1.0000000000000002, 1.0 / 3.0]
        cols = [np.array(edge), np.array(edge[::-1])]
        path = emit_csv(tmp_path / "e.csv", ["a", "b"], cols, comments=["edge"])
        expected = "# edge\na,b\n" + "".join(
            f"{format_value(a)},{format_value(b)}\n" for a, b in zip(*cols))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_locale_independent_decimal_point(self):
        assert "." in format_value(0.5)
        assert "," not in format_value(1234567.25)

    def test_grid_csv_row_major_chi_outer(self, tmp_path):
        grid = _toy_grid([[1.0, 2.0], [3.0, 4.0]])
        path = emit_grid_csv(grid, tmp_path / "g.csv")
        names, cols = read_csv(path)
        assert names == ["chi", "pR", "W"]
        assert list(cols[0]) == [-1.0, -1.0, 0.0, 0.0]  # chi varies slowest
        assert list(cols[2]) == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("chi, pR, values", [
        ([-0.0, 5e-324, 1.0 / 3.0],
         [-1e308, -1.5, 0.0, 1e-5, 1.5e22],
         [[-0.0, 0.0, 5e-324, -5e-324, 1e308],
          [1.0 / 3.0, -1.0 / 3.0, 1e-5, 1.5e22, 2.0 ** -40],
          [1e16, 123456789.0, 1e-300, 0.1, -2.220446049250313e-16]]),
        (np.linspace(0.0, 4.0, 7), np.linspace(0.0, 4.0, 11) ** 3,
         np.random.default_rng(3).normal(scale=0.2, size=(7, 11))),
    ], ids=["edge_values", "random_7x11"])
    def test_grid_csv_bytes_equal_format_value_per_point(self, tmp_path, chi, pR, values):
        state = BoundStateLabel(2, OscillatorParams.from_depth(4.0, R=1.5))
        grid = WignerGrid(np.asarray(chi, dtype=float), np.asarray(pR, dtype=float),
                          np.asarray(values, dtype=float), state)
        path = emit_grid_csv(grid, tmp_path / "g.csv")
        expected = (f"# evaluator=spectral\n# n=2 s={format_value(state.s)} "
                    "R=1.5\nchi,pR,W\n") + "".join(
            f"{format_value(c)},{format_value(p)},{format_value(grid.values[i, j])}\n"
            for i, c in enumerate(grid.chi_axis) for j, p in enumerate(grid.pR_axis))
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("shape", [(601, 401), (50, 333), (3, 5000)],
                             ids=["criterion2", "partial_last_block", "one_row_per_block"])
    def test_grid_csv_blocks_equal_one_join(self, tmp_path, shape):
        rng = np.random.default_rng(11)
        grid = WignerGrid(np.sort(rng.uniform(-2.0, 6.0, shape[0])),
                          np.linspace(0.0, 12.0, shape[1]),
                          rng.normal(scale=0.3, size=shape),
                          BoundStateLabel(3, OscillatorParams.from_depth(4.0)))
        assert grid.values.size >= 3 * artifacts._CSV_BLOCK_POINTS
        # the whole file's text joined at once
        nc, nq = shape
        chi = [format_value(c) for c in grid.chi_axis for _ in range(nq)]
        q = [format_value(p) for p in grid.pR_axis] * nc
        w = [format_value(v) for v in grid.values.reshape(-1)]
        lines = ["# evaluator=spectral", f"# n=3 s={format_value(grid.state.s)} R=1",
                 "chi,pR,W"]
        lines += map(",".join, zip(chi, q, w))
        lines.append("")
        path = emit_grid_csv(grid, tmp_path / "g.csv")
        assert path.read_bytes() == "\n".join(lines).encode("utf-8")

    def test_grid_csv_rejects_nonfinite_axis(self, tmp_path):
        grid = WignerGrid(np.array([0.0, np.inf]), np.arange(2.0), np.zeros((2, 2)), S4_N0)
        with pytest.raises(ValueError):
            emit_grid_csv(grid, tmp_path / "g.csv")

    def test_rejects_ragged_and_nonfinite(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(tmp_path / "b.csv", ["a", "b"], [[1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            emit_csv(tmp_path / "b.csv", ["a"], [[np.inf]])


class TestPgm:
    def test_two_by_two_mapping(self, tmp_path):
        grid = _toy_grid([[0.0, 1.0], [-1.0, 0.0]])
        path = emit_pgm(grid, tmp_path / "t.pgm")
        w, h, fields, px = read_pgm(path)
        assert (w, h) == (2, 2)
        assert fields["min"] == "-1" and fields["max"] == "1"
        # half-integer gray rounds to nearest even: 127.5 -> 128
        assert fields["zero_gray"] == "128"
        # rows: pR descending; columns: chi ascending
        assert px[0, 0] == 255   # (chi=0, pR=1) -> value 1
        assert px[0, 1] == 128   # (chi=1, pR=1) -> value 0
        assert px[1, 0] == 128   # (chi=0, pR=0) -> value 0
        assert px[1, 1] == 0     # (chi=1, pR=0) -> value -1

    def test_constant_grid_uniform_anchor(self, tmp_path):
        grid = _toy_grid([[0.7, 0.7], [0.7, 0.7]])
        path = emit_pgm(grid, tmp_path / "c.pgm")
        _, _, fields, px = read_pgm(path)
        assert np.all(px == 128)
        assert fields["zero_gray"] == "128"

    def test_header_round_trip(self, tmp_path):
        grid = _toy_grid(np.linspace(-0.25, 0.5, 12).reshape(3, 4))
        path = emit_pgm(grid, tmp_path / "h.pgm")
        w, h, fields, px = read_pgm(path)
        assert (w, h) == (3, 4)[::-1][::-1] == (3, 4)  # width = n_chi, height = n_p
        assert float(fields["min"]) == -0.25
        assert float(fields["max"]) == 0.5
        assert px.shape == (4, 3)


EDGE = [0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1, 1.0 / 3.0, -1.0 / 3.0,
        1.7976931348623157e308, -1.7976931348623157e308]


def _grids():
    """Synthetic grids by case, for both grid writers."""
    rng = np.random.default_rng(17)
    lin = np.linspace
    cases = {
        "edge_values": ([-1.0, 0.0, 1.0 / 3.0], [-1.0 / 3.0, -0.1, 0.0, 5e-324, 0.1],
                        np.array(EDGE[:8] + [2.0 ** -40, 1e-300] + [-x for x in EDGE[:4]]
                                 + [1.0]).reshape(3, 5)),
        "rows_longer_than_block": (lin(0.0, 3.0, 3), lin(0.0, 8.0, 5000), rng.normal(size=(3, 5000))),
        "columns_2049": (lin(0.0, 1.0, 4), lin(0.0, 8.0, 2049), rng.normal(size=(4, 2049))),
        "constant": (lin(0.0, 2.0, 4), lin(0.0, 3.0, 5), np.full((4, 5), 0.7)),
        "positive_values": (lin(0.0, 2.0, 6), lin(0.0, 3.0, 7), rng.uniform(1.0, 2.0, (6, 7))),
        "negative_axes": (lin(-2.0, 3.0, 7), lin(-8.0, 8.0, 9), rng.normal(size=(7, 9))),
        "start_1e-13": (1e-13 + lin(0.0, 3.0, 6), 1e-13 + lin(0.0, 8.0, 7),
                        rng.normal(size=(6, 7))),
        "start_1e-12": (1e-12 + lin(0.0, 3.0, 6), 1e-12 + lin(0.0, 8.0, 7),
                        rng.normal(size=(6, 7))),
        "start_2e-12": (2e-12 + lin(0.0, 3.0, 6), 2e-12 + lin(0.0, 8.0, 7),
                        rng.normal(size=(6, 7))),
    }
    return {name: WignerGrid(np.asarray(chi, dtype=float), np.asarray(q, dtype=float),
                             values, BoundStateLabel(2, OscillatorParams.from_depth(4.0, R=1.5)))
            for name, (chi, q, values) in cases.items()}


GRIDS = _grids()
# the PGM's value range must stay finite, so the largest doubles go to the CSV only
CSV_GRIDS = dict(GRIDS, largest_double=WignerGrid(
    np.arange(3.0), np.arange(4.0), np.array(EDGE + EDGE[:2]).reshape(3, 4), S4_N0))


class TestBytesEqualReference:
    """Every writer's bytes equal the column-joining CSV writers' and the
    whole-grid PGM writer's in reference_routes."""

    @pytest.mark.parametrize("columns", [
        [EDGE, EDGE[::-1]],
        [EDGE],
        [np.random.default_rng(2).normal(size=5000) * 10.0 ** np.arange(-150, 150, 0.06)] * 3,
        [[], []],
    ], ids=["edge_values", "one_column", "more_rows_than_block", "no_rows"])
    def test_csv(self, tmp_path, columns):
        names = [f"c{i}" for i in range(len(columns))]
        new = emit_csv(tmp_path / "new.csv", names, columns, comments=["one", "two"])
        ref = emit_csv_columnwise(tmp_path / "ref.csv", names, columns, comments=["one", "two"])
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("case", sorted(CSV_GRIDS))
    def test_grid_csv(self, tmp_path, case):
        grid = CSV_GRIDS[case]
        new = emit_grid_csv(grid, tmp_path / "new.csv")
        assert new.read_bytes() == emit_grid_csv_columnwise(grid, tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_pgm(self, tmp_path, case):
        new = emit_pgm(GRIDS[case], tmp_path / "new.pgm")
        assert new.read_bytes() == emit_pgm_whole(GRIDS[case], tmp_path / "ref.pgm").read_bytes()

    def test_cases_cover_each_mirroring(self, tmp_path):
        # axes kept as they stand, mirrored with their 0 written once, and
        # mirrored in full
        shapes = {case: read_pgm(emit_pgm(GRIDS[case], tmp_path / f"{case}.pgm"))[:2]
                  for case in ("negative_axes", "start_1e-13", "start_1e-12", "start_2e-12")}
        assert shapes == {"negative_axes": (7, 9), "start_1e-13": (11, 13),
                          "start_1e-12": (11, 13), "start_2e-12": (12, 14)}


class TestNonFinite:
    """A writer given a non-finite number raises ValueError before its file
    exists, wherever the number sits."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_table_csv(self, tmp_path, bad):
        column = np.linspace(0.0, 1.0, 5000)
        column[3000] = bad
        with pytest.raises(ValueError):
            emit_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(5000), column])
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("writer", [emit_grid_csv, emit_pgm])
    @pytest.mark.parametrize("attr, index, bad", [
        ("values", (250, 3), np.nan), ("values", (0, 0), -np.inf),
        ("chi_axis", -1, np.inf), ("pR_axis", -1, np.inf)],
        ids=["nan_in_row_250", "minus_inf_first", "inf_chi", "inf_pR"])
    def test_grid_writers(self, tmp_path, writer, attr, index, bad):
        rng = np.random.default_rng(0)
        grid = WignerGrid(np.linspace(0.0, 3.0, 300), np.linspace(0.0, 8.0, 20),
                          rng.normal(size=(300, 20)), S4_N0)
        getattr(grid, attr)[index] = bad  # WignerGrid checked its values when built
        with pytest.raises(ValueError):
            writer(grid, tmp_path / "g.out")
        assert not (tmp_path / "g.out").exists()


class TestManifest:
    def test_write_and_validate(self, tmp_path):
        f1 = emit_csv(tmp_path / "a.csv", ["x"], [[1.0]])
        f2 = emit_pgm(_toy_grid([[0.0, 1.0], [2.0, 3.0]]), tmp_path / "b.pgm")
        manifest = write_manifest(tmp_path, [(f1, "csv"), (f2, "pgm")], {"command": "test"})
        doc = validate_manifest(manifest)
        assert {e["path"] for e in doc["files"]} == {"a.csv", "b.pgm"}
        assert doc["library_version"] == "0.1.0"

    def test_detects_corruption(self, tmp_path):
        f1 = emit_csv(tmp_path / "a.csv", ["x"], [[1.0]])
        manifest = write_manifest(tmp_path, [(f1, "csv")], {})
        f1.write_text("tampered\n")
        with pytest.raises(ConfigError):
            validate_manifest(manifest)

    def test_detects_missing_file(self, tmp_path):
        f1 = emit_csv(tmp_path / "a.csv", ["x"], [[1.0]])
        manifest = write_manifest(tmp_path, [(f1, "csv")], {})
        f1.unlink()
        with pytest.raises(ConfigError):
            validate_manifest(manifest)

    def test_manifest_is_deterministic_json(self, tmp_path):
        f1 = emit_csv(tmp_path / "a.csv", ["x"], [[1.0]])
        m1 = write_manifest(tmp_path, [(f1, "csv")], {"k": 1}).read_bytes()
        m2 = write_manifest(tmp_path, [(f1, "csv")], {"k": 1}).read_bytes()
        assert m1 == m2
        json.loads(m1)  # well-formed
