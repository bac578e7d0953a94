"""Peak memory of the grid pipeline, as multiples of the grid's values:
the engine works blocks of rows and of pR columns, the CSV writers and the
PGM's quantisation a block of values, and the marginals take one
temporary, so none of them holds several full-size copies of the grid or
its text."""

import tracemalloc

import numpy as np
import pytest

from curvedwigner import quadrature
from curvedwigner.artifacts import emit_csv, emit_grid_csv, emit_pgm
from curvedwigner.oscillator import BoundStateLabel, OscillatorParams, psi_momentum
from curvedwigner.wigner import (
    marginal_momentum_integrated,
    marginal_position_integrated,
    total_probability,
    wigner_grid,
)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A large s = 4, n = 3 grid, 601 x 401 points over chi <= 8 and
    pR <= 12, and the traced peaks of building it, of its marginals (the
    grid alive) and of writing its CSV (above what was traced before), in
    bytes."""
    state = BoundStateLabel(3, OscillatorParams.from_depth(4.0))
    out = tmp_path_factory.mktemp("memory") / "g.csv"
    peaks = {}
    tracemalloc.start()
    try:
        grid = wigner_grid(state, np.linspace(0.0, 8.0, 601), np.linspace(0.0, 12.0, 401))
        peaks["engine"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        marginal_momentum_integrated(grid)
        marginal_position_integrated(grid)
        total_probability(grid)
        peaks["marginals"] = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emit_grid_csv(grid, out)
        peaks["csv"] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return grid.values.nbytes, peaks


def test_engine_peak(traced):
    nbytes, peaks = traced
    assert peaks["engine"] < 2.5 * nbytes


def test_marginals_peak(traced):
    nbytes, peaks = traced
    assert peaks["marginals"] < 2.5 * nbytes


def traced_peak(run):
    """(the result of ``run()``, the traced peak of running it in bytes)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_csv_adds_less_than_the_values(traced):
    nbytes, peaks = traced
    assert peaks["csv"] < 1.0 * nbytes


def test_table_csv_adds_less_than_the_values(tmp_path):
    # two columns of 100 000 rows, formatted a block of rows at a time
    columns = [np.linspace(0.0, 1.0, 100_000), np.linspace(1.0, 2.0, 100_000)]
    _, peak = traced_peak(lambda: emit_csv(tmp_path / "t.csv", ["a", "b"], columns))
    assert peak < 1.0 * sum(c.nbytes for c in columns)


@pytest.fixture(scope="module")
def long_grid():
    """The s = 4, n = 0 grid of ``wigner --grid 0:3:5,0:8:400000``."""
    state = BoundStateLabel(0, OscillatorParams.from_depth(4.0))
    return wigner_grid(state, np.linspace(0.0, 3.0, 5), np.linspace(0.0, 8.0, 400_000))


def test_long_grid_csv_adds_less_than_the_values(long_grid, tmp_path):
    # the pR values' text, formed once into the line templates (about 0.7 of
    # the values), and one piece of a row
    _, peak = traced_peak(lambda: emit_grid_csv(long_grid, tmp_path / "g.csv"))
    assert peak < 1.0 * long_grid.values.nbytes


def test_long_grid_pgm_adds_less_than_one_and_a_half_values(long_grid, tmp_path):
    # the levels (0.125 of the values), the 9 x 799 999 mirrored image
    # (0.45), its pR index (0.4) and one block of rows (0.2)
    _, peak = traced_peak(lambda: emit_pgm(long_grid, tmp_path / "g.pgm"))
    assert peak < 1.5 * long_grid.values.nbytes


# the engine's fixed budget beside its values: two wave matrices of
# _WAVE_ELEMENTS doubles (one per node set), which hold the cos columns
WAVE_BYTES = 2 * 8 * quadrature._WAVE_ELEMENTS


def test_engine_peak_on_a_long_pR_axis():
    # 5 x 400 000 (s = 4, n = 0, 29 nodes): the cos columns go in blocks
    state = BoundStateLabel(0, OscillatorParams.from_depth(4.0))
    chi, qs = np.linspace(0.0, 3.0, 5), np.linspace(0.0, 8.0, 400_000)
    grid, peak = traced_peak(lambda: wigner_grid(state, chi, qs))
    assert peak < grid.values.nbytes + WAVE_BYTES


def test_momentum_profile_peak_on_a_long_axis():
    # 400 000 momenta: the complex values, the real sum and its momenta (half
    # the values' size each) and one wave block, with the values' size to spare
    state = BoundStateLabel(1, OscillatorParams.from_depth(4.0))
    p = np.linspace(0.0, 8.0, 400_000)
    psit, peak = traced_peak(lambda: psi_momentum(state, p))
    assert peak < 3.0 * psit.nbytes + WAVE_BYTES / 2


def test_odd_momentum_profile_has_no_complex_temporary():
    # s = 4, n = 3 on 400 000 momenta: the -i goes into the values'
    # imaginary parts in place, so the complex values, the real sum and its
    # momenta (half the values' size each) and one wave block are all
    state = BoundStateLabel(3, OscillatorParams.from_depth(4.0))
    p = np.linspace(0.0, 8.0, 400_000)
    psit, peak = traced_peak(lambda: psi_momentum(state, p))
    assert peak < 2.0 * psit.nbytes + WAVE_BYTES / 2


def test_engine_peak_follows_the_state_not_the_axis():
    # a 16 x 1024 grid on chi <= 1500 evaluates only the rows within the
    # state's horizon (chi ~ 4 for s = 4, n = 0), so it peaks like chi <= 3
    state = BoundStateLabel(0, OscillatorParams.from_depth(4.0))
    qs = np.linspace(0.0, 8.0, 1024)
    peaks = {}
    for top in (3.0, 1500.0):
        tracemalloc.start()
        try:
            wigner_grid(state, np.linspace(0.0, top, 16), qs)
            peaks[top] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1500.0] <= peaks[3.0] + 64 * 1024
