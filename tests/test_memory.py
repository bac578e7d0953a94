"""Peak memory of the grid pipeline, as multiples of the grid's values:
the engine and the grid CSV work a block of rows at a time and the
marginals take one temporary, so none of them holds several full-size
copies of the grid or its text."""

import tracemalloc

import numpy as np
import pytest

from curvedwigner.artifacts import emit_grid_csv
from curvedwigner.oscillator import BoundStateLabel, OscillatorParams
from curvedwigner.wigner import (
    marginal_momentum_integrated,
    marginal_position_integrated,
    total_probability,
    wigner_grid,
)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Criterion 2's s = 4, n = 3 grid (601 x 401) and the traced peaks of
    building it, of its marginals (the grid alive) and of writing its CSV
    (above what was traced before), in bytes."""
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


def test_grid_csv_adds_less_than_the_values(traced):
    nbytes, peaks = traced
    assert peaks["csv"] < 1.0 * nbytes


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
