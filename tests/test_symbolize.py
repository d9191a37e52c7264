import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaosinfer.dynamics import MapSpec, NoiseSpec, generate_trajectory
from chaosinfer.symbolize import (
    PartitionSpec,
    SymbolSequence,
    decision_grid,
    decision_points,
    state_cuts,
    symbolize,
)

unit_floats = st.floats(0.0, 1.0)


def test_threshold_symbols():
    seq = symbolize(np.array([0.2, 0.7, 0.5]), PartitionSpec(0.5))
    assert seq.symbols.tolist() == [0, 1, 1]


def test_decision_point_zero_gives_all_ones():
    seq = symbolize(np.array([0.0, 0.3, 0.99, 1.0]), PartitionSpec(0.0))
    assert seq.symbols.tolist() == [1, 1, 1, 1]


def test_decision_point_one_gives_zeros_except_exact_one():
    seq = symbolize(np.array([0.0, 0.3, 0.999999, 1.0]), PartitionSpec(1.0))
    assert seq.symbols.tolist() == [0, 0, 0, 1]


def test_symbolize_accepts_trajectory():
    traj = generate_trajectory(MapSpec(), NoiseSpec(1e-3), 50, 10, seed=1)
    seq = symbolize(traj, PartitionSpec(0.5))
    assert len(seq) == 50
    assert set(seq.symbols.tolist()) <= {0, 1}


def test_symbolize_rejects_out_of_range_states():
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(ValueError):
            symbolize(np.array([0.2, bad, 0.7]), PartitionSpec(0.5))


def test_decision_grid_small():
    assert [p.decision_point for p in decision_grid(3)] == [0.0, 0.5, 1.0]
    assert [p.decision_point for p in decision_grid(2)] == [0.0, 1.0]


def test_decision_grid_two_hundred_points():
    grid = decision_grid(200)
    assert len(grid) == 200
    assert grid[0].decision_point == 0.0
    assert grid[-1].decision_point == 1.0


def test_decision_grid_rejects_tiny_count():
    with pytest.raises(ValueError):
        decision_grid(1)
    with pytest.raises(ValueError):
        decision_points(1)


@pytest.mark.parametrize("count", [2, 3, 7, 200, 2000])
def test_decision_points_are_the_grid_thresholds(count):
    points = decision_points(count)
    assert points.tolist() == [float(d) for d in np.linspace(0.0, 1.0, count)]
    assert points.tolist() == [p.decision_point for p in decision_grid(count)]


@pytest.mark.parametrize("count, dtype", [(2, np.uint8), (255, np.uint8), (256, np.uint16),
                                          (65535, np.uint16), (65536, np.uint32)])
def test_state_cuts_count_the_points_at_or_below_each_state(count, dtype):
    points = decision_points(count)
    states = np.concatenate([points[[0, 1, -2, -1]], np.random.default_rng(count).random(50)])
    cuts = state_cuts(states, points)
    assert cuts.dtype == dtype
    assert cuts.tolist() == [int(np.count_nonzero(points <= x)) for x in states]


@given(states=st.lists(unit_floats, min_size=1, max_size=30),
       points=st.lists(unit_floats, min_size=1, max_size=10))
def test_a_state_reads_one_below_its_cut(states, points):
    # The left-closed rule of symbolize: 1 at points[i] iff i < the cut.
    points = sorted(points)
    cuts = state_cuts(states, points)
    for i, d in enumerate(points):
        symbols = symbolize(np.array(states), PartitionSpec(d)).symbols
        assert symbols.tolist() == (i < cuts).astype(int).tolist()


def test_partition_spec_validation():
    assert PartitionSpec(np.float32(0.5)).decision_point == 0.5
    for d in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError):
            PartitionSpec(d)


def test_symbol_sequence_validates_binary_symbols():
    assert SymbolSequence(np.array([True, False])).symbols.tolist() == [1, 0]
    for symbols in ([0, 2], [0, -1], [0.9, 1.2], [0.0, np.nan]):
        with pytest.raises(ValueError):
            SymbolSequence(np.array(symbols))


@given(x=unit_floats, d=unit_floats)
def test_exactly_one_cell_contains_each_state(x, d):
    symbol = int(symbolize(np.array([x]), PartitionSpec(d)).symbols[0])
    in_low = 0.0 <= x < d
    in_high = d <= x <= 1.0
    assert in_low + in_high == 1
    assert symbol == (1 if in_high else 0)


@given(
    states=st.lists(unit_floats, min_size=1, max_size=50),
    d1=unit_floats,
    d2=unit_floats,
)
def test_raising_threshold_only_turns_ones_into_zeros(states, d1, d2):
    lo, hi = sorted((d1, d2))
    arr = np.array(states)
    s_lo = symbolize(arr, PartitionSpec(lo)).symbols
    s_hi = symbolize(arr, PartitionSpec(hi)).symbols
    assert np.all(s_hi <= s_lo)
