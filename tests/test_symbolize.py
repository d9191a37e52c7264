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
    symbolize,
)

unit_floats = st.floats(0.0, 1.0)


def test_threshold_symbols():
    seq = symbolize(np.array([0.2, 0.7, 0.5]), PartitionSpec.binary(0.5))
    assert seq.symbols.tolist() == [0, 1, 1]


def test_decision_point_zero_gives_all_ones():
    seq = symbolize(np.array([0.0, 0.3, 0.99, 1.0]), PartitionSpec.binary(0.0))
    assert seq.symbols.tolist() == [1, 1, 1, 1]


def test_decision_point_one_gives_zeros_except_exact_one():
    seq = symbolize(np.array([0.0, 0.3, 0.999999, 1.0]), PartitionSpec.binary(1.0))
    assert seq.symbols.tolist() == [0, 0, 0, 1]


def test_symbolize_accepts_trajectory():
    traj = generate_trajectory(MapSpec(), NoiseSpec(1e-3), 50, 10, seed=1)
    seq = symbolize(traj, PartitionSpec.binary(0.5))
    assert len(seq) == 50
    assert seq.alphabet_size == 2


def test_symbolize_rejects_out_of_range_states():
    with pytest.raises(ValueError):
        symbolize(np.array([0.2, 1.2]), PartitionSpec.binary(0.5))


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


def test_multicell_partition():
    part = PartitionSpec((0.25, 0.75))
    assert part.alphabet_size == 3
    seq = symbolize(np.array([0.1, 0.25, 0.5, 0.75, 1.0]), part)
    assert seq.symbols.tolist() == [0, 1, 1, 2, 2]


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(())
    with pytest.raises(ValueError):
        PartitionSpec((0.5, 0.5))
    with pytest.raises(ValueError):
        PartitionSpec((-0.1,))
    with pytest.raises(ValueError):
        PartitionSpec((0.25, 0.75)).decision_point


def test_symbol_sequence_validates_alphabet():
    with pytest.raises(ValueError):
        SymbolSequence(np.array([0, 2]), alphabet_size=2)
    with pytest.raises(ValueError, match="alphabet_size=0"):
        SymbolSequence(np.array([], dtype=int), alphabet_size=0)


@given(x=unit_floats, d=unit_floats)
def test_exactly_one_cell_contains_each_state(x, d):
    symbol = int(symbolize(np.array([x]), PartitionSpec.binary(d)).symbols[0])
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
    s_lo = symbolize(arr, PartitionSpec.binary(lo)).symbols
    s_hi = symbolize(arr, PartitionSpec.binary(hi)).symbols
    assert np.all(s_hi <= s_lo)
