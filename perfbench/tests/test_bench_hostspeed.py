import time

import pytest

import hostspeed


def test_adjusted_seconds_removes_the_pieces_and_rescales():
    ref_s = 2e-4
    # A host twice as slow as the reference: the region's own 1.0 s reads as 0.5 s.
    pieces = [int(2 * ref_s * 1e9)] * 10
    wall = 10**9 + sum(pieces)
    assert hostspeed.adjusted_seconds(wall, pieces, ref_s) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostspeed.adjusted_seconds(wall, [], ref_s)


@pytest.mark.parametrize("piece", [hostspeed.stdlib_piece, hostspeed.numpy_piece])
def test_sampler_runs_pieces_inside_the_region_and_stops(piece):
    with hostspeed.Sampler(piece) as host:
        start = time.perf_counter_ns()
        deadline = time.perf_counter() + 10 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
        end = time.perf_counter_ns()
    inside = host.pieces(start, end)
    assert len(inside) >= 3
    assert all(duration > 0 for duration in inside)
    count = len(host.samples)
    time.sleep(3 * hostspeed.INTERVAL_S)
    assert len(host.samples) == count
