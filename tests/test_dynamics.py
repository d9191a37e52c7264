import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosinfer.dynamics import (
    MAX_SIGMA,
    MapSpec,
    NoiseSpec,
    Trajectory,
    _reflect,
    generate_trajectory,
    lyapunov_exponent,
    map_derivative,
)
from helpers import map_apply, reference_trajectory


def test_map_apply_parabola_peak():
    assert map_apply(MapSpec(r=4.0), 0.5) == 1.0


def test_map_apply_fixed_point_at_zero():
    assert map_apply(MapSpec(r=4.0), 0.0) == 0.0


def test_map_apply_direct_arithmetic():
    assert map_apply(MapSpec(r=3.2), 0.25) == pytest.approx(0.6, rel=1e-12)


def test_map_apply_rejects_out_of_domain():
    with pytest.raises(ValueError):
        map_apply(MapSpec(), 1.5)
    with pytest.raises(ValueError):
        map_apply(MapSpec(), -0.1)


def test_map_spec_validates_parameter():
    with pytest.raises(ValueError):
        MapSpec(r=4.5)
    with pytest.raises(ValueError):
        MapSpec(r=0.0)
    with pytest.raises(ValueError):
        MapSpec(family="tent")


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseSpec(-1e-3)


def test_noiseless_consistency_with_map_apply():
    spec = MapSpec(r=3.7)
    traj = generate_trajectory(spec, NoiseSpec(0.0), n=60, transient=5, seed=123)
    x = traj.states[0]
    for got in traj.states[1:]:
        x = map_apply(spec, x)
        assert got == x


def test_same_seed_reproduces_exactly():
    a = generate_trajectory(MapSpec(), NoiseSpec(1e-3), 500, 100, seed=42)
    b = generate_trajectory(MapSpec(), NoiseSpec(1e-3), 500, 100, seed=42)
    assert np.array_equal(a.states, b.states)


def test_requested_length():
    traj = generate_trajectory(MapSpec(), NoiseSpec(1e-3), 257, 10, seed=0)
    assert len(traj) == 257
    with pytest.raises(ValueError, match="n=0"):
        generate_trajectory(MapSpec(), NoiseSpec(1e-3), 0, 10, seed=0)
    with pytest.raises(ValueError, match="transient=-1"):
        generate_trajectory(MapSpec(), NoiseSpec(1e-3), 257, -1, seed=0)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma=st.floats(0.0, 0.1),
    r=st.floats(0.5, 4.0),
)
def test_states_stay_in_unit_interval(seed, sigma, r):
    traj = generate_trajectory(MapSpec(r=r), NoiseSpec(sigma), n=200, transient=10, seed=seed)
    assert np.all(traj.states >= 0.0)
    assert np.all(traj.states <= 1.0)


@settings(deadline=None)
@example(seed=0, r=4.0, sigma=1e-3, n=1, transient=0)
@given(
    seed=st.integers(min_value=0),
    r=st.floats(0.0, 4.0, exclude_min=True),
    sigma=st.one_of(st.sampled_from([0.0, 1e-3, 0.7, 1e17, MAX_SIGMA]), st.floats(0.0, 1.0)),
    n=st.integers(1, 300),
    transient=st.integers(0, 50),
)
def test_trajectory_equals_two_loop_reference(seed, r, sigma, n, transient):
    spec, noise = MapSpec(r=r), NoiseSpec(sigma)
    got = generate_trajectory(spec, noise, n, transient, seed).states
    assert got.tobytes() == reference_trajectory(spec, noise, n, transient, seed).tobytes()


def test_trajectory_holds_one_array_of_states():
    # The shocks are drawn into the state array, so the peak is one array of
    # transient + n doubles, not that plus the shocks.
    n, transient = 40_000, 10_000
    tracemalloc.start()
    try:
        generate_trajectory(MapSpec(), NoiseSpec(1e-3), n, transient, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (n + transient)


def reflect_by_bounces(x: float) -> float:
    """The edge-by-edge fold: one bounce per step until x lands in [0, 1]."""
    while x < 0.0 or x > 1.0:
        x = -x if x < 0.0 else 2.0 - x
    return x


@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_reflect_lands_in_unit_interval(x):
    assert 0.0 <= _reflect(x) <= 1.0


@given(x=st.floats(-1e4, 1e4))
def test_reflect_equals_bouncing_fold(x):
    # Below 2**53 every bounce is exact, and so are fmod and 2 - y: seeded
    # trajectories stay the same bit for bit.
    assert _reflect(x) == reflect_by_bounces(x)


def test_huge_noise_stays_in_unit_interval():
    traj = generate_trajectory(MapSpec(), NoiseSpec(1e17), n=200, transient=10, seed=3)
    assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))


def test_largest_accepted_noise_stays_finite_and_in_unit_interval():
    with np.errstate(over="raise", invalid="raise"):
        for seed in range(5):
            traj = generate_trajectory(MapSpec(), NoiseSpec(MAX_SIGMA), n=200, transient=10,
                                       seed=seed)
            assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))
    with pytest.raises(ValueError):
        NoiseSpec(float(np.nextafter(MAX_SIGMA, np.inf)))


def test_lyapunov_chaotic_benchmark():
    spec = MapSpec(r=4.0)
    traj = generate_trajectory(spec, NoiseSpec(0.0), n=100_000, transient=1_000, seed=3)
    assert abs(lyapunov_exponent(spec, traj) - 1.0) < 0.02


def test_lyapunov_period_two_matches_closed_form():
    # For 3 < r < 1 + sqrt(6) the attractor is the 2-cycle
    # x = (r + 1 +- sqrt((r - 3)(r + 1))) / (2r); the exponent is the
    # average log2 slope over the cycle.
    r = 3.2
    spec = MapSpec(r=r)
    disc = math.sqrt((r - 3.0) * (r + 1.0))
    cycle = [(r + 1.0 + disc) / (2.0 * r), (r + 1.0 - disc) / (2.0 * r)]
    expected = 0.5 * sum(math.log2(abs(r - 2.0 * r * x)) for x in cycle)
    traj = generate_trajectory(spec, NoiseSpec(0.0), n=10_000, transient=1_000, seed=11)
    assert lyapunov_exponent(spec, traj) == pytest.approx(expected, abs=1e-3)
    assert expected == pytest.approx(-1.32, abs=0.01)


def test_lyapunov_constant_slope_is_exactly_one():
    spec = MapSpec(r=4.0)
    traj = Trajectory(np.full(100, 0.25), transient=0)
    assert lyapunov_exponent(spec, traj) == 1.0


def test_lyapunov_degenerate_derivative_reported():
    spec = MapSpec(r=4.0)
    traj = Trajectory(np.array([0.3, 0.5]), transient=0)
    with pytest.warns(RuntimeWarning):
        assert lyapunov_exponent(spec, traj) == float("-inf")
    with pytest.raises(ValueError, match="empty"):
        lyapunov_exponent(spec, Trajectory(np.empty(0), transient=0))


def test_map_derivative_vectorized():
    spec = MapSpec(r=4.0)
    got = map_derivative(spec, np.array([0.0, 0.25, 0.5, 1.0]))
    assert got.tolist() == [4.0, 2.0, 0.0, -4.0]
