import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaosinfer.dynamics as dynamics
from chaosinfer.dynamics import (
    LEAF,
    MAX_SIGMA,
    MapSpec,
    NoiseSpec,
    Trajectory,
    _reflect,
    generate_trajectory,
    lyapunov_exponent,
    recorded_chunks,
    start_lockstep,
    start_series,
    step_lockstep,
    step_series,
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


@pytest.mark.parametrize("r", [4.0, 3.7])
@pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.3, 0.7, 5.0, 1e17, MAX_SIGMA])
def test_lockstep_states_equal_per_series_trajectories(sigma, r):
    # Uneven chunks, an empty one among them, continue each seed's shock
    # stream as a trajectory's one draw does; at sigma 0.3 some chunks have
    # a shock past 1/2 and some do not, so both folds are taken.
    spec, noise, seeds = MapSpec(r=r), NoiseSpec(sigma), [3, 0, 2**40, 17]
    rngs, x = start_lockstep(seeds)
    states = [x[None].copy()]
    with np.errstate(over="raise", invalid="raise"):
        for length in (1, 0, 2, 7, 50, 139):
            out = np.empty((length, len(seeds)))
            step_lockstep(spec, noise, rngs, x, out)
            states.append(out)
    states = np.concatenate(states)
    assert x.tobytes() == states[-1].tobytes()
    for g, seed in enumerate(seeds):
        want = generate_trajectory(spec, noise, len(states), 0, seed).states
        assert states[:, g].tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("sigma", [0.0, 0.3, 5.0])
def test_series_stepped_in_chunks_equals_one_trajectory(sigma):
    # Uneven chunks, an empty one among them, continue the shock stream as
    # generate_trajectory's one draw does.
    spec, noise = MapSpec(), NoiseSpec(sigma)
    rng, x = start_series(4)
    states = [np.array([x])]
    for length in (1, 0, 2, 7, 50, 139):
        out = np.empty(length)
        last = step_series(spec, noise, rng, x, out)
        assert last == (out[-1] if length else x)
        x = last
        states.append(out)
    states = np.concatenate(states)
    want = generate_trajectory(spec, noise, len(states), 0, 4).states
    assert states.tobytes() == want.tobytes()


@pytest.mark.parametrize("lockstep", [True, False], ids=["lockstep", "per_series"])
@pytest.mark.parametrize("transient", [0, 1, 6, 7])
@pytest.mark.parametrize("n", [1, 13])
def test_recorded_chunks_equal_per_series_trajectories(monkeypatch, n, transient, lockstep):
    # A small leaf puts chunk edges in the warm-up and among the recorded
    # states: two rows a chunk in lockstep, six stepping each series alone.
    monkeypatch.setattr(dynamics, "LEAF", 6)
    monkeypatch.setattr(dynamics, "LOCKSTEP_MIN_POINTS", 3 if lockstep else 4)
    spec, noise, seeds = MapSpec(r=3.7), NoiseSpec(0.3), [3, 0, 2**40]
    chunks = []
    for chunk in recorded_chunks(spec, noise, n, transient, seeds):
        assert chunk.shape[0] == min(2 if lockstep else 6, n - sum(map(len, chunks)))
        assert chunk.shape[1] == len(seeds)
        if not lockstep:
            assert all(chunk[:, g].flags.c_contiguous for g in range(len(seeds)))
        chunks.append(chunk.copy())
    states = np.concatenate(chunks)
    for g, seed in enumerate(seeds):
        want = generate_trajectory(spec, noise, n, transient, seed).states
        assert states[:, g].tobytes() == want.tobytes(), seed


def test_numpy_float_parameters_step_alike_in_lockstep_and_alone():
    # r and sigma are kept as Python floats, so a float32 r steps every
    # series in float64 whether it is stepped alone or in a lockstep block.
    spec, noise = MapSpec(r=np.float32(3.7)), NoiseSpec(np.float32(1e-3))
    assert type(spec.r) is float and type(noise.sigma) is float
    chunks = [chunk.copy() for chunk in recorded_chunks(spec, noise, 50, 5, range(32))]
    want = generate_trajectory(spec, noise, 50, 5, 0).states
    assert np.concatenate(chunks)[:, 0].tobytes() == want.tobytes()


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


def test_lyapunov_holds_one_buffer_of_slopes():
    traj = generate_trajectory(MapSpec(), NoiseSpec(1e-3), 100_000, 0, seed=2)
    tracemalloc.start()
    try:
        lyapunov_exponent(MapSpec(), traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * LEAF


@pytest.mark.parametrize("n", [1, 7, 129, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 7, 5 * LEAF + 3,
                               1_000_003])
def test_lyapunov_sums_along_numpys_pairwise_tree(n):
    # lyapunov_exponent sums its slopes a leaf at a time by numpy's pairwise
    # sum and adds the leaf sums exactly, so up to a leaf it equals np.mean.
    x = np.random.default_rng(n).random(n)
    r = 3.9
    logs = np.log2(abs(r - 2 * r * x))
    got = lyapunov_exponent(MapSpec(r=r), Trajectory(x, transient=0))
    assert got == math.fsum(np.add.reduce(logs[at:at + LEAF]) for at in range(0, n, LEAF)) / n
    if n <= LEAF:
        assert got == np.mean(logs)


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
