"""Noisy one-dimensional map simulation and Lyapunov exponent estimation."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

MAP_FAMILIES = ("logistic",)
# Largest accepted noise standard deviation.  numpy's ziggurat normal draws
# stay below 13.7 in magnitude (its tail draw is bounded by the smallest
# uniform, 2**-53), so every shock and every map value plus a shock is finite.
MAX_SIGMA = sys.float_info.max / 16
# The most recorded states of a series stepped at a time (see
# recorded_chunks), and the states whose Lyapunov slopes are summed at a time.
LEAF = 1 << 15
# recorded_chunks steps a block of at least LOCKSTEP_MIN_POINTS series in
# lockstep.  A lockstep step costs a few numpy calls whatever the width, so
# narrower blocks step each series on its own (on a 2-vCPU Xeon host the two
# break even near 24 series, and lockstep is 1.35x as fast at 32).
LOCKSTEP_MIN_POINTS = 32
# step_series builds this many states at a time in an array of their own,
# then copies them to its output.
_STEP_PIECE = 1 << 12


@dataclass(frozen=True)
class MapSpec:
    """One-dimensional map on the unit interval.

    Only the logistic family f(x) = r*x*(1-x) is implemented; r must lie in
    (0, 4] so the noiseless map sends [0, 1] into itself.
    """

    family: str = "logistic"
    r: float = 4.0

    def __post_init__(self) -> None:
        # A numpy r would step a series in its own precision, and a lockstep
        # block in float64.
        object.__setattr__(self, "r", float(self.r))
        if self.family not in MAP_FAMILIES:
            raise ValueError(
                f"unknown map family {self.family!r}, expected one of {MAP_FAMILIES}"
            )
        if not 0.0 < self.r <= 4.0:
            raise ValueError(f"logistic parameter r={self.r} outside (0, 4]")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian perturbation with standard deviation sigma."""

    sigma: float = 0.0

    def __post_init__(self) -> None:
        # Stored as a Python float, as MapSpec stores r: a narrow numpy float
        # would overflow, casting MAX_SIGMA to its type.  A shock that
        # overflowed to inf would never fold back into [0, 1].
        object.__setattr__(self, "sigma", float(self.sigma))
        if not 0.0 <= self.sigma <= MAX_SIGMA:
            raise ValueError(f"sigma={self.sigma} must lie in [0, {MAX_SIGMA!r}]")


@dataclass(frozen=True)
class Trajectory:
    """Simulated states in [0, 1] and the number of warm-up steps before them."""

    states: np.ndarray
    transient: int

    def __len__(self) -> int:
        return len(self.states)


def _reflect(x: float) -> float:
    # Fold noise excursions back into [0, 1] without piling mass at the edges:
    # the period-2 reflection |x| mod 2, folded at 1.  fmod and 2 - y are
    # exact, so this equals bouncing off the edges one at a time, in O(1).
    if x < 0.0 or x > 1.0:
        x = math.fmod(abs(x), 2.0)
        if x > 1.0:
            x = 2.0 - x
    return x


def start_series(seed: int | None) -> tuple[np.random.Generator, float]:
    """The generator of one series and its starting state, a uniform draw in (0, 1)."""
    rng = np.random.default_rng(seed)
    x = float(rng.random())
    while x == 0.0:
        x = float(rng.random())
    return rng, x


def generate_trajectory(
    map_spec: MapSpec,
    noise: NoiseSpec,
    n: int,
    transient: int = 0,
    seed: int | None = None,
) -> Trajectory:
    """Iterate the noisy map and record n states.

    Starts from a uniform draw in (0, 1), discards `transient` steps, then
    records the current state followed by n-1 further steps of
    x' = f(x) + xi with xi ~ N(0, sigma^2).  States pushed outside [0, 1] by
    noise are reflected back at the edges.  The output is fully determined
    by (map_spec, noise, n, transient, seed).
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if transient < 0:
        raise ValueError(f"transient={transient} must be >= 0")
    rng, x = start_series(seed)
    path = np.empty(transient + n, dtype=float)
    path[0] = x
    step_series(map_spec, noise, rng, x, path[1:])
    return Trajectory(states=path[transient:], transient=int(transient))


def step_series(map_spec: MapSpec, noise: NoiseSpec, rng: np.random.Generator, x: float,
                out: np.ndarray) -> float:
    """Advance one series from state x by len(out) steps of the noisy map.

    `out`, a contiguous float array, receives the states after each step,
    and the last one is returned (x itself if `out` is empty).  The shocks
    are drawn from rng into `out` in one piece, which continues its stream
    exactly as one longer draw would, so stepping a series a chunk at a time
    gives the states of one call over all of it bit for bit.
    """
    rng.standard_normal(out=out)
    out *= noise.sigma
    r = map_spec.r

    def steps(x, shocks):
        # A memoryview yields each double as a Python float, so a step is the
        # same IEEE arithmetic as numpy's without a numpy scalar per step.
        # Only a step that leaves [0, 1] calls _reflect; a NaN fails the test
        # and goes too.
        for shock in shocks:
            x = r * x * (1.0 - x) + shock
            if not 0.0 <= x <= 1.0:
                x = _reflect(x)
            yield x

    # Each piece's shocks are replaced by its states, built by fromiter,
    # which takes fewer interpreter steps than a store per state.
    for at in range(0, len(out), _STEP_PIECE):
        piece = out[at:at + _STEP_PIECE]
        piece[:] = np.fromiter(steps(x, memoryview(piece)), float, len(piece))
        x = float(piece[-1])
    return x


def start_lockstep(seeds) -> tuple[list[np.random.Generator], np.ndarray]:
    """The generator and starting state of each of G series, one per seed,
    drawn as generate_trajectory draws them: ([rng, ...], states of shape (G,))."""
    rngs, x = zip(*map(start_series, seeds))
    return list(rngs), np.array(x)


def step_lockstep(map_spec: MapSpec, noise: NoiseSpec, rngs, x: np.ndarray,
                  out: np.ndarray) -> None:
    """Advance G series together by len(out) steps of generate_trajectory's map.

    `x`, shape (G,), holds the current states and is left holding the last
    ones; row j of `out`, shape (L, G), receives the states after j + 1
    steps.  Series g draws its L shocks from rngs[g] in one piece, which
    continues its stream exactly as one longer draw would, and every step is
    the same IEEE arithmetic as generate_trajectory's, a few numpy calls
    across all G series.  The fold |y| mod 2, then min(y, 2 - y), changes no
    state already in [0, 1], so it is applied to every entry and equals
    _reflect bit for bit.  f maps [0, 1] into itself, so while every shock
    lies within 1/2 of 0, |y| stays under 2 and the mod, which would leave
    it as it is, is skipped.
    """
    if not len(out):
        return
    shocks = np.empty(out.shape[::-1])
    for rng, row in zip(rngs, shocks):
        rng.standard_normal(out=row)
    np.multiply(shocks.T, noise.sigma, out=out)
    wrap = not -0.5 <= out.min() <= out.max() <= 0.5
    # Array operands and positional outputs keep each numpy call cheap.
    one, two, r = (np.full_like(x, c) for c in (1.0, 2.0, map_spec.r))
    prev, fx, mirror = x, np.empty_like(x), np.empty_like(x)
    for y in out:
        # y = f(prev) + shock = r * prev * (1 - prev) + shock
        np.subtract(one, prev, mirror)
        np.multiply(prev, r, fx)
        np.multiply(fx, mirror, fx)
        np.add(y, fx, y)
        np.absolute(y, y)
        if wrap:
            np.fmod(y, two, y)
        np.subtract(two, y, mirror)
        np.minimum(y, mirror, out=y)
        prev = y
    x[:] = prev


def recorded_chunks(map_spec: MapSpec, noise: NoiseSpec, n: int, transient: int, seeds):
    """Yield the n recorded states of G series, one per seed, in chunks of
    shape (L, G), L >= 1: column g of the chunks, joined, is
    generate_trajectory(map_spec, noise, n, transient, seeds[g]).states bit
    for bit.  The warm-up is stepped first and not yielded.

    Every chunk is a view of one buffer, which the next chunk overwrites.  A
    block of at least LOCKSTEP_MIN_POINTS series steps them in lockstep, in
    chunks of max(1, LEAF // G) rows.  A narrower block steps each series
    with step_series into its own row of a (G, LEAF) buffer, so every column
    of its chunks, of LEAF rows, is contiguous.
    """
    rngs, x = start_lockstep(seeds)
    lockstep = len(x) >= LOCKSTEP_MIN_POINTS
    if lockstep:
        buf = np.empty((max(1, LEAF // len(x)), len(x)))
    else:
        buf = np.empty((len(x), min(LEAF, max(n, transient)))).T

    def step(out):
        if lockstep:
            step_lockstep(map_spec, noise, rngs, x, out)
        else:
            for g, rng in enumerate(rngs):
                x[g] = step_series(map_spec, noise, rng, float(x[g]), out[:, g])

    for at in range(0, transient, len(buf)):
        step(buf[:transient - at])
    for at in range(0, n, len(buf)):
        chunk = buf[:n - at]
        if at:
            step(chunk)
        else:  # the first recorded state is the one the warm-up ends on
            chunk[0] = x
            step(chunk[1:])
        yield chunk


def log_slope_sum(map_spec: MapSpec, states: np.ndarray) -> float:
    """The sum of log2 |f'(x)| over the 1-D array `states` by np.add.reduce,
    or -inf if the derivative vanishes at any of them."""
    # |f'(x)| = |r - 2r*x|, computed in one buffer.
    slopes = np.multiply(states, 2.0 * map_spec.r)
    np.subtract(map_spec.r, slopes, out=slopes)
    np.abs(slopes, out=slopes)
    if not slopes.all():
        return -math.inf
    return float(np.add.reduce(np.log2(slopes, out=slopes)))


def mean_log_slope(sums, n: int, stacklevel: int = 2) -> float:
    """Mean log2 |f'(x)| over n states, in bits per step: math.fsum of the
    log_slope_sum of each LEAF of them, over n, so that one leaf of slopes
    is held at a time.

    Returns -inf if the derivative vanishes at any state, with a warning
    `stacklevel` frames up as warnings.warn counts them (2 is the caller): a
    single zero slope collapses the whole product of stretch factors, so it
    must not be dropped silently.
    """
    mean = math.fsum(sums) / n
    if mean == -math.inf:
        warnings.warn("map derivative vanishes on the trajectory; returning -inf",
                      RuntimeWarning, stacklevel=stacklevel)
    return mean


def lyapunov_exponent(map_spec: MapSpec, traj: Trajectory) -> float:
    """Mean log2 |f'(x_t)| along the trajectory, in bits per step, by
    mean_log_slope: -inf, with a warning, if the derivative vanishes anywhere."""
    states = np.asarray(traj.states, dtype=float)
    if states.size == 0:
        raise ValueError("trajectory is empty")
    sums = [log_slope_sum(map_spec, states[at:at + LEAF]) for at in range(0, len(states), LEAF)]
    return mean_log_slope(sums, len(states), stacklevel=3)
