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


@dataclass(frozen=True)
class MapSpec:
    """One-dimensional map on the unit interval.

    Only the logistic family f(x) = r*x*(1-x) is implemented; r must lie in
    (0, 4] so the noiseless map sends [0, 1] into itself.
    """

    family: str = "logistic"
    r: float = 4.0

    def __post_init__(self) -> None:
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
        # A shock that overflowed to inf would never fold back into [0, 1].
        if not 0.0 <= self.sigma <= MAX_SIGMA:
            raise ValueError(f"sigma={self.sigma} must lie in [0, {MAX_SIGMA!r}]")


@dataclass(frozen=True)
class Trajectory:
    """Simulated states in [0, 1] plus the settings that produced them."""

    states: np.ndarray
    map_spec: MapSpec
    noise: NoiseSpec
    seed: int | None
    transient: int

    def __len__(self) -> int:
        return len(self.states)


def map_apply(spec: MapSpec, x: float) -> float:
    """Evaluate the map at a single state x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"state x={x} outside [0, 1]")
    return spec.r * x * (1.0 - x)


def map_derivative(spec: MapSpec, x: float | np.ndarray) -> np.ndarray:
    """Slope f'(x) = r - 2*r*x, vectorized over states."""
    return spec.r - 2.0 * spec.r * np.asarray(x, dtype=float)


def _reflect(x: float) -> float:
    # Fold noise excursions back into [0, 1] without piling mass at the edges:
    # the period-2 reflection |x| mod 2, folded at 1.  fmod and 2 - y are
    # exact, so this equals bouncing off the edges one at a time, in O(1).
    if x < 0.0 or x > 1.0:
        x = math.fmod(abs(x), 2.0)
        if x > 1.0:
            x = 2.0 - x
    return x


def generate_trajectory(
    map_spec: MapSpec,
    noise: NoiseSpec,
    n: int,
    transient: int = 0,
    seed: int | None = None,
    x0: float | None = None,
) -> Trajectory:
    """Iterate the noisy map and record n states.

    Starts from a uniform draw in (0, 1) (or from x0 when given), discards
    `transient` steps, then records the current state followed by n-1 further
    steps of x' = f(x) + xi with xi ~ N(0, sigma^2).  States pushed outside
    [0, 1] by noise are reflected back at the edges.  The output is fully
    determined by (map_spec, noise, n, transient, seed, x0).
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if transient < 0:
        raise ValueError(f"transient={transient} must be >= 0")
    rng = np.random.default_rng(seed)
    if x0 is None:
        x = float(rng.random())
        while x == 0.0:
            x = float(rng.random())
    else:
        if not 0.0 <= x0 <= 1.0:
            raise ValueError(f"x0={x0} outside [0, 1]")
        x = float(x0)
    r = map_spec.r
    shocks = noise.sigma * rng.standard_normal(transient + n - 1)
    states = np.empty(n, dtype=float)
    step = 0
    for _ in range(transient):
        x = _reflect(r * x * (1.0 - x) + shocks[step])
        step += 1
    states[0] = x
    for i in range(1, n):
        x = _reflect(r * x * (1.0 - x) + shocks[step])
        step += 1
        states[i] = x
    return Trajectory(
        states=states,
        map_spec=map_spec,
        noise=noise,
        seed=None if seed is None else int(seed),
        transient=int(transient),
    )


def lyapunov_exponent(map_spec: MapSpec, traj: Trajectory) -> float:
    """Mean log2 |f'(x_t)| along the trajectory, in bits per step.

    Returns -inf (with a warning) if the derivative vanishes anywhere on the
    trajectory: a single zero slope collapses the whole product of stretch
    factors, so it must not be dropped silently.
    """
    states = np.asarray(traj.states, dtype=float)
    if states.size == 0:
        raise ValueError("trajectory is empty")
    slopes = np.abs(map_derivative(map_spec, states))
    if np.any(slopes == 0.0):
        warnings.warn(
            "map derivative vanishes on the trajectory; returning -inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("-inf")
    return float(np.mean(np.log2(slopes)))
