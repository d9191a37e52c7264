"""The binary decision-point partition of [0, 1] and trajectory symbolization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory


@dataclass(frozen=True)
class PartitionSpec:
    """The binary instrument: symbol 0 on [0, d), symbol 1 on [d, 1], d the decision point."""

    decision_point: float

    def __post_init__(self) -> None:
        d = float(self.decision_point)
        object.__setattr__(self, "decision_point", d)
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"decision point {d} must lie in [0, 1]")


@dataclass(frozen=True)
class SymbolSequence:
    """Finite sequence of binary symbols, each 0 or 1."""

    symbols: np.ndarray

    def __post_init__(self) -> None:
        syms = np.asarray(self.symbols)
        if not ((syms == 0) | (syms == 1)).all():
            raise ValueError("symbols must be 0 or 1")
        object.__setattr__(self, "symbols", syms.astype(np.int64))

    def __len__(self) -> int:
        return len(self.symbols)


def symbolize(traj: Trajectory | np.ndarray, part: PartitionSpec) -> SymbolSequence:
    """Symbol 1 for every state at or above the decision point, 0 below it.

    A state equal to the decision point reads 1 (cells are closed on the
    left).  Output length equals input length.
    """
    states = traj.states if isinstance(traj, Trajectory) else np.asarray(traj, dtype=float)
    # min and max are NaN if any state is, which fails both comparisons.
    if states.size and not (states.min() >= 0.0 and states.max() <= 1.0):
        raise ValueError("states outside [0, 1] cannot be symbolized")
    return SymbolSequence(states >= part.decision_point)


def decision_points(count: int) -> np.ndarray:
    """`count` evenly spaced decision points spanning [0, 1]."""
    if count < 2:
        raise ValueError(f"count={count} must be >= 2")
    return np.linspace(0.0, 1.0, count)


def decision_grid(count: int) -> list[PartitionSpec]:
    """Binary partitions at the decision_points(count)."""
    return [PartitionSpec(d) for d in decision_points(count).tolist()]
