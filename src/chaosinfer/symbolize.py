"""Threshold partitions of [0, 1] and trajectory symbolization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory


@dataclass(frozen=True)
class PartitionSpec:
    """Partition of [0, 1] into left-closed cells split at `thresholds`.

    With thresholds (t_1, ..., t_m), symbol 0 is emitted on [0, t_1) and
    symbol i on [t_i, t_{i+1}), the last cell closing at 1.  A single
    threshold d is the binary instrument: 0 on [0, d), 1 on [d, 1].
    """

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        ts = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", ts)
        if not ts:
            raise ValueError("at least one threshold is required")
        if any(not 0.0 <= t <= 1.0 for t in ts):
            raise ValueError(f"thresholds {ts} must lie in [0, 1]")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"thresholds {ts} must be strictly increasing")

    @classmethod
    def binary(cls, d: float) -> "PartitionSpec":
        """Two-cell instrument with decision point d."""
        return cls((d,))

    @property
    def alphabet_size(self) -> int:
        return len(self.thresholds) + 1

    @property
    def decision_point(self) -> float:
        if len(self.thresholds) != 1:
            raise ValueError("decision_point is defined for binary partitions only")
        return self.thresholds[0]


@dataclass(frozen=True)
class SymbolSequence:
    """Finite sequence over the alphabet {0, ..., alphabet_size - 1}."""

    symbols: np.ndarray
    alphabet_size: int = 2

    def __post_init__(self) -> None:
        syms = np.asarray(self.symbols, dtype=np.int64)
        object.__setattr__(self, "symbols", syms)
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet_size={self.alphabet_size} must be >= 1")
        if syms.size and (syms.min() < 0 or syms.max() >= self.alphabet_size):
            raise ValueError("symbols fall outside the alphabet range")

    def __len__(self) -> int:
        return len(self.symbols)


def symbolize(traj: Trajectory | np.ndarray, part: PartitionSpec) -> SymbolSequence:
    """Apply the partition cell index to every state.

    A state equal to a threshold lands in the cell to its right (cells are
    closed on the left).  Output length equals input length.
    """
    states = traj.states if isinstance(traj, Trajectory) else np.asarray(traj, dtype=float)
    if states.size and (states.min() < 0.0 or states.max() > 1.0):
        raise ValueError("states outside [0, 1] cannot be symbolized")
    symbols = np.searchsorted(np.asarray(part.thresholds), states, side="right")
    return SymbolSequence(symbols=symbols.astype(np.int64), alphabet_size=part.alphabet_size)


def decision_points(count: int) -> np.ndarray:
    """`count` evenly spaced decision points spanning [0, 1]."""
    if count < 2:
        raise ValueError(f"count={count} must be >= 2")
    return np.linspace(0.0, 1.0, count)


def decision_grid(count: int) -> list[PartitionSpec]:
    """Binary partitions at the decision_points(count)."""
    return [PartitionSpec.binary(d) for d in decision_points(count).tolist()]
