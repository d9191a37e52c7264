"""Markov transition counts, of one symbol sequence or of a whole decision-point grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .symbolize import SymbolSequence

# Transition counts are stored dense, alphabet**(order+1) entries total.
MAX_TABLE_ENTRIES = 1 << 26
# Windows sorted at once by grid_transition_counts; bounds its temporaries.
_WINDOW_CHUNK = 1 << 13


@dataclass(frozen=True)
class CountTable:
    """Transition counts n(context -> symbol) for one memory length.

    Rows index contexts encoded as base-`alphabet_size` integers with the
    oldest symbol most significant; columns index the next symbol.  A stack
    of tables for several decision points carries a leading grid axis, shape
    (G, alphabet_size**order, alphabet_size).
    """

    order: int
    alphabet_size: int
    table: np.ndarray

    @property
    def context_totals(self) -> np.ndarray:
        """Occurrences of each context, n(context) = sum_s n(context -> s)."""
        return self.table.sum(axis=-1)


def transition_counts(seq: SymbolSequence, order: int) -> CountTable:
    """Count next-symbol occurrences for every length-`order` context.

    Counting starts after the first `order` symbols, so the total mass is
    len(seq) - order.
    """
    if order < 0:
        raise ValueError(f"order={order} must be >= 0")
    n = len(seq)
    if n < order + 1:
        raise ValueError(f"sequence of length {n} too short for order {order}")
    a = seq.alphabet_size
    n_cells = a ** (order + 1)
    if n_cells > MAX_TABLE_ENTRIES:
        raise ValueError(f"dense table with {n_cells} entries is too large")
    symbols = seq.symbols
    # At order 0 the windows are empty and every context code is 0.
    powers = a ** np.arange(order - 1, -1, -1, dtype=np.int64)
    ctx = sliding_window_view(symbols, order)[:-1] @ powers
    flat = np.bincount(ctx * a + symbols[order:], minlength=n_cells)
    return CountTable(order=order, alphabet_size=a, table=flat.reshape(a**order, a))


def grid_transition_counts(states, thresholds, orders) -> dict[int, np.ndarray]:
    """Binary transition counts at every threshold, for every order, in one pass.

    Returns {k: int64 array of shape (len(thresholds), 2**(k+1))} whose row i
    is transition_counts(symbolize(states, PartitionSpec.binary(thresholds[i])),
    k).table flattened.  Thresholds must be ascending.

    A state reads 1 at threshold i iff i < searchsorted(thresholds, state,
    "right"), the left-closed rule of symbolize.  A window of k_max + 1 states
    changes its pattern only where the threshold index passes one of its own
    search results, so sorting those gives the pattern on every threshold
    interval; the patterns go into a difference array over thresholds whose
    cumulative sum is the order-k_max table at each threshold.  Lower orders
    sum that table over its oldest context symbols and add the windows that
    end among the first k_max states.
    """
    states = np.asarray(states, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    orders = sorted({int(k) for k in orders})
    if not orders or orders[0] < 0:
        raise ValueError(f"orders {orders} must be non-empty and >= 0")
    if np.any(np.diff(thresholds) < 0):
        raise ValueError("thresholds must be ascending")
    k_max = orders[-1]
    width = k_max + 1
    n_patterns = 1 << width
    if n_patterns > MAX_TABLE_ENTRIES:
        raise ValueError(f"dense table with {n_patterns} entries is too large")
    n, grid = len(states), len(thresholds)
    if n < width:
        raise ValueError(f"sequence of length {n} too short for order {k_max}")
    cut = np.searchsorted(thresholds, states, side="right")
    reads_one = np.arange(grid)[:, None] < cut[None, :k_max]
    # Sort key: cut in the high bits, k_max - position in the low bits, so
    # the low bits of a sorted key give the weight of its state's bit.
    shift = width.bit_length()
    cut <<= shift
    weight_exp = np.arange(k_max, -1, -1)
    size = (grid + 1) * n_patterns
    diff = np.zeros(size, dtype=np.int64)
    diff[n_patterns - 1] = n - k_max  # below every cut all window bits read 1
    for start in range(0, n - k_max, _WINDOW_CHUNK):
        stop = min(start + _WINDOW_CHUNK, n - k_max)
        windows = sliding_window_view(cut[start:stop + k_max], width) + weight_exp
        windows.sort(axis=1)
        bit = np.left_shift(1, windows & ((1 << shift) - 1))
        # Passing the m-th smallest cut clears the bit of that state.
        after = n_patterns - 1 - np.cumsum(bit, axis=1)
        windows >>= shift
        windows <<= width
        windows += after
        diff += np.bincount(windows.ravel(), minlength=size)
        windows += bit
        diff -= np.bincount(windows.ravel(), minlength=size)
    diff = diff.reshape(grid + 1, n_patterns)
    return lower_orders(np.cumsum(diff, axis=0, out=diff)[:grid], reads_one, orders)


def lower_orders(table, first, orders) -> dict[int, np.ndarray]:
    """{k: (G, 2**(k+1)) binary tables} for each k in the ascending `orders`,
    from G stacked order-k_max tables of shape (G, 2**(k_max+1)), k_max =
    orders[-1], and the first k_max symbols of each series, shape (G, k_max).

    Order k counts the order-(k+1) windows without their oldest symbol plus
    the window of the first k+1 symbols.
    """
    k_max = orders[-1]
    tables = {k_max: table}
    rows = np.arange(len(table))
    for k in range(k_max - 1, orders[0] - 1, -1):
        table = table.reshape(len(rows), 2, 1 << (k + 1)).sum(axis=1)
        table[rows, first[:, :k + 1] @ (1 << np.arange(k, -1, -1))] += 1
        tables[k] = table
    return {k: tables[k] for k in orders}
