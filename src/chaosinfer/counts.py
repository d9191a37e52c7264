"""Markov transition counts, of one symbol sequence or of a whole decision-point grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .symbolize import SymbolSequence

# Transition counts are stored dense, 2**(order+1) entries total.
MAX_TABLE_ENTRIES = 1 << 26
# Windows sorted at once by grid_top_counts; bounds its temporaries.
_WINDOW_CHUNK = 1 << 13


@dataclass(frozen=True)
class CountTable:
    """Transition counts n(context -> symbol) for one memory length, the
    order k of a table of shape (..., 2**k, 2).

    Rows index contexts encoded as binary integers with the oldest symbol
    most significant; columns index the next symbol.  A stack of tables for
    several decision points carries a leading grid axis, shape (G, 2**k, 2).
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        shape = self.table.shape
        if len(shape) < 2 or shape[-1] != 2 or shape[-2].bit_count() != 1:
            raise ValueError(f"count table of shape {shape} is not (..., 2**order, 2)")

    @property
    def context_totals(self) -> np.ndarray:
        """Occurrences of each context, n(context) = sum_s n(context -> s)."""
        return _symbol_sum(self.table)


def _symbol_sum(x) -> np.ndarray:
    """x summed over its last (symbol) axis, one elementwise add.

    The sums equal x.sum(axis=-1) bit for bit, save that a row of negative
    zeros sums to -0.0 where numpy gives +0.0.  A reduction over an axis of
    length 2 costs many times the add.
    """
    return x[..., 0] + x[..., 1]


def _window_codes(symbols, k) -> np.ndarray:
    """The code of every window of k + 1 consecutive symbols along the first
    axis, oldest symbol most significant, built from k + 1 shifted ORs."""
    n_windows = len(symbols) - k
    codes = symbols[:n_windows].astype(np.intp)
    for j in range(1, k + 1):
        codes <<= 1
        codes |= symbols[j:j + n_windows]
    return codes


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
    n_cells = 2 << order
    if n_cells > MAX_TABLE_ENTRIES:
        raise ValueError(f"dense table with {n_cells} entries is too large")
    flat = np.bincount(_window_codes(seq.symbols, order), minlength=n_cells)
    return CountTable(flat.reshape(n_cells >> 1, 2))


def grid_top_counts(cuts, lo, points, k_max) -> tuple[np.ndarray, np.ndarray]:
    """The order-k_max binary tables at the `points` decision points lo,
    lo + 1, ... of a grid, int64 of shape (points, 2**(k_max+1)), row i
    flattened as transition_counts of the series symbolized at grid point
    lo + i is, and the first k_max symbols of each, bool of shape (points,
    k_max): the pair that lower_orders takes.

    `cuts` holds the cut of each state of the series in the whole grid, as
    symbolize.state_cuts gives it, so a state reads 1 at grid point lo + i
    iff i < clip(cut - lo, 0, points).  A window of k_max + 1 states changes
    its pattern only where the point index passes one of its own clipped
    cuts, so sorting those gives the pattern on every point interval; the
    patterns go into a difference array over points, one row longer than
    the tables, whose cumulative sum is the order-k_max table at each point.
    """
    cuts = np.asarray(cuts)
    if k_max < 0:
        raise ValueError(f"order {k_max} must be >= 0")
    width = k_max + 1
    n_patterns = 1 << width
    if n_patterns > MAX_TABLE_ENTRIES:
        raise ValueError(f"dense table with {n_patterns} entries is too large")
    n = len(cuts)
    if n < width:
        raise ValueError(f"sequence of length {n} too short for order {k_max}")
    # Sort key: clipped cut in the high bits, k_max - position in the low
    # bits, so the low bits of a sorted key give the weight of its state's
    # bit.  One lookup per state clips and shifts its cut.  Keys and codes
    # stay below size, and in 32 bits, where they fit, they sort faster.
    size = (points + 1) * n_patterns
    code = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    shift = width.bit_length()
    key = (np.clip(np.arange(int(cuts.max()) + 1) - lo, 0, points) << shift).astype(code)
    weight_exp = np.arange(k_max, -1, -1, dtype=code)
    diff = np.zeros(size, dtype=np.int64)
    diff[n_patterns - 1] = n - k_max  # below every cut all window bits read 1
    for start in range(0, n - k_max, _WINDOW_CHUNK):
        stop = min(start + _WINDOW_CHUNK, n - k_max)
        windows = sliding_window_view(key.take(cuts[start:stop + k_max]), width) + weight_exp
        windows.sort(axis=1)
        bit = np.left_shift(1, windows & ((1 << shift) - 1))
        # Passing the m-th smallest cut clears the bit of that state.  The
        # axis is short, so a subtraction per column beats a cumsum along it.
        after = np.empty_like(bit)
        np.subtract(n_patterns - 1, bit[:, 0], out=after[:, 0])
        for j in range(1, width):
            np.subtract(after[:, j - 1], bit[:, j], out=after[:, j])
        windows >>= shift
        windows <<= width
        windows += after
        diff += np.bincount(windows.ravel(), minlength=size)
        windows += bit
        diff -= np.bincount(windows.ravel(), minlength=size)
    diff = diff.reshape(points + 1, n_patterns)
    first = np.arange(points)[:, None] < (key.take(cuts[:k_max]) >> shift)[None, :]
    return np.cumsum(diff, axis=0, out=diff)[:points], first


def count_windows(table, states, thresholds, history) -> np.ndarray:
    """Add the order-k windows that end in a chunk of G series to their tables.

    `table`, shape (G, 2**(k+1)), is incremented in place: row g counts the
    windows of series g as transition_counts(..., k).table flattened does.
    `states`, shape (L, G), holds the next L states of each series, and
    series g reads 1 at or above thresholds[g], the left-closed rule of
    symbolize.  `history`, shape (m, G), holds the symbols that precede the
    chunk, at most k of them, so the windows that span the chunk edge are
    counted too.  Returns the symbols of history and chunk together, shape
    (m + L, G): the caller keeps the last k as the next chunk's history.

    A window's code, from _window_codes, is offset by g << (k + 1), so one
    bincount counts them all.
    """
    size = table.shape[1]
    k = size.bit_length() - 2
    symbols = np.concatenate([history, states >= thresholds])
    if len(symbols) > k:
        codes = _window_codes(symbols, k)
        codes += np.arange(0, table.size, size)
        table += np.bincount(codes.ravel(), minlength=table.size).reshape(table.shape)
    return symbols


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
