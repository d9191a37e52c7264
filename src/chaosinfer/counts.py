"""Markov transition counts, of one symbol sequence or of a whole decision-point grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbolize import SymbolSequence

# Transition counts are stored dense, 2**(order+1) entries total.
MAX_TABLE_ENTRIES = 1 << 26
# States whose k_max + 1 transition events grid_top_counts builds at once;
# bounds its temporaries.
_WINDOW_CHUNK = 1 << 13


@dataclass(frozen=True)
class CountTable:
    """Transition counts n(context -> symbol) for one memory length, the
    order k of a table of shape (..., 2**k, 2).

    Rows index contexts encoded as binary integers with the oldest symbol
    most significant; columns index the next symbol.  A stack of tables for
    several decision points carries a leading grid axis, shape (G, 2**k, 2).
    Counts are integers >= 0: the scoring kernels look their terms up by
    count.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        shape = self.table.shape
        if len(shape) < 2 or shape[-1] != 2 or shape[-2].bit_count() != 1:
            raise ValueError(f"count table of shape {shape} is not (..., 2**order, 2)")
        if self.table.dtype.kind not in "iu":
            raise ValueError(f"count table of dtype {self.table.dtype} does not hold integers")
        if self.table.min(initial=0) < 0:
            raise ValueError("count table holds a negative count")

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
    iff i < clip(cut - lo, 0, points).  Below every cut each window's
    pattern is all ones; at its own clipped cut c a state clears its bit in
    each of the k_max + 1 windows it sits in, and each such event moves one
    window from one pattern to another in row c of a difference array over
    points, one row longer than the tables, whose cumulative sum is the
    order-k_max table at each point.  Where several states of a window share
    a cut they clear in order of position, oldest first, so just before
    state s, at position j of window s - j, clears, the bit of position i is
    set iff the cut of state s - j + i exceeds c, or equals it with i >= j.
    For j = 0 that is 2**k_max plus k_max compares with the states after s,
    and each next j shifts the pattern right and sets its top bit iff the cut
    of state s - j exceeds c.
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
    # One lookup per state clips its cut and shifts it to its row's offset
    # in the difference array; offsets compare as the cuts do.  Codes stay
    # below size, and in 32 bits where they fit.
    size = (points + 1) * n_patterns
    code = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    row = (np.clip(np.arange(int(cuts.max()) + 1) - lo, 0, points) << width).astype(code)
    cleared = (n_patterns >> np.arange(1, width + 1, dtype=code))[:, None]  # bit of position j
    # A window past either end of the series counts in the discarded last
    # row at the all-ones pattern, so clearing a bit keeps it in that row.
    dump = size - 1
    diff = np.zeros(size, dtype=np.int64)
    diff[n_patterns - 1] = n - k_max  # below every cut all window bits read 1
    for start in range(0, n, _WINDOW_CHUNK):
        stop = min(start + _WINDOW_CHUNK, n)
        chunk = stop - start
        # Offsets of states start - k_max .. stop + k_max - 1; those past an
        # end of the series only ever reach windows that are dumped.
        keys = row.take(cuts[max(start - k_max, 0):stop + k_max])
        head, tail = max(k_max - start, 0), max(stop + k_max - n, 0)
        if head or tail:
            keys = np.concatenate([np.full(head, dump, code), keys, np.full(tail, dump, code)])
        own = keys[k_max:k_max + chunk]
        pattern = np.ones(chunk, dtype=code)
        above = np.empty(chunk, dtype=bool)
        for o in range(1, width):
            pattern <<= 1
            pattern |= np.greater_equal(keys[k_max + o:k_max + o + chunk], own, out=above)
        before = np.empty((width, chunk), dtype=code)
        np.add(own, pattern, out=before[0])
        bit = np.empty(chunk, dtype=code)
        for j in range(1, width):
            pattern >>= 1
            np.greater(keys[k_max - j:k_max - j + chunk], own, out=above)
            pattern |= np.left_shift(above, k_max, out=bit, dtype=code)
            np.add(own, pattern, out=before[j])
        if head or tail:  # window s - j exists iff j <= s <= n - width + j
            for j in range(width):
                before[j, :max(j - start, 0)] = dump
                before[j, max(n - width + j + 1 - start, 0):] = dump
        diff -= np.bincount(before.ravel(), minlength=size)
        before -= cleared
        diff += np.bincount(before.ravel(), minlength=size)
    diff = diff.reshape(points + 1, n_patterns)
    first = np.arange(points)[:, None] < (row.take(cuts[:k_max]) >> width)[None, :]
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
