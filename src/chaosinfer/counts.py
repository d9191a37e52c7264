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
        """Occurrences of each context, n(context) = sum_s n(context -> s),
        as one elementwise add: a reduction over an axis of length 2 costs
        many times the add."""
        return self.table[..., 0] + self.table[..., 1]


def _window_codes(symbols, k) -> np.ndarray:
    """The code of every window of k + 1 consecutive symbols along the first
    axis, oldest symbol most significant, built from k + 1 shifted ORs in
    uint16 up to k = 15 and in uint32 beyond.  The symbols, 0 or 1, may be of
    any integer or bool type."""
    n_windows = len(symbols) - k
    codes = symbols[:n_windows].astype(np.uint16 if k < 16 else np.uint32)
    for j in range(1, k + 1):
        codes <<= 1
        np.bitwise_or(codes, symbols[j:j + n_windows], out=codes, casting="unsafe")
    return codes


def _table_cells(n: int, order: int) -> int:
    """The 2**(order+1) cells of the order-`order` table of a series of n
    symbols, after checking that the order is >= 0, the dense table within
    MAX_TABLE_ENTRIES and the series longer than the order."""
    if order < 0:
        raise ValueError(f"order={order} must be >= 0")
    n_cells = 2 << order
    if n_cells > MAX_TABLE_ENTRIES:
        raise ValueError(f"dense table with {n_cells} entries is too large")
    if n < order + 1:
        raise ValueError(f"sequence of length {n} too short for order {order}")
    return n_cells


def transition_counts(seq: SymbolSequence, order: int) -> CountTable:
    """Count next-symbol occurrences for every length-`order` context.

    Counting starts after the first `order` symbols, so the total mass is
    len(seq) - order.
    """
    n_cells = _table_cells(len(seq), order)
    flat = np.bincount(_window_codes(seq.symbols, order), minlength=n_cells)
    return CountTable(flat.reshape(n_cells >> 1, 2))


def grid_top_counts(cuts, lo, points, k_max, below) -> tuple[np.ndarray, np.ndarray]:
    """The order-k_max binary tables at the `points` decision points lo,
    lo + 1, ... of a grid, int64 of shape (points, 2**(k_max+1)), row i
    flattened as transition_counts of the series symbolized at grid point
    lo + i is, and the first k_max symbols of each, bool of shape (points,
    k_max): the pair that lower_orders takes.

    `cuts` holds the cut of each state of the series in the whole grid, as
    symbolize.state_cuts gives it, so a state reads 1 at grid point p iff
    p < cut.  Below every cut each window's pattern is all ones; at its own
    cut c a state clears its bit in each of the k_max + 1 windows it sits
    in, and each such event moves one window from one pattern to another in
    row c - lo of a difference array over the block, one row longer than
    the tables, whose running sum over rows is the order-k_max table at each
    point.  The block starts from `below`, the flattened table at grid point
    lo - 1, such as the last table of the block before, and counts only the
    states with lo <= cut < lo + points.  Events at a cut of lo + points or
    more are not counted, or land in the discarded last row.

    Where several states of a window share a cut they clear in order of
    position, oldest first, so just before state s, at position j of window
    s - j, clears, the bit of position i is set iff the cut of state
    s - j + i exceeds c, or equals it with i >= j.  For j = 0 that is
    2**k_max plus k_max compares with the states after s, and each next j
    shifts the pattern right and sets its top bit iff the cut of state s - j
    exceeds c.  The events are added into the difference array in place, so
    a chunk of states costs what its events cost, whatever the block's width.
    """
    cuts = np.asarray(cuts)
    n = len(cuts)
    n_patterns = _table_cells(n, k_max)
    width = k_max + 1
    top = lo + points
    diff = np.zeros((points + 1, n_patterns), dtype=np.int64)
    diff[0] = below
    flat = diff.reshape(-1)
    # One lookup per state, read only at cuts lo to top, shifts its cut to
    # its row's offset in the difference array.  Codes stay below its size,
    # and in 32 bits where they fit.
    code = np.int32 if flat.size <= np.iinfo(np.int32).max else np.int64
    row = ((np.arange(top + 1) - lo) << width).astype(code)
    cleared = (n_patterns >> np.arange(1, width + 1, dtype=code))[:, None]  # bit of position j
    # A window past either end of the series counts in the discarded last
    # row at the all-ones pattern, so clearing a bit keeps it in that row.
    dump = flat.size - 1
    for start in range(0, n, _WINDOW_CHUNK):
        stop = min(start + _WINDOW_CHUNK, n)
        own = cuts[start:stop]
        # near[k_max + o] holds the cut of the state o places after each
        # counted one, for |o| <= k_max; a state past an end of the series
        # only reaches dumped windows, so its cut may be anything.
        inside = k_max <= start and stop <= n - k_max  # every neighbour is in the series
        if inside and own.min() >= lo and own.max() <= top:  # every event is in the block
            near = [cuts[start + o:stop + o] for o in range(-k_max, width)]
        else:
            at = np.flatnonzero((own >= lo) & (own < top))
            if not at.size:
                continue
            at += start
            near = [cuts.take(at + o, mode="clip") for o in range(-k_max, width)]
            own = near[k_max]
        pattern = np.ones(len(own), dtype=code)
        above = np.empty(len(own), dtype=bool)
        for o in range(1, width):
            pattern <<= 1
            pattern |= np.greater_equal(near[k_max + o], own, out=above)
        offset = row.take(own)
        before = np.empty((width, len(own)), dtype=code)
        np.add(offset, pattern, out=before[0])
        bit = np.empty(len(own), dtype=code)
        for j in range(1, width):
            pattern >>= 1
            np.greater(near[k_max - j], own, out=above)
            pattern |= np.left_shift(above, k_max, out=bit, dtype=code)
            np.add(offset, pattern, out=before[j])
        if not inside:  # window s - j exists iff j <= s <= n - width + j
            for j in range(width):
                before[j, (at < j) | (at > n - width + j)] = dump
        np.subtract.at(flat, before, 1)
        before -= cleared
        np.add.at(flat, before, 1)
    tables = diff[:points]
    np.cumsum(tables, axis=0, out=tables)
    first = np.arange(points)[:, None] < np.clip(cuts[:k_max].astype(np.intp) - lo, 0, points)
    return tables, first


def grid_block_counts(cuts, grid, block, k_max):
    """Yield grid_top_counts of each block of `block` decision points of a
    grid of `grid` points, in grid order.  The first block starts from the
    all-ones table of n - k_max windows, and each block after it from a copy
    of the last table of the block before, so a state's events are counted
    in the one block that holds its cut, and in none if its cut is `grid`."""
    below = np.zeros(_table_cells(len(cuts), k_max), dtype=np.int64)
    below[-1] = len(cuts) - k_max  # below every cut all window bits read 1
    for lo in range(0, grid, block):
        tables, first = grid_top_counts(cuts, lo, min(block, grid - lo), k_max, below)
        below = tables[-1].copy()  # a view would keep the block's tables alive
        yield tables, first
        del tables, first  # so that the caller frees them before the next block is counted


def count_windows(table, states, thresholds, history) -> np.ndarray:
    """Add the order-k windows that end in a chunk of G series to their tables.

    `table`, a C-contiguous array of shape (G, 2**(k+1)), is incremented in
    place through a flat view, which a table of any other layout would not
    give: row g counts the windows of series g as
    transition_counts(..., k).table flattened does.  `states`, shape (L, G),
    holds the next L states of each series, and series g reads 1 at or above
    thresholds[g], the left-closed rule of symbolize.  `history`, shape
    (m, G), holds the symbols that precede the chunk, at most k of them, so
    the windows that span the chunk edge are counted too.  Returns the
    symbols of history and chunk together, shape (m + L, G): the caller
    keeps the last k as the next chunk's history.

    A window's code, from _window_codes, is widened and offset by g << (k + 1)
    in one add, and np.add.at adds them all into the table in place.
    """
    size = table.shape[1]
    k = size.bit_length() - 2
    symbols = np.concatenate([history, states >= thresholds])
    if len(symbols) > k:
        codes = _window_codes(symbols, k) + np.arange(0, table.size, size)
        np.add.at(table.reshape(-1), codes, 1)
    return symbols


def lower_orders(table, first, orders) -> list[CountTable]:
    """The CountTable of each k in the ascending `orders`, in that order,
    each a stack of shape (G, 2**k, 2) that entropy.order_scores takes, from
    G stacked order-k_max tables of shape (G, 2**(k_max+1)), k_max =
    orders[-1], and the first k_max symbols of each series, shape (G, k_max).

    Order k counts the order-(k+1) windows without their oldest symbol plus
    the window of the first k+1 symbols.
    """
    k_max = orders[-1]
    tables = {k_max: table}
    rows = np.arange(len(table))
    for k in range(k_max - 1, orders[0] - 1, -1):
        halves = table.reshape(len(rows), 2, 1 << (k + 1))
        table = halves[:, 0] + halves[:, 1]
        table[rows, first[:, :k + 1] @ (1 << np.arange(k, -1, -1))] += 1
        tables[k] = table
    return [CountTable(tables[k].reshape(len(rows), -1, 2)) for k in orders]
