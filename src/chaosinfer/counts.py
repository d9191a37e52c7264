"""Markov transition counts, of one symbol sequence, of a whole decision-point
grid of one series, or of many series, one decision point each.

This module decides how a series is counted.  A grid is counted from the
cut of each state of its series, which grid_top_counts takes in pieces of
any lengths, in order: it carries the last 2 * k_max cuts from one piece to
the next and counts a state once the k_max after it have come.
grid_block_counts counts a grid of one block as its cuts come, and holds the
cuts of a grid of several blocks to replay them once per block.
series_counts counts many series chunk by chunk, carrying their last k_max
symbols.
"""

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


def grid_top_counts(pieces, n, lo, points, k_max, below=None) -> tuple[np.ndarray, np.ndarray]:
    """The order-k_max binary tables at the `points` decision points lo,
    lo + 1, ... of a grid, int64 of shape (points, 2**(k_max+1)), row i
    flattened as transition_counts of the series symbolized at grid point
    lo + i is, and the first k_max symbols of each, bool of shape (points,
    k_max): the pair that lower_orders takes.

    `pieces` yields the cuts of the n states of the series in order, in
    arrays of any lengths that join to n, each cut as symbolize.state_cuts
    gives it in the whole grid, so a state reads 1 at grid point p iff
    p < cut.  A state is counted once the k_max states after it have
    arrived, or the series has ended, so only the last 2 * k_max cuts, the
    uncounted states and the neighbours before them, are carried from one
    piece to the next: a series cut as it is stepped is counted without
    ever being held.  A ValueError is raised if the pieces hold more or
    fewer than n cuts.

    Below every cut each window's pattern is all ones; at its own cut c a
    state clears its bit in each of the k_max + 1 windows it sits in, and
    each such event moves one window from one pattern to another in row
    c - lo of a difference array over the block, one row longer than the
    tables, whose running sum over rows is the order-k_max table at each
    point.  The block starts from `below`, the flattened table at grid point
    lo - 1, such as the last table of the block before, by default the
    all-ones table of n - k_max windows that every point below every cut
    has, and counts only the states with lo <= cut < lo + points.  The
    difference array holds the tables and one cell more, a dump, where both
    events of a window past either end of the series land.

    Where several states of a window share a cut they clear in order of
    position, oldest first, so just before state s, at position j of window
    s - j, clears, the bit of position i is set iff the cut of state
    s - j + i exceeds c, or equals it with i >= j.  For j = 0 that is
    2**k_max plus k_max compares with the states after s, and each next j
    shifts the pattern right and sets its top bit iff the cut of state s - j
    exceeds c.  The events are added into the difference array in place, so
    a chunk of states costs what its events cost, whatever the block's width.
    """
    n_patterns = _table_cells(n, k_max)
    width = k_max + 1
    top = lo + points
    flat = np.zeros(points * n_patterns + 1, dtype=np.int64)
    dump = flat.size - 1
    diff = flat[:dump].reshape(points, n_patterns)
    if below is None:
        diff[0, -1] = n - k_max  # below every cut all window bits read 1
    else:
        diff[0] = below
    # One lookup per state, read only at cuts lo to top - 1, shifts its cut
    # to its row's offset in the difference array.  Codes stay below its
    # size, and in 32 bits where they fit.
    code = np.int32 if flat.size <= np.iinfo(np.int32).max else np.int64
    row = ((np.arange(top) - lo) << width).astype(code)
    cleared = (n_patterns >> np.arange(1, width + 1, dtype=code))[:, None]  # bit of position j

    def count(cuts, base, start, stop):
        """Add the events of the states start to stop of the series, whose
        cuts and every neighbour's in the series are cuts[s - base]."""
        own = cuts[start - base:stop - base]
        # near[k_max + o] holds the cut of the state o places after each
        # counted one, for |o| <= k_max; a state past an end of the series
        # only reaches dumped windows, so its cut may be anything.
        inside = k_max <= start and stop <= n - k_max  # every neighbour is in the series
        if inside and own.min() >= lo and own.max() < top:  # every event is in the block
            near = [cuts[start - base + o:stop - base + o] for o in range(-k_max, width)]
        else:
            at = np.flatnonzero((own >= lo) & (own < top))
            if not at.size:
                return
            at += start - base
            near = [cuts.take(at + o, mode="clip") for o in range(-k_max, width)]
            own = near[k_max]
            at += base
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
            j = np.arange(width)[:, None]
            past = (at < j) | (at > n - width + j)
            before[past] = dump
        np.subtract.at(flat, before, 1)
        before -= cleared
        if not inside:
            before[past] = dump
        np.add.at(flat, before, 1)

    # carry holds the cuts of the states base, base + 1, ... that the next
    # piece is joined to: every state from `counted` on, and the k_max before.
    carry, base, counted, head = (), 0, 0, None
    for piece in pieces:
        cuts = np.concatenate([carry, piece]) if len(carry) else np.asarray(piece)
        seen = base + len(cuts)
        if seen > n:
            raise ValueError(f"the pieces hold more than the {n} cuts of the series")
        if head is None and seen >= k_max:  # base is 0 until more than 2 * k_max have come
            head = cuts[:k_max].astype(np.intp)
        stop = seen if seen == n else seen - k_max
        for start in range(counted, stop, _WINDOW_CHUNK):
            count(cuts, base, start, min(start + _WINDOW_CHUNK, stop))
        counted = max(counted, stop)
        carry = cuts[max(0, counted - k_max) - base:].copy()
        base = max(0, counted - k_max)
    if counted < n:
        raise ValueError(f"the pieces hold fewer than the {n} cuts of the series")
    np.cumsum(diff, axis=0, out=diff)
    first = np.arange(points)[:, None] < np.clip(head - lo, 0, points)
    return diff, first


def grid_block_counts(pieces, n, grid, block, k_max):
    """Yield grid_top_counts of each block of `block` decision points of a
    grid of `grid` points, in grid order, from `pieces`, the cuts of the n
    states of the series as grid_top_counts takes them.

    A grid of one block is counted as the pieces come, and no cut is held.
    On a grid of several blocks every cut is held, in the narrowest unsigned
    type that holds `grid`, and replayed as one piece per block.  The first
    block starts from the all-ones table of n - k_max windows, and each
    block after it from a copy of the last table of the block before, so a
    state's events are counted in the one block that holds its cut, and in
    none if its cut is `grid`.  That copy is taken when the next block is
    asked for, so the caller must not change a block's tables before then;
    while a block is with the caller, no other table is held here."""
    if block >= grid:
        yield grid_top_counts(pieces, n, 0, grid, k_max)
        return
    cuts = np.empty(n, dtype=np.min_scalar_type(grid))
    held = 0
    for piece in pieces:
        cuts[held:held + len(piece)] = piece
        held += len(piece)
        del piece  # so that the last piece is not kept while the blocks are counted
    below = None
    for lo in range(0, grid, block):
        tables, first = grid_top_counts([cuts[:held]], n, lo, min(block, grid - lo), k_max, below)
        below = None
        yield tables, first
        below = tables[-1].copy()  # a view would keep the block's tables alive
        del tables, first  # so that the caller frees them before the next block is counted


def series_counts(chunks, thresholds, k_max) -> tuple[np.ndarray, np.ndarray]:
    """The order-k_max tables of G series, int64 of shape (G, 2**(k_max+1)),
    row g flattened as transition_counts(..., k_max).table of series g is,
    and the first k_max symbols of each, bool of shape (G, k_max): the pair
    that grid_top_counts returns.

    `chunks` yields the states of the G series in arrays of shape (L, G),
    the next L states of each, and series g reads 1 at or above
    thresholds[g], the left-closed rule of symbolize.  Only the last k_max
    symbols are carried from one chunk to the next, so the windows that span
    a chunk edge are counted and the memory does not grow with the series.
    A window's code, from _window_codes, is widened and offset by
    g << (k_max + 1) in one add, and np.add.at adds them all into the tables
    in place.
    """
    tables = np.zeros((len(thresholds), 2 << k_max), dtype=np.int64)
    offsets = np.arange(0, tables.size, tables.shape[1])
    history = np.zeros((0, len(thresholds)), dtype=bool)
    first = None
    for chunk in chunks:
        symbols = np.concatenate([history, chunk >= thresholds])
        if len(symbols) > k_max:
            np.add.at(tables.reshape(-1), _window_codes(symbols, k_max) + offsets, 1)
        if first is None and len(symbols) >= k_max:
            first = symbols[:k_max].T
        history = symbols[max(0, len(symbols) - k_max):]
    return tables, first


def lower_orders(table, first, orders):
    """Yield the CountTable of each k in the ascending `orders`, from the
    top order down, each a stack of shape (G, 2**k, 2) that
    entropy.order_scores takes, from G stacked order-k_max tables of shape
    (G, 2**(k_max+1)), k_max = orders[-1], and the first k_max symbols of
    each series, shape (G, k_max).  An order is derived only once the one
    above it has been yielded, and only it is held then, so a consumer that
    drops each table before asking for the next holds at most two orders.

    Order k counts the order-(k+1) windows without their oldest symbol plus
    the window of the first k+1 symbols.
    """
    rows = np.arange(len(table))
    for k in range(orders[-1], orders[0] - 1, -1):
        if k < orders[-1]:
            table = table[:, :2 << k] + table[:, 2 << k:]
            table[rows, first[:, :k + 1] @ (1 << np.arange(k, -1, -1))] += 1
        if k in orders:
            yield CountTable(table.reshape(len(rows), -1, 2))
