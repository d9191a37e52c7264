import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaosinfer.counts as counts_mod
import chaosinfer.dynamics as dynamics
from chaosinfer.counts import (
    CountTable,
    grid_block_counts,
    grid_top_counts,
    lower_orders,
    series_counts,
    transition_counts,
)
from chaosinfer.dynamics import (
    LEAF,
    MAX_SIGMA,
    MapSpec,
    NoiseSpec,
    generate_trajectory,
    recorded_chunks,
)
from chaosinfer.inference import DirichletPrior, log_evidence
from chaosinfer.symbolize import (
    PartitionSpec,
    SymbolSequence,
    decision_points,
    state_cuts,
    symbolize,
)
from helpers import count_words, decode_context, encode_context


def bits(text: str) -> SymbolSequence:
    return SymbolSequence(np.array([int(c) for c in text]))


bit_lists = st.lists(st.integers(0, 1), min_size=2, max_size=64)


def test_count_words_hand_enumerated():
    wc = count_words(bits("0101"), 2)
    assert wc.counts == {(0, 1): 2, (1, 0): 1}
    assert wc.total == 3


def test_count_words_single_symbol():
    wc = count_words(bits("0000"), 1)
    assert wc.counts == {(0,): 4}


def test_count_words_single_window():
    wc = count_words(bits("01"), 2)
    assert wc.counts == {(0, 1): 1}
    assert wc.total == 1


def test_count_words_too_short():
    with pytest.raises(ValueError):
        count_words(bits("01"), 3)


def test_transition_counts_hand_enumerated():
    ct = transition_counts(bits("0110"), 1)
    assert ct.table.tolist() == [[0, 1], [1, 1]]
    assert int(ct.table.sum()) == 3


def test_transition_counts_constant():
    ct = transition_counts(bits("000"), 1)
    assert ct.table.tolist() == [[2, 0], [0, 0]]


def test_transition_counts_order_two():
    ct = transition_counts(bits("0101"), 2)
    table = np.zeros((4, 2), dtype=int)
    table[encode_context((0, 1)), 0] = 1
    table[encode_context((1, 0)), 1] = 1
    assert np.array_equal(ct.table, table)


def test_transition_counts_order_zero():
    ct = transition_counts(bits("0110"), 0)
    assert ct.table.tolist() == [[2, 2]]
    assert int(ct.table.sum()) == 4


def test_transition_counts_too_short():
    with pytest.raises(ValueError):
        transition_counts(bits("0"), 1)
    with pytest.raises(ValueError, match="order=-1"):
        transition_counts(bits("01"), -1)
    with pytest.raises(ValueError, match="too large"):
        transition_counts(bits("0" * 30), 26)  # 2**27 entries


@pytest.mark.parametrize("shape", [(2, 3), (4,), (3, 2), (0, 2), (5, 6, 2)])
def test_count_table_shape_states_an_order(shape):
    # The shape (..., 2**order, 2) is the one statement of a table's order.
    with pytest.raises(ValueError, match=r"is not \(\.\.\., 2\*\*order, 2\)"):
        CountTable(np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
def test_count_table_holds_integers(dtype):
    with pytest.raises(ValueError, match="does not hold integers"):
        CountTable(np.zeros((2, 2), dtype=dtype))


def test_count_table_rejects_negative_counts():
    # The scoring kernels look a term up by count and would score -2 as 0.
    with pytest.raises(ValueError, match="negative count"):
        log_evidence(CountTable(np.array([[1, -2], [0, 3]])), DirichletPrior(1.0))


def test_context_codec_round_trip():
    for word in [(0,), (1, 0), (1, 1, 0)]:
        assert decode_context(encode_context(word), len(word)) == word


@given(data=bit_lists, order=st.integers(0, 4))
def test_mass_conservation(data, order):
    if len(data) < order + 1:
        return
    ct = transition_counts(SymbolSequence(np.array(data)), order)
    assert int(ct.table.sum()) == len(data) - order
    assert np.all(ct.table >= 0)


@settings(max_examples=50)
@given(data=bit_lists, order=st.integers(1, 3))
def test_circular_counts_match_word_counts(data, order):
    # On a circularized sequence every context occurrence corresponds to one
    # circular window, so the two representations must agree exactly.
    if len(data) < order + 1:
        return
    s = np.array(data)
    circ = np.concatenate([s, s[:order]])
    ct = transition_counts(SymbolSequence(circ), order)
    joint = {}
    for idx in range(ct.table.shape[0]):
        for sym in range(2):
            c = int(ct.table[idx, sym])
            if c:
                joint[decode_context(idx, order) + (sym,)] = c
    assert joint == count_words(SymbolSequence(circ), order + 1).counts

    row_sums = {}
    for idx in range(ct.table.shape[0]):
        total = int(ct.table[idx].sum())
        if total:
            row_sums[decode_context(idx, order)] = total
    circ_words = np.concatenate([s, s[: order - 1]]) if order > 1 else s
    assert row_sums == count_words(SymbolSequence(circ_words), order).counts


def assert_grid_counts_match_per_threshold(states, thresholds, orders, blocks=()):
    """grid_block_counts of the grid chained in blocks of 1, 2, ceil(grid/3)
    and grid points, and of each of `blocks` points, equal the per-threshold
    counts of symbolize and transition_counts."""
    orders = sorted(orders)
    k_max = orders[-1]
    cuts = state_cuts(states, thresholds)
    grid = len(thresholds)
    want = []
    for d in thresholds:
        seq = symbolize(np.asarray(states), PartitionSpec(d))
        want.append((seq.symbols[:k_max], [transition_counts(seq, k).table.ravel() for k in orders]))

    def check(lo, top, first):
        assert first.shape == (len(top), k_max)
        got = list(lower_orders(top, first, orders))[::-1]  # yielded from the top order down
        assert [ct.table.shape for ct in got] == [(len(top), 2 ** k, 2) for k in orders]
        for i, (want_first, want_tables) in enumerate(want[lo:lo + len(top)]):
            assert np.array_equal(first[i], want_first)
            for k, ct, table in zip(orders, got, want_tables):
                assert ct.table.dtype == np.int64
                assert np.array_equal(ct.table[i].ravel(), table), (thresholds[lo + i], k)

    for block in sorted({1, 2, -(-grid // 3), grid, *blocks}):
        starts = range(0, grid, block)
        chained = list(grid_block_counts([cuts], len(cuts), grid, block, k_max))
        assert [len(top) for top, _ in chained] == [min(block, grid - lo) for lo in starts]
        for lo, (top, first) in zip(starts, chained):
            check(lo, top, first)


GRID = np.linspace(0.0, 1.0, 11)


def test_grid_counts_with_states_on_the_thresholds():
    # Ties: a state equal to d reads 1 at d, as in symbolize; d=0 reads all
    # ones and d=1 all zeros but the states at exactly 1.
    rng = np.random.default_rng(11)
    states = np.concatenate([rng.choice(GRID, 150), rng.random(50), [0.0, 1.0, 1.0]])
    rng.shuffle(states)
    assert_grid_counts_match_per_threshold(states, GRID, range(0, 6))


def test_grid_counts_order_zero_alone():
    assert_grid_counts_match_per_threshold([0.0, 0.5, 1.0, 0.2, 0.5], GRID, [0])


@pytest.mark.parametrize("k_max", range(0, 7))
def test_grid_counts_at_the_shortest_sequence(k_max):
    rng = np.random.default_rng(k_max)
    states = rng.choice(GRID, k_max + 2)
    assert_grid_counts_match_per_threshold(states, GRID, range(0, k_max + 1))


# Chunks of 1, 2, k_max, k_max + 1 and 7 states at k_max 4.  Each last
# chunk holds fewer than k_max states, so the states whose windows would
# pass the end of the series span two chunks or more.
@pytest.mark.parametrize("chunk", [1, 2, 4, 5, 7])
def test_grid_counts_across_window_chunks(monkeypatch, chunk):
    monkeypatch.setattr(counts_mod, "_WINDOW_CHUNK", chunk)
    states = np.random.default_rng(5).random(101)
    assert (len(states) - 1) % chunk + 1 < 4
    assert_grid_counts_match_per_threshold(states, [0.1, 0.3, 0.5, 0.9], [1, 2, 4])


@pytest.mark.parametrize("k_max", [15, 16])
def test_grid_counts_past_sixteen_bit_patterns(monkeypatch, k_max):
    # A window of 16 states, then 17, fills and then passes 16 bits; chunks
    # of 7 states spread the first and last windows over three chunks or more.
    monkeypatch.setattr(counts_mod, "_WINDOW_CHUNK", 7)
    rng = np.random.default_rng(k_max)
    states = np.concatenate([rng.choice(GRID, 60), rng.random(60)])
    assert_grid_counts_match_per_threshold(states, [0.2, 0.5, 0.6, 0.9], [0, k_max])


def test_grid_counts_with_cuts_on_block_edges():
    # Every state sits on a threshold, so for each chained block size some
    # state's cut is each block's first point lo; the states at exactly 1.0,
    # the last threshold, have cut == grid and are counted in no block.
    thresholds = np.linspace(0.0, 1.0, 12)
    states = np.random.default_rng(13).choice(thresholds, 150)
    cuts = state_cuts(states, thresholds)
    assert set(cuts.tolist()) == set(range(1, 13))
    assert_grid_counts_match_per_threshold(states, thresholds, [0, 2, 3], blocks=[3, 5])


def test_grid_counts_where_most_blocks_hold_no_cut():
    # 30 states in a grid of 1000 points: at most 30 blocks hold a cut, and
    # the others only carry the table of the block before.
    states = np.random.default_rng(17).random(30)
    thresholds = (np.arange(1000) + 0.5) / 1000
    assert_grid_counts_match_per_threshold(states, thresholds, [0, 1, 3])


@pytest.mark.parametrize("grid", [255, 256, 257])
def test_grid_counts_where_the_cut_type_widens(grid):
    # Cuts are one byte up to grid 255 and two from 256 on; blocks of 256
    # points put an edge at 256, and grid 257 a last block of one point.
    rng = np.random.default_rng(grid)
    thresholds = np.linspace(0.0, 1.0, grid)
    states = np.concatenate([rng.choice(thresholds, 150), rng.random(150)])
    assert state_cuts(states, thresholds).dtype == (np.uint8 if grid < 256 else np.uint16)
    assert_grid_counts_match_per_threshold(states, thresholds, [0, 2], blocks=[256])


def test_grid_counts_rejects_bad_arguments():
    with pytest.raises(ValueError, match="ascending"):
        state_cuts([0.1, 0.2, 0.3], [0.5, 0.4])
    # A NaN point compares false either way; it read every state as 1.
    with pytest.raises(ValueError, match="ascending"):
        state_cuts([0.2, 0.5, 0.9], [0.0, np.nan, 1.0])
    cuts = state_cuts([0.1, 0.2], [0.5])
    below = np.zeros(8, dtype=np.int64)
    with pytest.raises(ValueError, match="too short"):
        grid_top_counts([cuts], len(cuts), 0, 1, 2, below)
    with pytest.raises(ValueError, match=">= 0"):
        grid_top_counts([cuts], len(cuts), 0, 1, -1, below)
    with pytest.raises(ValueError, match="too large"):
        grid_top_counts([cuts], len(cuts), 0, 1, 26, below)
    # The chained blocks check before they build their first table.
    for k_max, match in ((2, "too short"), (-1, ">= 0"), (26, "too large")):
        with pytest.raises(ValueError, match=match):
            next(grid_block_counts([cuts], len(cuts), 1, 1, k_max))
    # The pieces must hold the whole series, and no more, whether they are
    # counted as they come or held for blocks of one point each.
    cuts = state_cuts([0.1, 0.2, 0.7, 0.9], [0.5])
    with pytest.raises(ValueError, match="fewer than the 4 cuts"):
        grid_top_counts([cuts[:2], cuts[2:3]], 4, 0, 1, 1)
    with pytest.raises(ValueError, match="more than the 3 cuts"):
        grid_top_counts([cuts[:2], cuts[2:]], 3, 0, 1, 1)
    with pytest.raises(ValueError, match="fewer than the 4 cuts"):
        next(grid_block_counts([cuts[:2], cuts[2:3]], 4, 2, 1, 1))
    with pytest.raises(ValueError):
        next(grid_block_counts([cuts[:2], cuts[2:]], 3, 2, 1, 1))


unit_states = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    states=st.lists(unit_states, min_size=1, max_size=80),
    thresholds=st.lists(unit_states, min_size=1, max_size=12),
    orders=st.sets(st.integers(0, 5), min_size=1, max_size=3),
)
def test_grid_counts_equal_per_threshold_counts(states, thresholds, orders):
    if len(states) <= max(orders):
        return
    assert_grid_counts_match_per_threshold(states, sorted(thresholds), sorted(orders))


def test_grid_counts_memory_does_not_grow_with_the_series():
    def peak(n):
        cuts = state_cuts(np.random.default_rng(3).random(n), [0.2, 0.5, 0.7])
        tracemalloc.start()
        try:
            list(lower_orders(*next(grid_block_counts([cuts], n, 3, 3, 2)), [1, 2]))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Only the window chunks are held, not a search result per state.
    assert peak(400_000) <= 1.1 * peak(100_000)


def test_grid_counts_peak_memory_is_bounded():
    # One call holds the difference array and, for a chunk of 2**13 states,
    # at most 12 B for each of its k_max + 1 events: a 4-B code, and per
    # state the pattern, its offset and the other temporaries of the chunk.
    # Events are added in place, so nothing else is as large as the
    # difference array.  Chunks of 2**14 states would pass this bound.
    k_max, grid = 8, 50
    cuts = state_cuts(np.random.default_rng(7).random(1 << 18), (np.arange(grid) + 0.5) / grid)
    next(grid_block_counts([cuts], len(cuts), grid, grid, k_max))  # first-call allocations
    tracemalloc.start()
    try:
        next(grid_block_counts([cuts], len(cuts), grid, grid, k_max))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 8 * (grid + 1) << (k_max + 1)
    assert peak <= table + 12 * (k_max + 1) * (1 << 13) + (1 << 16)


@settings(max_examples=80, deadline=None)
@given(
    states=st.lists(unit_states, min_size=1, max_size=80),
    thresholds=st.lists(unit_states, min_size=1, max_size=12),
    k_max=st.integers(0, 6),
    edges=st.lists(st.integers(0, 90), max_size=8),
    chunk=st.sampled_from([1, 3, 1 << 13]),
    split=st.integers(0, 12),
)
def test_grid_counts_in_pieces_of_any_lengths(states, thresholds, k_max, edges, chunk, split):
    # Pieces empty, shorter than k_max or ending past a window chunk give the
    # tables of the whole series in one piece, in one block and in a block
    # that starts from the table below it.
    if len(states) <= k_max:
        return
    thresholds = sorted(thresholds)
    cuts = state_cuts(states, thresholds)
    pieces = np.split(cuts, sorted(edges))
    grid, lo = len(thresholds), min(split, len(thresholds) - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counts_mod, "_WINDOW_CHUNK", chunk)
        tables, _ = next(grid_block_counts([cuts], len(cuts), grid, grid, k_max))
        for start, below in ((0, None), (lo, tables[lo - 1].copy() if lo else None)):
            got = grid_top_counts(iter(pieces), len(cuts), start, grid - start, k_max, below)
            want = grid_top_counts([cuts], len(cuts), start, grid - start, k_max, below)
            assert got[0].dtype == np.int64 and np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


# n of one leaf short, one leaf, one past, and a third leaf of k_max states.
@pytest.mark.parametrize("k_max", [1, 8, 15])
@pytest.mark.parametrize("transient", [0, 1, 2])
@pytest.mark.parametrize("n", [LEAF - 1, LEAF, LEAF + 1, None],
                         ids=["leaf-1", "leaf", "leaf+1", "2leaf+k_max"])
def test_leaves_counted_as_they_are_cut_equal_the_held_and_per_threshold_counts(
        n, transient, k_max):
    # A shared series' leaves, cut as recorded_chunks steps them, give the
    # same tables and first symbols counted as they come, in one block with
    # only the carry between leaves, as held and replayed in blocks of 20
    # points, and transition_counts' at each point, as integers.
    n = 2 * LEAF + k_max if n is None else n
    spec, noise, seed, points = MapSpec(), NoiseSpec(1e-3), 40 + transient, decision_points(50)
    sizes = []

    def leaves():
        for chunk in recorded_chunks(spec, noise, n, transient, [seed]):
            sizes.append(len(chunk))
            yield state_cuts(chunk[:, 0], points)

    top, first = next(grid_block_counts(leaves(), n, 50, 50, k_max))
    assert sizes == [min(LEAF, n - at) for at in range(0, n, LEAF)]
    held = list(grid_block_counts(leaves(), n, 50, 20, k_max))
    assert [len(tables) for tables, _ in held] == [20, 20, 10]
    held_top, held_first = map(np.concatenate, zip(*held))
    assert top.dtype == np.int64 and np.array_equal(top, held_top)
    assert first.shape == (50, k_max) and np.array_equal(first, held_first)
    states = generate_trajectory(spec, noise, n, transient, seed).states
    for i, d in enumerate(points):
        seq = symbolize(states, PartitionSpec(d))
        assert np.array_equal(top[i], transition_counts(seq, k_max).table.ravel()), d
        assert np.array_equal(first[i], seq.symbols[:k_max]), d


def per_point_counts(spec, noise, n, transient, seeds, ds, k_max):
    """Order-k_max tables and first k_max symbols of each regenerated series,
    from its own trajectory, symbolize and transition_counts."""
    top, first = [], []
    for seed, d in zip(seeds, ds):
        seq = symbolize(generate_trajectory(spec, noise, n, transient, seed),
                        PartitionSpec(d))
        top.append(transition_counts(seq, k_max).table.ravel())
        first.append(seq.symbols[:k_max])
    return np.array(top), np.array(first).reshape(len(ds), k_max)


def assert_regenerated_counts_match(spec, noise, n, transient, points, k_max):
    seeds = range(11, 11 + points)
    ds = (np.arange(points) + 0.5) / points
    chunks = recorded_chunks(spec, noise, n, transient, seeds)
    top, first = series_counts(chunks, ds, k_max)
    want_top, want_first = per_point_counts(spec, noise, n, transient, seeds, ds, k_max)
    assert top.dtype == np.int64 and np.array_equal(top, want_top)
    assert first.shape == want_first.shape and np.array_equal(first, want_first)


# (transient, n, k_max, rows per chunk, points).  The warm-up is stepped in
# chunks of its own, then the recorded states from the first one on.
LOCKSTEP_CASES = {
    # warm-up chunks of 3, 3 and 1 steps, an edge at 3 inside the first k_max symbols
    "edges_in_transient_and_head": (7, 40, 4, 3, 5),
    "edge_at_first_record": (6, 40, 4, 3, 5),
    "no_transient": (0, 40, 4, 3, 5),
    "shortest_series": (5, 6, 4, 2, 3),
    "order_zero": (5, 30, 0, 4, 3),
    "one_point_one_step_chunks": (9, 30, 3, 1, 1),
    "one_chunk": (13, 50, 8, 100, 4),
}


@pytest.mark.parametrize("r", [4.0, 3.7])
@pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.3, 5.0, MAX_SIGMA])
@pytest.mark.parametrize("case", LOCKSTEP_CASES)
def test_lockstep_counts_equal_per_point_counts(monkeypatch, case, sigma, r):
    transient, n, k_max, steps, points = LOCKSTEP_CASES[case]
    monkeypatch.setattr(dynamics, "LOCKSTEP_MIN_POINTS", 1)
    monkeypatch.setattr(dynamics, "LEAF", steps * points)
    assert_regenerated_counts_match(MapSpec(r=r), NoiseSpec(sigma), n, transient, points, k_max)


@pytest.mark.parametrize("below", [1, 0], ids=["per_point", "lockstep"])
def test_blocks_on_both_sides_of_the_lockstep_width_count_alike(below):
    points = dynamics.LOCKSTEP_MIN_POINTS - below
    assert_regenerated_counts_match(MapSpec(), NoiseSpec(0.3), 60, 13, points, 5)


# (k, series): codes of 16 bits fill uint16 at k = 15 and pass it at k = 16;
# 256 series at k = 8 have offsets g << 9 past 2**16.
@pytest.mark.parametrize(("k", "series"), [(15, 3), (16, 3), (8, 256)])
def test_series_counts_equal_transition_counts(k, series):
    # Series 0 reads all ones, so its windows take the largest code; chunks
    # of 7, 93 and 100 states carry windows across their edges, and the
    # first chunk is shorter than the first k symbols.
    rng = np.random.default_rng(k)
    states = rng.random((200, series))
    thresholds = np.concatenate([[0.0], rng.random(series - 1)])
    table, first = series_counts(iter(np.split(states, [7, 100])), thresholds, k)
    assert table.shape == (series, 2 << k) and table.dtype == np.int64
    assert table[0, -1] == len(states) - k
    assert first.shape == (series, k)
    for g in range(series):
        seq = symbolize(states[:, g], PartitionSpec(thresholds[g]))
        assert np.array_equal(table[g], transition_counts(seq, k).table.ravel()), g
        assert np.array_equal(first[g], seq.symbols[:k]), g
