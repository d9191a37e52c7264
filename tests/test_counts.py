import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosinfer.counts import (
    block_entropy,
    count_words,
    decode_context,
    encode_context,
    entropy_rate_L,
    grid_transition_counts,
    transition_counts,
)
from chaosinfer.symbolize import PartitionSpec, SymbolSequence, symbolize


def bits(text: str) -> SymbolSequence:
    return SymbolSequence(np.array([int(c) for c in text]), 2)


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


def test_block_entropy_constant_sequence_is_zero():
    for length in (1, 2, 3):
        assert block_entropy(count_words(bits("000000"), length)) == 0.0


def test_block_entropy_alternating_one_bit():
    seq = bits("01" * 500)
    assert block_entropy(count_words(seq, 1)) == pytest.approx(1.0, abs=1e-12)


def test_block_entropy_four_words_two_bits():
    seq = bits("0011" * 250)
    assert block_entropy(count_words(seq, 2)) == pytest.approx(2.0, abs=1e-4)


def test_entropy_rate_alternating_is_zero():
    seq = bits("01" * 2000)
    assert abs(entropy_rate_L(seq, 2)) < 1e-6


def test_entropy_rate_iid_coin_near_one():
    rng = np.random.default_rng(4)
    seq = SymbolSequence(rng.integers(0, 2, 20_000), 2)
    assert entropy_rate_L(seq, 1) == pytest.approx(1.0, abs=0.01)


def test_entropy_rate_constant_is_zero():
    seq = bits("1" * 500)
    for length in (1, 2, 3):
        assert entropy_rate_L(seq, length) == 0.0


def test_entropy_rate_nonnegative_on_long_random_samples():
    rng = np.random.default_rng(8)
    seq = SymbolSequence(rng.integers(0, 2, 4096), 2)
    for length in (1, 2, 3, 4):
        assert entropy_rate_L(seq, length) > -1e-4


def test_transition_counts_hand_enumerated():
    ct = transition_counts(bits("0110"), 1)
    assert ct.table.tolist() == [[0, 1], [1, 1]]
    assert ct.total == 3


def test_transition_counts_constant():
    ct = transition_counts(bits("000"), 1)
    assert ct.table.tolist() == [[2, 0], [0, 0]]


def test_transition_counts_order_two():
    ct = transition_counts(bits("0101"), 2)
    table = np.zeros((4, 2), dtype=int)
    table[encode_context((0, 1), 2), 0] = 1
    table[encode_context((1, 0), 2), 1] = 1
    assert np.array_equal(ct.table, table)


def test_transition_counts_order_zero():
    ct = transition_counts(bits("0110"), 0)
    assert ct.table.tolist() == [[2, 2]]
    assert ct.total == 4


def test_transition_counts_too_short():
    with pytest.raises(ValueError):
        transition_counts(bits("0"), 1)


def test_context_codec_round_trip():
    for word in [(0,), (1, 0), (1, 1, 0), (0, 1, 2)]:
        a = max(word) + 1 if max(word) > 1 else 2
        assert decode_context(encode_context(word, a), len(word), a) == word


@given(data=bit_lists, order=st.integers(0, 4))
def test_mass_conservation(data, order):
    if len(data) < order + 1:
        return
    ct = transition_counts(SymbolSequence(np.array(data), 2), order)
    assert ct.total == len(data) - order
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
    ct = transition_counts(SymbolSequence(circ, 2), order)
    joint = {}
    for idx in range(ct.table.shape[0]):
        for sym in range(2):
            c = int(ct.table[idx, sym])
            if c:
                joint[decode_context(idx, order, 2) + (sym,)] = c
    assert joint == count_words(SymbolSequence(circ, 2), order + 1).counts

    row_sums = {}
    for idx in range(ct.table.shape[0]):
        total = int(ct.table[idx].sum())
        if total:
            row_sums[decode_context(idx, order, 2)] = total
    circ_words = np.concatenate([s, s[: order - 1]]) if order > 1 else s
    assert row_sums == count_words(SymbolSequence(circ_words, 2), order).counts


@settings(max_examples=50)
@given(data=bit_lists, length=st.integers(2, 4))
def test_block_entropy_monotone_on_circular_counts(data, length):
    # Circular window counts are marginal-consistent across lengths, so the
    # block entropy cannot decrease with word length.
    if len(data) < length:
        return
    s = np.array(data)
    h_long = block_entropy(count_words(SymbolSequence(np.concatenate([s, s[: length - 1]]), 2), length))
    shorter = np.concatenate([s, s[: length - 2]]) if length > 2 else s
    h_short = block_entropy(count_words(SymbolSequence(shorter, 2), length - 1))
    assert h_long >= h_short - 1e-12
    assert h_short >= -1e-12


def assert_grid_counts_match_per_threshold(states, thresholds, orders):
    got = grid_transition_counts(states, thresholds, orders)
    assert sorted(got) == sorted(set(orders))
    for i, d in enumerate(thresholds):
        seq = symbolize(np.asarray(states), PartitionSpec.binary(d))
        for k in orders:
            want = transition_counts(seq, k).table.ravel()
            assert got[k].shape == (len(thresholds), 2 ** (k + 1))
            assert got[k].dtype == np.int64
            assert np.array_equal(got[k][i], want), (d, k)


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


def test_grid_counts_across_window_chunks(monkeypatch):
    import chaosinfer.counts as counts_mod

    monkeypatch.setattr(counts_mod, "_WINDOW_CHUNK", 7)
    states = np.random.default_rng(5).random(100)
    assert_grid_counts_match_per_threshold(states, [0.1, 0.3, 0.5, 0.9], [1, 2, 4])


def test_grid_counts_rejects_bad_arguments():
    with pytest.raises(ValueError):
        grid_transition_counts([0.1, 0.2, 0.3], [0.5, 0.4], [1])
    with pytest.raises(ValueError):
        grid_transition_counts([0.1, 0.2], [0.5], [2])
    with pytest.raises(ValueError):
        grid_transition_counts([0.1, 0.2], [0.5], [-1])
    with pytest.raises(ValueError):
        grid_transition_counts([0.1, 0.2], [0.5], [])


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
