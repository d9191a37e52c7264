import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosinfer.counts import CountTable, transition_counts
from chaosinfer.inference import DirichletPrior, log_evidence, uniform_prior
from chaosinfer.sweep import MAX_ALPHA, MIN_ALPHA
from chaosinfer.symbolize import SymbolSequence
from helpers import (
    ALPHAS,
    EVIDENCE_REL_TOL,
    count_stack,
    mc_evidence,
    posterior_mean,
    sequential_log_evidence,
    visited_log_evidence,
)


def bits(text: str) -> SymbolSequence:
    return SymbolSequence(np.array([int(c) for c in text]))


bit_lists = st.lists(st.integers(0, 1), min_size=2, max_size=12)


def test_uniform_prior_flat_and_shaped():
    # One pseudo-count for every cell, a Python float whatever number it was given.
    prior = uniform_prior(8, 2, 1.0)
    assert type(prior.alpha) is float and prior.alpha == 1.0
    assert prior == uniform_prior(0, 2) == DirichletPrior(1.0)  # the same at every order
    for value in (2, np.float32(0.5), np.int64(3)):
        assert type(uniform_prior(0, 2, value).alpha) is float
    assert uniform_prior(0, 2).alpha == 1.0
    for order, alphabet in ((-1, 2), (1, 1)):
        with pytest.raises(ValueError):
            uniform_prior(order, alphabet)


def test_uniform_prior_mean_is_inverse_alphabet():
    zero = CountTable(np.zeros((2, 2), dtype=int))
    params = posterior_mean(zero, uniform_prior(1, 2))
    assert np.all(params.probs == 0.5)


def test_prior_rejects_nonpositive_alpha():
    # Zero, negative, NaN and infinite pseudo-counts, and an array of them,
    # are rejected by both constructors.
    for alpha in (0.0, -1.0, math.nan, math.inf, np.array([[1.0, 1.0]])):
        with pytest.raises(ValueError):
            DirichletPrior(alpha)
        with pytest.raises(ValueError):
            uniform_prior(0, 2, alpha)


def test_log_evidence_two_symbols():
    lev = log_evidence(transition_counts(bits("01"), 0), uniform_prior(0, 2))
    assert lev.value == pytest.approx(math.log(1.0 / 6.0), abs=1e-12)


def test_log_evidence_constant_run():
    lev = log_evidence(transition_counts(bits("0000"), 0), uniform_prior(0, 2))
    assert lev.value == pytest.approx(math.log(1.0 / 5.0), abs=1e-12)


def test_log_evidence_order_one_unvisited_context_contributes_nothing():
    lev = log_evidence(transition_counts(bits("000"), 1), uniform_prior(1, 2))
    assert lev.value == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)


@given(data=st.data(), order=st.integers(0, 4), rows=st.integers(1, 5), alpha=ALPHAS)
def test_stacked_log_evidence_equals_per_table_calls(data, order, rows, alpha):
    table = data.draw(count_stack(order, rows))
    prior = uniform_prior(order, 2, alpha)
    stacked = log_evidence(CountTable(table), prior)
    singles = [log_evidence(CountTable(t), prior).value for t in table]
    assert isinstance(stacked.value, np.ndarray) and stacked.value.shape == (rows,)
    assert all(isinstance(v, float) for v in singles)
    assert stacked.value.tolist() == singles
    for got, t in zip(singles, table):
        assert math.isclose(got, visited_log_evidence(t, alpha), rel_tol=1e-12, abs_tol=0.0)


@given(data=bit_lists, order=st.integers(0, 2))
def test_log_evidence_matches_sequential_predictive(data, order):
    if len(data) < order + 1:
        return
    seq = SymbolSequence(np.array(data))
    lev = log_evidence(transition_counts(seq, order), uniform_prior(order, 2))
    assert lev.value == pytest.approx(sequential_log_evidence(data, order), abs=1e-10)
    assert lev.value <= 1e-12


# Log-uniform over the accepted alpha range, and both of its edges.
ACCEPTED_ALPHAS = st.one_of(
    st.sampled_from([MIN_ALPHA, MAX_ALPHA]),
    st.floats(math.log(MIN_ALPHA), math.log(MAX_ALPHA)).map(
        lambda x: min(max(math.exp(x), MIN_ALPHA), MAX_ALPHA)),
)


@settings(deadline=None)
@given(n=st.integers(1, 400), p_one=st.sampled_from([0.0, 0.05, 0.5, 0.9]),
       seed=st.integers(0, 2**32 - 1), order=st.integers(0, 3), alpha=ACCEPTED_ALPHAS)
def test_log_evidence_is_accurate_over_the_accepted_alpha_range(n, p_one, seed, order, alpha):
    # lnGamma(n + alpha) - lnGamma(alpha) as a difference of two gammaln
    # values, each near alpha ln alpha, lost the whole result from alpha ~ 1e16 on.
    if n < order + 1:
        return
    symbols = (np.random.default_rng(seed).random(n) < p_one).astype(int)
    got = log_evidence(transition_counts(SymbolSequence(symbols), order), DirichletPrior(alpha))
    want = sequential_log_evidence(symbols, order, alpha)
    assert math.isclose(got.value, want, rel_tol=EVIDENCE_REL_TOL), (got.value, want)


@given(data=bit_lists, order=st.integers(0, 2), split=st.integers(1, 11))
def test_evidence_chain_rule_over_splits(data, order, split):
    # Evidence factors into the head's evidence times the predictive
    # probability of the tail given the running context.
    if len(data) < order + 2:
        return
    split = min(max(split, order + 1), len(data) - 1)
    seq = SymbolSequence(np.array(data))
    head = SymbolSequence(np.array(data[:split]))
    lev_full = log_evidence(transition_counts(seq, order), uniform_prior(order, 2)).value
    lev_head = log_evidence(transition_counts(head, order), uniform_prior(order, 2)).value
    tail_predictive = sequential_log_evidence(data, order) - sequential_log_evidence(data[:split], order)
    assert lev_full == pytest.approx(lev_head + tail_predictive, abs=1e-10)


@given(data=bit_lists, order=st.integers(0, 2))
def test_evidence_invariant_under_relabeling(data, order):
    if len(data) < order + 1:
        return
    seq = SymbolSequence(np.array(data))
    flipped = SymbolSequence(1 - np.array(data))
    a = log_evidence(transition_counts(seq, order), uniform_prior(order, 2)).value
    b = log_evidence(transition_counts(flipped, order), uniform_prior(order, 2)).value
    assert a == pytest.approx(b, abs=1e-12)


def test_posterior_mean_direct_substitution():
    counts = CountTable(np.array([[1, 3], [0, 0]]))
    params = posterior_mean(counts, uniform_prior(1, 2))
    assert params.probs[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert params.probs[1].tolist() == [0.5, 0.5]


@given(
    table=st.lists(st.integers(0, 50), min_size=4, max_size=4),
    alpha=st.floats(0.1, 5.0),
)
def test_posterior_rows_sum_to_one(table, alpha):
    counts = CountTable(np.array(table).reshape(2, 2))
    params = posterior_mean(counts, uniform_prior(1, 2, alpha))
    assert np.all(np.abs(params.probs.sum(axis=1) - 1.0) <= 1e-12)


def test_log_evidence_matches_monte_carlo_smoke():
    rng = np.random.default_rng(314)
    mc_rng = np.random.default_rng(2718)
    for _ in range(3):
        order = int(rng.integers(0, 3))
        n = int(rng.integers(order + 2, 16))
        seq = SymbolSequence(rng.integers(0, 2, n))
        counts = transition_counts(seq, order)
        exact = math.exp(log_evidence(counts, uniform_prior(order, 2)).value)
        mean, se = mc_evidence(counts.table, 200_000, mc_rng)
        assert abs(exact - mean) <= 3.0 * se
