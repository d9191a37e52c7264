import warnings

import numpy as np
import pytest
from helpers import ALPHAS, count_stack
from hypothesis import example, given
from hypothesis import strategies as st

from chaosinfer.counts import CountTable, transition_counts
from chaosinfer.entropy import order_scores
from chaosinfer.inference import DirichletPrior, uniform_prior
from chaosinfer.order_select import (
    ORDER_PRIOR_KINDS,
    OrderRange,
    model_size,
    order_log_prior,
    order_posterior,
    posterior_over_orders,
    rank_orders,
)
from chaosinfer.symbolize import SymbolSequence


def test_model_size_values():
    assert model_size(3) == 8
    assert model_size(0) == 1
    with pytest.raises(ValueError):
        model_size(-1)


@pytest.mark.parametrize("prior", [
    lambda k: uniform_prior(k, 3),
    lambda k: order_log_prior(k, 3, "uniform"),
    lambda k: order_log_prior(k, 3, "size_penalty"),
])
def test_priors_reject_alphabets_other_than_binary(prior):
    for k in (0, 3):
        with pytest.raises(ValueError, match="only 2 symbols"):
            prior(k)


def test_order_log_prior_values():
    assert order_log_prior(3, 2, "size_penalty") == -8.0
    assert order_log_prior(1, 2, "size_penalty") == -2.0
    assert order_log_prior(5, 2, "uniform") == 0.0
    with pytest.raises(ValueError):
        order_log_prior(1, 2, "bogus")


def test_order_log_prior_overflows_on_absurd_orders():
    with pytest.raises(OverflowError):
        order_log_prior(5000, 2, "size_penalty")


def test_order_range_validation():
    with pytest.raises(ValueError):
        OrderRange(2, 1)
    with pytest.raises(ValueError):
        OrderRange(-1, 3)
    assert list(OrderRange(1, 3).orders()) == [1, 2, 3]
    # The order-25 table has 2**26 entries, MAX_TABLE_ENTRIES; one order more is refused.
    assert list(OrderRange(25, 25).orders()) == [25]
    with pytest.raises(ValueError, match="largest accepted k_max is 25"):
        OrderRange(0, 26)


def test_order_range_stores_numpy_bounds_as_python_ints():
    # k_max + 1 in uint8 wrapped to 0, so orders() was empty.
    small = OrderRange(np.int8(1), np.int8(3))
    assert small.orders() == range(1, 4)
    assert type(small.k_min) is int and type(small.k_max) is int
    with pytest.raises(ValueError, match=r"k_max=255 needs 2\*\*256 table entries"):
        OrderRange(np.uint8(3), np.uint8(255))


def test_rank_orders_size_penalty_breaks_equal_evidence_toward_small_k():
    orders = (1, 2, 3)
    lp = [order_log_prior(k, 2, "size_penalty") for k in orders]
    ranking = rank_orders(orders, [-10.0, -10.0, -10.0], lp)
    assert ranking.selected == 1
    weights = np.exp(np.array(lp))
    assert np.allclose(ranking.posterior, weights / weights.sum(), atol=1e-12)


def test_rank_orders_uniform_tie_breaks_toward_small_k():
    ranking = rank_orders((2, 3), [-5.0, -5.0], [0.0, 0.0])
    assert ranking.selected == 2
    assert ranking.posterior == pytest.approx((0.5, 0.5), abs=1e-12)
    for orders in ((3, 2), (2, 2)):
        with pytest.raises(ValueError, match="ascending"):
            rank_orders(orders, [-5.0, -5.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="align"):
        rank_orders((2, 3), [-5.0], [0.0, 0.0])


def test_rank_orders_selects_top_of_range_without_warning():
    # The sweep reports top-of-range rows once per run; a library caller
    # compares ranking.selected with ranking.orders[-1].
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranking = rank_orders((1, 2), [-20.0, -1.0], [0.0, 0.0])
    assert ranking.selected == 2 == ranking.orders[-1]


@given(
    scores=st.lists(st.floats(-500.0, 0.0), min_size=1, max_size=8),
    priors=st.lists(st.floats(-50.0, 0.0), min_size=1, max_size=8),
)
def test_rank_orders_posterior_normalized(scores, priors):
    m = min(len(scores), len(priors))
    ranking = rank_orders(range(m), scores[:m], priors[:m])
    assert abs(sum(ranking.posterior) - 1.0) <= 1e-12
    assert ranking.selected in ranking.orders


@given(
    data=st.data(),
    k_max=st.integers(0, 4),
    rows=st.integers(1, 5),
    alpha=ALPHAS,
    kind=st.sampled_from(ORDER_PRIOR_KINDS),
)
def test_stacked_order_scoring_equals_per_row_rankings(data, k_max, rows, alpha, kind):
    orders = range(k_max + 1)
    tables = [CountTable(data.draw(count_stack(k, rows))) for k in orders]
    prior = DirichletPrior(alpha)
    log_priors = [order_log_prior(k, 2, kind) for k in orders]
    les = order_scores(tables, prior)[0]
    post, best = posterior_over_orders(les, log_priors)
    assert les.shape == post.shape == (rows, k_max + 1)
    for i in range(rows):
        row = order_scores([CountTable(t.table[i]) for t in tables], prior)[0]
        ranking = rank_orders(orders, row, log_priors)
        assert les[i].tolist() == list(ranking.log_evidence)
        assert post[i].tolist() == list(ranking.posterior)
        assert orders[best[i]] == ranking.selected


@given(
    symbols=st.lists(st.integers(0, 1), min_size=1, max_size=80),
    k_min=st.integers(0, 6),
    span=st.integers(0, 6),
    alpha=ALPHAS,
    kind=st.sampled_from(ORDER_PRIOR_KINDS),
)
@example(symbols=[1, 0, 1, 1, 0], k_min=0, span=4, alpha=1.0, kind="size_penalty")
def test_order_posterior_equals_the_ranking_of_each_order_counted_alone(
        symbols, k_min, span, alpha, kind):
    # order_posterior counts only k_max and derives the lower orders from it;
    # the ranking is that of every order counted on its own.  The range is
    # cut to fit the series, so n = k_max + 1 turns up often.
    seq = SymbolSequence(np.array(symbols))
    k_max = min(k_min + span, len(seq) - 1)
    orders = range(min(k_min, k_max), k_max + 1)
    les = order_scores([transition_counts(seq, k) for k in orders], DirichletPrior(alpha))[0]
    log_priors = [order_log_prior(k, 2, kind) for k in orders]
    assert order_posterior(seq, OrderRange(orders[0], k_max), kind, alpha) == rank_orders(
        orders, les, log_priors)


def test_periodic_sequence_selects_order_one():
    seq = SymbolSequence(np.tile([0, 1], 1000))
    ranking = order_posterior(seq, OrderRange(1, 3), "size_penalty")
    assert ranking.selected == 1
    # Evidence is nearly flat across orders on this string, so the posterior
    # mass of the winner is set by the penalty gaps: about 0.88 here.
    assert ranking.posterior[0] > 0.8


def test_iid_coin_selects_order_one():
    rng = np.random.default_rng(9)
    seq = SymbolSequence(rng.integers(0, 2, 10_000))
    ranking = order_posterior(seq, OrderRange(1, 8), "size_penalty")
    assert ranking.selected == 1
    assert ranking.posterior[0] > 0.99


def test_iid_coin_with_k0_admitted():
    rng = np.random.default_rng(9)
    seq = SymbolSequence(rng.integers(0, 2, 4096))
    ranking = order_posterior(seq, OrderRange(0, 2), "size_penalty")
    assert ranking.selected == 0


@pytest.mark.parametrize("bounds", [(1.0, 3), (1, 3.0), (True, 2), (0, True), (np.True_, 2)])
def test_order_range_takes_only_integer_bounds(bounds):
    with pytest.raises(ValueError, match="must be integers"):
        OrderRange(*bounds)
    assert list(OrderRange(np.int64(1), np.uint8(3)).orders()) == [1, 2, 3]


@pytest.mark.parametrize("kind, alpha", [("bogus", 1.0), ("uniform", 0.0), ("uniform", True)])
def test_order_posterior_rejects_a_bad_kind_or_alpha_before_counting(monkeypatch, kind, alpha):
    import chaosinfer.order_select as order_select

    def counted(*args):
        raise AssertionError("counted before the arguments were checked")

    monkeypatch.setattr(order_select, "transition_counts", counted)
    seq = SymbolSequence(np.tile([0, 1], 100))
    with pytest.raises(ValueError):
        order_posterior(seq, OrderRange(1, 20), kind, alpha)


def test_order_posterior_rejects_a_range_past_the_table_limit_before_counting(monkeypatch):
    # Orders 1 to 25 were counted, about 1 GiB, before order 26 failed.
    import chaosinfer.order_select as order_select

    def counted(*args):
        raise AssertionError("counted before the range was checked")

    monkeypatch.setattr(order_select, "transition_counts", counted)
    seq = SymbolSequence(np.tile([0, 1], 100))
    with pytest.raises(ValueError, match="largest accepted k_max is 25"):
        order_posterior(seq, OrderRange(1, 30))


def test_degenerate_range_single_order():
    seq = SymbolSequence(np.tile([0, 1], 50))
    ranking = order_posterior(seq, OrderRange(2, 2), "size_penalty")
    assert ranking.selected == 2
    assert ranking.posterior == (1.0,)


def test_order_posterior_sequence_too_short():
    seq = SymbolSequence(np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        order_posterior(seq, OrderRange(1, 3), "size_penalty")


@given(data=st.lists(st.integers(0, 1), min_size=8, max_size=64))
def test_selection_invariant_under_relabeling(data):
    seq = SymbolSequence(np.array(data))
    flipped = SymbolSequence(1 - np.array(data))
    a = order_posterior(seq, OrderRange(1, 2), "size_penalty")
    b = order_posterior(flipped, OrderRange(1, 2), "size_penalty")
    assert a.selected == b.selected
