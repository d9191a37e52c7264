import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaosinfer.entropy as entropy
from chaosinfer.counts import CountTable, transition_counts
from chaosinfer.entropy import digamma, expected_info
from chaosinfer.inference import MAX_ALPHA, MIN_ALPHA, DirichletPrior, log_evidence, uniform_prior
from chaosinfer.symbolize import SymbolSequence
from helpers import (
    ALPHAS,
    EVIDENCE_REL_TOL,
    assert_estimates_close,
    count_stack,
    mc_expected_info,
    mp_log_evidence,
    reference_digamma,
    reference_expected_info,
)

LN2 = math.log(2.0)
EULER_GAMMA = 0.5772156649015329


def zeros_table(order: int) -> CountTable:
    return CountTable(np.zeros((2**order, 2), dtype=int))


def test_digamma_at_one_is_minus_euler_gamma():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-12
    assert abs(digamma(1.0) - reference_digamma(1.0)) < 1e-12


def test_digamma_at_half_closed_form():
    assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-12


def test_digamma_against_reference_points():
    for x in (0.5, 1.0, 2.0, 10.0, 1e4, 0.01, 123.456):
        assert abs(digamma(x) - reference_digamma(x)) < 1e-12


@given(x=st.floats(0.01, 1000.0))
def test_digamma_recurrence(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12


def test_digamma_domain_error():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-2.0)
    with pytest.raises(ValueError):
        digamma(float("nan"))


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_digamma_domain_error_anywhere_in_a_stack(bad):
    xs = np.full((3, 4, 2), 2.5)
    xs[1, 2, 1] = bad
    with pytest.raises(ValueError):
        digamma(xs)


def test_digamma_vectorized():
    xs = np.array([0.5, 1.0, 2.0])
    out = digamma(xs)
    assert out.shape == (3,)
    assert out[1] == digamma(1.0)


@given(data=st.data(), order=st.integers(0, 4), rows=st.integers(1, 5), alpha=ALPHAS)
def test_stacked_estimates_equal_per_table_calls(data, order, rows, alpha):
    table = data.draw(count_stack(order, rows))
    prior = uniform_prior(order, 2, alpha)
    stacked = expected_info(CountTable(table), prior)
    singles = [expected_info(CountTable(t), prior) for t in table]
    for name in ("expected_info", "h_rate_q", "kl_correction"):
        column = getattr(stacked, name)
        assert isinstance(column, np.ndarray) and column.shape == (rows,)
        assert column.tolist() == [getattr(one, name) for one in singles]
        assert all(isinstance(getattr(one, name), float) for one in singles)


ESTIMATES = ("expected_info", "h_rate_q", "kl_correction")


def bits_of(value) -> bytes:
    return np.asarray(value).tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    rows=st.integers(1, 6),
    order=st.integers(0, 10),
    # The largest count as a share of the stack's size: 0 leaves every cell
    # empty; at 40 the larger stacks hold counts past the table cap, whose
    # terms are evaluated directly.
    top_share=st.sampled_from([0.0, 0.001, 0.5, 0.999, 1.0, 1.5, 40.0]),
    alpha=st.one_of(
        st.sampled_from([1.0, 0.5, 0.3, 1e-3, 7.1, 99.9, 100.0, 1e7, MIN_ALPHA, MAX_ALPHA]),
        st.floats(MIN_ALPHA, MAX_ALPHA),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_references(rows, order, top_share, alpha, seed):
    # The estimates close to the frozen per-cell expected_info, a stack of
    # tables equal bit for bit to each table on its own, and up to order 8
    # the log evidence within EVIDENCE_REL_TOL of mpmath's (which evaluates
    # each distinct count at 40 or more digits: slow on the larger tables).
    rng = np.random.default_rng(seed)
    shape = (rows, 2**order, 2)
    top = int(top_share * np.prod(shape))
    table = rng.integers(0, top + 1, size=shape)
    table[rng.random(shape[:2]) < 0.3] = 0
    table.flat[rng.integers(table.size)] = top
    prior = uniform_prior(order, 2, alpha)
    evidences = log_evidence(CountTable(table), prior).value
    estimates = expected_info(CountTable(table), prior)
    assert_estimates_close(estimates, reference_expected_info(CountTable(table), prior))
    for i, t in enumerate(table):
        evidence = log_evidence(CountTable(t), prior).value
        assert bits_of(evidence) == bits_of(evidences[i])
        if order <= 8:
            assert math.isclose(evidence, mp_log_evidence(t, alpha), rel_tol=EVIDENCE_REL_TOL)
        one = expected_info(CountTable(t), prior)
        for name in ESTIMATES:
            assert bits_of(getattr(one, name)) == bits_of(getattr(estimates, name)[i]), name


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    rows=st.integers(1, 4),
    k_min=st.integers(0, 5),
    width=st.integers(0, 3),
    # Largest counts below, at and past the table cap; from the cap on a
    # count's terms are evaluated directly.
    top=st.sampled_from([0, 1, 37, entropy._TABLE_CAP - 1, entropy._TABLE_CAP,
                         3 * entropy._TABLE_CAP]),
    # Pseudo-counts on both sides of where _rise takes Stirling's series.
    alpha=st.one_of(
        st.sampled_from([MIN_ALPHA, 1e-3, 1.0, 99.9, entropy._STIRLING_FROM, 150.0, 1e7,
                         MAX_ALPHA]),
        st.floats(MIN_ALPHA, MAX_ALPHA),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_order_scores_equal_each_order_s_own_calls(rows, k_min, width, top, alpha, seed):
    # The fused scores of a stack of tables per order, and of each single
    # table, equal log_evidence and expected_info order by order, bit for bit.
    rng = np.random.default_rng(seed)
    stacks = {}
    for k in range(k_min, k_min + width + 1):
        table = rng.integers(0, top + 1, size=(rows, 2**k, 2))
        table[rng.random(table.shape[:2]) < 0.3] = 0
        table.flat[rng.integers(table.size)] = top
        stacks[k] = table
    prior = DirichletPrior(alpha)
    for i in [None, *range(rows)]:
        tables = [CountTable(t if i is None else t[i]) for t in stacks.values()]
        shape = (len(tables),) if i is not None else (rows, len(tables))
        evidences, estimates = entropy.order_scores(tables, prior)
        assert evidences.shape == shape
        for j, table in enumerate(tables):
            assert bits_of(evidences[..., j]) == bits_of(log_evidence(table, prior).value)
            one = expected_info(table, prior)
            for name in ESTIMATES:
                column = getattr(estimates, name)
                assert column.shape == shape
                assert bits_of(column[..., j]) == bits_of(getattr(one, name)), name


@pytest.mark.parametrize("alpha", [0.37, 1.0, 99.9, 150.0, MAX_ALPHA])
def test_counts_past_the_table_cap_give_the_tabulated_floats(monkeypatch, alpha):
    # With a cap of 3 entries nearly every term is evaluated directly; the
    # results equal those gathered from full tables bit for bit.
    rng = np.random.default_rng(11)
    table = rng.integers(0, 60, size=(4, 8, 2))
    table[0, :3] = 0
    table[1, 5, 1] = 40_000  # past the default cap too
    prior = DirichletPrior(alpha)
    stacks = [CountTable(table)] + [CountTable(t) for t in table]

    def scores():
        entropy._term_tables.cache_clear()
        return [[bits_of(log_evidence(c, prior).value)]
                + [bits_of(getattr(expected_info(c, prior), name)) for name in ESTIMATES]
                for c in stacks]

    tabulated = scores()
    monkeypatch.setattr(entropy, "_TABLE_CAP", 3)
    assert scores() == tabulated
    assert entropy._term_tables.cache_info().currsize == 1
    assert all(t.shape == (3, 3) for t in entropy._term_tables(alpha))
    entropy._term_tables.cache_clear()


@pytest.mark.parametrize("alpha", [MIN_ALPHA, MAX_ALPHA], ids=["min", "max"])
@pytest.mark.parametrize("order", [0, 4, 12])
def test_kernels_are_finite_at_the_edges_of_the_alpha_range(alpha, order):
    rng = np.random.default_rng(order)
    counts = CountTable(rng.integers(0, 50, size=(2, 2**order, 2)))
    prior = DirichletPrior(alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        evidence = log_evidence(counts, prior).value
        estimate = expected_info(counts, prior)
    assert np.all(np.isfinite(evidence))
    for name in ESTIMATES:
        assert np.all(np.isfinite(getattr(estimate, name))), name


def test_expected_info_zero_data_analytic():
    est = expected_info(zeros_table(1), uniform_prior(1, 2))
    assert est.expected_info == pytest.approx((digamma(2.0) - digamma(1.0)) / LN2, abs=1e-12)
    assert est.h_rate_q == pytest.approx(1.0, abs=1e-12)


def test_kl_correction_zero_data_order_zero():
    est = expected_info(zeros_table(0), uniform_prior(0, 2))
    # One free parameter, beta = 2; the bit-valued correction is 1/(4 ln 2).
    assert est.kl_correction == pytest.approx(1.0 / (4.0 * LN2), abs=1e-15)


def test_fair_coin_large_sample_info_near_one_bit():
    rng = np.random.default_rng(12)
    seq = SymbolSequence(rng.integers(0, 2, 50_000))
    est = expected_info(transition_counts(seq, 1), uniform_prior(1, 2))
    assert est.expected_info == pytest.approx(1.0, abs=0.01)
    assert est.kl_correction == pytest.approx(2.0 / (2.0 * (50_000 - 1 + 4) * LN2), abs=1e-12)


def test_expected_and_asymptotic_agree_on_large_samples():
    rng = np.random.default_rng(13)
    seq = SymbolSequence(rng.integers(0, 2, 50_000))
    est = expected_info(transition_counts(seq, 1), uniform_prior(1, 2))
    assert abs(est.expected_info - (est.h_rate_q + est.kl_correction)) < 1e-3


def test_unit_coherence_info_decomposition():
    rng = np.random.default_rng(14)
    seq = SymbolSequence(rng.integers(0, 2, 2_000))
    est = expected_info(transition_counts(seq, 2), uniform_prior(2, 2))
    # The digamma expectation sits within o(1/beta) of plug-in rate + correction.
    assert abs(est.expected_info - est.h_rate_q - est.kl_correction) < 1e-5


def test_degenerate_stream_info_is_small():
    seq = SymbolSequence(np.ones(10_000, dtype=int))
    est = expected_info(transition_counts(seq, 1), uniform_prior(1, 2))
    assert est.expected_info < 0.01


def test_expected_info_matches_posterior_sampling_smoke():
    rng = np.random.default_rng(21)
    mc_rng = np.random.default_rng(22)
    for _ in range(3):
        order = int(rng.integers(0, 3))
        n = int(rng.integers(order + 2, 51))
        seq = SymbolSequence(rng.integers(0, 2, n))
        counts = transition_counts(seq, order)
        exact = expected_info(counts, uniform_prior(order, 2)).expected_info
        mean, se = mc_expected_info(counts.table, 1.0, 200_000, mc_rng)
        assert abs(exact - mean) <= 3.0 * se


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_info_estimates_nonnegative_on_random_sources(seed):
    rng = np.random.default_rng(seed)
    seq = SymbolSequence(rng.integers(0, 2, 256))
    est = expected_info(transition_counts(seq, 1), uniform_prior(1, 2))
    assert est.expected_info >= 0.0
    assert est.h_rate_q >= 0.0
    assert est.kl_correction > 0.0
