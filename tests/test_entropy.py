import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosinfer.counts import CountTable, transition_counts
from chaosinfer.entropy import digamma, expected_info
from chaosinfer.inference import log_evidence, uniform_prior
from chaosinfer.sweep import MAX_ALPHA, MIN_ALPHA
from chaosinfer.symbolize import SymbolSequence
from helpers import (
    ALPHAS,
    count_stack,
    mc_expected_info,
    reference_digamma,
    reference_expected_info,
    reference_log_evidence,
)

LN2 = math.log(2.0)
EULER_GAMMA = 0.5772156649015329


def zeros_table(order: int) -> CountTable:
    return CountTable(order=order, table=np.zeros((2**order, 2), dtype=int))


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
    stacked = expected_info(CountTable(order, table), prior)
    singles = [expected_info(CountTable(order, t), prior) for t in table]
    for name in ("expected_info", "h_rate_q", "kl_correction"):
        column = getattr(stacked, name)
        assert isinstance(column, np.ndarray) and column.shape == (rows,)
        assert column.tolist() == [getattr(one, name) for one in singles]
        assert all(isinstance(getattr(one, name), float) for one in singles)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    rows=st.integers(1, 6),
    order=st.integers(0, 10),
    # The largest count as a share of the table's size: 0 leaves every cell
    # empty, below 1 the cell terms are gathered, from 1 on evaluated directly.
    top_share=st.sampled_from([0.0, 0.001, 0.5, 0.999, 1.0, 1.5, 40.0]),
    alpha=st.one_of(
        st.sampled_from([1.0, 0.5, 0.3, 1e-3, 7.1, MIN_ALPHA, MAX_ALPHA]),
        st.floats(MIN_ALPHA, MAX_ALPHA),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_frozen_references(rows, order, top_share, alpha, seed):
    # Bit for bit, for a stack of tables and for each table on its own.
    rng = np.random.default_rng(seed)
    shape = (rows, 2**order, 2)
    top = int(top_share * np.prod(shape))
    table = rng.integers(0, top + 1, size=shape)
    table[rng.random(shape[:2]) < 0.3] = 0
    table.flat[rng.integers(table.size)] = top
    prior = uniform_prior(order, 2, alpha)
    for counts in [CountTable(order, table)] + [CountTable(order, t) for t in table]:
        assert (np.asarray(log_evidence(counts, prior).value).tobytes()
                == np.asarray(reference_log_evidence(counts, prior).value).tobytes())
        got, want = expected_info(counts, prior), reference_expected_info(counts, prior)
        for name in ("expected_info", "h_rate_q", "kl_correction"):
            assert (np.asarray(getattr(got, name)).tobytes()
                    == np.asarray(getattr(want, name)).tobytes()), name


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
