"""Digamma-based posterior expectations of Markov-chain entropy rates.

Also order_scores, the one scoring path: the log evidence and entropy rates
of every order, from count-indexed terms tabulated once per prior.
expected_info and inference.log_evidence are its one-table views.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import special

from .counts import CountTable

if TYPE_CHECKING:
    from .inference import DirichletPrior

_LN2 = math.log(2.0)
# Count-indexed terms are tabulated for counts below _TABLE_CAP; a larger
# count is evaluated directly.
_TABLE_CAP = 1 << 14
# Pseudo-counts from which _rise takes Stirling's series.
_STIRLING_FROM = 100.0


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0, elementwise on arrays.

    Evaluated by scipy.special.digamma.  Raises ValueError outside that
    domain instead of returning inf or NaN.
    """
    arr = np.asarray(x, dtype=float)
    # min and max are NaN if any entry is, which fails both comparisons.
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        raise ValueError("digamma requires finite x > 0")
    out = special.digamma(arr)
    return float(out) if arr.ndim == 0 else out


def _only(scores: np.ndarray):
    """The scores of a one-table order_scores call: a float, or an array for a stack."""
    value = scores[..., 0]
    return float(value) if value.ndim == 0 else value


def _stirling_tail(x):
    """lnGamma(x) less Stirling's (x - 1/2) ln x - x + ln(2 pi)/2: the
    series 1/(12x) - 1/(360x^3) + 1/(1260x^5), whose next term is below
    1e-17 from x = 100 on."""
    r = 1.0 / x
    r2 = r * r
    return r * (1 / 12 - r2 * (1 / 360 - r2 / 1260))


def _rise(a: float, n: np.ndarray) -> np.ndarray:
    """lnGamma(n + a) - lnGamma(a) of counts n >= 0, exactly 0 at n = 0.

    Below _STIRLING_FROM it is gammaln(n) - betaln(a, n).  From there on
    scipy's betaln subtracts gammaln values of size a ln a unless
    a > 1e6 n, which cost the log evidence up to 4e-9 of its value at
    a = 1e7, so the difference is taken from Stirling's series instead:
    (a - 1/2) log1p(n/a) + n (ln(a + n) - 1) + tail(a + n) - tail(a).
    """
    if a < _STIRLING_FROM:
        out = np.zeros(n.shape)
        seen = n > 0
        out[seen] = special.gammaln(n[seen]) - special.betaln(a, n[seen])
        return out
    return (a - 0.5) * np.log1p(n / a) + n * (np.log(a + n) - 1.0) + (
        _stirling_tail(a + n) - _stirling_tail(a))


def _scale(alpha: float) -> float:
    """What the psi and log2 terms of _terms are divided by, max(alpha, 1):
    their sums over 2**26 cells then stay finite up to the largest accepted
    alpha."""
    return max(alpha, 1.0)


def _terms(n: np.ndarray, a: float, scale: float) -> np.ndarray:
    """The three terms, shape (3, len(n)), of counts n under pseudo-count
    a: lnGamma(n + a) - lnGamma(a), then (n + a) psi(n + a) and
    (n + a) log2(n + a), both over `scale`."""
    m = n + a
    share = m / scale
    return np.stack([_rise(a, n), share * digamma(m), share * np.log2(m)])


def _count_sums(counts: CountTable, alpha: float) -> tuple[list, list, np.ndarray]:
    """Sums of count-indexed terms, the kernel of order_scores.

    Each (context, symbol) cell of count n has the terms _terms(n, alpha),
    each context of count n(ctx) the terms _terms(n(ctx), 2 alpha), both
    over the scale _scale(alpha).  The result holds the cells' sums of the
    three terms, the contexts' sums of them, each one per table, and the
    number of transitions counted in each table, so the context totals are
    made once per table.

    Sums run along the last axis, so each table of a stack gets the sums of
    its own call bit for bit.
    """
    contexts = counts.context_totals
    cells = counts.table.reshape(contexts.shape[:-1] + (-1,))
    scale = _scale(alpha)
    cell_terms, context_terms = _term_tables(alpha)
    return (_row_sums(cell_terms, alpha, cells, scale),
            _row_sums(context_terms, 2 * alpha, contexts, scale), contexts.sum(axis=-1))


@functools.lru_cache(maxsize=1)
def _term_tables(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The terms of the counts 0 to _TABLE_CAP - 1 under the pseudo-counts
    alpha, for cells, and 2 alpha, for contexts, over _scale(alpha): two
    (3, _TABLE_CAP) tables, 768 KiB together, built on the first scoring
    call for an alpha and kept for the last alpha scored."""
    n, scale = np.arange(_TABLE_CAP), _scale(alpha)
    return _terms(n, alpha, scale), _terms(n, 2 * alpha, scale)


def _row_sums(table, a, n, scale) -> list:
    """Each term of the counts n under pseudo-count a, summed over the last
    axis, gathered from `table`, the terms of the counts 0, 1, ...  A count
    past the table is evaluated directly by _terms, which gives the same
    floats.
    """
    over = n >= table.shape[1] if n.max(initial=0) >= table.shape[1] else None
    direct = None if over is None else _terms(n[over], a, scale)
    sums, terms = [], np.empty(n.shape)
    for r, row in enumerate(table):
        row.take(n, mode="clip", out=terms)
        if over is not None:
            terms[over] = direct[r]
        sums.append(terms.sum(axis=-1))
    return sums


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy-rate estimate in bits per symbol, with its decomposition.

    expected_info is the posterior-expected information rate: the entropy
    rate of the estimated chain plus the divergence of the estimate from the
    sampled parameters.  h_rate_q is the plug-in conditional entropy of the
    posterior-mean chain and kl_correction the small-sample term; their sum
    h_rate_q + kl_correction is the large-sample (asymptotic) estimate, which
    reproduces expected_info once pseudo-counts are large.  For a stack of
    count tables each estimate is an array, one entry per table; from
    order_scores, with orders along the last axis.
    """

    expected_info: float
    h_rate_q: float
    kl_correction: float


def expected_info(counts: CountTable, prior: DirichletPrior) -> EntropyEstimate:
    """Posterior-expected information rate via digamma sums, in bits.

    Averaging the log posterior transition probabilities over the Dirichlet
    posterior turns every cell into a digamma of its pseudo-count:

        (1/ln 2) * [ sum_c q(c) psi(m(c)) - sum_{c,s} q(c, s) psi(m(c, s)) ]

    where m are pseudo-counts (counts + prior) and q their shares of the
    posterior mass beta = N + 2**(k+1) alpha.  All digamma arguments are
    positive because the prior is.

    h_rate_q is the block-entropy difference H_{k+1} - H_k of the
    posterior-mean process and kl_correction the bias term
    n_free / (2 * beta * ln 2); their sum is the large-sample form, valid
    once pseudo-counts are large and reported regardless.

    The estimate is order_scores of this one table.  A table with a leading
    grid axis gives arrays of estimates, one per table, each equal bit for
    bit to that table's own call.
    """
    e = order_scores([counts], prior)[1]
    return EntropyEstimate(_only(e.expected_info), _only(e.h_rate_q), _only(e.kl_correction))


def order_scores(tables: Sequence[CountTable],
                 prior: DirichletPrior) -> tuple[np.ndarray, EntropyEstimate]:
    """Log evidence and entropy estimates of every order, orders along the last axis.

    `tables` holds a count table, or a stack of them with a leading grid
    axis, per order; a table's order is its shape.  The result is the log
    evidences, shape (G, orders) or (orders,), and an EntropyEstimate of
    arrays of that shape, from one _count_sums call per order, each entry
    equal bit for bit to that of its table scored on its own.

    Both rates are (sum_c m(c) f(m(c)) - sum_{c,s} m(c, s) f(m(c, s))) / beta,
    with f = psi / ln 2 for expected_info and f = log2 for h_rate_q, from
    the count-indexed terms of _count_sums, which come divided by
    _scale(alpha); beta is divided by it too.
    """
    a = prior.alpha
    sums = [_count_sums(table, a) for table in tables]
    cells, contexts, windows = (np.stack(part, axis=-1) for part in zip(*sums))
    n_free = np.array([table.table.shape[-2] for table in tables])
    nats, bits = (x - c for c, x in zip(cells[1:], contexts[1:]))
    beta = windows + 2 * n_free * a
    scaled = beta / _scale(a)
    return cells[0] - contexts[0], EntropyEstimate(
        expected_info=nats / (scaled * _LN2),
        h_rate_q=bits / scaled,
        kl_correction=n_free / (2.0 * beta * _LN2),
    )
