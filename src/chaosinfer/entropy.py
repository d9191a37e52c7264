"""Digamma-based posterior expectations of Markov-chain entropy rates.

Also the count-indexed kernel they share with inference.log_evidence: every
term of both is a function of one count, tabulated once per prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import special

from .counts import CountTable

if TYPE_CHECKING:
    from .inference import DirichletPrior

_LN2 = math.log(2.0)
# Count-indexed terms are tabulated for counts below _TABLE_CAP; a larger
# count is evaluated directly.  _MEMO maps the last alpha scored to its cell
# and context tables, each (3, size) floats: at most 2 * 3 * 2**14 * 8 B.
_TABLE_CAP = 1 << 14
_MEMO: dict[float, list[np.ndarray]] = {}
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


def _scalar(value):
    """A Python float for a 0-d result, the array itself for a stack."""
    return float(value) if np.ndim(value) == 0 else value


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


def _count_sums(counts: CountTable, alpha: float, rows) -> tuple[list, list, np.ndarray]:
    """Sums of count-indexed terms, the kernel of log_evidence and expected_info.

    Each (context, symbol) cell of count n has the terms _terms(n, alpha),
    each context of count n(ctx) the terms _terms(n(ctx), 2 alpha), both
    over the scale _scale(alpha).  The result holds the cells' sums of the
    terms `rows`, the contexts' sums of them, each one per table, and the
    number of transitions counted in each table.  inference.log_evidence
    reads the rises, expected_info the psi and log2 terms.

    Sums run along the last axis, so each table of a stack gets the sums of
    its own call bit for bit.
    """
    contexts = counts.context_totals
    cells = counts.table.reshape(contexts.shape[:-1] + (-1,))
    scale = _scale(alpha)
    tables = _MEMO.get(alpha)
    if tables is None:
        tables = [np.empty((3, 0)), np.empty((3, 0))]
        _MEMO.clear()
        _MEMO[alpha] = tables
    return (_row_sums(tables, 0, alpha, cells, scale, rows),
            _row_sums(tables, 1, 2 * alpha, contexts, scale, rows), contexts.sum(axis=-1))


def _row_sums(tables, i, a, n, scale, rows) -> list:
    """Terms `rows` of the counts n under pseudo-count a, each summed over
    the last axis, gathered from the table tables[i] of the counts 0, 1, ...

    The table is first extended, to at least twice its size, to hold n's
    largest count, up to _TABLE_CAP entries.  A count past the cap is
    evaluated directly by _terms, which gives the same floats.
    """
    top, size = int(n.max(initial=0)), tables[i].shape[1]
    if size <= top and size < _TABLE_CAP:
        grown = min(_TABLE_CAP, max(top + 1, 2 * size))
        tables[i] = np.concatenate([tables[i], _terms(np.arange(size, grown), a, scale)], axis=1)
    table = tables[i]
    over = n >= table.shape[1] if top >= table.shape[1] else None
    direct = None if over is None else _terms(n[over], a, scale)
    sums = []
    for r in rows:
        terms = table[r].take(n, mode="clip")
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
    count tables each estimate is an array, one entry per table.
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

    Both rates are (sum_c m(c) f(m(c)) - sum_{c,s} m(c, s) f(m(c, s))) / beta,
    with f = psi / ln 2 and f = log2, from the count-indexed terms of
    _count_sums, which come divided by _scale(alpha); beta is divided by it
    too.  A table with a leading grid axis gives arrays of estimates, one
    per table, each equal bit for bit to that table's own call.
    """
    a = prior.alpha
    cells, contexts, windows = _count_sums(counts, a, (1, 2))
    nats, bits = (x - c for c, x in zip(cells, contexts))
    n_free = counts.table.shape[-2]
    beta = windows + 2 * n_free * a
    scaled = beta / _scale(a)
    return EntropyEstimate(
        expected_info=_scalar(nats / (scaled * _LN2)),
        h_rate_q=_scalar(bits / scaled),
        kl_correction=_scalar(n_free / (2.0 * beta * _LN2)),
    )
