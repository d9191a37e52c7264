"""Conjugate Bayesian inference for fixed-order Markov chains.

Each context carries an independent Dirichlet prior over its transition row,
so the likelihood integrates in closed form: the log evidence is a sum of
Dirichlet-multinomial normalization ratios.  Its terms, like those of the
entropy estimates, are each a function of one count: log_evidence is the
one-table view of entropy.order_scores, which scores both.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .counts import MAX_TABLE_ENTRIES, CountTable
from .entropy import _only, order_scores

# Accepted Dirichlet pseudo-counts.  digamma(alpha), about -1/alpha,
# overflows to -inf below the smallest normal float.  At the top, the largest
# table (MAX_TABLE_ENTRIES cells, k_max = 25) has posterior mass
# n + MAX_TABLE_ENTRIES * alpha of about half the largest float, so it and
# twice it (the bias term's denominator) stay finite.
MIN_ALPHA = sys.float_info.min
MAX_ALPHA = sys.float_info.max / (2 * MAX_TABLE_ENTRIES)


@dataclass(frozen=True)
class DirichletPrior:
    """Symmetric Dirichlet prior: pseudo-count alpha on every (context, symbol)
    cell, a single number in [MIN_ALPHA, MAX_ALPHA]."""

    alpha: float

    def __post_init__(self) -> None:
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha={self.alpha!r} must be a single number")
        # An integer is compared as it is, since float() overflows on a huge
        # one; NaN fails the comparison.
        alpha = self.alpha if isinstance(self.alpha, numbers.Integral) else float(self.alpha)
        if not MIN_ALPHA <= alpha <= MAX_ALPHA:
            raise ValueError(f"alpha={self.alpha} must lie in [{MIN_ALPHA!r}, {MAX_ALPHA!r}]")
        object.__setattr__(self, "alpha", float(alpha))


@dataclass(frozen=True)
class LogEvidence:
    """Natural-log marginal likelihood of a sample at one model order.

    `value` is an array, one evidence per table, for a stack of tables.
    """

    value: float | np.ndarray


def _check_binary(alphabet_size: int) -> None:
    """Reject a symbol count other than 2, the binary one the library counts."""
    if alphabet_size != 2:
        raise ValueError(f"alphabet_size={alphabet_size}: only 2 symbols are supported")


def uniform_prior(order: int, alphabet_size: int, value: float = 1.0) -> DirichletPrior:
    """Symmetric prior with every pseudo-count equal to `value`, at any order.

    The first two arguments, an order >= 0 and the number of symbols, which
    must be 2, are checked and not kept.  The default value 1 is flat over
    each transition row; the prior mean of every transition probability is
    then 1/2.
    """
    if order < 0:
        raise ValueError(f"order={order} must be >= 0")
    _check_binary(alphabet_size)
    return DirichletPrior(value)


def log_evidence(counts: CountTable, prior: DirichletPrior) -> LogEvidence:
    """Closed-form log marginal likelihood with the rows integrated out.

    Each context contributes rise(alpha, n0) + rise(alpha, n1)
    - rise(2 alpha, n0 + n1), where rise(a, n) = lnGamma(n + a) - lnGamma(a);
    an unvisited context contributes exactly 0.  The value is
    entropy.order_scores of this one table.

    A table with a leading grid axis, (G, contexts, 2), gives an
    array of G evidences, each equal bit for bit to that row's own call; a
    single table gives a float.
    """
    return LogEvidence(value=_only(order_scores([counts], prior)[0]))
