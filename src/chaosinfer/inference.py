"""Conjugate Bayesian inference for fixed-order Markov chains.

Each context carries an independent Dirichlet prior over its transition row,
so the likelihood integrates in closed form: the log evidence is a sum of
Dirichlet-multinomial normalization ratios.  Its terms, like those of the
entropy estimates, are each a function of one count: log_evidence is the
one-table view of entropy.order_scores, which scores both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .counts import CountTable
from .entropy import _only, order_scores


@dataclass(frozen=True)
class DirichletPrior:
    """Symmetric Dirichlet prior: pseudo-count alpha on every (context, symbol) cell."""

    alpha: float

    def __post_init__(self) -> None:
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha={self.alpha!r} must be a single number")
        alpha = float(self.alpha)
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"alpha={alpha} must be positive and finite")
        object.__setattr__(self, "alpha", alpha)


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
