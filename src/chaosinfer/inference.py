"""Conjugate Bayesian inference for fixed-order Markov chains.

Each context carries an independent Dirichlet prior over its transition row,
so the likelihood integrates in closed form: the log evidence is a sum of
Dirichlet-multinomial normalization ratios.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .counts import CountTable, _symbol_sum


@dataclass(frozen=True)
class DirichletPrior:
    """Symmetric Dirichlet prior: pseudo-count alpha on every (context, symbol) cell."""

    order: int
    alpha: float

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order={self.order} must be >= 0")
        if not isinstance(self.alpha, numbers.Real):
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
    """Symmetric prior with every pseudo-count equal to `value`.

    The second argument, the number of symbols, must be 2.  The default
    value 1 is flat over each transition row; the prior mean of every
    transition probability is then 1/2.
    """
    _check_binary(alphabet_size)
    return DirichletPrior(order=order, alpha=value)


def _scalar(value):
    """A Python float for a 0-d result, the array itself for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def _cell_terms(f, table: np.ndarray, alpha: float) -> np.ndarray:
    """f(table + alpha), f applied to every cell.

    When the table holds integer counts from 0 up to a largest count `top`
    below table.size, each term is gathered from f(alpha + arange(top + 1)),
    which evaluates f fewer times than there are cells.  alpha + n is the
    same float either way, so the terms are the same.  Otherwise f is
    evaluated on every cell.
    """
    if table.dtype.kind in "iu" and table.size:
        top = int(table.max())
        if top < table.size and table.min() >= 0:
            return f(alpha + np.arange(top + 1)).take(table)
    return f(table + alpha)


def _check_match(counts: CountTable, prior: DirichletPrior) -> None:
    if counts.order != prior.order:
        raise ValueError(
            f"count table of order {counts.order} does not match prior of order {prior.order}"
        )


def log_evidence(counts: CountTable, prior: DirichletPrior) -> LogEvidence:
    """Closed-form log marginal likelihood with the rows integrated out.

    Per visited context the contribution is
    lnGamma(2 alpha) - 2 lnGamma(alpha) + sum_s lnGamma(n + alpha)
    - lnGamma(n(ctx) + 2 alpha); unvisited contexts contribute exactly 0.

    A table with a leading grid axis, (G, contexts, 2), gives an
    array of G evidences, each equal bit for bit to that row's own call; a
    single table gives a float.
    """
    _check_match(counts, prior)
    a = prior.alpha
    na_context = _symbol_sum(counts.table + a)
    cells = _symbol_sum(_cell_terms(gammaln, counts.table, a))
    per_context = gammaln(2 * a) - 2 * gammaln(a) + cells
    per_context -= gammaln(na_context, out=na_context)
    visited = counts.context_totals > 0
    value = np.where(visited, per_context, 0.0).sum(axis=-1)
    return LogEvidence(value=_scalar(value))

