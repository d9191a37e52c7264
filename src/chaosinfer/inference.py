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

from .counts import CountTable


@dataclass(frozen=True)
class DirichletPrior:
    """Symmetric Dirichlet prior: pseudo-count alpha on every (context, symbol) cell."""

    order: int
    alphabet_size: int
    alpha: float

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order={self.order} must be >= 0")
        if self.alphabet_size < 2:
            raise ValueError(f"alphabet_size={self.alphabet_size} must be >= 2")
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


def uniform_prior(order: int, alphabet_size: int, value: float = 1.0) -> DirichletPrior:
    """Symmetric prior with every pseudo-count equal to `value`.

    The default value 1 is flat over each transition row; the prior mean of
    every transition probability is then 1/alphabet_size.
    """
    return DirichletPrior(order=order, alphabet_size=alphabet_size, alpha=value)


def _scalar(value):
    """A Python float for a 0-d result, the array itself for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def _check_match(counts: CountTable, prior: DirichletPrior) -> None:
    if counts.order != prior.order or counts.alphabet_size != prior.alphabet_size:
        raise ValueError(
            f"count table (order {counts.order}, alphabet {counts.alphabet_size}) does not "
            f"match prior (order {prior.order}, alphabet {prior.alphabet_size})"
        )


def log_evidence(counts: CountTable, prior: DirichletPrior) -> LogEvidence:
    """Closed-form log marginal likelihood with the rows integrated out.

    Per visited context the contribution is
    lnGamma(m alpha) - m lnGamma(alpha) + sum_s lnGamma(n + alpha)
    - lnGamma(n(ctx) + m alpha), m the alphabet size; unvisited contexts
    contribute exactly 0.

    A table with a leading grid axis, (G, contexts, alphabet), gives an
    array of G evidences, each equal bit for bit to that row's own call; a
    single table gives a float.
    """
    _check_match(counts, prior)
    a, m = prior.alpha, prior.alphabet_size
    na = counts.table + a
    na_context = na.sum(axis=-1)
    per_context = gammaln(m * a) - m * gammaln(a) + gammaln(na, out=na).sum(axis=-1)
    per_context -= gammaln(na_context, out=na_context)
    visited = counts.context_totals > 0
    value = np.where(visited, per_context, 0.0).sum(axis=-1)
    return LogEvidence(value=_scalar(value))

