"""Conjugate Bayesian inference for fixed-order Markov chains.

Each context carries an independent Dirichlet prior over its transition row,
so the likelihood integrates in closed form: the log evidence is a sum of
Dirichlet-multinomial normalization ratios and the posterior mean is counts
plus pseudo-counts, normalized per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .counts import CountTable

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DirichletPrior:
    """Positive pseudo-counts alpha(context -> symbol), one row per context."""

    order: int
    alphabet_size: int
    alpha: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        expected = (self.alphabet_size**self.order, self.alphabet_size)
        if alpha.shape != expected:
            raise ValueError(f"alpha shape {alpha.shape} does not match {expected}")
        if not np.all(alpha > 0.0):
            raise ValueError("all Dirichlet parameters must be positive")

    @property
    def context_alpha(self) -> np.ndarray:
        """Total prior mass per context, alpha(context) = sum_s alpha(context -> s)."""
        return self.alpha.sum(axis=1)


@dataclass(frozen=True)
class MarkovChainParams:
    """Transition probabilities p(symbol | context), one row per context."""

    order: int
    alphabet_size: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        expected = (self.alphabet_size**self.order, self.alphabet_size)
        if probs.shape != expected:
            raise ValueError(f"probs shape {probs.shape} does not match {expected}")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.any(np.abs(probs.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
            raise ValueError("each context row must sum to 1")


@dataclass(frozen=True)
class LogEvidence:
    """Natural-log marginal likelihood of a sample at one model order.

    `value` is an array, one evidence per table, for a stack of tables.
    """

    value: float | np.ndarray
    order: int


def uniform_prior(order: int, alphabet_size: int, value: float = 1.0) -> DirichletPrior:
    """Symmetric prior with every pseudo-count equal to `value`.

    The default value 1 is flat over each transition row; the prior mean of
    every transition probability is then 1/alphabet_size.
    """
    if order < 0:
        raise ValueError(f"order={order} must be >= 0")
    if alphabet_size < 2:
        raise ValueError(f"alphabet_size={alphabet_size} must be >= 2")
    if not value > 0.0:
        raise ValueError(f"value={value} must be positive")
    shape = (alphabet_size**order, alphabet_size)
    return DirichletPrior(order=order, alphabet_size=alphabet_size, alpha=np.full(shape, float(value)))


def _scalar(value):
    """A Python float for a 0-d result, the array itself for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def _check_match(counts: CountTable, prior: DirichletPrior) -> None:
    if counts.order != prior.order or counts.alphabet_size != prior.alphabet_size:
        raise ValueError(
            f"count table (order {counts.order}, alphabet {counts.alphabet_size}) does not "
            f"match prior (order {prior.order}, alphabet {prior.alphabet_size})"
        )


def log_likelihood(params: MarkovChainParams, counts: CountTable) -> float:
    """Natural-log probability of the counted transitions under fixed parameters."""
    if counts.order != params.order or counts.alphabet_size != params.alphabet_size:
        raise ValueError("count table does not match parameters")
    n = counts.table
    observed = n > 0
    p = params.probs[observed]
    if np.any(p == 0.0):
        raise ValueError("observed transition has zero probability under the model")
    return float((n[observed] * np.log(p)).sum())


def log_evidence(counts: CountTable, prior: DirichletPrior) -> LogEvidence:
    """Closed-form log marginal likelihood with the rows integrated out.

    Per visited context the contribution is
    lnGamma(alpha(ctx)) - sum_s lnGamma(alpha) + sum_s lnGamma(n + alpha)
    - lnGamma(n(ctx) + alpha(ctx)); unvisited contexts contribute exactly 0.

    A table with a leading grid axis, (G, contexts, alphabet), gives an
    array of G evidences, each equal bit for bit to that row's own call; a
    single table gives a float.
    """
    _check_match(counts, prior)
    a = prior.alpha
    na = counts.table + a
    na_context = na.sum(axis=-1)
    per_context = gammaln(a.sum(axis=-1)) - gammaln(a).sum(axis=-1)
    per_context = per_context + gammaln(na, out=na).sum(axis=-1)
    per_context -= gammaln(na_context, out=na_context)
    visited = counts.context_totals > 0
    value = np.where(visited, per_context, 0.0).sum(axis=-1)
    return LogEvidence(value=_scalar(value), order=counts.order)


def posterior_mean(counts: CountTable, prior: DirichletPrior) -> MarkovChainParams:
    """Posterior-mean transition rows, (n + alpha) normalized per context.

    Defined for every context; unvisited ones fall back to the prior mean.
    """
    _check_match(counts, prior)
    na = counts.table + prior.alpha
    probs = na / na.sum(axis=1, keepdims=True)
    return MarkovChainParams(order=counts.order, alphabet_size=counts.alphabet_size, probs=probs)
