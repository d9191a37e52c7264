"""Bayesian comparison of Markov orders with an optional model-size penalty."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import logsumexp

from .counts import CountTable, transition_counts
from .inference import DirichletPrior, log_evidence, uniform_prior
from .symbolize import SymbolSequence

ORDER_PRIOR_KINDS = ("uniform", "size_penalty")


@dataclass(frozen=True)
class OrderRange:
    """Inclusive range of Markov orders to compare."""

    k_min: int
    k_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.k_min <= self.k_max:
            raise ValueError(f"need 0 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")

    def orders(self) -> range:
        return range(self.k_min, self.k_max + 1)


@dataclass(frozen=True)
class OrderPosterior:
    """Per-order log priors and evidences plus the normalized posterior."""

    orders: tuple[int, ...]
    log_prior: tuple[float, ...]
    log_evidence: tuple[float, ...]
    posterior: tuple[float, ...]
    selected: int


def model_size(order: int, alphabet_size: int) -> int:
    """Number of free transition parameters of an order-k chain."""
    if order < 0:
        raise ValueError(f"order={order} must be >= 0")
    if alphabet_size < 2:
        raise ValueError(f"alphabet_size={alphabet_size} must be >= 2")
    return alphabet_size**order * (alphabet_size - 1)


def order_log_prior(order: int, alphabet_size: int, kind: str = "size_penalty") -> float:
    """Unnormalized natural-log prior weight of one order.

    size_penalty weights order k by exp(-model_size), uniform weights all
    orders equally.  Normalization happens when orders are compared.  Kinds
    may be spelled with a hyphen, as on the command line ("size-penalty").
    """
    kind = kind.replace("-", "_")
    if kind == "uniform":
        return 0.0
    if kind == "size_penalty":
        # float() raises OverflowError once the exact integer size leaves range.
        return -float(model_size(order, alphabet_size))
    raise ValueError(f"unknown order prior kind {kind!r}, expected one of {ORDER_PRIOR_KINDS}")


def order_log_evidences(
    tables: Mapping[int, CountTable], priors: Mapping[int, DirichletPrior]
) -> np.ndarray:
    """Log evidence of every order, orders along the last axis.

    `tables` maps each order, ascending, to its count table or to a stack of
    tables with a leading grid axis; the result then has shape (G, orders).
    """
    return np.stack(
        [log_evidence(table, priors[k]).value for k, table in tables.items()],
        axis=-1,
    )


def posterior_over_orders(log_evidences, log_priors) -> tuple[np.ndarray, np.ndarray]:
    """Normalized posterior over orders and the index of the winner, along the last axis.

    Scores are log evidence plus log prior; ties break toward the smaller
    index.  Any leading axes index independent rankings.
    """
    score = np.asarray(log_evidences, dtype=float) + np.asarray(log_priors, dtype=float)
    post = np.exp(score - logsumexp(score, axis=-1, keepdims=True))
    post /= post.sum(axis=-1, keepdims=True)
    return post, np.argmax(score, axis=-1)


def rank_orders(
    orders: Sequence[int],
    log_evidences: Sequence[float],
    log_priors: Sequence[float],
) -> OrderPosterior:
    """Normalize evidence plus prior across orders and pick the winner.

    Ties break toward the smaller order.  A warning is emitted when the
    winner sits at the top of the range, since the range may then be
    truncating the true memory length.
    """
    ks = tuple(int(k) for k in orders)
    if not ks or len(set(ks)) != len(ks) or list(ks) != sorted(ks):
        raise ValueError("orders must be nonempty, unique, and ascending")
    le = np.asarray(log_evidences, dtype=float)
    lp = np.asarray(log_priors, dtype=float)
    if le.shape != (len(ks),) or lp.shape != (len(ks),):
        raise ValueError("log evidences and log priors must align with orders")
    post, best = posterior_over_orders(le, lp)
    selected = ks[int(best)]
    if len(ks) > 1 and selected == ks[-1]:
        warnings.warn(
            f"selected order {selected} is the top of the range; "
            "the range may be truncating the true order",
            RuntimeWarning,
            stacklevel=2,
        )
    return OrderPosterior(
        orders=ks,
        log_prior=tuple(float(v) for v in lp),
        log_evidence=tuple(float(v) for v in le),
        posterior=tuple(float(v) for v in post),
        selected=selected,
    )


def order_posterior(
    seq: SymbolSequence,
    order_range: OrderRange,
    kind: str = "size_penalty",
    alpha: float = 1.0,
    priors: Mapping[int, DirichletPrior] | None = None,
) -> OrderPosterior:
    """Posterior over Markov orders for one symbol sequence.

    Evidence comes from the closed-form marginal likelihood at each order;
    `alpha` sets the symmetric Dirichlet pseudo-count unless explicit priors
    are supplied per order.
    """
    if len(seq) <= order_range.k_max:
        raise ValueError(
            f"sequence of length {len(seq)} too short for k_max={order_range.k_max}"
        )
    ks = list(order_range.orders())
    if priors is None:
        priors = {k: uniform_prior(k, seq.alphabet_size, alpha) for k in ks}
    les = order_log_evidences({k: transition_counts(seq, k) for k in ks}, priors)
    return rank_orders(ks, les, [order_log_prior(k, seq.alphabet_size, kind) for k in ks])
