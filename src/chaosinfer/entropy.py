"""Digamma-based posterior expectations of Markov-chain entropy rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .counts import CountTable, _symbol_sum
from .inference import DirichletPrior, _cell_terms, _scalar

_LN2 = math.log(2.0)


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


def _cell_sum(x):
    """Sum over the (context, symbol) cells of each table in a stack."""
    return x.reshape(x.shape[:-2] + (-1,)).sum(axis=-1)


def expected_info(counts: CountTable, prior: DirichletPrior) -> EntropyEstimate:
    """Posterior-expected information rate via digamma sums, in bits.

    Averaging the log posterior transition probabilities over the Dirichlet
    posterior turns every cell into a digamma of its pseudo-count:

        (1/ln 2) * [ sum_c q(c) psi(m(c)) - sum_{c,s} q(c, s) psi(m(c, s)) ]

    where m are pseudo-counts (counts + prior) and q their shares of beta.
    All digamma arguments are positive because the prior is.

    h_rate_q is the block-entropy difference H_{k+1} - H_k of the
    posterior-mean process and kl_correction the bias term
    n_free / (2 * beta * ln 2); their sum is the large-sample form, valid
    once pseudo-counts are large and reported regardless.

    A table with a leading grid axis gives arrays of estimates, one per
    table, each equal bit for bit to that table's own call.
    """
    post = counts.table + prior.alpha
    context_mass = _symbol_sum(post)
    beta = context_mass.sum(axis=-1)
    q_ctx = context_mass / beta[..., None]
    # Two cell-sized arrays: q_joint overwrites post, and log_q psi once summed.
    q_joint = np.divide(post, beta[..., None, None], out=post)
    psi = _cell_terms(digamma, counts.table, prior.alpha)
    nats = (q_ctx * digamma(context_mass)).sum(axis=-1) - _cell_sum(
        np.multiply(q_joint, psi, out=psi)
    )
    log_q = np.log2(q_joint, out=psi)
    h_joint = -_cell_sum(np.multiply(q_joint, log_q, out=log_q))
    h_ctx = -(q_ctx * np.log2(q_ctx)).sum(axis=-1)
    n_free = q_joint.shape[-2]
    return EntropyEstimate(
        expected_info=_scalar(nats / _LN2),
        h_rate_q=_scalar(h_joint - h_ctx),
        kl_correction=_scalar(n_free / (2.0 * beta * _LN2)),
    )
