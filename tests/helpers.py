"""Shared test utilities: independent oracles and synthetic Markov sources.

Every oracle here avoids the code path it checks: the digamma reference uses
mpmath at high precision, the evidence oracles use only counting, division,
and Monte-Carlo draws, and the information-rate oracle averages log
probabilities over posterior samples.  The sweep oracle symbolizes, counts
and scores every decision point on its own, one table at a time, where the
sweep counts and scores blocks of decision points at once.  Word counts, the
context codec, posterior means and the map itself are small restatements
that check the library's counts, prior and trajectories; the trajectory
reference restates the simulator with separate warm-up and recording loops.
The log evidence oracle evaluates mpmath's loggamma with enough digits
that its lnGamma(alpha) terms cancel exactly.  The entropy reference is a
frozen copy of expected_info as it evaluated digamma on every cell, which
the count-indexed kernel must match within KERNEL_REL_TOL and KERNEL_ABS_TOL.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

import mpmath
import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import digamma, gammaln

from chaosinfer.counts import CountTable, transition_counts
from chaosinfer.dynamics import (
    MapSpec,
    NoiseSpec,
    _reflect,
    generate_trajectory,
    lyapunov_exponent,
)
from chaosinfer.entropy import EntropyEstimate, expected_info
from chaosinfer.inference import DirichletPrior, log_evidence
from chaosinfer.order_select import order_log_prior, rank_orders
from chaosinfer.sweep import DetailRow, SweepConfig, SweepResult, SweepRow
from chaosinfer.symbolize import SymbolSequence, decision_grid, symbolize


def reference_digamma(x: float) -> float:
    """Digamma evaluated with 50 decimal digits, rounded to float."""
    with mpmath.workdps(50):
        return float(mpmath.digamma(mpmath.mpf(x)))


def count_words(seq: SymbolSequence, length: int) -> SimpleNamespace:
    """The overlapping words of a given length: `.counts` maps each word, a
    tuple of symbols, to its count, and `.total` is the number of windows."""
    windows = np.lib.stride_tricks.sliding_window_view(seq.symbols, length).tolist()
    return SimpleNamespace(counts=dict(Counter(map(tuple, windows))), total=len(windows))


def encode_context(word) -> int:
    """Row index of a binary context word, oldest symbol most significant."""
    return sum(int(s) * 2**i for i, s in enumerate(reversed(word)))


def decode_context(index: int, order: int) -> tuple[int, ...]:
    """Inverse of encode_context."""
    return tuple(index // 2**i % 2 for i in range(order - 1, -1, -1))


def posterior_mean(counts: CountTable, prior: DirichletPrior) -> SimpleNamespace:
    """Posterior-mean transition rows, (n + alpha) normalized per context, as `.probs`."""
    na = counts.table + prior.alpha
    return SimpleNamespace(probs=na / na.sum(axis=1, keepdims=True))


def map_apply(spec: MapSpec, x: float) -> float:
    """The map at one state x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"state x={x} outside [0, 1]")
    return spec.r * x * (1.0 - x)


def reference_trajectory(map_spec: MapSpec, noise: NoiseSpec, n: int, transient: int,
                         seed: int | None) -> np.ndarray:
    """The recorded states of generate_trajectory, from a frozen two-loop copy:
    the same start and shock draws, `transient` discarded steps, then n states,
    each step indexing the shock array with its own counter."""
    rng = np.random.default_rng(seed)
    x = float(rng.random())
    while x == 0.0:
        x = float(rng.random())
    r = map_spec.r
    shocks = noise.sigma * rng.standard_normal(transient + n - 1)
    states = np.empty(n, dtype=float)
    step = 0
    for _ in range(transient):
        x = _reflect(r * x * (1.0 - x) + shocks[step])
        step += 1
    states[0] = x
    for i in range(1, n):
        x = _reflect(r * x * (1.0 - x) + shocks[step])
        step += 1
        states[i] = x
    return states


def sequential_log_evidence(symbols, order: int, alpha: float = 1.0) -> float:
    """Log marginal likelihood as a running product of predictive probabilities.

    Conditioned on the first `order` binary symbols; each later symbol
    contributes (count + alpha) / (context count + 2 alpha), with counts
    taken over the history seen so far.
    """
    counts: dict[tuple[int, ...], list[float]] = {}
    syms = [int(s) for s in symbols]
    total = 0.0
    for t in range(order, len(syms)):
        ctx = tuple(syms[t - order : t])
        row = counts.setdefault(ctx, [0.0, 0.0])
        s = syms[t]
        total += math.log((row[s] + alpha) / (sum(row) + alpha * 2))
        row[s] += 1.0
    return total


def visited_log_evidence(table: np.ndarray, alpha: float) -> float:
    """Closed-form log evidence of one table under a symmetric prior, summed
    over the visited contexts alone (unvisited ones contribute exactly 0)."""
    table = np.asarray(table)
    a = np.full(table.shape, float(alpha))
    na = table + a
    per_context = (
        gammaln(a.sum(axis=1))
        - gammaln(a).sum(axis=1)
        + gammaln(na).sum(axis=1)
        - gammaln(na.sum(axis=1))
    )
    return float(per_context[table.sum(axis=1) > 0].sum())


def _scalar(value):
    return float(value) if np.ndim(value) == 0 else value


def mp_log_evidence(table, alpha: float) -> float:
    """Closed-form log evidence of one table, rounded to a float from
    mpmath's loggamma at log10(alpha) + 40 significant digits: enough that
    lnGamma(n + alpha) - lnGamma(alpha), of terms near alpha ln alpha, keeps
    more than 30.  Each distinct count is evaluated once."""
    table = np.asarray(table)
    with mpmath.workdps(40 + max(0, math.ceil(math.log10(alpha)))):
        total = mpmath.mpf(0)
        for pseudo, counts, sign in ((alpha, table.ravel(), 1), (2 * alpha, table.sum(axis=-1), -1)):
            a = mpmath.mpf(pseudo)
            base = mpmath.loggamma(a)
            for n, times in Counter(counts.tolist()).items():
                total += sign * times * (mpmath.loggamma(a + n) - base)
        return float(total)


# How far the count-indexed kernels may lie from the oracles: the log
# evidence from mp_log_evidence and sequential_log_evidence (relative), the
# entropy estimates from reference_expected_info (relative or absolute, as
# the benchmark's oracle allows).
EVIDENCE_REL_TOL = 1e-12
KERNEL_REL_TOL = 1e-9
KERNEL_ABS_TOL = 1e-12


def assert_estimates_close(got: EntropyEstimate, want: EntropyEstimate) -> None:
    """Each field of `got`, a float or an array, is close to `want`'s as
    math.isclose(rel_tol=KERNEL_REL_TOL, abs_tol=KERNEL_ABS_TOL) counts it."""
    for name in ("expected_info", "h_rate_q", "kl_correction"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        bound = np.maximum(KERNEL_REL_TOL * np.maximum(abs(a), abs(b)), KERNEL_ABS_TOL)
        assert np.all(abs(a - b) <= bound), (name, a, b)


def reference_expected_info(counts: CountTable, prior: DirichletPrior) -> EntropyEstimate:
    """expected_info as it was before its terms were gathered from
    count-indexed tables: digamma of every cell and every context."""
    def cell_sum(x):
        return x.reshape(x.shape[:-2] + (-1,)).sum(axis=-1)

    post = counts.table + prior.alpha
    context_mass = post.sum(axis=-1)
    beta = context_mass.sum(axis=-1)
    q_ctx = context_mass / beta[..., None]
    q_joint = post / beta[..., None, None]
    psi = digamma(post)
    nats = (q_ctx * digamma(context_mass)).sum(axis=-1) - cell_sum(
        np.multiply(q_joint, psi, out=psi)
    )
    log_q = np.log2(q_joint)
    h_joint = -cell_sum(np.multiply(q_joint, log_q, out=log_q))
    h_ctx = -(q_ctx * np.log2(q_ctx)).sum(axis=-1)
    n_free = q_joint.shape[-2]
    ln2 = math.log(2.0)
    return EntropyEstimate(
        expected_info=_scalar(nats / ln2),
        h_rate_q=_scalar(h_joint - h_ctx),
        kl_correction=_scalar(n_free / (2.0 * beta * ln2)),
    )


ALPHAS = st.sampled_from([0.5, 1.0, 2.7])


def count_stack(order: int, rows: int):
    """Strategy: int64 binary transition counts of shape (rows, 2**order, 2),
    with a random set of contexts left unvisited."""
    shape = (rows, 2**order, 2)
    return st.tuples(
        hnp.arrays(np.int64, shape, elements=st.integers(0, 60)),
        hnp.arrays(np.bool_, shape[:2]),
    ).map(lambda drawn: np.where(drawn[1][..., None], 0, drawn[0]))


def mc_evidence(table: np.ndarray, n_samples: int,
                rng: np.random.Generator, chunk: int = 250_000) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the prior-averaged likelihood.

    Binary alphabet under the flat prior (alpha = 1): each context's success
    probability is drawn uniformly, which is Beta(1, 1), and the likelihood
    of the counted transitions is averaged in probability space.
    """
    n0 = table[:, 0].astype(float)
    n1 = table[:, 1].astype(float)
    like = np.empty(n_samples)
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        p = rng.random(size=(m, table.shape[0]))
        assert np.all((p > 0.0) & (p < 1.0))
        ll = (n1 * np.log(p) + n0 * np.log1p(-p)).sum(axis=1)
        like[done : done + m] = np.exp(ll)
        done += m
    return float(like.mean()), float(like.std(ddof=1) / math.sqrt(n_samples))


def mc_expected_info(table: np.ndarray, alpha: float, n_draws: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Posterior-sampling estimate of the expected information rate (bits).

    Holds the posterior-mean process fixed and draws the sampled parameters
    from the per-context posterior; each draw contributes
    -sum q(ctx) q(s|ctx) log2 p(s|ctx), whose posterior average is the
    divergence-plus-entropy expectation.
    """
    post = table + alpha
    ctx = post.sum(axis=1)
    q_ctx = ctx / ctx.sum()
    q = post / ctx[:, None]
    p1 = rng.beta(post[:, 1], post[:, 0], size=(n_draws, post.shape[0]))
    assert np.all((p1 > 0.0) & (p1 < 1.0))
    vals = -(q_ctx * (q[:, 1] * np.log2(p1) + q[:, 0] * np.log2(1.0 - p1))).sum(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_draws))


def golden_mean_probs() -> np.ndarray:
    """Order-1 chain forbidding consecutive ones; entropy rate 2/3 bit."""
    return np.array([[0.5, 0.5], [1.0, 0.0]])


def sample_markov_sequence(probs: np.ndarray, order: int, n: int,
                           rng: np.random.Generator) -> SymbolSequence:
    """Draw n binary symbols from a fixed chain given as rows p(symbol | context).

    The first `order` symbols are uniform; afterwards the rolling context
    indexes the transition rows.
    """
    probs = np.asarray(probs, dtype=float)
    n_contexts = 2**order
    assert probs.shape == (n_contexts, 2)
    cdf = probs.cumsum(axis=1)
    u = rng.random(n)
    out = np.empty(n, dtype=np.int64)
    for t in range(min(order, n)):
        out[t] = min(int(u[t] * 2), 1)
    ctx = 0
    for t in range(order):
        ctx = ctx * 2 + int(out[t])
    for t in range(order, n):
        s = int(np.searchsorted(cdf[ctx], u[t], side="right"))
        out[t] = min(s, 1)
        ctx = (ctx * 2 + out[t]) % n_contexts
    return SymbolSequence(out)


def per_d_sweep(config: SweepConfig) -> SweepResult:
    """The sweep computed one decision point at a time.

    Each point symbolizes its series and counts every order with
    transition_counts; no row may fail.
    """
    map_spec, noise = MapSpec(config.family, config.r), NoiseSpec(config.sigma)
    orders = tuple(range(config.k_min, config.k_max + 1))
    base = generate_trajectory(map_spec, noise, config.n, config.transient, config.seed)
    rows, detail = [], []
    for i, part in enumerate(decision_grid(config.grid)):
        traj = base
        if config.regenerate_per_d:
            traj = generate_trajectory(map_spec, noise, config.n, config.transient,
                                       config.seed + 1 + i)
        seq = symbolize(traj, part)
        tables = {k: transition_counts(seq, k) for k in orders}
        prior = DirichletPrior(config.alpha)
        ranking = rank_orders(
            orders,
            [log_evidence(tables[k], prior).value for k in orders],
            [order_log_prior(k, 2, config.order_prior) for k in orders],
        )
        ests = {k: expected_info(tables[k], prior) for k in orders}
        best = ests[ranking.selected]
        d = part.decision_point
        rows.append(SweepRow(d, ranking.selected, best.expected_info, best.h_rate_q,
                             best.kl_correction, ranking.log_evidence, ranking.posterior))
        if config.detail_path is not None:
            detail.extend(
                DetailRow(d, k, ests[k].expected_info, ests[k].h_rate_q, ests[k].kl_correction,
                          le, p_k)
                for k, le, p_k in zip(orders, ranking.log_evidence, ranking.posterior)
            )
    return SweepResult.from_rows(config, lyapunov_exponent(map_spec, base), rows, detail)
