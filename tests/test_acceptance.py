"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure)
and asserts the same condition, so the suite doubles as a report.
"""

import math

import numpy as np

from chaosinfer.counts import transition_counts
from chaosinfer.dynamics import MapSpec, NoiseSpec, generate_trajectory, lyapunov_exponent
from chaosinfer.entropy import digamma, expected_info
from chaosinfer.inference import log_evidence, uniform_prior
from chaosinfer.order_select import OrderRange, order_posterior
from chaosinfer.sweep import SweepConfig, emit, run_sweep
from chaosinfer.symbolize import SymbolSequence
from helpers import (
    golden_mean_probs,
    mc_evidence,
    mc_expected_info,
    reference_digamma,
    sample_markov_sequence,
    sequential_log_evidence,
)

GRID_TOL = 1e-12


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _columns(result):
    ds = np.array([row.d for row in result.rows])
    hs = np.array([row.h_expected_bits for row in result.rows])
    ks = np.array([-1 if row.k_selected is None else row.k_selected for row in result.rows])
    return ds, hs, ks


def test_c1_generating_partition_recovery(default_sweep_result):
    ds, hs, _ = _columns(default_sweep_result)
    step = ds[1] - ds[0]
    i = int(np.argmax(hs))
    ok = abs(ds[i] - 0.5) <= step + GRID_TOL and abs(hs[i] - 1.0) <= 0.05
    ok = ok and all(row.error is None for row in default_sweep_result.rows)
    _report(
        "C1 information-rate peak within one grid step of d=0.5 at 1.0 +/- 0.05 bits",
        ok,
        f"argmax d={ds[i]:.6f}, h={hs[i]:.4f} bits",
    )


def test_c2_extremes_carry_no_information(default_sweep_result):
    _, hs, _ = _columns(default_sweep_result)
    ok = hs[0] < 0.01 and hs[-1] < 0.01
    _report(
        "C2 expected information < 0.01 bits at d=0 and d=1",
        ok,
        f"h(0)={hs[0]:.5f}, h(1)={hs[-1]:.5f}",
    )


def _local_min_plateaus(ks):
    """Maximal constant runs strictly below both neighbors, interior only."""
    plateaus = []
    i, n = 0, len(ks)
    while i < n:
        j = i
        while j + 1 < n and ks[j + 1] == ks[i]:
            j += 1
        if i > 0 and j < n - 1 and ks[i - 1] > ks[i] and ks[j + 1] > ks[i]:
            plateaus.append((i, j))
        i = j + 1
    return plateaus


def test_c3_order_curve_minima(default_sweep_result):
    ds, _, ks = _columns(default_sweep_result)
    step = ds[1] - ds[0]

    def k_at(target):
        return int(ks[np.argmin(np.abs(ds - target))])

    k_left, k_center, k_right = k_at(0.3), k_at(0.5), k_at(0.7)
    first_min = k_center < k_left and k_center < k_right

    # Preimages of the map maximum: solutions of 4x(1-x) = 1/2.
    pre_lo = (2.0 - math.sqrt(2.0)) / 4.0
    pre_hi = (2.0 + math.sqrt(2.0)) / 4.0
    center = int(np.argmin(np.abs(ds - 0.5)))
    second_min = False
    hits = []
    for lo, hi in _local_min_plateaus(ks):
        if lo <= center <= hi:
            continue
        span = ds[lo : hi + 1]
        if (np.abs(span - pre_lo) <= 2 * step + GRID_TOL).any() or (
            np.abs(span - pre_hi) <= 2 * step + GRID_TOL
        ).any():
            second_min = True
            hits.append((float(ds[lo]), float(ds[hi]), int(ks[lo])))
    _report(
        "C3 order curve dips at d=0.5 and near a preimage of 1/2",
        first_min and second_min,
        f"k(0.3)={k_left}, k(0.5)={k_center}, k(0.7)={k_right}, preimage plateaus={hits}",
    )


def test_c4_lyapunov_benchmark():
    spec = MapSpec(r=4.0)
    traj = generate_trajectory(spec, NoiseSpec(0.0), n=100_000, transient=1_000, seed=3)
    lam = lyapunov_exponent(spec, traj)
    _report(
        "C4 noiseless Lyapunov exponent 1.00 +/- 0.02 bits/step at N=1e5",
        abs(lam - 1.0) <= 0.02,
        f"lambda={lam:.5f}",
    )


def test_c5_evidence_against_monte_carlo_and_predictive_product():
    inst_rng = np.random.default_rng(20260811)
    mc_rng = np.random.default_rng(987654321)
    max_z = 0.0
    max_gap = 0.0
    for _ in range(50):
        order = int(inst_rng.integers(0, 3))
        n = int(inst_rng.integers(order + 2, 21))
        data = inst_rng.integers(0, 2, n)
        counts = transition_counts(SymbolSequence(data), order)
        log_exact = log_evidence(counts, uniform_prior(order, 2)).value
        mean, se = mc_evidence(counts.table, 1_000_000, mc_rng)
        max_z = max(max_z, abs(math.exp(log_exact) - mean) / se)
        gap = abs(log_exact - sequential_log_evidence(data, order))
        max_gap = max(max_gap, gap)
    ok = max_z <= 3.0 and max_gap <= 1e-10
    _report(
        "C5 evidence matches 1e6-sample Monte Carlo (3 SE) and predictive product (1e-10)",
        ok,
        f"max |z|={max_z:.2f}, max log gap={max_gap:.2e}",
    )


def test_c6_estimator_against_posterior_sampling_and_asymptotics():
    inst_rng = np.random.default_rng(31415926)
    mc_rng = np.random.default_rng(535897932)
    max_z = 0.0
    for _ in range(20):
        order = int(inst_rng.integers(0, 3))
        n = int(inst_rng.integers(order + 2, 51))
        data = inst_rng.integers(0, 2, n)
        counts = transition_counts(SymbolSequence(data), order)
        exact = expected_info(counts, uniform_prior(order, 2)).expected_info
        mean, se = mc_expected_info(counts.table, 1.0, 150_000, mc_rng)
        max_z = max(max_z, abs(exact - mean) / se)

    coin = SymbolSequence(np.random.default_rng(5).integers(0, 2, 100_000))
    counts = transition_counts(coin, 1)
    est = expected_info(counts, uniform_prior(1, 2))
    gap = abs(est.expected_info - (est.h_rate_q + est.kl_correction))
    ok = max_z <= 3.0 and gap < 1e-3
    _report(
        "C6 digamma estimator matches posterior sampling (3 SE); asymptotic gap < 1e-3 at N=1e5",
        ok,
        f"max |z|={max_z:.2f}, asymptotic gap={gap:.2e} bits",
    )


def test_c7_golden_mean_recovery():
    seq = sample_markov_sequence(golden_mean_probs(), 1, 100_000, np.random.default_rng(77))
    ranking = order_posterior(seq, OrderRange(1, 4), "size_penalty")
    est = expected_info(transition_counts(seq, 1), uniform_prior(1, 2))
    err = abs(est.expected_info - 2.0 / 3.0)
    ok = ranking.selected == 1 and err < 0.01
    _report(
        "C7 golden-mean chain: k*=1 and entropy within 0.01 of 2/3 bit at N=1e5",
        ok,
        f"k*={ranking.selected}, h={est.expected_info:.5f}, err={err:.5f}",
    )


def test_c8_digamma_accuracy_and_recurrence():
    points = (0.5, 1.0, 2.0, 10.0, 1e4)
    max_err = max(abs(digamma(x) - reference_digamma(x)) for x in points)
    rng = np.random.default_rng(161803398)
    xs = 10.0 ** rng.uniform(-2.0, 3.0, 1_000)
    max_rec = float(np.max(np.abs(digamma(xs + 1.0) - digamma(xs) - 1.0 / xs)))
    ok = max_err <= 1e-12 and max_rec <= 1e-12
    _report(
        "C8 digamma within 1e-12 of the reference and of its recurrence",
        ok,
        f"max ref err={max_err:.2e}, max recurrence err={max_rec:.2e}",
    )


def test_c9_determinism_byte_identical_csv(tmp_path, default_sweep_result):
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    emit(default_sweep_result, "csv", str(p1))
    emit(run_sweep(SweepConfig()), "csv", str(p2))
    ok = p1.read_bytes() == p2.read_bytes()
    _report("C9 identical config yields byte-identical CSV", ok)
